import numpy as np
import pytest

from egoact.dataio import read_frame_sequence, read_manifest
from egoact.errors import ValidationError
from egoact.flow import sequence_flows
from egoact.synth import (
    SynthConfig,
    class_signature,
    generate_synthetic_dataset,
    synthesize_video,
)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_generation_is_byte_identical(tmp_path):
    cfg = SynthConfig(class_count=2, videos_per_class=4, seed=7)
    first = tmp_path / "a"
    second = tmp_path / "b"
    generate_synthetic_dataset(cfg, first)
    generate_synthetic_dataset(cfg, second)
    assert tree_bytes(first) == tree_bytes(second)


def test_different_seeds_differ(tmp_path):
    base = SynthConfig(class_count=2, videos_per_class=4, seed=7)
    other = SynthConfig(class_count=2, videos_per_class=4, seed=8)
    first = tmp_path / "a"
    second = tmp_path / "b"
    generate_synthetic_dataset(base, first)
    generate_synthetic_dataset(other, second)
    assert tree_bytes(first) != tree_bytes(second)


def test_class0_is_rightward_pan_at_two_pixels():
    cfg = SynthConfig(class_count=2, videos_per_class=4, seed=3)
    seq = synthesize_video(cfg, 0, 0)
    assert class_signature(0)[0] == "pan_right"
    interior = (slice(4, -4), slice(4, -4))
    means_u, means_v = [], []
    for t in (6, 12, 18):
        u, v = sequence_flows(seq.frames[t : t + 2])[0]
        means_u.append(u[interior].mean())
        means_v.append(v[interior].mean())
    mean_u = float(np.mean(means_u))
    mean_v = float(np.mean(means_v))
    assert abs(mean_u - 2.0) <= 0.5   # within 25 percent of 2 px/frame
    assert abs(mean_v) <= 0.5


def test_static_class_without_noise_is_motionless():
    cfg = SynthConfig(class_count=5, videos_per_class=4, noise_sigma=0.0, seed=1)
    assert class_signature(4) == ("static", "none")
    seq = synthesize_video(cfg, 4, 0)
    assert np.array_equal(seq.frames[0], seq.frames[-1])  # literally static
    for u, v in sequence_flows(seq.frames[:4]):
        assert np.abs(u).max() <= 1e-9
        assert np.abs(v).max() <= 1e-9


def test_manifest_and_files_written(tmp_path):
    cfg = SynthConfig(class_count=3, videos_per_class=4, seed=5)
    manifest = generate_synthetic_dataset(cfg, tmp_path)
    loaded = read_manifest(tmp_path / "manifest.json")
    assert loaded == manifest
    assert len(manifest.classes) == 3
    assert manifest.class_counts() == [4, 4, 4]
    for entry in manifest.videos:
        seq = read_frame_sequence(tmp_path / entry.path)
        assert (seq.width, seq.height, seq.frame_count) == (cfg.width, cfg.height, cfg.frame_count)


def test_rotating_pair_shares_global_motion():
    assert class_signature(2)[0] == class_signature(3)[0] == "rotate"
    assert class_signature(2)[1] != class_signature(3)[1]


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(class_count=1)
    with pytest.raises(ValidationError):
        SynthConfig(videos_per_class=2)
    with pytest.raises(ValidationError):
        SynthConfig(noise_sigma=-1.0)
    with pytest.raises(ValidationError):
        SynthConfig(width=4)


def test_every_signature_renders():
    cfg = SynthConfig(class_count=8, videos_per_class=4, width=24, height=24,
                      frame_count=12, seed=2)
    for k in range(8):
        seq = synthesize_video(cfg, k, 0)
        assert seq.frames.shape == (12, 24, 24)
