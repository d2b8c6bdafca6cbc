import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from conftest import forking
from egoact import evaluation, synth
from egoact.cli import main
from egoact.dataio import read_frame_sequence, read_manifest, write_json
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


# ---------------------------------------------------------------------------
# videos render on the forked worker pool

EIGHT_CLASSES = SynthConfig(class_count=8, videos_per_class=4, width=24, height=24,
                            frame_count=12, seed=2)
TINY = SynthConfig(class_count=2, videos_per_class=4, width=16, height=16, frame_count=4)


@forking
@pytest.mark.parametrize("cfg", [SynthConfig(), EIGHT_CLASSES], ids=["default", "eight_classes"])
def test_dataset_is_byte_identical_on_one_or_many_cpus(tmp_path, monkeypatch, cfg):
    trees = []
    for cpus in (1, 8):   # 8 forks that many workers even on a smaller machine
        monkeypatch.setattr(evaluation, "usable_cpus", lambda cpus=cpus: cpus)
        generate_synthetic_dataset(cfg, tmp_path / str(cpus))
        trees.append(tree_bytes(tmp_path / str(cpus)))
    assert trees[0] == trees[1]
    assert len(trees[0]) == cfg.class_count * cfg.videos_per_class + 1


@forking
def test_videos_render_in_child_processes(tmp_path, monkeypatch, many_cpus):
    pids = multiprocessing.RawArray("i", TINY.class_count * TINY.videos_per_class)   # shared
    render = synth.synthesize_video

    def recording(cfg, class_index, video_index):
        pids[class_index * cfg.videos_per_class + video_index] = os.getpid()
        return render(cfg, class_index, video_index)

    monkeypatch.setattr(synth, "synthesize_video", recording)
    generate_synthetic_dataset(TINY, tmp_path)
    assert 0 not in pids[:] and os.getpid() not in pids[:]


def fail_on_video(monkeypatch):
    render = synth.synthesize_video

    def failing(cfg, class_index, video_index):
        if (class_index, video_index) == (1, 2):
            raise ValidationError("video (1, 2): renderer failed")
        return render(cfg, class_index, video_index)

    monkeypatch.setattr(synth, "synthesize_video", failing)


@forking
@pytest.mark.parametrize("cpus", [1, 8])
def test_a_failing_video_is_raised_and_no_manifest_written(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
    fail_on_video(monkeypatch)
    with pytest.raises(ValidationError, match=r"^video \(1, 2\): renderer failed$"):
        generate_synthetic_dataset(TINY, tmp_path)
    assert not (tmp_path / "manifest.json").exists()


@forking
def test_a_failing_video_fails_synth_alike_on_one_or_two_cpus(tmp_path, monkeypatch, capsys):
    fail_on_video(monkeypatch)
    config = tmp_path / "config.json"
    write_json(config, {"synth": {"class_count": 2, "videos_per_class": 4, "width": 16,
                                  "height": 16, "frame_count": 4}})
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"data{cpus}"
        code = main(["synth", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
        assert not (out / "manifest.json").exists()
    assert outcomes[0] == outcomes[1] == (1, "", "error: video (1, 2): renderer failed\n")


def test_a_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    generate_synthetic_dataset(TINY, data)
    fail_on_video(monkeypatch)
    with pytest.raises(ValidationError, match="renderer failed"):
        generate_synthetic_dataset(dataclasses.replace(TINY, seed=TINY.seed + 1), data)
    assert not (data / "manifest.json").exists()
    assert main(["extract", "--data", str(data), "--out", str(tmp_path / "desc")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "manifest.json" in captured.err
