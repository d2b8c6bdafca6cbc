"""Acceptance criterion 08 on the acceptance dataset with every video mirrored
in x. Each stage has a known mirror image (flow's u changes sign, hof's cell
columns and orientation bins permute, logc entries change sign, cuboid points
mirror), so the end-to-end trend must survive it. At the default
``logc.pixel_step`` of 2 on an even width, mirroring changes which pixels logc
samples, so its accuracy may move; every threshold must still hold."""

import time

from egoact.config import RunConfig
from egoact.dataio import FrameSequence, read_frame_sequence, write_frame_sequence
from egoact.evaluation import extract_dataset_descriptors, run_experiment
from egoact.synth import generate_synthetic_dataset
from oracles import pair_confusion

# criterion 08's five protocol runs: name -> (method, features)
RUNS = {
    "hof": ("single_kernel", ("hof",)),
    "logc": ("single_kernel", ("logc",)),
    "cuboid": ("single_kernel", ("cuboid",)),
    "simple_mkl": ("simple_mkl", ("hof", "logc", "cuboid")),
    "boost_mkl": ("boost_mkl", ("hof", "logc", "cuboid")),
}


def test_mirrored_acceptance_dataset_meets_every_criterion_08_threshold(tmp_path):
    started = time.monotonic()
    cfg = RunConfig()  # 4 classes x 12 videos, 32x32x24, split 9/3
    manifest = generate_synthetic_dataset(cfg.synth, tmp_path)
    for entry in manifest.videos:
        path = tmp_path / entry.path
        write_frame_sequence(FrameSequence(read_frame_sequence(path).frames[:, :, ::-1]), path)
    cache = extract_dataset_descriptors(manifest, tmp_path, ("hof", "logc", "cuboid"), cfg)
    runs = {name: run_experiment(manifest, tmp_path, cfg, method, kernel_kind="h_int",
                                 features=feats, repeats=20, base_seed=42, descriptor_cache=cache)
            for name, (method, feats) in RUNS.items()}

    singles = {n: runs[n].mean_accuracy for n in ("hof", "logc", "cuboid")}
    for combined_name in ("simple_mkl", "boost_mkl"):
        combined = runs[combined_name].mean_accuracy
        assert combined >= 90.0, (combined_name, combined)
        for single_name, single in singles.items():
            assert combined >= single - 1.0, (combined_name, combined, single_name, single)
    # only the cuboid feature tells classes 2 and 3 apart
    for global_feature in ("hof", "logc"):
        assert pair_confusion(runs[global_feature], 2, 3) <= 75.0
    for name in ("cuboid", "simple_mkl", "boost_mkl"):
        assert pair_confusion(runs[name], 2, 3) >= 85.0
    assert time.monotonic() - started < 600.0
