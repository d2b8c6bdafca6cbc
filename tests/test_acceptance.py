"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end criteria share one synthetic dataset fixture.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import egoact.boost as boost_mod
from egoact.boost import boost_predict_many, boost_train
from egoact.cli import main
from egoact.config import RunConfig
from egoact.dataio import DatasetManifest, VideoEntry, write_json
from egoact.descriptors import HofParams, hof_window_histogram, kinematic_features
from egoact.evaluation import extract_dataset_descriptors, run_experiment
from egoact.kernels import (
    DC_INT,
    GAUSSIAN,
    H_INT,
    JPL_INT,
    KernelSpec,
    combine,
    gram_matrix,
)
from egoact.linalg import matrix_log
from egoact.mkl import simple_mkl_train
from egoact.svm import decision_many, smo_train
from egoact.synth import generate_synthetic_dataset
from oracles import (
    kkt_residuals,
    matrix_exp,
    pair_confusion,
    predict_labels,
    random_svm_problem,
    svm_dual_oracle,
    svm_dual_value,
    training_error_bound,
)


def report(number, text):
    print(f"PASS criterion {number}: {text}", flush=True)


# ---------------------------------------------------------------------------
# shared end-to-end fixtures

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    cfg = RunConfig()  # 4 classes x 12 videos, 32x32x24, split 9/3
    manifest = generate_synthetic_dataset(cfg.synth, root)
    cache = extract_dataset_descriptors(manifest, root, ("hof", "logc", "cuboid"), cfg)
    return {"root": root, "cfg": cfg, "manifest": manifest, "cache": cache,
            "started": time.monotonic()}


@pytest.fixture(scope="module")
def experiment_reports(dataset):
    """The five protocol runs of criterion 8, with every boosted training run
    checked against the AdaBoost bound (criterion 3's suite-wide clause)."""
    bound_checks = {"count": 0}
    original = boost_mod.boost_train

    def checked_boost_train(bank, y, trials, c_reg, seed, **kwargs):
        model = original(bank, y, trials, c_reg, seed, **kwargs)
        scores = boost_predict_many(model, bank)
        training_error = float((predict_labels(scores) != np.asarray(y)).mean())
        assert training_error <= training_error_bound(model) + 1e-12
        bound_checks["count"] += 1
        return model

    boost_mod.boost_train = checked_boost_train
    try:
        runs = {}
        for name, method, feats in [
            ("hof", "single_kernel", ("hof",)),
            ("logc", "single_kernel", ("logc",)),
            ("cuboid", "single_kernel", ("cuboid",)),
            ("simple_mkl", "simple_mkl", ("hof", "logc", "cuboid")),
            ("boost_mkl", "boost_mkl", ("hof", "logc", "cuboid")),
        ]:
            runs[name] = run_experiment(
                dataset["manifest"], dataset["root"], dataset["cfg"], method,
                kernel_kind="h_int", features=feats, repeats=20, base_seed=42,
                descriptor_cache=dataset["cache"],
            )
    finally:
        boost_mod.boost_train = original
    runs["bound_checks"] = bound_checks["count"]
    return runs


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_smo_matches_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(20):
        kernel, y, c_reg = random_svm_problem(rng, max_size=8)
        model = smo_train(kernel, y, c_reg, tol=1e-7)
        oracle = svm_dual_oracle(kernel, y, np.full(y.size, c_reg))
        worst_gap = max(worst_gap, abs(model.objective - svm_dual_value(oracle, y, kernel)))
        worst_kkt = max(worst_kkt, float(kkt_residuals(model, kernel, y).max()))
    elapsed = time.monotonic() - started
    assert worst_gap <= 1e-6
    assert worst_kkt <= 1e-3
    assert elapsed < 10.0
    report(1, f"SMO dual within {worst_gap:.2e} of the brute-force oracle, "
              f"KKT residual {worst_kkt:.2e} ({elapsed:.1f}s)")


def test_criterion_02_simple_mkl_selects_informative_kernel():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    n = 48
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    informative = y[:, None] * 2.0 + 0.3 * rng.normal(size=(n, 1))
    full = np.hstack([informative, rng.normal(size=(n, 2))])
    specs = [KernelSpec(GAUSSIAN, sigma=8.0, block=(k, 1)) for k in range(3)]
    grams = [gram_matrix(full, s) for s in specs]

    accuracies = []
    for gram in grams:
        plain = smo_train(gram, y, 1.0)
        accuracies.append(float(((decision_many(plain, gram) >= 0) == (y > 0)).mean()))
    assert accuracies[0] >= 0.95, "construction: informative kernel must train well"
    assert max(accuracies[1:]) <= 0.60, "construction: noise kernels must not"

    model = simple_mkl_train(np.stack(grams), y, 1.0)
    elapsed = time.monotonic() - started
    assert model.weights[0] >= 0.7
    assert model.weights.min() >= -1e-9
    assert abs(model.weights.sum() - 1.0) <= 1e-9
    history = model.objective_history
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert elapsed < 30.0
    report(2, f"SimpleMKL weight on the informative kernel {model.weights[0]:.3f}, "
              f"objective monotone over {len(history)} steps ({elapsed:.1f}s)")


def test_criterion_03_boosting_bound_and_separable_convergence(experiment_reports):
    started = time.monotonic()
    rng = np.random.default_rng(5)
    n = 24
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    good = y[:, None] * 2.0 + 0.2 * rng.normal(size=(n, 1))
    full = np.hstack([good, rng.normal(size=(n, 2))])
    specs = [KernelSpec(GAUSSIAN, sigma=4.0, block=(k, 1)) for k in range(3)]
    bank = np.stack([gram_matrix(full, s) for s in specs])

    checked = 0
    for seed in range(6):
        model = boost_train(bank, y, trials=10, c_reg=10.0, seed=seed)
        scores = boost_predict_many(model, bank)
        error = float((predict_labels(scores) != y).mean())
        assert error <= training_error_bound(model) + 1e-12
        checked += 1
        if seed == 0:
            assert error == 0.0, "separable construction must reach zero training error"
    # noisy constructions stress the bound with nonzero trial errors
    for seed in range(4):
        noisy_y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if abs(noisy_y.sum()) == n:
            noisy_y[0] = -noisy_y[0]
        noisy = np.hstack([noisy_y[:, None] * 0.5 + rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 2))])
        noisy_bank = np.stack([gram_matrix(noisy, s) for s in specs])
        model = boost_train(noisy_bank, noisy_y, trials=8, c_reg=1.0, seed=seed)
        scores = boost_predict_many(model, noisy_bank)
        error = float((predict_labels(scores) != noisy_y).mean())
        assert error <= training_error_bound(model) + 1e-12
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    total = checked + experiment_reports["bound_checks"]
    report(3, f"AdaBoost training-error bound held on all {total} boosted runs "
              f"in the suite; separable data reached zero error within 10 trials "
              f"({elapsed:.1f}s)")


def test_criterion_04_matrix_log_fidelity():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        basis = rng.normal(size=(12, 12))
        q, _ = np.linalg.qr(basis)
        spd = (q * np.exp(rng.uniform(-2.5, 2.5, size=12))) @ q.T
        back = matrix_exp(matrix_log(spd))
        worst = max(worst, np.linalg.norm(back - spd) / np.linalg.norm(spd))
    elapsed = time.monotonic() - started
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(4, f"exp(log(C)) relative error at most {worst:.2e} over 100 random "
              f"SPD matrices ({elapsed:.1f}s)")


def test_criterion_05_kinematic_correctness():
    omega = 0.1
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    center = 15.5
    flows = np.stack([-omega * (ys - center), omega * (xs - center)])[None]
    zero = np.zeros((2, 32, 32))
    feats = kinematic_features(flows, zero)[0]
    interior = (slice(1, -1), slice(1, -1))
    div = feats[..., 7][interior]
    vort = feats[..., 8][interior]
    assert np.abs(div).max() <= 1e-14
    assert np.abs(vort - 0.2).max() <= 1e-14
    grad_norm, strain_norm, vort_full = feats[..., 9], feats[..., 10], feats[..., 8]
    residual = np.abs(strain_norm**2 + vort_full**2 / 2.0 - grad_norm**2)
    assert residual.max() <= 1e-12
    report(5, f"rotation-field divergence 0 and vorticity 0.2 to machine precision; "
              f"strain/vorticity/gradient identity residual {residual.max():.2e}")


def test_criterion_06_hof_rotation_equivariance():
    rng = np.random.default_rng(3)
    params = HofParams(grid_size=4, window_len=4, stride=4, min_magnitude=0.0)
    flows = np.stack([np.stack([rng.normal(size=(32, 32)), rng.normal(size=(32, 32))])
                      for _ in range(3)])
    rotated = np.stack([-flows[:, 1], flows[:, 0]], axis=1)
    base = hof_window_histogram(flows, params, normalize=False).reshape(4, 4, 8)
    turned = hof_window_histogram(rotated, params, normalize=False).reshape(4, 4, 8)
    assert np.array_equal(turned, np.roll(base, 2, axis=2))
    report(6, "90-degree flow rotation shifts every cell histogram by exactly 2 bins")


def test_criterion_07_gram_matrices_are_psd(dataset):
    rng = np.random.default_rng(13)
    layout = ((0, 6), (6, 6), (12, 4))
    specs = [
        KernelSpec(GAUSSIAN, sigma=0.5),
        KernelSpec(H_INT),
        KernelSpec(DC_INT, channels=layout),
        KernelSpec(JPL_INT, channels=layout),
    ]
    worst = np.inf
    for trial in range(4):
        raw = rng.random((10, 16))
        histograms = raw / raw.sum(axis=1, keepdims=True)
        grams = [gram_matrix(histograms, spec) for spec in specs]
        for gram in grams:
            evals = np.linalg.eigvalsh(gram)
            worst = min(worst, float(evals[0]))
            assert evals[0] >= -1e-8
        bank = np.stack(grams)
        for _ in range(3):
            weights = rng.random(len(specs))
            weights /= weights.sum()
            evals = np.linalg.eigvalsh(combine(bank, weights))
            worst = min(worst, float(evals[0]))
            assert evals[0] >= -1e-8
    report(7, f"gaussian/h_int/dc_int/jpl_int Grams and convex combinations PSD, "
              f"min eigenvalue {worst:.2e}")


def test_criterion_08_end_to_end_trend(dataset, experiment_reports):
    elapsed = time.monotonic() - dataset["started"]
    runs = experiment_reports
    singles = {n: runs[n].mean_accuracy for n in ("hof", "logc", "cuboid")}
    for combined_name in ("simple_mkl", "boost_mkl"):
        combined = runs[combined_name].mean_accuracy
        assert combined >= 90.0, (combined_name, combined)
        for single_name, single in singles.items():
            assert combined >= single - 1.0, (combined_name, combined, single_name, single)

    # classes 2 and 3 share their global motion; only the cuboid feature
    # should tell them apart
    for global_feature in ("hof", "logc"):
        assert pair_confusion(runs[global_feature], 2, 3) <= 75.0
    assert pair_confusion(runs["cuboid"], 2, 3) >= 85.0
    for combined_name in ("simple_mkl", "boost_mkl"):
        assert pair_confusion(runs[combined_name], 2, 3) >= 85.0

    assert elapsed < 600.0
    summary = ", ".join(
        f"{name} {runs[name].mean_accuracy:.1f}%"
        for name in ("hof", "logc", "cuboid", "simple_mkl", "boost_mkl")
    )
    report(8, f"{summary}; pair (2,3) separated only with cuboids "
              f"({elapsed:.0f}s for the full block)")


def test_criterion_09_chance_level_on_permuted_labels(dataset):
    rng = np.random.default_rng(99)
    manifest = dataset["manifest"]
    permuted = rng.permutation([v.class_index for v in manifest.videos])
    entries = [VideoEntry(v.video_id, int(k), v.path)
               for v, k in zip(manifest.videos, permuted)]
    shuffled = DatasetManifest(manifest.classes, entries)
    run = run_experiment(shuffled, dataset["root"], dataset["cfg"], "single_kernel",
                         kernel_kind="h_int", features=("hof",), repeats=20,
                         base_seed=7, descriptor_cache=dataset["cache"])
    assert 15.0 <= run.mean_accuracy <= 35.0
    report(9, f"label-permuted accuracy {run.mean_accuracy:.1f}% (chance band 15-35%)")


def test_criterion_10_byte_identical_pipeline(tmp_path):
    cfg_doc = {
        "synth": {"class_count": 2, "videos_per_class": 4, "width": 24, "height": 24,
                  "frame_count": 24, "noise_sigma": 1.0},
        "bow": {"words": 4},
        "split": {"mode": "half_half", "repeats": 2},
        "boost": {"trials": 3},
    }
    cfg = tmp_path / "cfg.json"
    write_json(cfg, cfg_doc)

    def tree(root):
        root = Path(root)
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    stage_outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        data, desc, cbdir = base / "data", base / "desc", base / "cb"
        hists, model = base / "hists.json", base / "model.json"
        assert main(["synth", "--config", str(cfg), "--seed", "3", "--out", str(data)]) == 0
        assert main(["extract", "--config", str(cfg), "--data", str(data),
                     "--out", str(desc)]) == 0
        for dtype in ("hof", "logc", "cuboid"):
            assert main(["codebook", "--descriptors", str(desc), "--type", dtype,
                         "--words", "4", "--seed", "1",
                         "--out", str(cbdir / f"{dtype}.cbk")]) == 0
        assert main(["encode", "--descriptors", str(desc), "--codebooks", str(cbdir),
                     "--out", str(hists)]) == 0
        assert main(["train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
                     "--histograms", str(hists), "--method", "boost_mkl", "--seed", "2",
                     "--out", str(model)]) == 0
        stage_outputs.append(tree(base))
    assert stage_outputs[0] == stage_outputs[1]

    reports = []
    for name, workers in (("r1.json", "1"), ("r2.json", "1"), ("r8.json", "8")):
        out = tmp_path / name
        assert main(["evaluate", "--config", str(cfg), "--data", str(tmp_path / "one/data"),
                     "--method", "simple_mkl", "--repeats", "2", "--seed", "5",
                     "--workers", workers, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    report(10, "every stage byte-identical across reruns; evaluate identical for "
               "--workers 1 and --workers 8")
