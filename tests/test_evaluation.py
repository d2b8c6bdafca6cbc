import multiprocessing
import os
import threading

import numpy as np
import pytest

from egoact.config import RunConfig, SplitSection
from egoact.dataio import DatasetManifest, DescriptorSet, VideoEntry
from egoact.errors import ConfigError, ValidationError
from egoact.evaluation import (
    EvalReport,
    ordered_map,
    per_class_accuracy_stddev,
    random_split,
    run_experiment,
    run_repeat,
)
from oracles import pair_confusion

HOF_DIM = 4 * 4 * 8


def toy_manifest(classes=4, per_class=4):
    entries = []
    for k in range(classes):
        for v in range(per_class):
            vid = f"c{k}v{v}"
            entries.append(VideoEntry(vid, k, f"{vid}.fsq"))
    return DatasetManifest([f"class{k}" for k in range(classes)], entries)


def constant_descriptor_cache(manifest, dim=HOF_DIM):
    """Every video of class k carries one constant descriptor e_k."""
    cache = {}
    for entry in manifest.videos:
        vec = np.zeros((1, dim))
        vec[0, entry.class_index] = 1.0
        cache[entry.video_id] = {"hof": DescriptorSet("hof", dim, vec)}
    return cache


def small_config(words=4, repeats=3):
    cfg = RunConfig(features=("hof",))
    cfg = cfg.replace_section("bow", words=words)
    cfg = cfg.replace_section("split", mode="per_class_counts", train_n=2, test_n=2,
                              repeats=repeats, base_seed=5)
    return cfg


# ---------------------------------------------------------------------------
# splits

def test_split_covers_class_exactly():
    manifest = toy_manifest(classes=2, per_class=5)
    spec = SplitSection(mode="per_class_counts", train_n=3, test_n=2, base_seed=1)
    train, test = random_split(manifest, spec, 0)
    assert len(train) == 6 and len(test) == 4
    assert not set(train) & set(test)
    class0 = {v.video_id for v in manifest.videos_of_class(0)}
    assert class0 == ({t for t in train if t in class0} | {t for t in test if t in class0})


def test_split_deterministic_and_seed_sensitive():
    manifest = toy_manifest()
    spec = SplitSection(train_n=2, test_n=2, base_seed=9)
    assert random_split(manifest, spec, 3) == random_split(manifest, spec, 3)
    assert random_split(manifest, spec, 3) != random_split(manifest, spec, 4)


def test_half_half_rounds_toward_training():
    manifest = toy_manifest(classes=2, per_class=5)
    spec = SplitSection(mode="half_half", base_seed=0)
    train, test = random_split(manifest, spec, 0)
    assert len(train) == 6 and len(test) == 4  # 3 train / 2 test per class


def test_split_class_too_small():
    manifest = toy_manifest(classes=2, per_class=3)
    spec = SplitSection(train_n=3, test_n=1)
    with pytest.raises(ValidationError):
        random_split(manifest, spec, 0)


# ---------------------------------------------------------------------------
# report arithmetic

def test_stddev_identity_confusion():
    assert per_class_accuracy_stddev(100.0 * np.eye(4)) == 0.0


def test_stddev_two_class_closed_form():
    confusion = np.array([[100.0, 0.0], [100.0, 0.0]])
    assert per_class_accuracy_stddev(confusion) == pytest.approx(50.0)


def test_stddev_three_class_hand_computed():
    confusion = np.diag([80.0, 90.0, 100.0])
    assert per_class_accuracy_stddev(confusion) == pytest.approx(np.sqrt(200.0 / 3.0), abs=1e-10)
    assert per_class_accuracy_stddev(confusion) == pytest.approx(8.1650, abs=1e-4)


def test_stddev_rejects_non_square():
    with pytest.raises(ValidationError):
        per_class_accuracy_stddev(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# experiments on an injected descriptor cache (no files involved)

def test_unique_constant_histograms_give_perfect_accuracy(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    report = run_experiment(manifest, tmp_path, small_config(), "single_kernel",
                            kernel_kind="h_int", features=("hof",), repeats=3,
                            base_seed=5, descriptor_cache=cache)
    assert report.mean_accuracy == 100.0
    assert np.array_equal(report.confusion, 100.0 * np.eye(4))
    assert report.per_class_stddev == 0.0


def test_single_repeat_equals_manual_run(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config(repeats=1)
    report = run_experiment(manifest, tmp_path, cfg, "single_kernel", kernel_kind="h_int",
                            features=("hof",), repeats=1, base_seed=5,
                            descriptor_cache=cache)
    split = SplitSection(mode="per_class_counts", train_n=2, test_n=2, repeats=1, base_seed=5)
    accuracy, confusion = run_repeat(manifest, cache, cfg, "single_kernel", "h_int",
                                     ("hof",), split, 0)
    assert report.per_repeat_accuracy == [accuracy * 100.0]
    row_pct = confusion / confusion.sum(axis=1, keepdims=True) * 100.0
    assert np.allclose(report.confusion, row_pct)


def test_full_determinism_and_worker_independence(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config()
    kwargs = dict(kernel_kind="h_int", features=("hof",), repeats=4, base_seed=11,
                  descriptor_cache=cache)
    first = run_experiment(manifest, tmp_path, cfg, "single_kernel", workers=1, **kwargs)
    second = run_experiment(manifest, tmp_path, cfg, "single_kernel", workers=1, **kwargs)
    threaded = run_experiment(manifest, tmp_path, cfg, "single_kernel", workers=4, **kwargs)
    assert first.to_dict() == second.to_dict() == threaded.to_dict()


def test_confusion_rows_sum_to_100(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    report = run_experiment(manifest, tmp_path, small_config(), "single_kernel",
                            kernel_kind="h_int", features=("hof",), repeats=3,
                            base_seed=2, descriptor_cache=cache)
    assert np.allclose(report.confusion.sum(axis=1), 100.0, atol=1e-6)


def test_mean_accuracy_matches_diagonal_mass(tmp_path):
    # with equal per-class test counts the averaged-diagonal mass equals the
    # mean accuracy
    manifest = toy_manifest()
    rng = np.random.default_rng(3)
    cache = {}
    for entry in manifest.videos:
        vec = np.zeros((1, HOF_DIM))
        vec[0, entry.class_index] = 1.0
        if rng.random() < 0.3:  # inject some label noise through the features
            vec = np.roll(vec, 1, axis=1)
        cache[entry.video_id] = {"hof": DescriptorSet("hof", HOF_DIM, vec)}
    report = run_experiment(manifest, tmp_path, small_config(), "single_kernel",
                            kernel_kind="h_int", features=("hof",), repeats=5,
                            base_seed=8, descriptor_cache=cache)
    diagonal_mass = float(np.mean(np.diag(report.confusion)))
    assert report.mean_accuracy == pytest.approx(diagonal_mass, abs=1e-9)


def test_every_method_runs_on_cache(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config()
    for method, kind in [("single_kernel", "h_int"), ("single_kernel", "gaussian"),
                         ("multichannel", "dc_int"), ("multichannel", "jpl_int"),
                         ("simple_mkl", "h_int"), ("boost_mkl", "h_int")]:
        report = run_experiment(manifest, tmp_path, cfg, method, kernel_kind=kind,
                                features=("hof",), repeats=2, base_seed=1,
                                descriptor_cache=cache)
        assert report.mean_accuracy == 100.0, (method, kind)


def test_method_and_kernel_validation(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config()
    with pytest.raises(ConfigError):
        run_experiment(manifest, tmp_path, cfg, "magic", descriptor_cache=cache)
    with pytest.raises(ConfigError):
        run_experiment(manifest, tmp_path, cfg, "multichannel", kernel_kind="h_int",
                       features=("hof",), repeats=1, descriptor_cache=cache)
    with pytest.raises(ConfigError):
        run_experiment(manifest, tmp_path, cfg, "single_kernel", kernel_kind="h_int",
                       features=("nope",), repeats=1, descriptor_cache=cache)


def test_errors_carry_repeat_index(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config(words=40)  # more words than pooled descriptors
    with pytest.raises(ValidationError, match="repeat 0"):
        run_experiment(manifest, tmp_path, cfg, "single_kernel", kernel_kind="h_int",
                       features=("hof",), repeats=1, descriptor_cache=cache)


def test_foreign_errors_keep_their_type_and_note_the_repeat(tmp_path, monkeypatch):
    import egoact.evaluation as evaluation

    def failing_repeat(*args):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(evaluation, "run_repeat", failing_repeat)
    manifest = toy_manifest()
    with pytest.raises(UnicodeDecodeError) as info:
        run_experiment(manifest, tmp_path, small_config(), "single_kernel", kernel_kind="h_int",
                       features=("hof",), repeats=1, descriptor_cache=constant_descriptor_cache(manifest))
    assert info.value.__notes__ == ["in repeat 0"]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_map_keeps_item_order_and_reports_each_item(workers):
    calls, threads = [], set()

    def square(x):
        threads.add(threading.get_ident())
        return x * x

    results = ordered_map(square, range(7), workers, lambda done, total: calls.append((done, total)))
    assert results == [x * x for x in range(7)]
    assert calls == [(done, 7) for done in range(1, 8)]
    if workers == 1:
        assert threads == {threading.get_ident()}   # inline: spans nest on one thread


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_raises_the_first_failure_in_item_order(workers):
    def check(x):
        if x in (2, 4):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 2"):
        ordered_map(check, range(6), workers)


def test_pair_confusion_helper():
    manifest = toy_manifest()
    split = SplitSection(train_n=2, test_n=2, repeats=1, base_seed=0)
    counts = np.array([[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]])
    report = EvalReport("single_kernel", "h_int", ["hof"], manifest.classes, split,
                        [0.75], counts, {})
    assert pair_confusion(report, 0, 1) == 100.0
    assert pair_confusion(report, 2, 3) == 50.0


# ---------------------------------------------------------------------------
# the forked process pool behind workers > 1

forking = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                             reason="ordered_map runs inline where fork is missing")


@pytest.fixture
def many_cpus(monkeypatch):
    """Let ``ordered_map`` fork as many workers as asked, whatever the machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def noisy_descriptor_cache(manifest, seed=0):
    """A few descriptors per video that lean toward the class's own axis,
    so repeats differ and accuracies are not all 100%."""
    rng = np.random.default_rng(seed)
    cache = {}
    for entry in manifest.videos:
        vectors = rng.random((3, HOF_DIM))
        vectors[:, entry.class_index] += 0.8
        cache[entry.video_id] = {"hof": DescriptorSet("hof", HOF_DIM, vectors)}
    return cache


@forking
@pytest.mark.parametrize("workers", [2, 3])
def test_ordered_map_on_processes_keeps_order_and_reports_each_item(many_cpus, workers):
    calls = []
    results = ordered_map(lambda x: (x * x, os.getpid()), range(9), workers,
                          lambda done, total: calls.append((done, total)))
    assert [square for square, _ in results] == [x * x for x in range(9)]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and 1 <= len(pids) <= workers
    assert calls == [(done, 9) for done in range(1, 10)]


def test_ordered_map_workers_are_capped_by_items_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert ordered_map(lambda x: os.getpid(), range(3), 4) == [os.getpid()] * 3
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert ordered_map(lambda x: os.getpid(), range(1), 4) == [os.getpid()]


@forking
def test_workers_see_closures_and_patched_module_attributes(tmp_path, monkeypatch, many_cpus):
    import egoact.evaluation as evaluation

    offset = {"value": 100}   # reached through the closure, never pickled
    assert ordered_map(lambda x: x + offset["value"], range(4), 2) == [100, 101, 102, 103]

    parent = os.getpid()

    def patched_repeat(manifest, cache, cfg, method, kernel, features, split, repeat_index):
        confusion = np.zeros((4, 4), dtype=np.int64)
        confusion[repeat_index % 4, repeat_index % 4] = 1
        return (0.5 if os.getpid() != parent else 0.0), confusion

    monkeypatch.setattr(evaluation, "run_repeat", patched_repeat)
    manifest = toy_manifest()
    report = run_experiment(manifest, tmp_path, small_config(), "single_kernel", kernel_kind="h_int",
                            features=("hof",), repeats=4, workers=2,
                            descriptor_cache=constant_descriptor_cache(manifest))
    assert report.per_repeat_accuracy == [50.0] * 4


@forking
def test_processes_raise_the_first_failure_with_message_and_notes(tmp_path, monkeypatch, many_cpus):
    import egoact.evaluation as evaluation

    def check(x):
        if x in (2, 4):
            exc = ValueError(f"item {x}")
            exc.add_note(f"note {x}")
            raise exc
        return x

    with pytest.raises(ValueError) as info:
        ordered_map(check, range(6), 3)
    assert str(info.value) == "item 2" and info.value.__notes__ == ["note 2"]

    def failing_repeat(*args):
        repeat_index = args[-1]
        if repeat_index == 0:
            return 1.0, np.eye(4, dtype=np.int64)
        if repeat_index == 1:
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        raise ValidationError("too few descriptors")

    monkeypatch.setattr(evaluation, "run_repeat", failing_repeat)
    manifest = toy_manifest()
    kwargs = dict(kernel_kind="h_int", features=("hof",), workers=3,
                  descriptor_cache=constant_descriptor_cache(manifest))
    with pytest.raises(UnicodeDecodeError) as info:
        run_experiment(manifest, tmp_path, small_config(), "single_kernel", repeats=4, **kwargs)
    assert info.value.reason == "invalid start byte" and info.value.__notes__ == ["in repeat 1"]
    monkeypatch.setattr(evaluation, "run_repeat", lambda *args: failing_repeat(*args[:-1], args[-1] + 2))
    with pytest.raises(ValidationError) as info:
        run_experiment(manifest, tmp_path, small_config(), "single_kernel", repeats=3, **kwargs)
    assert str(info.value) == "repeat 0: too few descriptors"


@forking
def test_a_dead_worker_is_a_child_process_error_naming_the_item(many_cpus):
    def die_on_one(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError) as info:
        ordered_map(die_on_one, range(5), 2)
    message = str(info.value)
    assert message.startswith("a worker process died while running item ")
    assert "1" in message.removeprefix("a worker process died while running item ").split(" or ")


@forking
@pytest.mark.parametrize("method", ["single_kernel", "simple_mkl", "boost_mkl"])
def test_reports_are_equal_on_one_and_three_workers(tmp_path, many_cpus, method):
    manifest = toy_manifest(per_class=6)
    cache = noisy_descriptor_cache(manifest)
    cfg = small_config(repeats=4).replace_section("boost", trials=3)
    kwargs = dict(kernel_kind="h_int", features=("hof",), base_seed=3, descriptor_cache=cache)
    inline = run_experiment(manifest, tmp_path, cfg, method, workers=1, **kwargs)
    forked = run_experiment(manifest, tmp_path, cfg, method, workers=3, **kwargs)
    assert inline.to_dict() == forked.to_dict()
    assert inline.mean_accuracy < 100.0
