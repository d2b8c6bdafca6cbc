import csv
import dataclasses
import functools
import importlib
import json
import multiprocessing
import os
import pkgutil
import threading
import time

import numpy as np
import pytest

from egoact import descriptors, evaluation
from egoact.cli import main
from egoact.config import RunConfig, SplitSection
from egoact.dataio import DatasetManifest, DescriptorSet, VideoEntry, from_doc, to_doc, write_json
from egoact.errors import ConfigError, ValidationError
from egoact.evaluation import (
    EvalReport,
    ordered_map,
    random_split,
    run_experiment,
    run_repeat,
    split_sizes,
)
from conftest import forking
from oracles import pair_confusion, reference_repeat

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


def test_split_sizes_per_class():
    manifest = DatasetManifest(["a", "b"], [VideoEntry(f"v{i}", int(i >= 5), f"v{i}.fsq")
                                            for i in range(8)])
    assert split_sizes(manifest, SplitSection(mode="half_half")) == [(3, 2), (2, 1)]
    assert split_sizes(manifest, SplitSection(train_n=2, test_n=1)) == [(2, 1), (2, 1)]
    with pytest.raises(ValidationError, match=r"^class 'b' has 3 videos, needs 2\+2$"):
        split_sizes(manifest, SplitSection(train_n=2, test_n=2))


def test_experiment_resolves_its_overrides_into_one_config(tmp_path, monkeypatch):
    seen = []

    def recording_repeat(manifest, cache, cfg, method, repeat_index):
        seen.append(cfg)
        return np.eye(4, dtype=np.int64)

    monkeypatch.setattr(evaluation, "run_repeat", recording_repeat)
    manifest = toy_manifest()
    cfg = small_config().replace_section("kernels", kind="dc_int")
    cache = {vid: {**sets, "cuboid": sets["hof"]}
             for vid, sets in constant_descriptor_cache(manifest).items()}
    report = run_experiment(manifest, tmp_path, cfg, "simple_mkl", kernel_kind="gaussian",
                            features=("cuboid", "hof"), repeats=2, base_seed=7,
                            descriptor_cache=cache)
    assert seen[0] == seen[1] and len(seen) == 2
    assert seen[0].kernels.kind == "gaussian" and seen[0].features == ("hof", "cuboid")
    assert (seen[0].split.repeats, seen[0].split.base_seed) == (2, 7)
    assert seen[0].bow == cfg.bow and seen[0].split.train_n == cfg.split.train_n
    assert report.config == cfg
    assert (report.kernel, report.features, report.split) == ("gaussian", ["hof", "cuboid"],
                                                              seen[0].split)


def test_report_echoes_its_features_in_block_order(tmp_path, capsys):
    """A config that lists cuboid before hof is echoed, like every config, in histogram
    block order; an echo in another order is no config that a run writes."""
    manifest = toy_manifest()
    doc = {**small_config().to_dict(), "features": ["cuboid", "hof"]}
    cache = {vid: {**sets, "cuboid": sets["hof"]}
             for vid, sets in constant_descriptor_cache(manifest).items()}
    report = run_experiment(manifest, tmp_path, RunConfig.from_dict(doc), "single_kernel",
                            descriptor_cache=cache)
    path = tmp_path / "report.json"
    write_json(path, report)
    written = json.loads(path.read_text())
    assert written["config"]["features"] == written["features"] == ["hof", "cuboid"]
    assert main(["inspect", str(path)]) == 0
    assert "features=['hof', 'cuboid']" in capsys.readouterr().out
    written["config"]["features"] = ["cuboid", "hof"]
    path.write_text(json.dumps(written))
    assert main(["inspect", str(path)]) == 2
    assert "malformed eval report file (config is {" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report arithmetic

def stddev_of(confusion):
    """The per_class_stddev of a one-repeat report with this confusion."""
    classes = [f"class{k}" for k in range(len(confusion))]
    return EvalReport("single_kernel", "h_int", ["hof"], classes, SplitSection(repeats=1), [50.0],
                      np.asarray(confusion, dtype=np.float64), RunConfig()).per_class_stddev


def test_stddev_identity_confusion():
    assert stddev_of(100.0 * np.eye(4)) == 0.0


def test_stddev_two_class_closed_form():
    assert stddev_of([[100.0, 0.0], [100.0, 0.0]]) == pytest.approx(50.0)


def test_stddev_three_class_hand_computed():
    confusion = [[80.0, 20.0, 0.0], [5.0, 90.0, 5.0], [0.0, 0.0, 100.0]]
    assert stddev_of(confusion) == pytest.approx(np.sqrt(200.0 / 3.0), abs=1e-10)
    assert stddev_of(confusion) == pytest.approx(8.1650, abs=1e-4)


def test_stddev_rejects_non_square():
    with pytest.raises(ValidationError, match=r"confusion of shape \(2, 3\) for 2 classes"):
        stddev_of([[50.0, 50.0, 0.0], [0.0, 50.0, 50.0]])


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
    resolved = cfg.replace_section("split", repeats=1, base_seed=5)
    confusion = run_repeat(manifest, cache, resolved, "single_kernel", 0)
    assert report.per_repeat_accuracy == [np.trace(confusion) / confusion.sum() * 100.0]
    row_pct = confusion / confusion.sum(axis=1, keepdims=True) * 100.0
    assert np.allclose(report.confusion, row_pct)


@pytest.mark.parametrize("method, kind", [("single_kernel", "h_int"), ("multichannel", "dc_int"),
                                          ("simple_mkl", "h_int"), ("boost_mkl", "h_int")])
def test_a_repeat_counts_equal_its_split_fitted_and_scored_by_hand(method, kind):
    """A repeat stacks its training and test videos into one matrix; its counts equal
    ``reference_repeat``'s, which stacks and labels the two sides apart."""
    manifest = toy_manifest()
    cache = noisy_descriptor_cache(manifest)
    rng = np.random.default_rng(1)
    for entry in manifest.videos:
        vectors = rng.random((4, 6))
        vectors[:, entry.class_index] += 0.5
        cache[entry.video_id]["cuboid"] = DescriptorSet("cuboid", 6, vectors)
    cfg = dataclasses.replace(small_config(), features=("hof", "cuboid"))
    cfg = cfg.replace_section("kernels", kind=kind)
    for repeat in range(3):
        counts = run_repeat(manifest, cache, cfg, method, repeat)
        assert counts.tolist() == reference_repeat(manifest, cache, cfg, method, repeat).tolist()


def test_a_repeat_returns_its_confusion_counts(tmp_path, monkeypatch):
    """Each class's row of a repeat's counts holds its test videos, and the report
    takes repeat r's accuracy as the counts' trace over their total."""
    manifest = toy_manifest()
    cache = noisy_descriptor_cache(manifest)
    cfg = small_config()
    counts = run_repeat(manifest, cache, cfg, "single_kernel", 0)
    assert counts.dtype == np.int64 and counts.shape == (4, 4)
    assert counts.sum(axis=1).tolist() == [cfg.split.test_n] * 4
    seen = []

    def recording_repeat(*args):
        seen.append(run_repeat(*args))
        return seen[-1]

    monkeypatch.setattr(evaluation, "run_repeat", recording_repeat)
    report = run_experiment(manifest, tmp_path, cfg, "single_kernel", descriptor_cache=cache)
    assert report.per_repeat_accuracy == [np.trace(c) / c.sum() * 100.0 for c in seen]
    assert len(seen) == cfg.split.repeats and report.mean_accuracy < 100.0


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


def test_report_reads_back_as_the_document_it_wrote(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cache["c0v0"]["hof"] = cache["c1v0"]["hof"]   # a class-0 video that reads as class 1: rows are not 0/100
    report = run_experiment(manifest, tmp_path, small_config(), "simple_mkl", kernel_kind="h_int",
                            features=("hof",), repeats=3, base_seed=4, descriptor_cache=cache)
    doc = json.loads(json.dumps(to_doc(report)))
    assert to_doc(from_doc(doc, EvalReport)) == doc == report.to_dict()


def test_confusion_csv_quotes_class_names(tmp_path):
    classes = ["walk, fast", 'say "hi"', "two\nlines"]
    report = EvalReport("single_kernel", "h_int", ["hof"], classes, SplitSection(repeats=1), [50.0],
                        [[50.0, 50.0, 0.0], [0.0, 100.0, 0.0], [0.0, 0.0, 0.0]], RunConfig())
    path = tmp_path / "confusion.csv"
    report.write_confusion_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [4] * 4
    assert rows[0] == ["true\\pred", *classes] and [row[0] for row in rows[1:]] == classes
    assert rows[1][1:] == ["50.0", "50.0", "0.0"]


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


PARTIAL_CACHES = {
    "empty": (lambda cache: cache.clear(), "descriptor cache has no hof descriptors for video 'c0v0'"),
    "one_video_missing": (lambda cache: cache.pop("c3v3"),
                          "descriptor cache has no hof descriptors for video 'c3v3'"),
    "one_feature_missing": (lambda cache: cache["c1v2"].clear(),
                            "descriptor cache has no hof descriptors for video 'c1v2'"),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_CACHES))
def test_partial_descriptor_cache_is_refused_before_any_repeat(tmp_path, monkeypatch, case):
    def no_repeat(*args):
        raise AssertionError("ran a repeat on a partial cache")

    monkeypatch.setattr(evaluation, "run_repeat", no_repeat)
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    damage, message = PARTIAL_CACHES[case]
    damage(cache)
    with pytest.raises(ValidationError) as info:
        run_experiment(manifest, tmp_path, small_config(), "single_kernel", descriptor_cache=cache)
    assert str(info.value) == message


def test_errors_carry_repeat_index(tmp_path):
    manifest = toy_manifest()
    cache = constant_descriptor_cache(manifest)
    cfg = small_config(words=40)  # more words than pooled descriptors
    with pytest.raises(ValidationError, match="repeat 0"):
        run_experiment(manifest, tmp_path, cfg, "single_kernel", kernel_kind="h_int",
                       features=("hof",), repeats=1, descriptor_cache=cache)


def test_a_feature_without_training_descriptors_names_the_repeat_once(tmp_path):
    """Only test videos carry cuboid descriptors, so repeat 0 has none to pool."""
    manifest = toy_manifest()
    cfg = small_config()
    _, test_ids = random_split(manifest, cfg.split, 0)
    cache = {v.video_id: {"cuboid": DescriptorSet("cuboid", 3, np.ones((1, 3)) if v.video_id in test_ids else None)}
             for v in manifest.videos}
    with pytest.raises(ValidationError) as info:
        run_experiment(manifest, tmp_path, cfg, "single_kernel", kernel_kind="h_int",
                       features=("cuboid",), repeats=1, descriptor_cache=cache)
    assert str(info.value).startswith("repeat 0: no descriptors of type 'cuboid'")
    assert str(info.value).count("repeat") == 1


def test_foreign_errors_keep_their_type_and_note_the_repeat(tmp_path, monkeypatch):
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
    confusion = np.array([[100, 0, 0, 0], [0, 100, 0, 0], [0, 0, 50, 50], [0, 0, 50, 50]])
    report = EvalReport("single_kernel", "h_int", ["hof"], manifest.classes, split,
                        [75.0], confusion, RunConfig())
    assert pair_confusion(report, 0, 1) == 100.0
    assert pair_confusion(report, 2, 3) == 50.0


# ---------------------------------------------------------------------------
# the forked process pool behind workers > 1

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


def test_usable_cpus_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert evaluation.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert evaluation.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evaluation.usable_cpus() == 1


def test_ordered_map_workers_are_capped_by_items_and_cpus(monkeypatch):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
    assert ordered_map(lambda x: os.getpid(), range(3), 4) == [os.getpid()] * 3
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 8)
    assert ordered_map(lambda x: os.getpid(), range(1), 4) == [os.getpid()]


@forking
def test_workers_see_closures_and_patched_module_attributes(tmp_path, monkeypatch, many_cpus):
    offset = {"value": 100}   # reached through the closure, never pickled
    assert ordered_map(lambda x: x + offset["value"], range(4), 2) == [100, 101, 102, 103]

    parent = os.getpid()

    def patched_repeat(manifest, cache, cfg, method, repeat_index):
        confusion = np.zeros((4, 4), dtype=np.int64)   # one right count in a worker, one wrong here
        confusion[repeat_index % 4, (repeat_index + (os.getpid() == parent)) % 4] = 1
        return confusion

    monkeypatch.setattr(evaluation, "run_repeat", patched_repeat)
    manifest = toy_manifest()
    report = run_experiment(manifest, tmp_path, small_config(), "single_kernel", kernel_kind="h_int",
                            features=("hof",), repeats=4, workers=2,
                            descriptor_cache=constant_descriptor_cache(manifest))
    assert report.per_repeat_accuracy == [100.0] * 4


@forking
def test_processes_raise_the_first_failure_with_message_and_notes(tmp_path, monkeypatch, many_cpus):
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
            return np.eye(4, dtype=np.int64)
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
def test_a_pool_broken_while_queueing_is_a_child_process_error(many_cpus, monkeypatch):
    """A worker can die before the last item is submitted; submit then raises."""
    from concurrent.futures.process import BrokenProcessPool

    class BreaksAtTheThirdSubmit(evaluation.ProcessPoolExecutor):
        submitted = 0

        def submit(self, fn, *args):   # one call per item at map's default chunk size
            self.submitted += 1
            if self.submitted == 3:
                raise BrokenProcessPool("a child process terminated abruptly")
            return super().submit(fn, *args)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", BreaksAtTheThirdSubmit)
    with pytest.raises(ChildProcessError, match="^a worker process died while running item 2$"):
        ordered_map(lambda x: x, range(5), 2)


@forking
def test_a_dead_worker_never_names_an_item_that_already_ended(many_cpus):
    def item(x):
        if x == 1:
            time.sleep(0.3)
            os._exit(3)
        if x >= 2:
            time.sleep(2)
        return x

    with pytest.raises(ChildProcessError) as info:
        ordered_map(item, range(4), 2)
    named = str(info.value).removeprefix("a worker process died while running item ").split(" or ")
    assert "1" in named and "0" not in named and set(named) <= {"1", "2"}


class DiesWhenSent:
    """A result whose pickling kills the worker sending it, after its item has ended."""

    def __reduce__(self):
        os._exit(3)


@forking
def test_a_worker_that_dies_sending_a_result_names_that_item(many_cpus):
    def item(x):
        if x == 1:
            time.sleep(0.3)   # item 0's result arrives first
            return DiesWhenSent()
        return x

    with pytest.raises(ChildProcessError, match="^a worker process died while running item 1$"):
        ordered_map(item, range(2), 2)


@forking
def test_processes_start_no_item_once_the_first_failure_is_known(many_cpus):
    ran = multiprocessing.RawArray("b", 40)   # shared with the forked workers

    def fail_first(x):
        ran[x] = 1
        if x == 0:
            raise ValueError("item 0")
        time.sleep(0.1)
        return x

    with pytest.raises(ValueError, match="item 0"):
        ordered_map(fail_first, range(40), 2)
    assert sum(ran) < 10   # the items already queued to a worker, not all 40


@forking
def test_a_wrapped_package_function_keeps_ordered_map_in_this_process(many_cpus, monkeypatch):
    """A tracer's wrapper records calls in this process, so the work stays here."""
    assert os.getpid() not in ordered_map(lambda x: os.getpid(), range(4), 2)
    original = evaluation.extract_video_descriptors
    monkeypatch.setattr(evaluation, "extract_video_descriptors",
                        functools.wraps(original)(lambda *args: original(*args)))
    assert ordered_map(lambda x: os.getpid(), range(4), 2) == [os.getpid()] * 4


@forking
def test_a_package_cache_does_not_keep_ordered_map_in_this_process(many_cpus):
    """A ``functools`` cache in the package sets ``__wrapped__`` but records nothing."""
    assert hasattr(descriptors._smoothing_matrix, "__wrapped__")
    descriptors._smoothing_matrix(1.5, 9)
    assert os.getpid() not in ordered_map(lambda x: os.getpid(), range(4), 2)


def test_no_package_function_is_wrapped_at_import():
    """Only a wrapper written outside the package keeps every pool in this process,
    and importing the package makes none; the package's own ``functools`` cache
    already sets ``__wrapped__``, so this also checks that it does not count."""
    import egoact

    for module in pkgutil.iter_modules(egoact.__path__):
        if module.name != "__main__":   # which would run the command line
            importlib.import_module(f"egoact.{module.name}")
    assert not evaluation._wrapped_here()


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
