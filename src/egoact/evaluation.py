"""Repeated random-split evaluation: split, train, predict, aggregate.

Each repeat draws a fresh per-class train/test split, trains codebooks on
the training descriptors only, encodes every video, builds the kernel
bank on the training split (trace-normalized, Gaussian widths from the
median heuristic), trains the requested method, and scores the test
items. Reports aggregate accuracy over repeats plus a row-normalized
average confusion matrix.

Repeats, per-video extraction and synthetic-video rendering are independent
given their derived seeds, so ``ordered_map`` may run them on forked worker
processes (one per usable CPU at most; ``egoact extract`` and ``egoact
synth`` ask for one per video), which sidestep the GIL that serializes the
pipeline's many small numpy calls. Each item runs the same deterministic
code in its own address space, and results are gathered in item order,
which keeps reports, descriptors and datasets byte-identical for any
worker count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bow
from .config import RunConfig, SplitSection
from .dataio import (DatasetManifest, atomic_write_bytes, check_classes, check_fields, decoded,
                     json_numbers, json_str, read_frame_sequence, to_doc)
from .descriptors import check_features, cuboid_descriptors, hof_from_flows, logc_from_flows
from .errors import PipelineError, ValidationError
from .flow import sequence_flows
from .modelio import check_run, fit, method_entry, stack_histograms


def split_sizes(manifest: DatasetManifest, spec: SplitSection):
    """(train, test) video counts per class; ValidationError when a class is too small."""
    counts = manifest.class_counts()
    if spec.mode == "half_half":
        return [(-(-n // 2), n // 2) for n in counts]  # ceil: odd counts favor training
    for name, n in zip(manifest.classes, counts):
        if spec.train_n + spec.test_n > n:
            raise ValidationError(f"class {name!r} has {n} videos, needs {spec.train_n}+{spec.test_n}")
    return [(spec.train_n, spec.test_n)] * len(counts)


def random_split(manifest: DatasetManifest, spec: SplitSection, repeat_index: int):
    """Per-class random partition; seeded by base_seed XOR repeat_index."""
    rng = np.random.default_rng(spec.base_seed ^ repeat_index)
    train_ids, test_ids = [], []
    for k, (take_train, take_test) in enumerate(split_sizes(manifest, spec)):
        members = manifest.videos_of_class(k)
        perm = rng.permutation(len(members))
        train_ids.extend(members[i].video_id for i in perm[:take_train])
        test_ids.extend(members[i].video_id for i in perm[take_train : take_train + take_test])
    return train_ids, test_ids


_TASK = None   # (fn, items, state) of the pool this worker process was forked for


def _adopt(*task):
    global _TASK
    _TASK = task


def _run_item(index):
    fn, items, state = _TASK
    state[index] = 1   # started
    try:
        return fn(items[index])
    finally:
        state[index] = 2   # ended


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _wrapped_here() -> bool:
    """Whether a package function is wrapped here (``functools.wraps`` sets ``__wrapped__``)
    by Python code from outside the package, as by a tracer, whose records forked
    workers would take out of this process. A C-level ``functools`` cache has no
    ``__code__``, and a decorator written in the package is not a tracer."""
    inside = os.path.dirname(__file__) + os.sep
    return any(hasattr(value, "__wrapped__") and hasattr(value, "__code__")
               and not value.__code__.co_filename.startswith(inside)
               for name, module in list(sys.modules.items())
               if name.startswith(__package__ + ".") for value in vars(module).values())


def ordered_map(fn, items, workers: int = 1, progress=None) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` forked processes
    (at most one per item and per usable CPU), inline at ``workers <= 1``, where the
    platform cannot fork or while a package function is wrapped by code from outside
    the package (``_wrapped_here``), for ``synth``, ``extract`` and ``evaluate``
    alike. ``progress(done, total)`` runs in the caller as items finish in item
    order. With processes, the first failure in item order is raised once every
    item before it has finished, and items not yet started are dropped; a worker
    that dies is a ChildProcessError naming the items it may have been running."""
    items = list(items)
    workers = min(workers, len(items), usable_cpus())
    inline = workers <= 1 or _wrapped_here() or "fork" not in multiprocessing.get_all_start_methods()
    # Fork, not spawn: workers inherit fn (closures cannot be pickled),
    # items and everything they reach, such as the descriptor cache, so
    # only indices, results and exceptions are pickled. A fork copies only
    # the calling thread; the package starts no threads of its own.
    state = None if inline else multiprocessing.RawArray("b", len(items))
    pool = contextlib.nullcontext() if inline else ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_adopt, initargs=(fn, items, state))
    results = []
    try:
        # Executor.map yields in item order, raises the first failure in item
        # order and cancels every item not yet started
        with pool:
            for result in map(fn, items) if inline else pool.map(_run_item, range(len(items))):
                results.append(result)
                if progress:
                    progress(len(results), len(items))
    except BrokenProcessPool:   # read once the pool has shut down, so no state still moves
        # started and never ended, else the first never started, else the first not received
        running = ([i for i, s in enumerate(state) if s == 1]
                   or [next((i for i, s in enumerate(state) if not s), len(results))])
        raise ChildProcessError("a worker process died while running item "
                                + " or ".join(map(str, running))) from None
    return results


# ---------------------------------------------------------------------------
# descriptor extraction

def extract_video_descriptors(seq, features, cfg: RunConfig):
    """All requested descriptor sets for one video, sharing one flow pass."""
    out = {}
    flows = None
    if "hof" in features or "logc" in features:
        flows = sequence_flows(seq.frames, alpha=cfg.flow.alpha, iterations=cfg.flow.iterations)
    if "hof" in features:
        out["hof"] = hof_from_flows(flows, cfg.hof)
    if "logc" in features:
        out["logc"] = logc_from_flows(seq.frames, flows, cfg.logc)
    if "cuboid" in features:
        out["cuboid"] = cuboid_descriptors(seq, cfg.cuboid)
    return out


def extract_dataset_descriptors(manifest: DatasetManifest, data_dir, features,
                                cfg: RunConfig, workers: int = 1, progress=None):
    """Per-video descriptor sets for the whole dataset, keyed by video id."""
    data_dir = Path(data_dir)

    def job(entry):
        seq = read_frame_sequence(data_dir / entry.path)
        try:
            return extract_video_descriptors(seq, features, cfg)
        except PipelineError as exc:
            raise type(exc)(f"{entry.video_id}: {exc}") from exc

    results = ordered_map(job, manifest.videos, workers, progress)
    return {entry.video_id: sets for entry, sets in zip(manifest.videos, results)}


# ---------------------------------------------------------------------------
# one repeat

def run_repeat(manifest: DatasetManifest, descriptor_cache, cfg: RunConfig, method: str,
               repeat_index: int):
    """One split-train-predict cycle of a resolved config; returns (accuracy, confusion counts)."""
    split, features = cfg.split, cfg.features
    train_ids, test_ids = random_split(manifest, split, repeat_index)
    label_of = {v.video_id: v.class_index for v in manifest.videos}

    codebooks = {}
    for fi, feature in enumerate(features):
        pooled = bow.pooled_descriptors((descriptor_cache[vid] for vid in train_ids), feature)
        words = min(cfg.bow.words, pooled.shape[0]) if cfg.bow.adaptive_words else cfg.bow.words
        seed = np.random.SeedSequence(entropy=split.base_seed, spawn_key=(repeat_index, 1, fi))
        codebooks[feature] = bow.kmeans(pooled, words, seed, max_iters=cfg.bow.max_iters)

    def histograms(ids):
        return [bow.encode_video(vid, {f: descriptor_cache[vid][f] for f in features}, codebooks)
                for vid in ids]

    train_x, layout = stack_histograms(histograms(train_ids))
    test_x = np.stack([h.concat() for h in histograms(test_ids)])
    y_train = np.array([label_of[vid] for vid in train_ids])
    y_test = np.array([label_of[vid] for vid in test_ids])
    classes = manifest.classes

    model = fit(method, train_x, y_train, classes, layout, cfg, split.base_seed, (repeat_index, 2))
    predicted = model.predict(test_x)
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    np.add.at(confusion, (y_test, predicted), 1)
    accuracy = float(np.mean(predicted == y_test))
    return accuracy, confusion


# ---------------------------------------------------------------------------
# full experiment

@dataclass(slots=True, eq=False)
class EvalReport:
    """Each repeat's accuracy and the row-normalized confusion, in percent, of one run by a
    registered ``method`` with one of its ``kernel`` kinds, on ``features`` that ``check_features``
    and ``classes`` that ``check_classes`` takes. ``config`` echoes the config as loaded, before
    ``run_experiment``'s kernel, features, repeats and seed overrides (the CLI's ``--kernel``,
    ``--features``, ``--repeats`` and ``--seed``); ``kernel``, ``features`` and ``split`` are what ran."""

    kind: str = field(default="eval_report", init=False)
    method: str = decoded(json_str)
    kernel: str = decoded(json_str)
    features: list = decoded(json_str, ndim=1)
    classes: list = decoded(json_str, ndim=1)
    split: SplitSection = decoded(
        lambda value: SplitSection(**check_fields(value, SplitSection.__match_args__)))
    mean_accuracy: float = field(init=False)
    per_repeat_accuracy: list = decoded(json_numbers)
    confusion: np.ndarray = decoded(json_numbers, ndim=2)
    per_class_stddev: float = field(init=False)
    config: RunConfig = decoded(RunConfig.from_dict)

    def __post_init__(self):
        method_entry(self.method, self.kernel)
        check_features(self.features)
        check_classes(self.classes)
        accuracy = self.per_repeat_accuracy = [float(a) for a in self.per_repeat_accuracy]
        confusion = self.confusion = np.asarray(self.confusion, dtype=np.float64)
        if len(accuracy) != self.split.repeats or not all(0.0 <= a <= 100.0 for a in accuracy):
            raise ValidationError("per_repeat_accuracy must hold one percentage per repeat "
                                  f"(split.repeats = {self.split.repeats}), got {accuracy}")
        if confusion.shape != (len(self.classes),) * 2:
            raise ValidationError(f"confusion of shape {confusion.shape} for {len(self.classes)} classes")
        for name, row, total in zip(self.classes, confusion, confusion.sum(axis=1)):
            if not (0.0 <= row.min() <= row.max() <= 100.0 and (abs(total - 100.0) <= 1e-9 or total == 0.0)):
                raise ValidationError(f"confusion row {name!r} is not percentages summing to 100: "
                                      f"{row.tolist()}")
        self.mean_accuracy = float(np.mean(accuracy))
        self.per_class_stddev = float(np.std(np.diag(confusion)))   # population, over classes

    to_dict = to_doc

    def write_confusion_csv(self, path):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([["true\\pred", *self.classes]] + [
            [name, *(f"{v:.1f}" for v in row)] for name, row in zip(self.classes, self.confusion)])
        atomic_write_bytes(path, text.getvalue().encode("utf-8"))


def run_experiment(manifest: DatasetManifest, data_dir, cfg: RunConfig, method: str,
                   kernel_kind: str | None = None, features=None, repeats: int | None = None,
                   base_seed: int | None = None, workers: int = 1,
                   descriptor_cache=None, progress=None) -> EvalReport:
    """The full protocol; descriptor extraction may be shared via the cache, which must
    hold every manifest video and requested feature. The report echoes ``cfg``; the
    overrides resolve into the config checked before extraction."""
    echo = cfg
    cfg = replace(
        cfg.replace_section("kernels", kind=kernel_kind or cfg.kernels.kind)
        .replace_section("split", repeats=cfg.split.repeats if repeats is None else repeats,
                         base_seed=cfg.split.base_seed if base_seed is None else base_seed),
        features=cfg.features if features is None else features,
    )
    check_run(method, cfg)
    split_sizes(manifest, cfg.split)
    if descriptor_cache is None:
        descriptor_cache = extract_dataset_descriptors(manifest, data_dir, cfg.features, cfg,
                                                       workers=workers)
    for vid in (v.video_id for v in manifest.videos):
        if gap := [f for f in cfg.features if f not in descriptor_cache.get(vid, {})]:
            raise ValidationError(f"descriptor cache has no {gap[0]} descriptors for video {vid!r}")

    def one(repeat_index):
        try:
            return run_repeat(manifest, descriptor_cache, cfg, method, repeat_index)
        except PipelineError as exc:
            raise type(exc)(f"repeat {repeat_index}: {exc}") from exc
        except Exception as exc:
            exc.add_note(f"in repeat {repeat_index}")
            raise

    results = ordered_map(one, range(cfg.split.repeats), workers, progress)
    counts = np.sum([conf for _, conf in results], axis=0).astype(np.float64)
    return EvalReport(method, cfg.kernels.kind, list(cfg.features), list(manifest.classes), cfg.split,
                      [acc * 100.0 for acc, _ in results],
                      counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0) * 100.0, echo)
