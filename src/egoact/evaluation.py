"""Repeated random-split evaluation: split, train, predict, aggregate.

Each repeat draws a fresh per-class train/test split, trains codebooks on
the training descriptors only, encodes every video, builds the kernel
bank on the training split (trace-normalized, Gaussian widths from the
median heuristic), trains the requested method, and scores the test
items. Reports aggregate accuracy over repeats plus a row-normalized
average confusion matrix.

Repeats (and per-video extraction) are independent given their derived
seeds, so ``ordered_map`` may run them on forked worker processes, which
sidestep the GIL that serializes the pipeline's many small numpy calls.
Each item runs the same deterministic code in its own address space, and
results are gathered in item order, which keeps reports byte-identical
for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bow, svm
from .config import RunConfig, SplitSection
from .dataio import DatasetManifest, read_frame_sequence, write_json
from .descriptors import (
    cuboid_descriptors,
    hof_from_flows,
    logc_from_flows,
)
from .errors import PipelineError, ValidationError
from .flow import sequence_flows
from .modelio import fit, method_entry, normalize_features, stack_histograms


def random_split(manifest: DatasetManifest, spec: SplitSection, repeat_index: int):
    """Per-class random partition; seeded by base_seed XOR repeat_index."""
    rng = np.random.default_rng(spec.base_seed ^ repeat_index)
    train_ids, test_ids = [], []
    for k in range(len(manifest.classes)):
        members = manifest.videos_of_class(k)
        perm = rng.permutation(len(members))
        if spec.mode == "per_class_counts":
            if spec.train_n + spec.test_n > len(members):
                raise ValidationError(
                    f"class {manifest.classes[k]!r} has {len(members)} videos, "
                    f"needs {spec.train_n}+{spec.test_n}"
                )
            take_train, take_test = spec.train_n, spec.test_n
        else:
            take_train = -(-len(members) // 2)  # ceil: odd counts favor training
            take_test = len(members) - take_train
        train_ids.extend(members[i].video_id for i in perm[:take_train])
        test_ids.extend(members[i].video_id for i in perm[take_train : take_train + take_test])
    return train_ids, test_ids


def per_class_accuracy_stddev(confusion) -> float:
    """Population standard deviation of the confusion-matrix diagonal."""
    confusion = np.asarray(confusion, dtype=np.float64)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValidationError(f"confusion matrix must be square, got {confusion.shape}")
    return float(np.std(np.diag(confusion)))


_TASK = None   # (fn, items, started) of the pool this worker process was forked for


def _adopt(*task):
    global _TASK
    _TASK = task


def _run_item(index):
    fn, items, started = _TASK
    started[index] = 1
    return fn(items[index])


def ordered_map(fn, items, workers: int = 1, progress=None) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` forked processes
    (at most one per item and per CPU), inline at ``workers <= 1`` or where
    the platform cannot fork. ``progress(done, total)`` runs in the caller
    after each item. With processes, the first failure in item order is
    raised once every item has finished; a worker that dies is a
    ChildProcessError naming the items it may have been running."""
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        results = []
        for item in items:
            results.append(fn(item))
            if progress:
                progress(len(results), len(items))
        return results
    # Fork, not spawn: workers inherit fn (closures cannot be pickled),
    # items and everything they reach, such as the descriptor cache, so
    # only indices, results and exceptions are pickled. A fork copies only
    # the calling thread; the package starts no threads of its own.
    started = multiprocessing.RawArray("b", len(items))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items, started)) as pool:
        futures = [pool.submit(_run_item, index) for index in range(len(items))]
        for done, _ in enumerate(as_completed(futures), 1):
            if progress:
                progress(done, len(items))
    broken = [isinstance(future.exception(), BrokenProcessPool) for future in futures]
    results = []
    for index, future in enumerate(futures):
        if broken[index]:
            running = [i for i in range(len(items)) if broken[i] and started[i]] or [index]
            raise ChildProcessError("a worker process died while running item "
                                    + " or ".join(map(str, running)))
        results.append(future.result())
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
        return extract_video_descriptors(seq, features, cfg)

    results = ordered_map(job, manifest.videos, workers, progress)
    return {entry.video_id: sets for entry, sets in zip(manifest.videos, results)}


# ---------------------------------------------------------------------------
# one repeat

def run_repeat(manifest: DatasetManifest, descriptor_cache, cfg: RunConfig, method: str,
               kernel_kind: str, features, split: SplitSection, repeat_index: int):
    """One split-train-predict cycle; returns (accuracy, confusion counts)."""
    features = normalize_features(features)
    train_ids, test_ids = random_split(manifest, split, repeat_index)
    label_of = {v.video_id: v.class_index for v in manifest.videos}

    codebooks = {}
    for fi, feature in enumerate(features):
        pools = [
            descriptor_cache[vid][feature].vectors
            for vid in train_ids
            if descriptor_cache[vid][feature].count
        ]
        if not pools:
            raise ValidationError(
                f"repeat {repeat_index}: no training descriptors of type {feature!r}"
            )
        pooled = np.vstack(pools)
        words = min(cfg.bow.words, pooled.shape[0]) if cfg.bow.adaptive_words else cfg.bow.words
        codebooks[feature] = bow.kmeans(
            pooled, words,
            np.random.SeedSequence(entropy=split.base_seed, spawn_key=(repeat_index, 1, fi)),
            max_iters=cfg.bow.max_iters,
        )

    def histograms(ids):
        return [bow.encode_video(vid, {f: descriptor_cache[vid][f] for f in features}, codebooks)
                for vid in ids]

    train_x, layout = stack_histograms(histograms(train_ids))
    test_x = np.stack([h.concat() for h in histograms(test_ids)])
    y_train = np.array([label_of[vid] for vid in train_ids])
    y_test = np.array([label_of[vid] for vid in test_ids])
    classes = manifest.classes

    model = fit(method, train_x, y_train, classes, layout, cfg, kernel_kind,
                split.base_seed, (repeat_index, 2))
    predicted = svm.ova_predict_scores(model.score_matrix(test_x))
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true_k, pred_k in zip(y_test, predicted):
        confusion[true_k, pred_k] += 1
    accuracy = float(np.mean(predicted == y_test))
    return accuracy, confusion


# ---------------------------------------------------------------------------
# full experiment

class EvalReport:
    """Aggregate of all repeats plus the configuration that produced it."""

    __slots__ = ("method", "kernel", "features", "classes", "split",
                 "per_repeat_accuracy", "mean_accuracy", "confusion",
                 "per_class_stddev", "config_echo")

    def __init__(self, method, kernel, features, classes, split,
                 per_repeat_accuracy, confusion_counts, config_echo):
        self.method = method
        self.kernel = kernel
        self.features = list(features)
        self.classes = list(classes)
        self.split = split
        self.per_repeat_accuracy = [float(a) * 100.0 for a in per_repeat_accuracy]
        self.mean_accuracy = float(np.mean(self.per_repeat_accuracy))
        counts = np.asarray(confusion_counts, dtype=np.float64)
        row_mass = counts.sum(axis=1, keepdims=True)
        safe = np.where(row_mass > 0, row_mass, 1.0)
        self.confusion = counts / safe * 100.0
        self.per_class_stddev = per_class_accuracy_stddev(self.confusion)
        self.config_echo = config_echo

    def to_dict(self) -> dict:
        return {
            "kind": "eval_report",
            "method": self.method,
            "kernel": self.kernel,
            "features": self.features,
            "classes": self.classes,
            "split": asdict(self.split),
            "mean_accuracy": self.mean_accuracy,
            "per_repeat_accuracy": self.per_repeat_accuracy,
            "confusion": self.confusion.tolist(),
            "per_class_stddev": self.per_class_stddev,
            "config": self.config_echo,
        }

    def write(self, path):
        write_json(path, self.to_dict())

    def write_confusion_csv(self, path):
        from .dataio import atomic_write_bytes

        lines = ["true\\pred," + ",".join(self.classes)]
        for name, row in zip(self.classes, self.confusion):
            lines.append(name + "," + ",".join(f"{v:.1f}" for v in row))
        atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def run_experiment(manifest: DatasetManifest, data_dir, cfg: RunConfig, method: str,
                   kernel_kind: str | None = None, features=None, repeats: int | None = None,
                   base_seed: int | None = None, workers: int = 1,
                   descriptor_cache=None, progress=None) -> EvalReport:
    """The full protocol; descriptor extraction may be shared via the cache."""
    method_entry(method)
    features = normalize_features(features if features is not None else cfg.features)
    kernel_kind = kernel_kind or cfg.kernels.kind
    split = replace(
        cfg.split,
        repeats=cfg.split.repeats if repeats is None else repeats,
        base_seed=cfg.split.base_seed if base_seed is None else base_seed,
    )
    if descriptor_cache is None:
        descriptor_cache = extract_dataset_descriptors(
            manifest, data_dir, features, cfg, workers=workers
        )

    def one(repeat_index):
        try:
            return run_repeat(
                manifest, descriptor_cache, cfg, method, kernel_kind, features,
                split, repeat_index,
            )
        except PipelineError as exc:
            raise type(exc)(f"repeat {repeat_index}: {exc}") from exc
        except Exception as exc:
            exc.add_note(f"in repeat {repeat_index}")
            raise

    results = ordered_map(one, range(split.repeats), workers, progress)
    accuracies = [acc for acc, _ in results]
    counts = np.sum([conf for _, conf in results], axis=0)
    echo = cfg.to_dict()
    return EvalReport(method, kernel_kind, features, manifest.classes, split,
                      accuracies, counts, echo)
