"""In-memory span tracing for the benchmark, wired from outside the package.

The tracer replaces a module attribute with a wrapper that opens a span
around each call. A name bound by ``from ... import`` is a separate
attribute of the importing module, so every name is wrapped where its
caller looks it up (see ``LAYER_HOOKS``). Counts come from the call's
arguments and returned objects only; nothing inside ``src/`` changes.

Each span records its name, thread id, parent span, start, end and the
part of its duration covered by child spans on the same thread, so a
layer's self time is ``duration - child_s``. Spans stay in memory until
``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "thread", "name", "start", "end", "child_s", "counts")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.thread = threading.get_ident()
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent.id if self.parent else None,
            "thread": self.thread, "name": self.name, "start": self.start,
            "end": self.end, "self_s": self.self_s, "counts": self.counts,
        }


class Tracer:
    """Collects spans from any thread; ``installed`` patches the layer entry points."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, stack[-1] if stack else None, name)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner, attr, name, counts=None):
        """Replace ``owner.attr`` by a traced wrapper; ``counts(args, kwargs, result)``
        returns the span's counts from the call's arguments and return value."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    span.counts["failed"] = 1
                    raise
                if counts is not None:
                    span.counts.update(counts(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextmanager
    def installed(self, modules):
        """Wrap every hook in ``LAYER_HOOKS`` for the duration of the block."""
        try:
            for module_name, attr, name, counts in LAYER_HOOKS:
                owner = modules[module_name]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                self.wrap(owner, attr, name, counts)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# counts taken from arguments and returned objects

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _flow_counts(args, kwargs, flows):
    frames = _arg(args, kwargs, 0, "frames")
    iterations = _arg(args, kwargs, 2, "iterations")
    pairs = len(flows)
    height, width = frames.shape[1:]
    return {"pairs": pairs, "pixel_sweeps": pairs * height * width * iterations}


def _descriptor_counts(args, kwargs, dset):
    return {"descriptors": dset.count}


def _gram_counts(args, kwargs, gram):
    n = gram.size
    return {"entries": n * (n + 1) // 2}   # computed from the shape: upper triangle


def _rows_counts(args, kwargs, rows):
    return {"entries": int(rows.size)}     # computed from the shape


def _smo_counts(args, kwargs, model):
    return {"iterations": model.iterations}


def _kmeans_counts(args, kwargs, result):
    _, history = result
    return {"iterations": len(history)}


def _mkl_counts(args, kwargs, model):
    return {"outer_steps": len(model.objective_history) - 1, "converged": int(model.converged)}


def _boost_counts(args, kwargs, model):
    requested = _arg(args, kwargs, 2, "trials")
    return {"trials_requested": requested, "trials_kept": len(model.trials)}


def _path_size(index, key):
    def counts(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, key))}
    return counts


def _write_counts(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "data"))}


# (module, attribute where the caller looks it up, span name, counts)
LAYER_HOOKS = (
    ("synth", "synthesize_video", "synth.video", None),
    ("dataio", "atomic_write_bytes", "dataio.write", _write_counts),
    ("dataio", "read_json", "dataio.read", _path_size(0, "path")),
    ("config", "read_json", "dataio.read", _path_size(0, "path")),
    ("modelio", "read_json", "dataio.read", _path_size(0, "path")),
    ("dataio", "read_frame_sequence", "dataio.read", _path_size(0, "path")),
    ("evaluation", "read_frame_sequence", "dataio.read", _path_size(0, "path")),
    ("dataio", "read_descriptor_set", "dataio.read", _path_size(0, "path")),
    ("dataio", "read_codebook", "dataio.read", _path_size(0, "path")),
    ("evaluation", "sequence_flows", "flow.sequence", _flow_counts),
    ("evaluation", "hof_from_flows", "descriptors.hof", _descriptor_counts),
    ("evaluation", "logc_from_flows", "descriptors.logc", _descriptor_counts),
    ("evaluation", "cuboid_descriptors", "descriptors.cuboid", _descriptor_counts),
    ("descriptors", "matrix_log", "linalg.matrix_log", None),
    ("bow", "kmeans_with_history", "bow.kmeans", _kmeans_counts),
    ("bow", "encode_video", "bow.encode", None),
    ("kernels", "gram_matrix", "kernels.gram", _gram_counts),
    ("kernels", "kernel_rows", "kernels.rows", _rows_counts),
    ("svm", "smo_train", "svm.smo", _smo_counts),
    ("mkl", "smo_train", "svm.smo", _smo_counts),
    ("boost", "smo_train", "svm.smo", _smo_counts),
    ("mkl", "simple_mkl_train", "mkl.train", _mkl_counts),
    ("boost", "boost_train", "boost.train", _boost_counts),
    ("evaluation", "run_repeat", "evaluation.repeat", None),
    ("evaluation", "extract_video_descriptors", "evaluation.extract_video", None),
    ("modelio", "train_model", "modelio.train", None),
    ("cli", "train_model", "modelio.train", None),
    ("modelio", "TrainedModel.predict", "modelio.predict", None),
    ("modelio", "write_model", "modelio.write", _path_size(1, "path")),
    ("cli", "write_model", "modelio.write", _path_size(1, "path")),
)


# ---------------------------------------------------------------------------
# per-layer metrics

def _p(values, q):
    """Quartile ``q`` (1, 2 or 3) of the values, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, for the layers the spans cover.

    Times are self times (span minus child spans) summed over calls,
    except the ``.p50``/``.p75`` latency percentiles, the per-video synth
    time and the per-command CLI times, which use whole span durations.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def children(parent_name, name):
        return sum(1 for s in by_name.get(name, ()) if s.parent and s.parent.name == parent_name)

    out = {}
    if calls("synth.video"):
        out["synth.video_s"] = (statistics.median(durations("synth.video")), "s")
    if calls("dataio.read") or calls("dataio.write"):
        out["dataio.read_s"] = (self_s("dataio.read"), "s")
        out["dataio.write_s"] = (self_s("dataio.write"), "s")
        out["dataio.bytes_read"] = (total("dataio.read", "bytes"), "B")
        out["dataio.bytes_written"] = (total("dataio.write", "bytes"), "B")
    if calls("flow.sequence"):
        flow_s = self_s("flow.sequence")
        sweeps = total("flow.sequence", "pixel_sweeps")
        out["flow.s"] = (flow_s, "s")
        out["flow.pairs"] = (total("flow.sequence", "pairs"), "count")
        out["flow.pixel_sweeps"] = (sweeps, "count")
        out["flow.pixel_sweeps_per_s"] = (sweeps / flow_s, "1/s")
    if calls("descriptors.hof") or calls("descriptors.cuboid"):
        out["descriptors.hof.s"] = (self_s("descriptors.hof"), "s")
        out["descriptors.logc.self_s"] = (self_s("descriptors.logc"), "s")
        out["descriptors.cuboid.s"] = (self_s("descriptors.cuboid"), "s")
        for kind in ("hof", "logc", "cuboid"):
            out[f"descriptors.count.{kind}"] = (total(f"descriptors.{kind}", "descriptors"), "count")
    if calls("linalg.matrix_log"):
        out["linalg.matrix_log.calls"] = (calls("linalg.matrix_log"), "count")
        out["linalg.matrix_log.s"] = (self_s("linalg.matrix_log"), "s")
    if calls("bow.kmeans") or calls("bow.encode"):
        out["bow.kmeans.calls"] = (calls("bow.kmeans"), "count")
        out["bow.kmeans.iterations"] = (total("bow.kmeans", "iterations"), "count")
        out["bow.kmeans.s"] = (self_s("bow.kmeans"), "s")
        out["bow.encode.s"] = (self_s("bow.encode"), "s")
    if calls("kernels.gram") or calls("kernels.rows"):
        out["kernels.gram.calls"] = (calls("kernels.gram"), "count")
        out["kernels.gram.entries"] = (total("kernels.gram", "entries"), "count")
        out["kernels.gram.s"] = (self_s("kernels.gram"), "s")
        out["kernels.rows.entries"] = (total("kernels.rows", "entries"), "count")
        out["kernels.rows.s"] = (self_s("kernels.rows"), "s")
    if calls("svm.smo"):
        smo_calls = calls("svm.smo")
        iterations = total("svm.smo", "iterations")
        out["svm.smo.calls"] = (smo_calls, "count")
        out["svm.smo.iterations"] = (iterations, "count")
        out["svm.smo.iterations_per_call"] = (iterations / smo_calls, "count")
        out["svm.smo.s"] = (self_s("svm.smo"), "s")
        out["svm.smo.failed"] = (total("svm.smo", "failed"), "count")
    if calls("mkl.train"):
        problems = calls("mkl.train")
        out["mkl.problems"] = (problems, "count")
        out["mkl.outer_steps"] = (total("mkl.train", "outer_steps"), "count")
        out["mkl.smo_per_problem"] = (children("mkl.train", "svm.smo") / problems, "count")
        out["mkl.converged_ratio"] = (total("mkl.train", "converged") / problems, "ratio")
        out["mkl.self_s"] = (self_s("mkl.train"), "s")
    if calls("boost.train"):
        boosts = by_name["boost.train"]
        out["boost.problems"] = (len(boosts), "count")
        out["boost.weak_svms"] = (children("boost.train", "svm.smo"), "count")
        out["boost.trials_kept_ratio"] = (
            total("boost.train", "trials_kept") / total("boost.train", "trials_requested"), "ratio")
        out["boost.early_stops"] = (
            sum(1 for s in boosts if s.counts["trials_kept"] < s.counts["trials_requested"]),
            "count")
        out["boost.self_s"] = (self_s("boost.train"), "s")
    if calls("evaluation.repeat"):
        out["evaluation.repeat_s.p50"] = (_p(durations("evaluation.repeat"), 2), "s")
    if calls("evaluation.extract_video"):
        extract = durations("evaluation.extract_video")
        out["evaluation.extract_video_s.p50"] = (_p(extract, 2), "s")
        out["evaluation.extract_video_s.p75"] = (_p(extract, 3), "s")
    if calls("modelio.train"):
        out["modelio.train.s"] = (self_s("modelio.train"), "s")
    if calls("modelio.predict"):
        out["modelio.predict.s"] = (self_s("modelio.predict"), "s")
    if calls("modelio.write"):
        out["modelio.model_bytes"] = (total("modelio.write", "bytes"), "B")
    for name in sorted(by_name):
        if name.startswith("cli."):
            out[f"{name}.s"] = (sum(durations(name)), "s")
            out[f"{name}.exit"] = (max(s.counts["exit"] for s in by_name[name]), "code")
    return out
