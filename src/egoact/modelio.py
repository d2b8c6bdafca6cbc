"""The method registry, fitting one-vs-all models, scoring new histograms,
and the JSON model file format.

Every method is defined once, in ``METHODS``, as a binary trainer and scorer.
``fit`` is the one training path, shared by ``train_model`` and the evaluation
protocol, and the one-vs-all loop: one binary model per class, class k's items
against the rest. ``TrainedModel.predict`` takes each vector's top-scoring class.

The model file inlines everything prediction needs: kernel specs with
materialized parameters, per-kernel trace scales, the training histogram
vectors, and one binary payload per class (plain SVM, MKL, or boosted).
Reading a model scores its first training vector once: that is its size check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import boost as boost_mod
from . import kernels, mkl, svm
from .config import RunConfig
from .dataio import (DatasetManifest, check_classes, decode_json, decoded, from_doc, json_numbers,
                     json_records, json_str, read_json, to_doc, write_json)
from .errors import ConfigError, ValidationError


@dataclass(frozen=True)
class Method:
    """One classification method. ``train`` and ``score`` look their solvers
    up on the solver modules at call time, so wrappers installed there see
    every call."""

    per_block: bool      # one kernel per feature block, else one over the whole vector
    kinds: tuple         # accepted kernel kinds
    codec: type          # binary payload record (to_doc / from_doc)
    train: Callable      # ((M, n, n) bank, y_pm, cfg, seed_sequence) -> payload
    score: Callable      # (payload, kernel rows (M, n, L)) -> (n,) scores; raises on a size mismatch
    describe: Callable   # payload -> one line for ``egoact inspect``
    note: Callable       # (payload, cfg) -> why training stopped short, for ``egoact train``, or ""


_SVM = dict(
    codec=svm.BinarySvmModel,
    train=lambda bank, y, cfg, seed: svm.smo_train(bank[0], y, cfg.svm.c_reg, tol=cfg.svm.tol),
    score=lambda model, rows: svm.decision_many(model, rows[0]),
    describe=lambda model: (f"{np.count_nonzero(model.dual_coef)} support vectors, "
                            f"bias {model.bias:.4f}, {model.iterations} SMO steps"),
    note=lambda model, cfg: "",
)

METHODS = {
    "single_kernel": Method(per_block=False, kinds=kernels.KERNEL_KINDS, **_SVM),
    "multichannel": Method(per_block=False, kinds=kernels.CHANNEL_KINDS, **_SVM),
    "simple_mkl": Method(
        per_block=True, kinds=kernels.KERNEL_KINDS, codec=mkl.MklModel,
        train=lambda bank, y, cfg, seed: mkl.simple_mkl_train(
            bank, y, cfg.svm.c_reg, cfg.mkl, svm_tol=cfg.svm.tol),
        score=lambda model, rows: mkl.mkl_predict_many(model, rows),
        describe=lambda model: "kernel weights [" + " ".join(f"{w:.3f}" for w in model.weights) + (
            f"] sum={sum(model.weights.tolist()):.3f} converged={model.converged}"),
        note=lambda model, cfg: "" if model.converged else (
            f"simple_mkl stopped at mkl.max_outer={cfg.mkl.max_outer} outer steps without converging"),
    ),
    "boost_mkl": Method(
        per_block=True, kinds=kernels.KERNEL_KINDS, codec=boost_mod.BoostedModel,
        train=lambda bank, y, cfg, seed: boost_mod.boost_train(
            bank, y, cfg.boost.trials, cfg.svm.c_reg, seed, svm_tol=cfg.svm.tol),
        score=lambda model, rows: boost_mod.boost_predict_many(model, rows),
        describe=lambda model: f"{len(model.trials)} trials (" + ", ".join(
            f"k{t.kernel_index}:w={t.weight:.3f}" for t in model.trials) + ")",
        note=lambda model, cfg: "" if len(model.trials) >= cfg.boost.trials else (
            f"boost_mkl kept {len(model.trials)} of {cfg.boost.trials} trials "
            f"after {boost_mod.MAX_REDRAWS} failed redraws"),
    ),
}


def method_entry(name: str, kind: str | None = None) -> Method:
    """The method ``name``; ConfigError unless it is one, and, given a kernel ``kind``, takes it."""
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}, expected one of {tuple(METHODS)}")
    if kind is not None and kind not in METHODS[name].kinds:
        raise ConfigError(f"{name} needs a {' or '.join(METHODS[name].kinds)} kernel")
    return METHODS[name]


@dataclass(slots=True, eq=False)
class TrainedModel:
    """A full multiclass model plus the data needed to score new vectors."""

    kind: str = field(default="model", init=False)
    method: str = decoded(json_str)
    classes: list = decoded(json_str, ndim=1)
    specs: list = decoded(json_records, cls=kernels.KernelSpec)
    scales: list = decoded(json_numbers)
    train_vectors: np.ndarray = decoded(json_numbers, ndim=2)
    binary_models: list = decoded(json_records, cls=None)   # cls: the method's codec, from from_dict

    def score_matrix(self, vectors) -> np.ndarray:
        rows = np.stack([kernels.kernel_rows(spec, vectors, self.train_vectors) * scale
                         for spec, scale in zip(self.specs, self.scales)])
        score = METHODS[self.method].score
        return np.stack([score(model, rows) for model in self.binary_models], axis=1)

    def predict(self, vectors) -> np.ndarray:
        """The top-scoring class of each vector; a tie goes to the lowest class index."""
        return np.argmax(self.score_matrix(vectors), axis=1)

    to_dict = to_doc

    @staticmethod
    def from_dict(doc: dict) -> "TrainedModel":
        """Decode a model document; another kind, an unknown field, a NaN or an
        infinity, parts that disagree in size, a scale not above 0, a class list that
        ``check_classes`` refuses, a kernel kind its method does not take, or a kernel
        spec that cannot score the training vectors finitely raise one of ``MALFORMED``."""
        model = from_doc(doc, TrainedModel, binary_models=lambda value: json_records(
            value, method_entry(doc["method"]).codec))
        vectors = model.train_vectors
        if not len(vectors) or not model.specs:
            raise ValueError("model needs a nonempty (count, dim) train_vectors and kernel specs")
        if len(model.scales) != len(model.specs):
            raise ValueError(f"model has {len(model.scales)} scales for {len(model.specs)} kernels")
        if min(model.scales) <= 0.0:
            raise ValueError(f"kernel scales must be above 0, got {to_doc(model.scales)}")
        check_classes(model.classes)
        for spec in model.specs:
            method_entry(model.method, spec.kind)
        if len(model.binary_models) != len(model.classes):
            raise ValueError(f"model has {len(model.binary_models)} binary models "
                             f"for {len(model.classes)} classes")
        if not np.isfinite(model.score_matrix(vectors[:1])).all():   # scoring makes the size checks
            raise ValueError("model gives its first training vector a score that is not finite")
        return model


def write_model(model: TrainedModel, path) -> None:
    write_json(path, model)


def read_model(path) -> TrainedModel:
    return decode_json(path, read_json(path), "model", TrainedModel.from_dict)


# ---------------------------------------------------------------------------
# kernel bank assembly and fitting

def stack_histograms(histograms):
    """(count, dim) concatenated vectors and the (name, offset, length) block layout."""
    layout, offset = [], 0
    for name, counts in histograms[0].blocks:
        layout.append((name, offset, counts.size))
        offset += counts.size
    return np.stack([h.concat() for h in histograms]), layout


def check_run(method: str, cfg: RunConfig) -> None:
    """ConfigError unless ``method`` trains with ``cfg.kernels.kind`` and any
    ``jpl_exponents`` give one per kernel channel: one channel per block for a
    per-block method, else one per feature."""
    entry = method_entry(method, cfg.kernels.kind)
    kind, exponents = cfg.kernels.kind, cfg.kernels.jpl_exponents
    channels = 1 if entry.per_block else len(cfg.features)
    if kind == kernels.JPL_INT and exponents and len(exponents) != channels:
        raise ConfigError(f"jpl_exponents has {len(exponents)} entries for {channels} channels")


def build_bank_specs(method, layout, cfg: RunConfig, train_vectors):
    """Kernel specs of ``cfg.kernels`` for one training set: one per feature block
    for a per-block method, else one over the whole vector. Gaussian widths come
    from the set."""
    kind = cfg.kernels.kind
    targets = [(None, kind)]
    if METHODS[method].per_block:
        targets = [((offset, length), f"{kind}:{name}") for name, offset, length in layout]
    specs = []
    for block, label in targets:
        channels = ()
        if kind in kernels.CHANNEL_KINDS:
            channels = ((0, block[1]),) if block else tuple((off, ln) for _, off, ln in layout)
        sigma = None
        if kind == kernels.GAUSSIAN:
            sigma = cfg.kernels.gaussian_sigma
            if sigma is None:
                sigma = kernels.median_heuristic_sigma(train_vectors, block=block)
        exponents = cfg.kernels.jpl_exponents if kind == kernels.JPL_INT else ()
        specs.append(kernels.KernelSpec(kind, sigma=sigma, channels=channels,
                                        exponents=exponents, block=block, label=label))
    return specs


def fit(method, vectors, labels, classes, layout, cfg: RunConfig, seed, spawn_prefix) -> TrainedModel:
    """Build the trace-normalized kernel bank over ``vectors`` and train one
    binary model per class, class k's items against the rest, for a run that
    ``check_run`` passed. A class with no training item, or a lone class, leaves
    a binary problem of one class, which every trainer refuses.

    Class k's binary problem gets ``SeedSequence(seed, spawn_key=(*spawn_prefix, k))``;
    only boosting draws from it.
    """
    specs = build_bank_specs(method, layout, cfg, vectors)
    grams, scales = zip(*(kernels.trace_normalize(kernels.gram_matrix(vectors, spec))
                          for spec in specs))
    bank = np.stack(grams)
    train = METHODS[method].train
    models = [train(bank, np.where(labels == k, 1.0, -1.0), cfg,
                    np.random.SeedSequence(entropy=seed, spawn_key=(*spawn_prefix, k)))
              for k in range(len(classes))]
    return TrainedModel(method, classes, specs, scales, vectors, models)


def train_model(manifest: DatasetManifest, histograms, cfg: RunConfig, method: str,
                kernel_kind: str | None = None, seed: int = 0) -> TrainedModel:
    """Train one model on every video in the manifest (no held-out split)."""
    by_id = {h.video_id: h for h in histograms}
    missing = [v.video_id for v in manifest.videos if v.video_id not in by_id]
    if missing:
        raise ValidationError(f"histograms missing for videos: {missing[:5]}")
    hists = [by_id[v.video_id] for v in manifest.videos]
    cfg = replace(cfg.replace_section("kernels", kind=kernel_kind or cfg.kernels.kind),
                  features=hists[0].block_order())
    check_run(method, cfg)
    vectors, layout = stack_histograms(hists)
    labels = np.array([v.class_index for v in manifest.videos])
    return fit(method, vectors, labels, manifest.classes, layout, cfg, seed, ())
