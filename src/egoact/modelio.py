"""The method registry, fitting one-vs-all models, scoring new histograms,
and the JSON model file format.

Every method is defined once, in ``METHODS``. ``fit`` is the one training
path, shared by ``train_model`` and the evaluation protocol.

The model file inlines everything prediction needs: kernel specs with
materialized parameters, per-kernel trace scales, the training histogram
vectors, and one binary payload per class (plain SVM, MKL, or boosted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import boost as boost_mod
from . import kernels, mkl, svm
from .config import RunConfig
from .dataio import DatasetManifest, decode_json, json_numbers, json_str, read_json, write_json
from .descriptors import FEATURES, check_features
from .errors import ConfigError, ValidationError


@dataclass(frozen=True)
class Method:
    """One classification method. ``train`` and ``score`` look their solvers
    up on the solver modules at call time, so wrappers installed there see
    every call."""

    per_block: bool      # one kernel per feature block, else one over the whole vector
    kinds: tuple         # accepted kernel kinds
    codec: type          # binary payload class (to_dict / from_dict)
    train: Callable      # ((M, n, n) bank, y_pm, cfg, seed_sequence) -> payload
    score: Callable      # (payload, kernel rows (M, n, L)) -> (n,) scores
    check: Callable      # (payload, train_count, kernel_count); raises ValueError
    describe: Callable   # payload -> one line for ``egoact inspect``
    note: Callable       # (payload, cfg) -> why training stopped short, for ``egoact train``, or ""


def _check_svm(model, train_count, kernel_count):
    if model.size != train_count:
        raise ValueError(f"SVM has {model.size} coefficients for {train_count} training vectors")


def _check_mkl(model, train_count, kernel_count):
    if model.weights.size != kernel_count:
        raise ValueError(f"MKL model has {model.weights.size} weights for {kernel_count} kernels")
    _check_svm(model.svm, train_count, kernel_count)


def _check_boost(model, train_count, kernel_count):
    if (model.train_size, model.kernel_count) != (train_count, kernel_count):
        raise ValueError(f"boosted model is for {model.train_size} vectors and "
                         f"{model.kernel_count} kernels, not {train_count} and {kernel_count}")
    for trial in model.trials:
        idx = trial.train_indices
        if (not 0 <= trial.kernel_index < kernel_count or idx.shape != (trial.svm.size,)
                or idx.min(initial=0) < 0 or idx.max(initial=0) >= train_count):
            raise ValueError("boosting trial refers to a kernel or training vector outside the model")


def _describe_mkl(model) -> str:
    weights = model.weights.tolist()
    text = " ".join(f"{w:.3f}" for w in weights)
    return f"kernel weights [{text}] sum={sum(weights):.3f} converged={model.converged}"


_SVM = dict(
    codec=svm.BinarySvmModel, check=_check_svm,
    train=lambda bank, y, cfg, seed: svm.smo_train(bank[0], y, cfg.svm.c_reg, tol=cfg.svm.tol),
    score=lambda model, rows: svm.decision_many(model, rows[0]),
    describe=lambda model: f"{int((model.alpha > 0).sum())} support vectors, bias {model.bias:.4f}",
    note=lambda model, cfg: "",
)

METHODS = {
    "single_kernel": Method(per_block=False, kinds=kernels.KERNEL_KINDS, **_SVM),
    "multichannel": Method(per_block=False, kinds=kernels.CHANNEL_KINDS, **_SVM),
    "simple_mkl": Method(
        per_block=True, kinds=kernels.KERNEL_KINDS, codec=mkl.MklModel, check=_check_mkl,
        train=lambda bank, y, cfg, seed: mkl.simple_mkl_train(
            bank, y, cfg.svm.c_reg, cfg.mkl, svm_tol=cfg.svm.tol),
        score=lambda model, rows: mkl.mkl_predict_many(model, rows),
        describe=_describe_mkl,
        note=lambda model, cfg: "" if model.converged else (
            f"simple_mkl stopped at mkl.max_outer={cfg.mkl.max_outer} outer steps without converging"),
    ),
    "boost_mkl": Method(
        per_block=True, kinds=kernels.KERNEL_KINDS, codec=boost_mod.BoostedModel, check=_check_boost,
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


def method_entry(name: str) -> Method:
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}, expected one of {tuple(METHODS)}")
    return METHODS[name]


class TrainedModel:
    """A full multiclass model plus the data needed to score new vectors."""

    __slots__ = ("method", "classes", "specs", "scales", "train_vectors", "binary_models")

    def __init__(self, method, classes, specs, scales, train_vectors, binary_models):
        self.method = method
        self.classes = list(classes)
        self.specs = list(specs)
        self.scales = [float(s) for s in scales]
        self.train_vectors = np.asarray(train_vectors, dtype=np.float64)
        self.binary_models = list(binary_models)

    def score_matrix(self, vectors) -> np.ndarray:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        rows = np.stack([kernels.kernel_rows(spec, vectors, self.train_vectors) * scale
                         for spec, scale in zip(self.specs, self.scales)])
        score = METHODS[self.method].score
        return np.stack([score(model, rows) for model in self.binary_models], axis=1)

    def predict(self, vectors) -> np.ndarray:
        return svm.ova_predict_scores(self.score_matrix(vectors))

    def to_dict(self) -> dict:
        return {
            "kind": "model",
            "method": self.method,
            "classes": self.classes,
            "specs": [s.to_dict() for s in self.specs],
            "scales": self.scales,
            "train_vectors": self.train_vectors.tolist(),
            "binary_models": [m.to_dict() for m in self.binary_models],
        }

    @staticmethod
    def from_dict(doc: dict) -> "TrainedModel":
        """Decode a model document; a document of another kind, a NaN or an
        infinity anywhere, parts that disagree in size, or a kernel spec that
        cannot score the training vectors raise one of ``MALFORMED``."""
        if doc.get("kind") != "model":
            raise ValueError(f"kind is {doc.get('kind')!r}, not 'model'")
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            raise ValueError("model holds a non-finite number (NaN or infinity)") from None
        method = method_entry(doc["method"])
        specs = [kernels.KernelSpec.from_dict(s) for s in doc["specs"]]
        model = TrainedModel(
            doc["method"], json_str(doc["classes"], 1), specs, json_numbers(doc["scales"]),
            json_numbers(doc["train_vectors"], 2),
            [method.codec.from_dict(b) for b in doc["binary_models"]],
        )
        vectors = model.train_vectors
        if not len(vectors) or not specs:
            raise ValueError("model needs a nonempty (count, dim) train_vectors and kernel specs")
        if len(model.scales) != len(specs):
            raise ValueError(f"model has {len(model.scales)} scales for {len(specs)} kernels")
        if len(model.binary_models) != len(model.classes):
            raise ValueError(f"model has {len(model.binary_models)} binary models "
                             f"for {len(model.classes)} classes")
        for payload in model.binary_models:
            method.check(payload, len(vectors), len(specs))
        model.score_matrix(vectors[:1])   # run the checks that scoring makes, once
        return model


def write_model(model: TrainedModel, path) -> None:
    write_json(path, model.to_dict())


def read_model(path) -> TrainedModel:
    return decode_json(path, read_json(path), "model", TrainedModel.from_dict)


# ---------------------------------------------------------------------------
# kernel bank assembly and fitting

def normalize_features(features):
    """The checked feature names in ``FEATURES`` (histogram block) order."""
    return tuple(sorted(check_features(features), key=list(FEATURES).index))


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
    entry = method_entry(method)
    kind, exponents = cfg.kernels.kind, cfg.kernels.jpl_exponents
    if kind not in entry.kinds:
        raise ConfigError(f"{method} needs a {' or '.join(entry.kinds)} kernel")
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
    binary model per class, for a run that ``check_run`` passed.

    Class k's binary problem gets ``SeedSequence(seed, spawn_key=(*spawn_prefix, k))``;
    only boosting draws from it.
    """
    specs = build_bank_specs(method, layout, cfg, vectors)
    grams, scales = zip(*(kernels.trace_normalize(kernels.gram_matrix(vectors, spec))
                          for spec in specs))
    bank = np.stack(grams)
    train = METHODS[method].train
    models = svm.ova_train(labels, classes, lambda y_pm, k: train(
        bank, y_pm, cfg, np.random.SeedSequence(entropy=seed, spawn_key=(*spawn_prefix, k))))
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
