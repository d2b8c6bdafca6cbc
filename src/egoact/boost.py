"""Boosted kernel selection: AdaBoost over single-kernel SVM weak learners.

Each trial resamples the training set from the current probability
vector, trains one weak SVM per kernel on the resampled items, scores
every candidate's weighted error over all items, keeps the best kernel,
and reweights the items so mistakes gain probability mass. Prediction is
the weight-summed vote of the kept weak classifiers.

The trial weight is the half log odds of the clamped weighted error,
w_t = 0.5 * ln((1 - e_t) / e_t), matching the probability update
P * e^(-+w_t); this is the convention under which the classical
training-error bound prod_t 2*sqrt(e_t(1-e_t)) is guaranteed. Ensemble
sign predictions are unchanged by this scaling choice.
"""

from __future__ import annotations

import numpy as np

from .dataio import json_numbers
from .errors import ValidationError, check_positive
from .kernels import check_bank
from .svm import BinarySvmModel, decision_many, smo_train

ERROR_CLAMP = 1e-10
MAX_REDRAWS = 10


def resample(probabilities, n: int, seed) -> np.ndarray:
    """Draw ``n`` indices i.i.d. with replacement via inverse-CDF sampling;
    ``seed`` is anything ``np.random.default_rng`` takes, a Generator included."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probabilities must be a nonempty vector")
    if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("probabilities must be nonnegative and sum to 1")
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    draws = rng.random(n)
    return np.searchsorted(cdf, draws, side="right").astype(np.int64)


class WeakClassifier:
    """One kept trial: a kernel choice, its weak SVM, and the trial weight."""

    __slots__ = ("kernel_index", "train_indices", "svm", "weight", "error")

    def __init__(self, kernel_index: int, train_indices, svm: BinarySvmModel,
                 weight: float, error: float):
        self.kernel_index = int(kernel_index)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.svm = svm
        self.weight = float(weight)
        self.error = float(error)

    def to_dict(self) -> dict:
        return {
            "kernel_index": self.kernel_index,
            "train_indices": self.train_indices.tolist(),
            "svm": self.svm.to_dict(),
            "weight": self.weight,
            "error": self.error,
        }

    @staticmethod
    def from_dict(doc: dict) -> "WeakClassifier":
        return WeakClassifier(
            json_numbers(doc["kernel_index"], 0, integer=True),
            json_numbers(doc["train_indices"], integer=True), BinarySvmModel.from_dict(doc["svm"]),
            json_numbers(doc["weight"], 0), json_numbers(doc["error"], 0),
        )


class BoostedModel:
    __slots__ = ("trials", "train_size", "kernel_count")

    def __init__(self, trials, train_size: int, kernel_count: int):
        if not trials:
            raise ValidationError("a boosted model needs at least one kept trial")
        self.trials = list(trials)
        self.train_size = int(train_size)
        self.kernel_count = int(kernel_count)

    def to_dict(self) -> dict:
        return {
            "trials": [t.to_dict() for t in self.trials],
            "train_size": self.train_size,
            "kernel_count": self.kernel_count,
        }

    @staticmethod
    def from_dict(doc: dict) -> "BoostedModel":
        return BoostedModel(
            [WeakClassifier.from_dict(t) for t in doc["trials"]],
            json_numbers(doc["train_size"], 0, integer=True),
            json_numbers(doc["kernel_count"], 0, integer=True),
        )


def _weak_votes(svm: BinarySvmModel, rows: np.ndarray) -> np.ndarray:
    return np.where(decision_many(svm, rows) >= 0.0, 1.0, -1.0)


def reweight_probabilities(p: np.ndarray, correct: np.ndarray, weight: float) -> np.ndarray:
    """Scale mistakes up by e^weight and hits down by e^-weight, renormalized."""
    p = p * np.where(correct, np.exp(-weight), np.exp(weight))
    return p / p.sum()


def boost_train(bank: np.ndarray, y, trials: int, c_reg: float, seed,
                svm_tol: float = 1e-3) -> BoostedModel:
    """Run the boosting trials over the kernels of the (M, n, n) ``bank``.

    Per trial: resample L items from P_t, train a weak SVM per kernel on
    the resampled multiset, score each candidate's P_t-weighted error over
    all L items, keep the argmin kernel (ties to the lowest index). Raw
    errors >= 0.5 discard the draw; after 10 redraws the loop stops early
    with the trials collected so far. The kept error is clamped away from
    {0, 0.5} before computing the trial weight and the probability update.
    """
    bank = check_bank(bank, y)
    check_positive("trials", trials, count=True)
    check_positive("c_reg", c_reg)
    check_positive("svm_tol", svm_tol)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if not ((y > 0).any() and (y < 0).any()):
        raise ValidationError("training data must contain both classes")

    rng = np.random.default_rng(seed)
    p = np.full(n, 1.0 / n)
    kept = []

    for _ in range(trials):
        chosen = None
        for _ in range(MAX_REDRAWS):
            idx = resample(p, n, rng)
            y_sub = y[idx]
            if not ((y_sub > 0).any() and (y_sub < 0).any()):
                continue
            candidates = []
            for m in range(len(bank)):
                weak = smo_train(bank[m][np.ix_(idx, idx)], y_sub, c_reg, tol=svm_tol)
                votes = _weak_votes(weak, bank[m][:, idx])
                error = float(p[votes != y].sum())
                candidates.append((error, m, weak, votes))
            best_error, best_m, best_weak, best_votes = min(candidates, key=lambda c: (c[0], c[1]))
            if best_error < 0.5:
                chosen = (best_error, best_m, best_weak, best_votes, idx)
                break
        if chosen is None:
            break

        raw_error, m_t, weak, votes, idx = chosen
        error = min(max(raw_error, ERROR_CLAMP), 0.5 - ERROR_CLAMP)
        weight = float(0.5 * np.log((1.0 - error) / error))
        kept.append(WeakClassifier(m_t, idx, weak, weight, error))
        p = reweight_probabilities(p, votes == y, weight)

    if not kept:
        raise ValidationError(
            f"no boosting trial beat 0.5 weighted error after {MAX_REDRAWS} redraws "
            f"(n={n}, kernels={len(bank)})"
        )
    return BoostedModel(kept, n, len(bank))


def boost_predict_many(model: BoostedModel, k_rows) -> np.ndarray:
    """Scores for (M, n_items, L_train) stacked kernel rows."""
    k_rows = np.asarray(k_rows, dtype=np.float64)
    if k_rows.ndim != 3:
        raise ValidationError("stacked kernel rows must be (M, n, L)")
    if k_rows.shape[0] < model.kernel_count or k_rows.shape[2] != model.train_size:
        raise ValidationError(
            f"need rows for {model.kernel_count} kernels over {model.train_size} "
            f"training items, got {k_rows.shape}"
        )
    scores = np.zeros(k_rows.shape[1])
    for trial in model.trials:
        rows = k_rows[trial.kernel_index][:, trial.train_indices]
        scores += trial.weight * _weak_votes(trial.svm, rows)
    return scores
