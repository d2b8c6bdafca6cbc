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

from dataclasses import dataclass

import numpy as np

from .dataio import decoded, from_doc, json_numbers, json_records, to_doc
from .errors import ValidationError, check_params, param
from .kernels import check_bank
from .svm import BinarySvmModel, SvmSection, check_binary_labels, decision_many, smo_train

ERROR_CLAMP = 1e-10
MAX_REDRAWS = 10


@dataclass(frozen=True)
class BoostSection:
    trials: int = param(10)

    __post_init__ = check_params


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


@dataclass(slots=True, eq=False)
class WeakClassifier:
    """One kept trial: a kernel choice, its weak SVM, and the trial weight."""

    kernel_index: int = decoded(json_numbers, ndim=0, integer=True)
    train_indices: np.ndarray = decoded(json_numbers, integer=True)
    svm: BinarySvmModel = decoded(from_doc, cls=BinarySvmModel)
    weight: float = decoded(json_numbers, ndim=0)
    error: float = decoded(json_numbers, ndim=0)

    def __post_init__(self):
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        if min(self.kernel_index, self.train_indices.min(initial=0)) < 0:
            raise ValidationError("a boosting trial holds a negative index")   # numpy would wrap it


@dataclass(slots=True, eq=False)
class BoostedModel:
    """Kept trials, each indexing one kernel of its model's bank and some of its training
    vectors; an index past either raises IndexError when the model scores."""

    trials: list = decoded(json_records, cls=WeakClassifier)

    def __post_init__(self):
        if not self.trials:
            raise ValidationError("a boosted model needs at least one kept trial")

    to_dict = to_doc


def _weak_votes(svm: BinarySvmModel, rows: np.ndarray) -> np.ndarray:
    return np.where(decision_many(svm, rows) >= 0.0, 1.0, -1.0)


def reweight_probabilities(p: np.ndarray, correct: np.ndarray, weight: float) -> np.ndarray:
    """Scale mistakes up by e^weight and hits down by e^-weight, renormalized."""
    p = p * np.where(correct, np.exp(-weight), np.exp(weight))
    return p / p.sum()


def boost_train(bank: np.ndarray, y, trials: int, c_reg: float, seed,
                svm_tol: float = SvmSection.tol) -> BoostedModel:
    """Run the boosting trials over the kernels of the (M, n, n) ``bank``.

    Per trial: resample L items from P_t, train a weak SVM per kernel on
    the resampled multiset, score each candidate's P_t-weighted error over
    all L items, keep the argmin kernel (ties to the lowest index). A draw
    whose best raw error is >= 0.5, or that holds one class, is discarded;
    after MAX_REDRAWS discarded draws in a row the loop stops early with the
    trials collected so far, or, with none kept, raises an error that counts
    the one-class draws. The kept error is clamped away from {0, 0.5} before
    computing the trial weight and the probability update.
    """
    bank = check_bank(bank, y)
    BoostSection(trials)
    y = check_binary_labels(y)
    n = len(y)

    rng = np.random.default_rng(seed)
    p = np.full(n, 1.0 / n)
    kept, one_class = [], 0

    for _ in range(trials):
        for _ in range(MAX_REDRAWS):
            idx = resample(p, n, rng)
            y_sub = y[idx]
            if not ((y_sub > 0).any() and (y_sub < 0).any()):
                one_class += 1
                continue
            weak = [smo_train(k[np.ix_(idx, idx)], y_sub, c_reg, tol=svm_tol) for k in bank]
            votes = [_weak_votes(svm, k[:, idx]) for svm, k in zip(weak, bank)]
            errors = [float(p[v != y].sum()) for v in votes]
            m_t = int(np.argmin(errors))   # the first minimum: ties go to the lowest index
            if errors[m_t] < 0.5:
                break
        else:
            break

        error = min(max(errors[m_t], ERROR_CLAMP), 0.5 - ERROR_CLAMP)
        weight = float(0.5 * np.log((1.0 - error) / error))
        kept.append(WeakClassifier(m_t, idx, weak[m_t], weight, error))
        p = reweight_probabilities(p, votes[m_t] == y, weight)

    if not kept:
        raise ValidationError(
            f"no boosting trial beat 0.5 weighted error after {MAX_REDRAWS} redraws, {one_class} of "
            f"which held one class and trained no SVM (n={n}, kernels={len(bank)})"
        )
    return BoostedModel(kept)


def boost_predict_many(model: BoostedModel, k_rows) -> np.ndarray:
    """Scores for (M, n_items, L_train) stacked kernel rows."""
    k_rows = np.asarray(k_rows, dtype=np.float64)
    scores = np.zeros(k_rows.shape[1])
    for trial in model.trials:
        rows = k_rows[trial.kernel_index][:, trial.train_indices]
        scores += trial.weight * _weak_votes(trial.svm, rows)
    return scores
