"""Reduced-gradient multiple kernel learning over a fixed kernel bank.

Kernel weights live on the probability simplex. Each outer iteration
trains an SVM on the weighted kernel combination, evaluates the gradient
of the optimal dual value with respect to the weights, forms the reduced
gradient against the largest-weight coordinate, and walks a halving line
search along the projected descent direction, accepting only objective
decreases that keep the weights nonnegative.

Each line-search trial starts its SVM from the current solution. That
start is feasible, since the box [0, C] and sum_i a_i y_i = 0 do not
depend on the weights, and a step barely moves the solution (Rakotomamonjy
et al., "SimpleMKL", JMLR 2008), so a warm trial takes fewer SMO steps
than one started from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import decoded, from_doc, json_numbers
from .errors import check_params, param
from .kernels import check_bank, check_simplex, combine
from .svm import BinarySvmModel, SvmSection, decision_many, smo_train

MAX_LINE_SEARCH = 30   # step halvings tried per outer iteration


@dataclass(frozen=True)
class MklSection:
    weight_tol: float = param(1e-4)
    objective_tol: float = param(1e-4)
    max_outer: int = param(200)

    __post_init__ = check_params


@dataclass(slots=True, eq=False)
class MklModel:
    """Learned kernel weights plus the SVM trained on the combined kernel.

    ``converged`` is False only when ``max_outer`` ran out. A vanishing reduced gradient,
    MAX_LINE_SEARCH halvings with no decrease, a weight step below ``weight_tol`` or a
    relative decrease below ``objective_tol`` set it; none of the four certifies an optimum."""

    weights: np.ndarray = decoded(json_numbers)
    svm: BinarySvmModel = decoded(from_doc, cls=BinarySvmModel)
    converged: bool = decoded(bool)
    objective_history: list = field(default_factory=list, repr=False)   # not written

    def __post_init__(self):
        self.weights = check_simplex(self.weights, len(self.weights))


def simple_mkl_train(bank: np.ndarray, y, c_reg: float, params: MklSection = MklSection(),
                     svm_tol: float = SvmSection.tol) -> MklModel:
    """Jointly optimize simplex kernel weights over the (M, n, n) ``bank`` and
    the SVM on their combination; ``params`` holds the stopping tolerances
    and the outer iteration cap."""
    bank = check_bank(bank, y)
    weights = np.full(len(bank), 1.0 / len(bank))
    svm = smo_train(combine(bank, weights), y, c_reg, tol=svm_tol)
    history = [svm.objective]

    for _ in range(params.max_outer):
        grad = -0.5 * np.einsum("i,mij,j->m", svm.dual_coef, bank, svm.dual_coef)
        # Reduced gradient against the heaviest coordinate; zero-weight
        # coordinates may only move up.
        anchor = int(np.argmax(weights))
        direction = -(grad - grad[anchor])
        direction[(weights <= 0.0) & (direction < 0.0)] = 0.0
        direction[anchor] = 0.0
        direction[anchor] = -direction.sum()
        if np.max(np.abs(direction)) <= 1e-14:
            break

        negative = direction < 0.0
        step = float(np.min(-weights[negative] / direction[negative]))
        for _ in range(MAX_LINE_SEARCH):
            trial = np.maximum(weights + step * direction, 0.0)
            trial /= trial.sum()
            trial_svm = smo_train(combine(bank, trial), y, c_reg, tol=svm_tol,
                                  alpha0=np.abs(svm.dual_coef))
            if trial_svm.objective < svm.objective:
                break
            step /= 2.0
        else:
            break

        delta_w = float(np.max(np.abs(trial - weights)))
        weights, svm = trial, trial_svm
        history.append(svm.objective)
        if (delta_w < params.weight_tol
                or history[-2] - history[-1] <= params.objective_tol * abs(history[-1])):
            break
    else:
        return MklModel(weights, svm, False, history)
    return MklModel(weights, svm, True, history)


def mkl_predict_many(model: MklModel, k_rows) -> np.ndarray:
    """Scores for (M, n_items, L) stacked kernel rows, combined like the
    training kernel, so a training vector scores exactly as training saw it."""
    return decision_many(model.svm, combine(k_rows, model.weights))
