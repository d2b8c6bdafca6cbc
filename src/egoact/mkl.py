"""Reduced-gradient multiple kernel learning over a fixed kernel bank.

Kernel weights live on the probability simplex. Each outer iteration
trains an SVM on the weighted kernel combination, evaluates the gradient
of the optimal dual value with respect to the weights, forms the reduced
gradient against the largest-weight coordinate, and walks a halving line
search along the projected descent direction, accepting only objective
decreases that keep the weights nonnegative.
"""

from __future__ import annotations

import numpy as np

from .config import MklSection
from .dataio import json_bool, json_numbers
from .errors import check_positive
from .kernels import check_bank, check_simplex, combine, combine_rows
from .svm import BinarySvmModel, decision_many, smo_train

MAX_LINE_SEARCH = 30   # step halvings tried per outer iteration


class MklModel:
    """Learned kernel weights plus the SVM trained on the combined kernel."""

    __slots__ = ("weights", "svm", "converged", "objective_history")

    def __init__(self, weights, svm: BinarySvmModel, converged: bool, objective_history=None):
        self.weights = check_simplex(weights, len(weights))
        self.svm = svm
        self.converged = bool(converged)
        self.objective_history = objective_history if objective_history is not None else []

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "svm": self.svm.to_dict(),
            "converged": self.converged,
        }

    @staticmethod
    def from_dict(doc: dict) -> "MklModel":
        return MklModel(
            json_numbers(doc["weights"]),
            BinarySvmModel.from_dict(doc["svm"]),
            json_bool(doc["converged"]),
        )


def _weight_gradient(bank: np.ndarray, svm: BinarySvmModel) -> np.ndarray:
    ay = svm.alpha * svm.labels
    return -0.5 * np.einsum("i,mij,j->m", ay, bank, ay)


def _descent_direction(weights: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # Reduced gradient against the heaviest coordinate; zero-weight
    # coordinates may only move up.
    anchor = int(np.argmax(weights))
    reduced = grad - grad[anchor]
    direction = -reduced
    direction[(weights <= 0.0) & (direction < 0.0)] = 0.0
    direction[anchor] = 0.0
    direction[anchor] = -direction.sum()
    return direction


def simple_mkl_train(bank: np.ndarray, y, c_reg: float, params: MklSection = MklSection(),
                     svm_tol: float = 1e-3) -> MklModel:
    """Jointly optimize simplex kernel weights over the (M, n, n) ``bank`` and
    the SVM on their combination; ``params`` holds the stopping tolerances
    and the outer iteration cap."""
    bank = check_bank(bank, y)
    check_positive("c_reg", c_reg)
    check_positive("svm_tol", svm_tol)
    m = len(bank)
    y = np.asarray(y, dtype=np.float64)
    weights = np.full(m, 1.0 / m)

    svm = smo_train(combine(bank, weights), y, c_reg, tol=svm_tol)
    objective = svm.objective
    history = [objective]
    converged = False

    for _ in range(params.max_outer):
        grad = _weight_gradient(bank, svm)
        direction = _descent_direction(weights, grad)
        if np.max(np.abs(direction)) <= 1e-14:
            converged = True
            break

        negative = direction < 0.0
        step = float(np.min(-weights[negative] / direction[negative]))
        accepted = None
        for _ in range(MAX_LINE_SEARCH):
            trial = np.maximum(weights + step * direction, 0.0)
            trial /= trial.sum()
            trial_svm = smo_train(combine(bank, trial), y, c_reg, tol=svm_tol)
            if trial_svm.objective < objective:
                accepted = (trial, trial_svm)
                break
            step /= 2.0
        if accepted is None:
            converged = True
            break

        new_weights, new_svm = accepted
        delta_w = float(np.max(np.abs(new_weights - weights)))
        delta_obj = objective - new_svm.objective
        weights, svm, objective = new_weights, new_svm, new_svm.objective
        history.append(objective)
        if delta_w < params.weight_tol or delta_obj <= params.objective_tol * abs(objective):
            converged = True
            break

    return MklModel(weights, svm, converged, history)


def mkl_predict_many(model: MklModel, k_rows) -> np.ndarray:
    """Vectorized scores for (M, n_items, L) stacked kernel rows."""
    return decision_many(model.svm, combine_rows(k_rows, model.weights))
