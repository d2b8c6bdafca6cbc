"""Binary soft-margin kernel SVM trained by sequential minimal optimization,
plus score-based one-vs-all multiclass on top of any binary trainer.

The solver maximizes the usual dual

    sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. 0 <= a_i <= C_i,  sum_i a_i y_i = 0

picking the maximal violating pair each step and stopping once the KKT
violation gap falls below ``tol``. Per-item boxes C_i support weighted
training (C_i = C * L * w_i for a probability vector w).

A step changes only the pair (i, j), so the working-set masks are kept
across steps and only their entries i and j are updated; the masked
scores go into buffers allocated once, and an all-infinite buffer means
no candidate is left. The pair update runs on Python floats, IEEE
doubles like numpy's scalars, so the solution keeps its bytes.
"""

from __future__ import annotations

import numpy as np

from .dataio import json_bool, json_numbers
from .errors import ConvergenceError, ValidationError, check_positive


class BinarySvmModel:
    """Dual solution of one binary problem over a fixed Gram matrix."""

    __slots__ = ("alpha", "labels", "bias", "c_reg", "box", "converged",
                 "iterations", "objective")

    def __init__(self, alpha, labels, bias, c_reg, box, converged=True,
                 iterations=0, objective=0.0):
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.bias = float(bias)
        self.c_reg = float(c_reg)
        self.box = np.asarray(box, dtype=np.float64)
        if self.alpha.ndim != 1 or not self.alpha.shape == self.labels.shape == self.box.shape:
            raise ValidationError("alpha, labels and box must be vectors of one length")
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.objective = float(objective)

    @property
    def size(self) -> int:
        return self.alpha.size

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.alpha > 0.0)[0]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.tolist(),
            "labels": self.labels.tolist(),
            "bias": self.bias,
            "c_reg": self.c_reg,
            "box": self.box.tolist(),
            "support_indices": self.support_indices.tolist(),
            "converged": self.converged,
            "iterations": self.iterations,
            "objective": self.objective,
        }

    @staticmethod
    def from_dict(doc: dict) -> "BinarySvmModel":
        model = BinarySvmModel(
            json_numbers(doc["alpha"]), json_numbers(doc["labels"]),
            json_numbers(doc["bias"], 0), json_numbers(doc["c_reg"], 0), json_numbers(doc["box"]),
            converged=json_bool(doc["converged"]),
            iterations=json_numbers(doc["iterations"], 0, integer=True),
            objective=json_numbers(doc["objective"], 0),
        )
        support = json_numbers(doc["support_indices"], integer=True)
        if not np.array_equal(support, model.support_indices):
            raise ValueError("support_indices are not the indices where alpha > 0")
        return model


def _check_binary_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError("labels must be a flat vector")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("binary labels must be +1 or -1")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValidationError("training data must contain both classes")
    return y


def dual_objective(alpha, y, kernel) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


def smo_train(gram, y, c_reg: float, tol: float = 1e-3, sample_weights=None,
              max_iter: int | None = None) -> BinarySvmModel:
    """Solve the dual on a precomputed kernel matrix.

    When ``sample_weights`` (a probability vector) is given, item i's box
    becomes c_reg * L * w_i. Raises ConvergenceError if the violation gap
    has not closed after the iteration cap.
    """
    kernel = np.asarray(gram, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValidationError(f"kernel matrix must be square, got {kernel.shape}")
    if not np.isfinite(kernel).all():
        raise ValidationError("kernel matrix must be finite")
    y = _check_binary_labels(y)
    n = y.size
    if kernel.shape[0] != n:
        raise ValidationError(f"kernel size {kernel.shape[0]} != label count {n}")
    check_positive("c_reg", c_reg)
    check_positive("tol", tol)

    if sample_weights is None:
        box = np.full(n, c_reg)
    else:
        weights = np.asarray(sample_weights, dtype=np.float64)
        if weights.shape != (n,) or not (weights >= 0).all():
            raise ValidationError("sample_weights must be nonnegative, one per item")
        box = c_reg * n * weights

    if max_iter is None:
        max_iter = 100_000 + 200 * n

    q = np.outer(y, y) * kernel
    q_rows = np.ascontiguousarray(q.T)   # q_rows[i] is column i of q
    neg_y = -y
    grad = -np.ones(n)  # gradient of the minimization form 1/2 aQa - sum a
    alpha = [0.0] * n
    box_l = box.tolist()
    positive = (y > 0).tolist()
    diag = kernel.diagonal().tolist()
    up = (y > 0) & (box > 0)   # items whose alpha_i y_i may still grow
    low = (y < 0) & (box > 0)  # items whose alpha_i y_i may still shrink
    neg_yg, up_score, low_score = np.empty(n), np.full(n, -np.inf), np.full(n, np.inf)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.multiply(neg_y, grad, out=neg_yg)
        np.copyto(up_score, neg_yg, where=up)
        np.copyto(low_score, neg_yg, where=low)
        i = int(up_score.argmax())
        j = int(low_score.argmin())
        top, bottom = up_score.item(i), low_score.item(j)
        if top == -np.inf or bottom == np.inf or top - bottom <= tol:
            converged = True
            iterations -= 1
            break

        old_i, old_j = ai, aj = alpha[i], alpha[j]
        gi, gj = grad.item(i), grad.item(j)
        ci, cj = box_l[i], box_l[j]
        quad = diag[i] + diag[j] - 2.0 * kernel.item(i, j)
        if quad <= 0.0:
            quad = 1e-12
        if positive[i] != positive[j]:
            delta = (-gi - gj) / quad
            diff = ai - aj
            ai += delta
            aj += delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
            if diff > ci - cj:
                if ai > ci:
                    ai = ci
                    aj = ci - diff
            else:
                if aj > cj:
                    aj = cj
                    ai = cj + diff
        else:
            delta = (gi - gj) / quad
            total = ai + aj
            ai -= delta
            aj += delta
            if total > ci:
                if ai > ci:
                    ai = ci
                    aj = total - ci
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = total
            if total > cj:
                if aj > cj:
                    aj = cj
                    ai = total - cj
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = total
        alpha[i], alpha[j] = ai, aj
        grad += q_rows[i] * (ai - old_i) + q_rows[j] * (aj - old_j)
        for k, a, c in ((i, ai, ci), (j, aj, cj)):
            grows, shrinks = (a < c, a > 0.0) if positive[k] else (a > 0.0, a < c)
            up[k], low[k] = grows, shrinks
            if not grows:
                up_score[k] = -np.inf
            if not shrinks:
                low_score[k] = np.inf

    alpha = np.array(alpha, dtype=np.float64)
    neg_yg = neg_y * grad
    if not converged:
        gap = float(np.max(np.where(up, neg_yg, -np.inf)) - np.min(np.where(low, neg_yg, np.inf)))
        raise ConvergenceError(
            f"SMO did not converge in {max_iter} iterations "
            f"(n={n}, tol={tol}, violation gap={gap:.3e})"
        )

    return BinarySvmModel(
        alpha, y, _solve_bias(alpha, neg_yg, box, up, low), c_reg, box,
        converged=True, iterations=iterations,
        objective=dual_objective(alpha, y, kernel),
    )


def _solve_bias(alpha, neg_yg, box, up, low) -> float:
    # f(x_i) = sum_j a_j y_j K_ij + b and grad_i = y_i f0(x_i) - 1, so for a
    # free vector b = y_i - f0(x_i) = -y_i * grad_i ... averaged for stability.
    free = (alpha > 1e-12) & (alpha < box - 1e-12)
    if free.any():
        return float(np.mean(neg_yg[free]))
    hi = np.max(np.where(up, neg_yg, -np.inf)) if up.any() else 0.0
    lo = np.min(np.where(low, neg_yg, np.inf)) if low.any() else 0.0
    return float((hi + lo) / 2.0)


def decision_many(model: BinarySvmModel, k_rows) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + b for each (n, L) query row."""
    k_rows = np.asarray(k_rows, dtype=np.float64)
    if k_rows.ndim != 2 or k_rows.shape[1] != model.size:
        raise ValidationError(f"kernel rows must be (n, {model.size})")
    return k_rows @ (model.alpha * model.labels) + model.bias


# ---------------------------------------------------------------------------
# one-vs-all multiclass

def ova_train(class_indices, classes, trainer) -> list:
    """Train class-k-versus-rest models with ``trainer(y_pm, class_index)``;
    returns them in class order.

    Every class listed in ``classes`` must appear in the training labels.
    """
    class_indices = np.asarray(class_indices, dtype=np.int64)
    if len(classes) < 2:
        raise ValidationError("one-vs-all needs at least 2 classes")
    present = set(int(k) for k in class_indices)
    missing = [name for k, name in enumerate(classes) if k not in present]
    if missing:
        raise ValidationError(f"classes absent from training data: {missing}")
    return [trainer(np.where(class_indices == k, 1.0, -1.0), k) for k in range(len(classes))]


def ova_predict_scores(scores: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValidationError("scores must be (n_items, n_classes)")
    return np.argmax(scores, axis=1)
