"""Binary soft-margin kernel SVM trained by sequential minimal optimization,
plus score-based one-vs-all multiclass on top of any binary trainer.

The solver maximizes the usual dual

    sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. 0 <= a_i <= C_i,  sum_i a_i y_i = 0

picking the maximal violating pair each step and stopping once the KKT
violation gap falls below ``tol``. Per-item boxes C_i support weighted
training (C_i = C * L * w_i for a probability vector w).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError


class BinarySvmModel:
    """Dual solution of one binary problem over a fixed Gram matrix."""

    __slots__ = ("alpha", "labels", "bias", "c_reg", "box", "converged",
                 "iterations", "objective", "objective_history")

    def __init__(self, alpha, labels, bias, c_reg, box, converged=True,
                 iterations=0, objective=0.0, objective_history=None):
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
        self.objective_history = objective_history if objective_history is not None else []

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
        return BinarySvmModel(
            doc["alpha"], doc["labels"], doc["bias"], doc["c_reg"], doc["box"],
            converged=doc.get("converged", True),
            iterations=doc.get("iterations", 0),
            objective=doc.get("objective", 0.0),
        )


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
              max_iter: int | None = None, track_objective: bool = False) -> BinarySvmModel:
    """Solve the dual on a precomputed kernel matrix.

    ``gram`` may be a GramMatrix or a plain square ndarray. When
    ``sample_weights`` (a probability vector) is given, item i's box
    becomes c_reg * L * w_i. Raises ConvergenceError if the violation gap
    has not closed after the iteration cap.
    """
    kernel = np.asarray(getattr(gram, "matrix", gram), dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValidationError(f"kernel matrix must be square, got {kernel.shape}")
    y = _check_binary_labels(y)
    n = y.size
    if kernel.shape[0] != n:
        raise ValidationError(f"kernel size {kernel.shape[0]} != label count {n}")
    if c_reg <= 0:
        raise ValidationError("c_reg must be positive")

    if sample_weights is None:
        box = np.full(n, c_reg)
    else:
        weights = np.asarray(sample_weights, dtype=np.float64)
        if weights.shape != (n,) or weights.min() < 0:
            raise ValidationError("sample_weights must be nonnegative, one per item")
        box = c_reg * n * weights

    if max_iter is None:
        max_iter = 100_000 + 200 * n

    q = np.outer(y, y) * kernel
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the minimization form 1/2 aQa - sum a
    history = [0.0] if track_objective else None

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < box))
        if not up.any() or not low.any():
            converged = True
            iterations -= 1
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        j = int(np.argmin(np.where(low, neg_yg, np.inf)))
        if neg_yg[i] - neg_yg[j] <= tol:
            converged = True
            iterations -= 1
            break

        old_i, old_j = alpha[i], alpha[j]
        ci, cj = box[i], box[j]
        quad = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        if quad <= 0.0:
            quad = 1e-12
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0.0:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > ci - cj:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = ci - diff
            else:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = cj + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > ci:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = total - ci
            else:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > cj:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = total - cj
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = total
        grad += q[:, i] * (alpha[i] - old_i) + q[:, j] * (alpha[j] - old_j)
        if track_objective:
            history.append(dual_objective(alpha, y, kernel))

    if not converged:
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < box))
        gap = float(np.max(np.where(up, neg_yg, -np.inf)) - np.min(np.where(low, neg_yg, np.inf)))
        raise ConvergenceError(
            f"SMO did not converge in {max_iter} iterations "
            f"(n={n}, tol={tol}, violation gap={gap:.3e})"
        )

    bias = _solve_bias(alpha, y, grad, box)
    model = BinarySvmModel(
        alpha, y, bias, c_reg, box,
        converged=True, iterations=iterations,
        objective=dual_objective(alpha, y, kernel),
        objective_history=history,
    )
    return model


def _solve_bias(alpha, y, grad, box) -> float:
    # f(x_i) = sum_j a_j y_j K_ij + b and grad_i = y_i f0(x_i) - 1, so for a
    # free vector b = y_i - f0(x_i) = -y_i * grad_i ... averaged for stability.
    free = (alpha > 1e-12) & (alpha < box - 1e-12)
    neg_yg = -y * grad
    if free.any():
        return float(np.mean(neg_yg[free]))
    up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < box))
    hi = np.max(np.where(up, neg_yg, -np.inf)) if up.any() else 0.0
    lo = np.min(np.where(low, neg_yg, np.inf)) if low.any() else 0.0
    return float((hi + lo) / 2.0)


def decision_many(model: BinarySvmModel, k_rows) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + b for each (n, L) query row."""
    k_rows = np.asarray(k_rows, dtype=np.float64)
    if k_rows.ndim != 2 or k_rows.shape[1] != model.size:
        raise ValidationError(f"kernel rows must be (n, {model.size})")
    return k_rows @ (model.alpha * model.labels) + model.bias


def kkt_residuals(model: BinarySvmModel, gram, y) -> np.ndarray:
    """Per-item violation of the KKT margin conditions (0 when satisfied)."""
    kernel = np.asarray(getattr(gram, "matrix", gram), dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    margins = y * (kernel @ (model.alpha * model.labels) + model.bias)
    slack = 1e-9 * np.maximum(model.box, 1.0)
    at_zero = model.alpha <= slack
    at_box = model.alpha >= model.box - slack
    resid = np.abs(margins - 1.0)
    resid[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    resid[at_box] = np.maximum(0.0, margins[at_box] - 1.0)
    return resid


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
