"""Binary soft-margin kernel SVM trained by sequential minimal optimization;
``modelio.fit`` trains one per class for one-vs-all multiclass.

The solver maximizes the usual dual

    sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

picking the maximal violating pair each step and stopping once the KKT
violation gap falls below ``tol``. Every item shares the one box C, as in
the paper's MKL and boosted MKL.

The solver's state is the gradient g of the minimization form as two
signed rows, -y_i g_i and y_i g_i. A step adds the pair's precomputed
signed columns of Q = (y_i y_j K_ij) to both, and g_i is read back as y_i
times row 1; scaling by +-1 commutes with rounding, so this is exact.
Masked copies select the pair: row 0 keeps the items where a_i y_i may
still grow, row 1 those where it may still shrink, and every other entry
is -inf, so one argmax per row picks the pair and an empty row closes the
gap. A step changes only the pair (i, j), so only their entries of the
movable mask are updated. The pair takes one step along its line
a_i + s a_j, s = y_i y_j: a_i += y_i (top - bottom) / quad, a_j -= s times
that, and each in turn that left [0, C] goes to its bound, the other read
back from the line. Row 0 is exactly minus row 1, so every operation is
LIBSVM's two label cases up to an exact sign flip, on Python floats (IEEE
doubles like numpy's scalars). Only a step where a_i and a_j sit within
rounding of each other and both cross C can end a last bit apart.

A solve may start from any feasible alpha0 (in the box, with
sum_i a_i y_i = 0) instead of 0. The state then starts at
signs * (Q alpha0 - 1), and the movable masks from the bounds alpha0 sits
on; at alpha0 = 0 that is exactly the cold start, so a cold solve keeps
its bytes. A restart from a solve's own alpha stops at iteration 0 with
the same coefficients, though its bias, read from the recomputed
gradient, can move in its last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import decoded, json_numbers
from .errors import ConvergenceError, ValidationError, check_params, param


@dataclass(frozen=True)
class SvmSection:
    c_reg: float = param(10.0)
    tol: float = param(1e-3)

    __post_init__ = check_params


@dataclass(slots=True, eq=False)
class BinarySvmModel:
    """Dual solution of one binary problem over a fixed Gram matrix, stored as its
    signed coefficients alpha_i y_i; SMO keeps alpha_i >= 0, so the nonzero ones
    are the support vectors."""

    dual_coef: np.ndarray = decoded(json_numbers)
    bias: float = decoded(json_numbers, ndim=0)
    c_reg: float = decoded(json_numbers, ndim=0)
    iterations: int = decoded(json_numbers, default=0, ndim=0, integer=True)
    objective: float = decoded(json_numbers, default=0.0, ndim=0)

    def __post_init__(self):
        self.c_reg = float(self.c_reg)   # a config's integer c_reg is written as a real


def check_binary_labels(y) -> np.ndarray:
    """``y`` as a float64 vector of +1 and -1 with both classes; the trainers' one label rule."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError("labels must be a flat vector")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("binary labels must be +1 or -1")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValidationError("training data must contain both classes")
    return y


def _check_start(alpha0, y: np.ndarray, c: float) -> np.ndarray:
    alpha0 = np.asarray(alpha0, dtype=np.float64)
    if alpha0.shape != y.shape:
        raise ValidationError(f"a start of shape {alpha0.shape} cannot start {y.size} items")
    if not np.isfinite(alpha0).all():
        raise ValidationError("start must be finite")
    if alpha0.min() < 0.0 or alpha0.max() > c:
        raise ValidationError(f"start must lie in [0, {c}], got [{alpha0.min()}, {alpha0.max()}]")
    balance = float(alpha0 @ y)
    if abs(balance) > 1e-8 * c * y.size:
        raise ValidationError(f"start must satisfy sum(alpha_i y_i) = 0, got {balance:.3e}")
    return alpha0


def smo_train(gram, y, c_reg: float, tol: float = SvmSection.tol,
              max_iter: int | None = None, alpha0=None) -> BinarySvmModel:
    """Solve the dual on a precomputed kernel matrix, every item boxed by
    ``c_reg``. Raises ConvergenceError if the violation gap has not closed
    after the iteration cap.

    ``alpha0`` starts the solver from a feasible alpha, e.g. the ``abs(dual_coef)``
    of an earlier solve on the same labels and ``c_reg``; None starts from 0.
    """
    kernel = np.asarray(gram, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValidationError(f"kernel matrix must be square, got {kernel.shape}")
    if not np.isfinite(kernel).all():
        raise ValidationError("kernel matrix must be finite")
    y = check_binary_labels(y)
    n = y.size
    if kernel.shape[0] != n:
        raise ValidationError(f"kernel size {kernel.shape[0]} != label count {n}")
    SvmSection(c_reg, tol)
    c = float(c_reg)
    if max_iter is None:
        max_iter = 100_000 + 200 * n

    start = np.zeros(n) if alpha0 is None else _check_start(alpha0, y, c)

    signs = np.stack([-y, y])
    q = np.outer(y, y) * kernel
    # steps[i] is column i of Q times each row's sign
    steps = np.ascontiguousarray(signs * q.T[:, None, :])
    # -y g and y g, g the gradient of the minimization form 1/2 aQa - sum a;
    # at a = 0 this is exactly -signs
    signed = signs * (q @ start - 1.0)
    alpha = start.tolist()
    labels = y.tolist()
    positive = (y > 0).tolist()
    diag = kernel.diagonal().tolist()
    # row 0: items whose alpha_i y_i may still grow; row 1: may still shrink
    movable = np.where(y > 0, [start < c, start > 0.0], [start > 0.0, start < c])
    scores = np.full((2, n), -np.inf)

    for iterations in range(max_iter + 1):
        np.copyto(scores, signed, where=movable)
        i, j = scores.argmax(axis=1).tolist()
        top, bottom = scores.item(0, i), -scores.item(1, j)
        if top - bottom <= tol:
            break
        if iterations == max_iter:
            raise ConvergenceError(
                f"SMO did not converge in {max_iter} iterations "
                f"(n={n}, tol={tol}, violation gap={top - bottom:.3e})"
            )

        old_i, old_j = alpha[i], alpha[j]
        s = labels[i] * labels[j]
        line = old_i + s * old_j
        quad = diag[i] + diag[j] - 2.0 * kernel.item(i, j)
        step = labels[i] * (top - bottom) / (quad if quad > 0.0 else 1e-12)
        ai, aj = old_i + step, old_j - s * step
        if not 0.0 <= ai <= c:
            ai = c if ai > c else 0.0
            aj = s * (line - ai)
        if not 0.0 <= aj <= c:
            aj = c if aj > c else 0.0
            ai = line - s * aj
        alpha[i], alpha[j] = ai, aj
        signed += steps[i] * (ai - old_i) + steps[j] * (aj - old_j)
        for k, a in ((i, ai), (j, aj)):
            grows, shrinks = (a < c, a > 0.0) if positive[k] else (a > 0.0, a < c)
            movable[0, k], movable[1, k] = grows, shrinks
            if not grows:
                scores[0, k] = -np.inf
            if not shrinks:
                scores[1, k] = -np.inf

    alpha = np.array(alpha, dtype=np.float64)
    # f(x_i) = sum_j a_j y_j K_ij + b and grad_i = y_i f0(x_i) - 1, so a free
    # vector gives b = -y_i * grad_i, averaged for stability; with none free,
    # b is the midpoint of the last step's bounds (0 for an empty side)
    free = (alpha > 1e-12) & (alpha < c - 1e-12)
    if free.any():
        bias = float(np.mean(signed[0][free]))
    else:
        bias = ((top if top > -np.inf else 0.0) + (bottom if bottom < np.inf else 0.0)) / 2.0
    dual_coef = alpha * y
    return BinarySvmModel(dual_coef, bias, c_reg, iterations=iterations,
                          objective=float(alpha.sum() - 0.5 * dual_coef @ kernel @ dual_coef))


def decision_many(model: BinarySvmModel, k_rows) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + b for each (n, L) query row."""
    k_rows = np.asarray(k_rows, dtype=np.float64)
    if k_rows.ndim != 2 or k_rows.shape[1] != model.dual_coef.size:
        raise ValidationError(f"an SVM of {model.dual_coef.size} coefficients cannot score "
                              f"kernel rows of shape {k_rows.shape}")
    return k_rows @ model.dual_coef + model.bias
