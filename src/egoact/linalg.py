"""Matrix logarithm and exponential of symmetric matrices.

Both maps take the eigenpairs ``(w, V)`` from LAPACK's symmetric solver
(``np.linalg.eigh``), apply the scalar function to ``w`` and rebuild
``(V * f(w)) @ V.T``, averaged with its transpose so the result is exactly
symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

SYMMETRY_RTOL = 1e-9


def check_symmetric(a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return ``a`` as float64 after verifying it is square, finite and symmetric."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    scale = np.linalg.norm(a)
    if scale > 0.0 and np.linalg.norm(a - a.T) > rtol * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return a


def _eigh(a: np.ndarray):
    """Ascending eigenvalues and matching eigenvector columns of a checked matrix."""
    a = check_symmetric(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigendecomposition failed ({exc})") from exc


def _rebuild(mapped_evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    mapped = (vecs * mapped_evals) @ vecs.T
    return (mapped + mapped.T) / 2.0


def matrix_log(c: np.ndarray) -> np.ndarray:
    """Principal logarithm of a symmetric positive-definite matrix.

    Raises ``ValidationError`` on asymmetric or non-finite input and
    ``DomainError`` when the smallest eigenvalue is not strictly positive.
    """
    evals, vecs = _eigh(c)
    if evals[0] <= 0.0:
        raise DomainError(
            f"matrix logarithm needs a positive spectrum, min eigenvalue {evals[0]:.3e}"
        )
    return _rebuild(np.log(evals), vecs)


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric matrix via the same eigendecomposition."""
    evals, vecs = _eigh(a)
    return _rebuild(np.exp(evals), vecs)
