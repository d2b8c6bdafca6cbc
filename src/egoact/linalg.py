"""Matrix logarithm of symmetric positive-definite matrices.

``matrix_log`` takes the eigenpairs ``(w, V)`` from LAPACK's symmetric
solver (``np.linalg.eigh``), maps ``w`` to ``log(w)`` and rebuilds
``(V * log(w)) @ V.T``, averaged with its transpose so the result is
exactly symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

SYMMETRY_RTOL = 1e-9


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as float64 after verifying it is square, finite and symmetric."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    scale = np.linalg.norm(a)
    if scale > 0.0 and np.linalg.norm(a - a.T) > SYMMETRY_RTOL * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return a


def matrix_log(c: np.ndarray) -> np.ndarray:
    """Principal logarithm of a symmetric positive-definite matrix.

    Raises ``ValidationError`` on asymmetric or non-finite input and
    ``DomainError`` when the smallest eigenvalue is not strictly positive.
    """
    c = check_symmetric(c)
    try:
        evals, vecs = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigendecomposition failed ({exc})") from exc
    if evals[0] <= 0.0:
        raise DomainError(
            f"matrix logarithm needs a positive spectrum, min eigenvalue {evals[0]:.3e}"
        )
    mapped = (vecs * np.log(evals)) @ vecs.T
    return (mapped + mapped.T) / 2.0
