import numpy as np
import pytest
from oracles import matrix_exp

from egoact.errors import ConvergenceError, DomainError, ValidationError
from egoact.linalg import check_symmetric, matrix_log


def random_spd(rng, n=12, cond_spread=2.0):
    basis = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(basis)
    evals = np.exp(rng.uniform(-cond_spread, cond_spread, size=n))
    return (q * evals) @ q.T


def test_log_of_identity_is_zero():
    assert np.allclose(matrix_log(np.eye(5)), 0.0, atol=1e-14)


def test_log_of_exponential_diagonal():
    diag = np.diag(np.exp(np.arange(1.0, 5.0)))
    assert np.allclose(matrix_log(diag), np.diag(np.arange(1.0, 5.0)), atol=1e-12)


def test_exp_log_round_trip_random_spd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        spd = random_spd(rng)
        back = matrix_exp(matrix_log(spd))
        rel = np.linalg.norm(back - spd) / np.linalg.norm(spd)
        assert rel <= 1e-8


def test_log_exp_identity_on_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sym = rng.uniform(-1, 1, size=(12, 12))
        sym = (sym + sym.T) / 2.0
        evals = np.linalg.eigvalsh(sym)
        sym *= 3.0 / max(np.abs(evals).max(), 1e-9)   # spectrum within [-3, 3]
        back = matrix_log(matrix_exp(sym))
        assert np.linalg.norm(back - sym) / max(np.linalg.norm(sym), 1e-12) <= 1e-8


def test_rejects_asymmetric_input():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        matrix_log(bad)
    with pytest.raises(ValidationError):
        check_symmetric(np.zeros((2, 3)))


def test_rejects_non_positive_spectrum():
    with pytest.raises(DomainError):
        matrix_log(np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        matrix_log(np.diag([1.0, -2.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_input(value):
    bad = np.eye(3)
    bad[1, 2] = bad[2, 1] = value
    with pytest.raises(ValidationError, match="finite"):
        matrix_log(bad)


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        matrix_log(np.eye(3))


def test_log_matches_lapack_spectrum():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        spd = random_spd(rng, n=n)
        log = matrix_log(spd)
        assert np.array_equal(log, log.T)
        assert np.allclose(np.linalg.eigvalsh(log), np.log(np.linalg.eigvalsh(spd)), atol=1e-10)
