import numpy as np
import pytest

from egoact.errors import ValidationError
from egoact.kernels import GAUSSIAN, KernelSpec, combine, gram_matrix
from egoact.config import MklSection
from egoact.mkl import MklModel, mkl_predict_many, simple_mkl_train
from egoact.svm import SvmSection, decision_many, ova_predict_scores, ova_train, smo_train


def informative_and_noise_bank(seed=7, n=48, sigma=8.0):
    """One label-aligned feature plus two pure-noise features, one Gaussian
    kernel per feature block. Frozen for the feature-selection check."""
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    informative = y[:, None] * 2.0 + 0.3 * rng.normal(size=(n, 1))
    noise_a = rng.normal(size=(n, 1))
    noise_b = rng.normal(size=(n, 1))
    full = np.hstack([informative, noise_a, noise_b])
    specs = [KernelSpec(GAUSSIAN, sigma=sigma, block=(k, 1), label=f"g{k}") for k in range(3)]
    return np.stack([gram_matrix(full, s) for s in specs]), y


def single_kernel_bank(seed=0, n=20):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    points = rng.normal(size=(n, 2)) + y[:, None]
    spec = KernelSpec(GAUSSIAN, sigma=2.0)
    return gram_matrix(points, spec)[None], y, points


def test_single_kernel_bank_reduces_to_plain_svm():
    bank, y, _ = single_kernel_bank()
    model = simple_mkl_train(bank, y, 5.0)
    plain = smo_train(bank[0], y, 5.0, tol=1e-3)
    assert np.array_equal(model.weights, [1.0])
    assert np.array_equal(model.svm.dual_coef, plain.dual_coef)
    assert model.svm.bias == plain.bias
    assert model.converged


def test_identical_kernels_keep_single_kernel_objective():
    bank, y, _ = single_kernel_bank(seed=3)
    twin = bank[[0, 0]]
    model = simple_mkl_train(twin, y, 5.0)
    single = simple_mkl_train(bank, y, 5.0)
    assert abs(model.svm.objective - single.svm.objective) <= 1e-9
    assert abs(model.weights.sum() - 1.0) <= 1e-9


def test_informative_kernel_wins():
    bank, y = informative_and_noise_bank()
    # construction sanity: the informative kernel trains well alone, the
    # noise kernels do not
    accuracies = []
    for gram in bank:
        plain = smo_train(gram, y, 1.0)
        accuracies.append(float(((decision_many(plain, gram) >= 0) == (y > 0)).mean()))
    assert accuracies[0] >= 0.95
    assert max(accuracies[1:]) <= 0.60

    model = simple_mkl_train(bank, y, 1.0)
    assert model.weights[0] >= 0.7
    assert model.weights.min() >= -1e-9
    assert abs(model.weights.sum() - 1.0) <= 1e-9
    # learned weight ranking matches the single-kernel accuracy ranking
    assert np.argmax(model.weights) == np.argmax(accuracies)
    history = model.objective_history
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_stored_svm_meets_the_stop_rule_at_the_stored_weights(m):
    bank, y = informative_and_noise_bank(seed=13, n=32)
    bank = bank[:m]
    model = simple_mkl_train(bank, y, 1.0)
    # the line search starts each trial SVM from the current solution, so the
    # stored SVM must be a solution of the stored weights, not of a trial's
    again = smo_train(combine(bank, model.weights), y, 1.0, tol=SvmSection.tol,
                      alpha0=np.abs(model.svm.dual_coef))
    assert again.iterations == 0
    history = model.objective_history
    assert len(history) >= 2
    for before, after in zip(history, history[1:]):
        assert after < before


def test_predict_one_hot_weights_match_single_kernel():
    bank, y, points = single_kernel_bank(seed=5)
    other = KernelSpec(GAUSSIAN, sigma=0.5)
    two = np.stack([bank[0], gram_matrix(points, other)])
    svm_model = smo_train(bank[0], y, 5.0)
    model = MklModel([1.0, 0.0], svm_model, True)
    row0 = bank[0, 3:5]
    row1 = two[1, 3:5]
    assert np.array_equal(mkl_predict_many(model, np.stack([row0, row1])),
                          decision_many(svm_model, row0))


def test_score_linear_in_weights():
    bank, y, points = single_kernel_bank(seed=6)
    spec_b = KernelSpec(GAUSSIAN, sigma=0.7)
    bank2 = np.stack([bank[0], gram_matrix(points, spec_b)])
    svm_model = smo_train(bank[0], y, 5.0)
    rows = bank2[:, 4:6]
    w1 = np.array([0.8, 0.2])
    w2 = np.array([0.3, 0.7])
    mid = 0.5 * w1 + 0.5 * w2
    s1 = mkl_predict_many(MklModel(w1, svm_model, True), rows)
    s2 = mkl_predict_many(MklModel(w2, svm_model, True), rows)
    s_mid = mkl_predict_many(MklModel(mid, svm_model, True), rows)
    assert np.allclose(s_mid, 0.5 * s1 + 0.5 * s2, rtol=0, atol=1e-12)


def test_predict_matches_naive_resummation():
    bank, y = informative_and_noise_bank(seed=9, n=16)
    model = simple_mkl_train(bank, y, 1.0)
    rows = bank[:, 2]
    combined = sum(w * row for w, row in zip(model.weights, rows))
    manual = sum(c * k for c, k in zip(model.svm.dual_coef, combined)) + model.svm.bias
    assert mkl_predict_many(model, rows[:, None, :])[0] == pytest.approx(manual, abs=1e-12)


def test_predict_validates_shapes():
    bank, y, _ = single_kernel_bank(seed=8)
    model = simple_mkl_train(bank, y, 5.0)
    with pytest.raises(ValidationError):
        mkl_predict_many(model, np.zeros((2, len(y))))
    with pytest.raises(ValidationError):
        mkl_predict_many(model, np.zeros((2, 3, len(y))))


@pytest.mark.parametrize("c_reg, svm_tol", [(float("nan"), 1e-3), (1.0, float("nan")),
                                            (float("inf"), 1e-3), (1.0, 0.0)])
def test_non_finite_parameters_rejected(c_reg, svm_tol):
    bank, y, _ = single_kernel_bank()
    with pytest.raises(ValidationError):
        simple_mkl_train(bank, y, c_reg, svm_tol=svm_tol)


@pytest.mark.parametrize("reshape", [
    lambda bank: bank[0],                  # 2-D: one Gram, not a bank
    lambda bank: bank[:0],                 # no kernels
    lambda bank: bank[:, :-1, :-1],        # n differs from the label count
    lambda bank: bank[:, :, :-1],          # not square
    lambda bank: bank.astype(np.int64),    # not float
])
def test_bank_shape_rejected(reshape):
    bank, y = informative_and_noise_bank(seed=11, n=24)
    with pytest.raises(ValidationError, match="kernel bank"):
        simple_mkl_train(reshape(bank), y, 2.0)


def test_weights_stay_on_simplex():
    bank, y = informative_and_noise_bank(seed=11, n=24)
    model = simple_mkl_train(bank, y, 2.0)
    assert model.weights.min() >= -1e-9
    assert abs(model.weights.sum() - 1.0) <= 1e-9


def test_multiclass_single_kernel_mkl_equals_svm():
    rng = np.random.default_rng(12)
    centers = [np.zeros(2), np.array([4.0, 0.0]), np.array([0.0, 4.0])]
    points = np.vstack([c + 0.4 * rng.normal(size=(6, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 6)
    spec = KernelSpec(GAUSSIAN, sigma=2.0)
    gram = gram_matrix(points, spec)
    bank = gram[None]
    params = MklSection()

    ova_mkl = ova_train(labels, ["a", "b", "c"],
                        lambda y_pm, k: simple_mkl_train(bank, y_pm, 10.0, params, svm_tol=1e-3))
    ova_svm = ova_train(labels, ["a", "b", "c"],
                        lambda y_pm, k: smo_train(gram, y_pm, 10.0, tol=1e-3))
    rows = gram[None]
    mkl_scores = np.stack([mkl_predict_many(m, rows) for m in ova_mkl], axis=1)
    svm_scores = np.stack([decision_many(m, gram) for m in ova_svm], axis=1)
    assert np.array_equal(mkl_scores, svm_scores)
    assert np.array_equal(ova_predict_scores(mkl_scores), labels)
