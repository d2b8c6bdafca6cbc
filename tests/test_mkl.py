import numpy as np
import pytest

from egoact import mkl
from egoact.errors import ValidationError
from egoact.kernels import GAUSSIAN, KernelSpec, combine, gram_matrix
from egoact.config import MklSection, RunConfig
from egoact.mkl import MklModel, mkl_predict_many, simple_mkl_train
from egoact.modelio import fit
from egoact.svm import SvmSection, decision_many, smo_train
from oracles import (
    random_bank,
    reference_descent_direction,
    reference_simple_mkl,
    reference_weight_gradient,
    same_bits,
)


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
    # one feature block, so simple_mkl's bank is single_kernel's one kernel
    cfg = RunConfig().replace_section("kernels", kind=GAUSSIAN, gaussian_sigma=2.0)
    mkl_model, svm_model = (fit(method, points, labels, ["a", "b", "c"], [("hof", 0, 2)], cfg, 0, ())
                            for method in ("simple_mkl", "single_kernel"))
    queries = np.vstack([points, points + 0.5])
    assert np.array_equal(mkl_model.score_matrix(queries), svm_model.score_matrix(queries))
    assert np.array_equal(mkl_model.predict(points), labels)


def train_and_name_the_stop(bank, y, c_reg, params, monkeypatch):
    """The trained model and the rule that ended its walk, read from the SMO
    solves it made: a refused last solve is an exhausted line search, and a
    stored state whose direction vanishes is a zero reduced gradient."""
    solves = []

    def recorded(*args, **kwargs):
        solves.append(smo_train(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(mkl, "smo_train", recorded)
    model = simple_mkl_train(bank, y, c_reg, params)
    history = model.objective_history
    if not model.converged:
        return model, "max_outer"
    if solves[-1] is not model.svm:
        return model, "line_search"
    grad = reference_weight_gradient(bank, model.svm)
    if np.max(np.abs(reference_descent_direction(model.weights, grad))) <= 1e-14:
        return model, "zero_gradient"
    if history[-2] - history[-1] <= params.objective_tol * abs(history[-1]):
        return model, "objective_tol"
    return model, "weight_tol"


# (seed, M, n, c_reg, MklSection overrides, MAX_LINE_SEARCH, stop); a tolerance of
# 1e-300 cannot fire, so the other one is the rule that stops the walk
STOPS = [
    (0, 1, 8, 0.5, {}, 30, "zero_gradient"),
    (4, 1, 13, 10.0, {}, 1, "zero_gradient"),
    (6, 3, 27, 0.5, {}, 30, "zero_gradient"),   # after two steps, at a simplex vertex
    (15, 4, 21, 0.5, {}, 30, "line_search"),
    (7, 4, 11, 0.5, {}, 1, "line_search"),
    (2, 3, 22, 10.0, {}, 1, "line_search"),
    (1, 2, 15, 0.5, {"weight_tol": 0.05, "objective_tol": 1e-300}, 30, "weight_tol"),
    (7, 4, 11, 10.0, {"weight_tol": 0.3, "objective_tol": 1e-300}, 1, "weight_tol"),
    (1, 2, 15, 10.0, {"weight_tol": 1e-300, "objective_tol": 1e-3}, 30, "objective_tol"),
    (1, 2, 15, 0.5, {"weight_tol": 1e-300, "objective_tol": 1e-3}, 1, "objective_tol"),
    (2, 3, 22, 0.5, {"max_outer": 1}, 30, "max_outer"),
    (2, 3, 22, 0.5, {"max_outer": 2}, 30, "max_outer"),
    (7, 4, 11, 0.5, {"max_outer": 3}, 30, "max_outer"),
]


@pytest.mark.parametrize("seed, m, n, c_reg, overrides, line_search, stop", STOPS)
def test_each_stop_matches_the_reference_loop_bit_for_bit(seed, m, n, c_reg, overrides,
                                                          line_search, stop, monkeypatch):
    monkeypatch.setattr(mkl, "MAX_LINE_SEARCH", line_search)
    bank, y = random_bank(seed, m, n)
    params = MklSection(**overrides)
    model, seen = train_and_name_the_stop(bank, y, c_reg, params, monkeypatch)
    assert seen == stop
    assert same_bits(model, reference_simple_mkl(bank, y, c_reg, params))


@pytest.mark.parametrize("seed", range(16))
def test_random_banks_match_the_reference_loop_bit_for_bit(seed):
    m, n = 1 + seed % 4, 8 + (seed * 7) % 23
    bank, y = random_bank(100 + seed, m, n)
    params = MklSection(weight_tol=(1e-4, 1e-2)[seed % 2],
                        objective_tol=(1e-4, 1e-3)[seed // 2 % 2])
    c_reg = (0.5, 10.0)[seed // 4 % 2]
    assert same_bits(simple_mkl_train(bank, y, c_reg, params),
                     reference_simple_mkl(bank, y, c_reg, params))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_running_out_of_outer_steps_is_not_converged(k):
    bank, y = random_bank(2, 3, 22)   # the default tolerances stop it after four steps
    model = simple_mkl_train(bank, y, 0.5, MklSection(max_outer=k))
    assert model.converged is False
    assert len(model.objective_history) == k + 1


@pytest.mark.parametrize("rule, of, stops", [("weight_tol", None, False),
                                            ("objective_tol", 1, True), ("objective_tol", 0, False)])
def test_a_first_step_exactly_at_a_tolerance_matches_the_reference_loop(rule, of, stops):
    # the weight rule is strict; the decrease rule is inclusive and relative to
    # the new objective, so a tolerance met exactly against the old one walks on
    bank, y = random_bank(2, 3, 22)
    first = simple_mkl_train(bank, y, 0.5, MklSection(max_outer=1))
    before, after = first.objective_history
    if rule == "weight_tol":
        step = float(np.max(np.abs(first.weights - np.full(3, 1.0 / 3.0))))
        params = MklSection(weight_tol=step, objective_tol=1e-300)
    else:
        scale = abs(first.objective_history[of])
        tol = (before - after) / scale
        while tol * scale < before - after:
            tol = float(np.nextafter(tol, 1.0))
        assert tol * scale == before - after
        params = MklSection(weight_tol=1e-300, objective_tol=tol)
    model = simple_mkl_train(bank, y, 0.5, params)
    assert (len(model.objective_history) == 2) == stops
    assert same_bits(model, reference_simple_mkl(bank, y, 0.5, params))


@pytest.mark.parametrize("seed, steps", [(0, 1), (1, 0)])
def test_a_reduced_gradient_above_1e_14_takes_a_step(seed, steps):
    # two kernels 1e-13 apart in scale: a reduced gradient of 1.5e-13 (seed 0)
    # moves the weights, one of 6e-15 (seed 1) is zero
    bank, y = random_bank(seed, 1, 20)
    twin = np.stack([bank[0], bank[0] * (1.0 + 1e-13)])
    model = simple_mkl_train(twin, y, 0.5)
    assert len(model.objective_history) == 1 + steps
    assert same_bits(model, reference_simple_mkl(twin, y, 0.5))
