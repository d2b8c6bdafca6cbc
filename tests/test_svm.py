import numpy as np
import pytest

from egoact.config import RunConfig
from egoact.errors import ConvergenceError, ValidationError
from egoact.kernels import GAUSSIAN, H_INT, KernelSpec, gram_matrix, trace_normalize
from egoact.modelio import TrainedModel, fit
from egoact.svm import BinarySvmModel, SvmSection, decision_many, smo_train
from oracles import (
    kkt_residuals,
    predict_labels,
    random_svm_problem,
    reference_smo,
    svm_dual_oracle,
    svm_dual_value,
    violation_gap,
)


def test_symmetric_pair():
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])  # 1-d points at +1 and -1
    y = np.array([1.0, -1.0])
    model = smo_train(gram, y, c_reg=100.0, tol=1e-9)
    assert np.allclose(model.dual_coef, [0.5, -0.5], atol=1e-9)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    # the midpoint (the origin) sits exactly on the boundary
    assert decision_many(model, np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-9)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        kernel, y, c_reg = random_svm_problem(rng)
        model = smo_train(kernel, y, c_reg, tol=1e-7)
        oracle_alpha = svm_dual_oracle(kernel, y, np.full(y.size, c_reg))
        gap = abs(model.objective - svm_dual_value(oracle_alpha, y, kernel))
        assert gap <= 1e-6
        assert kkt_residuals(model, kernel, y).max() <= 1e-3


def test_duplicating_points_keeps_decision_function():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(6, 2))
    y = np.where(points[:, 0] + 0.2 * rng.normal(size=6) > 0, 1.0, -1.0)
    if abs(y.sum()) == 6:
        y[0] = -y[0]
    queries = rng.normal(size=(5, 2))
    model = smo_train(points @ points.T, y, 5.0, tol=1e-9)
    doubled = np.vstack([points, points])
    model2 = smo_train(doubled @ doubled.T, np.concatenate([y, y]), 5.0, tol=1e-9)
    base = decision_many(model, queries @ points.T)
    again = decision_many(model2, queries @ doubled.T)
    assert np.abs(base - again).max() <= 1e-6


def test_decision_with_zero_alphas_is_bias():
    model = BinarySvmModel(np.zeros(3), bias=0.25, c_reg=1.0)
    assert np.array_equal(decision_many(model, np.array([[5.0, 6.0, 7.0], [1.0, 0.0, 2.0]])),
                          [0.25, 0.25])


def test_free_support_vectors_sit_on_margin():
    rng = np.random.default_rng(3)
    kernel, y, _ = random_svm_problem(rng, max_size=8)
    tol = 1e-6
    model = smo_train(kernel, y, c_reg=1.0, tol=tol)
    scores = decision_many(model, kernel)
    alpha = np.abs(model.dual_coef)
    free = (alpha > 1e-9) & (alpha < model.c_reg - 1e-9)
    assert free.any()
    assert np.abs(scores[free] - y[free]).max() <= tol * 10


def test_decision_matches_naive_resummation():
    rng = np.random.default_rng(4)
    kernel, y, c_reg = random_svm_problem(rng)
    model = smo_train(kernel, y, c_reg)
    scores = decision_many(model, kernel)
    for row, score in zip(kernel, scores):
        manual = sum(c * k for c, k in zip(model.dual_coef, row))
        assert score == pytest.approx(manual + model.bias, abs=1e-12)


def test_equality_constraint_and_box():
    rng = np.random.default_rng(5)
    for _ in range(10):
        kernel, y, c_reg = random_svm_problem(rng)
        model = smo_train(kernel, y, c_reg)
        alpha = model.dual_coef * y    # y_i * y_i = 1
        assert abs(float(model.dual_coef.sum())) <= 1e-8
        assert alpha.min() >= 0.0
        assert (alpha <= model.c_reg + 1e-12).all()


def test_objective_is_monotone():
    rng = np.random.default_rng(6)
    kernel, y, c_reg = random_svm_problem(rng)
    model = smo_train(kernel, y, c_reg, tol=1e-8)
    alpha, _, _, _, history = reference_smo(kernel, y, c_reg, tol=1e-8)
    assert model.dual_coef.tobytes() == (alpha * y).tobytes()
    assert len(history) >= 2
    for before, after in zip(history, history[1:]):
        assert after >= before - 1e-12


def intersection_problem(seed, n=96, dim=48):
    """A trace-normalized histogram-intersection Gram matrix with both labels."""
    rng = np.random.default_rng(seed)
    hist = rng.random((n, dim))
    hist /= hist.sum(axis=1, keepdims=True)
    gram, _ = trace_normalize(gram_matrix(hist, KernelSpec(H_INT)))
    y = np.where(rng.random(n) < 0.3, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return gram, y, rng


def smo_cases():
    for seed, c_reg in ((0, 1.0), (1, 10.0), (2, 100.0)):
        kernel, y, _ = intersection_problem(seed)
        yield pytest.param(kernel, y, c_reg, {}, id=f"intersection-C{c_reg:g}")
    kernel, y, _ = intersection_problem(3)
    yield pytest.param(kernel, y, 10, {}, id="integer-C")            # as a JSON config gives it
    kernel, y, rng = intersection_problem(4)
    idx = rng.integers(0, y.size, y.size)                        # a boosting-style multiset
    yield pytest.param(kernel[np.ix_(idx, idx)], y[idx], 10.0, {}, id="resampled-multiset")
    yield pytest.param(np.array([[1.0, 0.25], [0.25, 0.5]]), np.array([1.0, -1.0]), 1.0, {},
                       id="two-items")
    kernel, y, rng = intersection_problem(5, n=40)
    yield pytest.param(kernel + 0.01 * rng.random(kernel.shape), y, 10.0, {"tol": 1e-5},
                       id="asymmetric")


@pytest.mark.parametrize("kernel, y, c_reg, kwargs", smo_cases())
def test_smo_matches_reference_bytes(kernel, y, c_reg, kwargs):
    model = smo_train(kernel, y, c_reg, **kwargs)
    alpha, bias, iterations, objective, _ = reference_smo(kernel, y, c_reg, **kwargs)
    assert iterations > 0
    assert model.dual_coef.tobytes() == (alpha * y).tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
    assert model.iterations == iterations
    assert np.float64(model.objective).tobytes() == np.float64(objective).tobytes()


def test_smo_cut_off_reports_the_reference_gap():
    kernel, y, _ = intersection_problem(1)
    with pytest.raises(RuntimeError) as reference:
        reference_smo(kernel, y, 100.0, max_iter=25)
    with pytest.raises(ConvergenceError) as package:
        smo_train(kernel, y, 100.0, max_iter=25)
    assert str(reference.value) in str(package.value)


DEGENERATE_KINDS = ("linear", "gaussian", "intersection", "repeated-rows")
# the trials where a step ends a last bit apart from the reference's two
# label cases: a_i and a_j within rounding of each other both cross C
CORNER_TRIALS = (2255, 2852, 4151, 5404)


def degenerate_problems():
    """6,000 seeded small problems; trial t's kernel is DEGENERATE_KINDS[t % 4],
    the last on rounded points whose first third are one point repeated."""
    rng = np.random.default_rng(1)
    for trial in range(6000):
        n, d = int(rng.integers(4, 40)), int(rng.integers(1, 8))
        x = rng.standard_normal((n, d))
        kind = DEGENERATE_KINDS[trial % 4]
        width = rng.uniform(0.1, 5.0) if kind == "gaussian" else None
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = (1.0, -1.0)
        c_reg = float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))
        tol = float(rng.choice([1e-3, 1e-5]))
        yield trial, kind, x, width, y, c_reg, tol


def degenerate_kernel(kind, x, width):
    if kind == "linear":
        return x @ x.T
    if kind == "gaussian":
        return _gaussian_gram(x, x, width)
    if kind == "intersection":
        return np.minimum(abs(x)[:, None, :], abs(x)[None, :, :]).sum(-1)
    x = np.round(x)
    x[:len(x) // 3] = x[0]
    return x @ x.T


@pytest.mark.parametrize("kind", DEGENERATE_KINDS)
def test_smo_stays_in_the_box_on_degenerate_problems(kind):
    solved = corners = 0
    for trial, drawn, x, width, y, c_reg, tol in degenerate_problems():
        # every 10th trial of each kind, and the corner trials
        if drawn != kind or (trial // 4 % 10 and trial not in CORNER_TRIALS):
            continue
        kernel = degenerate_kernel(kind, x, width)
        try:
            model = smo_train(kernel, y, c_reg, tol=tol, max_iter=20_000)
        except ConvergenceError:
            continue
        alpha = model.dual_coef * y
        assert alpha.min() >= 0.0 and alpha.max() <= c_reg, trial
        assert abs(float(model.dual_coef.sum())) <= 1e-12 * c_reg * y.size, trial
        assert violation_gap(kernel, y, alpha, c_reg) <= tol, trial
        objective = reference_smo(kernel, y, c_reg, tol=tol, max_iter=20_000)[3]
        assert model.objective == pytest.approx(objective, rel=1e-9, abs=0), trial
        solved += 1
        corners += trial in CORNER_TRIALS
    assert solved >= 130
    assert corners == sum(DEGENERATE_KINDS[t % 4] == kind for t in CORNER_TRIALS)


@pytest.mark.parametrize("seed, c_reg", [(0, 1.0), (1, 10.0), (2, 100.0), (3, 10)])
def test_restart_from_own_solution_stops_at_once(seed, c_reg):
    kernel, y, _ = intersection_problem(seed)
    model = smo_train(kernel, y, c_reg)
    again = smo_train(kernel, y, c_reg, alpha0=np.abs(model.dual_coef))
    assert again.iterations == 0
    assert again.dual_coef.tobytes() == model.dual_coef.tobytes()
    # the start's gradient is computed afresh, not summed step by step, so
    # the bias, a mean of gradient entries, can move in its last bits
    assert again.bias == pytest.approx(model.bias, rel=0, abs=1e-12)
    assert again.objective == model.objective


@pytest.mark.parametrize("seed, c_reg", [(0, 1.0), (1, 10.0), (2, 100.0)])
def test_warm_start_from_another_kernel_closes_the_gap(seed, c_reg):
    kernel, y, _ = intersection_problem(seed)
    other, _, _ = intersection_problem(seed + 10)     # another kernel, the same y and C
    start = np.abs(smo_train(other, y, c_reg).dual_coef)
    tol = SvmSection.tol
    assert violation_gap(kernel, y, start, c_reg) > tol
    warm = smo_train(kernel, y, c_reg, alpha0=start)
    cold = smo_train(kernel, y, c_reg)
    assert 0 < warm.iterations
    assert violation_gap(kernel, y, np.abs(warm.dual_coef), c_reg) <= tol + 1e-9
    assert abs(warm.objective - cold.objective) <= tol * y.size
    assert abs(float(warm.dual_coef.sum())) <= 1e-8


@pytest.mark.parametrize("start, message", [
    pytest.param([0.5, 0.5], "a start of shape (2,) cannot start 3 items", id="length"),
    pytest.param([np.nan, 0.0, 0.0], "start must be finite", id="nan"),
    pytest.param([-0.5, 0.0, 0.5], "start must lie in [0, 1.0]", id="below-box"),
    pytest.param([2.0, 2.0, 0.0], "start must lie in [0, 1.0]", id="above-box"),
    pytest.param([0.5, 0.0, 0.0], "start must satisfy sum(alpha_i y_i) = 0", id="unbalanced"),
])
def test_infeasible_start_refused(start, message):
    with pytest.raises(ValidationError) as refused:
        smo_train(np.eye(3), np.array([1.0, -1.0, 1.0]), 1.0, alpha0=np.array(start))
    assert message in str(refused.value)
    assert "\n" not in str(refused.value)


@pytest.mark.parametrize("kwargs", [
    {"c_reg": float("nan")}, {"c_reg": float("inf")}, {"c_reg": True}, {"c_reg": "1"},
    {"c_reg": 1.0, "tol": float("nan")}, {"c_reg": 1.0, "tol": 0.0},
])
def test_non_finite_parameters_rejected(kwargs):
    with pytest.raises(ValidationError):
        smo_train(np.eye(3), np.array([1.0, -1.0, 1.0]), **kwargs)


def test_non_finite_kernel_rejected():
    kernel = np.eye(3)
    kernel[0, 2] = np.nan
    with pytest.raises(ValidationError):
        smo_train(kernel, np.array([1.0, -1.0, 1.0]), 1.0)


def test_validation_errors():
    gram = np.eye(3)
    with pytest.raises(ValidationError):
        smo_train(gram, np.array([1.0, 1.0, 1.0]), 1.0)     # single class
    with pytest.raises(ValidationError):
        smo_train(gram, np.array([1.0, -1.0]), 1.0)         # size mismatch
    with pytest.raises(ValidationError):
        smo_train(gram, np.array([1.0, -1.0, 0.5]), 1.0)    # bad label value
    with pytest.raises(ValidationError):
        smo_train(gram, np.array([1.0, -1.0, 1.0]), 0.0)    # bad C
    model = smo_train(gram, np.array([1.0, -1.0, 1.0]), 1.0)
    with pytest.raises(ValidationError):
        decision_many(model, np.zeros((1, 4)))


def test_predict_label_zero_goes_positive():
    assert predict_labels([0.0, -1e-12]).tolist() == [1, -1]


def _clusters(rng, centers, per=8, spread=0.3):
    points, labels = [], []
    for k, center in enumerate(centers):
        points.append(center + spread * rng.normal(size=(per, 2)))
        labels += [k] * per
    return np.vstack(points), np.array(labels)


def _gaussian_gram(a, b, sigma=1.0):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return np.exp(-d2 / (2 * sigma * sigma))


def _fit(points, labels, classes):
    """A single_kernel one-vs-all model of the points under a unit-width Gaussian kernel."""
    cfg = RunConfig().replace_section("kernels", kind=GAUSSIAN, gaussian_sigma=1.0)
    return fit("single_kernel", points, labels, classes, [("hof", 0, 2)], cfg, 0, ())


def test_ova_two_class_agrees_with_binary_sign():
    rng = np.random.default_rng(9)
    points, labels = _clusters(rng, [np.array([0.0, 0.0]), np.array([3.0, 0.0])])
    model = _fit(points, labels, ["a", "b"])
    predicted = model.predict(points)
    assert np.array_equal(predicted, labels)
    gram = _gaussian_gram(points, points)
    binary = smo_train(gram, np.where(labels == 0, 1.0, -1.0), 10.0)
    assert np.array_equal(predicted == 0, decision_many(binary, gram) >= 0)


def test_ova_three_separated_clusters():
    rng = np.random.default_rng(10)
    centers = [np.array([0.0, 0.0]), np.array([5.0, 0.0]), np.array([0.0, 5.0])]
    points, labels = _clusters(rng, centers)
    model = _fit(points, labels, ["a", "b", "c"])
    assert np.array_equal(model.predict(points), labels)
    assert np.array_equal(model.predict(points + 0.1), labels)   # and points it did not train on


def test_ova_tie_breaks_to_lowest_class():
    # zero coefficients score every vector with the bias, the same for each class
    tied = BinarySvmModel(np.zeros(2), bias=0.5, c_reg=10.0)
    model = TrainedModel("single_kernel", ["a", "b", "c", "d"], [KernelSpec(GAUSSIAN, sigma=1.0)],
                         [1.0], np.eye(2), [tied] * 4)
    assert np.array_equal(model.predict(np.arange(6.0).reshape(3, 2)), np.zeros(3, dtype=np.int64))


def test_ova_requires_every_class():
    # class "c" has no item, and a lone class has no rest: either way one binary
    # problem holds one class, which the binary label rule refuses
    points = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
    with pytest.raises(ValidationError, match="training data must contain both classes"):
        _fit(points, np.array([0, 0, 1, 1]), ["a", "b", "c"])
    with pytest.raises(ValidationError, match="training data must contain both classes"):
        _fit(points, np.zeros(4, dtype=np.int64), ["a"])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: smo_train(np.eye(2), np.array([[1.0, -1.0]]), 1.0), "labels must be a flat vector",
                 id="labels_2d"),
    pytest.param(lambda: smo_train(np.ones((2, 3)), np.array([1.0, -1.0]), 1.0),
                 "kernel matrix must be square, got (2, 3)", id="kernel_not_square"),
])
def test_svm_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert message in str(refused.value)
