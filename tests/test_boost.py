import numpy as np
import pytest

from egoact import boost
from egoact.boost import (
    BoostedModel,
    WeakClassifier,
    boost_predict_many,
    boost_train,
    resample,
    reweight_probabilities,
)
from egoact.dataio import to_doc
from egoact.errors import ConfigError, ValidationError
from egoact.kernels import GAUSSIAN, H_INT, KernelSpec, gram_matrix
from egoact.mkl import simple_mkl_train
from egoact.svm import BinarySvmModel
from oracles import (
    predict_labels,
    random_bank,
    reference_boost_train,
    same_bits,
    training_error_bound,
)


def test_resample_degenerate_distribution():
    p = np.zeros(6)
    p[4] = 1.0
    draws = resample(p, 50, seed=1)
    assert np.array_equal(draws, np.full(50, 4))


def test_resample_uniform_frequencies():
    n = 100_000
    k = 5
    draws = resample(np.full(k, 1.0 / k), n, seed=12345)
    p = 1.0 / k
    bound = 3.0 * np.sqrt(p * (1 - p) / n)
    freqs = np.bincount(draws, minlength=k) / n
    assert np.abs(freqs - p).max() <= bound


def test_resample_deterministic():
    p = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(resample(p, 100, seed=7), resample(p, 100, seed=7))


def test_resample_validates():
    with pytest.raises(ValidationError):
        resample(np.array([0.5, 0.6]), 3, seed=0)
    with pytest.raises(ValidationError):
        resample(np.array([-0.1, 1.1]), 3, seed=0)
    with pytest.raises(ValidationError):
        resample(np.array([1.0]), 0, seed=0)


def test_reweight_raises_mistake_mass():
    p = np.full(4, 0.25)
    correct = np.array([True, True, True, False])
    weight = 0.8
    updated = reweight_probabilities(p, correct, weight)
    assert abs(updated.sum() - 1.0) <= 1e-12
    # per-item mistake/hit mass ratio grows by exactly e^(2w)
    ratio_before = p[3] / p[0]
    ratio_after = updated[3] / updated[0]
    assert ratio_after / ratio_before == pytest.approx(np.exp(2 * weight), rel=1e-12)
    assert updated[3] > p[3]


def separable_bank(seed=0, n=24):
    """Kernel 0 separates the labels perfectly; kernel 1 is noise."""
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    good = y[:, None] * 2.0 + 0.2 * rng.normal(size=(n, 1))
    noise = rng.normal(size=(n, 1))
    full = np.hstack([good, noise])
    specs = [KernelSpec(GAUSSIAN, sigma=4.0, block=(0, 1)),
             KernelSpec(GAUSSIAN, sigma=4.0, block=(1, 1))]
    return np.stack([gram_matrix(full, s) for s in specs]), y


def test_single_trial_is_best_weak_classifier():
    bank, y = separable_bank()
    model = boost_train(bank, y, trials=1, c_reg=10.0, seed=3)
    assert len(model.trials) == 1
    trial = model.trials[0]
    scores = boost_predict_many(model, bank)
    weak_scores = bank[trial.kernel_index][:, trial.train_indices] @ trial.svm.dual_coef + trial.svm.bias
    assert np.array_equal(predict_labels(scores), predict_labels(weak_scores))


def test_separable_data_selects_good_kernel_and_clamps_error():
    bank, y = separable_bank(seed=5)
    model = boost_train(bank, y, trials=3, c_reg=10.0, seed=11)
    first = model.trials[0]
    assert first.kernel_index == 0
    assert first.error == pytest.approx(1e-10)
    assert first.weight == pytest.approx(0.5 * np.log((1 - 1e-10) / 1e-10))


def test_training_error_bound_holds():
    rng = np.random.default_rng(9)
    n = 30
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    # weakly informative features make nonzero trial errors likely
    points = np.hstack([y[:, None] * 0.5 + rng.normal(size=(n, 1)),
                        rng.normal(size=(n, 1))])
    specs = [KernelSpec(GAUSSIAN, sigma=2.0, block=(0, 1)),
             KernelSpec(GAUSSIAN, sigma=2.0, block=(1, 1))]
    bank = np.stack([gram_matrix(points, s) for s in specs])
    model = boost_train(bank, y, trials=8, c_reg=1.0, seed=2)
    scores = boost_predict_many(model, bank)
    training_error = float((predict_labels(scores) != y).mean())
    assert training_error <= training_error_bound(model) + 1e-12


def test_training_error_reaches_zero_and_is_monotone_in_trials():
    bank, y = separable_bank(seed=8)
    errors = []
    for trials in (1, 2, 4, 6):
        model = boost_train(bank, y, trials=trials, c_reg=10.0, seed=21)
        scores = boost_predict_many(model, bank)
        errors.append(float((predict_labels(scores) != y).mean()))
    assert errors[-1] == 0.0
    for before, after in zip(errors, errors[1:]):
        assert after <= before + 1e-12


def test_boost_train_is_bit_deterministic():
    bank, y = separable_bank(seed=13)
    a = boost_train(bank, y, trials=4, c_reg=10.0, seed=99)
    b = boost_train(bank, y, trials=4, c_reg=10.0, seed=99)
    assert to_doc(a) == to_doc(b)
    c = boost_train(bank, y, trials=4, c_reg=10.0, seed=100)
    assert to_doc(c) != to_doc(a)


@pytest.mark.parametrize("seed", range(16))
def test_random_banks_match_the_reference_trials_bit_for_bit(seed):
    m, n = 1 + seed % 4, 8 + (seed * 7) % 23
    bank, y = random_bank(200 + seed, m, n)
    trials, c_reg = 1 + seed % 10, (0.5, 10.0)[seed // 4 % 2]
    assert same_bits(boost_train(bank, y, trials, c_reg, seed),
                     reference_boost_train(bank, y, trials, c_reg, seed))


@pytest.mark.parametrize("seed, kept", [(0, 3), (2, 5), (3, 1), (5, 2), (10, 6), (1, 0), (6, 0)])
def test_early_stops_match_the_reference_trials_bit_for_bit(seed, kept, monkeypatch):
    # one positive item: once a trial gets it right, its probability falls and
    # most draws hold only the negative class, so a single redraw runs out
    monkeypatch.setattr(boost, "MAX_REDRAWS", 1)
    m, n = 1 + seed % 4, 8 + (seed * 7) % 23
    bank, _ = random_bank(seed, m, n)
    y = -np.ones(n)
    y[seed % n] = 1.0
    if not kept:
        # the single redraw held only the negative class, so no weak SVM was trained
        with pytest.raises(ValidationError) as package:
            boost_train(bank, y, 10, 10.0, seed)
        with pytest.raises(ValidationError, match="no boosting trial beat 0.5"):
            reference_boost_train(bank, y, 10, 10.0, seed)
        assert str(package.value) == ("no boosting trial beat 0.5 weighted error after 1 redraws, "
                                      f"1 of which held one class and trained no SVM (n={n}, kernels={m})")
        return
    model = boost_train(bank, y, 10, 10.0, seed)
    assert len(model.trials) == kept
    assert same_bits(model, reference_boost_train(bank, y, 10, 10.0, seed))


def test_a_run_with_no_kept_trial_counts_its_one_class_draws(monkeypatch):
    # a constant kernel votes one way for every item, so each two-class draw errs
    # on half the weight and is discarded like the draws of one class
    monkeypatch.setattr(boost, "MAX_REDRAWS", 10)
    y = np.array([1.0, 1.0, -1.0, -1.0])
    rng = np.random.default_rng(1)   # no trial is kept: all ten are the first trial's draws
    draws = [y[resample(np.full(4, 0.25), 4, rng)] for _ in range(10)]
    assert sum(abs(d.sum()) == 4 for d in draws) == 2
    with pytest.raises(ValidationError) as refused:
        boost_train(np.ones((1, 4, 4)), y, 3, 10.0, 1)
    assert str(refused.value) == ("no boosting trial beat 0.5 weighted error after 10 redraws, 2 of "
                                  "which held one class and trained no SVM (n=4, kernels=1)")


def test_identical_kernels_tie_to_the_first():
    bank, y = random_bank(3, 1, 20)
    model = boost_train(bank[[0, 0]], y, trials=10, c_reg=10.0, seed=4)
    assert len(model.trials) > 1
    assert [t.kernel_index for t in model.trials] == [0] * len(model.trials)


def _manual_model(weights, votes_per_trial, n_train=4):
    """Assemble a BoostedModel whose weak classifiers produce fixed votes."""
    trials = []
    for w, vote in zip(weights, votes_per_trial):
        # zero coefficients make the weak decision equal its bias; the bias
        # sign then fixes the vote
        svm = BinarySvmModel(np.zeros(n_train), bias=vote, c_reg=1.0)
        trials.append(WeakClassifier(0, np.arange(n_train), svm, w, 0.1))
    return BoostedModel(trials)


@pytest.mark.parametrize("kernel_index, train_indices", [
    (2, [0, 1, 2, 3]), (-1, [0, 1, 2, 3]), (0, [0, 1, 2, 4]), (0, [-1, 1, 2, 3]),
])
def test_trial_outside_the_model_is_refused(kernel_index, train_indices):
    """A negative index, which numpy would wrap, is refused when the trial is built; one past
    the 2 kernels or 4 training vectors raises IndexError when the model scores."""
    svm = BinarySvmModel(np.zeros(4), bias=1.0, c_reg=1.0)
    if min(kernel_index, *train_indices) < 0:
        with pytest.raises(ValidationError, match="a boosting trial holds a negative index"):
            WeakClassifier(kernel_index, train_indices, svm, 1.0, 0.1)
    else:
        with pytest.raises(IndexError):
            boost_predict_many(BoostedModel([WeakClassifier(kernel_index, train_indices, svm, 1.0, 0.1)]),
                               np.zeros((2, 1, 4)))


def test_unanimous_votes_sum_weights():
    model = _manual_model([0.5, 1.5, 2.0], [1.0, 1.0, 1.0])
    rows = np.zeros((2, 3, 4))
    assert np.allclose(boost_predict_many(model, rows), 4.0, rtol=0, atol=1e-12)


def test_heavier_trial_wins_disagreement():
    model = _manual_model([2.0, 0.75], [1.0, -1.0])
    rows = np.zeros((2, 1, 4))
    score = boost_predict_many(model, rows)[0]
    assert score == pytest.approx(2.0 - 0.75)
    assert predict_labels([score])[0] == 1


def test_predict_matches_naive_resummation():
    bank, y = separable_bank(seed=17)
    model = boost_train(bank, y, trials=3, c_reg=10.0, seed=5)
    rows = bank[:, 6, :][:, None, :]
    manual = 0.0
    for trial in model.trials:
        row = bank[trial.kernel_index, 6, trial.train_indices]
        weak = float(row @ trial.svm.dual_coef + trial.svm.bias)
        manual += trial.weight * (1.0 if weak >= 0 else -1.0)
    assert boost_predict_many(model, rows)[0] == pytest.approx(manual, abs=1e-12)


def test_probabilities_stay_normalized_through_training():
    # indirectly covered by training, directly by the helper
    rng = np.random.default_rng(3)
    p = np.full(10, 0.1)
    for _ in range(50):
        correct = rng.random(10) < 0.7
        p = reweight_probabilities(p, correct, 0.4)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12


def test_unwinnable_problem_raises():
    # a constant kernel cannot push the weighted error below 0.5
    n = 8
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    spec = KernelSpec(H_INT)
    bank = gram_matrix(np.full((n, 2), 0.5), spec)[None]
    with pytest.raises(ValidationError):
        boost_train(bank, y, trials=2, c_reg=1.0, seed=0)


@pytest.mark.parametrize("kwargs", [
    {"trials": 2.5}, {"trials": True}, {"c_reg": float("nan")},
    {"c_reg": float("inf")}, {"svm_tol": float("nan")},
])
def test_non_finite_parameters_rejected(kwargs):
    bank, y = separable_bank()
    args = {"trials": 2, "c_reg": 10.0, "seed": 1, **kwargs}
    with pytest.raises(ValidationError):
        boost_train(bank, y, **args)


@pytest.mark.parametrize("train", [
    lambda bank, y, tol: boost_train(bank, y, trials=2, c_reg=10.0, seed=1, svm_tol=tol),
    lambda bank, y, tol: simple_mkl_train(bank, y, 10.0, svm_tol=tol),
], ids=["boost_train", "simple_mkl_train"])
def test_svm_tol_is_refused_under_its_section_name(train):
    # both trainers check the SVM's fields as SvmSection names them
    bank, y = separable_bank()
    with pytest.raises(ConfigError) as exc:
        train(bank, y, float("nan"))
    assert str(exc.value).startswith("tol must be")


@pytest.mark.parametrize("reshape", [
    lambda bank: bank[0],                  # 2-D: one Gram, not a bank
    lambda bank: bank[:0],                 # no kernels
    lambda bank: bank[:, :-1, :-1],        # n differs from the label count
    lambda bank: bank[:, :, :-1],          # not square
    lambda bank: bank.astype(np.int64),    # not float
])
def test_bank_shape_rejected(reshape):
    bank, y = separable_bank()
    with pytest.raises(ValidationError, match="kernel bank"):
        boost_train(reshape(bank), y, trials=2, c_reg=10.0, seed=1)


def test_predict_validates_row_shapes():
    """Rows that lack a kernel or a training item some trial reads raise IndexError: the
    model's size check when it loads."""
    bank, y = separable_bank(seed=19)
    model = boost_train(bank, y, trials=2, c_reg=10.0, seed=1)
    kernels = 1 + max(t.kernel_index for t in model.trials)
    items = 1 + max(t.train_indices.max() for t in model.trials)
    with pytest.raises(IndexError):
        boost_predict_many(model, np.zeros((kernels - 1, 2, len(y))))   # missing kernel rows
    with pytest.raises(IndexError):
        boost_predict_many(model, np.zeros((kernels, 2, items - 1)))   # missing training items


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: resample([], 3, 0), "probabilities must be a nonempty vector", id="resample_empty"),
    pytest.param(lambda: boost_train(separable_bank(n=12)[0], np.ones(12), trials=1, c_reg=10.0, seed=0),
                 "training data must contain both classes", id="one_class"),
    pytest.param(lambda: boost_train(separable_bank(n=12)[0], np.arange(12) % 2, trials=1,
                                     c_reg=10.0, seed=0),
                 "binary labels must be +1 or -1", id="zero_one_labels"),
])
def test_boost_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert message in str(refused.value)
