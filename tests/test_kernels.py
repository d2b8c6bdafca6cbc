import numpy as np
import pytest

from egoact.errors import ValidationError
from egoact.kernels import (
    GAUSSIAN,
    H_INT,
    DC_INT,
    JPL_INT,
    KernelSpec,
    combine,
    combine_rows,
    gram_matrix,
    kernel_rows,
    median_heuristic_sigma,
    trace_normalize,
)
from oracles import kernel_eval

TWO_BLOCKS = ((0, 2), (2, 2))


def kernel_value(spec, x, y) -> float:
    """One kernel value through a one-row ``kernel_rows`` call."""
    rows = kernel_rows(spec, x, y)
    assert rows.shape == (1, 1)
    return float(rows[0, 0])


def random_histograms(rng, count=10, dim=4):
    x = rng.random((count, dim))
    return x / x.sum(axis=1, keepdims=True)


def test_gaussian_self_similarity():
    spec = KernelSpec(GAUSSIAN, sigma=0.7)
    x = np.array([0.3, 0.7])
    assert kernel_value(spec, x, x) == 1.0


def test_gaussian_known_value():
    spec = KernelSpec(GAUSSIAN, sigma=1.0)
    value = kernel_value(spec, np.array([0.0, 0.0]), np.array([0.0, 2.0]))
    assert value == pytest.approx(np.exp(-2.0), abs=1e-9)
    assert value == pytest.approx(0.135335, abs=1e-6)


def test_h_int_known_value():
    spec = KernelSpec(H_INT)
    assert kernel_value(spec, np.array([0.2, 0.8]), np.array([0.5, 0.5])) == pytest.approx(0.7)


def test_h_int_disjoint_one_hots():
    spec = KernelSpec(H_INT)
    assert kernel_value(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_dc_int_is_mean_of_block_intersections():
    spec = KernelSpec(DC_INT, channels=TWO_BLOCKS)
    x = np.array([0.2, 0.8, 0.5, 0.5])
    y = np.array([0.6, 0.1, 0.25, 0.75])
    manual = ((min(0.2, 0.6) + min(0.8, 0.1)) + (min(0.5, 0.25) + min(0.5, 0.75))) / 2.0
    assert kernel_value(spec, x, y) == pytest.approx(manual, abs=1e-15)


def test_jpl_unit_exponents_match_block_products():
    rng = np.random.default_rng(0)
    spec = KernelSpec(JPL_INT, channels=TWO_BLOCKS, exponents=(1.0, 1.0))
    h_spec = KernelSpec(H_INT)
    for _ in range(20):
        x, y = random_histograms(rng, 2)
        blocks = [
            kernel_value(h_spec, x[o : o + n], y[o : o + n]) + 1e-12
            for o, n in TWO_BLOCKS
        ]
        assert kernel_value(spec, x, y) == pytest.approx(np.prod(blocks), rel=1e-12)


def test_intersection_rejects_negative_entries():
    for kind, kwargs in ((H_INT, {}), (DC_INT, {"channels": TWO_BLOCKS}),
                         (JPL_INT, {"channels": TWO_BLOCKS})):
        spec = KernelSpec(kind, **kwargs)
        with pytest.raises(ValidationError):
            kernel_value(spec, np.array([-0.1, 0.5, 0.3, 0.3]), np.full(4, 0.25))


def test_channels_must_partition():
    spec = KernelSpec(DC_INT, channels=((0, 2), (3, 1)))
    with pytest.raises(ValidationError):
        kernel_value(spec, np.full(4, 0.25), np.full(4, 0.25))


def test_kernel_eval_is_symmetric():
    rng = np.random.default_rng(1)
    specs = [
        KernelSpec(GAUSSIAN, sigma=0.4),
        KernelSpec(H_INT),
        KernelSpec(DC_INT, channels=TWO_BLOCKS),
        KernelSpec(JPL_INT, channels=TWO_BLOCKS),
    ]
    for spec in specs:
        for _ in range(10):
            x, y = random_histograms(rng, 2)
            assert kernel_value(spec, x, y) == kernel_value(spec, y, x)


def test_block_restriction():
    spec = KernelSpec(H_INT, block=(2, 2))
    x = np.array([9.0, 9.0, 0.2, 0.8])
    y = np.array([0.0, 0.0, 0.5, 0.5])
    assert kernel_value(spec, x, y) == pytest.approx(0.7)


@pytest.mark.parametrize("block", [(), (0,), (0, 4, 9), (-3, 4), (0, 0)])
def test_block_must_be_an_offset_and_a_positive_length(block):
    with pytest.raises(ValidationError, match="block must be"):
        KernelSpec(H_INT, block=block)


def test_gram_single_video():
    spec = KernelSpec(H_INT)
    gram = gram_matrix(np.array([[0.25, 0.75]]), spec)
    assert gram.shape == (1, 1)
    assert gram[0, 0] == pytest.approx(1.0)


def test_gram_exact_symmetry_and_diagonals():
    rng = np.random.default_rng(2)
    hists = random_histograms(rng, 8)
    gauss = gram_matrix(hists, KernelSpec(GAUSSIAN, sigma=0.5))
    assert np.array_equal(gauss, gauss.T)
    assert np.array_equal(np.diag(gauss), np.ones(8))
    inter = gram_matrix(hists, KernelSpec(H_INT))
    assert np.array_equal(inter, inter.T)
    assert np.allclose(np.diag(inter), hists.sum(axis=1), atol=1e-12)


@pytest.mark.parametrize("spec", [
    KernelSpec(GAUSSIAN, sigma=0.5),
    KernelSpec(H_INT),
    KernelSpec(DC_INT, channels=TWO_BLOCKS),
    KernelSpec(JPL_INT, channels=TWO_BLOCKS),
])
def test_gram_matrices_are_psd(spec):
    rng = np.random.default_rng(3)
    gram = gram_matrix(random_histograms(rng, 10), spec)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-8


def test_combine_one_hot_returns_member():
    rng = np.random.default_rng(4)
    hists = random_histograms(rng, 6)
    specs = [KernelSpec(H_INT), KernelSpec(GAUSSIAN, sigma=1.0)]
    grams = [gram_matrix(hists, s) for s in specs]
    bank = np.stack(grams)
    combined = combine(bank, [0.0, 1.0])
    assert np.array_equal(combined, grams[1])


def test_combine_identical_matrices_idempotent():
    rng = np.random.default_rng(5)
    hists = random_histograms(rng, 5)
    spec = KernelSpec(H_INT)
    grams = [gram_matrix(hists, spec), gram_matrix(hists, spec)]
    bank = np.stack(grams)
    combined = combine(bank, [0.5, 0.5])
    assert np.allclose(combined, grams[0], atol=1e-15)


def test_combine_matches_naive_loop():
    rng = np.random.default_rng(6)
    hists = random_histograms(rng, 7)
    specs = [KernelSpec(H_INT), KernelSpec(GAUSSIAN, sigma=0.3),
             KernelSpec(DC_INT, channels=TWO_BLOCKS)]
    grams = [gram_matrix(hists, s) for s in specs]
    weights = np.array([0.2, 0.5, 0.3])
    combined = combine(np.stack(grams), weights)
    for i in range(7):
        for j in range(7):
            manual = sum(w * g[i, j] for w, g in zip(weights, grams))
            assert abs(combined[i, j] - manual) <= 1e-14


def test_combine_validates_weights():
    rng = np.random.default_rng(7)
    hists = random_histograms(rng, 4)
    spec = KernelSpec(H_INT)
    bank = np.stack([gram_matrix(hists, spec), gram_matrix(hists, spec)])
    with pytest.raises(ValidationError):
        combine(bank, [0.7, 0.7])
    with pytest.raises(ValidationError):
        combine(bank, [-0.2, 1.2])
    with pytest.raises(ValidationError, match="finite"):
        combine(bank, [np.nan, 1.0])


def test_convex_combination_stays_psd():
    rng = np.random.default_rng(8)
    hists = random_histograms(rng, 10)
    specs = [KernelSpec(H_INT), KernelSpec(GAUSSIAN, sigma=0.5),
             KernelSpec(JPL_INT, channels=TWO_BLOCKS)]
    bank = np.stack([gram_matrix(hists, s) for s in specs])
    for _ in range(5):
        weights = rng.random(3)
        weights /= weights.sum()
        assert np.linalg.eigvalsh(combine(bank, weights))[0] >= -1e-8


def test_trace_normalize():
    rng = np.random.default_rng(10)
    gram = gram_matrix(random_histograms(rng, 6), KernelSpec(H_INT))
    normalized, scale = trace_normalize(gram)
    assert np.trace(normalized) == pytest.approx(6.0, rel=1e-12)
    assert np.allclose(normalized, gram * scale)


def test_combine_rows_and_kernel_rows():
    rng = np.random.default_rng(11)
    train = random_histograms(rng, 5)
    test = random_histograms(rng, 3)
    specs = [KernelSpec(H_INT), KernelSpec(GAUSSIAN, sigma=0.5)]
    rows = np.stack([kernel_rows(s, test, train) for s in specs])
    mixed = combine_rows(rows, [0.25, 0.75])
    assert mixed.shape == (3, 5)
    assert np.allclose(mixed, 0.25 * rows[0] + 0.75 * rows[1], atol=1e-15)
    for i in range(3):
        for j in range(5):
            assert rows[0, i, j] == kernel_eval(specs[0], test[i], train[j])


def test_median_heuristic():
    points = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> median 2
    assert median_heuristic_sigma(points) == pytest.approx(2.0)
    assert median_heuristic_sigma(np.zeros((4, 2))) == 1.0
    assert median_heuristic_sigma(np.zeros((1, 2))) == 1.0


def test_gaussian_needs_sigma():
    spec = KernelSpec(GAUSSIAN)
    with pytest.raises(ValidationError):
        kernel_value(spec, np.zeros(2), np.zeros(2))


ORACLE_LAYOUT = ((0, 5), (5, 9), (14, 12))
ORACLE_SPECS = [
    KernelSpec(GAUSSIAN, sigma=0.35),
    KernelSpec(H_INT),
    KernelSpec(DC_INT, channels=ORACLE_LAYOUT),
    KernelSpec(JPL_INT, channels=ORACLE_LAYOUT),
    KernelSpec(JPL_INT, channels=ORACLE_LAYOUT, exponents=(0.5, 1.5, 2.0)),
    KernelSpec(GAUSSIAN, sigma=0.2, block=(5, 9)),
    KernelSpec(H_INT, block=(14, 12)),
    KernelSpec(DC_INT, channels=((0, 9),), block=(5, 9)),
    KernelSpec(JPL_INT, channels=((0, 5),), block=(0, 5)),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}-{s.block}")
@pytest.mark.parametrize("n,m", [(1, 1), (1, 6), (7, 1), (9, 13)])
def test_block_kernels_match_the_pairwise_oracle_bytes(spec, n, m):
    rng = np.random.default_rng(n * 100 + m)
    queries = random_histograms(rng, n, dim=26)
    references = random_histograms(rng, m, dim=26)
    queries[queries < 0.02] = 0.0
    rows = kernel_rows(spec, queries, references)
    expected = np.array([[kernel_eval(spec, q, r) for r in references] for q in queries])
    assert rows.tobytes() == expected.tobytes()
    gram = gram_matrix(queries, spec)
    upper = np.array([[kernel_eval(spec, queries[min(i, j)], queries[max(i, j)])
                       for j in range(n)] for i in range(n)])
    assert gram.tobytes() == upper.tobytes()
