import numpy as np
import pytest

from egoact.bow import encode_video, kmeans, kmeans_with_history, pooled_descriptors, quantize_batch
from egoact.dataio import Codebook, DescriptorSet
from egoact.descriptors import FEATURES
from egoact.errors import ConfigError, ValidationError
from oracles import quantize, reference_kmeans, reference_quantize_batch


def two_clouds(rng, n=60, distance=100.0, radius=1.0):
    a = rng.normal(scale=radius, size=(n, 3))
    b = rng.normal(scale=radius, size=(n, 3)) + np.array([distance, 0.0, 0.0])
    return np.vstack([a, b]), a.mean(axis=0), b.mean(axis=0)


def test_single_word_is_the_mean():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(25, 4))
    codebook = kmeans(points, 1, seed=9)
    assert np.allclose(codebook.centroids[0], points.mean(axis=0), atol=1e-12)


def test_two_separated_clouds():
    rng = np.random.default_rng(1)
    points, mean_a, mean_b = two_clouds(rng)
    codebook = kmeans(points, 2, seed=4)
    found = codebook.centroids
    dist_a = np.linalg.norm(found - mean_a, axis=1).min()
    dist_b = np.linalg.norm(found - mean_b, axis=1).min()
    assert dist_a <= 0.5 and dist_b <= 0.5


def test_inertia_never_increases():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(120, 5))
    _, history = kmeans_with_history(points, 8, seed=3)
    assert len(history) >= 2
    for before, after in zip(history, history[1:]):
        assert after <= before * (1 + 1e-12)


def test_kmeans_is_bit_deterministic():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(50, 6))
    first = kmeans(points, 5, seed=11)
    second = kmeans(points, 5, seed=11)
    assert first.centroids.tobytes() == second.centroids.tobytes()
    different = kmeans(points, 5, seed=12)
    assert not np.array_equal(first.centroids, different.centroids)


def test_too_few_descriptors_rejected():
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3, 2)), 4, seed=0)


def test_pooled_descriptors_stack_the_nonempty_sets_of_one_type_in_video_order():
    first, last = np.arange(6.0).reshape(2, 3), np.full((1, 3), 7.0)
    sets = [
        {"hof": DescriptorSet("hof", 3, first), "logc": DescriptorSet("logc", 3, np.ones((4, 3)))},
        {"hof": DescriptorSet("hof", 3)},                              # empty: skipped
        {"logc": DescriptorSet("logc", 3, np.ones((1, 3)))},           # no hof: ignored
        {"hof": DescriptorSet("hof", 3, last)},
    ]
    pooled = pooled_descriptors(sets, "hof")
    assert np.array_equal(pooled, np.vstack([first, last]))
    assert np.array_equal(pooled_descriptors(iter(sets), "logc"), np.ones((5, 3)))


@pytest.mark.parametrize("sets", [[], [{"hof": DescriptorSet("hof", 3)}],
                                  [{"logc": DescriptorSet("logc", 3, np.ones((1, 3)))}]])
def test_pooled_descriptors_without_rows_is_a_one_line_error(sets):
    with pytest.raises(ValidationError, match=r"\Ano descriptors of type 'hof'\Z"):
        pooled_descriptors(sets, "hof")


def test_quantize_exact_centroid():
    codebook = Codebook("hof", np.arange(20.0).reshape(5, 4))
    assert quantize_batch(codebook.centroids[3:4], codebook).tolist() == [3]


def test_quantize_tie_breaks_low():
    centroids = np.array([[0.0], [2.0], [5.0], [0.0], [2.0]])
    codebook = Codebook("hof", centroids)
    # ties between 0 and 1 for the first query, 1 and 4 for the second
    assert quantize_batch(np.array([[1.0], [2.0]]), codebook).tolist() == [0, 1]


def test_quantize_matches_brute_force():
    rng = np.random.default_rng(5)
    codebook = Codebook("hof", rng.normal(size=(17, 6)))
    queries = rng.normal(size=(1000, 6))
    batch = quantize_batch(queries, codebook)
    for query, got in zip(queries, batch):
        assert got == quantize(query, codebook)


def test_quantize_dim_mismatch():
    codebook = Codebook("hof", np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        quantize_batch(np.zeros((1, 4)), codebook)


def _codebooks():
    return {
        "hof": Codebook("hof", np.eye(4)),
        "cuboid": Codebook("cuboid", np.eye(3)),
    }


def test_encode_single_descriptor_is_one_hot():
    sets = {"hof": DescriptorSet("hof", 4, np.array([[0.0, 1.0, 0.05, 0.0]]))}
    hist = encode_video("v0", sets, _codebooks())
    assert hist.block_order() == ["hof"]
    assert np.array_equal(hist.blocks[0][1], np.array([0.0, 1.0, 0.0, 0.0]))


def test_encode_empty_type_gives_zero_block():
    sets = {
        "hof": DescriptorSet("hof", 4, np.array([[1.0, 0.0, 0.0, 0.0]])),
        "cuboid": DescriptorSet("cuboid", 3),
    }
    hist = encode_video("v0", sets, _codebooks())
    assert hist.block_order() == ["hof", "cuboid"]
    assert hist.blocks[0][1].sum() == pytest.approx(1.0)
    assert np.abs(hist.blocks[1][1]).max() == 0.0


def test_encode_blocks_follow_the_feature_table():
    rng = np.random.default_rng(8)
    codebooks = {name: Codebook(name, rng.random((2, 3))) for name in FEATURES}
    for names in (list(FEATURES), list(reversed(FEATURES))):
        sets = {name: DescriptorSet(name, 3, rng.random((4, 3))) for name in names}
        assert encode_video("v", sets, codebooks).block_order() == list(FEATURES)


def test_encode_order_invariant():
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(40, 4))
    sets = {"hof": DescriptorSet("hof", 4, vectors)}
    shuffled = {"hof": DescriptorSet("hof", 4, vectors[rng.permutation(40)])}
    first = encode_video("v", sets, _codebooks())
    second = encode_video("v", shuffled, _codebooks())
    assert np.array_equal(first.blocks[0][1], second.blocks[0][1])


def test_encode_requires_codebook():
    sets = {"logc": DescriptorSet("logc", 3, np.zeros((1, 3)))}
    with pytest.raises(ConfigError):
        encode_video("v", sets, _codebooks())


def test_block_sums_zero_or_one():
    rng = np.random.default_rng(7)
    for count in (0, 1, 7):
        sets = {"hof": DescriptorSet("hof", 4, rng.normal(size=(count, 4)))}
        hist = encode_video("v", sets, _codebooks())
        total = hist.blocks[0][1].sum()
        assert abs(total) <= 1e-12 or abs(total - 1.0) <= 1e-12


def test_empty_cluster_reseeded():
    # five identical points pin four centroids onto one spot; the reseed
    # pulls empties onto the farthest points
    points = np.array([[0.0, 0.0]] * 5 + [[10.0, 0.0], [0.0, 10.0]])
    codebook = kmeans(points, 3, seed=2)
    centroid_set = {tuple(np.round(c, 6)) for c in codebook.centroids}
    assert (0.0, 0.0) in centroid_set
    assert (10.0, 0.0) in centroid_set
    assert (0.0, 10.0) in centroid_set


def cuboid_like_pool(seed, count=300, dim=6171, distinct=None):
    """Descriptor pools as wide as the default cuboid descriptors, lying near
    an 8-dimensional subspace so that Lloyd's iterations have work to do;
    with ``distinct``, only that many different rows, repeated."""
    rng = np.random.default_rng(seed)
    rows = distinct or count
    points = rng.normal(size=(rows, 8)) @ rng.normal(size=(8, dim)) + 0.5 * rng.normal(size=(rows, dim))
    return points[rng.integers(0, rows, count)] if distinct else points


@pytest.mark.parametrize("seed, words, max_iters, distinct", [
    (0, 16, 100, None),
    (1, 5, 100, None),
    (2, 16, 2, None),       # cut off by max_iters
    (3, 16, 20, 12),        # fewer distinct rows than words: empty clusters get reseeded
])
def test_kmeans_matches_reference_bytes(seed, words, max_iters, distinct):
    points = cuboid_like_pool(seed, distinct=distinct)
    codebook, history = kmeans_with_history(points, words, seed=seed, max_iters=max_iters)
    centroids, reference_history = reference_kmeans(points, words, seed, max_iters)
    assert codebook.centroids.tobytes() == centroids.tobytes()
    assert np.array(history).tobytes() == np.array(reference_history).tobytes()
    queries = cuboid_like_pool(seed + 10, count=50)
    assert (quantize_batch(queries, codebook).tobytes()
            == reference_quantize_batch(queries, codebook).tobytes())


@pytest.mark.parametrize("kwargs", [{"word_count": 2.5}, {"word_count": True},
                                    {"max_iters": 0}, {"max_iters": 1.5}])
def test_kmeans_counts_must_be_integers(kwargs):
    args = {"word_count": 2, "seed": 0, **kwargs}
    with pytest.raises(ValidationError):
        kmeans_with_history(np.zeros((5, 2)), **args)
