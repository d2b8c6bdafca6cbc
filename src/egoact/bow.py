"""K-means codebooks and visual-word histograms.

One codebook is trained per descriptor type; a video is encoded as the
concatenation of its per-type word histograms in a fixed block order.

Squared distances use the expanded form |p|^2 + |c|^2 - 2(p.c). k-means
reads them all from the pool's Gram matrix G = P P^T, formed once per
call (kernel k-means with a linear kernel; Dhillon, Guan & Kulis, KDD
2004). Each centroid is held as a row w of point weights, so p.c is an
entry of wG and |c|^2 = wGw. A pool has a few hundred rows of up to 6,171
dims, and G is n x n float64: 0.65 MB for the 285-row quickstart cuboid
pool, 20.6 MB for 1,605 rows. On 16 words and the 6,171-dim test pools of
``tests/test_bow.py``, k-means fell from 62-90 ms to 15-22 ms at 285 rows
and from 0.94-1.69 s to 0.34-0.56 s at 1,605 rows (2-vCPU VM, one BLAS
thread). G grows as n^2, so a pool of 20,000 rows would need 3.2 GB for
it. Each final centroid is the mean of its cluster's points, or the
reseeded point, so a codebook keeps its bytes wherever the assignments
agree with k-means on the points themselves. Where two distances tie
exactly, as between repeated rows, G can break the tie the other way.
The quantizer measures queries against the centroids themselves, with
the squared norms each ``Codebook`` computes once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Codebook, VideoHistogram
from .descriptors import FEATURES
from .errors import ConfigError, ValidationError, check_params, param

DEFAULT_WORDS = 64


@dataclass(frozen=True)
class BowSection:
    # desk-scale synthetic videos yield few descriptors per video, so the
    # experiment default is far below the standalone 64-word default
    words: int = param(16)
    max_iters: int = param(100)
    adaptive_words: bool = param(False)   # shrink words to the pool size instead of erroring

    __post_init__ = check_params


def _plusplus_init(gram: np.ndarray, word_count: int, rng: np.random.Generator) -> list:
    """k-means++ seeding on the pool's Gram matrix; returns the seed points' indices."""
    n = len(gram)
    norms = gram.diagonal()

    def sq_distances_to(idx):
        return np.maximum(norms + norms[idx] - 2.0 * gram[idx], 0.0)

    seeds = [int(rng.integers(n))]
    closest = sq_distances_to(seeds[0])
    for _ in range(1, word_count):
        total = closest.sum()
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), target, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        seeds.append(idx)
        np.minimum(closest, sq_distances_to(idx), out=closest)
    return seeds


def kmeans_with_history(points: np.ndarray, word_count: int, seed: int | np.random.SeedSequence,
                        max_iters: int = BowSection.max_iters):
    """Lloyd's algorithm with k-means++ init; returns (Codebook, inertia per iteration).

    ``seed`` is anything ``np.random.default_rng`` takes: the ``codebook``
    command passes an int, ``evaluate`` a ``SeedSequence`` per repeat and
    feature. Runs until the assignment reaches a fixpoint or max_iters. An
    empty cluster is reseeded to the point currently farthest from its own
    centroid. Deterministic for a fixed seed.
    """
    n = points.shape[0]
    BowSection(word_count, max_iters)
    if n < word_count:
        raise ValidationError(f"{n} descriptors cannot fill {word_count} words")

    rng = np.random.default_rng(seed)
    gram = points @ points.T
    norms = gram.diagonal()
    # row k holds centroid k as weights over the points: 1 on a seed or a
    # reseeded point, 1/m on each of a cluster's m members
    weights = np.zeros((word_count, n))
    weights[np.arange(word_count), _plusplus_init(gram, word_count, rng)] = 1.0
    assignment = None
    inertia_history = []
    for _ in range(max_iters):
        products = weights @ gram      # centroid . point, one row per centroid
        d2 = np.maximum(norms[:, None] + np.sum(products * weights, axis=1)[None, :]
                        - 2.0 * products.T, 0.0)
        new_assignment = np.argmin(d2, axis=1)
        point_cost = d2[np.arange(n), new_assignment]
        inertia_history.append(float(point_cost.sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        weights[:] = 0.0
        for k in range(word_count):
            members = assignment == k
            if members.any():
                weights[k, members] = 1.0 / np.count_nonzero(members)
            else:
                worst = int(np.argmax(point_cost))
                weights[k, worst] = 1.0
                point_cost[worst] = -1.0  # keep later empties off the same point
    centroids = np.stack([points[w > 0.0].mean(axis=0) for w in weights])
    return Codebook("", centroids), inertia_history


def kmeans(points, word_count: int, seed: int | np.random.SeedSequence,
           max_iters: int = BowSection.max_iters) -> Codebook:
    codebook, _ = kmeans_with_history(points, word_count, seed, max_iters)
    return codebook


def pooled_descriptors(sets, dtype: str) -> np.ndarray:
    """The rows of every nonempty ``dtype`` set in ``sets`` (one ``{type: DescriptorSet}``
    per video), stacked in video order; videos without the type are skipped."""
    pools = [s[dtype].vectors for s in sets if dtype in s and s[dtype].count]
    if not pools:
        raise ValidationError(f"no descriptors of type {dtype!r}")
    return np.vstack(pools)


def quantize_batch(vectors: np.ndarray, codebook: Codebook) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != codebook.dim:
        raise ValidationError(f"descriptors must be (count, {codebook.dim})")
    d2 = (np.sum(vectors * vectors, axis=1)[:, None] + codebook.sq_norms[None, :]
          - 2.0 * (vectors @ codebook.centroids.T))
    return np.argmin(np.maximum(d2, 0.0), axis=1)


def encode_video(video_id: str, sets, codebooks) -> VideoHistogram:
    """One normalized histogram block per descriptor type, in ``FEATURES`` order.

    Types absent from ``sets`` are skipped (``VideoHistogram`` refuses none
    left); a type with zero descriptors yields an all-zero block.
    """
    blocks = []
    for dtype in FEATURES:
        if dtype not in sets:
            continue
        codebook = codebooks.get(dtype)
        if codebook is None:
            raise ConfigError(f"no codebook supplied for descriptor type {dtype!r}")
        dset = sets[dtype]
        counts = np.zeros(codebook.word_count)
        if dset.count:
            words = quantize_batch(dset.vectors, codebook)
            counts = np.bincount(words, minlength=codebook.word_count).astype(np.float64)
            counts /= counts.sum()
        blocks.append((dtype, counts))
    return VideoHistogram(video_id, blocks)
