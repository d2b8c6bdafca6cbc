"""K-means codebooks and visual-word histograms.

One codebook is trained per descriptor type; a video is encoded as the
concatenation of its per-type word histograms in a fixed block order.

Squared distances use the expanded form |p|^2 + |c|^2 - 2(p.c). The
points' squared norms are computed once per call and reused by every
k-means++ step and Lloyd iteration; doubling the products is exact, so
no doubled copy of the points is kept.
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


def _sq_norms(points: np.ndarray) -> np.ndarray:
    return np.sum(points * points, axis=1)


def _sq_distances(points: np.ndarray, point_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances from the points, with their squared norms, to each centroid."""
    d2 = point_norms[:, None] + _sq_norms(centroids)[None, :] - 2.0 * (points @ centroids.T)
    return np.maximum(d2, 0.0)


def _plusplus_init(points: np.ndarray, point_norms: np.ndarray, word_count: int,
                   rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((word_count, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _sq_distances(points, point_norms, centroids[:1]).ravel()
    for k in range(1, word_count):
        total = closest.sum()
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), target, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        centroids[k] = points[idx]
        np.minimum(closest, _sq_distances(points, point_norms, centroids[k : k + 1]).ravel(), out=closest)
    return centroids


def kmeans_with_history(points: np.ndarray, word_count: int, seed: int,
                        max_iters: int = BowSection.max_iters):
    """Lloyd's algorithm with k-means++ init; returns (Codebook, inertia per iteration).

    Runs until the assignment reaches a fixpoint or max_iters. An empty
    cluster is reseeded to the point currently farthest from its own
    centroid. Deterministic for a fixed seed.
    """
    n = points.shape[0]
    BowSection(word_count, max_iters)
    if n < word_count:
        raise ValidationError(f"{n} descriptors cannot fill {word_count} words")

    rng = np.random.default_rng(seed)
    point_norms = _sq_norms(points)
    centroids = _plusplus_init(points, point_norms, word_count, rng)
    assignment = None
    inertia_history = []
    for _ in range(max_iters):
        d2 = _sq_distances(points, point_norms, centroids)
        new_assignment = np.argmin(d2, axis=1)
        point_cost = d2[np.arange(n), new_assignment]
        inertia_history.append(float(point_cost.sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        for k in range(word_count):
            members = assignment == k
            if members.any():
                centroids[k] = points[members].mean(axis=0)
            else:
                worst = int(np.argmax(point_cost))
                centroids[k] = points[worst]
                point_cost[worst] = -1.0  # keep later empties off the same point
    return Codebook("", centroids), inertia_history


def kmeans(points, word_count: int, seed: int, max_iters: int = BowSection.max_iters) -> Codebook:
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
    return np.argmin(_sq_distances(vectors, _sq_norms(vectors), codebook.centroids), axis=1)


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
