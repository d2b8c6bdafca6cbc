"""Kernel bank: Gaussian, histogram intersection, and the two
multi-channel intersection variants, plus Gram-matrix assembly and
convex kernel combination.

A bank is one float ``(M, n, n)`` array: slice m is kernel m's Gram
matrix over the same n training vectors.

Channel-aware kinds treat a histogram as a sequence of per-descriptor-type
blocks. ``dc_int`` averages the per-block intersections; ``jpl_int`` takes
the product of per-block intersections, each raised to a positive exponent.
A spec may also restrict any kind to a single block via ``block`` so that
one kernel sees only one feature's histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import json_numbers, json_str
from .errors import ValidationError

GAUSSIAN = "gaussian"
H_INT = "h_int"
DC_INT = "dc_int"
JPL_INT = "jpl_int"

KERNEL_KINDS = (GAUSSIAN, H_INT, DC_INT, JPL_INT)
CHANNEL_KINDS = (DC_INT, JPL_INT)

JPL_DELTA = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    sigma: float | None = None                       # gaussian width
    channels: tuple = ()                             # ((offset, length), ...) for dc/jpl
    exponents: tuple = ()                            # per-channel, jpl only; default 1/C
    block: tuple | None = None                       # (offset, length) feature restriction
    label: str = ""

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GAUSSIAN and self.sigma is not None and self.sigma <= 0:
            raise ValidationError("gaussian sigma must be positive")
        if self.kind in CHANNEL_KINDS and not self.channels:
            raise ValidationError(f"{self.kind} needs a channel layout")
        object.__setattr__(self, "channels", tuple((int(o), int(n)) for o, n in self.channels))
        if self.exponents:
            if self.kind != JPL_INT:
                raise ValidationError("exponents only apply to jpl_int")
            if len(self.exponents) != len(self.channels):
                raise ValidationError("need one exponent per channel")
            if any(b <= 0 for b in self.exponents):
                raise ValidationError("exponents must be positive")
            object.__setattr__(self, "exponents", tuple(float(b) for b in self.exponents))
        if self.block is not None:
            block = tuple(int(v) for v in self.block)
            if len(block) != 2 or block[0] < 0 or block[1] < 1:
                raise ValidationError(f"block must be (offset >= 0, length >= 1), got {self.block}")
            object.__setattr__(self, "block", block)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "channels": [list(c) for c in self.channels],
            "exponents": list(self.exponents),
            "block": list(self.block) if self.block else None,
            "label": self.label,
        }

    @staticmethod
    def from_dict(doc: dict) -> "KernelSpec":
        sigma, channels, block = doc["sigma"], doc["channels"], doc["block"]
        return KernelSpec(
            kind=doc["kind"],
            sigma=None if sigma is None else json_numbers(sigma, 0),
            channels=() if channels == [] else json_numbers(channels, 2, integer=True).tolist(),
            exponents=tuple(json_numbers(doc["exponents"]).tolist()),
            block=None if block is None else json_numbers(block, integer=True).tolist(),
            label=json_str(doc["label"]),
        )


def _check_channels(channels, dim: int):
    spans = sorted(channels)
    cursor = 0
    for offset, length in spans:
        if offset != cursor or length < 1:
            raise ValidationError(f"channels {channels} do not partition dimension {dim}")
        cursor += length
    if cursor != dim:
        raise ValidationError(f"channels {channels} do not partition dimension {dim}")


def _view(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    if spec.block is None:
        return x
    offset, length = spec.block
    if offset < 0 or offset + length > x.shape[-1]:
        raise ValidationError(f"block {spec.block} exceeds vector dimension {x.shape[-1]}")
    return x[..., offset : offset + length]


def _kernel_block(spec: KernelSpec, queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """(n, m) kernel values between two (count, dim) float64 arrays, in one
    array pass; the block view, sign and channel checks run once."""
    if queries.ndim != 2 or references.ndim != 2 or queries.shape[1] != references.shape[1]:
        raise ValidationError(f"vector shapes differ: {queries.shape[1:]} vs {references.shape[1:]}")
    q = _view(spec, queries)
    r = _view(spec, references)

    if spec.kind == GAUSSIAN:
        if spec.sigma is None:
            raise ValidationError("gaussian spec has no sigma (materialize it first)")
        diff = q[:, None, :] - r[None, :, :]
        sq = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
        return np.exp(-sq / (2.0 * spec.sigma * spec.sigma))

    if q.min(initial=0.0) < 0.0 or r.min(initial=0.0) < 0.0:
        raise ValidationError("intersection kernels need nonnegative entries")
    mins = np.minimum(q[:, None], r[None])
    if spec.kind == H_INT:
        return mins.sum(axis=-1)

    _check_channels(spec.channels, q.shape[1])
    block_sums = np.stack([mins[..., o : o + n].sum(axis=-1) for o, n in spec.channels], axis=-1)
    if spec.kind == DC_INT:
        return block_sums.mean(axis=-1)
    exponents = spec.exponents or (1.0 / len(spec.channels),) * len(spec.channels)
    return np.prod((block_sums + JPL_DELTA) ** np.asarray(exponents), axis=-1)


def gram_matrix(vectors, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix; the upper triangle is mirrored onto the lower,
    so symmetry is exact by construction."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValidationError("need a nonempty (count, dim) array of vectors")
    matrix = _kernel_block(spec, vectors, vectors)
    lower = np.tril_indices(vectors.shape[0], k=-1)
    matrix[lower] = matrix.T[lower]
    return matrix


def kernel_rows(spec: KernelSpec, queries, references) -> np.ndarray:
    """(n_queries, n_references) kernel values; used for test-time scoring."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    references = np.atleast_2d(np.asarray(references, dtype=np.float64))
    return _kernel_block(spec, queries, references)


def check_simplex(weights, count: int, tol: float = 1e-9) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (count,):
        raise ValidationError(f"expected {count} weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValidationError(f"kernel weights must be finite, got {weights.tolist()}")
    if weights.min(initial=0.0) < -tol:
        raise ValidationError(f"kernel weights must be nonnegative, got min {weights.min()}")
    if abs(weights.sum() - 1.0) > tol:
        raise ValidationError(f"kernel weights must sum to 1, got {weights.sum()!r}")
    return weights


def check_bank(bank, y) -> np.ndarray:
    """Raise ValidationError unless ``bank`` is a float (M, n, n) array with
    M >= 1 and n = len(y); the trainers' one check on their kernel bank."""
    bank, labels = np.asarray(bank), np.shape(y)
    if bank.dtype.kind != "f" or bank.ndim != 3 or not len(bank) or bank.shape[1:] != labels * 2:
        raise ValidationError(f"kernel bank must be a float (M, n, n) array with M >= 1 for labels of "
                              f"shape {labels}, got a {bank.dtype} array of shape {bank.shape}")
    return bank


def combine(bank: np.ndarray, weights) -> np.ndarray:
    """Entry-wise convex combination of the bank's Gram matrices."""
    weights = check_simplex(weights, len(bank))
    combined = np.zeros(bank.shape[1:])
    for w, gram in zip(weights, bank):
        combined += w * gram
    return combined


def combine_rows(rows: np.ndarray, weights) -> np.ndarray:
    """Convex combination of per-kernel row stacks, shape (M, ..., L)."""
    rows = np.asarray(rows, dtype=np.float64)
    weights = check_simplex(weights, rows.shape[0])
    return np.tensordot(weights, rows, axes=(0, 0))


def trace_normalize(gram: np.ndarray):
    """Scale a Gram matrix so its trace equals its size; returns (gram, scale).

    Applied before multi-kernel training so weights are comparable across
    kernel kinds; the same scale must be applied to test-time kernel rows.
    """
    trace = float(np.trace(gram))
    if trace <= 0.0:
        return gram, 1.0
    scale = len(gram) / trace
    return gram * scale, scale


def median_heuristic_sigma(vectors, block=None) -> float:
    """Median pairwise Euclidean distance; 1.0 when degenerate."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if block is not None:
        offset, length = block
        vectors = vectors[:, offset : offset + length]
    n = vectors.shape[0]
    if n < 2:
        return 1.0
    sq = np.sum(vectors * vectors, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * vectors @ vectors.T, 0.0)
    dists = np.sqrt(d2[np.triu_indices(n, k=1)])
    median = float(np.median(dists))
    return median if median > 0.0 else 1.0

