"""Motion descriptors: orientation histograms, log-covariance, and cuboids.

All three extractors emit one descriptor per sliding temporal window (or
per detected interest point for cuboids), collected into a DescriptorSet
per video. hof and logc take a video's flow whole, as the
``(pairs, 2, H, W)`` array (u, v per frame pair) from
``flow.sequence_flows``, so it is estimated once and never split per pair.
logc pools covariance on component rows. Cuboid filters are matrix products,
and every interest point's window, with its gradient, is gathered in one pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataio import DescriptorSet, FrameSequence
from .errors import ConfigError, ValidationError, check_params, check_positive, param
from .linalg import matrix_log

ORIENTATION_BINS = 8
KINEMATIC_DIM = 12
LOGC_DIM = KINEMATIC_DIM * (KINEMATIC_DIM + 1) // 2  # 78


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _window_starts(frame_count: int, window_len: int, stride: int):
    if frame_count < window_len:
        raise ValidationError(
            f"video has {frame_count} frames but the window needs {window_len}"
        )
    return range(0, frame_count - window_len + 1, stride)


# ---------------------------------------------------------------------------
# HOF: grid orientation histograms of optical flow

@dataclass(frozen=True)
class HofParams:
    grid_size: int = param(4)                    # s cells per side
    window_len: int = param(16, least=2)         # frames per descriptor window
    stride: int = param(8)
    min_magnitude: float = param(0.05, least=0)  # px/frame; weaker vectors are ignored

    __post_init__ = check_params

    @property
    def dim(self) -> int:
        return self.grid_size * self.grid_size * ORIENTATION_BINS


def _orientation_bins(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # bin j covers [j*45 - 22.5, j*45 + 22.5) degrees, angle = atan2(v, u)
    degrees = np.degrees(np.arctan2(v, u))
    return (np.floor((degrees + 22.5) / 45.0).astype(np.int64)) % ORIENTATION_BINS


def _cell_indices(length: int, cells: int) -> np.ndarray:
    idx = (np.arange(length) * cells) // length
    return np.minimum(idx, cells - 1)


def _hof_bins(flows, params: HofParams):
    """Histogram index and weight of each vector of ``(k, 2, H, W)`` flows, as (k, H, W) arrays."""
    s = params.grid_size
    _, _, h, w = flows.shape
    if s > min(h, w):
        raise ValidationError(f"hof grid of {s} cells per side needs frames of at least "
                              f"{s}x{s} pixels, got {w}x{h}")
    u, v = flows[:, 0], flows[:, 1]
    mag = np.hypot(u, v)
    weights = np.where(mag >= params.min_magnitude, mag, 0.0)
    cells = _cell_indices(h, s)[:, None] * s + _cell_indices(w, s)[None, :]
    return cells * ORIENTATION_BINS + _orientation_bins(u, v), weights


def _hof_histogram(index, weights, params: HofParams, normalize: bool = True) -> np.ndarray:
    flat = np.bincount(index.ravel(), weights.ravel(), minlength=params.dim)
    total = flat.sum()
    if normalize and total > 0.0:
        flat = flat / total
    return flat


def hof_window_histogram(flows, params: HofParams, normalize: bool = True) -> np.ndarray:
    """Accumulate one s*s*8 histogram from the ``(k, 2, H, W)`` flows of one window.

    Flow vectors with magnitude >= min_magnitude are added to their
    orientation bin weighted by magnitude, in flow-major, row-major order;
    the full histogram is then L1-normalized (all-zero histograms stay zero).
    """
    return _hof_histogram(*_hof_bins(flows, params), params, normalize)


def hof_from_flows(flows, params: HofParams) -> DescriptorSet:
    """HOF descriptors over sliding windows of a video's ``(pairs, 2, H, W)`` flows.

    Each flow vector is binned once; overlapping windows share the bins.
    """
    index, weights = _hof_bins(flows, params)
    span = params.window_len - 1
    vectors = [
        _hof_histogram(index[t0 : t0 + span], weights[t0 : t0 + span], params)
        for t0 in _window_starts(len(flows) + 1, params.window_len, params.stride)
    ]
    return DescriptorSet("hof", params.dim, np.asarray(vectors))


# ---------------------------------------------------------------------------
# Log-covariance of per-pixel kinematic features

@dataclass(frozen=True)
class LogcParams:
    window_len: int = param(16, least=2)    # frames per descriptor window
    stride: int = param(8)
    pixel_step: int = param(2)              # every n-th pixel of each pair's row-major grid is sampled

    __post_init__ = check_params


def _kinematics(flows, frames, pixel_step: int) -> np.ndarray:
    """The kinematic features of ``kinematic_features`` as one component-major
    ``(12, pairs, n)`` array, n the sampled pixels of each pair."""
    flows = np.asarray(flows, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.float64)
    if flows.ndim != 4 or flows.shape[1] != 2 or frames.shape != (len(flows) + 1, *flows.shape[2:]):
        raise ValidationError(
            f"need (pairs, 2, h, w) flows of a (pairs + 1, h, w) volume, "
            f"got {flows.shape} and {frames.shape}"
        )
    LogcParams(pixel_step=pixel_step)
    pairs, _, h, w = flows.shape

    def sampled(grids):
        return grids.reshape(*grids.shape[:-2], h * w)[..., ::pixel_step]

    # built component-major, so that each component is written contiguously
    feats = np.empty((KINEMATIC_DIM, pairs, -(-h * w // pixel_step)))
    feats[:2] = sampled(flows).swapaxes(0, 1)
    np.subtract(sampled(frames[1:]), sampled(frames[:-1]), out=feats[2])
    d_y, d_x = np.gradient(flows, axis=(2, 3))
    feats[3:7:2] = sampled(d_x).swapaxes(0, 1)
    feats[4:7:2] = sampled(d_y).swapaxes(0, 1)
    u_x, u_y, v_x, v_y = feats[3:7]
    np.add(u_x, v_y, out=feats[7])
    np.subtract(v_x, u_y, out=feats[8])
    shear = np.add(u_y, v_x, out=feats[11])
    feats[9] = np.sqrt(u_x**2 + u_y**2 + v_x**2 + v_y**2)
    feats[10] = np.sqrt(u_x**2 + v_y**2 + 0.5 * shear**2)
    return feats


def kinematic_features(flows, frames, pixel_step: int = 1) -> np.ndarray:
    """Per-pixel 12-vectors of flow kinematics from the ``(pairs, 2, h, w)``
    flows of a ``(pairs + 1, h, w)`` volume.

    Returns ``(pairs, h, w, 12)`` at ``pixel_step`` 1. Otherwise only every
    ``pixel_step``-th pixel of each pair's row-major grid is kept, as one
    contiguous ``(pairs, n, 12)`` array; the derivatives still come from the
    full grid, and the values equal the full-grid features' sampled rows.

    Component order: u, v, I_t, u_x, u_y, v_x, v_y, divergence, vorticity,
    Frobenius norm of the flow gradient, Frobenius norm of the strain-rate
    tensor (symmetric part of the gradient), and the shear term u_y + v_x.
    Spatial derivatives are central differences in the interior and
    one-sided at the borders (exact for fields linear in x and y); I_t is
    next frame minus previous frame.
    """
    feats = np.moveaxis(_kinematics(flows, frames, pixel_step), 0, -1)
    if pixel_step == 1:
        feats = feats.reshape(len(feats), *np.shape(frames)[1:], KINEMATIC_DIM)
    return np.ascontiguousarray(feats)


def covariance_descriptor(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of ``(count, dim)`` samples, exactly symmetric:
    one mean along each ``(dim, count)`` component row, then ``centered @ centered.T``.
    Rows not contiguous in memory are copied once, so any layout gives the same bytes."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValidationError("samples must be a (count, dim) array")
    count, dim = samples.shape
    if count < dim + 1:
        raise ValidationError(
            f"need at least {dim + 1} samples for a {dim}x{dim} covariance, got {count}"
        )
    rows = samples.T if samples.strides[0] == samples.itemsize else np.ascontiguousarray(samples.T)
    centered = rows - rows.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (count - 1)
    return (cov + cov.T) / 2.0


def regularize_covariance(cov: np.ndarray) -> np.ndarray:
    """Shift the spectrum up by eps = max(1e-10, 1e-6 * mean diagonal mass)."""
    dim = cov.shape[0]
    eps = max(1e-10, 1e-6 * float(np.trace(cov)) / dim)
    return cov + eps * np.eye(dim)


def vectorize_symmetric(m: np.ndarray) -> np.ndarray:
    """Upper triangle row-major with off-diagonals scaled by sqrt(2).

    The scaling makes the Euclidean norm of the vector equal the Frobenius
    norm of the matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    rows, cols = np.triu_indices(m.shape[0])
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return m[rows, cols] * scale


def logc_window_descriptor(samples: np.ndarray) -> np.ndarray:
    cov = regularize_covariance(covariance_descriptor(samples))
    return vectorize_symmetric(matrix_log(cov))


def logc_from_flows(frames, flows, params: LogcParams) -> DescriptorSet:
    """Log-covariance descriptors of a ``(t, h, w)`` volume from its
    ``(t - 1, 2, h, w)`` flows: each window pools the sampled pixels of its
    pairs, in pair order."""
    starts = _window_starts(len(frames), params.window_len, params.stride)
    feats, span = _kinematics(flows, frames, params.pixel_step), params.window_len - 1
    vectors = [
        logc_window_descriptor(feats[:, t0 : t0 + span].reshape(KINEMATIC_DIM, -1).T)
        for t0 in starts
    ]
    return DescriptorSet("logc", LOGC_DIM, np.asarray(vectors))


# ---------------------------------------------------------------------------
# Cuboids: quadrature temporal-filter detector and flattened-gradient patches

@dataclass(frozen=True)
class CuboidParams:
    sigma: float = param(1.5)                # spatial Gaussian scale, px
    tau: float = param(2.5)                  # temporal scale, frames
    threshold: float = 15.0                  # minimum response at a detection
    max_points: int = param(12)              # strongest detections kept per video

    def __post_init__(self):
        check_params(self)
        if self.threshold != np.inf:   # an infinite threshold detects nothing
            check_positive("threshold", self.threshold, least=0)

    @property
    def side_xy(self) -> int:
        return 2 * _round_half_up(3.0 * self.sigma) + 1

    @property
    def side_t(self) -> int:
        return 2 * _round_half_up(3.0 * self.tau) + 1

    @property
    def descriptor_dim(self) -> int:
        return self.side_xy * self.side_xy * self.side_t * 3


def _filter_radius(width: float) -> int:
    """The taps on each side of a filter sampled out to 3 ``width``s, at least 1."""
    if not np.isfinite(3.0 * width):
        raise ValidationError(f"a filter of width {width!r} has too many taps to count")
    return max(1, _round_half_up(3.0 * width))


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = _filter_radius(sigma)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(all="ignore"):   # a sigma near 0 gives taps that are not finite
        kernel = np.exp(-(t * t) / (2.0 * sigma * sigma))
        kernel /= kernel.sum()
    if not np.isfinite(kernel).all():
        raise ValidationError(f"cuboid sigma {sigma!r} gives a spatial filter that is not finite")
    return kernel


def temporal_quadrature_pair(tau: float):
    """Sampled even/odd temporal filters, mean-corrected to zero DC gain."""
    radius = _filter_radius(tau)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(all="ignore"):   # a tau near 0 gives taps that are not finite
        envelope = np.exp(-(t * t) / (tau * tau))
        omega = 4.0 / tau
        even = -np.cos(2.0 * np.pi * t * omega) * envelope
        odd = -np.sin(2.0 * np.pi * t * omega) * envelope
        even -= even.mean()
        odd -= odd.mean()
    if not np.isfinite([even, odd]).all():
        raise ValidationError(f"cuboid tau {tau!r} gives a temporal filter that is not finite")
    return even, odd


def _correlate_valid(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlation with ``kernel`` down ``rows`` where it fits wholly, one tap
    at a time, which drops the kernel's size less one rows."""
    length = len(rows) - (kernel.size - 1)
    return sum(weight * rows[k : k + length] for k, weight in enumerate(kernel))


@functools.cache
def _smoothing_matrix(sigma: float, n: int) -> np.ndarray:
    """The read-only ``(n, n)`` Gaussian smoothing matrix, ``_correlate_valid`` of
    the reflect-padded identity (``np.pad`` alone defines the reflection). It is
    built once per process, as building it costs more than applying it."""
    kernel = _gaussian_kernel(sigma)
    identity = np.pad(np.eye(n), [(kernel.size // 2,) * 2, (0, 0)], mode="reflect")
    matrix = _correlate_valid(identity, kernel)
    matrix.flags.writeable = False
    return matrix


def gaussian_smooth(volume: np.ndarray, sigma: float, axes) -> np.ndarray:
    """Separable Gaussian smoothing along each of ``axes`` in turn, borders
    reflected: one product with ``_smoothing_matrix`` per axis."""
    for axis in axes:
        matrix = _smoothing_matrix(sigma, volume.shape[axis])
        volume = np.moveaxis(matrix @ np.moveaxis(volume, axis, -2), -2, axis)
    return volume


def cuboid_response(seq: FrameSequence, params: CuboidParams):
    """Detector response volume and the frame offset of its first slice; the
    temporal filters are matrices applied to the ``(t, h * w)`` smoothed frames.
    Both filters' sizes are checked against the video before either is built."""
    radius, spatial_radius = _filter_radius(params.tau), _filter_radius(params.sigma)
    if seq.frame_count < 2 * radius + 1:
        raise ValidationError(f"video has {seq.frame_count} frames but the temporal filter "
                              f"spans {2 * radius + 1}")
    if spatial_radius >= min(seq.height, seq.width):
        raise ValidationError(f"the {seq.width}x{seq.height} frame must be larger than the "
                              f"spatial filter radius {spatial_radius}")
    even, odd = temporal_quadrature_pair(params.tau)
    t, h, w = seq.frames.shape
    rows = gaussian_smooth(seq.frames.astype(np.float64), params.sigma, axes=(1, 2)).reshape(t, -1)
    r_even, r_odd = (_correlate_valid(np.eye(t), f) @ rows for f in (even, odd))
    return (r_even * r_even + r_odd * r_odd).reshape(-1, h, w), radius


def _local_maxima_3d(resp: np.ndarray) -> np.ndarray:
    """Where ``resp`` equals the maximum of its 3x3x3 neighbourhood (cut at
    the borders), taken as a separable, exact 3-wide maximum along each axis
    in turn over ``-inf`` padding."""
    window_max = resp
    for axis in range(resp.ndim):
        padded = np.pad(np.moveaxis(window_max, axis, 0), [(1, 1)] + [(0, 0)] * (resp.ndim - 1),
                        constant_values=-np.inf)
        window_max = np.moveaxis(np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:]), 0, axis)
    return resp >= window_max


def cuboid_detect(seq: FrameSequence, params: CuboidParams):
    """Interest points as (x, y, t, response), strongest first.

    A point is kept when its response exceeds the threshold and is a
    maximum over its 3x3x3 neighborhood; ties in response order by
    ascending (t, y, x).
    """
    resp, t_offset = cuboid_response(seq, params)
    is_max = _local_maxima_3d(resp) & (resp > params.threshold)
    ts, ys, xs = np.nonzero(is_max)
    values = resp[ts, ys, xs]
    order = np.lexsort((xs, ys, ts, -values))[: params.max_points]
    return [
        (int(xs[i]), int(ys[i]), int(ts[i] + t_offset), float(values[i]))
        for i in order
    ]


def cuboid_patches(seq: FrameSequence, points, params: CuboidParams) -> np.ndarray:
    """Flattened gradient cuboids around ``points`` ((x, y, t, ...) each), as
    one ``(P, descriptor_dim)`` array.

    Every spatio-temporal window is clamped by replication at the borders
    and gathered as one flat index per voxel. The gradient is taken at the
    gathered voxels alone, as ``np.gradient`` takes it: ``(f[hi] - f[lo]) /
    (hi - lo)`` with ``hi = min(i + 1, n - 1)`` and ``lo = max(i - 1, 0)``,
    central inside the volume and one-sided at its borders. Each row runs
    over (t, y, x, component) with components (gx, gy, gt).
    """
    frames = seq.frames
    if min(frames.shape) < 2:
        raise ValidationError(f"cuboid gradients need at least 2 voxels along each axis, "
                              f"got a {seq.width}x{seq.height} frame")
    x, y, t = np.array([p[:3] for p in points], dtype=np.int64).reshape(-1, 3).T

    def window(centres, radius, size):
        return np.clip(centres[:, None] + np.arange(-radius, radius + 1), 0, size - 1)

    index = (
        window(t, params.side_t // 2, seq.frame_count)[:, :, None, None],
        window(y, params.side_xy // 2, seq.height)[:, None, :, None],
        window(x, params.side_xy // 2, seq.width)[:, None, None, :],
    )
    # one flat index per voxel is much cheaper to gather than three broadcast ones
    f, strides = frames.ravel(), (seq.height * seq.width, seq.width, 1)
    at = sum(i * step for i, step in zip(index, strides))
    patches = np.empty((len(x), params.side_t, params.side_xy, params.side_xy, 3))
    for component, axis in enumerate((2, 1, 0)):   # gx, gy, gt
        i, step = index[axis], strides[axis]
        hi, lo = np.minimum(i + 1, frames.shape[axis] - 1), np.maximum(i - 1, 0)
        diff = np.subtract(f[at + (hi - i) * step], f[at + (lo - i) * step], dtype=np.float64)
        np.divide(diff, hi - lo, out=patches[..., component])
    return patches.reshape(len(points), params.descriptor_dim)


def cuboid_descriptors(seq: FrameSequence, params: CuboidParams) -> DescriptorSet:
    """The L2-normalized cuboid of each detected point, strongest first.

    Each row is divided by ``sqrt(row.dot(row))``, which is what
    ``np.linalg.norm`` computes for one vector; all-zero rows stay zero.
    """
    patches = cuboid_patches(seq, cuboid_detect(seq, params), params)
    norms = np.sqrt([row.dot(row) for row in patches])[:, None]
    np.divide(patches, norms, out=patches, where=norms > 0.0)
    return DescriptorSet("cuboid", params.descriptor_dim, patches)


# ---------------------------------------------------------------------------
# the feature table

# name -> params class (also its config section), in histogram block order
FEATURES = {"hof": HofParams, "logc": LogcParams, "cuboid": CuboidParams}


def check_features(names) -> tuple:
    """``names`` as a tuple in ``FEATURES`` (histogram block) order; ConfigError unless a nonempty
    list of distinct ``FEATURES`` names."""
    if (not isinstance(names, (list, tuple)) or not names
            or not all(isinstance(n, str) and n in FEATURES for n in names)
            or len(set(names)) < len(names)):
        raise ConfigError(f"features must be a nonempty list of distinct names from "
                          f"{', '.join(FEATURES)}, got {names!r}")
    return tuple(name for name in FEATURES if name in names)
