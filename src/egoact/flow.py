"""Dense optical flow between consecutive frames (Horn-Schunck style).

The estimator minimizes the classic quadratic energy

    E(u, v) = sum_p (Ix*u + Iy*v + It)^2
            + alpha^2 * sum_edges ((u_p - u_q)^2 + (v_p - v_q)^2)

by a fixed-point iteration that solves each pixel's coupled 2x2 system
exactly while holding its 4-neighborhood fixed (a block-Jacobi sweep).
For this energy the sweep decreases E monotonically, which the test
suite checks. There is no image pyramid, so displacements should stay
within a few pixels per frame.

A video's frame pairs are solved in blocks of k consecutive pairs, k
chosen so that a block holds about ``BLOCK_PIXELS`` pixels and its
working set stays in cache. One sweep updates the whole block: u and v
live in one flat buffer holding every pair's grid, padded with a zero
row and column so that each pixel's neighbours sit at fixed offsets; the
per-pair invariants (gradients, the 2x2 system's entries and the data
terms) are computed once per block; and the neighbour sums and the 2x2
solve write into buffers allocated once per block. Every pixel still
goes through the same floating-point operations in the same order as a
one-pair-at-a-time sweep, so the flows are byte-identical to it whatever
the block size; the tests check this against a per-pair oracle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError

DEFAULT_ALPHA = 10.0
DEFAULT_ITERATIONS = 100
BLOCK_PIXELS = 16384   # frame-pair pixels solved together in one block


class FlowField:
    """Per-pixel displacement in pixels/frame; u is +x (right), v is +y (down)."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValidationError(f"u and v must be matching 2-d grids, got {u.shape} and {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValidationError("flow values must be finite")
        self.u = u
        self.v = v

    @property
    def shape(self):
        return self.u.shape


class FlowDerivatives:
    """Spatial flow derivatives plus the temporal intensity gradient."""

    __slots__ = ("u_x", "u_y", "v_x", "v_y", "i_t")

    def __init__(self, u_x, u_y, v_x, v_y, i_t):
        arrays = [np.asarray(a, dtype=np.float64) for a in (u_x, u_y, v_x, v_y, i_t)]
        shape = arrays[0].shape
        for a in arrays:
            if a.shape != shape:
                raise ValidationError("derivative grids must share one shape")
            if not np.all(np.isfinite(a)):
                raise ValidationError("derivatives must be finite")
        self.u_x, self.u_y, self.v_x, self.v_y, self.i_t = arrays


def _as_float_frame(frame) -> np.ndarray:
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValidationError(f"expected a 2-d frame, got {frame.ndim}-d")
    return frame.astype(np.float64)


def check_params(alpha, iterations) -> None:
    """Raise ValidationError unless alpha is a finite positive number and iterations an integer >= 1."""
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
            or not math.isfinite(alpha) or alpha <= 0):
        raise ValidationError(f"alpha must be a finite positive number, got {alpha!r}")
    if isinstance(iterations, bool) or not isinstance(iterations, numbers.Integral) or iterations < 1:
        raise ValidationError(f"iterations must be an integer >= 1, got {iterations!r}")


def _intensity_gradients(prev: np.ndarray, nxt: np.ndarray):
    """Ix, Iy and It of frames (or stacks of frames) over the last two axes."""
    mean = (prev + nxt) / 2.0
    iy, ix = np.gradient(mean, axis=(-2, -1))
    it = nxt - prev
    return ix, iy, it


def _neighbor_counts(shape) -> np.ndarray:
    counts = np.full(shape, 4.0)
    counts[0, :] -= 1.0
    counts[-1, :] -= 1.0
    counts[:, 0] -= 1.0
    counts[:, -1] -= 1.0
    return counts


def _solve_block(prev: np.ndarray, nxt: np.ndarray, alpha, iterations: int) -> np.ndarray:
    """Flows of the k frame pairs (prev[j], nxt[j]) as one (2, k, H, W) array of (u, v).

    Every grid is stored flat with a zero row and a zero column after each
    frame, so a pixel's four neighbours are fixed offsets into one buffer and
    each sweep step is a single contiguous array operation. Adding a padded
    zero to a running neighbour sum, which starts at +0.0 and so is never
    -0.0, leaves it unchanged: the sums equal those of the unpadded sweep.
    The 2x2 solve also writes the padding, which is zeroed after each sweep.
    """
    k, h, w = prev.shape
    row = w + 1
    size = k * (h + 1) * row

    def padded(grid, fill=0.0):
        out = np.full(grid.shape[:-2] + (h + 1, row), fill)
        out[..., :h, :w] = grid
        return out.reshape(grid.shape[:-3] + (size,))

    ix, iy, it = _intensity_gradients(prev, nxt)
    a2 = alpha * alpha
    smooth = a2 * _neighbor_counts((h, w))
    cross = ix * iy
    # diag[0] = diag_v multiplies rhs_u and diag[1] = diag_u multiplies rhs_v
    diag = np.stack([iy * iy + smooth, ix * ix + smooth])
    det = padded(diag[1] * diag[0] - cross * cross, fill=1.0)
    diag, cross = padded(diag), padded(cross)
    data = padded(np.stack([ix * it, iy * it]))

    # u then v, with one padding row of zeros before and after
    field = np.zeros(2 * size + 2 * row)
    uv = field[row : row + 2 * size].reshape(2, size)
    grid = uv.reshape(2, k, h + 1, row)
    # below, above, right, left: the order in which the per-pair sweep adds them
    neighbors = [field[row + offset : row + offset + 2 * size] for offset in (row, -row, 1, -1)]
    sums = np.empty((2, size))
    flat_sums = sums.reshape(-1)
    rhs = np.empty((2, size))
    for _ in range(iterations):
        np.add(neighbors[0], 0.0, out=flat_sums)
        for neighbor in neighbors[1:]:
            flat_sums += neighbor
        np.multiply(a2, sums, out=rhs)
        rhs -= data
        # u = (diag_v*rhs_u - cross*rhs_v)/det and v = (diag_u*rhs_v - cross*rhs_u)/det
        np.multiply(diag, rhs, out=uv)
        np.multiply(cross, rhs[::-1], out=sums)
        uv -= sums
        uv /= det
        grid[..., h, :] = 0.0
        grid[..., w] = 0.0
    return grid[..., :h, :w].copy()


def dense_flow(prev, nxt, alpha: float = DEFAULT_ALPHA, iterations: int = DEFAULT_ITERATIONS) -> FlowField:
    """Estimate the dense flow carrying ``prev`` onto ``nxt``.

    alpha weights the smoothness term (larger is smoother), iterations is
    the fixed sweep count. Deterministic: same inputs give bit-identical
    output. A one-pair call of ``sequence_flows``.
    """
    prev = _as_float_frame(prev)
    nxt = _as_float_frame(nxt)
    if prev.shape != nxt.shape:
        raise ValidationError(f"frame sizes differ: {prev.shape} vs {nxt.shape}")
    return sequence_flows(np.stack([prev, nxt]), alpha=alpha, iterations=iterations)[0]


def flow_energy(flow: FlowField, prev, nxt, alpha: float = DEFAULT_ALPHA) -> float:
    """Value of the objective that dense_flow iterates down."""
    prev = _as_float_frame(prev)
    nxt = _as_float_frame(nxt)
    if prev.shape != flow.shape:
        raise ValidationError("flow and frames must share one shape")
    ix, iy, it = _intensity_gradients(prev, nxt)
    data = ix * flow.u + iy * flow.v + it
    smooth = 0.0
    for grid in (flow.u, flow.v):
        smooth += np.sum(np.diff(grid, axis=0) ** 2) + np.sum(np.diff(grid, axis=1) ** 2)
    return float(np.sum(data * data) + alpha * alpha * smooth)


def flow_derivatives(flow: FlowField, prev, nxt) -> FlowDerivatives:
    """Spatial derivatives of the flow plus I_t = next - prev.

    Central differences in the interior, one-sided at the borders; exact
    for fields that are linear in x and y.
    """
    prev = _as_float_frame(prev)
    nxt = _as_float_frame(nxt)
    if prev.shape != nxt.shape or prev.shape != flow.shape:
        raise ValidationError("flow and frames must share one shape")
    u_y, u_x = np.gradient(flow.u)
    v_y, v_x = np.gradient(flow.v)
    return FlowDerivatives(u_x, u_y, v_x, v_y, nxt - prev)


def sequence_flows(frames: np.ndarray, alpha: float = DEFAULT_ALPHA,
                   iterations: int = DEFAULT_ITERATIONS):
    """Flow fields between each consecutive frame pair of a video volume.

    Returns one FlowField per pair, solved in blocks of consecutive pairs.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValidationError("need a (t, y, x) volume with at least 2 frames")
    if min(frames.shape[1:]) < 2:
        raise ValidationError(f"frames must be at least 2x2 pixels, got {frames.shape[1:]}")
    check_params(alpha, iterations)
    frames = frames.astype(np.float64)
    pairs = frames.shape[0] - 1
    block = max(1, BLOCK_PIXELS // (frames.shape[1] * frames.shape[2]))
    flows = []
    for start in range(0, pairs, block):
        stop = min(start + block, pairs)
        uv = _solve_block(frames[start:stop], frames[start + 1 : stop + 1], alpha, iterations)
        flows.extend(FlowField(u, v) for u, v in zip(uv[0], uv[1]))
    return flows
