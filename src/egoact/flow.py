"""Dense optical flow between consecutive frames (Horn-Schunck style).

The estimator minimizes the classic quadratic energy

    E(u, v) = sum_p (Ix*u + Iy*v + It)^2
            + alpha^2 * sum_edges ((u_p - u_q)^2 + (v_p - v_q)^2)

by a fixed-point iteration that solves each pixel's coupled 2x2 system
exactly while holding its 4-neighborhood fixed (a block-Jacobi sweep).
For this energy the sweep decreases E monotonically, which the test
suite checks. There is no image pyramid, so displacements should stay
within a few pixels per frame.

The flow of a video is one ``(pairs, 2, H, W)`` float64 array, ``[:, 0]``
the +x (right) component u and ``[:, 1]`` the +y (down) component v, in
pixels per frame; the descriptors consume it whole.

A video's frame pairs are solved in blocks of k consecutive pairs, k
chosen so that a block holds about ``BLOCK_PIXELS`` pixels and its
working set stays in cache. One sweep updates the whole block: u and v
live in one flat buffer holding every pair's grid, padded with a row and
a column after each frame so that each pixel's neighbours sit at fixed
offsets, and the sweep writes into buffers allocated once per video,
sized for a full block and cleared at the start of each block.

Each pixel's 2x2 solve is linear in its neighbour sums S_u and S_v, so
its inverse is folded into coefficients computed once per block. With n
the pixel's neighbour count, s = alpha^2*n and T = Ix^2 + Iy^2 + s, a
sweep sets

    u = gain_u*S_u - coupling*S_v - offset_u
    v = gain_v*S_v - coupling*S_u - offset_v

with gain_u = (Iy^2 + s)/(n*T), gain_v = (Ix^2 + s)/(n*T),
coupling = Ix*Iy/(n*T), offset_u = Ix*It/T and offset_v = Iy*It/T. This
closed form of the inverse subtracts nothing, so it does not cancel when
the intensities dwarf alpha^2, and scaling frames and alpha together
leaves it unchanged. A sweep is seven array passes (three for the
neighbour sums, four for u and v) and divides nothing.

The coefficients are computed in float64 and rounded to float32 once;
the sweep runs in float32 and the flows are widened to float64. That is
the same Jacobi iteration with different rounding: every flow value stays
within 1e-5*max(1, |flow|) of the float64 sweep, and each pair's energy
within 1e-6 relative of its energy (under 1e-6 and 2e-8 measured on
synthetic videos). Each sweep writes a pixel from its own coefficients,
so ``sequence_flows`` refuses a coefficient that is not finite in float32
as it refuses a sweep that overflows: by the non-finite flow it leaves.

The sweep never clears the padding. There, as in the frames that a short
last block leaves unused, every coefficient is zero, so the sweep writes
+0.0 or -0.0 into it. Each neighbour sum starts from two neighbours,
where a one-pair-at-a-time sweep starts from +0.0 and skips the missing
ones. That can change a sum only when every value it adds is -0.0, and
then only in the sign of the resulting zero. The flows therefore equal
those of the one-pair-at-a-time float32 sweep byte for byte, whatever the
block size, except in the sign of such a zero. A non-finite neighbour sum
turns a padding value into NaN (zero times infinity), which spreads, and
``sequence_flows`` refuses it with the other non-finite flow values.

Every buffer a sweep writes starts on a 64-byte boundary, and so do its u
and v halves: each half is rounded up to a multiple of 16 float32 values
by a gap whose coefficients are zero, and u gets a leading pad of whole
64-byte lines. numpy often allocates large arrays 16 bytes past such a
boundary, where on AVX-512 hardware a ufunc write took twice as long.
Alignment moves no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_params, param

BLOCK_PIXELS = 24576   # frame-pair pixels solved together in one block


@dataclass(frozen=True)
class FlowSection:
    alpha: float = param(10.0)
    iterations: int = param(100)

    __post_init__ = check_params


def _intensity_gradients(prev: np.ndarray, nxt: np.ndarray):
    """Ix, Iy and It of frames (or stacks of frames) over the last two axes."""
    mean = (prev + nxt) / 2.0
    iy, ix = np.gradient(mean, axis=(-2, -1))
    it = nxt - prev
    return ix, iy, it


def _aligned(shape, dtype) -> np.ndarray:
    """A zeroed ``dtype`` array of ``shape`` that starts on a 64-byte boundary."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.zeros(math.prod(shape) + 64 // itemsize - 1, dtype)
    start = -raw.ctypes.data % 64 // itemsize
    return raw[start : start + math.prod(shape)].reshape(shape)


def sequence_flows(frames: np.ndarray, alpha: float = FlowSection.alpha,
                   iterations: int = FlowSection.iterations) -> np.ndarray:
    """Flows between the consecutive frames of a ``(t, y, x)`` volume.

    Returns one ``(t - 1, 2, y, x)`` float64 array: ``[i, 0]`` is u and
    ``[i, 1]`` is v of the pair (frames[i], frames[i + 1]), solved in
    blocks of consecutive pairs. Deterministic: same inputs give
    bit-identical output. The flows equal ``tests/oracles.folded_flow32``,
    the same sweep one pair at a time, byte for byte but for the sign of a
    zero.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValidationError("need a (t, y, x) volume with at least 2 frames")
    if min(frames.shape[1:]) < 2:
        raise ValidationError(f"frames must be at least 2x2 pixels, got {frames.shape[1:]}")
    FlowSection(alpha, iterations)
    frames = frames.astype(np.float64)
    prev, nxt = frames[:-1], frames[1:]
    pairs, h, w = prev.shape
    block = min(pairs, max(1, BLOCK_PIXELS // (h * w)))
    row = w + 1
    size = block * (h + 1) * row
    stride = -(-size // 16) * 16    # u and v each start on a 64-byte boundary
    lead = -(-row // 16) * 16       # zeros above u, at least one row

    # gain[0] = gain_u goes with u's terms and gain[1] = gain_v with v's
    gain, offset, sums, scratch = (_aligned((2, stride), np.float32) for _ in range(4))
    coupling = _aligned((stride,), np.float32)
    # u then v, with zeros before and at least one row of zeros after
    field = _aligned((lead + 2 * stride + row,), np.float32)
    uv = field[lead : lead + 2 * stride].reshape(2, stride)
    # below, above, right, left: the order in which the per-pair sweep adds them
    neighbors = [field[lead + step : lead + step + 2 * stride] for step in (row, -row, 1, -1)]
    flat_sums = sums.reshape(-1)
    # each buffer's (..., block, h, w) pixels, a padding row and column after each frame
    gain_px, offset_px, coupling_px, uv_px = (
        buffer[..., :size].reshape(*buffer.shape[:-1], block, h + 1, row, copy=False)[..., :h, :w]
        for buffer in (gain, offset, coupling, uv))

    counts = np.full((h, w), 4.0)
    counts[[0, -1], :] -= 1.0
    counts[:, [0, -1]] -= 1.0
    smooth = alpha * alpha * counts
    flows = np.empty((pairs, 2, h, w))
    # overflow, 0/0 and inf/inf leave flow values that are refused below
    with np.errstate(all="ignore"):
        for start in range(0, pairs, block):
            k = min(block, pairs - start)
            # a short last block leaves frames k.. with zero coefficients
            for buffer in (gain, coupling, offset, field):
                buffer.fill(0.0)
            ix, iy, it = _intensity_gradients(prev[start : start + k], nxt[start : start + k])
            ixx, iyy = ix * ix, iy * iy
            total = ixx + iyy + smooth
            scale = counts * total
            np.divide(iyy + smooth, scale, out=gain_px[0, :k])
            np.divide(ixx + smooth, scale, out=gain_px[1, :k])
            np.divide(ix * iy, scale, out=coupling_px[:k])
            np.divide(ix * it, total, out=offset_px[0, :k])
            np.divide(iy * it, total, out=offset_px[1, :k])
            for _ in range(iterations):
                np.add(neighbors[0], neighbors[1], out=flat_sums)
                flat_sums += neighbors[2]
                flat_sums += neighbors[3]
                # u = gain_u*S_u - coupling*S_v - offset_u and v = gain_v*S_v - coupling*S_u - offset_v
                np.multiply(gain, sums, out=uv)
                np.multiply(coupling, sums[::-1], out=scratch)
                uv -= scratch
                uv -= offset
            flows[start : start + k] = uv_px[:, :k].swapaxes(0, 1)
    if not np.all(np.isfinite(flows)):
        raise ValidationError("flow values must be finite")
    return flows
