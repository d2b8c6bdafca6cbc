"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: the SVM oracle is
projected gradient ascent with an exact simplex-free projection, and the
kernel oracle evaluates one pair of vectors at a time with 1-D numpy
calls, where the package computes whole blocks of pairs in one broadcast
pass. ``folded_flow32`` is the package's float32 Horn-Schunck sweep
written one pair at a time on fresh temporaries; the blocked solver must
match it byte for byte. ``folded_flow`` is the same folded sweep in
float64, which the float32 flows must stay near, and ``reference_flow`` is
the textbook sweep that solves each pixel's 2x2 system in every sweep and
bounds ``folded_flow`` within rounding. The
hof and logc oracles build descriptors from a list of per-pair ``(u, v)``
flows, one pair at a time (``reference_kinematics`` is the logc oracle's
per-pair feature grid), where the package takes a video's flow as one
array; they too must match byte for byte. ``reference_cuboid_describe``
and ``reference_local_maxima_3d`` are the per-point cuboid gather and the
27-shift neighbourhood maximum the package shipped before it gathered every
point at once and took the maximum one axis at a time; the cuboid sets must
match them byte for byte. ``reference_gaussian_smooth`` and
``reference_cuboid_response`` are the pad-and-shift filters, one array pass
per tap, that the package ran before each filter became one matrix product;
``reference_covariance`` is the covariance the package took on row-major
``(count, dim)`` samples before it worked on component rows. These three
move in the low bits, so the tests bound them, and require the detected
points and cuboid sets built on the oracle response to match exactly. The quantizer
measures each centroid by direct differences instead of the expanded
squared-distance form that ``bow.quantize_batch`` uses. ``matrix_exp`` is
the inverse the matrix-log tests round-trip through. ``reference_smo`` is
the SMO loop the package shipped before its inner loop was trimmed to
fewer numpy calls, with LIBSVM's two label cases for the pair step; the
package's one step along the pair's line must match it byte for byte on
every case the byte tests give it. The one known difference is a last bit:
where a_i and a_j sit within rounding of each other and both cross C in
one step, the reference ends at (C - 1 ulp, C) and the package at (C, C).
``reference_simple_mkl`` and ``reference_boost_train`` are the two trainer
loops the package shipped before each stated a step once: SimpleMKL with
its ``converged`` flag, ``accepted`` pair and the
``reference_weight_gradient`` and ``reference_descent_direction`` helpers,
and boosting with its ``(error, m)`` candidate tuples. Both run the
package's SMO on ``random_bank`` problems; the trainers must match them bit
for bit (``same_bits``), at every stop. ``reference_repeat`` is the
repeat the package ran before it encoded a split into one matrix: the
training and test videos stacked apart; a repeat's confusion counts must
equal it. ``reference_kmeans`` is the k-means
the package ran on the points themselves before it moved to the pool's
Gram matrix: where no two
distances tie, the package must give its codebook bytes, with an inertia
history that differs only in rounding. ``reference_gram_kmeans`` is the
Gram-matrix k-means rebuilt from per-cluster point lists; the package
must match it byte for byte. ``flow_energy``, ``violation_gap``,
``kkt_residuals``, ``predict_labels``, ``training_error_bound`` and
``pair_confusion`` are the measures the tests and acceptance criteria
score results by.
"""

from dataclasses import fields, is_dataclass

import numpy as np

from egoact import boost, bow, mkl
from egoact.boost import (
    ERROR_CLAMP,
    BoostedModel,
    BoostSection,
    WeakClassifier,
    _weak_votes,
    resample,
    reweight_probabilities,
)
from egoact.dataio import FrameSequence
from egoact.descriptors import (
    KINEMATIC_DIM,
    ORIENTATION_BINS,
    CuboidParams,
    _gaussian_kernel,
    logc_window_descriptor,
    temporal_quadrature_pair,
)
from egoact.errors import ValidationError
from egoact.evaluation import random_split
from egoact.kernels import (
    DC_INT,
    GAUSSIAN,
    H_INT,
    JPL_DELTA,
    KernelSpec,
    check_bank,
    combine,
    gram_matrix,
)
from egoact.mkl import MklModel, MklSection
from egoact.modelio import fit, stack_histograms
from egoact.svm import SvmSection, check_binary_labels, smo_train


def project_box_equality(a0, y, box):
    """Exact projection onto {0 <= a <= box, y . a = 0} for labels in {-1,+1}.

    h(lam) = y . clip(a0 - lam*y, 0, box) is piecewise linear and
    non-increasing in lam; the root segment is found from the sorted
    breakpoints.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)

    def h(lam):
        return float(np.clip(a0 - lam * y, 0.0, box) @ y)

    breaks = np.concatenate([(a0 - box) * y, a0 * y])
    breaks = np.unique(breaks)
    values = np.array([h(b) for b in breaks])
    if values[0] <= 0.0:
        lo, hi = breaks[0] - 1.0, breaks[0]
    elif values[-1] >= 0.0:
        lo, hi = breaks[-1], breaks[-1] + 1.0
    else:
        idx = int(np.searchsorted(-values, 0.0, side="left"))
        idx = min(max(idx, 1), len(breaks) - 1)
        lo, hi = breaks[idx - 1], breaks[idx]
    h_lo, h_hi = h(lo), h(hi)
    if h_lo == h_hi:
        lam = lo
    else:
        lam = lo + (hi - lo) * h_lo / (h_lo - h_hi)
    return np.clip(a0 - lam * y, 0.0, box)


def svm_dual_oracle(kernel, y, box, max_iters=50_000, stop_tol=1e-13):
    """Maximize the SVM dual by projected gradient ascent, run to stagnation."""
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = np.outer(y, y) * kernel
    lipschitz = float(np.linalg.eigvalsh(q).max())
    step = 1.0 / max(lipschitz, 1e-9)
    alpha = np.zeros(y.size)
    for _ in range(max_iters):
        gradient = 1.0 - q @ alpha
        new_alpha = project_box_equality(alpha + step * gradient, y, box)
        if np.max(np.abs(new_alpha - alpha)) < stop_tol:
            alpha = new_alpha
            break
        alpha = new_alpha
    return alpha


def svm_dual_value(alpha, y, kernel) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ np.asarray(kernel) @ ay)


def random_bank(seed, m, n):
    """``(bank, y)``: one Gaussian kernel per 2-d block of ``n`` random points,
    each block shifted along the labels by its own random amount, both labels
    present."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    points = rng.normal(size=(n, 2 * m)) + rng.random(m).repeat(2) * y[:, None]
    sigmas = 0.5 + 3.0 * rng.random(m)
    return np.stack([gram_matrix(points, KernelSpec(GAUSSIAN, sigma=float(s), block=(2 * k, 2)))
                     for k, s in enumerate(sigmas)]), y


def same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same bits: records field by field, lists
    item by item, arrays and numbers by type, dtype, shape and bytes, so that
    ``-0.0`` and ``0.0`` differ."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_svm_problem(rng, max_size=8):
    """A small random binary kernel problem with both labels present."""
    n = int(rng.integers(3, max_size + 1))
    points = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    kernel = points @ points.T + 0.1 * np.eye(n)
    c = float(rng.choice([0.5, 1.0, 10.0]))
    return kernel, y, c


def quantize(vector, codebook) -> int:
    """Index of the nearest centroid (Euclidean); ties pick the lowest index."""
    diffs = codebook.centroids - np.asarray(vector, dtype=np.float64)[None, :]
    return int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))


def kernel_eval(spec, x, y) -> float:
    """Kernel value between two histogram vectors, one pair at a time.

    This is the per-pair evaluation the package shipped before kernel rows
    and Gram matrices were computed as one array pass.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if spec.block is not None:
        offset, length = spec.block
        x = x[offset : offset + length]
        y = y[offset : offset + length]
    if spec.kind == GAUSSIAN:
        diff = x - y
        return float(np.exp(-np.dot(diff, diff) / (2.0 * spec.sigma * spec.sigma)))
    mins = np.minimum(x, y)
    if spec.kind == H_INT:
        return float(mins.sum())
    block_sums = np.array([mins[o : o + n].sum() for o, n in spec.channels])
    if spec.kind == DC_INT:
        return float(block_sums.mean())
    exponents = spec.exponents or (1.0 / len(spec.channels),) * len(spec.channels)
    return float(np.prod((block_sums + JPL_DELTA) ** np.asarray(exponents)))


def _neighbor_sums(field):
    out = np.zeros_like(field)
    out[:-1, :] += field[1:, :]
    out[1:, :] += field[:-1, :]
    out[:, :-1] += field[:, 1:]
    out[:, 1:] += field[:, :-1]
    return out


def _neighbor_counts(shape):
    counts = np.full(shape, 4.0)
    counts[0, :] -= 1.0
    counts[-1, :] -= 1.0
    counts[:, 0] -= 1.0
    counts[:, -1] -= 1.0
    return counts


def reference_flow(prev, nxt, alpha=10.0, iterations=100):
    """Horn-Schunck flow of one frame pair, one sweep of fresh temporaries at a time.

    Returns (u, v). This is the per-pair solver the package shipped before
    flow was solved in blocks of pairs.
    """
    prev = np.asarray(prev).astype(np.float64)
    nxt = np.asarray(nxt).astype(np.float64)
    mean = (prev + nxt) / 2.0
    iy, ix = np.gradient(mean)
    it = nxt - prev
    a2 = alpha * alpha
    deg = _neighbor_counts(prev.shape)
    diag_u = ix * ix + a2 * deg
    diag_v = iy * iy + a2 * deg
    cross = ix * iy
    det = diag_u * diag_v - cross * cross

    u = np.zeros_like(prev)
    v = np.zeros_like(prev)
    for _ in range(iterations):
        rhs_u = a2 * _neighbor_sums(u) - ix * it
        rhs_v = a2 * _neighbor_sums(v) - iy * it
        u = (diag_v * rhs_u - cross * rhs_v) / det
        v = (diag_u * rhs_v - cross * rhs_u) / det
    return u, v


def folded_flow(prev, nxt, alpha=10.0, iterations=100):
    """``reference_flow``'s sweep with each pixel's 2x2 inverse folded into coefficients.

    Returns (u, v). The coefficients are computed once; each sweep is then
    u = gain_u*S_u - coupling*S_v - offset_u (and v likewise) on fresh
    temporaries, one pair at a time. Only the rounding differs from
    ``reference_flow``.
    """
    prev = np.asarray(prev).astype(np.float64)
    nxt = np.asarray(nxt).astype(np.float64)
    mean = (prev + nxt) / 2.0
    iy, ix = np.gradient(mean)
    it = nxt - prev
    a2 = alpha * alpha
    deg = _neighbor_counts(prev.shape)
    diag_u = ix * ix + a2 * deg
    diag_v = iy * iy + a2 * deg
    cross = ix * iy
    det = diag_u * diag_v - cross * cross
    gain_u = a2 * diag_v / det
    gain_v = a2 * diag_u / det
    coupling = a2 * cross / det
    offset_u = (diag_v * (ix * it) - cross * (iy * it)) / det
    offset_v = (diag_u * (iy * it) - cross * (ix * it)) / det

    u = np.zeros_like(prev)
    v = np.zeros_like(prev)
    for _ in range(iterations):
        sum_u = _neighbor_sums(u)
        sum_v = _neighbor_sums(v)
        u = gain_u * sum_u - coupling * sum_v - offset_u
        v = gain_v * sum_v - coupling * sum_u - offset_v
    return u, v


def folded_flow32(prev, nxt, alpha=10.0, iterations=100):
    """``folded_flow``'s sweep in float32, on closed-form coefficients.

    Returns (u, v) widened to float64. With n the neighbour count,
    s = alpha^2*n and T = Ix^2 + Iy^2 + s, the coefficients gain_u =
    (Iy^2 + s)/(n*T), gain_v = (Ix^2 + s)/(n*T), coupling = Ix*Iy/(n*T),
    offset_u = Ix*It/T and offset_v = Iy*It/T are computed in float64 and
    rounded to float32 once; every sweep then runs in float32 on fresh
    temporaries, one pair at a time.
    """
    prev = np.asarray(prev).astype(np.float64)
    nxt = np.asarray(nxt).astype(np.float64)
    mean = (prev + nxt) / 2.0
    iy, ix = np.gradient(mean)
    it = nxt - prev
    deg = _neighbor_counts(prev.shape)
    smooth = alpha * alpha * deg
    total = ix * ix + iy * iy + smooth
    scale = deg * total
    gain_u = ((iy * iy + smooth) / scale).astype(np.float32)
    gain_v = ((ix * ix + smooth) / scale).astype(np.float32)
    coupling = (ix * iy / scale).astype(np.float32)
    offset_u = (ix * it / total).astype(np.float32)
    offset_v = (iy * it / total).astype(np.float32)

    u = np.zeros(prev.shape, np.float32)
    v = np.zeros(prev.shape, np.float32)
    for _ in range(iterations):
        sum_u = _neighbor_sums(u)
        sum_v = _neighbor_sums(v)
        u = gain_u * sum_u - coupling * sum_v - offset_u
        v = gain_v * sum_v - coupling * sum_u - offset_v
    return u.astype(np.float64), v.astype(np.float64)


def reference_hof(flows, params):
    """HOF vectors of a video from its flows, a list of (u, v) pairs.

    This is the per-pair accumulation the package shipped before a video's
    flow became one array: ``np.add.at`` into each window's histogram, one
    pair after the other.
    """
    s = params.grid_size
    vectors = []
    for t0 in range(0, len(flows) + 2 - params.window_len, params.stride):
        hist = np.zeros((s, s, ORIENTATION_BINS))
        for u, v in flows[t0 : t0 + params.window_len - 1]:
            h, w = u.shape
            mag = np.hypot(u, v)
            weights = np.where(mag >= params.min_magnitude, mag, 0.0)
            degrees = np.degrees(np.arctan2(v, u))
            bins = (np.floor((degrees + 22.5) / 45.0).astype(np.int64)) % ORIENTATION_BINS
            rows = np.minimum((np.arange(h) * s) // h, s - 1)
            cols = np.minimum((np.arange(w) * s) // w, s - 1)
            rows = np.broadcast_to(rows[:, None], (h, w))
            cols = np.broadcast_to(cols[None, :], (h, w))
            np.add.at(hist, (rows.ravel(), cols.ravel(), bins.ravel()), weights.ravel())
        flat = hist.ravel()
        total = flat.sum()
        vectors.append(flat / total if total > 0.0 else flat)
    return np.asarray(vectors)


def reference_kinematics(u, v, prev, nxt):
    """The (h, w, 12) kinematic features of one pair's flow, computed on full grids."""
    u_y, u_x = np.gradient(u)
    v_y, v_x = np.gradient(v)
    div = u_x + v_y
    vort = v_x - u_y
    shear = u_y + v_x
    grad_norm = np.sqrt(u_x**2 + u_y**2 + v_x**2 + v_y**2)
    strain_norm = np.sqrt(u_x**2 + v_y**2 + 0.5 * shear**2)
    return np.stack(
        [u, v, nxt - prev, u_x, u_y, v_x, v_y, div, vort, grad_norm, strain_norm, shear],
        axis=-1,
    )


def reference_logc(frames, flows, params):
    """logc vectors of a (t, h, w) volume from its flows, a list of (u, v) pairs.

    This is the per-pair code the package shipped before a video's flow
    became one array: kinematic features pair by pair, each subsampled,
    concatenated per window.
    """
    frames = np.asarray(frames).astype(np.float64)
    per_pair = []
    for i, (u, v) in enumerate(flows):
        feats = reference_kinematics(u, v, frames[i], frames[i + 1])
        per_pair.append(feats.reshape(-1, KINEMATIC_DIM)[:: params.pixel_step])
    vectors = []
    for t0 in range(0, len(frames) + 1 - params.window_len, params.stride):
        pooled = np.concatenate(per_pair[t0 : t0 + params.window_len - 1], axis=0)
        vectors.append(logc_window_descriptor(pooled))
    return np.asarray(vectors)


def reference_local_maxima_3d(resp: np.ndarray) -> np.ndarray:
    padded = np.pad(resp, 1, mode="constant", constant_values=-np.inf)
    window_max = np.full_like(resp, -np.inf)
    for dt in range(3):
        for dy in range(3):
            for dx in range(3):
                shifted = padded[
                    dt : dt + resp.shape[0],
                    dy : dy + resp.shape[1],
                    dx : dx + resp.shape[2],
                ]
                np.maximum(window_max, shifted, out=window_max)
    return resp >= window_max


def reference_intensity_gradients_3d(volume: np.ndarray):
    g_t, g_y, g_x = np.gradient(volume.astype(np.float64))
    return g_x, g_y, g_t


def reference_cuboid_describe(seq: FrameSequence, point, params: CuboidParams,
                              normalize: bool = True, gradients=None) -> np.ndarray:
    """Flattened gradient vector of the cuboid around one interest point.

    Gradients use central differences (one-sided at volume borders); the
    spatio-temporal window is clamped by replication at the borders. The
    flattening runs over (t, y, x, component) with components (gx, gy, gt)
    and the result is L2-normalized unless told otherwise.
    """
    x, y, t = int(point[0]), int(point[1]), int(point[2])
    if gradients is None:
        gradients = reference_intensity_gradients_3d(seq.frames)
    g_x, g_y, g_t = gradients

    r_xy = (params.side_xy - 1) // 2
    r_t = (params.side_t - 1) // 2
    ts = np.clip(np.arange(t - r_t, t + r_t + 1), 0, seq.frame_count - 1)
    ys = np.clip(np.arange(y - r_xy, y + r_xy + 1), 0, seq.height - 1)
    xs = np.clip(np.arange(x - r_xy, x + r_xy + 1), 0, seq.width - 1)
    grid = np.ix_(ts, ys, xs)
    patch = np.stack([g_x[grid], g_y[grid], g_t[grid]], axis=-1)
    vec = patch.ravel()
    if normalize:
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec = vec / norm
    return vec


def _reference_correlate_valid(volume, kernel, axis):
    length = volume.shape[axis] - (kernel.size - 1)
    out = np.zeros(volume.shape[:axis] + (length,) + volume.shape[axis + 1:])
    index = [slice(None)] * volume.ndim
    for k, weight in enumerate(kernel):
        index[axis] = slice(k, k + length)
        out += weight * volume[tuple(index)]
    return out


def reference_gaussian_smooth(volume, sigma, axes):
    """Separable Gaussian smoothing, each axis reflect-padded and then
    correlated one tap at a time."""
    kernel = _gaussian_kernel(sigma)
    for axis in axes:
        pad = [(0, 0)] * volume.ndim
        pad[axis] = (kernel.size // 2,) * 2
        volume = _reference_correlate_valid(np.pad(volume, pad, mode="reflect"), kernel, axis)
    return volume


def reference_cuboid_response(seq, params):
    """The detector response and its frame offset, from the pad-and-shift filters."""
    even, odd = temporal_quadrature_pair(params.tau)
    smoothed = reference_gaussian_smooth(seq.frames.astype(np.float64), params.sigma, axes=(1, 2))
    r_even = _reference_correlate_valid(smoothed, even, axis=0)
    r_odd = _reference_correlate_valid(smoothed, odd, axis=0)
    return r_even * r_even + r_odd * r_odd, even.size // 2


def reference_cuboid_points(seq, params):
    """Interest points as (x, y, t, response), found on the oracle response
    with the 27-shift maximum and ordered like ``cuboid_detect``."""
    resp, t_offset = reference_cuboid_response(seq, params)
    ts, ys, xs = np.nonzero(reference_local_maxima_3d(resp) & (resp > params.threshold))
    order = np.lexsort((xs, ys, ts, -resp[ts, ys, xs]))[: params.max_points]
    return [(int(xs[i]), int(ys[i]), int(ts[i] + t_offset), float(resp[ts[i], ys[i], xs[i]]))
            for i in order]


def reference_cuboid_descriptors(seq, params):
    """The ``(P, descriptor_dim)`` cuboid set built one point at a time on
    ``reference_cuboid_points``."""
    points = reference_cuboid_points(seq, params)
    gradients = reference_intensity_gradients_3d(seq.frames)
    vectors = [reference_cuboid_describe(seq, p, params, gradients=gradients) for p in points]
    return np.asarray(vectors).reshape(len(points), params.descriptor_dim)


def reference_covariance(samples):
    """Unbiased sample covariance of row-major ``(count, dim)`` samples: the
    mean down each column, then ``centered.T @ centered``."""
    samples = np.asarray(samples, dtype=np.float64)
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / (len(samples) - 1)
    return (cov + cov.T) / 2.0


def matrix_exp(a):
    """Exponential of a symmetric matrix, rebuilt from its ``eigh`` eigenpairs
    like ``linalg.matrix_log``."""
    evals, vecs = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    mapped = (vecs * np.exp(evals)) @ vecs.T
    return (mapped + mapped.T) / 2.0


def reference_smo(kernel, y, c_reg, tol=1e-3, max_iter=None):
    """Maximal-violating-pair SMO, rebuilding both working-set masks each step.

    Returns ``(alpha, bias, iterations, objective, history)`` where
    ``history`` is the dual objective after every step (starting at 0.0),
    or raises ``RuntimeError`` with the violation gap when ``max_iter``
    steps do not close it.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    box = np.full(n, c_reg)
    if max_iter is None:
        max_iter = 100_000 + 200 * n

    def objective_of(alpha):
        ay = alpha * y
        return float(alpha.sum() - 0.5 * ay @ kernel @ ay)

    q = np.outer(y, y) * kernel
    alpha = np.zeros(n)
    grad = -np.ones(n)
    history = [0.0]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < box))
        if not up.any() or not low.any():
            converged = True
            iterations -= 1
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        j = int(np.argmin(np.where(low, neg_yg, np.inf)))
        if neg_yg[i] - neg_yg[j] <= tol:
            converged = True
            iterations -= 1
            break

        old_i, old_j = alpha[i], alpha[j]
        ci, cj = box[i], box[j]
        quad = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        if quad <= 0.0:
            quad = 1e-12
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0.0:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > ci - cj:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = ci - diff
            else:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = cj + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > ci:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = total - ci
            else:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > cj:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = total - cj
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = total
        grad += q[:, i] * (alpha[i] - old_i) + q[:, j] * (alpha[j] - old_j)
        history.append(objective_of(alpha))

    neg_yg = -y * grad
    up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < box))
    if not converged:
        gap = float(np.max(np.where(up, neg_yg, -np.inf)) - np.min(np.where(low, neg_yg, np.inf)))
        raise RuntimeError(f"violation gap={gap:.3e}")

    free = (alpha > 1e-12) & (alpha < box - 1e-12)
    if free.any():
        bias = float(np.mean(neg_yg[free]))
    else:
        hi = np.max(np.where(up, neg_yg, -np.inf)) if up.any() else 0.0
        lo = np.min(np.where(low, neg_yg, np.inf)) if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, iterations, objective_of(alpha), history


def reference_weight_gradient(bank, svm):
    return -0.5 * np.einsum("i,mij,j->m", svm.dual_coef, bank, svm.dual_coef)


def reference_descent_direction(weights, grad):
    # Reduced gradient against the heaviest coordinate; zero-weight
    # coordinates may only move up.
    anchor = int(np.argmax(weights))
    reduced = grad - grad[anchor]
    direction = -reduced
    direction[(weights <= 0.0) & (direction < 0.0)] = 0.0
    direction[anchor] = 0.0
    direction[anchor] = -direction.sum()
    return direction


def reference_simple_mkl(bank, y, c_reg, params=MklSection(), svm_tol=SvmSection.tol):
    """SimpleMKL's reduced-gradient walk with a ``converged`` flag and an
    ``accepted`` pair; reads ``mkl.MAX_LINE_SEARCH`` at call time."""
    bank = check_bank(bank, y)
    m = len(bank)
    weights = np.full(m, 1.0 / m)

    svm = smo_train(combine(bank, weights), y, c_reg, tol=svm_tol)
    objective = svm.objective
    history = [objective]
    converged = False

    for _ in range(params.max_outer):
        grad = reference_weight_gradient(bank, svm)
        direction = reference_descent_direction(weights, grad)
        if np.max(np.abs(direction)) <= 1e-14:
            converged = True
            break

        negative = direction < 0.0
        step = float(np.min(-weights[negative] / direction[negative]))
        accepted = None
        for _ in range(mkl.MAX_LINE_SEARCH):
            trial = np.maximum(weights + step * direction, 0.0)
            trial /= trial.sum()
            trial_svm = smo_train(combine(bank, trial), y, c_reg, tol=svm_tol,
                                  alpha0=np.abs(svm.dual_coef))
            if trial_svm.objective < objective:
                accepted = (trial, trial_svm)
                break
            step /= 2.0
        if accepted is None:
            converged = True
            break

        new_weights, new_svm = accepted
        delta_w = float(np.max(np.abs(new_weights - weights)))
        delta_obj = objective - new_svm.objective
        weights, svm, objective = new_weights, new_svm, new_svm.objective
        history.append(objective)
        if delta_w < params.weight_tol or delta_obj <= params.objective_tol * abs(objective):
            converged = True
            break

    return MklModel(weights, svm, converged, history)


def reference_boost_train(bank, y, trials, c_reg, seed, svm_tol=SvmSection.tol):
    """Boosting trials that keep every kernel's candidate as an ``(error, m,
    weak, votes)`` tuple and pick the ``(error, m)`` minimum; reads
    ``boost.MAX_REDRAWS`` at call time."""
    bank = check_bank(bank, y)
    BoostSection(trials)
    y = check_binary_labels(y)
    n = len(y)

    rng = np.random.default_rng(seed)
    p = np.full(n, 1.0 / n)
    kept = []

    for _ in range(trials):
        chosen = None
        for _ in range(boost.MAX_REDRAWS):
            idx = resample(p, n, rng)
            y_sub = y[idx]
            if not ((y_sub > 0).any() and (y_sub < 0).any()):
                continue
            candidates = []
            for m in range(len(bank)):
                weak = smo_train(bank[m][np.ix_(idx, idx)], y_sub, c_reg, tol=svm_tol)
                votes = _weak_votes(weak, bank[m][:, idx])
                error = float(p[votes != y].sum())
                candidates.append((error, m, weak, votes))
            best_error, best_m, best_weak, best_votes = min(candidates, key=lambda c: (c[0], c[1]))
            if best_error < 0.5:
                chosen = (best_error, best_m, best_weak, best_votes, idx)
                break
        if chosen is None:
            break

        raw_error, m_t, weak, votes, idx = chosen
        error = min(max(raw_error, ERROR_CLAMP), 0.5 - ERROR_CLAMP)
        weight = float(0.5 * np.log((1.0 - error) / error))
        kept.append(WeakClassifier(m_t, idx, weak, weight, error))
        p = reweight_probabilities(p, votes == y, weight)

    if not kept:
        raise ValidationError(
            f"no boosting trial beat 0.5 weighted error after {boost.MAX_REDRAWS} redraws "
            f"(n={n}, kernels={len(bank)})"
        )
    return BoostedModel(kept)


def reference_repeat(manifest, descriptor_cache, cfg, method, repeat_index):
    """One repeat as the package ran it before it stacked the split once: the
    training videos encoded and stacked, then the test videos encoded and
    stacked on their own, with a label array for each side."""
    split, features = cfg.split, cfg.features
    train_ids, test_ids = random_split(manifest, split, repeat_index)
    label_of = {v.video_id: v.class_index for v in manifest.videos}

    codebooks = {}
    for fi, feature in enumerate(features):
        pooled = bow.pooled_descriptors((descriptor_cache[vid] for vid in train_ids), feature)
        words = min(cfg.bow.words, pooled.shape[0]) if cfg.bow.adaptive_words else cfg.bow.words
        seed = np.random.SeedSequence(entropy=split.base_seed, spawn_key=(repeat_index, 1, fi))
        codebooks[feature] = bow.kmeans(pooled, words, seed, max_iters=cfg.bow.max_iters)

    def histograms(ids):
        return [bow.encode_video(vid, {f: descriptor_cache[vid][f] for f in features}, codebooks)
                for vid in ids]

    train_x, layout = stack_histograms(histograms(train_ids))
    test_x = np.stack([h.concat() for h in histograms(test_ids)])
    y_train = np.array([label_of[vid] for vid in train_ids])
    y_test = np.array([label_of[vid] for vid in test_ids])

    model = fit(method, train_x, y_train, manifest.classes, layout, cfg, split.base_seed,
                (repeat_index, 2))
    confusion = np.zeros((len(manifest.classes),) * 2, dtype=np.int64)
    np.add.at(confusion, (y_test, model.predict(test_x)), 1)
    return confusion


def _reference_sq_distances(points, centroids):
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        + np.sum(centroids * centroids, axis=1)[None, :]
        - 2.0 * points @ centroids.T
    )
    return np.maximum(d2, 0.0)


def reference_kmeans(points, word_count, seed, max_iters=100):
    """k-means++ seeding then Lloyd's iterations, recomputing every point's
    squared norm at each distance evaluation; returns (centroids, inertia history)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((word_count, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _reference_sq_distances(points, centroids[:1]).ravel()
    for k in range(1, word_count):
        total = closest.sum()
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), target, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        centroids[k] = points[idx]
        np.minimum(closest, _reference_sq_distances(points, centroids[k : k + 1]).ravel(), out=closest)

    assignment = None
    inertia_history = []
    for _ in range(max_iters):
        d2 = _reference_sq_distances(points, centroids)
        new_assignment = np.argmin(d2, axis=1)
        inertia_history.append(float(d2[np.arange(n), new_assignment].sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        point_cost = d2[np.arange(n), assignment].copy()
        for k in range(word_count):
            members = assignment == k
            if members.any():
                centroids[k] = points[members].mean(axis=0)
            else:
                worst = int(np.argmax(point_cost))
                centroids[k] = points[worst]
                point_cost[worst] = -1.0
    return centroids, inertia_history


def reference_gram_kmeans(points, word_count, seed, max_iters=100):
    """k-means++ seeding then Lloyd's iterations on the pool's Gram matrix
    G = P P^T, each centroid held as the list of points it averages and its
    weight vector rebuilt from that list at each distance evaluation;
    returns (centroids, inertia history)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    gram = points @ points.T
    norms = gram.diagonal()

    def sq_distances(clusters):
        weights = np.zeros((len(clusters), n))
        for k, idx in enumerate(clusters):
            weights[k, idx] = 1.0 / len(idx)
        products = weights @ gram
        d2 = np.empty((n, len(clusters)))
        for k in range(len(clusters)):
            d2[:, k] = norms + np.sum(products[k] * weights[k]) - 2.0 * products[k]
        return np.maximum(d2, 0.0)

    rng = np.random.default_rng(seed)
    clusters = [[int(rng.integers(n))]]
    closest = sq_distances(clusters).ravel()
    for _ in range(1, word_count):
        total = closest.sum()
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), target, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        clusters.append([idx])
        np.minimum(closest, sq_distances([[idx]]).ravel(), out=closest)

    assignment = None
    inertia_history = []
    for _ in range(max_iters):
        d2 = sq_distances(clusters)
        new_assignment = np.argmin(d2, axis=1)
        inertia_history.append(float(d2[np.arange(n), new_assignment].sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        point_cost = d2[np.arange(n), assignment].copy()
        for k in range(word_count):
            members = [i for i in range(n) if assignment[i] == k]
            if members:
                clusters[k] = members
            else:
                worst = int(np.argmax(point_cost))
                clusters[k] = [worst]
                point_cost[worst] = -1.0
    return np.stack([points[idx].mean(axis=0) for idx in clusters]), inertia_history


def reference_quantize_batch(vectors, codebook):
    """Nearest word per row by the expanded squared distance, all norms recomputed."""
    return np.argmin(_reference_sq_distances(np.asarray(vectors, dtype=np.float64), codebook.centroids), axis=1)


def flow_energy(flow, prev, nxt, alpha=10.0) -> float:
    """Value of the Horn-Schunck objective for one pair's flow ``(2, H, W)``
    = (u, v) carrying ``prev`` onto ``nxt``."""
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    iy, ix = np.gradient((prev + nxt) / 2.0)
    data = ix * flow[0] + iy * flow[1] + (nxt - prev)
    smooth = np.sum(np.diff(flow, axis=1) ** 2) + np.sum(np.diff(flow, axis=2) ** 2)
    return float(np.sum(data * data) + alpha * alpha * smooth)


def violation_gap(kernel, y, alpha, c_reg) -> float:
    """SMO's stop measure at ``alpha``: the gap of the maximal violating pair,
    from a gradient computed afresh (-inf when no pair can move)."""
    y = np.asarray(y, dtype=np.float64)
    neg_yg = -y * ((np.outer(y, y) * np.asarray(kernel)) @ alpha - 1.0)
    up = ((y > 0) & (alpha < c_reg)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c_reg))
    return float(np.max(neg_yg[up], initial=-np.inf) - np.min(neg_yg[low], initial=np.inf))


def kkt_residuals(model, kernel, y) -> np.ndarray:
    """Per-item violation of the KKT margin conditions (0 when satisfied)."""
    y = np.asarray(y, dtype=np.float64)
    margins = y * (np.asarray(kernel) @ model.dual_coef + model.bias)
    alpha = np.abs(model.dual_coef)
    slack = 1e-9 * max(model.c_reg, 1.0)
    at_zero = alpha <= slack
    at_box = alpha >= model.c_reg - slack
    resid = np.abs(margins - 1.0)
    resid[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    resid[at_box] = np.maximum(0.0, margins[at_box] - 1.0)
    return resid


def predict_labels(scores) -> np.ndarray:
    """+1 for a nonnegative score, else -1."""
    return np.where(np.asarray(scores, dtype=np.float64) >= 0.0, 1, -1)


def training_error_bound(model) -> float:
    """Classical AdaBoost bound of a boosted model: prod_t 2 sqrt(e_t (1 - e_t))."""
    return float(np.prod([2.0 * np.sqrt(t.error * (1.0 - t.error)) for t in model.trials]))


def pair_confusion(report, class_a, class_b) -> float:
    """Accuracy restricted to two classes: of their test mass, the share
    that stayed on the correct side of the pair."""
    c = report.confusion
    within = c[class_a, class_a] + c[class_b, class_b]
    crossed = c[class_a, class_b] + c[class_b, class_a]
    total = within + crossed
    return float(within / total * 100.0) if total > 0 else 100.0
