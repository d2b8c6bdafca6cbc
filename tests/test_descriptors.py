from functools import lru_cache

import numpy as np
import pytest
from oracles import reference_covariance, reference_hof, reference_kinematics, reference_logc

from egoact import descriptors
from egoact.descriptors import (
    HofParams,
    LogcParams,
    covariance_descriptor,
    hof_from_flows,
    hof_window_histogram,
    kinematic_features,
    logc_from_flows,
    logc_window_descriptor,
    regularize_covariance,
    vectorize_symmetric,
)
from egoact.errors import ValidationError
from egoact.flow import sequence_flows
from egoact.synth import SynthConfig, synthesize_video


def constant_flow(u, v, shape=(16, 16)):
    return np.stack([np.full(shape, float(u)), np.full(shape, float(v))])


def random_flows(rng, count=3, shape=(16, 16), scale=1.0):
    return np.stack([
        np.stack([scale * rng.normal(size=shape), scale * rng.normal(size=shape)])
        for _ in range(count)
    ])


def features_of(flows):
    """Kinematic features of flows over a volume of all-zero frames."""
    flows = np.asarray(flows)
    return kinematic_features(flows, np.zeros((len(flows) + 1, *flows.shape[2:])))


# ---------------------------------------------------------------------------
# HOF

def test_uniform_rightward_flow_lands_in_bin_zero():
    params = HofParams(grid_size=2, window_len=4, stride=4, min_magnitude=0.0)
    hist = hof_window_histogram(np.stack([constant_flow(1.0, 0.0)] * 3), params)
    cells = hist.reshape(2, 2, 8)
    assert np.allclose(cells[:, :, 0], 0.25)
    assert np.abs(cells[:, :, 1:]).max() == 0.0
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def rotate90(flows):
    return np.stack([-flows[:, 1], flows[:, 0]], axis=1)


@pytest.mark.parametrize("quarter_turns", [1, 2, 3])
def test_hof_cyclic_shift_under_rotation(quarter_turns):
    rng = np.random.default_rng(42)
    params = HofParams(grid_size=3, window_len=4, stride=4, min_magnitude=0.0)
    flows = random_flows(rng)
    rotated = flows
    for _ in range(quarter_turns):
        rotated = rotate90(rotated)
    # raw accumulations shift exactly; the normalized ones only differ by
    # the summation order inside the L1 total
    base = hof_window_histogram(flows, params, normalize=False).reshape(3, 3, 8)
    turned = hof_window_histogram(rotated, params, normalize=False).reshape(3, 3, 8)
    assert np.array_equal(turned, np.roll(base, 2 * quarter_turns, axis=2))
    base_n = hof_window_histogram(flows, params).reshape(3, 3, 8)
    turned_n = hof_window_histogram(rotated, params).reshape(3, 3, 8)
    assert np.allclose(turned_n, np.roll(base_n, 2 * quarter_turns, axis=2), rtol=1e-12)


def test_zero_motion_with_threshold_gives_zero_descriptor():
    params = HofParams(grid_size=2, window_len=4, stride=4, min_magnitude=0.05)
    hist = hof_window_histogram(np.stack([constant_flow(0.0, 0.0)] * 3), params)
    assert np.abs(hist).max() == 0.0


def test_hof_descriptor_norm_is_zero_or_one():
    rng = np.random.default_rng(1)
    params = HofParams(grid_size=2, window_len=3, stride=1, min_magnitude=0.3)
    for scale in (0.01, 0.2, 1.0, 4.0):
        hist = hof_window_histogram(random_flows(rng, count=2, scale=scale), params)
        assert hist.min() >= 0.0
        total = hist.sum()
        assert abs(total) <= 1e-12 or abs(total - 1.0) <= 1e-12


def test_hof_window_layout():
    rng = np.random.default_rng(2)
    flows = random_flows(rng, count=23)  # a 24-frame video
    params = HofParams(grid_size=4, window_len=16, stride=8)
    dset = hof_from_flows(flows, params)
    assert dset.count == 2
    assert dset.dim == 4 * 4 * 8
    with pytest.raises(ValidationError):
        hof_from_flows(flows[:10], params)  # 11 frames < window_len


def test_hof_grid_may_be_as_fine_as_the_shorter_side_and_no_finer():
    """On 16-row, 20-column frames a 16-cell grid gives every cell one row; a
    17-cell grid would leave cells that no pixel reaches."""
    flows = random_flows(np.random.default_rng(3), count=3, shape=(16, 20))
    hist = hof_window_histogram(flows, HofParams(grid_size=16, window_len=4, min_magnitude=0.0))
    assert (hist.reshape(16 * 16, 8).sum(axis=1) > 0.0).all()
    for call in (hof_window_histogram, hof_from_flows):
        with pytest.raises(ValidationError) as refused:
            call(flows, HofParams(grid_size=17, window_len=4))
        assert str(refused.value) == ("hof grid of 17 cells per side needs frames of at least "
                                      "17x17 pixels, got 20x16")


# ---------------------------------------------------------------------------
# kinematic features

def rotation_flow(omega=0.1, size=32):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    center = (size - 1) / 2.0
    return np.stack([-omega * (ys - center), omega * (xs - center)])


def test_kinematics_on_rotation_field():
    feats = features_of([rotation_flow(omega=0.1)])[0]
    div, vort = feats[..., 7], feats[..., 8]
    grad_norm, strain_norm, shear = feats[..., 9], feats[..., 10], feats[..., 11]
    assert np.allclose(div, 0.0, atol=1e-13)
    assert np.allclose(vort, 0.2, atol=1e-13)
    assert np.allclose(shear, 0.0, atol=1e-13)
    assert np.allclose(strain_norm, 0.0, atol=1e-13)
    assert np.allclose(grad_norm, np.sqrt(2) * 0.1, atol=1e-13)


def test_kinematics_on_expansion_field():
    size = 16
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    center = (size - 1) / 2.0
    feats = features_of([np.stack([xs - center, ys - center])])[0]
    assert np.allclose(feats[..., 7], 2.0, atol=1e-13)              # divergence
    assert np.allclose(feats[..., 8], 0.0, atol=1e-13)              # vorticity
    assert np.allclose(feats[..., 9], np.sqrt(2.0), atol=1e-13)     # gradient norm


def test_kinematics_zero_flow():
    flow = constant_flow(0.0, 0.0, shape=(8, 8))
    prev = np.zeros((8, 8))
    nxt = np.full((8, 8), 3.0)
    feats = kinematic_features(flow[None], np.stack([prev, nxt]))[0]
    assert np.abs(np.delete(feats, 2, axis=-1)).max() == 0.0
    assert np.array_equal(feats[..., 2], np.full((8, 8), 3.0))


def test_strain_vorticity_gradient_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=(12, 12))
        v = rng.normal(size=(12, 12))
        feats = features_of([np.stack([u, v])])[0]
        grad_norm, strain_norm, vort = feats[..., 9], feats[..., 10], feats[..., 8]
        assert np.allclose(strain_norm**2 + vort**2 / 2.0, grad_norm**2, atol=1e-12)


@pytest.mark.parametrize("height, width", [(13, 20), (9, 9)])
@pytest.mark.parametrize("pixel_step", [1, 2, 3])
def test_sampled_kinematics_are_the_sampled_full_grid(height, width, pixel_step):
    rng = np.random.default_rng(height * width + pixel_step)
    flows = random_flows(rng, count=4, shape=(height, width))
    frames = rng.random((5, height, width)) * 255.0
    full = np.stack([reference_kinematics(u, v, frames[i], frames[i + 1])
                     for i, (u, v) in enumerate(flows)])
    assert kinematic_features(flows, frames).tobytes() == full.tobytes()
    sampled = kinematic_features(flows, frames, pixel_step)
    expected = full.reshape(4, height * width, 12)[:, ::pixel_step]
    if pixel_step == 1:
        expected = full
    assert sampled.shape == expected.shape and sampled.flags.c_contiguous
    assert sampled.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_kinematics_pixel_step_must_be_a_count():
    flows = np.zeros((1, 2, 4, 4))
    for step in (0, 1.5, True):
        with pytest.raises(ValidationError):
            kinematic_features(flows, np.zeros((2, 4, 4)), step)


# ---------------------------------------------------------------------------
# covariance and the log-Euclidean embedding

def test_covariance_of_identical_samples_is_zero():
    samples = np.tile(np.arange(12.0), (20, 1))
    assert np.abs(covariance_descriptor(samples)).max() == 0.0


def test_covariance_monte_carlo_identity():
    rng = np.random.default_rng(123)
    samples = rng.normal(size=(10_000, 12))
    cov = covariance_descriptor(samples)
    assert np.abs(cov - np.eye(12)).max() <= 0.1


def test_covariance_needs_enough_samples():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        covariance_descriptor(rng.normal(size=(2, 12)))
    with pytest.raises(ValidationError):
        covariance_descriptor(rng.normal(size=(12, 12)))
    covariance_descriptor(rng.normal(size=(13, 12)))  # boundary is fine


def test_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(8)
    for _ in range(5):
        samples = rng.normal(size=(40, 12)) @ rng.normal(size=(12, 12))
        cov = covariance_descriptor(samples)
        min_eig = np.linalg.eigvalsh(cov)[0]
        assert min_eig >= -1e-10 * np.trace(cov)


def test_vectorize_preserves_frobenius_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sym = rng.normal(size=(12, 12))
        sym = (sym + sym.T) / 2.0
        vec = vectorize_symmetric(sym)
        assert vec.size == 78
        assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(sym), rel=1e-12)


def test_static_video_logc_descriptor():
    samples = np.zeros((200, 12))
    descriptor = logc_window_descriptor(samples)
    expected = vectorize_symmetric(np.log(1e-10) * np.eye(12))
    assert np.allclose(descriptor, expected, atol=1e-9)


def test_logc_identical_windows_match():
    rng = np.random.default_rng(9)
    block = rng.integers(0, 255, size=(8, 16, 16)).astype(np.uint8)
    frames = np.concatenate([block, block, block], axis=0)  # period = stride = 8
    base = [
        np.stack([rng.normal(size=(16, 16)), rng.normal(size=(16, 16))])
        for _ in range(8)
    ]
    flows = np.stack((base * 3)[: len(frames) - 1])  # periodic like the frames
    dset = logc_from_flows(frames, flows, LogcParams(window_len=16, stride=8))
    assert dset.count == 2
    assert np.allclose(dset.vectors[0], dset.vectors[1], atol=1e-12)


def test_regularization_floor():
    reg = regularize_covariance(np.zeros((12, 12)))
    assert np.allclose(reg, 1e-10 * np.eye(12))


# ---------------------------------------------------------------------------
# byte identity with the per-pair oracles

@lru_cache(maxsize=None)
def synth_flows(width, height):
    frames = synthesize_video(SynthConfig(width=width, height=height), 1, 0).frames
    return frames, sequence_flows(frames)


# (width, height, hof params, logc params)
ORACLE_CASES = {
    "32x32_defaults": (32, 32, HofParams(), LogcParams()),
    "64x64_defaults": (64, 64, HofParams(), LogcParams()),
    "grid3_no_threshold_step3": (32, 32, HofParams(grid_size=3, min_magnitude=0.0),
                                 LogcParams(pixel_step=3)),
    "two_frame_windows": (32, 32, HofParams(window_len=2, stride=1),
                          LogcParams(window_len=2, stride=1)),
    "20x13_grid1_step3": (20, 13, HofParams(grid_size=1, min_magnitude=0.5),
                          LogcParams(pixel_step=3)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_hof_matches_per_pair_oracle(case):
    width, height, params, _ = ORACLE_CASES[case]
    _, flows = synth_flows(width, height)
    expected = reference_hof([(u, v) for u, v in flows], params)
    assert hof_from_flows(flows, params).vectors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_logc_matches_per_pair_oracle(case):
    width, height, _, params = ORACLE_CASES[case]
    frames, flows = synth_flows(width, height)
    expected = reference_logc(frames, [(u, v) for u, v in flows], params)
    assert logc_from_flows(frames, flows, params).vectors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_logc_stays_near_the_row_major_covariance(case, monkeypatch):
    width, height, _, params = ORACLE_CASES[case]
    frames, flows = synth_flows(width, height)
    got = logc_from_flows(frames, flows, params).vectors
    monkeypatch.setattr(descriptors, "covariance_descriptor", reference_covariance)
    expected = reference_logc(frames, [(u, v) for u, v in flows], params)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-10 * np.maximum(1.0, np.abs(expected)))


# ---------------------------------------------------------------------------
# mirror symmetry: each stage gets the exact x-mirror of its own input

@lru_cache(maxsize=None)
def class_video(class_index):
    frames = synthesize_video(SynthConfig(width=64, height=64), class_index, 0).frames
    return frames, sequence_flows(frames)


def mirrored_flows(flows):
    """The flows of the x-mirrored video: mirrored, with u negated."""
    return flows[..., ::-1] * np.array([-1.0, 1.0])[:, None, None]


@pytest.mark.parametrize("class_index", range(8))
def test_hof_of_mirrored_flows_mirrors_cells_and_bins(class_index):
    """Cell columns reverse (64 px split evenly into 4 cells) and bin j (angle 45j)
    moves to (4 - j) mod 8 (angle 180 - 45j); only the L1 total's summation order changes, 5.6e-17 at worst
    over classes 0-7, so the bound leaves a 10x margin."""
    _, flows = class_video(class_index)
    params = HofParams()
    base = hof_from_flows(flows, params).vectors.reshape(-1, 4, 4, 8)
    got = hof_from_flows(mirrored_flows(flows), params).vectors.reshape(-1, 4, 4, 8)
    expected = base[:, :, ::-1][..., (4 - np.arange(8)) % 8]
    assert np.abs(got - expected).max() <= 5.6e-16


# u, u_y, v_x, vorticity and shear change sign under the mirror
MIRROR_SIGNS = np.array([-1, 1, 1, 1, -1, -1, 1, 1, -1, 1, 1, -1.0])


@pytest.mark.parametrize("class_index", range(8))
def test_logc_of_mirrored_input_flips_the_odd_components(class_index):
    """Each covariance entry (i, j) is multiplied by d_i * d_j, and so is its
    matrix log; only the pixel order of the sums changes, 4.1e-12 relative at
    worst over classes 0-7, so the bound leaves a 10x margin."""
    frames, flows = class_video(class_index)
    params = LogcParams(pixel_step=1)
    base = logc_from_flows(frames, flows, params).vectors
    got = logc_from_flows(frames[:, :, ::-1], mirrored_flows(flows), params).vectors
    expected = base * np.outer(MIRROR_SIGNS, MIRROR_SIGNS)[np.triu_indices(12)]
    assert np.all(np.abs(got - expected) <= 4.1e-11 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: covariance_descriptor(np.zeros(13)), "samples must be a (count, dim) array",
                 id="covariance_1d"),
    pytest.param(lambda: descriptors.temporal_quadrature_pair(1e308), "has too many taps to count",
                 id="filter_too_wide"),
    pytest.param(lambda: descriptors.gaussian_smooth(np.zeros((4, 4)), 1e-200, axes=(0,)),
                 "gives a spatial filter that is not finite", id="spatial_filter_not_finite"),
    pytest.param(lambda: descriptors.temporal_quadrature_pair(1e-200),
                 "gives a temporal filter that is not finite", id="temporal_filter_not_finite"),
])
def test_descriptor_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert message in str(refused.value)
