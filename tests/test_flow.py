import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flow_energy, folded_flow, folded_flow32, reference_flow

from egoact import flow as flow_module
from egoact.errors import ValidationError
from egoact.descriptors import kinematic_features
from egoact.flow import sequence_flows
from egoact.synth import SynthConfig, synthesize_video


def smooth_texture(height, width, seed=0, sigma=2.0):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(height + 20, width + 20))
    radius = int(3 * sigma)
    taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma * sigma))
    taps /= taps.sum()
    for axis in (0, 1):
        noise = np.apply_along_axis(lambda m: np.convolve(m, taps, mode="same"), axis, noise)
    noise = noise[10 : 10 + height, 10 : 10 + width]
    noise = (noise - noise.min()) / (noise.max() - noise.min())
    return 40.0 + 170.0 * noise


def pair_flow(prev, nxt, **params):
    """The (2, H, W) flow of one frame pair."""
    return sequence_flows(np.stack([prev, nxt]), **params)[0]


def shifted_pair(shift=1, seed=3):
    tex = smooth_texture(40, 48, seed=seed)
    prev = tex[:, shift:-shift]
    nxt = np.roll(tex, shift, axis=1)[:, shift:-shift]
    return prev, nxt


def test_identical_frames_zero_flow():
    frame = smooth_texture(20, 20)
    u, v = pair_flow(frame, frame)
    assert np.abs(u).max() <= 1e-6
    assert np.abs(v).max() <= 1e-6


def test_one_pixel_shift_recovered():
    prev, nxt = shifted_pair(1)
    u, v = pair_flow(prev, nxt)
    interior = (slice(4, -4), slice(4, -4))
    assert 0.7 <= u[interior].mean() <= 1.3
    assert np.abs(v[interior]).mean() <= 0.3


def test_doubling_alpha_keeps_flow_sign():
    prev, nxt = shifted_pair(1)
    interior = (slice(4, -4), slice(4, -4))
    mean_base = pair_flow(prev, nxt, alpha=10.0)[0][interior].mean()
    mean_double = pair_flow(prev, nxt, alpha=20.0)[0][interior].mean()
    assert np.sign(mean_base) == np.sign(mean_double) == 1.0


def test_intensity_offset_invariance():
    prev, nxt = shifted_pair(1)
    base = pair_flow(prev, nxt, iterations=40)
    offset = pair_flow(prev + 30.0, nxt + 30.0, iterations=40)
    # identical up to rounding noise in the (value + offset) differences
    assert np.allclose(base[0], offset[0], atol=1e-9)
    assert np.allclose(base[1], offset[1], atol=1e-9)


def test_energy_non_increasing():
    prev, nxt = shifted_pair(1, seed=5)
    energies = [
        flow_energy(pair_flow(prev, nxt, alpha=8.0, iterations=k), prev, nxt, alpha=8.0)
        for k in range(1, 14)
    ]
    for before, after in zip(energies, energies[1:]):
        assert after <= before * (1 + 1e-12)


def test_mismatched_sizes_rejected():
    with pytest.raises(ValidationError):
        kinematic_features(np.zeros((1, 2, 4, 4)), np.zeros((2, 4, 5)))


def test_bad_params_rejected():
    frame = np.zeros((8, 8))
    with pytest.raises(ValidationError):
        pair_flow(frame, frame, alpha=0.0)
    with pytest.raises(ValidationError):
        pair_flow(frame, frame, iterations=0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), -1.0, True, "10"])
def test_non_finite_or_non_numeric_alpha_rejected(alpha):
    frames = np.zeros((3, 8, 8))
    with pytest.raises(ValidationError):
        sequence_flows(frames, alpha=alpha)
    with pytest.raises(ValidationError):
        pair_flow(frames[0], frames[1], alpha=alpha)


@pytest.mark.parametrize("iterations", [2.5, 3.0, True, "5"])
def test_non_integer_iterations_rejected(iterations):
    frames = np.zeros((3, 8, 8))
    with pytest.raises(ValidationError):
        sequence_flows(frames, iterations=iterations)
    with pytest.raises(ValidationError):
        pair_flow(frames[0], frames[1], iterations=iterations)


def test_numpy_scalar_params_accepted():
    frames = np.random.default_rng(4).random((3, 8, 8))
    flows = sequence_flows(frames, alpha=np.float64(10.0), iterations=np.int64(5))
    assert flows.tobytes() == sequence_flows(frames, alpha=10.0, iterations=5).tobytes()


def test_params_checked_once_per_call(monkeypatch):
    calls = []

    class CountedSection(flow_module.FlowSection):
        def __post_init__(self):
            calls.append(self)
            super().__post_init__()

    monkeypatch.setattr(flow_module, "FlowSection", CountedSection)
    sequence_flows(np.zeros((6, 8, 8)), iterations=2)
    assert len(calls) == 1


def test_frames_smaller_than_two_pixels_rejected():
    with pytest.raises(ValidationError):
        sequence_flows(np.zeros((3, 1, 8)))


def test_non_finite_frames_rejected():
    frames = np.zeros((3, 8, 8))
    frames[1, 2, 3] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        sequence_flows(frames)


def rotation_flow(omega=0.1, size=32):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    xc = yc = (size - 1) / 2.0
    return np.stack([-omega * (ys - yc), omega * (xs - xc)])


def derivatives(flow, prev, nxt):
    """u_x, u_y, v_x, v_y and I_t of one pair's (2, H, W) flow, from its kinematic features."""
    feats = kinematic_features(flow[None], np.stack([prev, nxt]))[0]
    return feats[..., 3], feats[..., 4], feats[..., 5], feats[..., 6], feats[..., 2]


def test_derivatives_of_constant_flow_are_zero():
    flow = np.stack([np.full((10, 12), 1.7), np.full((10, 12), -0.4)])
    frame = np.zeros((10, 12))
    u_x, u_y, v_x, v_y, _ = derivatives(flow, frame, frame)
    for grid in (u_x, u_y, v_x, v_y):
        assert np.abs(grid).max() == 0.0


def test_rotation_field_derivatives_exact():
    omega = 0.1
    flow = rotation_flow(omega)
    frame = np.zeros(flow.shape[1:])
    u_x, u_y, v_x, v_y, _ = derivatives(flow, frame, frame)
    # linear fields are exact under central and one-sided differences
    assert np.allclose(u_y, -omega, atol=1e-14)
    assert np.allclose(v_x, omega, atol=1e-14)
    assert np.allclose(u_x + v_y, 0.0, atol=1e-14)          # divergence
    assert np.allclose(v_x - u_y, 2 * omega, atol=1e-14)    # vorticity


def test_temporal_gradient_is_frame_difference():
    rng = np.random.default_rng(1)
    prev = rng.random((6, 7))
    nxt = rng.random((6, 7))
    flow = np.zeros((2, 6, 7))
    assert np.array_equal(derivatives(flow, prev, nxt)[4], nxt - prev)
    assert np.abs(derivatives(flow, prev, prev)[4]).max() == 0.0


def test_sequence_flows_counts():
    rng = np.random.default_rng(2)
    frames = rng.integers(0, 255, size=(5, 10, 10)).astype(np.float64)
    flows = sequence_flows(frames, iterations=5)
    assert len(flows) == 4
    with pytest.raises(ValidationError):
        sequence_flows(frames[:1])


# ---------------------------------------------------------------------------
# byte identity with the one-pair-at-a-time float32 folded sweep

def assert_matches_oracle(frames, alpha=10.0, iterations=100):
    flows = sequence_flows(frames, alpha=alpha, iterations=iterations)
    assert len(flows) == frames.shape[0] - 1
    assert flows.shape == (frames.shape[0] - 1, 2, *frames.shape[1:])
    for i, flow in enumerate(flows):
        u, v = folded_flow32(frames[i], frames[i + 1], alpha=alpha, iterations=iterations)
        assert flow[0].tobytes() == u.tobytes(), f"u differs at pair {i}"
        assert flow[1].tobytes() == v.tobytes(), f"v differs at pair {i}"


def block_size(height, width):
    return max(1, flow_module.BLOCK_PIXELS // (height * width))


@pytest.mark.parametrize("size", [32, 64])
def test_synth_video_matches_oracle(size):
    cfg = SynthConfig(width=size, height=size)
    frames = synthesize_video(cfg, 1, 0).frames
    # 23 pairs: the last block is a partial one at both sizes
    assert (frames.shape[0] - 1) % block_size(size, size) != 0
    assert_matches_oracle(frames)


def test_two_frame_volume_matches_oracle():
    frames = np.random.default_rng(5).integers(0, 256, size=(2, 32, 32)).astype(np.uint8)
    assert_matches_oracle(frames)


def test_odd_non_square_frames_match_oracle():
    frames = np.random.default_rng(6).random((7, 9, 13)) * 255.0
    assert_matches_oracle(frames, iterations=30)


def test_pair_count_not_multiple_of_block_matches_oracle():
    k = block_size(16, 16)
    frames = np.random.default_rng(7).integers(0, 256, size=(2 * k + 3, 16, 16)).astype(np.uint8)
    assert_matches_oracle(frames, iterations=20)


def test_frame_larger_than_block_budget_matches_oracle():
    width = 128
    height = flow_module.BLOCK_PIXELS // width + 1
    assert block_size(height, width) == 1
    frames = np.random.default_rng(8).integers(0, 256, size=(3, height, width)).astype(np.uint8)
    assert_matches_oracle(frames, iterations=8)


@pytest.mark.parametrize("width", range(7, 23))   # row = width + 1 takes every value mod 16
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_every_row_alignment_and_block_split_matches_oracle(monkeypatch, width, blocks):
    height, pairs = 6, 5
    k = {1: pairs, 2: 3, 3: 2}[blocks]   # 5 pairs as 5, 3 + 2 or 2 + 2 + 1
    monkeypatch.setattr(flow_module, "BLOCK_PIXELS", k * height * width)
    assert block_size(height, width) == k and -(-pairs // k) == blocks
    frames = np.random.default_rng(width).integers(0, 256, size=(pairs + 1, height, width))
    assert_matches_oracle(frames.astype(np.uint8), iterations=12)


def test_aligned_buffers_start_on_64_bytes():
    for dtype, shape in itertools.product([np.float32, np.float64],
                                          [(1,), (7,), (2, 33), (3, 5, 9), (17,)]):
        buffer = flow_module._aligned(shape, dtype)
        assert buffer.shape == shape and buffer.dtype == dtype and buffer.ctypes.data % 64 == 0
        assert (buffer == 0.0).all()


@pytest.mark.parametrize("alpha, iterations", [(2.5, 37), (40.0, 3), (1, 1)])
def test_non_default_params_match_oracle(alpha, iterations):
    frames = synthesize_video(SynthConfig(), 0, 1).frames[:6]
    assert_matches_oracle(frames, alpha=alpha, iterations=iterations)


def test_dense_flow_is_one_pair_of_sequence_flows():
    """The flow of one frame pair alone equals that pair's flow in the whole video."""
    frames = synthesize_video(SynthConfig(), 2, 0).frames
    pair = pair_flow(frames[3], frames[4], iterations=25)
    expected = sequence_flows(frames, iterations=25)[3]
    assert pair[0].tobytes() == expected[0].tobytes()
    assert pair[1].tobytes() == expected[1].tobytes()
    u, v = folded_flow32(frames[3], frames[4], iterations=25)
    assert pair[0].tobytes() == u.tobytes() and pair[1].tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pairs=st.integers(1, 4),
    height=st.integers(2, 12),
    width=st.integers(2, 12),
    exponent=st.none() | st.floats(-310.0, 6.0),
    alpha=st.floats(0.05, 100.0),
    iterations=st.integers(1, 15),
    block_pairs=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_volumes_match_oracle(pairs, height, width, exponent, alpha, iterations,
                                     block_pairs, seed):
    """uint8 or float frames from subnormal to 1e6, pairs split across blocks.

    The sweep starts each neighbour sum from two neighbours, and the padding
    holds whatever +-0.0 the sweep writes there with its zero coefficients,
    so a value may differ from the oracle's in the sign of a zero and in
    nothing else.
    """
    rng = np.random.default_rng(seed)
    shape = (pairs + 1, height, width)
    if exponent is None:
        frames = rng.integers(0, 256, size=shape).astype(np.uint8)
    else:
        frames = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** exponent
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_module, "BLOCK_PIXELS", block_pairs * height * width)
        flows = sequence_flows(frames, alpha=alpha, iterations=iterations)
    for i, flow in enumerate(flows):
        expected = np.stack(folded_flow32(frames[i], frames[i + 1], alpha=alpha,
                                          iterations=iterations))
        same = flow.view(np.uint64) == expected.view(np.uint64)
        assert np.all(same | ((flow == 0.0) & (expected == 0.0))), f"pair {i} differs"


# ---------------------------------------------------------------------------
# the float32 sweep stays near the float64 folded sweep, which stays within
# rounding of the textbook Jacobi sweep

def assert_near_reference(frames, iterations=100):
    """Every value within 1e-5*max(1, |flow|) of the float64 ``folded_flow``
    and every energy within 1e-6 of its energy; ``folded_flow`` itself within
    1e-12 of ``reference_flow`` in both."""
    flows = sequence_flows(frames, iterations=iterations)
    for i, flow in enumerate(flows):
        prev, nxt = frames[i].astype(np.float64), frames[i + 1].astype(np.float64)
        folded = np.stack(folded_flow(prev, nxt, iterations=iterations))
        expected = np.stack(reference_flow(prev, nxt, iterations=iterations))
        assert np.all(np.abs(folded - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))), \
            f"pair {i}: folded_flow differs from reference_flow"
        energy = flow_energy(expected, prev, nxt)
        assert abs(flow_energy(folded, prev, nxt) - energy) <= 1e-12 * energy, f"pair {i} energy"
        assert np.all(np.abs(flow - folded) <= 1e-5 * np.maximum(1.0, np.abs(folded))), \
            f"pair {i} differs"
        energy = flow_energy(folded, prev, nxt)
        assert abs(flow_energy(flow, prev, nxt) - energy) <= 1e-6 * energy, f"pair {i} energy"


@pytest.mark.parametrize("size", [32, 64])
def test_synth_video_near_reference(size):
    assert_near_reference(synthesize_video(SynthConfig(width=size, height=size), 2, 1).frames)


@pytest.mark.parametrize("seed", range(3))
def test_random_uint8_volumes_near_reference(seed):
    rng = np.random.default_rng(100 + seed)
    height, width = rng.integers(8, 40, size=2)
    assert_near_reference(rng.integers(0, 256, size=(5, height, width)).astype(np.uint8))


# ---------------------------------------------------------------------------
# the closed-form coefficients do not cancel on bright frames

@pytest.mark.parametrize("factor", [1e4, 1e8, 1e50, 1e100])
def test_scaled_frames_and_alpha_give_the_same_flow(factor):
    """The energy is invariant under scaling frames and alpha together."""
    frames = synthesize_video(SynthConfig(), 2, 0).frames[:6].astype(np.float64)
    base = sequence_flows(frames, iterations=40)
    scaled = sequence_flows(frames * factor, alpha=10.0 * factor, iterations=40)
    assert np.all(np.abs(scaled - base) <= 1e-5 * np.maximum(1.0, np.abs(base)))


def test_bright_frames_at_default_alpha_give_finite_flows():
    frames = synthesize_video(SynthConfig(), 2, 0).frames[:6].astype(np.float64) * 1e8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flows = sequence_flows(frames)
    assert np.isfinite(flows).all() and np.abs(flows).max() > 0.0


def bright_spot_frames():
    """A pair whose pixel (2, 3) has Ix = 1e-20 and It = 1e30, so that at
    alpha = 1e-20 its offset Ix*It/T is about 2e49, finite in float64 only,
    and at alpha = 3e-15 about 2.8e38, finite in float32 but overflowing
    in the sweep."""
    prev = np.zeros((6, 7))
    nxt = np.zeros((6, 7))
    prev[2, 3], nxt[2, 3] = -5e29, 5e29
    prev[2, 4] = nxt[2, 4] = 2e-20
    return np.stack([prev, nxt])


@pytest.mark.parametrize("frames, alpha", [
    (np.stack([np.zeros((6, 7)), np.tile(np.arange(7.0), (6, 1)) * 1e160]), 10.0),
    (np.stack([np.zeros((6, 7)), np.ones((6, 7))]), 1e-170),
    (bright_spot_frames(), 1e-20),
    (bright_spot_frames(), 3e-15),
], ids=["gradient_squares_overflow", "zero_over_zero", "offset_overflows_float32",
        "sweep_overflows_float32"])
def test_coefficients_not_finite_in_float32_rejected(frames, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^flow values must be finite$"):
            sequence_flows(frames, alpha=alpha, iterations=3)


# ---------------------------------------------------------------------------
# mirror and transpose symmetry: the worst gaps over classes 0-7 were 4.4e-7
# (mirror) and 4.4e-7 (transpose), so the bounds leave about a 10x margin

def assert_symmetric(got, expected):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 4.4e-6 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("class_index", range(8))
def test_mirrored_video_gives_the_mirrored_flow(class_index):
    """Mirroring in x mirrors the flow and negates u."""
    frames = synthesize_video(SynthConfig(width=64, height=64), class_index, 0).frames
    mirrored = sequence_flows(frames[:, :, ::-1])
    expected = sequence_flows(frames)[..., ::-1] * np.array([-1.0, 1.0])[:, None, None]
    assert_symmetric(mirrored, expected)


@pytest.mark.parametrize("class_index", range(8))
def test_transposed_video_gives_the_transposed_flow(class_index):
    """Swapping x and y transposes the flow and swaps u and v."""
    frames = synthesize_video(SynthConfig(width=64, height=64), class_index, 0).frames
    transposed = sequence_flows(frames.transpose(0, 2, 1))
    expected = sequence_flows(frames)[:, ::-1].transpose(0, 1, 3, 2)
    assert_symmetric(transposed, expected)
