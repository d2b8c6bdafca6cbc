import numpy as np
import pytest
from oracles import (
    reference_cuboid_describe,
    reference_cuboid_descriptors,
    reference_cuboid_points,
    reference_cuboid_response,
    reference_gaussian_smooth,
    reference_local_maxima_3d,
)

from egoact import synth
from egoact.dataio import FrameSequence
from egoact.descriptors import (
    CuboidParams,
    _local_maxima_3d,
    cuboid_descriptors,
    cuboid_detect,
    cuboid_patches,
    cuboid_response,
    gaussian_smooth,
    temporal_quadrature_pair,
)
from egoact.errors import ValidationError
from egoact.synth import SynthConfig, synthesize_video


def flashing_blob_video(frames=24, size=32, x0=16, y0=12, period=3, amp=90.0,
                        base=100.0, radius=2.0):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    blob = amp * np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2 * radius * radius))
    volume = np.full((frames, size, size), base)
    for t in range(frames):
        if t % period < (period + 1) // 2:
            volume[t] += blob
    return FrameSequence(np.clip(np.rint(volume), 0, 255).astype(np.uint8))


def test_constant_video_has_no_response():
    seq = FrameSequence(np.full((24, 16, 16), 77, dtype=np.uint8))
    params = CuboidParams(sigma=1.5, tau=2.5, threshold=1e-6, max_points=50)
    response, _ = cuboid_response(seq, params)
    assert response.max() <= 1e-18  # mean-corrected filters kill the DC term
    assert cuboid_detect(seq, params) == []


def test_temporal_filters_have_zero_dc():
    for tau in (1.5, 2.0, 2.5, 3.0):
        even, odd = temporal_quadrature_pair(tau)
        assert abs(even.sum()) <= 1e-12
        assert abs(odd.sum()) <= 1e-12


def test_flashing_blob_detected_at_its_location():
    period = 3
    seq = flashing_blob_video(period=period)
    params = CuboidParams(sigma=1.5, tau=2.5, threshold=1.0, max_points=5)
    points = cuboid_detect(seq, params)
    assert points
    x, y, t, response = points[0]
    assert abs(x - 16) <= 2 and abs(y - 12) <= 2
    onsets = np.arange(0, seq.frame_count, period)
    assert np.min(np.abs(onsets - t)) <= 2
    assert response > params.threshold


def test_infinite_threshold_returns_nothing():
    seq = flashing_blob_video()
    params = CuboidParams(sigma=1.5, tau=2.5, threshold=np.inf, max_points=5)
    assert cuboid_detect(seq, params) == []


def test_detection_is_translation_equivariant():
    params = CuboidParams(sigma=1.5, tau=2.5, threshold=1.0, max_points=4)
    base = flashing_blob_video(x0=13, y0=14)
    shifted = flashing_blob_video(x0=13 + 3, y0=14 + 2)
    base_points = {(x, y, t) for x, y, t, _ in cuboid_detect(base, params)}
    shifted_points = {(x, y, t) for x, y, t, _ in cuboid_detect(shifted, params)}
    assert {(x + 3, y + 2, t) for x, y, t in base_points} == shifted_points


def test_video_shorter_than_filter_support():
    seq = FrameSequence(np.zeros((8, 16, 16), dtype=np.uint8))
    with pytest.raises(ValidationError):
        cuboid_detect(seq, CuboidParams(sigma=1.5, tau=2.5))  # filter spans 17


def test_spatial_filter_must_fit_frame():
    seq = FrameSequence(np.zeros((24, 10, 10), dtype=np.uint8))
    with pytest.raises(ValidationError):
        cuboid_detect(seq, CuboidParams(sigma=4.0, tau=1.5))  # radius 12 > frame
    seq = FrameSequence(np.zeros((24, 12, 20), dtype=np.uint8))
    with pytest.raises(ValidationError, match="^the 20x12 frame must be larger than the "
                                              "spatial filter radius 12$"):
        cuboid_detect(seq, CuboidParams(sigma=4.0, tau=1.5))  # radius 12 == height


@pytest.mark.parametrize("shape", ((12, 1, 9), (12, 9, 1)))
def test_patches_need_two_voxels_along_each_axis(shape):
    seq = FrameSequence(np.zeros(shape, dtype=np.uint8))
    with pytest.raises(ValidationError, match="at least 2 voxels along each axis"):
        cuboid_patches(seq, [(0, 0, 6)], CuboidParams(sigma=1.0, tau=1.5))


def test_constant_patch_gives_zero_descriptor():
    seq = FrameSequence(np.full((24, 16, 16), 50, dtype=np.uint8))
    params = CuboidParams(sigma=1.0, tau=1.5)
    vec = cuboid_patches(seq, [(8, 8, 12)], params)[0]
    assert vec.shape == (params.descriptor_dim,)
    assert np.abs(vec).max() == 0.0


def test_descriptor_dimension_rule():
    # side = 2*round(3*scale)+1 with half-up rounding
    params = CuboidParams(sigma=1.5, tau=4.0 / 3.0)
    assert params.side_xy == 11
    assert params.side_t == 9
    assert params.descriptor_dim == 11 * 11 * 9 * 3 == 3267
    params = CuboidParams(sigma=1.5, tau=2.0)
    assert (params.side_xy, params.side_t) == (11, 13)
    assert params.descriptor_dim == 11 * 11 * 13 * 3


def test_linear_ramp_gradients():
    slope = 3
    ramp = np.tile(slope * np.arange(20, dtype=np.uint8), (16, 1))
    seq = FrameSequence(np.repeat(ramp[None, :, :], 12, axis=0))
    params = CuboidParams(sigma=1.0, tau=1.5)
    vec = cuboid_patches(seq, [(9, 8, 6)], params)[0]
    patch = vec.reshape(params.side_t, params.side_xy, params.side_xy, 3)
    assert np.allclose(patch[..., 0], slope, atol=1e-12)   # g_x
    assert np.abs(patch[..., 1]).max() == 0.0              # g_y
    assert np.abs(patch[..., 2]).max() == 0.0              # g_t


def test_descriptors_are_unit_norm():
    seq = flashing_blob_video()
    params = CuboidParams(sigma=1.0, tau=2.5, threshold=1.0, max_points=6)
    dset = cuboid_descriptors(seq, params)
    assert dset.dim == params.descriptor_dim
    assert dset.count > 0
    for row in dset.vectors:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)


def test_empty_detections_give_empty_set():
    seq = FrameSequence(np.full((24, 16, 16), 9, dtype=np.uint8))
    params = CuboidParams(sigma=1.0, tau=2.5, threshold=10.0)
    dset = cuboid_descriptors(seq, params)
    assert dset.count == 0
    assert dset.dim == params.descriptor_dim


def test_detection_ordering_and_cap():
    seq = flashing_blob_video()
    few = cuboid_detect(seq, CuboidParams(sigma=1.5, tau=2.5, threshold=1.0, max_points=2))
    many = cuboid_detect(seq, CuboidParams(sigma=1.5, tau=2.5, threshold=1.0, max_points=50))
    assert few == many[:2]
    responses = [p[3] for p in many]
    assert responses == sorted(responses, reverse=True)


# the default detector, and a low threshold that keeps 40 points per video,
# among them points whose windows are clamped at each spatial border
ORACLE_PARAMS = (CuboidParams(), CuboidParams(threshold=0.5, max_points=40))


@pytest.mark.parametrize("size", (32, 64))
@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_cuboid_sets_match_the_per_point_oracle(size, params):
    cfg = SynthConfig(class_count=8, width=size, height=size)
    radius = params.side_xy // 2
    clamped_low = clamped_high = np.zeros(2, dtype=bool)   # per (x, y)
    for class_index in range(cfg.class_count):
        seq = synthesize_video(cfg, class_index, 0)
        response, offset = cuboid_response(seq, params)
        expected_response, expected_offset = reference_cuboid_response(seq, params)
        assert offset == expected_offset and response.shape == expected_response.shape
        scale = np.abs(expected_response).max()
        assert np.abs(response - expected_response).max() <= 1e-12 * scale
        points = cuboid_detect(seq, params)
        expected_points = reference_cuboid_points(seq, params)
        assert [p[:3] for p in points] == [p[:3] for p in expected_points]
        assert np.allclose([p[3] for p in points], [p[3] for p in expected_points],
                           rtol=1e-12, atol=0.0)
        got = cuboid_descriptors(seq, params).vectors
        expected = reference_cuboid_descriptors(seq, params)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        xy = np.array([p[:2] for p in points]).reshape(-1, 2)
        clamped_low = clamped_low | (xy < radius).any(axis=0)
        clamped_high = clamped_high | (xy >= size - radius).any(axis=0)
    if params.max_points == 40:
        assert clamped_low.all() and clamped_high.all()


def test_patches_clamp_at_every_border_like_the_oracle():
    seq = synthesize_video(SynthConfig(width=16, height=12, frame_count=10), 1, 0)
    params = CuboidParams(sigma=1.5, tau=2.0)   # 11x11x13 windows overhang every side
    points = [(x, y, t) for t in (0, 4, 9) for y in (0, 5, 11) for x in (0, 7, 15)]
    expected = np.stack([reference_cuboid_describe(seq, p, params, normalize=False) for p in points])
    assert cuboid_patches(seq, points, params).tobytes() == expected.tobytes()
    assert cuboid_patches(seq, [], params).shape == (0, params.descriptor_dim)


@pytest.mark.parametrize("shape", ((7, 9, 11), (1, 5, 6), (3, 1, 1), (2, 2, 2)))
def test_local_maxima_match_the_27_shift_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    for volume in (rng.integers(0, 3, shape).astype(np.float64),   # plateaus and ties
                   rng.normal(size=shape),
                   np.full(shape, 4.25)):
        assert np.array_equal(_local_maxima_3d(volume), reference_local_maxima_3d(volume))
    assert _local_maxima_3d(np.full(shape, 4.25)).all()


@pytest.mark.parametrize("length", range(1, 6))
def test_gaussian_smooth_reflects_short_axes_like_the_pad_and_shift_oracle(length):
    # sigma 2.5 has radius 8, so axes of 1-5 samples reflect over and over
    rng = np.random.default_rng(length)
    for shape, axes in (((length, 7), (0, 1)), ((3, length, length), (1, 2)), ((4, 6, length), (2,))):
        volume = rng.normal(size=shape)
        expected = reference_gaussian_smooth(volume, 2.5, axes)
        assert np.abs(gaussian_smooth(volume, 2.5, axes) - expected).max() <= 1e-12


def test_synth_frames_do_not_change_with_the_pad_and_shift_smoother(monkeypatch):
    configs = [SynthConfig(width=size, height=size, seed=seed) for size in (32, 64) for seed in (0, 1)]
    videos = [(cfg, c, v) for cfg in configs for c in range(cfg.class_count) for v in range(2)]
    got = [synthesize_video(*video).frames.tobytes() for video in videos]
    monkeypatch.setattr(synth, "gaussian_smooth", reference_gaussian_smooth)
    assert got == [synthesize_video(*video).frames.tobytes() for video in videos]


def described_points(seq, params):
    """Each detected (x, y, t) with its descriptor as a (t, y, x, component) volume."""
    vectors = cuboid_descriptors(seq, params).vectors
    shape = (params.side_t, params.side_xy, params.side_xy, 3)
    return {p[:3]: v.reshape(shape) for p, v in zip(cuboid_detect(seq, params), vectors)}


@pytest.mark.parametrize("size", (32, 64))
def test_mirrored_video_mirrors_points_responses_and_descriptors(size):
    """Mirroring a video in x mirrors its response and its detected points, and each
    descriptor comes back reversed in x with gx negated. Over classes 0-7, three
    videos each, the responses matched within 6.5e-14 relative to max(1, max
    |response|), so the bound leaves a 10x margin. The gradients of uint8 frames
    are halves of integers, so the descriptors, normalization included, are exact;
    points are compared as sets, as ties in response may order them differently."""
    cfg = SynthConfig(class_count=8, width=size, height=size)
    params = CuboidParams()
    described = 0
    for class_index in range(cfg.class_count):
        for video_index in range(3):
            seq = synthesize_video(cfg, class_index, video_index)
            mirror = FrameSequence(seq.frames[:, :, ::-1].copy())
            response, offset = cuboid_response(seq, params)
            mirrored_response, mirrored_offset = cuboid_response(mirror, params)
            assert mirrored_offset == offset
            scale = max(1.0, np.abs(response).max())
            assert np.abs(mirrored_response - response[:, :, ::-1]).max() <= 6.5e-13 * scale
            base, mirrored = described_points(seq, params), described_points(mirror, params)
            assert set(mirrored) == {(size - 1 - x, y, t) for x, y, t in base}
            for (x, y, t), volume in base.items():
                expected = volume[:, :, ::-1] * np.array([-1.0, 1.0, 1.0])
                assert np.array_equal(mirrored[size - 1 - x, y, t], expected)
            described += len(base)
    assert described >= 100
