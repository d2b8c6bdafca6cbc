"""Synthetic desk-scale ego-motion dataset generator.

Each class pairs a global camera-motion pattern (applied to a smooth
random texture) with a small bright local event blob, so that global
descriptors separate some classes and local descriptors separate others.
Classes 2 and 3 deliberately share the same global rotation and differ
only in their local event, which makes them separable only through the
local (cuboid) feature.

Class signatures cycle through this table:

    0  rightward pan, 2 px/frame      flashing blob (period 4)
    1  vertical bob                   flashing blob (period 4)
    2  rotation about the center      flashing blob (period 4)
    3  rotation about the center      flashing blob (period 6, amplitude
                                      scaled so the temporal-gradient
                                      variance matches the period-4 blob)
    4  static camera                  no event
    5  zoom                           flashing blob (period 4)
    6  leftward pan, 2 px/frame       jumping blob
    7  vertical bob                   no event

The amplitude matching in class 3 keeps the flow and intensity-change
statistics of classes 2 and 3 nearly identical while their local event
patches stay clearly different.

Generation is a pure function of the config: rerunning with the same
seed writes byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import SynthConfig
from .dataio import DatasetManifest, FrameSequence, VideoEntry, write_frame_sequence, write_json
from .descriptors import gaussian_smooth
from .evaluation import ordered_map

PAN_SPEED = 2.0          # px/frame
BOB_AMPLITUDE = 3.0      # px
BOB_PERIOD = 12.0        # frames
ROTATE_SPEED = 0.05      # rad/frame
ZOOM_RATE = 0.015        # scale units/frame
EVENT_RADIUS = 2.0       # px
JUMP_OFFSET = 4          # px between the two blob positions

# event kind -> (flash period in frames, blob amplitude). The slow flash
# toggles 2/3 as often, so its amplitude is sqrt(3/2) higher to keep the
# per-pixel temporal-gradient variance the same.
EVENT_PARAMS = {
    "flash": (4, 85.0),
    "flash_slow": (6, 85.0 * np.sqrt(1.5)),
    "jump": (4, 85.0),
}

CLASS_SIGNATURES = (
    ("pan_right", "flash"),
    ("bob", "flash"),
    ("rotate", "flash"),
    ("rotate", "flash_slow"),
    ("static", "none"),
    ("zoom", "flash"),
    ("pan_left", "jump"),
    ("bob", "none"),
)


def class_signature(class_index: int):
    return CLASS_SIGNATURES[class_index % len(CLASS_SIGNATURES)]


def _make_texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    noise = rng.normal(size=(height, width))
    smooth = gaussian_smooth(noise, 2.5, axes=(0, 1))
    smooth = (smooth - smooth.mean()) / max(smooth.std(), 1e-12)
    return 128.0 + 45.0 * smooth


def _bilinear_sample(texture: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = texture.shape
    ys = np.clip(ys, 0.0, h - 1.000001)
    xs = np.clip(xs, 0.0, w - 1.000001)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0
    top = texture[y0, x0] * (1.0 - fx) + texture[y0, x0 + 1] * fx
    bottom = texture[y0 + 1, x0] * (1.0 - fx) + texture[y0 + 1, x0 + 1] * fx
    return top * (1.0 - fy) + bottom * fy


def _sample_coords(kind: str, frame_idx: int, phase: float, cfg: SynthConfig, margin: int,
                   grid: np.ndarray):
    """Texture coordinates sampled by each output pixel for one frame, the grid
    itself for a static camera; ``grid`` holds the float pixel rows and columns,
    and is not written."""
    ys, xs = grid
    cx = (cfg.width - 1) / 2.0
    cy = (cfg.height - 1) / 2.0
    f = float(frame_idx)
    if kind == "pan_right":
        xs = xs - PAN_SPEED * f
    elif kind == "pan_left":
        xs = xs + PAN_SPEED * f
    elif kind == "bob":
        ys = ys - BOB_AMPLITUDE * np.sin(2.0 * np.pi * (f + phase) / BOB_PERIOD)
    elif kind == "rotate":
        angle = ROTATE_SPEED * f + phase
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        dx, dy = xs - cx, ys - cy
        xs = cx + cos_a * dx - sin_a * dy
        ys = cy + sin_a * dx + cos_a * dy
    elif kind == "zoom":
        scale = 1.0 + ZOOM_RATE * f
        xs = cx + (xs - cx) * scale
        ys = cy + (ys - cy) * scale
    # recenter into the padded texture
    return ys + margin, xs + margin


def _event_blob(grid: np.ndarray, x: float, y: float, amplitude: float) -> np.ndarray:
    ys, xs = grid
    d2 = (xs - x) ** 2 + (ys - y) ** 2
    return amplitude * np.exp(-d2 / (2.0 * EVENT_RADIUS ** 2))


def synthesize_video(cfg: SynthConfig, class_index: int, video_index: int) -> FrameSequence:
    """Deterministically render one labeled video."""
    motion, event = class_signature(class_index)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(class_index, video_index))
    rng = np.random.default_rng(seq)

    margin = 2 * cfg.frame_count + 8
    texture = _make_texture(
        rng, cfg.height + 2 * margin, cfg.width + 2 * margin
    )
    motion_phase = float(rng.uniform(0.0, 2.0 * np.pi)) if motion in ("bob", "rotate") else 0.0

    period, amplitude = EVENT_PARAMS.get(event, (4, 0.0))
    border = 10
    event_x = float(rng.integers(border, max(border + 1, cfg.width - border - JUMP_OFFSET)))
    event_y = float(rng.integers(border, max(border + 1, cfg.height - border)))
    event_phase = int(rng.integers(0, period))

    grid = np.mgrid[0 : cfg.height, 0 : cfg.width].astype(np.float64)
    frames = np.empty((cfg.frame_count, cfg.height, cfg.width), dtype=np.uint8)
    for f in range(cfg.frame_count):
        ys, xs = _sample_coords(motion, f, motion_phase, cfg, margin, grid)
        frame = _bilinear_sample(texture, ys, xs)
        on_phase = (f + event_phase) % period < period // 2
        if event in ("flash", "flash_slow"):
            if on_phase:
                frame = frame + _event_blob(grid, event_x, event_y, amplitude)
        elif event == "jump":
            offset = 0.0 if on_phase else JUMP_OFFSET
            frame = frame + _event_blob(grid, event_x + offset, event_y, amplitude)
        if cfg.noise_sigma > 0:
            frame = frame + rng.normal(0.0, cfg.noise_sigma, size=frame.shape)
        frames[f] = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
    return FrameSequence(frames)


def generate_synthetic_dataset(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Render every video, write .fsq files plus manifest.json, return the manifest.

    Videos render on ``evaluation.ordered_map``'s forked workers, one per video up
    to the usable CPUs; each seeds itself and writes its own file, so the files are
    the same for any worker count. An old manifest in ``out_dir`` is removed first
    and the new one written once every video is, so a failed run leaves none."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    classes = [f"class{k}_{'_'.join(class_signature(k))}" for k in range(cfg.class_count)]

    def render(index):
        k, v = divmod(index, cfg.videos_per_class)
        video_id = f"c{k:02d}_v{v:02d}"
        entry = VideoEntry(video_id, k, f"{video_id}.fsq")
        write_frame_sequence(synthesize_video(cfg, k, v), out_dir / entry.path)
        return entry

    count = cfg.class_count * cfg.videos_per_class
    manifest = DatasetManifest(classes, ordered_map(render, range(count), count))
    write_json(out_dir / "manifest.json", manifest)
    return manifest
