"""File formats, dataset manifests, and the serializable pipeline types.

Binary artifacts are little-endian with a 4-byte ASCII magic followed by
u32 header fields:

    .fsq  "FSQ1", width, height, frame_count, then frame-major row-major
          raw 8-bit intensities
    .dsc  "DSC1", dim, count, then count*dim float64 values
    .cbk  "CBK1", dim, word_count, then word_count*dim float64 values

Structured artifacts (manifests, histogram collections, models, reports)
are JSON documents carrying a top-level ``"format_version": 1`` field.
Every writer goes through a write-to-temp, rename-on-success path so no
partial file is ever left behind at the target name.
"""

from __future__ import annotations

import json
import numbers
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError, check_positive

FORMAT_VERSION = 1

FSQ_MAGIC = b"FSQ1"
DSC_MAGIC = b"DSC1"
CBK_MAGIC = b"CBK1"

_FSQ_HEADER = struct.Struct("<4sIII")
_ARRAY_HEADER = struct.Struct("<4sII")

_F64LE = np.dtype("<f8")

# what decoding a document with a missing, mistyped or inconsistent field raises
MALFORMED = (AttributeError, LookupError, TypeError, ValueError, ArithmeticError, ValidationError)


def json_numbers(value, ndim: int = 1, integer: bool = False):
    """A decoded JSON field of numbers nested ``ndim`` lists deep, as a float64
    (``integer``: int64) array, or as a Python number at ``ndim`` 0. A bool,
    a string, a null, a fraction where an integer belongs or the wrong
    nesting raises one of ``MALFORMED``."""
    kind = numbers.Integral if integer else numbers.Real
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, kind):
            raise TypeError(f"expected {'an integer' if integer else 'a number'}, got {item!r}")
    array = np.asarray(value, dtype=np.int64 if integer else np.float64)
    if array.ndim != ndim:
        raise ValueError(f"expected numbers nested {ndim} deep, got shape {array.shape}")
    return array.item() if ndim == 0 else array


# ---------------------------------------------------------------------------
# atomic writing

def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, payload: dict) -> None:
    """Serialize ``payload`` (with a format_version field) atomically."""
    doc = dict(payload)
    doc.setdefault("format_version", FORMAT_VERSION)
    text = json.dumps(doc, indent=2) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def read_json(path) -> dict:
    """Load a JSON artifact, checking the format_version field."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, over-long integers, deep nesting
        raise FormatError(f"{path}: not a JSON artifact ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"{path}: missing or unsupported format_version")
    return doc


# ---------------------------------------------------------------------------
# domain types

class FrameSequence:
    """A raw grayscale video held as a (frames, height, width) uint8 volume.

    Pipeline stages assume frames of at least 8x8 pixels; the container
    itself only rejects empty dimensions so that tiny fixture files can
    still be decoded and inspected.
    """

    __slots__ = ("frames",)

    def __init__(self, frames):
        frames = np.ascontiguousarray(frames, dtype=np.uint8)
        if frames.ndim != 3:
            raise ValidationError(f"frames must be 3-d (t, y, x), got {frames.ndim}-d")
        t, h, w = frames.shape
        if w < 1 or h < 1:
            raise ValidationError("frame dimensions must be nonzero")
        if t < 2:
            raise ValidationError(f"a frame sequence needs at least 2 frames, got {t}")
        frames.flags.writeable = False
        self.frames = frames

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other):
        return isinstance(other, FrameSequence) and np.array_equal(self.frames, other.frames)

    def __repr__(self):
        return f"FrameSequence({self.width}x{self.height}x{self.frame_count})"


class DescriptorSet:
    """A typed collection of fixed-dimension float64 descriptor vectors."""

    __slots__ = ("descriptor_type", "dim", "vectors")

    def __init__(self, descriptor_type: str, dim: int, vectors=None):
        if dim < 1:
            raise ValidationError("descriptor dimension must be positive")
        if vectors is None:
            vectors = np.empty((0, dim), dtype=np.float64)
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValidationError(
                f"descriptor vectors must have shape (count, {dim}), got {vectors.shape}"
            )
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ValidationError("descriptor vectors must be finite")
        self.descriptor_type = descriptor_type
        self.dim = dim
        self.vectors = vectors

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, DescriptorSet)
            and self.descriptor_type == other.descriptor_type
            and self.dim == other.dim
            and np.array_equal(self.vectors, other.vectors)
        )

    def __repr__(self):
        return f"DescriptorSet({self.descriptor_type!r}, dim={self.dim}, count={self.count})"


class Codebook:
    """A K-means vocabulary: one centroid row per visual word."""

    __slots__ = ("descriptor_type", "centroids")

    def __init__(self, descriptor_type: str, centroids):
        centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] < 1:
            raise ValidationError("a codebook needs at least one centroid row")
        if not np.all(np.isfinite(centroids)):
            raise ValidationError("codebook centroids must be finite")
        self.descriptor_type = descriptor_type
        self.centroids = centroids

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def word_count(self) -> int:
        return self.centroids.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Codebook)
            and self.descriptor_type == other.descriptor_type
            and np.array_equal(self.centroids, other.centroids)
        )

    def __repr__(self):
        return f"Codebook({self.descriptor_type!r}, dim={self.dim}, words={self.word_count})"


class VideoHistogram:
    """Concatenated per-type visual-word histogram for one video.

    ``blocks`` is an ordered list of (descriptor_type, counts) pairs; the
    order must be identical for every video in a dataset. Each block is
    L1-normalized at encoding time, so its sum is 1, or 0 for a video that
    produced no descriptors of that type.
    """

    __slots__ = ("video_id", "blocks")

    def __init__(self, video_id: str, blocks):
        norm_blocks = []
        for name, counts in blocks:
            counts = np.ascontiguousarray(counts, dtype=np.float64)
            if counts.ndim != 1:
                raise ValidationError("histogram blocks must be 1-d")
            if counts.size and counts.min() < 0.0:
                raise ValidationError(f"histogram block {name!r} has negative entries")
            total = counts.sum()
            if not (abs(total) <= 1e-12 or abs(total - 1.0) <= 1e-12):
                raise ValidationError(
                    f"histogram block {name!r} must sum to 0 or 1, got {total!r}"
                )
            norm_blocks.append((str(name), counts))
        if not norm_blocks:
            raise ValidationError("a histogram needs at least one block")
        self.video_id = video_id
        self.blocks = norm_blocks

    def block_order(self):
        return [name for name, _ in self.blocks]

    def concat(self) -> np.ndarray:
        return np.concatenate([counts for _, counts in self.blocks])

    def layout(self):
        """(offset, length) of each block inside the concatenated vector."""
        spans = []
        offset = 0
        for _, counts in self.blocks:
            spans.append((offset, counts.size))
            offset += counts.size
        return spans

    def __eq__(self, other):
        return (
            isinstance(other, VideoHistogram)
            and self.video_id == other.video_id
            and self.block_order() == other.block_order()
            and all(
                np.array_equal(a[1], b[1]) for a, b in zip(self.blocks, other.blocks)
            )
        )

    def __repr__(self):
        spec = ", ".join(f"{n}:{c.size}" for n, c in self.blocks)
        return f"VideoHistogram({self.video_id!r}, {spec})"


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    class_index: int
    path: str


class DatasetManifest:
    """Class names plus the labeled video files that make up a dataset."""

    __slots__ = ("classes", "videos")

    def __init__(self, classes, videos):
        classes = [str(c) for c in classes]
        videos = [v if isinstance(v, VideoEntry) else VideoEntry(*v) for v in videos]
        if len(classes) < 1:
            raise ValidationError("manifest needs at least one class")
        ids = [v.video_id for v in videos]
        if len(set(ids)) != len(ids):
            raise ValidationError("video ids must be unique")
        counts = [0] * len(classes)
        for v in videos:
            if not 0 <= v.class_index < len(classes):
                raise ValidationError(
                    f"video {v.video_id!r} has class_index {v.class_index} "
                    f"outside 0..{len(classes) - 1}"
                )
            counts[v.class_index] += 1
        thin = [classes[k] for k, n in enumerate(counts) if n < 2]
        if thin:
            raise ValidationError(f"every class needs at least 2 videos; too few for {thin}")
        self.classes = classes
        self.videos = videos

    def class_counts(self):
        counts = [0] * len(self.classes)
        for v in self.videos:
            counts[v.class_index] += 1
        return counts

    def videos_of_class(self, class_index: int):
        return [v for v in self.videos if v.class_index == class_index]

    def __eq__(self, other):
        return (
            isinstance(other, DatasetManifest)
            and self.classes == other.classes
            and self.videos == other.videos
        )


# ---------------------------------------------------------------------------
# binary readers/writers

def _read_exact(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decoded(path, build, *args):
    """``build(*args)``, reporting a value it rejects as a defect of the file at ``path``."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_frame_sequence(seq: FrameSequence, path) -> None:
    header = _FSQ_HEADER.pack(FSQ_MAGIC, seq.width, seq.height, seq.frame_count)
    atomic_write_bytes(path, header + seq.frames.tobytes())


def read_frame_sequence(path) -> FrameSequence:
    raw = _read_exact(path)
    if len(raw) < _FSQ_HEADER.size:
        raise CorruptionError(f"{path}: truncated header")
    magic, width, height, count = _FSQ_HEADER.unpack_from(raw)
    if magic != FSQ_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {FSQ_MAGIC!r}")
    if width == 0 or height == 0 or count == 0:
        raise FormatError(f"{path}: zero dimension in header")
    expected = _FSQ_HEADER.size + width * height * count
    if len(raw) != expected:
        raise CorruptionError(
            f"{path}: payload length {len(raw)} does not match header (expected {expected})"
        )
    frames = np.frombuffer(raw, dtype=np.uint8, offset=_FSQ_HEADER.size)
    return _decoded(path, FrameSequence, frames.reshape(count, height, width))


def _write_float_array(magic: bytes, dim: int, rows: np.ndarray, path) -> None:
    header = _ARRAY_HEADER.pack(magic, dim, rows.shape[0])
    payload = np.ascontiguousarray(rows, dtype=_F64LE).tobytes()
    atomic_write_bytes(path, header + payload)


def _read_float_array(magic: bytes, path):
    raw = _read_exact(path)
    if len(raw) < _ARRAY_HEADER.size:
        raise CorruptionError(f"{path}: truncated header")
    got, dim, count = _ARRAY_HEADER.unpack_from(raw)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if dim == 0:
        raise FormatError(f"{path}: zero dimension in header")
    expected = _ARRAY_HEADER.size + dim * count * 8
    if len(raw) != expected:
        raise CorruptionError(
            f"{path}: payload length {len(raw)} does not match header (expected {expected})"
        )
    values = np.frombuffer(raw, dtype=_F64LE, offset=_ARRAY_HEADER.size)
    return dim, values.reshape(count, dim).astype(np.float64)


def write_descriptor_set(dset: DescriptorSet, path) -> None:
    _write_float_array(DSC_MAGIC, dset.dim, dset.vectors, path)


def read_descriptor_set(path, descriptor_type: str = "") -> DescriptorSet:
    dim, vectors = _read_float_array(DSC_MAGIC, path)
    return _decoded(path, DescriptorSet, descriptor_type, dim, vectors)


def write_codebook(codebook: Codebook, path) -> None:
    _write_float_array(CBK_MAGIC, codebook.dim, codebook.centroids, path)


def read_codebook(path, descriptor_type: str = "") -> Codebook:
    _, centroids = _read_float_array(CBK_MAGIC, path)
    return _decoded(path, Codebook, descriptor_type, centroids)


# ---------------------------------------------------------------------------
# JSON artifacts

def write_manifest(manifest: DatasetManifest, path) -> None:
    write_json(
        path,
        {
            "kind": "dataset_manifest",
            "classes": manifest.classes,
            "videos": [
                {"video_id": v.video_id, "class_index": v.class_index, "path": v.path}
                for v in manifest.videos
            ],
        },
    )


def read_manifest(path) -> DatasetManifest:
    doc = read_json(path)
    try:
        videos = []
        for v in doc["videos"]:
            check_positive("class_index", v["class_index"], count=True, zero=True)
            videos.append(VideoEntry(str(v["video_id"]), v["class_index"], str(v["path"])))
        return DatasetManifest(doc["classes"], videos)
    except MALFORMED as exc:
        raise FormatError(f"{path}: malformed manifest ({exc})") from exc


def write_histograms(histograms, path) -> None:
    """Serialize a list of VideoHistogram sharing one block structure."""
    if not histograms:
        raise ValidationError("refusing to write an empty histogram collection")
    order = histograms[0].block_order()
    sizes = [c.size for _, c in histograms[0].blocks]
    for h in histograms:
        if h.block_order() != order or [c.size for _, c in h.blocks] != sizes:
            raise ValidationError(f"histogram {h.video_id!r} breaks the shared block layout")
    write_json(
        path,
        {
            "kind": "histograms",
            "block_order": order,
            "block_sizes": sizes,
            "histograms": [
                {"video_id": h.video_id, "blocks": {n: c.tolist() for n, c in h.blocks}}
                for h in histograms
            ],
        },
    )


def read_histograms(path):
    doc = read_json(path)
    try:
        order = [str(n) for n in doc["block_order"]]
        sizes = json_numbers(doc["block_sizes"], integer=True).tolist()
        if len(sizes) != len(order) or len(set(order)) != len(order):
            raise ValueError(f"block names {order} do not match block sizes {sizes}")
        out = []
        for entry in doc["histograms"]:
            blocks = [(name, json_numbers(entry["blocks"][name])) for name in order]
            for (name, counts), size in zip(blocks, sizes):
                if counts.shape != (size,):
                    raise ValueError(f"block {name!r} has shape {counts.shape}, not ({size!r},)")
            out.append(VideoHistogram(str(entry["video_id"]), blocks))
        return out
    except MALFORMED as exc:
        raise FormatError(f"{path}: malformed histogram collection ({exc})") from exc
