"""File formats, dataset manifests, and the serializable pipeline types.

The three binary artifacts share one container: a 4-byte ASCII magic, then
little-endian u32 header fields giving the payload's shape innermost axis
first, then the payload in row-major order (``CONTAINERS``):

    .fsq  "FSQ1", width, height, frames, then raw 8-bit intensities
    .dsc  "DSC1", dim, rows, then rows*dim float64 values
    .cbk  "CBK1", dim, rows (words), then rows*dim float64 values

A short header or a payload of the wrong length is a CorruptionError; a
bad magic or a zero in any field but the outermost (frames, rows) is a
FormatError, and the decoded type rules on an empty outer axis (a ``.dsc``
may hold no rows).

Structured artifacts (manifests, histogram collections, models, reports)
are JSON documents carrying a top-level ``"format_version": 1`` field.
``decode_json`` turns any defect a decoder finds in one into the one
FormatError ``"<path>: malformed <what> file (<reason>)"``. Every writer
goes through a write-to-temp, rename-on-success path so no partial file is
ever left behind at the target name.
"""

from __future__ import annotations

import json
import math
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

# magic -> (u32 header fields, innermost axis first; payload dtype)
CONTAINERS = {
    FSQ_MAGIC: (("width", "height", "frames"), np.dtype(np.uint8)),
    DSC_MAGIC: (("dim", "rows"), np.dtype("<f8")),
    CBK_MAGIC: (("dim", "rows"), np.dtype("<f8")),
}

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


def json_bool(value) -> bool:
    """A decoded JSON ``true`` or ``false``; anything else raises TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def json_str(value, ndim: int = 0):
    """A decoded JSON string, or at ``ndim`` 1 a list of strings; anything
    else (a number, a null, a string where a list belongs) raises TypeError."""
    items = value if ndim else [value]
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise TypeError(f"expected {'a list of strings' if ndim else 'a string'}, got {value!r}")
    return value


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
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:   # not true, not 1.0
        raise FormatError(f"{path}: missing or unsupported format_version")
    return doc


def decode_json(path, doc: dict, what: str, decode):
    """``decode(doc)`` for the document read from ``path``; a defect it raises
    as one of ``MALFORMED`` is a FormatError naming the file and ``what`` it is."""
    try:
        return decode(doc)
    except KeyError as exc:   # str(KeyError('x')) is "'x'"
        raise FormatError(f"{path}: malformed {what} file (missing field {exc})") from exc
    except MALFORMED as exc:
        raise FormatError(f"{path}: malformed {what} file ({exc})") from exc


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
        for v in videos:
            if not 0 <= v.class_index < len(classes):
                raise ValidationError(
                    f"video {v.video_id!r} has class_index {v.class_index} "
                    f"outside 0..{len(classes) - 1}"
                )
        self.classes = classes
        self.videos = videos
        thin = [name for name, n in zip(classes, self.class_counts()) if n < 2]
        if thin:
            raise ValidationError(f"every class needs at least 2 videos; too few for {thin}")

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

def _write_container(magic: bytes, payload: np.ndarray, path) -> None:
    header = struct.pack(f"<4s{payload.ndim}I", magic, *reversed(payload.shape))
    atomic_write_bytes(path, header + np.ascontiguousarray(payload, CONTAINERS[magic][1]).tobytes())


def _read_container(magic: bytes, path, build):
    """``build(payload)`` of the ``magic`` container at ``path``, the payload a
    writable native-order copy; a value ``build`` rejects is a FormatError."""
    fields, dtype = CONTAINERS[magic]
    header = struct.Struct(f"<4s{len(fields)}I")
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < header.size:
        raise CorruptionError(f"{path}: truncated header")
    got, *sizes = header.unpack_from(raw)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if 0 in sizes[:-1]:
        raise FormatError(f"{path}: zero dimension in header")
    expected = header.size + math.prod(sizes) * dtype.itemsize
    if len(raw) != expected:
        raise CorruptionError(
            f"{path}: payload length {len(raw)} does not match header (expected {expected})"
        )
    payload = np.frombuffer(raw, dtype, offset=header.size).reshape(sizes[::-1])
    try:
        return build(payload.astype(dtype.newbyteorder("=")))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_frame_sequence(seq: FrameSequence, path) -> None:
    _write_container(FSQ_MAGIC, seq.frames, path)


def read_frame_sequence(path) -> FrameSequence:
    return _read_container(FSQ_MAGIC, path, FrameSequence)


def write_descriptor_set(dset: DescriptorSet, path) -> None:
    _write_container(DSC_MAGIC, dset.vectors, path)


def read_descriptor_set(path, descriptor_type: str = "") -> DescriptorSet:
    return _read_container(
        DSC_MAGIC, path, lambda vectors: DescriptorSet(descriptor_type, vectors.shape[1], vectors))


def write_codebook(codebook: Codebook, path) -> None:
    _write_container(CBK_MAGIC, codebook.centroids, path)


def read_codebook(path, descriptor_type: str = "") -> Codebook:
    return _read_container(CBK_MAGIC, path, lambda centroids: Codebook(descriptor_type, centroids))


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


def manifest_from_doc(doc) -> DatasetManifest:
    """The manifest a decoded ``manifest.json`` holds; a defect raises one of ``MALFORMED``."""
    videos = []
    for v in doc["videos"]:
        check_positive("class_index", v["class_index"], count=True, zero=True)
        videos.append(VideoEntry(json_str(v["video_id"]), v["class_index"], json_str(v["path"])))
    return DatasetManifest(json_str(doc["classes"], 1), videos)


def read_manifest(path) -> DatasetManifest:
    return decode_json(path, read_json(path), "manifest", manifest_from_doc)


def write_histograms(histograms, path) -> None:
    """Serialize a list of VideoHistogram sharing one block structure."""
    if not histograms:
        raise ValidationError("refusing to write an empty histogram collection")
    order = histograms[0].block_order()
    sizes = [c.size for _, c in histograms[0].blocks]
    seen = set()
    for h in histograms:
        if h.block_order() != order or [c.size for _, c in h.blocks] != sizes:
            raise ValidationError(f"histogram {h.video_id!r} breaks the shared block layout")
        if h.video_id in seen:
            raise ValidationError(f"video {h.video_id!r} is listed twice")
        seen.add(h.video_id)
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


def histograms_from_doc(doc) -> list:
    """The histograms a decoded histograms file holds; a defect raises one of ``MALFORMED``."""
    order = json_str(doc["block_order"], 1)
    sizes = json_numbers(doc["block_sizes"], integer=True).tolist()
    if len(sizes) != len(order) or len(set(order)) != len(order):
        raise ValueError(f"block names {order} do not match block sizes {sizes}")
    out = {}
    for entry in doc["histograms"]:
        video_id = json_str(entry["video_id"])
        if video_id in out:
            raise ValueError(f"video {video_id!r} is listed twice")
        blocks = [(name, json_numbers(entry["blocks"][name])) for name in order]
        for (name, counts), size in zip(blocks, sizes):
            if counts.shape != (size,):
                raise ValueError(f"block {name!r} has shape {counts.shape}, not ({size!r},)")
        out[video_id] = VideoHistogram(video_id, blocks)
    return list(out.values())


def read_histograms(path):
    return decode_json(path, read_json(path), "histograms", histograms_from_doc)
