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
may hold no rows). The four binary artifact types are dataclass records
compared field by field by their one ``__eq__``, ``same_record``.

Structured artifacts (manifests, descriptor listings, histogram collections,
models, reports) are JSON documents carrying a top-level ``"format_version": 1``
field, each written by ``to_doc`` from a record's fields in declaration order,
``kind`` first, each by its ``decoded`` encoder; ``MklModel.objective_history``
stays in memory. ``from_doc`` is its mirror: it compares the ``kind`` constant,
reads exactly the fields ``to_doc`` writes and refuses a key it does not know
(``unknown field '<name>'``) or lacks (``missing field '<name>'``). A decoder only
converts (``json_numbers`` refuses just a NaN, an infinity or the wrong nesting;
``json_str`` is ``str``), and each field must then read back as written: its JSON
text, less key order, is compared once with what its encoder writes of the decoded
value (``true`` is not ``1``, ``"0.5"`` not ``0.5``, ``4.0`` not ``4``), before the
record is built, so a mistyped value is refused under its own field's name and not by
a later rule. Computed fields (a report's ``mean_accuracy``) are read back from the
built record. The record refuses what no writer emits: a descriptor listing or a
histogram collection of no videos; a class list that ``check_classes`` refuses; a
model with a scale not above 0 or a kernel kind its method does not take.
``decode_json`` turns any defect into the one FormatError
``"<path>: malformed <what> file (<reason>)"``.
Every writer goes through a write-to-temp, rename-on-success path so no
partial file is ever left behind at the target name.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
import tempfile
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError

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


def json_numbers(value, ndim: int = 1, integer: bool = False, nullable: bool = False):
    """A decoded JSON field of numbers nested ``ndim`` lists deep, converted to a float64
    (``integer``: int64) array, or to a Python number at ``ndim`` 0; with ``nullable``, a null
    as None. A NaN or an infinity (``"NaN"`` or ``1e400`` too) or the wrong nesting raises one
    of ``MALFORMED``; any other value that converts (``true``, ``"0.5"``, ``2.5`` or ``2**70``
    where an integer belongs) is left to ``from_doc``'s read-back."""
    if nullable and value is None:
        return None
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != ndim:
        raise ValueError(f"expected numbers nested {ndim} deep, got shape {array.shape}")
    bad = array[~np.isfinite(array)]
    if bad.size:
        raise ValueError(f"expected a finite number, got {bad[0]}")
    if integer:
        with np.errstate(invalid="ignore"):   # a value past int64 casts to one that reads back wrong
            array = array.astype(np.int64)
    return array.item() if ndim == 0 else array


def json_str(value, ndim: int = 0):
    """A decoded JSON field converted to a ``str``, or at ``ndim`` 1 to a list of them, for
    ``from_doc``'s read-back to refuse what was no string (``12``, ``null``, ``"lr"`` for a list)."""
    return [str(item) for item in value] if ndim else str(value)


def check_classes(classes) -> None:
    """ValidationError unless ``classes`` names at least one class, each once and none holding
    a carriage return, at which ``csv.reader`` would split a confusion CSV row."""
    if len(set(classes)) < len(classes):
        raise ValidationError(f"class list {classes} names a class more than once, "
                              f"not each named once")
    if not classes or any("\r" in c for c in classes):
        raise ValidationError(f"class list {classes} is empty or a name holds a carriage return")


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


def to_doc(value):
    """``value`` as a JSON document: a dataclass as the dict of its fields in declaration order,
    less those declared ``repr=False``, each by its ``decoded`` encoder (default ``to_doc``); an
    array, a tuple or a list as a list; anything else as it is."""
    if is_dataclass(value):
        return {f.name: f.metadata.get("encode", to_doc)(getattr(value, f.name))
                for f in fields(value) if f.repr}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_doc(item) for item in value]
    return value


def json_records(value, cls):
    """A decoded JSON list of ``cls`` records."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return [from_doc(item, cls) for item in value]


def json_object(value, each):
    """A decoded JSON object as a dict in its key order, each value decoded by ``each``."""
    return {key: each(item) for key, item in value.items()}


def decoded(decode, default=MISSING, encode=to_doc, **options):
    """A field ``from_doc`` reads by ``decode(value, **options)``, ``to_doc`` writes by ``encode``."""
    return field(default=default, metadata={"decode": partial(decode, **options), "encode": encode})


def check_fields(doc, names, **constants) -> dict:
    """``doc`` if it is a JSON object that holds each of the ``constants``
    (``kind="histograms"``) and whose every key is in ``names``; else raises one
    of ``MALFORMED``."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {doc!r}")
    for key, value in constants.items():
        if doc.get(key) != value:
            raise ValueError(f"{key} is {doc.get(key)!r}, not {value!r}")
    for key in doc:
        if key not in names:
            raise ValueError(f"unknown field {key!r}")
    return doc


def _read_back(doc, f, value) -> None:
    """ValueError unless the field ``f`` of ``doc`` is, as JSON text less key order, what its
    encoder writes of ``value``."""
    own = f.metadata.get("encode", to_doc)(value)
    if json.dumps(doc[f.name], sort_keys=True) != json.dumps(own, sort_keys=True):
        raise ValueError(f"{f.name} is {reprlib.repr(doc[f.name])}, not {reprlib.repr(own)}")


def from_doc(doc, cls, **decoders):
    """The ``cls`` record a JSON document holds, the inverse of ``to_doc``. The constants
    (``kind``) are compared first, then the keys. Each written field is then decoded by
    ``decoders[name]`` or else its ``decoded`` one, and read back: compared with what its
    encoder writes of the decoded value, as JSON text less key order (``4.0`` is not ``4``,
    ``true`` not ``1``). A field declared ``decoded(from_doc)`` or ``decoded(json_records)`` is
    not read back, its records having read their own fields. Only then is the record built,
    and its computed fields read back from it. A defect raises one of ``MALFORMED``."""
    written = [f for f in fields(cls) if f.repr]
    constants = {f.name: f.default for f in written if not f.init and f.default is not MISSING}
    check_fields(doc, [f.name for f in written], **constants)
    values = {}
    for f in written:
        if f.init:
            values[f.name] = (decoders.get(f.name) or f.metadata["decode"])(doc[f.name])
            if f.metadata["decode"].func not in (from_doc, json_records):
                _read_back(doc, f, values[f.name])
    record = cls(**values)
    for f in written:
        if not f.init and f.name not in constants:
            _read_back(doc, f, getattr(record, f.name))
    return record


def write_json(path, payload) -> None:
    """Serialize ``to_doc(payload)``, a record's document or a dict, with a format_version field."""
    doc = dict(to_doc(payload))
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
    """``decode(doc)``, less its format_version, for the document read from ``path``; a
    defect it raises as one of ``MALFORMED`` is a FormatError naming the file and ``what`` it is."""
    try:
        return decode({key: value for key, value in doc.items() if key != "format_version"})
    except KeyError as exc:   # str(KeyError('x')) is "'x'"
        raise FormatError(f"{path}: malformed {what} file (missing field {exc})") from exc
    except MALFORMED as exc:
        raise FormatError(f"{path}: malformed {what} file ({exc})") from exc


# ---------------------------------------------------------------------------
# domain types

def same_record(a, b) -> bool:
    """Whether ``a`` and ``b`` are of one type whose fields give equal ``to_doc`` documents,
    field by field: every label, size, value and order alike, ``-0.0`` equal to ``0.0``."""
    return type(a) is type(b) and all(to_doc(getattr(a, f.name)) == to_doc(getattr(b, f.name))
                                      for f in fields(a))


@dataclass(slots=True, eq=False)
class FrameSequence:
    """A raw grayscale video held as a (frames, height, width) uint8 volume.

    Pipeline stages assume frames of at least 8x8 pixels; the container
    itself only rejects empty dimensions so that tiny fixture files can
    still be decoded and inspected.
    """

    frames: np.ndarray

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames, dtype=np.uint8)
        if frames.ndim != 3:
            raise ValidationError(f"frames must be 3-d (t, y, x), got {frames.ndim}-d")
        t, h, w = frames.shape
        if w < 1 or h < 1:
            raise ValidationError("frame dimensions must be nonzero")
        if t < 2:
            raise ValidationError(f"a frame sequence needs at least 2 frames, got {t}")
        frames.flags.writeable = False
        self.frames = frames

    __eq__ = same_record

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]


@dataclass(slots=True, eq=False)
class DescriptorSet:
    """A typed collection of fixed-dimension float64 descriptor vectors."""

    descriptor_type: str
    dim: int
    vectors: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("descriptor dimension must be positive")
        vectors = np.empty((0, self.dim)) if self.vectors is None else self.vectors
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValidationError(f"descriptor vectors must have shape (count, {self.dim}), "
                                  f"got {vectors.shape}")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ValidationError("descriptor vectors must be finite")
        self.vectors = vectors

    __eq__ = same_record

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


@dataclass(slots=True, eq=False)
class Codebook:
    """A K-means vocabulary: one centroid row per visual word."""

    descriptor_type: str
    centroids: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False)   # |c|^2 per centroid, for quantizing

    def __post_init__(self):
        centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] < 1:
            raise ValidationError("a codebook needs at least one centroid row")
        if not np.all(np.isfinite(centroids)):
            raise ValidationError("codebook centroids must be finite")
        self.centroids = centroids
        self.sq_norms = np.sum(centroids * centroids, axis=1)

    __eq__ = same_record

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def word_count(self) -> int:
        return self.centroids.shape[0]


@dataclass(slots=True, eq=False)
class VideoHistogram:
    """Concatenated per-type visual-word histogram for one video.

    ``blocks`` is an ordered list of (descriptor_type, counts) pairs, each
    name once, written as one JSON object. Each block is L1-normalized at
    encoding time, so its sum is 1, or 0 for a video that produced no
    descriptors of that type.
    """

    video_id: str = decoded(json_str)
    blocks: list = decoded(lambda value: [*json_object(value, json_numbers).items()],
                           encode=lambda blocks: dict(to_doc(blocks)))

    def __post_init__(self):
        norm_blocks = []
        for name, counts in self.blocks:
            counts = np.ascontiguousarray(counts, dtype=np.float64)
            if counts.ndim != 1:
                raise ValidationError("histogram blocks must be 1-d")
            if counts.size and counts.min() < 0.0:
                raise ValidationError(f"histogram block {name!r} has negative entries")
            total = counts.sum()
            if not (abs(total) <= 1e-12 or abs(total - 1.0) <= 1e-12):
                raise ValidationError(f"histogram block {name!r} must sum to 0 or 1, got {total!r}")
            norm_blocks.append((str(name), counts))
        if not norm_blocks or len(dict(norm_blocks)) < len(norm_blocks):
            raise ValidationError("a histogram needs at least one block, each named once")
        self.blocks = norm_blocks

    __eq__ = same_record

    def block_order(self):
        return [name for name, _ in self.blocks]

    def concat(self) -> np.ndarray:
        return np.concatenate([counts for _, counts in self.blocks])


@dataclass(slots=True)
class HistogramCollection:
    """At least one video's histogram, none twice, each with the blocks ``block_order`` names, of the
    first one's sizes, put in that order whatever the key order of its JSON object. A reader that
    knows the block names gives ``from_doc`` their decoder."""

    kind: str = field(default="histograms", init=False)
    block_order: list = decoded(json_str, ndim=1)
    histograms: list = decoded(json_records, cls=VideoHistogram)

    def __post_init__(self):
        if not self.histograms:
            raise ValidationError("a histogram collection needs at least one video")
        layout, seen = {name: counts.size for name, counts in self.histograms[0].blocks}, set()
        if sorted(layout) != sorted(self.block_order):
            raise ValidationError(f"block names {list(self.block_order)} are not {list(layout)}")
        for h in self.histograms:
            if (shape := {name: counts.size for name, counts in h.blocks}) != layout:
                raise ValidationError(f"video {h.video_id!r} has blocks {shape}, not {layout}")
            if h.video_id in seen:
                raise ValidationError(f"video {h.video_id!r} is listed twice")
            seen.add(h.video_id)
        self.histograms = [VideoHistogram(h.video_id, [(name, dict(h.blocks)[name])
                                                       for name in self.block_order])
                           for h in self.histograms]


@dataclass(slots=True)
class DescriptorListing:
    """Each feature's size >= 1, keyed by its name, and for each of at least one video the
    descriptor file of each of those features. A reader that knows the feature names checks
    the keys of ``dims``."""

    kind: str = field(default="descriptors", init=False)
    dims: dict = decoded(json_object, each=partial(json_numbers, ndim=0, integer=True))
    videos: dict = decoded(json_object, each=partial(json_object, each=json_str))

    def __post_init__(self):
        if not self.videos:
            raise ValidationError("a descriptor listing needs at least one video")
        if min(self.dims.values(), default=0) < 1:
            raise ValidationError(f"dims {self.dims} do not give at least one feature, each a size >= 1")
        for vid, files in self.videos.items():
            if set(files) != set(self.dims):
                raise ValidationError(f"video {vid!r} lists {sorted(files)}, not {list(self.dims)}")


@dataclass(frozen=True)
class VideoEntry:
    video_id: str = decoded(json_str)
    class_index: int = decoded(json_numbers, ndim=0, integer=True)
    path: str = decoded(json_str)


@dataclass(slots=True)
class DatasetManifest:
    """Class names plus the labeled video files that make up a dataset."""

    kind: str = field(default="dataset_manifest", init=False)
    classes: list = decoded(json_str, ndim=1)
    videos: list = decoded(json_records, cls=VideoEntry)

    def __post_init__(self):
        check_classes(self.classes)
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ValidationError("video ids must be unique")
        for v in self.videos:
            if not 0 <= v.class_index < len(self.classes):
                raise ValidationError(
                    f"video {v.video_id!r} has class_index {v.class_index} "
                    f"outside 0..{len(self.classes) - 1}"
                )
        thin = [name for name, n in zip(self.classes, self.class_counts()) if n < 2]
        if thin:
            raise ValidationError(f"every class needs at least 2 videos; too few for {thin}")

    def class_counts(self):
        counts = [0] * len(self.classes)
        for v in self.videos:
            counts[v.class_index] += 1
        return counts

    def videos_of_class(self, class_index: int):
        return [v for v in self.videos if v.class_index == class_index]


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

def read_manifest(path) -> DatasetManifest:
    return decode_json(path, read_json(path), "manifest", partial(from_doc, cls=DatasetManifest))


def write_histograms(histograms, path) -> None:
    """Serialize a list of VideoHistogram sharing one block layout, in the first one's block order."""
    write_json(path, HistogramCollection(histograms[0].block_order() if histograms else [], histograms))


def read_histograms(path, **decoders) -> list:
    """The histograms of a collection file, read by ``from_doc`` with the given field ``decoders``."""
    return decode_json(path, read_json(path), "histograms",
                       partial(from_doc, cls=HistogramCollection, **decoders)).histograms
