import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoact import dataio
from egoact.errors import CorruptionError, FormatError, ValidationError


def test_fsq_all_zero_payload(tmp_path):
    path = tmp_path / "zero.fsq"
    path.write_bytes(struct.pack("<4sIII", b"FSQ1", 4, 4, 2) + bytes(32))
    seq = dataio.read_frame_sequence(path)
    assert (seq.width, seq.height, seq.frame_count) == (4, 4, 2)
    assert seq.frames.size == 32
    assert not seq.frames.any()


def test_fsq_round_trip_byte_for_byte(tmp_path):
    rng = np.random.default_rng(0)
    seq = dataio.FrameSequence(rng.integers(0, 256, size=(3, 5, 9), dtype=np.uint8))
    first = tmp_path / "a.fsq"
    second = tmp_path / "b.fsq"
    dataio.write_frame_sequence(seq, first)
    dataio.write_frame_sequence(dataio.read_frame_sequence(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_fsq_truncated_payload(tmp_path):
    path = tmp_path / "short.fsq"
    path.write_bytes(struct.pack("<4sIII", b"FSQ1", 4, 4, 3) + bytes(32))
    with pytest.raises(CorruptionError):
        dataio.read_frame_sequence(path)


def test_fsq_bad_magic(tmp_path):
    path = tmp_path / "bad.fsq"
    path.write_bytes(struct.pack("<4sIII", b"NOPE", 4, 4, 2) + bytes(32))
    with pytest.raises(FormatError):
        dataio.read_frame_sequence(path)


def test_fsq_zero_dimension(tmp_path):
    path = tmp_path / "dims.fsq"
    path.write_bytes(struct.pack("<4sIII", b"FSQ1", 0, 4, 2))
    with pytest.raises(FormatError):
        dataio.read_frame_sequence(path)


def test_fsq_extra_bytes_rejected(tmp_path):
    path = tmp_path / "extra.fsq"
    path.write_bytes(struct.pack("<4sIII", b"FSQ1", 4, 4, 2) + bytes(33))
    with pytest.raises(CorruptionError):
        dataio.read_frame_sequence(path)


def test_empty_descriptor_set_round_trip(tmp_path):
    dset = dataio.DescriptorSet("logc", 78)
    path = tmp_path / "empty.dsc"
    dataio.write_descriptor_set(dset, path)
    back = dataio.read_descriptor_set(path, descriptor_type="logc")
    assert back == dset
    assert back.count == 0 and back.dim == 78


def test_codebook_single_word_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    codebook = dataio.Codebook("hof", rng.normal(size=(1, 7)))
    path = tmp_path / "one.cbk"
    dataio.write_codebook(codebook, path)
    back = dataio.read_codebook(path, descriptor_type="hof")
    assert back.centroids.tobytes() == codebook.centroids.tobytes()
    assert back == codebook


def test_dsc_size_mismatch(tmp_path):
    path = tmp_path / "bad.dsc"
    path.write_bytes(struct.pack("<4sII", b"DSC1", 3, 2) + bytes(8 * 3 * 2 - 8))
    with pytest.raises(CorruptionError):
        dataio.read_descriptor_set(path)


def test_cbk_zero_dim(tmp_path):
    path = tmp_path / "bad.cbk"
    path.write_bytes(struct.pack("<4sII", b"CBK1", 0, 1))
    with pytest.raises(FormatError):
        dataio.read_codebook(path)


@settings(max_examples=25, deadline=None)
@given(
    t=st.integers(2, 5), h=st.integers(1, 6), w=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_fsq_round_trip_property(tmp_path_factory, t, h, w, seed):
    rng = np.random.default_rng(seed)
    seq = dataio.FrameSequence(rng.integers(0, 256, size=(t, h, w), dtype=np.uint8))
    path = tmp_path_factory.mktemp("fsq") / "x.fsq"
    dataio.write_frame_sequence(seq, path)
    assert dataio.read_frame_sequence(path) == seq


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(0, 6), dim=st.integers(1, 9), seed=st.integers(0, 2**31),
)
def test_dsc_round_trip_property(tmp_path_factory, count, dim, seed):
    rng = np.random.default_rng(seed)
    dset = dataio.DescriptorSet("cuboid", dim, rng.normal(size=(count, dim)))
    path = tmp_path_factory.mktemp("dsc") / "x.dsc"
    dataio.write_descriptor_set(dset, path)
    assert dataio.read_descriptor_set(path, "cuboid") == dset


@settings(max_examples=25, deadline=None)
@given(words=st.integers(1, 5), dim=st.integers(1, 9), seed=st.integers(0, 2**31))
def test_cbk_round_trip_property(tmp_path_factory, words, dim, seed):
    rng = np.random.default_rng(seed)
    codebook = dataio.Codebook("hof", rng.normal(size=(words, dim)))
    path = tmp_path_factory.mktemp("cbk") / "x.cbk"
    dataio.write_codebook(codebook, path)
    assert dataio.read_codebook(path, "hof") == codebook


def _manifest():
    return dataio.DatasetManifest(
        ["walk", "wave"],
        [
            dataio.VideoEntry("a", 0, "a.fsq"),
            dataio.VideoEntry("b", 0, "b.fsq"),
            dataio.VideoEntry("c", 1, "c.fsq"),
            dataio.VideoEntry("d", 1, "d.fsq"),
        ],
    )


def test_manifest_round_trip(tmp_path):
    manifest = _manifest()
    path = tmp_path / "manifest.json"
    dataio.write_json(path, manifest)
    assert dataio.read_manifest(path) == manifest


def test_manifest_validation():
    with pytest.raises(ValidationError):
        dataio.DatasetManifest(["a"], [dataio.VideoEntry("x", 0, "x"), dataio.VideoEntry("x", 0, "y")])
    with pytest.raises(ValidationError):
        dataio.DatasetManifest(["a"], [dataio.VideoEntry("x", 1, "x"), dataio.VideoEntry("y", 0, "y")])
    with pytest.raises(ValidationError):  # a class with fewer than 2 videos
        dataio.DatasetManifest(
            ["a", "b"],
            [dataio.VideoEntry("x", 0, "x"), dataio.VideoEntry("y", 0, "y"),
             dataio.VideoEntry("z", 1, "z")],
        )


def test_manifest_refuses_a_repeated_class_name(tmp_path):
    videos = [dataio.VideoEntry(v, i // 2, f"{v}.fsq") for i, v in enumerate("abcd")]
    with pytest.raises(ValidationError, match="each named once"):
        dataio.DatasetManifest(["walk", "walk"], videos)
    path = tmp_path / "manifest.json"
    dataio.write_json(path, {"kind": "dataset_manifest", "classes": ["walk", "walk"],
                             "videos": [{"video_id": v.video_id, "class_index": v.class_index,
                                         "path": v.path} for v in videos]})
    with pytest.raises(FormatError, match="malformed manifest file"):
        dataio.read_manifest(path)


def test_histograms_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    hists = []
    for i in range(3):
        counts = rng.random(4)
        counts /= counts.sum()
        cuboid = np.zeros(6) if i == 0 else _normalized(rng.random(6))
        hists.append(dataio.VideoHistogram(f"v{i}", [("hof", counts), ("cuboid", cuboid)]))
    path = tmp_path / "h.json"
    dataio.write_histograms(hists, path)
    back = dataio.read_histograms(path)
    assert back == hists  # exact float64 equality through JSON


def test_histograms_read_back_equal_with_sorted_keys(tmp_path):
    """A file re-serialized with sorted keys (``jq -S``) lists each ``blocks``
    object's cuboid before hof; the blocks still come back in ``block_order``."""
    hists = [dataio.VideoHistogram(f"v{i}", [("hof", np.full(4, 0.25)), ("cuboid", np.eye(3)[i])])
             for i in range(3)]
    path = tmp_path / "h.json"
    dataio.write_histograms(hists, path)
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2))
    assert '"blocks": {\n        "cuboid"' in path.read_text()
    back = dataio.read_histograms(path)
    assert back == hists and back[0].block_order() == ["hof", "cuboid"]


def test_write_histograms_puts_each_video_in_the_first_ones_block_order(tmp_path):
    first = dataio.VideoHistogram("v0", [("hof", np.full(4, 0.25)), ("cuboid", np.eye(3)[0])])
    second = dataio.VideoHistogram("v1", [("cuboid", np.eye(3)[1]), ("hof", np.full(4, 0.25))])
    path = tmp_path / "h.json"
    dataio.write_histograms([first, second], path)
    back = dataio.read_histograms(path)
    assert back[1] == dataio.VideoHistogram("v1", [("hof", np.full(4, 0.25)), ("cuboid", np.eye(3)[1])])
    assert second.block_order() == ["cuboid", "hof"]   # the caller's record is left as it was


@pytest.mark.parametrize("hists, message", [
    ([], "a histogram collection needs at least one video"),
    ([dataio.VideoHistogram("v0", [("hof", np.full(4, 0.25))]),
      dataio.VideoHistogram("v1", [("hof", np.full(2, 0.5))])],
     "video 'v1' has blocks {'hof': 2}, not {'hof': 4}"),
], ids=["empty", "block_sizes_differ"])
def test_write_histograms_refuses_a_collection_no_reader_accepts(tmp_path, hists, message):
    path = tmp_path / "h.json"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataio.write_histograms(hists, path)
    assert not path.exists()


def test_histogram_numbers_read_back_as_written(tmp_path):
    """A block entry given as the integer 1 where the writer writes the real 1.0 is refused."""
    path = tmp_path / "h.json"
    dataio.write_histograms([dataio.VideoHistogram("v0", [("hof", np.array([0.0, 1.0]))])], path)
    path.write_text(path.read_text().replace("1.0", "1"))
    with pytest.raises(FormatError, match=r"malformed histograms file \(blocks is \{'hof': \[0.0, 1\]\}"):
        dataio.read_histograms(path)


def test_write_histograms_refuses_a_repeated_video(tmp_path):
    hist = dataio.VideoHistogram("v0", [("hof", np.full(4, 0.25))])
    path = tmp_path / "h.json"
    with pytest.raises(ValidationError, match="^video 'v0' is listed twice$"):
        dataio.write_histograms([hist, dataio.VideoHistogram("v1", hist.blocks), hist], path)
    assert not path.exists()


def _normalized(x):
    return x / x.sum()


def test_histogram_block_invariants():
    with pytest.raises(ValidationError):
        dataio.VideoHistogram("v", [("hof", np.array([0.5, 0.2]))])  # sums to 0.7
    with pytest.raises(ValidationError):
        dataio.VideoHistogram("v", [("hof", np.array([-0.5, 1.5]))])


def test_read_json_requires_format_version(tmp_path):
    path = tmp_path / "x.json"
    for text in ('{"kind": "histograms"}', "not json at all",
                 '{"format_version": true}', '{"format_version": 1.0}'):
        path.write_text(text)
        with pytest.raises(FormatError):
            dataio.read_json(path)


def test_atomic_write_no_partial_output(tmp_path):
    target = tmp_path / "out.bin"
    dataio.atomic_write_bytes(target, b"ok")
    assert target.read_bytes() == b"ok"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.bin"]
    assert leftovers == []


def refuse_rename(src, dst):
    raise OSError(f"cannot rename {src} to {dst}")


@pytest.mark.parametrize("block", ["nonempty_directory", "refused_rename"])
def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch, block):
    target = tmp_path / "out.bin"
    if block == "nonempty_directory":   # a file cannot replace it
        target.mkdir()
        (target / "inside").write_bytes(b"")
    else:
        monkeypatch.setattr(dataio.os, "replace", refuse_rename)
    with pytest.raises(OSError):
        dataio.atomic_write_bytes(target, b"ok")
    assert [p.name for p in tmp_path.iterdir()] == ([] if block == "refused_rename" else ["out.bin"])


# Each record type's builder takes keyword overrides of one base value, so
# two calls with the same overrides give equal records on separate arrays.

def frame_record(values=tuple(range(24)), shape=(2, 3, 4)):
    return dataio.FrameSequence(np.array(values, dtype=np.uint8).reshape(shape))


def descriptor_record(dtype="hof", dim=3, values=(0.0, 1.5, -2.0, 0.25, 4.0, 0.5)):
    return dataio.DescriptorSet(dtype, dim, np.array(values).reshape(-1, dim) if values else None)


def codebook_record(dtype="hof", words=2, values=(0.0, 1.5, -2.0, 0.25, 4.0, 0.5)):
    return dataio.Codebook(dtype, np.array(values).reshape(words, -1))


def histogram_record(video_id="v0", blocks=(("hof", (0.0, 0.25, 0.75)), ("cuboid", (1.0, 0.0)))):
    return dataio.VideoHistogram(video_id, [(name, np.array(counts)) for name, counts in blocks])


RECORDS = {"frames": frame_record, "descriptors": descriptor_record,
           "codebook": codebook_record, "histogram": histogram_record}

# (record, base overrides, overrides that change exactly one field's content)
ONE_FIELD_CHANGES = {
    "frames_one_value": ("frames", {}, {"values": (1, *range(1, 24))}),
    "frames_shape": ("frames", {}, {"shape": (2, 4, 3)}),
    "descriptors_type_label": ("descriptors", {}, {"dtype": "logc"}),
    "descriptors_dim_of_an_empty_set": ("descriptors", {"values": ()}, {"values": (), "dim": 4}),
    "descriptors_shape": ("descriptors", {}, {"dim": 2}),
    "descriptors_one_value": ("descriptors", {}, {"values": (0.0, 1.5, -2.0, 0.25, 4.0, 0.75)}),
    "codebook_type_label": ("codebook", {}, {"dtype": "cuboid"}),
    "codebook_shape": ("codebook", {}, {"words": 3}),
    "codebook_one_value": ("codebook", {}, {"values": (0.0, 1.5, -2.0, 0.25, 4.0, 0.75)}),
    "histogram_video_id": ("histogram", {}, {"video_id": "v1"}),
    "histogram_block_order": ("histogram", {}, {"blocks": (("cuboid", (1.0, 0.0)),
                                                           ("hof", (0.0, 0.25, 0.75)))}),
    "histogram_block_name": ("histogram", {}, {"blocks": (("hof", (0.0, 0.25, 0.75)),
                                                          ("logc", (1.0, 0.0)))}),
    "histogram_one_value": ("histogram", {}, {"blocks": (("hof", (0.0, 0.75, 0.25)),
                                                         ("cuboid", (1.0, 0.0)))}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_copies_of_a_record_compare_equal_and_other_types_do_not(name):
    record = RECORDS[name]()
    assert record == RECORDS[name]() and not record != RECORDS[name]()
    others = [build() for other_name, build in RECORDS.items() if other_name != name]
    for other in [*others, object(), None, (record,)]:
        assert record != other and not record == other


@pytest.mark.parametrize("case", sorted(ONE_FIELD_CHANGES))
def test_changing_one_field_makes_a_record_unequal(case):
    name, base, changed = ONE_FIELD_CHANGES[case]
    build = RECORDS[name]
    assert build(**base) == build(**base)
    assert build(**base) != build(**{**base, **changed})
    assert not build(**{**base, **changed}) == build(**base)


@pytest.mark.parametrize("name, signed", [
    ("descriptors", {"values": (-0.0, 1.5, -2.0, 0.25, 4.0, 0.5)}),
    ("codebook", {"values": (-0.0, 1.5, -2.0, 0.25, 4.0, 0.5)}),
    ("histogram", {"blocks": (("hof", (-0.0, 0.25, 0.75)), ("cuboid", (1.0, -0.0)))}),
])
def test_negative_zero_equals_zero_in_a_record(name, signed):
    assert RECORDS[name](**signed) == RECORDS[name]()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dataio.FrameSequence(np.zeros((2, 8))), "frames must be 3-d (t, y, x), got 2-d",
                 id="frames_2d"),
    pytest.param(lambda: dataio.FrameSequence(np.zeros((2, 0, 8))), "frame dimensions must be nonzero",
                 id="frames_zero_height"),
    pytest.param(lambda: dataio.DescriptorSet("hof", 0), "descriptor dimension must be positive",
                 id="descriptor_dim_0"),
    pytest.param(lambda: dataio.DescriptorSet("hof", 3, np.zeros((2, 4))),
                 "descriptor vectors must have shape (count, 3), got (2, 4)", id="descriptor_shape"),
    pytest.param(lambda: dataio.VideoHistogram("v", [("hof", np.zeros((2, 2)))]),
                 "histogram blocks must be 1-d", id="histogram_2d_block"),
])
def test_record_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert message in str(refused.value)
