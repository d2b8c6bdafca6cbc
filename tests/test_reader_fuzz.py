"""Fuzz the artifact readers with damaged bytes and mistyped fields.

Every input must give a valid object or a FormatError (CorruptionError is
one); through ``egoact inspect`` that is exit 0, or exit 2 with one error
line, and never a traceback.
"""

import copy
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egoact import dataio
from egoact.cli import _inspect_json, _read_descriptor_dir, main
from egoact.config import RunConfig, SplitSection
from egoact.errors import FormatError
from egoact.evaluation import EvalReport
from egoact.modelio import TrainedModel, read_model, train_model, write_model

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def toy_dataset():
    rng = np.random.default_rng(0)
    entries, hists = [], []
    for k in range(2):
        for v in range(3):
            vid = f"c{k}v{v}"
            entries.append(dataio.VideoEntry(vid, k, f"{vid}.fsq"))
            hof = rng.random(4) + np.eye(4)[k]
            cuboid = rng.random(3)
            hists.append(dataio.VideoHistogram(vid, [("hof", hof / hof.sum()),
                                                     ("cuboid", cuboid / cuboid.sum())]))
    return dataio.DatasetManifest(["left", "right"], entries), hists


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The bytes of one valid artifact of each kind, by file name."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(1)
    manifest, hists = toy_dataset()
    dataio.write_frame_sequence(dataio.FrameSequence(rng.integers(0, 256, (3, 4, 5))),
                                root / "v.fsq")
    dataio.write_descriptor_set(dataio.DescriptorSet("hof", 3, rng.random((4, 3))), root / "v.dsc")
    dataio.write_codebook(dataio.Codebook("hof", rng.random((2, 3))), root / "v.cbk")
    dataio.write_json(root / "manifest.json", manifest)
    dataio.write_histograms(hists, root / "histograms.json")
    cfg = RunConfig(features=("hof", "cuboid"))
    for method in ("single_kernel", "simple_mkl", "boost_mkl"):
        write_model(train_model(manifest, hists, cfg, method, seed=0), root / f"{method}.json")
    dataio.write_json(root / "report.json", EvalReport(
        "simple_mkl", "h_int", ["hof"], ["left", "right"], SplitSection(repeats=2),
        [75.0, 50.0], [[75.0, 25.0], [50.0, 50.0]], RunConfig()))
    dataio.write_json(root / "descriptors.json", {
        "kind": "descriptors", "dims": {"hof": 3},
        "videos": {"c0v0": {"hof": "v.dsc"}, "c0v1": {"hof": "v.dsc"}},
    })
    return {path.name: path.read_bytes() for path in root.iterdir()}


def inspect_exits_0_or_2(path, capsys):
    """``egoact inspect`` exit code, after checking it printed one error line when it failed."""
    code = main(["inspect", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return code


def reads_or_format_error(reader, path):
    """The reader's result, or None when it raised FormatError."""
    try:
        return reader(path)
    except FormatError:
        return None


# ---------------------------------------------------------------------------
# binary artifacts: truncated, mutated or extended bytes

EDIT = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 80)),
    st.tuples(st.just("set"), st.integers(0, 15) | st.integers(0, 80), st.integers(0, 255)),
    st.tuples(st.just("add"), st.binary(min_size=1, max_size=24)),
    # a whole u32 header field, or one float64 of a .dsc/.cbk payload
    st.tuples(st.just("pack"), st.just("<I"), st.sampled_from([4, 8, 12]),
              st.sampled_from([0, 1, 2, 3, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
    st.tuples(st.just("pack"), st.just("<d"), st.integers(0, 4).map(lambda i: 12 + 8 * i),
              st.sampled_from([float("nan"), float("inf"), -1.0, 0.0])),
)


def damage(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for edit in edits:
        if edit[0] == "cut":
            del data[edit[1]:]
        elif edit[0] == "set" and edit[1] < len(data):
            data[edit[1]] = edit[2]
        elif edit[0] == "add":
            data += edit[1]
        elif edit[0] == "pack" and edit[2] + struct.calcsize(edit[1]) <= len(data):
            struct.pack_into(edit[1], data, edit[2], edit[3])
    return bytes(data)


BINARY_READERS = {
    "v.fsq": (dataio.read_frame_sequence, dataio.FrameSequence),
    "v.dsc": (dataio.read_descriptor_set, dataio.DescriptorSet),
    "v.cbk": (dataio.read_codebook, dataio.Codebook),
}


@pytest.mark.parametrize("name", sorted(BINARY_READERS))
@FUZZ
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_damaged_binary_artifact_reads_or_is_a_format_error(artifacts, tmp_path, capsys,
                                                            name, edits):
    reader, kind = BINARY_READERS[name]
    path = tmp_path / name
    path.write_bytes(damage(artifacts[name], edits))
    result = reads_or_format_error(reader, path)
    assert result is None or isinstance(result, kind)
    assert inspect_exits_0_or_2(path, capsys) == (2 if result is None else 0)


# one intact file of each format, for the readers of the other two
INTACT = {
    "v.fsq": struct.pack("<4sIII", b"FSQ1", 2, 2, 2) + bytes(8),
    "v.dsc": struct.pack("<4sIId", b"DSC1", 1, 1, 0.5),
    "v.cbk": struct.pack("<4sIId", b"CBK1", 1, 1, 0.5),
}

DECODABLE_BUT_INVALID = {
    "fsq_zero_width": ("v.fsq", struct.pack("<4sIII", b"FSQ1", 0, 4, 2)),
    "fsq_zero_height": ("v.fsq", struct.pack("<4sIII", b"FSQ1", 2, 0, 2)),
    "fsq_zero_frames": ("v.fsq", struct.pack("<4sIII", b"FSQ1", 2, 2, 0)),
    "fsq_one_frame": ("v.fsq", struct.pack("<4sIII", b"FSQ1", 2, 2, 1) + bytes(4)),
    "fsq_reader_given_a_dsc": ("v.fsq", INTACT["v.dsc"]),
    "dsc_zero_dim": ("v.dsc", struct.pack("<4sII", b"DSC1", 0, 3)),
    "dsc_nan_value": ("v.dsc", struct.pack("<4sIId", b"DSC1", 1, 1, float("nan"))),
    "dsc_extra_payload_byte": ("v.dsc", INTACT["v.dsc"] + bytes(1)),
    "dsc_reader_given_a_cbk": ("v.dsc", INTACT["v.cbk"]),
    "cbk_no_words": ("v.cbk", struct.pack("<4sII", b"CBK1", 3, 0)),
    "cbk_infinite_value": ("v.cbk", struct.pack("<4sIId", b"CBK1", 1, 1, float("inf"))),
    "cbk_extra_payload_byte": ("v.cbk", INTACT["v.cbk"] + bytes(1)),
    "cbk_reader_given_an_fsq": ("v.cbk", INTACT["v.fsq"]),
}


@pytest.mark.parametrize("case", sorted(DECODABLE_BUT_INVALID))
def test_header_and_payload_defects_are_format_errors(tmp_path, capsys, case):
    name, raw = DECODABLE_BUT_INVALID[case]
    path = tmp_path / name
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=str(path)):
        BINARY_READERS[name][0](path)
    # inspect picks the reader by magic, so another format's intact file reads
    own_format = raw[:4] == INTACT[name][:4]
    assert inspect_exits_0_or_2(path, capsys) == (2 if own_format else 0)


# ---------------------------------------------------------------------------
# JSON artifacts: fields swapped for values of the wrong type

MISSING = object()
WRONG_VALUES = [MISSING, None, True, 0, -1, 2.5, float("nan"), float("inf"), 10**400, "x", "",
                [], [1, "x"], [[0.5]], {}, {"k": 1}]


def field_paths(doc, prefix=()):
    """Every key or index path inside a JSON document, except format_version."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        if key == "format_version":
            continue
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def swap_fields(doc, swaps):
    doc = copy.deepcopy(doc)
    for path, value in swaps:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass   # an earlier swap removed or replaced this field
    return doc


def mistyped(doc):
    swap = st.tuples(st.sampled_from(list(field_paths(doc))), st.sampled_from(WRONG_VALUES))
    return st.lists(swap, min_size=1, max_size=2).map(lambda swaps: swap_fields(doc, swaps))


JSON_READERS = {
    "manifest.json": (dataio.read_manifest, dataio.DatasetManifest),
    "histograms.json": (dataio.read_histograms, list),
    "single_kernel.json": (read_model, TrainedModel),
    "simple_mkl.json": (read_model, TrainedModel),
    "boost_mkl.json": (read_model, TrainedModel),
}

# the reader of every JSON document: its stage's, and for a report the one in inspect
DOCUMENT_READERS = {
    **{name: reader for name, (reader, _) in JSON_READERS.items()},
    "descriptors.json": lambda path: _read_descriptor_dir(path.parent),
    "report.json": lambda path: _inspect_json(path, dataio.read_json(path)),
}


@pytest.mark.parametrize("name", sorted(JSON_READERS))
@FUZZ
@given(data=st.data())
def test_mistyped_json_artifact_reads_or_is_a_format_error(artifacts, tmp_path, capsys,
                                                           name, data):
    reader, kind = JSON_READERS[name]
    path = tmp_path / name
    dataio.write_json(path, data.draw(mistyped(json.loads(artifacts[name]))))
    result = reads_or_format_error(reader, path)
    assert result is None or isinstance(result, kind)
    inspect_exits_0_or_2(path, capsys)


@FUZZ
@given(data=st.data())
def test_mistyped_eval_report_inspects_or_exits_2(artifacts, tmp_path, capsys, data):
    path = tmp_path / "report.json"
    dataio.write_json(path, data.draw(mistyped(json.loads(artifacts["report.json"]))))
    inspect_exits_0_or_2(path, capsys)


@FUZZ
@given(data=st.data())
def test_mistyped_descriptor_listing_reads_or_is_a_format_error(artifacts, tmp_path, capsys,
                                                                data):
    (tmp_path / "v.dsc").write_bytes(artifacts["v.dsc"])
    path = tmp_path / "descriptors.json"
    dataio.write_json(path, data.draw(mistyped(json.loads(artifacts["descriptors.json"]))))
    try:
        _read_descriptor_dir(tmp_path)
    except (FormatError, OSError):   # OSError: a listed file that is not there
        pass
    inspect_exits_0_or_2(path, capsys)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["long_integer", "deep_nesting"])
def test_unparseable_json_is_a_format_error(tmp_path, capsys, text):
    """Over-long integers and deep nesting are refused by the parser itself."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(FormatError):
        dataio.read_json(path)
    assert inspect_exits_0_or_2(path, capsys) == 2


# ---------------------------------------------------------------------------
# JSON numbers: a string, a bool or a fraction where a number or an integer belongs,
# a NaN or an infinity (given as a string too) where a real belongs, a value past
# int64 where an integer belongs, anything but true or false where a ``converged``
# flag belongs, and an object or a string where a list of records belongs

def _hof(doc):
    return doc["histograms"][0]["blocks"]["hof"]


def _mkl(doc):
    return doc["binary_models"][0]


def _trial(doc):
    return doc["binary_models"][0]["trials"][0]


def _spec(doc):
    return doc["specs"][0]


MISTYPED_NUMBERS = {
    "histogram_string_entry": ("histograms.json", lambda d: _hof(d).__setitem__(0, str(_hof(d)[0]))),
    "histogram_bool_entries": ("histograms.json", lambda d: d["histograms"][1]["blocks"].update(
        cuboid=[False, True, False])),
    "svm_string_dual_coef": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(
        dual_coef=[str(c) for c in _mkl(d)["svm"]["dual_coef"]])),
    "svm_string_bias": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(bias="0.1")),
    "svm_bool_c_reg": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(c_reg=True)),
    "svm_fractional_iterations": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(iterations=3.5)),
    "mkl_string_weights": ("simple_mkl.json", lambda d: _mkl(d).update(
        weights=[str(w) for w in _mkl(d)["weights"]])),
    "string_scale": ("simple_mkl.json", lambda d: d["scales"].__setitem__(0, "1.0")),
    "bool_train_vector": ("simple_mkl.json", lambda d: d["train_vectors"][0].__setitem__(0, True)),
    "string_spec_block": ("simple_mkl.json", lambda d: d["specs"][0]["block"].__setitem__(0, "0")),
    "fractional_kernel_index": ("boost_mkl.json", lambda d: _trial(d).update(kernel_index=0.0)),
    "fractional_train_index": ("boost_mkl.json", lambda d: _trial(d)["train_indices"].__setitem__(0, 1.5)),
    "string_trial_weight": ("boost_mkl.json", lambda d: _trial(d).update(weight="0.3")),
    "string_train_size": ("boost_mkl.json", lambda d: _trial(d)["train_indices"].__setitem__(0, "6")),
    "mkl_string_converged": ("simple_mkl.json", lambda d: _mkl(d).update(converged="false")),
    "mkl_number_converged": ("simple_mkl.json", lambda d: _mkl(d).update(converged=0)),
    "mkl_null_converged": ("simple_mkl.json", lambda d: _mkl(d).update(converged=None)),
    "svm_nan_string_bias": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(bias="NaN")),
    "infinity_string_scale": ("simple_mkl.json", lambda d: d["scales"].__setitem__(0, "Infinity")),
    "overflowing_string_trial_weight": ("boost_mkl.json", lambda d: _trial(d).update(weight="1e400")),
    "bool_kernel_index": ("boost_mkl.json", lambda d: _trial(d).update(kernel_index=True)),
    "overflowing_train_size": ("boost_mkl.json", lambda d: _trial(d)["train_indices"].__setitem__(
        0, 1e400)),
    "train_index_past_int64": ("boost_mkl.json", lambda d: _trial(d)["train_indices"].__setitem__(
        0, 2**70)),
    "svm_iterations_past_int64": ("simple_mkl.json", lambda d: _mkl(d)["svm"].update(iterations=2**70)),
    "trials_as_object": ("boost_mkl.json", lambda d: _mkl(d).update(trials={})),
    "specs_as_string": ("simple_mkl.json", lambda d: d.update(specs="abc")),
    "manifest_videos_as_object": ("manifest.json", lambda d: d.update(videos={})),
}


# a number, a null, one string or an object where a string or a list of strings belongs
MISTYPED_STRINGS = {
    "manifest_classes_as_object": ("manifest.json", lambda d: d.update(classes={"left": 0, "right": 1})),
    "model_classes_as_object": ("boost_mkl.json", lambda d: d.update(classes={"left": 0, "right": 1})),
    "report_classes_as_object": ("report.json", lambda d: d.update(classes={"left": 0, "right": 1})),
    "manifest_classes_as_one_string": ("manifest.json", lambda d: d.update(classes="lr")),
    "manifest_numeric_video_id": ("manifest.json", lambda d: d["videos"][0].update(video_id=12)),
    "manifest_null_path": ("manifest.json", lambda d: d["videos"][0].update(path=None)),
    "model_classes_as_one_string": ("simple_mkl.json", lambda d: d.update(classes="lr")),
    "spec_numeric_label": ("simple_mkl.json", lambda d: d["specs"][0].update(label=7)),
    "histogram_numeric_video_id": ("histograms.json",
                                   lambda d: d["histograms"][0].update(video_id=12)),
}


def rejected_on_read(artifacts, tmp_path, capsys, name, mutate) -> str:
    """The reader's error for the mutated artifact ``name``, after checking that
    ``inspect`` (``train``, for histograms) exits 2 with one line on it."""
    doc = json.loads(artifacts[name])
    mutate(doc)
    path = tmp_path / name
    dataio.write_json(path, doc)
    (tmp_path / "v.dsc").write_bytes(artifacts["v.dsc"])   # the descriptor listing's one file
    with pytest.raises(FormatError, match="malformed") as info:
        DOCUMENT_READERS[name](path)
    if name != "histograms.json":
        assert inspect_exits_0_or_2(path, capsys) == 2
        return str(info.value)
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(artifacts["manifest.json"])
    assert main(["train", "--manifest", str(manifest), "--histograms", str(path),
                 "--method", "single", "--out", str(tmp_path / "model.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: malformed histogram")
    assert captured.err.count("\n") == 1
    return str(info.value)


@pytest.mark.parametrize("case", sorted(MISTYPED_NUMBERS))
def test_mistyped_numbers_are_format_errors(artifacts, tmp_path, capsys, case):
    rejected_on_read(artifacts, tmp_path, capsys, *MISTYPED_NUMBERS[case])


@pytest.mark.parametrize("case", sorted(MISTYPED_STRINGS))
def test_mistyped_strings_are_format_errors(artifacts, tmp_path, capsys, case):
    rejected_on_read(artifacts, tmp_path, capsys, *MISTYPED_STRINGS[case])


@pytest.mark.parametrize("case", sorted(MISTYPED_NUMBERS.keys() | MISTYPED_STRINGS.keys()))
def test_mistyped_values_name_their_field_or_the_number_or_list_rule(artifacts, tmp_path, capsys,
                                                                     case):
    """Each field is read back before the record is built, so no later rule speaks first."""
    name, mutate = MISTYPED_NUMBERS.get(case) or MISTYPED_STRINGS[case]
    message = rejected_on_read(artifacts, tmp_path, capsys, name, mutate)
    assert re.search(r"file \((\w+ is .*, not |expected a finite number, got |expected a list, got )",
                     message), message


def test_repeated_histogram_video_id_is_a_format_error(artifacts, tmp_path, capsys):
    """A collection that lists one video twice would otherwise train on its last copy."""
    message = rejected_on_read(artifacts, tmp_path, capsys, "histograms.json",
                               lambda d: d["histograms"].append(d["histograms"][0]))
    assert "video 'c0v0' is listed twice" in message


# a field that every model writer emits, deleted: the decoder has no default for it
MISSING_FIELDS = {
    "svm_iterations": ("simple_mkl.json", lambda d: _mkl(d)["svm"].pop("iterations")),
    "svm_objective": ("simple_mkl.json", lambda d: _mkl(d)["svm"].pop("objective")),
    "mkl_converged": ("simple_mkl.json", lambda d: _mkl(d).pop("converged")),
    "spec_sigma": ("simple_mkl.json", lambda d: _spec(d).pop("sigma")),
    "spec_channels": ("simple_mkl.json", lambda d: _spec(d).pop("channels")),
    "spec_block": ("simple_mkl.json", lambda d: _spec(d).pop("block")),
    "spec_exponents": ("simple_mkl.json", lambda d: _spec(d).pop("exponents")),
    "spec_label": ("simple_mkl.json", lambda d: _spec(d).pop("label")),
}


@pytest.mark.parametrize("case", sorted(MISSING_FIELDS))
def test_missing_fields_are_format_errors(artifacts, tmp_path, capsys, case):
    field = case.split("_", 1)[1]
    message = rejected_on_read(artifacts, tmp_path, capsys, *MISSING_FIELDS[case])
    assert f"missing field '{field}'" in message


# a model field of the right JSON type that its writer never emits or that the
# rest of the model contradicts. The first spec of the toy simple_mkl model is
# h_int over block [0, 4] of 7-dimension training vectors; an empty block is
# only ever null and empty channels only [].
WRONG_MODEL_VALUES = {
    "spec_block_false": lambda d: _spec(d).update(block=False),
    "spec_block_zero": lambda d: _spec(d).update(block=0),
    "spec_block_empty_string": lambda d: _spec(d).update(block=""),
    "spec_block_empty_list": lambda d: _spec(d).update(block=[]),
    "spec_block_three_entries": lambda d: _spec(d).update(block=[0, 4, 9]),
    "spec_block_negative_offset": lambda d: _spec(d).update(block=[-3, 4]),
    "spec_block_zero_length": lambda d: _spec(d).update(block=[0, 0]),
    "spec_block_past_the_vectors": lambda d: _spec(d).update(block=[0, 999]),
    "spec_block_offset_past_the_vectors": lambda d: _spec(d).update(block=[5, 4]),
    "spec_channels_false": lambda d: _spec(d).update(channels=False),
    "spec_channels_zero": lambda d: _spec(d).update(channels=0),
    "spec_channels_empty_string": lambda d: _spec(d).update(channels=""),
    "spec_channels_not_partitioning_the_block": lambda d: _spec(d).update(
        kind="dc_int", channels=[[0, 3]]),
    "spec_channels_on_h_int": lambda d: _spec(d).update(channels=[[0, 99], [5, -2]]),
    "spec_sigma_on_h_int": lambda d: _spec(d).update(sigma=3.0),
}


@pytest.mark.parametrize("case", sorted(WRONG_MODEL_VALUES))
def test_wrong_model_values_are_format_errors(artifacts, tmp_path, capsys, case):
    """Refused when the model is read, not when it first scores."""
    rejected_on_read(artifacts, tmp_path, capsys, "simple_mkl.json", WRONG_MODEL_VALUES[case])


# a model that no writer emits, refused on read for the reason it names; the jpl_int
# cases split the toy model's first block [0, 4] into two channels
REFUSED_MODELS = {
    "no_specs": ("simple_mkl.json", lambda d: d.update(specs=[]), "kernel specs"),
    "no_trials": ("boost_mkl.json", lambda d: _mkl(d).update(trials=[]), "at least one kept trial"),
    "gaussian_sigma_zero": ("simple_mkl.json", lambda d: _spec(d).update(kind="gaussian", sigma=0.0),
                            "gaussian sigma must be positive"),
    "dc_int_without_channels": ("simple_mkl.json", lambda d: _spec(d).update(kind="dc_int"),
                                "dc_int needs a channel layout"),
    "exponents_on_h_int": ("simple_mkl.json", lambda d: _spec(d).update(exponents=[1.0]),
                           "exponents only apply to jpl_int"),
    "one_exponent_for_two_channels": ("simple_mkl.json", lambda d: _spec(d).update(
        kind="jpl_int", channels=[[0, 2], [2, 2]], exponents=[1.0]), "need one exponent per channel"),
    "zero_exponent": ("simple_mkl.json", lambda d: _spec(d).update(
        kind="jpl_int", channels=[[0, 2], [2, 2]], exponents=[1.0, 0.0]), "exponents must be positive"),
    # training writes each scale as n / trace > 0, or 1.0
    "negative_scales": ("simple_mkl.json", lambda d: d.update(scales=[-s for s in d["scales"]]),
                        "scales must be above 0"),
    "zero_scale": ("simple_mkl.json", lambda d: d["scales"].__setitem__(0, 0.0), "scales must be above 0"),
    "one_class_named_twice": ("simple_mkl.json", lambda d: d.update(classes=[d["classes"][0]] * 2),
                              "names a class more than once"),
    "class_with_carriage_return": ("boost_mkl.json", lambda d: d["classes"].__setitem__(0, "le\rft"),
                                   "a name holds a carriage return"),
    "multichannel_with_an_h_int_spec": ("single_kernel.json", lambda d: d.update(method="multichannel"),
                                        "multichannel needs a dc_int or jpl_int kernel"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_MODELS))
def test_refused_models_name_their_reason(artifacts, tmp_path, capsys, case):
    name, mutate, reason = REFUSED_MODELS[case]
    assert reason in rejected_on_read(artifacts, tmp_path, capsys, name, mutate)


# one key that no writer emits, at each nesting level of each JSON document
UNKNOWN_FIELDS = {
    "manifest": ("manifest.json", lambda d: d, "name"),
    "manifest_video": ("manifest.json", lambda d: d["videos"][0], "label"),
    "model": ("simple_mkl.json", lambda d: d, "notes"),
    "model_spec": ("simple_mkl.json", _spec, "sigmaa"),
    "svm_payload": ("single_kernel.json", _mkl, "bogus"),
    "mkl_payload": ("simple_mkl.json", _mkl, "gap"),
    "mkl_svm": ("simple_mkl.json", lambda d: _mkl(d)["svm"], "bogus"),
    "boosted_payload": ("boost_mkl.json", _mkl, "selection"),
    "boost_trial": ("boost_mkl.json", _trial, "bogus"),
    "boost_trial_svm": ("boost_mkl.json", lambda d: _trial(d)["svm"], "bogus"),
    "histograms": ("histograms.json", lambda d: d, "bogus"),
    "histogram_entry": ("histograms.json", lambda d: d["histograms"][0], "label"),
    "descriptors": ("descriptors.json", lambda d: d, "bogus"),
    "report": ("report.json", lambda d: d, "gap"),
    "report_split": ("report.json", lambda d: d["split"], "folds"),
    # what a boosted model, a histogram collection and a descriptor listing wrote before
    # they left their sizes and feature names to be read off the rest of the file
    "boosted_payload_train_size": ("boost_mkl.json", _mkl, "train_size"),
    "histograms_block_sizes": ("histograms.json", lambda d: d, "block_sizes"),
    "descriptors_features": ("descriptors.json", lambda d: d, "features"),
}
# the fields an SVM payload stored before it kept only its signed dual coefficients
UNKNOWN_FIELDS.update({f"{level}_{key}": (*UNKNOWN_FIELDS[level][:2], key)
                       for level in ("svm_payload", "mkl_svm", "boost_trial_svm")
                       for key in ("box", "support_indices", "converged", "alpha", "labels")})


@pytest.mark.parametrize("case", sorted(UNKNOWN_FIELDS))
def test_unknown_fields_are_format_errors(artifacts, tmp_path, capsys, case):
    """Refused by the stage's reader and by ``inspect`` with one and the same line."""
    name, level, key = UNKNOWN_FIELDS[case]
    message = rejected_on_read(artifacts, tmp_path, capsys, name, lambda d: level(d).update({key: 1}))
    assert message.endswith(f"file (unknown field '{key}')")
    assert main(["inspect", str(tmp_path / name)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_manifest_of_another_kind_is_a_format_error(artifacts, tmp_path, capsys):
    message = rejected_on_read(artifacts, tmp_path, capsys, "manifest.json",
                               lambda d: d.update(kind="model"))
    assert message.endswith("malformed manifest file (kind is 'model', not 'dataset_manifest')")


@pytest.mark.parametrize("name, kind", [("manifest.json", "dataset_manifest"),
                                        ("histograms.json", "histograms")])
def test_read_model_names_the_kind_it_was_given(artifacts, tmp_path, name, kind):
    path = tmp_path / name
    path.write_bytes(artifacts[name])
    with pytest.raises(FormatError) as info:
        read_model(path)
    assert str(info.value) == f"{path}: malformed model file (kind is '{kind}', not 'model')"
