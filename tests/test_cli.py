import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import forking
from egoact import evaluation
from egoact.cli import main
from egoact.config import RunConfig
from egoact.dataio import (read_codebook, write_descriptor_set, write_json, DatasetManifest,
                           DescriptorSet, VideoEntry)

SMALL_SYNTH = {
    "synth": {"class_count": 2, "videos_per_class": 4, "width": 24, "height": 24,
              "frame_count": 24, "noise_sigma": 1.0},
    "bow": {"words": 4},
    "split": {"mode": "half_half", "repeats": 2},
    "boost": {"trials": 3},
}


def write_config(tmp_path, extra=None):
    doc = dict(SMALL_SYNTH)
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    write_json(path, doc)
    return str(path)


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end CLI pass shared by the cheaper assertions."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    data = root / "data"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == 0
    desc = root / "desc"
    assert main(["extract", "--config", cfg, "--data", str(data), "--out", str(desc)]) == 0
    cbdir = root / "cb"
    for dtype in ("hof", "logc", "cuboid"):
        assert main(["codebook", "--descriptors", str(desc), "--type", dtype,
                     "--words", "4", "--seed", "1", "--out", str(cbdir / f"{dtype}.cbk")]) == 0
    hists = root / "hists.json"
    assert main(["encode", "--descriptors", str(desc), "--codebooks", str(cbdir),
                 "--out", str(hists)]) == 0
    model = root / "model.json"
    assert main(["train", "--config", cfg, "--manifest", str(data / "manifest.json"),
                 "--histograms", str(hists), "--method", "simple_mkl", "--seed", "2",
                 "--out", str(model)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "desc": desc, "cb": cbdir,
            "hists": hists, "model": model}


def test_synth_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    first = tmp_path / "d1"
    second = tmp_path / "d2"
    assert main(["synth", "--config", cfg, "--seed", "7", "--out", str(first)]) == 0
    assert main(["synth", "--config", cfg, "--seed", "7", "--out", str(second)]) == 0
    assert tree_bytes(first) == tree_bytes(second)
    third = tmp_path / "d3"
    assert main(["synth", "--config", cfg, "--seed", "8", "--out", str(third)]) == 0
    assert tree_bytes(first) != tree_bytes(third)


def test_synth_seed_defaults_to_the_config_seed(tmp_path):
    cfg = write_config(tmp_path, {"synth": {**SMALL_SYNTH["synth"], "seed": 7}})
    for name, flag in (("config", []), ("flag", ["--seed", "7"]), ("zero", ["--seed", "0"])):
        assert main(["synth", "--config", cfg, *flag, "--out", str(tmp_path / name)]) == 0
    assert tree_bytes(tmp_path / "config") == tree_bytes(tmp_path / "flag")
    assert tree_bytes(tmp_path / "config") != tree_bytes(tmp_path / "zero")


def test_evaluate_seed_defaults_to_the_config_base_seed(pipeline, tmp_path, capsys):
    cfg = write_config(tmp_path, {"split": {"mode": "per_class_counts", "train_n": 2, "test_n": 2,
                                            "repeats": 2, "base_seed": 7}})
    for name, flag in (("from_config.json", []), ("from_flag.json", ["--seed", "7"])):
        assert main(["evaluate", "--config", cfg, "--data", str(pipeline["data"]),
                     "--method", "single_kernel", "--features", "hof", *flag,
                     "--out", str(tmp_path / name)]) == 0
    report = (tmp_path / "from_config.json").read_bytes()
    assert report == (tmp_path / "from_flag.json").read_bytes()
    assert json.loads(report)["split"]["base_seed"] == 7
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "from_config.json")]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "  split: per_class_counts 2/2 per class, 2 repeats, base_seed 7")


def test_codebook_words_default_to_the_bow_words_default(pipeline, tmp_path):
    for name, flag in (("default.cbk", []), ("flag.cbk", ["--words", "16"])):
        assert main(["codebook", "--descriptors", str(pipeline["desc"]), "--type", "cuboid",
                     *flag, "--out", str(tmp_path / name)]) == 0
    assert read_codebook(tmp_path / "default.cbk").word_count == 16
    assert (tmp_path / "default.cbk").read_bytes() == (tmp_path / "flag.cbk").read_bytes()


def test_stage_reruns_are_idempotent(pipeline, tmp_path):
    desc2 = tmp_path / "desc2"
    assert main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--out", str(desc2)]) == 0
    assert tree_bytes(pipeline["desc"]) == tree_bytes(desc2)
    cb2 = tmp_path / "hof2.cbk"
    assert main(["codebook", "--descriptors", str(desc2), "--type", "hof",
                 "--words", "4", "--seed", "1", "--out", str(cb2)]) == 0
    assert cb2.read_bytes() == (pipeline["cb"] / "hof.cbk").read_bytes()
    hists2 = tmp_path / "hists2.json"
    assert main(["encode", "--descriptors", str(desc2), "--codebooks", str(pipeline["cb"]),
                 "--out", str(hists2)]) == 0
    assert hists2.read_bytes() == pipeline["hists"].read_bytes()
    model2 = tmp_path / "model2.json"
    assert main(["train", "--config", pipeline["cfg"],
                 "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(hists2), "--method", "simple_mkl", "--seed", "2",
                 "--out", str(model2)]) == 0
    assert model2.read_bytes() == pipeline["model"].read_bytes()


def test_evaluate_deterministic_and_worker_independent(pipeline, tmp_path, capsys):
    reports = []
    for name, workers in (("r1.json", "1"), ("r2.json", "1"), ("r3.json", "4")):
        out = tmp_path / name
        code = main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                     "--method", "single_kernel", "--kernel", "h_int", "--features", "hof",
                     "--repeats", "2", "--seed", "5", "--workers", workers,
                     "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    capsys.readouterr()


def test_evaluate_writes_confusion_csv(pipeline, tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "confusion.csv"
    assert main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--method", "multichannel", "--kernel", "dc_int", "--repeats", "1",
                 "--seed", "4", "--out", str(out), "--csv", str(csv)]) == 0
    capsys.readouterr()
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 3  # header plus one row per class
    assert lines[0].startswith("true\\pred,")
    doc = json.loads(out.read_text())
    assert doc["kind"] == "eval_report"
    assert doc["format_version"] == 1
    assert main(["inspect", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "mean accuracy" in shown
    assert "\n  split: half_half, 1 repeats, base_seed 4\n" in shown


def test_evaluate_rejects_method_kernel_pair_before_extraction(pipeline, tmp_path, capsys,
                                                               monkeypatch):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extracted before checking the kernel")

    monkeypatch.setattr(evaluation, "extract_dataset_descriptors", no_extraction)
    out = tmp_path / "report.json"
    # the config's default kernel is h_int
    assert main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--method", "multichannel", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: multichannel needs a dc_int or jpl_int kernel"]
    assert not out.exists()


@pytest.mark.parametrize("extra,method,message", [
    ({"kernels": {"kind": "jpl_int", "jpl_exponents": [1.0, 2.0]}}, "multichannel",
     "error: jpl_exponents has 2 entries for 3 channels"),
    ({"kernels": {"kind": "jpl_int", "jpl_exponents": [1.0, 2.0]}}, "simple_mkl",
     "error: jpl_exponents has 2 entries for 1 channels"),
    ({"split": {"mode": "per_class_counts", "train_n": 3, "test_n": 2}}, "single",
     "error: class 'class0_pan_right_flash' has 4 videos, needs 3+2"),
], ids=["multichannel_exponents", "simple_mkl_exponents", "unfillable_split"])
def test_evaluate_rejects_an_impossible_run_before_extraction(pipeline, tmp_path, capsys,
                                                              monkeypatch, extra, method, message):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extracted before checking the run")

    monkeypatch.setattr(evaluation, "extract_dataset_descriptors", no_extraction)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", write_config(tmp_path, extra), "--data",
                 str(pipeline["data"]), "--method", method, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_encode_rejects_a_codebook_of_the_wrong_dimension(pipeline, tmp_path, capsys):
    cb = tmp_path / "cb"
    cb.mkdir()
    for dtype in ("logc", "cuboid"):
        (cb / f"{dtype}.cbk").write_bytes((pipeline["cb"] / f"{dtype}.cbk").read_bytes())
    (cb / "hof.cbk").write_bytes((pipeline["cb"] / "logc.cbk").read_bytes())
    dims = json.loads((pipeline["desc"] / "descriptors.json").read_text())["dims"]
    out = tmp_path / "hists.json"
    assert main(["encode", "--descriptors", str(pipeline["desc"]), "--codebooks", str(cb),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cb / 'hof.cbk'}: codebook of dimension {dims['logc']} for hof descriptors "
        f"of dimension {dims['hof']}"]
    assert not out.exists()


@pytest.mark.parametrize("missing", ["hof", "cuboid"])
def test_encode_rejects_a_missing_codebook(pipeline, tmp_path, capsys, missing):
    """A missing codebook is an I/O error, exit 2, like every other missing input."""
    cb = tmp_path / "cb"
    cb.mkdir()
    for dtype in ("hof", "logc", "cuboid"):
        if dtype != missing:
            (cb / f"{dtype}.cbk").write_bytes((pipeline["cb"] / f"{dtype}.cbk").read_bytes())
    out = tmp_path / "hists.json"
    assert main(["encode", "--descriptors", str(pipeline["desc"]), "--codebooks", str(cb),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{cb / f'{missing}.cbk'}'"]
    assert not out.exists()


def test_method_alias_single(pipeline, tmp_path, capsys):
    plain = tmp_path / "plain.json"
    alias = tmp_path / "alias.json"
    base = ["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
            "--kernel", "h_int", "--features", "hof", "--repeats", "1", "--seed", "6"]
    assert main(base + ["--method", "single_kernel", "--out", str(plain)]) == 0
    assert main(base + ["--method", "single", "--out", str(alias)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == alias.read_bytes()


def test_inspect_mkl_model_prints_simplex_weights(pipeline, capsys):
    assert main(["inspect", str(pipeline["model"])]) == 0
    printed = capsys.readouterr().out
    assert "sum=1.000" in printed
    assert "kernel weights" in printed


def test_inspect_other_artifacts(pipeline, capsys):
    assert main(["inspect", str(pipeline["data"] / "manifest.json")]) == 0
    assert "2 classes" in capsys.readouterr().out
    assert main(["inspect", str(pipeline["hists"])]) == 0
    assert "histograms" in capsys.readouterr().out
    assert main(["inspect", str(pipeline["cb"] / "hof.cbk")]) == 0
    assert "4 words" in capsys.readouterr().out
    first_video = next(pipeline["data"].glob("*.fsq"))
    assert main(["inspect", str(first_video)]) == 0
    assert "24x24" in capsys.readouterr().out


def test_train_single_class_manifest_exits_1(pipeline, tmp_path, capsys):
    manifest = DatasetManifest(
        ["only"],
        [VideoEntry(f"c00_v{v:02d}", 0, f"c00_v{v:02d}.fsq") for v in range(4)],
    )
    path = tmp_path / "single.json"
    write_json(path, manifest)
    code = main(["train", "--config", pipeline["cfg"], "--manifest", str(path),
                 "--histograms", str(pipeline["hists"]), "--method", "single_kernel",
                 "--kernel", "h_int", "--seed", "0", "--out", str(tmp_path / "m.json")])
    assert code == 1
    # the lone class's binary problem has no rest
    assert one_error_line(capsys.readouterr().err) == "error: training data must contain both classes"
    assert not (tmp_path / "m.json").exists()  # no partial output


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"svm": {"c_reg": 1.0, "typo": 2}})
    code = main(["synth", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "d")])
    assert code == 1
    assert "typo" in capsys.readouterr().err


@pytest.mark.parametrize("flow", [{"iterations": 2.5}, {"alpha": float("nan")}])
def test_bad_flow_config_exits_1_before_extraction(tmp_path, capsys, flow):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"flow": flow})
    code = main(["extract", "--config", str(cfg), "--data", str(tmp_path / "d"),
                 "--out", str(tmp_path / "desc")])
    assert code == 1
    assert capsys.readouterr().err.count("flow") == 1
    assert not (tmp_path / "desc").exists()


@pytest.mark.parametrize("doc", [
    {"synth": {"width": 16.5}}, {"synth": {"noise_sigma": float("nan")}},
    {"synth": {"seed": -1}}, {"split": {"base_seed": 1.5}},
    {"hof": {"min_magnitude": float("nan")}}, {"cuboid": {"threshold": float("nan")}},
    {"bow": {"adaptive_words": "no"}},
])
def test_bad_config_value_exits_1_with_one_line(tmp_path, capsys, doc):
    cfg = tmp_path / "bad.json"
    write_json(cfg, doc)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config section")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("features", [None, 5, "hof", ["hof", "hof"]],
                         ids=["null", "number", "string", "repeat"])
def test_bad_config_feature_list_exits_1_with_one_line(tmp_path, capsys, features):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"features": features})
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: features must be a nonempty list of distinct names from "
                   f"hof, logc, cuboid, got {features!r}"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, shown", [
    (["extract", "--features", "foo"], "['foo']"),
    (["extract", "--features", "hof,hof"], "['hof', 'hof']"),
    (["extract", "--features", ","], "[]"),
    (["evaluate", "--method", "single", "--features", "hof,foo"], "['hof', 'foo']"),
], ids=["extract_unknown", "extract_repeat", "extract_empty", "evaluate_unknown"])
def test_bad_features_flag_exits_1_with_one_line(pipeline, tmp_path, capsys, command, shown):
    out = tmp_path / "out"
    assert main([*command, "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: features must be a nonempty list of distinct names from hof, logc, cuboid, "
        f"got {shown}"]
    assert not out.exists()


def test_train_rejects_an_unknown_histogram_block(pipeline, tmp_path, capsys):
    doc = json.loads(pipeline["hists"].read_text())
    doc["block_order"].append("foo")
    for entry in doc["histograms"]:
        entry["blocks"]["foo"] = [0.5, 0.5]
    hists = tmp_path / "hists.json"
    write_json(hists, doc)
    out = tmp_path / "model.json"
    reason = ("features must be a nonempty list of distinct names from hof, logc, cuboid, "
              "got ['hof', 'logc', 'cuboid', 'foo']")
    for argv in (["train", "--config", pipeline["cfg"], "--manifest",
                  str(pipeline["data"] / "manifest.json"), "--histograms", str(hists),
                  "--method", "single", "--kernel", "h_int", "--out", str(out)],
                 ["inspect", str(hists)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {hists}: malformed histograms file ({reason})\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["synth"], ["codebook", "--descriptors", "desc", "--type", "hof"],
    ["train", "--manifest", "m.json", "--histograms", "h.json", "--method", "single"],
    ["evaluate", "--data", "data", "--method", "single"],
])
def test_negative_seed_flag_exits_1_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--seed", "-3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --seed must be an integer >= 0, got -3"]
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_flag_exits_1_with_one_line(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["evaluate", "--data", str(tmp_path / "data"), "--method", "single",
                 "--workers", workers, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --workers must be an integer >= 1, got {workers}"]
    assert not out.exists()


def test_codebook_words_flag_is_refused_under_its_section_name(pipeline, tmp_path, capsys):
    out = tmp_path / "hof.cbk"
    assert main(["codebook", "--descriptors", str(pipeline["desc"]), "--type", "hof",
                 "--words", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: words must be")
    assert not out.exists()


# (file, edit of its document) for `egoact train`
TRAIN_INPUT_DEFECTS = {
    "histogram_block_text": ("histograms", lambda doc: doc["histograms"][0]["blocks"].update(hof="x")),
    "histogram_block_scalar": ("histograms", lambda doc: doc["histograms"][0]["blocks"].update(hof=0)),
    "histogram_block_names_repeat": ("histograms", lambda doc: doc["block_order"].__setitem__(1, "hof")),
    "manifest_class_index_text": ("manifest", lambda doc: doc["videos"][0].update(class_index="x")),
    "manifest_class_index_fraction": ("manifest", lambda doc: doc["videos"][0].update(class_index=0.5)),
}


@pytest.mark.parametrize("defect", sorted(TRAIN_INPUT_DEFECTS))
def test_malformed_train_input_exits_2_with_one_line(pipeline, tmp_path, capsys, defect):
    which, edit = TRAIN_INPUT_DEFECTS[defect]
    paths = {"manifest": pipeline["data"] / "manifest.json", "histograms": pipeline["hists"]}
    doc = json.loads(paths[which].read_text())
    edit(doc)
    paths[which] = tmp_path / f"{which}.json"
    write_json(paths[which], doc)
    out = tmp_path / "model.json"
    assert main(["train", "--config", pipeline["cfg"], "--manifest", str(paths["manifest"]),
                 "--histograms", str(paths["histograms"]), "--method", "single",
                 "--kernel", "h_int", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {paths[which]}: malformed ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("which", ["histograms", "descriptors"])
def test_stage_input_of_another_kind_exits_2_with_one_line(pipeline, tmp_path, capsys, which):
    """``train`` refuses a histograms file, and ``codebook`` a descriptor listing,
    whose ``kind`` names another artifact, as ``inspect`` does."""
    desc, hists, out = tmp_path / "desc", tmp_path / "hists.json", tmp_path / "out"
    shutil.copytree(pipeline["desc"], desc)
    shutil.copy(pipeline["hists"], hists)
    path = {"histograms": hists, "descriptors": desc / "descriptors.json"}[which]
    write_json(path, {**json.loads(path.read_text()), "kind": "model"})
    argv = {"histograms": ["train", "--config", pipeline["cfg"], "--manifest",
                           str(pipeline["data"] / "manifest.json"), "--histograms", str(hists),
                           "--method", "single", "--kernel", "h_int", "--out", str(out)],
            "descriptors": ["codebook", "--descriptors", str(desc), "--type", "hof",
                            "--words", "4", "--out", str(out)]}[which]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: malformed {which} file (kind is 'model', not '{which}')\n")
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["inspect", str(tmp_path / "nope.json")])
    assert code == 2
    capsys.readouterr()


def test_corrupt_artifact_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.fsq"
    bad.write_bytes(b"FSQ1" + bytes(8))
    assert main(["inspect", str(bad)]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("{}")
    assert main(["inspect", str(notjson)]) == 2
    capsys.readouterr()


MODEL_DEFECTS = {
    "no_specs": lambda doc: doc.pop("specs"),
    "svm_payloads_under_simple_mkl": lambda doc: doc.update(
        binary_models=[b["svm"] for b in doc["binary_models"]]),
    "unknown_method": lambda doc: doc.update(method="polynomial_svm"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_inspect_malformed_model_exits_2(pipeline, tmp_path, capsys, defect):
    doc = json.loads(pipeline["model"].read_text())
    MODEL_DEFECTS[defect](doc)
    path = tmp_path / "model.json"
    write_json(path, doc)
    assert main(["inspect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "malformed model file" in captured.err


# a report holds every split key and the whole config echo, as run_experiment writes them
REPORT = {"kind": "eval_report", "method": "simple_mkl", "kernel": "h_int",
          "features": ["hof"], "classes": ["a", "b"],
          "split": {"mode": "per_class_counts", "train_n": 9, "test_n": 3, "repeats": 1, "base_seed": 0},
          "mean_accuracy": 75.0, "per_repeat_accuracy": [75.0], "per_class_stddev": 5.0,
          "confusion": [[80.0, 20.0], [30.0, 70.0]], "config": RunConfig().to_dict()}

JSON_DEFECTS = {
    "manifest_without_videos": ("manifest", {"kind": "dataset_manifest", "classes": ["a"]}),
    "manifest_video_not_an_object": ("manifest", {"kind": "dataset_manifest", "classes": ["a"],
                                                  "videos": ["c00_v00"]}),
    "manifest_class_index_out_of_range": ("manifest", {
        "kind": "dataset_manifest", "classes": ["a"],
        "videos": [{"video_id": "v", "class_index": 7, "path": "v.fsq"}]}),
    "manifest_class_repeated": ("manifest", {
        "kind": "dataset_manifest", "classes": ["a", "a"],
        "videos": [{"video_id": v, "class_index": k, "path": f"{v}.fsq"}
                   for v, k in [("v0", 0), ("v1", 0), ("v2", 1), ("v3", 1)]]}),
    "manifest_class_with_carriage_return": ("manifest", {
        "kind": "dataset_manifest", "classes": ["a\rb", "c"],
        "videos": [{"video_id": v, "class_index": k, "path": f"{v}.fsq"}
                   for v, k in [("v0", 0), ("v1", 0), ("v2", 1), ("v3", 1)]]}),
    "histograms_kind_only": ("histograms", {"kind": "histograms"}),
    "histograms_block_outside_order": ("histograms", {
        "kind": "histograms", "block_order": ["hof"],
        "histograms": [{"video_id": "v0", "blocks": {"hof": [0.5, 0.5], "cuboid": [1.0]}}]}),
    "histograms_block_repeated": ("histograms", {"kind": "histograms", "block_order": ["hof", "hof"],
                                                 "histograms": []}),
    "histograms_blocks_out_of_order": ("histograms", {
        "kind": "histograms", "block_order": ["cuboid", "hof"],
        "histograms": [{"video_id": "v0", "blocks": {"hof": [0.5, 0.5], "cuboid": [1.0]}}]}),
    "histograms_sizes_not_a_list": ("histograms", {"kind": "histograms", "block_order": ["hof"],
                                                   "histograms": [{"video_id": "v0",
                                                                   "blocks": {"hof": 4}}]}),
    "report_method_only": ("eval report", {"kind": "eval_report", "method": "x"}),
    "report_accuracy_as_text": ("eval report", {**REPORT, "mean_accuracy": "high"}),
    "report_mean_accuracy_nan": ("eval report", {**REPORT, "mean_accuracy": float("nan")}),
    "report_confusion_extra_row": ("eval report", {**REPORT, "confusion": [[80.0, 20.0], [30.0, 70.0],
                                                                          [50.0, 50.0]]}),
    "report_repeats_as_text": ("eval report", {**REPORT, "per_repeat_accuracy": "abc"}),
    "report_features_as_number": ("eval report", {**REPORT, "features": 3}),
    "report_without_split": ("eval report", {k: v for k, v in REPORT.items() if k != "split"}),
    "report_without_config": ("eval report", {k: v for k, v in REPORT.items() if k != "config"}),
    "report_split_of_repeats_only": ("eval report", {**REPORT, "split": {"repeats": 1}}),
    "report_config_as_pairs": ("eval report", {**REPORT, "config": [["features", ["hof"]]]}),
    "report_config_empty": ("eval report", {**REPORT, "config": {}}),
    "report_mean_accuracy_edited": ("eval report", {**REPORT, "mean_accuracy": 10.0}),
    "report_stddev_edited": ("eval report", {**REPORT, "per_class_stddev": 6.0}),
    "report_row_sums_to_120": ("eval report", {**REPORT, "confusion": [[80.0, 40.0], [30.0, 70.0]]}),
    "report_repeat_over_100": ("eval report", {**REPORT, "per_repeat_accuracy": [120.0]}),
    "report_without_repeats": ("eval report", {**REPORT, "per_repeat_accuracy": []}),
    "descriptors_without_dims": ("descriptors", {"kind": "descriptors", "videos": {}}),
    "descriptors_videos_as_count": ("descriptors", {"kind": "descriptors", "videos": 3,
                                                    "dims": {}}),
}


@pytest.mark.parametrize("defect", sorted(JSON_DEFECTS))
def test_inspect_malformed_json_artifact_exits_2(tmp_path, capsys, defect):
    name, doc = JSON_DEFECTS[defect]
    path = tmp_path / "artifact.json"
    write_json(path, doc)
    assert main(["inspect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: malformed {name} file (")
    assert captured.err.count("\n") == 1


def test_inspect_intact_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    write_json(path, REPORT)
    assert main(["inspect", str(path)]) == 0
    assert "mean accuracy 75.00% over 1 repeats" in capsys.readouterr().out


@pytest.mark.parametrize("edit, reason", [
    ({"mean_accuracy": 10.0}, "mean_accuracy is 10.0, not 75.0"),
    ({"mean_accuracy": 75}, "mean_accuracy is 75, not 75.0"),
    ({"per_class_stddev": 6.0}, "per_class_stddev is 6.0, not 5.0"),
    ({"confusion": [[80.0, 40.0], [30.0, 70.0]]},
     "confusion row 'a' is not percentages summing to 100: [80.0, 40.0]"),
    ({"confusion": [[120.0, -20.0], [30.0, 70.0]]},
     "confusion row 'a' is not percentages summing to 100: [120.0, -20.0]"),
    ({"per_repeat_accuracy": []},
     "per_repeat_accuracy must hold one percentage per repeat (split.repeats = 1), got []"),
    ({"split": {**REPORT["split"], "repeats": 2}},
     "per_repeat_accuracy must hold one percentage per repeat (split.repeats = 2), got [75.0]"),
    ({"split": {"repeats": 2}},
     "split is {'repeats': 2}, not {'base_seed': 0, 'mode': 'per_class_counts', 'repeats': 2, "
     "'test_n': 3, ...}"),
], ids=["mean_accuracy", "mean_accuracy_as_integer", "per_class_stddev", "row_sum", "entry_range",
        "no_repeats", "fewer_repeats_than_split", "split_of_repeats_only"])
def test_inspect_refuses_a_report_whose_totals_disagree(tmp_path, capsys, edit, reason):
    path = tmp_path / "report.json"
    write_json(path, {**REPORT, **edit})
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: malformed eval report file ({reason})\n")


@pytest.mark.parametrize("edit, reason", [
    ({"method": "svm9"}, "unknown method 'svm9'"),
    ({"kernel": "rbf"}, "simple_mkl needs a gaussian or h_int or dc_int or jpl_int kernel"),
    ({"features": ["bogus"]}, "features must be a nonempty list of distinct names"),
    ({"features": ["hof", "hof"]}, "features must be a nonempty list of distinct names"),
    ({"features": []}, "features must be a nonempty list of distinct names"),
    ({"classes": ["a", "a"]}, "class list ['a', 'a'] names a class more than once"),
    ({"classes": ["a\rb", "b"]}, "a name holds a carriage return"),
], ids=["method", "kernel", "unknown_feature", "repeated_feature", "no_features", "repeated_class",
        "class_with_carriage_return"])
def test_inspect_refuses_a_report_naming_what_no_run_writes(tmp_path, capsys, edit, reason):
    path = tmp_path / "report.json"
    write_json(path, {**REPORT, **edit})
    assert main(["inspect", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: malformed eval report file (")
    assert reason in err and err.count("\n") == 1


@pytest.mark.parametrize("config, reason", [
    ({"svm": {"bogus": 1}}, "unknown keys in config section 'svm': ['bogus']"),
    ({"typo": {}}, "unknown top-level config keys: ['typo']"),
], ids=["section_key", "top_level_key"])
def test_inspect_refuses_a_report_whose_config_echo_is_no_config(tmp_path, capsys, config, reason):
    path = tmp_path / "report.json"
    write_json(path, {**REPORT, "config": config})
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: malformed eval report file ({reason})\n")


def test_python_dash_m_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "egoact", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    bad = run("evaluate", "--data", str(tmp_path), "--method", "single",
              "--out", str(tmp_path / "report.json"), "--workers", "0")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == "error: --workers must be an integer >= 1, got 0\n"
    path = tmp_path / "report.json"
    write_json(path, REPORT)
    good = run("inspect", str(path))
    assert good.returncode == 0, good.stderr
    assert "mean accuracy 75.00% over 1 repeats" in good.stdout


# the keys of dims name the listing's features; each defect is written over {"dims": {"hof": 3}}
A_HOF = {"a": {"hof": "a.hof.dsc"}}
LISTING_DEFECTS = {
    "without_features": {"kind": "descriptors", "dims": {}, "videos": {"a": {}}},
    "without_videos": {"kind": "descriptors"},
    "entry_not_an_object": {"kind": "descriptors", "videos": {"a": 5}},
    "features_not_a_list": {"kind": "descriptors", "dims": ["hof"], "videos": A_HOF},
    # no JSON object repeats a key, so only the old features field could repeat a name
    "features_repeat": {"kind": "descriptors", "features": ["hof", "hof"], "videos": A_HOF},
    "features_unknown": {"kind": "descriptors", "dims": {"hof": 3, "foo": 3},
                         "videos": {"a": {"hof": "a.hof.dsc", "foo": "a.foo.dsc"}}},
    "every_entry_lacks_a_feature": {"kind": "descriptors", "dims": {"hof": 3, "logc": 3},
                                    "videos": {"a": {"hof": "a.hof.dsc"},
                                               "b": {"hof": "b.hof.dsc"}}},
    "one_entry_lacks_a_feature": {"kind": "descriptors", "dims": {"hof": 3, "logc": 3},
                                  "videos": {"a": {"hof": "a.hof.dsc", "logc": "a.logc.dsc"},
                                             "b": {"hof": "b.hof.dsc"}}},
    "entry_has_an_unlisted_type": {"kind": "descriptors",
                                   "videos": {"a": {"hof": "a.hof.dsc", "logc": "a.logc.dsc"}}},
    "dims_lack_a_feature": {"kind": "descriptors", "dims": {"hof": 3},
                            "videos": {"a": {"hof": "a.hof.dsc", "logc": "a.logc.dsc"}}},
    "dims_name_an_unlisted_feature": {"kind": "descriptors", "dims": {"hof": 3, "logc": 3},
                                      "videos": A_HOF},
    "dim_negative": {"kind": "descriptors", "videos": A_HOF, "dims": {"hof": -1}},
    "dim_fractional": {"kind": "descriptors", "videos": A_HOF, "dims": {"hof": 2.5}},
    "dim_a_string": {"kind": "descriptors", "videos": A_HOF, "dims": {"hof": "3"}},
    "dsc_dim_differs": {"kind": "descriptors", "videos": A_HOF, "dims": {"hof": 4}},
}


@pytest.mark.parametrize("command", ["codebook", "encode", "inspect"])
@pytest.mark.parametrize("defect", sorted(LISTING_DEFECTS))
def test_malformed_descriptor_listing_exits_2(tmp_path, capsys, command, defect):
    desc = tmp_path / "desc"
    path = desc / "descriptors.json"
    write_json(path, {"dims": {"hof": 3}, **LISTING_DEFECTS[defect]})
    write_descriptor_set(DescriptorSet("hof", 3, np.ones((2, 3))), desc / "a.hof.dsc")
    argv = {"codebook": ["codebook", "--descriptors", str(desc), "--type", "hof",
                         "--out", str(tmp_path / "hof.cbk")],
            "encode": ["encode", "--descriptors", str(desc), "--codebooks", str(tmp_path),
                       "--out", str(tmp_path / "hists.json")],
            "inspect": ["inspect", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: malformed descriptors file (")
    assert captured.err.count("\n") == 1


# (file name, document, its refusal) of each document kind that lists videos, listing none
EMPTY_DOCUMENTS = {
    "descriptors": ("descriptors.json", {"kind": "descriptors", "dims": {"hof": 3}, "videos": {}},
                    "a descriptor listing needs at least one video"),
    "histograms": ("hists.json", {"kind": "histograms", "block_order": ["hof"], "histograms": []},
                   "a histogram collection needs at least one video"),
}


@pytest.mark.parametrize("command", ["inspect", "stage"])
@pytest.mark.parametrize("which", sorted(EMPTY_DOCUMENTS))
def test_a_document_of_no_videos_exits_2_with_one_line(pipeline, tmp_path, capsys, which, command):
    """No writer emits a listing or a histogram collection of no videos, so its
    stage and ``inspect`` refuse it rather than read 0 videos."""
    name, doc, reason = EMPTY_DOCUMENTS[which]
    path, out = tmp_path / name, tmp_path / "out"
    write_json(path, doc)
    argv = {"descriptors": ["codebook", "--descriptors", str(tmp_path), "--type", "hof",
                            "--out", str(out)],
            "histograms": ["train", "--manifest", str(pipeline["data"] / "manifest.json"),
                           "--histograms", str(path), "--method", "single", "--out", str(out)]}[which]
    assert main(["inspect", str(path)] if command == "inspect" else argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: malformed {which} file ({reason})\n")
    assert not out.exists()


def test_inspect_summarizes_an_intact_descriptor_listing(pipeline, capsys):
    assert main(["inspect", str(pipeline["desc"] / "descriptors.json")]) == 0
    assert capsys.readouterr().out.startswith("descriptors: 8 videos, dims {")


def test_extract_workers_flag_is_a_usage_error(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
              "--features", "cuboid", "--workers", "2", "--out", str(tmp_path / "desc")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "desc").exists()


def test_progress_prints_for_any_worker_count(pipeline, tmp_path, capsys):
    assert main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--features", "cuboid", "--out", str(tmp_path / "desc")]) == 0
    assert capsys.readouterr().err.splitlines() == [f"progress: {i}/8" for i in range(1, 9)]
    assert main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--method", "single", "--kernel", "h_int", "--features", "cuboid",
                 "--repeats", "2", "--workers", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err.splitlines() == ["progress: 1/2", "progress: 2/2"]


def test_extract_summary_lists_features_in_block_order(pipeline, tmp_path, capsys):
    out = tmp_path / "desc"
    assert main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--features", "cuboid,hof", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"extracted ['hof', 'cuboid'] descriptors for 8 videos to {out}\n"


def test_convergence_error_exits_3(tmp_path, capsys, monkeypatch):
    import egoact.cli as cli_mod
    from egoact.errors import ConvergenceError

    def exploding(args):
        raise ConvergenceError("solver stalled")

    # build_parser resolves cmd_synth from module globals at call time
    monkeypatch.setattr(cli_mod, "cmd_synth", exploding)
    code = cli_mod.main(["synth", "--out", str(tmp_path / "d")])
    assert code == 3
    assert "stalled" in capsys.readouterr().err


def test_extract_on_one_or_two_cpus_is_byte_identical(pipeline, tmp_path, capsys, monkeypatch):
    import egoact.evaluation as evaluation

    asked = []
    ordered_map = evaluation.ordered_map
    monkeypatch.setattr(evaluation, "ordered_map",
                        lambda fn, items, workers, progress: asked.append(workers)
                        or ordered_map(fn, items, workers, progress))
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"desc{cpus}"
        assert main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                     "--out", str(out)]) == 0
        trees.append(tree_bytes(out))
    capsys.readouterr()
    assert asked == [8, 8]   # one worker per video, capped by usable_cpus
    assert trees[0] == trees[1] == tree_bytes(pipeline["desc"])


def test_failing_video_fails_extract_alike_on_one_or_two_cpus(pipeline, tmp_path, capsys,
                                                             monkeypatch):
    """One error line, the same exit code, and nothing written, inline or forked."""
    import egoact.evaluation as evaluation
    from egoact.dataio import read_frame_sequence
    from egoact.errors import ValidationError

    videos = json.loads((pipeline["data"] / "manifest.json").read_text())["videos"]
    broken = read_frame_sequence(pipeline["data"] / videos[5]["path"])
    extract = evaluation.extract_video_descriptors

    def failing(seq, features, cfg):
        if seq == broken:
            raise ValidationError("flow diverged")
        return extract(seq, features, cfg)

    monkeypatch.setattr(evaluation, "extract_video_descriptors", failing)
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"desc{cpus}"
        code = main(["extract", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                     "--out", str(out)])
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("progress: ")]
        outcomes.append((code, lines))
        assert not out.exists()
    assert outcomes[0] == outcomes[1] == (1, [f"error: {videos[5]['video_id']}: flow diverged"])


def test_extraction_error_names_its_video(tmp_path, capsys):
    cfg = write_config(tmp_path, {"synth": {**SMALL_SYNTH["synth"], "frame_count": 16}})
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    expected = ["error: c00_v00: video has 16 frames but the temporal filter spans 17"]
    for command in (["extract", "--out", str(tmp_path / "desc")],
                    ["evaluate", "--method", "simple_mkl",
                     "--out", str(tmp_path / "report.json")]):
        assert main([*command, "--config", cfg, "--data", str(data)]) == 1
        assert capsys.readouterr().err.splitlines() == expected
    assert not (tmp_path / "desc").exists() and not (tmp_path / "report.json").exists()


def test_codebook_reads_only_its_type_and_encode_reads_every_type(pipeline, tmp_path, capsys,
                                                                   monkeypatch):
    from egoact import dataio

    read = []
    read_descriptor_set = dataio.read_descriptor_set
    monkeypatch.setattr(dataio, "read_descriptor_set",
                        lambda path, descriptor_type="": read.append(descriptor_type)
                        or read_descriptor_set(path, descriptor_type))
    out = tmp_path / "hof.cbk"
    assert main(["codebook", "--descriptors", str(pipeline["desc"]), "--type", "hof",
                 "--words", "4", "--seed", "1", "--out", str(out)]) == 0
    assert read == ["hof"] * 8
    assert out.read_bytes() == (pipeline["cb"] / "hof.cbk").read_bytes()
    read.clear()
    hists = tmp_path / "hists.json"
    assert main(["encode", "--descriptors", str(pipeline["desc"]),
                 "--codebooks", str(pipeline["cb"]), "--out", str(hists)]) == 0
    assert sorted(read) == sorted(["hof", "logc", "cuboid"] * 8)
    assert hists.read_bytes() == pipeline["hists"].read_bytes()
    capsys.readouterr()


@forking
def test_dead_worker_exits_2_with_one_line(pipeline, tmp_path, capsys, monkeypatch):
    import egoact.evaluation as evaluation

    def dying_repeat(*args):
        os._exit(3)   # as an out-of-memory kill would end the worker

    # two workers even on a one-CPU machine, so the dying repeat never runs inline
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    monkeypatch.setattr(evaluation, "run_repeat", dying_repeat)
    out = tmp_path / "r.json"
    assert main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--method", "single", "--kernel", "h_int", "--features", "cuboid",
                 "--repeats", "2", "--workers", "2", "--out", str(out)]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("progress: ")]
    assert len(lines) == 1 and lines[0].startswith("error: a worker process died while running item ")
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forking)])
def test_allocation_that_cannot_be_met_exits_1_with_one_line(tmp_path, capsys, monkeypatch, cpus):
    """numpy's MemoryError, raised inline or on a forked worker, is one error line."""
    import egoact.synth as synth
    from numpy._core._exceptions import _ArrayMemoryError

    def refused_texture(rng, height, width):
        # the texture of 100000x100000 frames with 56 pixels of margin; nothing is allocated
        raise _ArrayMemoryError((100112, 100112), np.dtype(np.float64))

    monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(synth, "_make_texture", refused_texture)
    out = tmp_path / "data"
    assert main(["synth", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 74.7 GiB for an array with shape "
        "(100112, 100112) and data type float64"]
    assert not (out / "manifest.json").exists()


def test_unconverged_simple_mkl_is_noted_by_train_and_inspect(pipeline, tmp_path, capsys):
    """A class whose SimpleMKL solver stopped at mkl.max_outer gets one stderr note
    from train and converged=False on its inspect line."""
    model = tmp_path / "model.json"
    argv = ["train", "--config", write_config(tmp_path, {"mkl": {"max_outer": 1}}),
            "--manifest", str(pipeline["data"] / "manifest.json"),
            "--histograms", str(pipeline["hists"]), "--method", "simple_mkl", "--seed", "2",
            "--out", str(model)]
    assert main(argv) == 0
    notes = capsys.readouterr().err.splitlines()
    doc = json.loads(model.read_text())
    stopped = [name for name, b in zip(doc["classes"], doc["binary_models"]) if not b["converged"]]
    assert stopped and notes == [f"note: class {name}: simple_mkl stopped at mkl.max_outer=1 "
                                 "outer steps without converging" for name in stopped]
    assert main(["inspect", str(model)]) == 0
    shown = capsys.readouterr().out.splitlines()
    assert shown[0].startswith("model: method=simple_mkl")
    assert [line.split(":")[0].removeprefix("  class ") for line in shown
            if line.endswith("converged=False")] == stopped


def test_converged_simple_mkl_trains_without_notes(pipeline, tmp_path, capsys):
    assert main(["train", "--config", pipeline["cfg"],
                 "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(pipeline["hists"]), "--method", "simple_mkl", "--seed", "2",
                 "--out", str(tmp_path / "model.json")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["inspect", str(tmp_path / "model.json")]) == 0
    classes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  class ")]
    assert classes and all(line.endswith("converged=True") for line in classes)


def test_early_stopped_boost_mkl_is_noted_by_train(pipeline, tmp_path, capsys, monkeypatch):
    """A class whose boosting loop ran out of redraws gets one stderr note from train."""
    from egoact import boost

    calls = []
    resample = boost.resample

    def one_label_after_first_trial(p, n, rng):
        # the first class keeps its first draw; its next MAX_REDRAWS draws repeat
        # one item, so they hold one label, are discarded, and the class stops early
        calls.append(n)
        if 1 < len(calls) <= 1 + boost.MAX_REDRAWS:
            return np.zeros(n, dtype=np.int64)
        return resample(p, n, rng)

    monkeypatch.setattr(boost, "MAX_REDRAWS", 2)
    monkeypatch.setattr(boost, "resample", one_label_after_first_trial)
    model = tmp_path / "model.json"
    assert main(["train", "--config", pipeline["cfg"],
                 "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(pipeline["hists"]), "--method", "boost_mkl", "--seed", "2",
                 "--out", str(model)]) == 0
    notes = capsys.readouterr().err.splitlines()
    doc = json.loads(model.read_text())
    kept = {name: len(b["trials"]) for name, b in zip(doc["classes"], doc["binary_models"])}
    assert kept == {doc["classes"][0]: 1, doc["classes"][1]: 3}
    assert notes == [f"note: class {doc['classes'][0]}: boost_mkl kept 1 of 3 trials "
                     "after 2 failed redraws"]


def test_full_boost_mkl_trains_without_notes(pipeline, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--config", pipeline["cfg"],
                 "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(pipeline["hists"]), "--method", "boost_mkl", "--seed", "2",
                 "--out", str(model)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(model.read_text())
    assert [len(b["trials"]) for b in doc["binary_models"]] == [3, 3]


def one_error_line(err):
    lines = [line for line in err.splitlines() if not line.startswith("progress: ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


# config field -> the start of the one error line
EXTREME_CUBOID_WIDTHS = {
    "tau_1e300": ({"tau": 1e300}, "error: c00_v00: video has 24 frames but the temporal filter spans 6"),
    "sigma_1e300": ({"sigma": 1e300}, "error: c00_v00: the 24x24 frame must be larger than the "
                                      "spatial filter radius 3"),
    "tau_1e308": ({"tau": 1e308}, "error: c00_v00: a filter of width 1e+308 has too many taps to count"),
    "sigma_1e-300": ({"sigma": 1e-300}, "error: c00_v00: cuboid sigma 1e-300 gives a spatial filter "
                                        "that is not finite"),
    "tau_1e-300": ({"tau": 1e-300}, "error: c00_v00: cuboid tau 1e-300 gives a temporal filter "
                                    "that is not finite"),
}


@pytest.mark.parametrize("case", sorted(EXTREME_CUBOID_WIDTHS))
def test_extreme_cuboid_width_exits_1_with_one_line(pipeline, tmp_path, capsys, case):
    cuboid, shown = EXTREME_CUBOID_WIDTHS[case]
    cfg = write_config(tmp_path, {"cuboid": cuboid})
    out = tmp_path / "desc"
    assert main(["extract", "--config", cfg, "--data", str(pipeline["data"]), "--features", "cuboid",
                 "--out", str(out)]) == 1
    assert one_error_line(capsys.readouterr().err).startswith(shown)
    assert not out.exists()


def test_hof_grid_finer_than_the_frame_exits_1_with_one_line(pipeline, tmp_path, capsys):
    """A grid with more cells per side than the 24x24 frames have pixels is refused."""
    cfg = write_config(tmp_path, {"hof": {"grid_size": 25}})
    out = tmp_path / "desc"
    assert main(["extract", "--config", cfg, "--data", str(pipeline["data"]), "--features", "hof",
                 "--out", str(out)]) == 1
    assert one_error_line(capsys.readouterr().err) == (
        "error: c00_v00: hof grid of 25 cells per side needs frames of at least 25x25 pixels, "
        "got 24x24")
    assert not out.exists()


def test_gaussian_sigma_near_zero_exits_1_with_one_line(pipeline, tmp_path, capsys):
    cfg = write_config(tmp_path, {"kernels": {"gaussian_sigma": 1e-300}})
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", cfg, "--data", str(pipeline["data"]), "--method", "single",
                 "--kernel", "gaussian", "--features", "cuboid", "--repeats", "1",
                 "--out", str(out)]) == 1
    assert one_error_line(capsys.readouterr().err) == "error: repeat 0: kernel matrix must be finite"
    assert not out.exists()


def test_model_scoring_its_training_vector_as_nan_exits_2_with_one_line(pipeline, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--config", pipeline["cfg"], "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(pipeline["hists"]), "--method", "single", "--kernel", "gaussian",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["specs"][0]["sigma"] = 1e-300
    write_json(model, doc)
    capsys.readouterr()
    assert main(["inspect", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_error_line(captured.err) == (f"error: {model}: malformed model file (model gives its "
                                            "first training vector a score that is not finite)")


@pytest.mark.parametrize("case", ["evaluate_out_under_file", "evaluate_csv_is_dir",
                                  "evaluate_csv_is_out", "extract_out_is_file", "train_out_is_dir"])
def test_unwritable_output_exits_2_before_any_work(pipeline, tmp_path, capsys, monkeypatch, case):
    """A bad --out or --csv is refused with one line before the stage's work starts."""
    from egoact import cli

    def heavy(*args, **kwargs):
        raise AssertionError("the stage ran before its outputs were checked")

    for name in ("run_experiment", "extract_dataset_descriptors", "train_model"):
        monkeypatch.setattr(cli, name, heavy)
    a_file, a_dir = tmp_path / "file", tmp_path / "dir"
    a_file.write_text("")
    a_dir.mkdir()
    report = tmp_path / "r.json"
    evaluate = ["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                "--method", "single"]
    command, bad = {
        "evaluate_out_under_file": (evaluate + ["--out", str(a_file / "report.json")],
                                    str(a_file / "report.json")),
        "evaluate_csv_is_dir": (evaluate + ["--out", str(report), "--csv", str(a_dir)], str(a_dir)),
        "evaluate_csv_is_out": (evaluate + ["--out", str(report), "--csv", str(a_dir / ".." / "r.json")],
                                f"--csv {a_dir / '..' / 'r.json'} is the --out path {report}"),
        "extract_out_is_file": (["extract", "--data", str(pipeline["data"]), "--out", str(a_file)],
                                str(a_file)),
        "train_out_is_dir": (["train", "--config", pipeline["cfg"],
                              "--manifest", str(pipeline["data"] / "manifest.json"),
                              "--histograms", str(pipeline["hists"]), "--method", "single",
                              "--out", str(a_dir)], str(a_dir)),
    }[case]
    assert main(command) == 2
    line = one_error_line(capsys.readouterr().err)
    assert bad in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]   # no r.json
    assert a_file.read_text() == "" and not any(a_dir.iterdir())


def test_inspect_shows_each_svm_smo_steps(pipeline, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--config", pipeline["cfg"], "--manifest", str(pipeline["data"] / "manifest.json"),
                 "--histograms", str(pipeline["hists"]), "--method", "single", "--kernel", "h_int",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    capsys.readouterr()
    assert main(["inspect", str(model)]) == 0
    shown = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  class ")]
    assert shown == [f"  class {name}: {sum(c != 0 for c in b['dual_coef'])} support vectors, "
                     f"bias {b['bias']:.4f}, {b['iterations']} SMO steps"
                     for name, b in zip(doc["classes"], doc["binary_models"])]
    assert all(b["iterations"] > 0 for b in doc["binary_models"])
