import json
import multiprocessing
import os
from pathlib import Path

import pytest

from egoact.cli import main
from egoact.dataio import write_json, write_manifest, DatasetManifest, VideoEntry

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
    assert "mean accuracy" in capsys.readouterr().out


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
    write_manifest(manifest, path)
    code = main(["train", "--config", pipeline["cfg"], "--manifest", str(path),
                 "--histograms", str(pipeline["hists"]), "--method", "single_kernel",
                 "--kernel", "h_int", "--seed", "0", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "class" in capsys.readouterr().err
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
    assert "flow" in capsys.readouterr().err
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


REPORT = {"kind": "eval_report", "method": "simple_mkl", "kernel": "h_int",
          "features": ["hof"], "classes": ["a", "b"], "mean_accuracy": 75.0,
          "per_repeat_accuracy": [75.0], "per_class_stddev": 5.0,
          "confusion": [[80.0, 20.0], [30.0, 70.0]]}

JSON_DEFECTS = {
    "manifest_without_videos": ("manifest", {"kind": "dataset_manifest", "classes": ["a"]}),
    "manifest_video_not_an_object": ("manifest", {"kind": "dataset_manifest", "classes": ["a"],
                                                  "videos": ["c00_v00"]}),
    "histograms_kind_only": ("histograms", {"kind": "histograms"}),
    "histograms_sizes_not_a_list": ("histograms", {"kind": "histograms", "block_order": ["hof"],
                                                   "block_sizes": 4, "histograms": []}),
    "report_method_only": ("eval report", {"kind": "eval_report", "method": "x"}),
    "report_accuracy_as_text": ("eval report", {**REPORT, "mean_accuracy": "high"}),
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


LISTING_DEFECTS = {
    "without_features": {"kind": "descriptors", "videos": {}},
    "without_videos": {"kind": "descriptors", "features": ["hof"]},
    "entry_not_an_object": {"kind": "descriptors", "features": ["hof"], "videos": {"a": 5}},
}


@pytest.mark.parametrize("command", ["codebook", "encode"])
@pytest.mark.parametrize("defect", sorted(LISTING_DEFECTS))
def test_malformed_descriptor_listing_exits_2(tmp_path, capsys, command, defect):
    desc = tmp_path / "desc"
    path = desc / "descriptors.json"
    write_json(path, LISTING_DEFECTS[defect])
    argv = {"codebook": ["codebook", "--descriptors", str(desc), "--type", "hof",
                         "--out", str(tmp_path / "hof.cbk")],
            "encode": ["encode", "--descriptors", str(desc), "--codebooks", str(tmp_path),
                       "--out", str(tmp_path / "hists.json")]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: malformed descriptors file (")
    assert captured.err.count("\n") == 1


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


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="--workers runs inline where fork is missing")
def test_dead_worker_exits_2_with_one_line(pipeline, tmp_path, capsys, monkeypatch):
    import egoact.evaluation as evaluation

    def dying_repeat(*args):
        os._exit(3)   # as an out-of-memory kill would end the worker

    # two workers even on a one-CPU machine, so the dying repeat never runs inline
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "run_repeat", dying_repeat)
    out = tmp_path / "r.json"
    assert main(["evaluate", "--config", pipeline["cfg"], "--data", str(pipeline["data"]),
                 "--method", "single", "--kernel", "h_int", "--features", "cuboid",
                 "--repeats", "2", "--workers", "2", "--out", str(out)]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("progress: ")]
    assert len(lines) == 1 and lines[0].startswith("error: a worker process died while running item ")
    assert not out.exists()


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
