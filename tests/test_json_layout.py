"""The layout of every JSON document the pipeline writes: the key order at
every nesting level and the JSON type of every value, read back from the
written file. A reordered or retyped field changes every artifact's bytes,
so it has to show here first."""

import json

import numpy as np

from egoact.cli import main
from egoact.config import RunConfig
from egoact.dataio import (DatasetManifest, DescriptorSet, VideoEntry, VideoHistogram, write_histograms,
                           write_json)
from egoact.evaluation import run_experiment
from egoact.modelio import train_model, write_model

NULL = type(None)

# A spec is a type (the value's exact JSON type), a dict (the keys in order,
# each with its own spec), [spec] (a nonempty list of spec) or [] (an empty list).


def check_layout(value, spec, where="doc"):
    if isinstance(spec, dict):
        assert isinstance(value, dict) and list(value) == list(spec), where
        for key, item_spec in spec.items():
            check_layout(value[key], item_spec, f"{where}.{key}")
    elif isinstance(spec, list):
        assert isinstance(value, list) and bool(value) == bool(spec), where
        for i, item in enumerate(value):
            check_layout(item, spec[0], f"{where}[{i}]")
    else:
        assert type(value) is spec, f"{where}: {value!r} is not a {spec.__name__}"


def written(tmp_path, write, value):
    path = tmp_path / "doc.json"
    write(value, path)
    return json.loads(path.read_text())


SVM = {"dual_coef": [float], "bias": float, "c_reg": float, "iterations": int, "objective": float}
PAYLOADS = {
    "single_kernel": SVM,
    "multichannel": SVM,
    "simple_mkl": {"weights": [float], "svm": SVM, "converged": bool},
    "boost_mkl": {
        "trials": [{"kernel_index": int, "train_indices": [int], "svm": SVM,
                    "weight": float, "error": float}],
    },
}


def spec_layout(kind, per_block):
    channel = kind in ("dc_int", "jpl_int")
    return {"kind": str, "sigma": float if kind == "gaussian" else NULL,
            "channels": [[int]] if channel else [], "exponents": [float] if kind == "jpl_int" else [],
            "block": [int] if per_block else NULL, "label": str}


def model_layout(method, kind):
    return {"kind": str, "method": str, "classes": [str],
            "specs": [spec_layout(kind, method in ("simple_mkl", "boost_mkl"))],
            "scales": [float], "train_vectors": [[float]], "binary_models": [PAYLOADS[method]],
            "format_version": int}


SPLIT = {"mode": str, "train_n": int, "test_n": int, "repeats": int, "base_seed": int}
# the echo repeats the config's own values, so the integer c_reg stays an integer
CONFIG = {
    "features": [str],
    "synth": {"class_count": int, "videos_per_class": int, "width": int, "height": int,
              "frame_count": int, "noise_sigma": float, "seed": int},
    "flow": {"alpha": float, "iterations": int},
    "hof": {"grid_size": int, "window_len": int, "stride": int, "min_magnitude": float},
    "logc": {"window_len": int, "stride": int, "pixel_step": int},
    "cuboid": {"sigma": float, "tau": float, "threshold": float, "max_points": int},
    "bow": {"words": int, "max_iters": int, "adaptive_words": bool},
    "kernels": {"kind": str, "gaussian_sigma": NULL, "jpl_exponents": []},
    "svm": {"c_reg": int, "tol": float},
    "mkl": {"weight_tol": float, "objective_tol": float, "max_outer": int},
    "boost": {"trials": int},
    "split": SPLIT,
}
REPORT = {"kind": str, "method": str, "kernel": str, "features": [str], "classes": [str],
          "split": SPLIT, "mean_accuracy": float, "per_repeat_accuracy": [float],
          "confusion": [[float]], "per_class_stddev": float, "config": CONFIG,
          "format_version": int}
MANIFEST = {"kind": str, "classes": [str],
            "videos": [{"video_id": str, "class_index": int, "path": str}],
            "format_version": int}


def toy_dataset(classes=3, per_class=4):
    """Histograms whose hof block leans toward the class's own word."""
    rng = np.random.default_rng(0)
    entries, hists = [], []
    for k in range(classes):
        for v in range(per_class):
            vid = f"c{k}v{v}"
            entries.append(VideoEntry(vid, k, f"{vid}.fsq"))
            hof = rng.random(4) * 0.2
            hof[k] += 1.0
            cuboid = rng.random(3)
            hists.append(VideoHistogram(vid, [("hof", hof / hof.sum()), ("cuboid", cuboid / cuboid.sum())]))
    return DatasetManifest([f"class{k}" for k in range(classes)], entries), hists


def test_every_json_document_keeps_its_key_order_and_value_types(tmp_path):
    manifest, hists = toy_dataset()
    cfg = RunConfig.from_dict({"features": ["hof", "cuboid"], "bow": {"words": 3}, "svm": {"c_reg": 10},
                               "split": {"train_n": 2, "test_n": 2, "repeats": 2}})
    assert type(cfg.svm.c_reg) is int
    for method, kind in [("single_kernel", "h_int"), ("multichannel", "dc_int"),
                         ("multichannel", "jpl_int"), ("simple_mkl", "h_int"),
                         ("simple_mkl", "gaussian"), ("boost_mkl", "h_int")]:
        # integer jpl exponents, like the integer c_reg, are written as floats
        exponents = (1, 2) if kind == "jpl_int" else ()
        model = train_model(manifest, hists, cfg.replace_section("kernels", jpl_exponents=exponents),
                            method, kernel_kind=kind, seed=1)
        doc = written(tmp_path, write_model, model)
        check_layout(doc, model_layout(method, kind), f"{method}/{kind}")
        assert doc["kind"] == "model" and doc["format_version"] == 1

    # every video of class k carries the one descriptor e_k
    cache = {v.video_id: {"hof": DescriptorSet("hof", 128, np.eye(128)[[v.class_index]])}
             for v in manifest.videos}
    report = run_experiment(manifest, tmp_path, cfg, "single_kernel", features=("hof",),
                            descriptor_cache=cache)
    doc = written(tmp_path, lambda r, path: write_json(path, r), report)
    check_layout(doc, REPORT, "report")
    assert doc["kind"] == "eval_report"
    assert doc["config"] == json.loads(json.dumps(cfg.to_dict()))
    check_layout(json.loads(json.dumps(RunConfig().to_dict())),
                 {**CONFIG, "svm": {"c_reg": float, "tol": float}}, "default config")

    doc = written(tmp_path, lambda m, path: write_json(path, m), manifest)
    check_layout(doc, MANIFEST, "manifest")
    assert doc["kind"] == "dataset_manifest"


def test_histograms_file_keeps_its_key_order_and_value_types(tmp_path):
    _, hists = toy_dataset()
    # an all-zero block is written as floats too
    hists.append(VideoHistogram("empty", [("hof", np.full(4, 0.25)), ("cuboid", np.zeros(3))]))
    doc = written(tmp_path, write_histograms, hists)
    check_layout(doc, {"kind": str, "block_order": [str],
                       "histograms": [{"video_id": str, "blocks": {"hof": [float], "cuboid": [float]}}],
                       "format_version": int}, "histograms")
    assert doc["kind"] == "histograms" and doc["block_order"] == ["hof", "cuboid"]
    assert doc["histograms"][-1]["blocks"]["cuboid"] == [0.0] * 3


def test_descriptor_listing_keeps_its_key_order_and_value_types(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_json(config, {"synth": {"class_count": 2, "videos_per_class": 4, "width": 16, "height": 16,
                                  "frame_count": 20}})
    data, desc = tmp_path / "data", tmp_path / "desc"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    # the keys of dims name the features, in hof, logc, cuboid order whatever the flag's order
    assert main(["extract", "--config", str(config), "--data", str(data), "--features", "cuboid,hof",
                 "--out", str(desc)]) == 0
    capsys.readouterr()
    doc = json.loads((desc / "descriptors.json").read_text())
    ids = [f"c{k:02d}_v{v:02d}" for k in range(2) for v in range(4)]
    check_layout(doc, {"kind": str, "dims": {"hof": int, "cuboid": int},
                       "videos": {vid: {"hof": str, "cuboid": str} for vid in ids},
                       "format_version": int}, "descriptors")
    assert doc["kind"] == "descriptors"
    assert doc["videos"]["c00_v00"] == {"hof": "c00_v00.hof.dsc", "cuboid": "c00_v00.cuboid.dsc"}
