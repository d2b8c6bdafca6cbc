"""The benchmark's span tracer must keep finding the package's layer entry points.

``benchmarks/tracing.py`` wraps module attributes where their callers look
them up. A method that held a solver function captured at import would
bypass the wrapper, and the traced benchmark would lose those spans.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from egoact.config import RunConfig
from egoact.synth import SynthConfig
from egoact.dataio import DatasetManifest, DescriptorSet, VideoEntry, VideoHistogram

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
MODULES = ("bow", "cli", "config", "dataio", "descriptors", "evaluation", "kernels",
           "mkl", "boost", "modelio", "svm", "synth")
COMMON_SPANS = {"svm.smo", "kernels.gram", "kernels.rows"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_set(classes=3, per_class=4, seed=0):
    """Histograms and one-descriptor sets that lean toward the class's own word."""
    rng = np.random.default_rng(seed)
    entries, hists, cache = [], [], {}
    for k in range(classes):
        for v in range(per_class):
            vid = f"c{k}v{v}"
            entries.append(VideoEntry(vid, k, f"{vid}.fsq"))
            hof = rng.random(4) * 0.2
            hof[k] += 1.0
            cub = rng.random(3)
            hists.append(VideoHistogram(vid, [("hof", hof / hof.sum()), ("cuboid", cub / cub.sum())]))
            cache[vid] = {name: DescriptorSet(name, 4, np.eye(4)[k : k + 1] + 0.01 * v)
                          for name in ("hof", "cuboid")}
    return DatasetManifest([f"class{k}" for k in range(classes)], entries), hists, cache


@pytest.mark.parametrize("method,kernel,solver_span", [
    ("single_kernel", "h_int", None),
    ("multichannel", "dc_int", None),
    ("simple_mkl", "h_int", "mkl.train"),
    ("boost_mkl", "h_int", "boost.train"),
])
def test_traced_train_and_evaluate_record_every_layer(tmp_path, method, kernel, solver_span):
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"egoact.{name}") for name in MODULES}
    manifest, hists, cache = toy_set()
    cfg = RunConfig(features=("hof", "cuboid"))
    cfg = cfg.replace_section("bow", words=2).replace_section("boost", trials=2)
    cfg = cfg.replace_section("split", train_n=2, test_n=2, repeats=1)
    vectors = np.stack([h.concat() for h in hists])

    tracer = tracing.Tracer()
    with tracer.installed(modules):
        model = modules["modelio"].train_model(manifest, hists, cfg, method,
                                               kernel_kind=kernel, seed=1)
        model.predict(vectors)
    names = {span.name for span in tracer.spans}
    expected = COMMON_SPANS | {"modelio.train", "modelio.predict"} | ({solver_span} - {None})
    assert expected <= names

    tracer = tracing.Tracer()
    with tracer.installed(modules):
        modules["evaluation"].run_experiment(manifest, tmp_path, cfg, method, kernel_kind=kernel,
                                             descriptor_cache=cache)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert COMMON_SPANS | {"evaluation.repeat", "bow.kmeans"} | ({solver_span} - {None}) <= set(by_name)
    for span in by_name["svm.smo"]:
        while span.parent is not None:
            span = span.parent
        assert span.name == "evaluation.repeat"
    assert not hasattr(modules["svm"].smo_train, "__wrapped__")   # patches are undone


def test_traced_extraction_records_flow_logc_and_matrix_log():
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"egoact.{name}") for name in MODULES}
    cfg = RunConfig(features=("hof", "logc")).replace_section("flow", iterations=5)
    seq = modules["synth"].synthesize_video(SynthConfig(width=16, height=16, frame_count=18), 0, 0)

    tracer = tracing.Tracer()
    with tracer.installed(modules):
        sets = modules["evaluation"].extract_video_descriptors(seq, ("hof", "logc"), cfg)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert {"evaluation.extract_video", "flow.sequence", "descriptors.hof",
            "descriptors.logc", "linalg.matrix_log"} <= set(by_name)
    assert sets["logc"].count >= 1
    assert len(by_name["linalg.matrix_log"]) == sets["logc"].count   # one log per window
    assert all(span.parent.name == "descriptors.logc" for span in by_name["linalg.matrix_log"])
    assert by_name["flow.sequence"][0].parent.name == "evaluation.extract_video"
    assert not hasattr(modules["descriptors"].matrix_log, "__wrapped__")


def test_traced_cli_extract_records_every_video_on_two_cpus(tmp_path, monkeypatch):
    """Forked workers would take their spans with them; a traced extract runs here."""
    from egoact.cli import main
    from egoact.dataio import write_json

    tracing = load_tracing()
    modules = {name: importlib.import_module(f"egoact.{name}") for name in MODULES}
    config = tmp_path / "config.json"
    write_json(config, {"synth": {"class_count": 2, "videos_per_class": 4, "width": 16,
                                  "height": 16, "frame_count": 18},
                        "flow": {"iterations": 5}})
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    monkeypatch.setattr(modules["evaluation"], "usable_cpus", lambda: 2)
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        assert main(["extract", "--config", str(config), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "desc")]) == 0
    names = [span.name for span in tracer.spans]
    assert names.count("evaluation.extract_video") == names.count("flow.sequence") == 8
    assert not modules["evaluation"]._wrapped_here()   # patches are undone
