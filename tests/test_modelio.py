import copy

import numpy as np
import pytest

from egoact import bow, kernels
from egoact.boost import boost_predict_many
from egoact.config import RunConfig
from egoact.dataio import DatasetManifest, VideoEntry, VideoHistogram, write_json
from egoact.errors import ConfigError, FormatError, ValidationError
from egoact.evaluation import extract_dataset_descriptors
from egoact.modelio import TrainedModel, read_model, train_model, write_model
from egoact.svm import decision_many
from egoact.synth import generate_synthetic_dataset


def toy_histogram_dataset(classes=3, per_class=4, words=4, seed=0):
    """Histograms whose hof block leans toward the class's own word."""
    rng = np.random.default_rng(seed)
    entries, hists = [], []
    for k in range(classes):
        for v in range(per_class):
            vid = f"c{k}v{v}"
            entries.append(VideoEntry(vid, k, f"{vid}.fsq"))
            counts = rng.random(words) * 0.2
            counts[k] += 1.0
            counts /= counts.sum()
            cub = rng.random(3)
            hists.append(VideoHistogram(vid, [("hof", counts), ("cuboid", cub / cub.sum())]))
    manifest = DatasetManifest([f"class{k}" for k in range(classes)], entries)
    return manifest, hists


def fresh_queries(rng, n=10, dims=(4, 3)):
    blocks = [rng.random((n, d)) for d in dims]
    blocks = [b / b.sum(axis=1, keepdims=True) for b in blocks]
    return np.hstack(blocks)


@pytest.mark.parametrize("method,kernel", [
    ("single_kernel", "h_int"),
    ("single_kernel", "gaussian"),
    ("multichannel", "dc_int"),
    ("multichannel", "jpl_int"),
    ("simple_mkl", "h_int"),
    ("boost_mkl", "h_int"),
])
def test_model_round_trip_predictions(tmp_path, method, kernel):
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid"))
    model = train_model(manifest, hists, cfg, method, kernel_kind=kernel, seed=3)
    queries = fresh_queries(np.random.default_rng(17))

    path = tmp_path / "model.json"
    write_model(model, path)
    reloaded = read_model(path)

    assert np.array_equal(model.score_matrix(queries), reloaded.score_matrix(queries))
    assert np.array_equal(model.predict(queries), reloaded.predict(queries))


def test_trained_model_fits_its_training_data():
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid"))
    model = train_model(manifest, hists, cfg, "simple_mkl", seed=0)
    vectors = np.stack([h.concat() for h in hists])
    labels = np.array([v.class_index for v in manifest.videos])
    assert (model.predict(vectors) == labels).mean() >= 0.9


def test_train_rejects_missing_histograms():
    manifest, hists = toy_histogram_dataset()
    with pytest.raises(ValidationError):
        train_model(manifest, hists[:-1], RunConfig(), "single_kernel")


def test_train_single_class_rejected():
    manifest, hists = toy_histogram_dataset()
    solo = DatasetManifest(["only"], [VideoEntry(v.video_id, 0, v.path) for v in manifest.videos])
    with pytest.raises(ValidationError):
        train_model(solo, hists, RunConfig(), "single_kernel")


@pytest.mark.parametrize("method,exponents", [("multichannel", (0.25, 2.0)), ("simple_mkl", (3.0,))])
def test_config_jpl_exponents_reach_the_specs(tmp_path, method, exponents):
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid"))
    default = train_model(manifest, hists, cfg, method, kernel_kind="jpl_int", seed=0)
    cfg = cfg.replace_section("kernels", kind="jpl_int", jpl_exponents=exponents)
    model = train_model(manifest, hists, cfg, method, seed=0)
    assert [s.exponents for s in model.specs] == [exponents] * len(model.specs)
    assert all(s.exponents == () for s in default.specs)
    path = tmp_path / "model.json"
    write_model(model, path)
    assert [s.exponents for s in read_model(path).specs] == [exponents] * len(model.specs)
    queries = fresh_queries(np.random.default_rng(5))
    assert not np.array_equal(model.score_matrix(queries), default.score_matrix(queries))


@pytest.mark.parametrize("method", ["single_kernel", "simple_mkl", "boost_mkl"])
def test_integer_config_reals_write_back_as_reals(tmp_path, method):
    # a config may give a real as an integer; the model file holds it as a real and reads back
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid")).replace_section("kernels", kind="gaussian", gaussian_sigma=2)
    model = train_model(manifest, hists, cfg.replace_section("svm", c_reg=10), method, seed=0)
    path = tmp_path / "model.json"
    write_model(model, path)
    reloaded = read_model(path)
    assert [s.sigma for s in reloaded.specs] == [2.0] * len(model.specs)
    queries = fresh_queries(np.random.default_rng(5))
    assert np.array_equal(model.score_matrix(queries), reloaded.score_matrix(queries))


@pytest.mark.parametrize("method,kernels,message", [
    ("multichannel", {"kind": "jpl_int", "jpl_exponents": (1.0,)},
     "jpl_exponents has 1 entries for 2 channels"),
    ("boost_mkl", {"kind": "jpl_int", "jpl_exponents": (1.0, 2.0)},
     "jpl_exponents has 2 entries for 1 channels"),
    ("multichannel", {"kind": "h_int"}, "multichannel needs a dc_int or jpl_int kernel"),
])
def test_train_rejects_a_run_before_any_gram(monkeypatch, method, kernels, message):
    from egoact import kernels as kernels_mod

    def no_gram(*args):
        raise AssertionError("built a Gram matrix before checking the run")

    monkeypatch.setattr(kernels_mod, "gram_matrix", no_gram)
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig().replace_section("kernels", **kernels)
    with pytest.raises(ConfigError) as info:
        train_model(manifest, hists, cfg, method)
    assert str(info.value) == message


def test_read_model_rejects_other_files(tmp_path):
    from egoact.dataio import write_json

    path = tmp_path / "notmodel.json"
    write_json(path, {"kind": "histograms"})
    with pytest.raises(FormatError):
        read_model(path)


def test_model_file_is_self_contained(tmp_path):
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid"))
    model = train_model(manifest, hists, cfg, "boost_mkl", seed=9)
    path = tmp_path / "model.json"
    write_model(model, path)
    doc = read_model(path)
    assert doc.method == "boost_mkl"
    assert doc.classes == manifest.classes
    assert doc.train_vectors.shape[0] == len(hists)
    assert len(doc.specs) == 2  # one kernel per feature block


@pytest.fixture(scope="module")
def model_docs():
    """One trained model document per payload kind over the 12-vector toy set."""
    manifest, hists = toy_histogram_dataset()
    cfg = RunConfig(features=("hof", "cuboid"))
    return {method: train_model(manifest, hists, cfg, method, seed=1).to_dict()
            for method in ("single_kernel", "simple_mkl", "boost_mkl")}


def _svm_payloads(doc):
    return [b.get("svm", b) for b in doc["binary_models"]]


def _truncate_svms(doc, count):
    for payload in _svm_payloads(doc):
        payload["dual_coef"] = payload["dual_coef"][:count]


def _first_trial(doc):
    return doc["binary_models"][0]["trials"][0]


NAN, INF = float("nan"), float("inf")

SHAPE_DEFECTS = {
    "svm_of_3_for_12_vectors": ("single_kernel", lambda d: _truncate_svms(d, 3)),
    "mkl_svm_of_3_for_12_vectors": ("simple_mkl", lambda d: _truncate_svms(d, 3)),
    "scale_per_kernel": ("single_kernel", lambda d: d["scales"].append(1.0)),
    "binary_model_per_class": ("simple_mkl", lambda d: d["binary_models"].pop()),
    "mkl_weight_per_kernel": ("simple_mkl", lambda d: d["binary_models"][0].update(
        weights=[0.5, 0.25, 0.25])),
    "boost_kernel_index": ("boost_mkl", lambda d: _first_trial(d).update(kernel_index=2)),
    "boost_train_index": ("boost_mkl", lambda d: _first_trial(d)["train_indices"].__setitem__(0, 12)),
    "boost_train_index_count": ("boost_mkl", lambda d: _first_trial(d)["train_indices"].pop()),
    "boost_negative_kernel_index": ("boost_mkl", lambda d: _first_trial(d).update(kernel_index=-1)),
    "boost_negative_train_index": ("boost_mkl", lambda d: _first_trial(d)["train_indices"].__setitem__(
        0, -1)),
    "empty_train_vectors": ("single_kernel", lambda d: d.update(train_vectors=[])),
    "nan_train_vector": ("single_kernel", lambda d: d["train_vectors"][0].__setitem__(0, NAN)),
    "inf_scale": ("single_kernel", lambda d: d["scales"].__setitem__(0, INF)),
    "nan_alpha": ("single_kernel", lambda d: d["binary_models"][0]["dual_coef"].__setitem__(0, NAN)),
    "nan_bias": ("single_kernel", lambda d: d["binary_models"][1].update(bias=NAN)),
    "nan_mkl_scale_and_alpha": ("simple_mkl", lambda d: (
        d["scales"].__setitem__(0, NAN), _svm_payloads(d)[0]["dual_coef"].__setitem__(0, NAN))),
    "nan_mkl_weight": ("simple_mkl", lambda d: d["binary_models"][0]["weights"].__setitem__(0, NAN)),
    "nan_boost_weight": ("boost_mkl", lambda d: _first_trial(d).update(weight=NAN)),
    "inf_boost_error": ("boost_mkl", lambda d: _first_trial(d).update(error=INF)),
    "nan_boost_trial_bias": ("boost_mkl", lambda d: _first_trial(d)["svm"].update(bias=NAN)),
    "spec_block_of_one": ("simple_mkl", lambda d: d["specs"][0].update(block=[4])),
}


def _load_defective(tmp_path, model_docs, defect):
    """The FormatError that reading the model SHAPE_DEFECTS[defect] damages raises."""
    method, mutate = SHAPE_DEFECTS[defect]
    doc = copy.deepcopy(model_docs[method])
    TrainedModel.from_dict(copy.deepcopy(doc))   # the intact document loads
    mutate(doc)
    path = tmp_path / "model.json"
    write_json(path, doc)
    with pytest.raises(FormatError, match="malformed model file") as info:
        read_model(path)
    return str(info.value)


@pytest.mark.parametrize("defect", sorted(SHAPE_DEFECTS))
def test_model_shape_defects_fail_at_load(tmp_path, model_docs, defect):
    _load_defective(tmp_path, model_docs, defect)


def test_short_trial_message_names_both_sizes(tmp_path, model_docs):
    message = _load_defective(tmp_path, model_docs, "boost_train_index_count")
    assert "12 coefficients" in message and "(1, 11)" in message


@pytest.mark.parametrize("defect", ["nan_bias", "inf_scale"])
def test_non_finite_model_field_names_the_number(tmp_path, model_docs, defect):
    message = _load_defective(tmp_path, model_docs, defect)
    assert "expected a finite number, got " in message


@pytest.fixture(scope="module")
def synth_histograms(tmp_path_factory):
    """The default synthetic set (4 classes x 12 videos) at 20 flow sweeps,
    encoded with 16-word codebooks pooled over every video."""
    cfg = RunConfig().replace_section("flow", iterations=20)
    root = tmp_path_factory.mktemp("synth")
    manifest = generate_synthetic_dataset(cfg.synth, root)
    cache = extract_dataset_descriptors(manifest, root, cfg.features, cfg)
    ids = [v.video_id for v in manifest.videos]
    codebooks = {f: bow.kmeans(bow.pooled_descriptors([cache[v] for v in ids], f), cfg.bow.words, 0)
                 for f in cfg.features}
    return manifest, [bow.encode_video(v, cache[v], codebooks) for v in ids], cfg


@pytest.mark.parametrize("method,kernel", [
    ("single_kernel", "h_int"),
    ("multichannel", "dc_int"),
    ("simple_mkl", "h_int"),
    ("simple_mkl", "gaussian"),
    ("simple_mkl", "jpl_int"),
    ("boost_mkl", "h_int"),
])
def test_model_scores_training_vectors_as_training_saw_them(synth_histograms, method, kernel):
    manifest, hists, cfg = synth_histograms
    model = train_model(manifest, hists, cfg, method, kernel_kind=kernel, seed=0)
    bank = np.stack([kernels.trace_normalize(kernels.gram_matrix(model.train_vectors, spec))[0]
                     for spec in model.specs])
    if method == "simple_mkl":
        seen = [decision_many(p.svm, kernels.combine(bank, p.weights)) for p in model.binary_models]
    elif method == "boost_mkl":
        seen = [boost_predict_many(p, bank) for p in model.binary_models]
    else:
        seen = [decision_many(p, bank[0]) for p in model.binary_models]
    assert model.score_matrix(model.train_vectors).tobytes() == np.stack(seen, axis=1).tobytes()
