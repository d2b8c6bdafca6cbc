import ast
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from egoact.config import FlowSection, RunConfig
from egoact.dataio import write_json
from egoact.descriptors import FEATURES, check_features
from egoact.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.features == ("hof", "logc", "cuboid")
    assert cfg.hof.grid_size == 4
    assert cfg.split.repeats == 100
    doc = cfg.to_dict()
    assert RunConfig.from_dict(doc).to_dict() == doc


def test_readme_lists_every_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("All defaults shown:\n\n```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    assert doc.pop("format_version") == 1
    assert doc == json.loads(json.dumps(RunConfig().to_dict()))


def test_config_layout_derives_from_the_feature_table():
    assert list(RunConfig().to_dict()) == ["features", "synth", "flow", "hof", "logc", "cuboid",
                                           "bow", "kernels", "svm", "mkl", "boost", "split"]
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert defaults["features"] == tuple(FEATURES)
    for name, params in FEATURES.items():
        assert isinstance(defaults[name], params)


def test_feature_lists_are_put_in_block_order():
    assert check_features(["cuboid", "hof"]) == ("hof", "cuboid")
    assert RunConfig.from_dict({"features": ["cuboid", "hof"]}).features == ("hof", "cuboid")
    with pytest.raises(ConfigError, match="foo"):
        check_features(["hof", "foo"])


@pytest.mark.parametrize("features", [None, 5, "hof", ["hof", "hof"], [], [["hof"]], ["HOF"]],
                         ids=["null", "number", "string", "repeat", "empty", "nested", "case"])
def test_bad_feature_list_rejected_at_load(features):
    with pytest.raises(ConfigError, match="features must be"):
        RunConfig.from_dict({"features": features})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"bogus": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"svm": {"c_reg": 1.0, "momentum": 0.9}})


def test_constraint_enforced_at_load():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"svm": {"c_reg": -1.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"flow": {"alpha": 0.0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"kernels": {"kind": "polynomial"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"features": ["hof", "sift"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"split": {"mode": "loocv"}})


def test_section_values_applied():
    cfg = RunConfig.from_dict({
        "features": ["hof"],
        "bow": {"words": 8},
        "cuboid": {"sigma": 1.0, "tau": 2.0},
        "split": {"mode": "half_half", "repeats": 5},
    })
    assert cfg.features == ("hof",)
    assert cfg.bow.words == 8
    assert cfg.cuboid.sigma == 1.0
    assert cfg.split.mode == "half_half"


def test_replace_section():
    cfg = RunConfig().replace_section("svm", c_reg=2.5)
    assert cfg.svm.c_reg == 2.5
    assert RunConfig().svm.c_reg == 10.0


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    write_json(path, {"boost": {"trials": 4}})
    cfg = RunConfig.load(path)
    assert cfg.boost.trials == 4


def test_validation_inside_nested_dataclass():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"hof": {"grid_size": 0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"logc": {"pixel_step": 0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"synth": {"class_count": 1}})


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), True])
def test_flow_alpha_must_be_finite_number(alpha):
    with pytest.raises(ConfigError):
        FlowSection(alpha=alpha)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"flow": {"alpha": alpha}})


@pytest.mark.parametrize("iterations", [2.5, True, "100"])
def test_flow_iterations_must_be_integer(iterations):
    with pytest.raises(ConfigError):
        FlowSection(iterations=iterations)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"flow": {"iterations": iterations}})


def test_flow_nan_alpha_rejected_when_loading_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"format_version": 1, "flow": {"alpha": NaN}}')
    with pytest.raises(ConfigError):
        RunConfig.load(path)


@pytest.mark.parametrize("split", [{"train_n": 0}, {"test_n": 0}])
def test_split_counts_rejected_when_loading_file(tmp_path, split):
    path = tmp_path / "cfg.json"
    write_json(path, {"split": split})
    with pytest.raises(ConfigError, match="train_n"):
        RunConfig.load(path)
    assert RunConfig.from_dict({"split": {"mode": "half_half", **split}}).split.mode == "half_half"


@pytest.mark.parametrize("split", [{"train_n": "nine"}, {"test_n": None}, {"train_n": -1}])
def test_split_counts_checked_under_half_half(split):
    # unread under half_half, but echoed into every report of the run
    with pytest.raises(ConfigError, match=next(iter(split))):
        RunConfig.from_dict({"split": {"mode": "half_half", **split}})


@pytest.mark.parametrize("module", ["flow", "bow", "kernels", "svm", "mkl", "boost"])
def test_stage_modules_do_not_import_config(module):
    # each stage declares its own record; only the run config assembles them
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = f"import sys, egoact.{module}; print('egoact.config' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


def test_every_intra_package_import_is_at_module_level():
    # an import inside a function or class body is how an import cycle hides;
    # the package has none, so each module imports what it calls at its top
    nested = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "egoact").glob("*.py")):
        nested |= {f"{path.name}:{node.lineno}" for scope in ast.walk(ast.parse(path.read_text()))
                   if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for node in ast.walk(scope) if isinstance(node, ast.ImportFrom) and node.level}
    assert sorted(nested) == []


@pytest.mark.parametrize("doc", [
    {"hof": {"grid_size": 2.5}}, {"hof": {"window_len": 2.5}}, {"hof": {"stride": True}},
    {"logc": {"window_len": 2.5}}, {"logc": {"stride": 1.5}}, {"logc": {"pixel_step": 2.0}},
    {"cuboid": {"max_points": 2.5}},
    {"bow": {"words": 2.5}}, {"bow": {"max_iters": 1.5}},
    {"boost": {"trials": 2.5}}, {"boost": {"trials": True}},
    {"split": {"repeats": 1.5}}, {"split": {"train_n": 2.5}}, {"split": {"test_n": 1.5}},
    {"mkl": {"max_outer": 2.5}},
    {"synth": {"width": 16.5}}, {"synth": {"seed": 1.5}},
    {"split": {"base_seed": 1.5}},
])
def test_count_fields_must_be_integers(tmp_path, doc):
    path = tmp_path / "cfg.json"
    write_json(path, doc)
    with pytest.raises(ConfigError):
        RunConfig.load(path)


@pytest.mark.parametrize("section, field", [
    ("svm", "c_reg"), ("svm", "tol"), ("mkl", "weight_tol"), ("mkl", "objective_tol"),
    ("kernels", "gaussian_sigma"), ("cuboid", "sigma"),
    ("hof", "min_magnitude"), ("synth", "noise_sigma"),
])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_solver_reals_must_be_finite(tmp_path, section, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"format_version": 1, "{section}": {{"{field}": {value}}}}}')
    with pytest.raises(ConfigError, match=field):
        RunConfig.load(path)


def test_cuboid_threshold_rejects_nan_but_not_infinity(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"format_version": 1, "cuboid": {"threshold": NaN}}')
    with pytest.raises(ConfigError, match="threshold"):
        RunConfig.load(path)
    # an infinite threshold stays a valid way to detect nothing
    assert RunConfig.from_dict({"cuboid": {"threshold": float("inf")}}).cuboid.threshold == float("inf")


@pytest.mark.parametrize("section, field, value", [
    ("synth", "seed", -1), ("split", "base_seed", -1),
    ("bow", "adaptive_words", "no"), ("bow", "adaptive_words", 1),
])
def test_seeds_nonnegative_and_flags_bool_at_load(tmp_path, section, field, value):
    path = tmp_path / "cfg.json"
    write_json(path, {section: {field: value}})
    with pytest.raises(ConfigError, match=field):
        RunConfig.load(path)


@pytest.mark.parametrize("doc, message", [
    ({"flow": 5}, "section 'flow' must be an object"),
    ({"hof": {"window_len": 1}}, "window_len must be an integer >= 2, got 1"),
    ({"logc": {"window_len": 1}}, "window_len must be an integer >= 2, got 1"),
    ({"synth": {"frame_count": 1}}, "frame_count must be an integer >= 2, got 1"),
], ids=["section_not_an_object", "hof_one_frame_window", "logc_one_frame_window",
        "synth_one_frame"])
def test_unusable_sections_rejected_at_load(tmp_path, doc, message):
    path = tmp_path / "cfg.json"
    write_json(path, doc)
    with pytest.raises(ConfigError, match=message):
        RunConfig.load(path)


def test_a_scalar_jpl_exponents_is_refused_by_name():
    with pytest.raises(ConfigError, match="jpl_exponents must be a tuple") as exc:
        RunConfig.from_dict({"kernels": {"jpl_exponents": 5}})
    assert "not iterable" not in str(exc.value)


# every field of the config's records that declares its rule with ``param``
PARAM_FIELDS = [(section.name, f) for section in fields(RunConfig)[1:]
                for f in fields(section.default) if "least" in f.metadata]
# fields that keep a check of their own: an infinite cuboid threshold detects nothing
OWN_CHECKS = {("cuboid", "threshold")}


def test_every_section_field_declares_its_rule():
    undeclared = {(section.name, f.name) for section in fields(RunConfig)[1:]
                  for f in fields(section.default) if "least" not in f.metadata}
    assert undeclared == OWN_CHECKS


def out_of_range(f):
    """Values that field ``f``'s declared rule refuses, each with its whole message."""
    least, choices = f.metadata["least"], f.metadata["choices"]
    if choices is not None:
        return [("unknown", f"{f.name} must be one of {choices}, got 'unknown'")]
    if f.type == "bool":
        return [(1, f"{f.name} must be true or false, got 1")]
    if f.type == "tuple":
        return [((1.0, 0.0), f"{f.name} must be a finite positive number, got 0.0"),
                (5, f"{f.name} must be a tuple of finite positive numbers, got 5")]
    if f.type == "int":
        floor = 1 if least is None else least
        return [(value, f"{f.name} must be an integer >= {floor}, got {value!r}")
                for value in (floor - 1, 2.5, True)]
    rule = "a finite positive number" if least is None else f"a finite number >= {least}"
    below = 0.0 if least is None else least - 1.0
    return [(value, f"{f.name} must be {rule}, got {value!r}")
            for value in (below, float("nan"), float("inf"), True)]


@pytest.mark.parametrize("section, f", PARAM_FIELDS,
                         ids=[f"{section}.{f.name}" for section, f in PARAM_FIELDS])
def test_every_param_out_of_range_is_a_config_error(section, f):
    # built directly, as library callers do; the load path is covered by the tests above
    record = type(getattr(RunConfig(), section))
    for value, message in out_of_range(f):
        with pytest.raises(ConfigError) as direct:
            record(**{f.name: value})
        assert str(direct.value) == message
    if f.default is None:
        assert getattr(record(**{f.name: None}), f.name) is None
