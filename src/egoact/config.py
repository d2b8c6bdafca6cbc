"""One flat run configuration assembling every stage's parameter record.

Each stage declares its record, defaults and ranges beside the code that
reads it; the split's and the synthetic dataset's records live here, as
their readers ``evaluation`` and ``synth`` import this module. Loaded from
a JSON document with a ``format_version`` field; unknown keys anywhere in
the document are rejected. Every field has a default, so an empty config
(or none at all) runs the full pipeline with the documented defaults. CLI
flags override the matching fields after loading.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .boost import BoostSection
from .bow import BowSection
from .dataio import read_json, to_doc
from .descriptors import FEATURES, CuboidParams, HofParams, LogcParams, check_features
from .errors import ConfigError, ValidationError, check_params, param
from .flow import FlowSection
from .kernels import KernelsSection
from .mkl import MklSection
from .svm import SvmSection


@dataclass(frozen=True)
class SynthConfig:
    class_count: int = param(4, least=2)
    videos_per_class: int = param(12, least=4)
    width: int = param(32, least=8)
    height: int = param(32, least=8)
    frame_count: int = param(24, least=2)
    noise_sigma: float = param(2.0, least=0)
    seed: int = param(0, least=0)

    __post_init__ = check_params


@dataclass(frozen=True)
class SplitSection:
    mode: str = param("per_class_counts", choices=("per_class_counts", "half_half"))
    train_n: int = param(9, least=0)    # per class; read only under per_class_counts
    test_n: int = param(3, least=0)
    repeats: int = param(100)
    base_seed: int = param(0, least=0)

    def __post_init__(self):
        check_params(self)
        if self.mode == "per_class_counts" and min(self.train_n, self.test_n) < 1:
            raise ConfigError("per_class_counts needs split.train_n and split.test_n of at least 1, "
                              f"got {self.train_n} and {self.test_n}")


@dataclass(frozen=True)
class RunConfig:
    # every field after ``features`` is a config section, in document order
    features: tuple = tuple(FEATURES)
    synth: SynthConfig = SynthConfig()
    flow: FlowSection = FlowSection()
    hof: HofParams = HofParams()
    logc: LogcParams = LogcParams()
    cuboid: CuboidParams = CuboidParams()
    bow: BowSection = BowSection()
    kernels: KernelsSection = KernelsSection()
    svm: SvmSection = SvmSection()
    mkl: MklSection = MklSection()
    boost: BoostSection = BoostSection()
    split: SplitSection = SplitSection()

    def __post_init__(self):
        object.__setattr__(self, "features", check_features(self.features))

    to_dict = to_doc

    def replace_section(self, name: str, **changes) -> "RunConfig":
        """A copy with one section's fields replaced."""
        return replace(self, **{name: replace(getattr(self, name), **changes)})

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        doc = dict(doc)
        doc.pop("format_version", None)
        kwargs = {}
        if "features" in doc:
            kwargs["features"] = doc.pop("features")
        for name, cls in ((f.name, type(f.default)) for f in fields(RunConfig)[1:]):
            if name in doc:
                section_doc = doc.pop(name)
                if not isinstance(section_doc, dict):
                    raise ConfigError(f"config section {name!r} must be an object")
                known = {f.name for f in fields(cls)}
                unknown = sorted(set(section_doc) - known)
                if unknown:
                    raise ConfigError(f"unknown keys in config section {name!r}: {unknown}")
                try:
                    kwargs[name] = cls(**{k: tuple(v) if isinstance(v, list) else v
                                          for k, v in section_doc.items()})
                except (TypeError, ValidationError) as exc:
                    raise ConfigError(f"bad config section {name!r}: {exc}") from exc
        if doc:
            raise ConfigError(f"unknown top-level config keys: {sorted(doc)}")
        return RunConfig(**kwargs)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_dict(read_json(path))
