"""One flat run configuration mirroring every stage's parameters.

Loaded from a JSON document with a ``format_version`` field; unknown keys
anywhere in the document are rejected. Every field has a default, so an
empty config (or none at all) runs the full pipeline with the documented
defaults. CLI flags override the matching fields after loading.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .dataio import read_json
from .descriptors import CuboidParams, HofParams, LogcParams
from .errors import ConfigError, ValidationError
from .flow import check_params
from .kernels import KERNEL_KINDS
from .synth import SynthConfig

FEATURE_NAMES = ("hof", "logc", "cuboid")


@dataclass(frozen=True)
class FlowSection:
    alpha: float = 10.0
    iterations: int = 100

    def __post_init__(self):
        try:
            check_params(self.alpha, self.iterations)
        except ValidationError as exc:
            raise ConfigError(f"flow: {exc}") from exc


@dataclass(frozen=True)
class BowSection:
    # desk-scale synthetic videos yield few descriptors per video, so the
    # experiment default is far below the bow module's 64-word default
    words: int = 16
    max_iters: int = 100
    adaptive_words: bool = False   # shrink words to the pool size instead of erroring

    def __post_init__(self):
        if self.words < 1 or self.max_iters < 1:
            raise ConfigError("bow.words and bow.max_iters must be at least 1")


@dataclass(frozen=True)
class KernelsSection:
    kind: str = "h_int"
    gaussian_sigma: float | None = None    # None: median heuristic on the train split
    jpl_exponents: tuple = ()              # empty: 1/C per channel

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"kernels.kind must be one of {KERNEL_KINDS}")
        if self.gaussian_sigma is not None and self.gaussian_sigma <= 0:
            raise ConfigError("kernels.gaussian_sigma must be positive")
        object.__setattr__(self, "jpl_exponents", tuple(self.jpl_exponents))
        if any(b <= 0 for b in self.jpl_exponents):
            raise ConfigError("kernels.jpl_exponents must be positive")


@dataclass(frozen=True)
class SvmSection:
    c_reg: float = 10.0
    tol: float = 1e-3

    def __post_init__(self):
        if self.c_reg <= 0 or self.tol <= 0:
            raise ConfigError("svm.c_reg and svm.tol must be positive")


@dataclass(frozen=True)
class MklSection:
    weight_tol: float = 1e-4
    objective_tol: float = 1e-4
    max_outer: int = 200

    def __post_init__(self):
        if self.weight_tol <= 0 or self.objective_tol <= 0 or self.max_outer < 1:
            raise ConfigError("mkl tolerances must be positive and max_outer >= 1")


@dataclass(frozen=True)
class BoostSection:
    trials: int = 10

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("boost.trials must be at least 1")


@dataclass(frozen=True)
class SplitSection:
    mode: str = "per_class_counts"
    train_n: int = 9
    test_n: int = 3
    repeats: int = 100
    base_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("per_class_counts", "half_half"):
            raise ConfigError("split.mode must be per_class_counts or half_half")
        if self.mode == "per_class_counts" and (self.train_n < 1 or self.test_n < 1):
            raise ConfigError("per_class_counts needs split.train_n and split.test_n >= 1")
        if self.repeats < 1:
            raise ConfigError("split.repeats must be at least 1")


_SECTIONS = {
    "synth": SynthConfig,
    "flow": FlowSection,
    "hof": HofParams,
    "logc": LogcParams,
    "cuboid": CuboidParams,
    "bow": BowSection,
    "kernels": KernelsSection,
    "svm": SvmSection,
    "mkl": MklSection,
    "boost": BoostSection,
    "split": SplitSection,
}


@dataclass(frozen=True)
class RunConfig:
    features: tuple = FEATURE_NAMES
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
        feats = tuple(self.features)
        bad = [f for f in feats if f not in FEATURE_NAMES]
        if bad or not feats:
            raise ConfigError(f"features must be a nonempty subset of {FEATURE_NAMES}, got {feats}")
        object.__setattr__(self, "features", feats)

    def to_dict(self) -> dict:
        doc = {"features": list(self.features)}
        for name in _SECTIONS:
            section = asdict(getattr(self, name))
            for key, value in section.items():
                if isinstance(value, tuple):
                    section[key] = list(value)
            doc[name] = section
        return doc

    def replace_section(self, name: str, **changes) -> "RunConfig":
        """A copy with one section's fields replaced."""
        import dataclasses

        section = dataclasses.replace(getattr(self, name), **changes)
        return dataclasses.replace(self, **{name: section})

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        doc = dict(doc)
        doc.pop("format_version", None)
        kwargs = {}
        if "features" in doc:
            kwargs["features"] = tuple(doc.pop("features"))
        for name, cls in _SECTIONS.items():
            if name in doc:
                section_doc = doc.pop(name)
                if not isinstance(section_doc, dict):
                    raise ConfigError(f"config section {name!r} must be an object")
                known = {f.name for f in fields(cls)}
                unknown = sorted(set(section_doc) - known)
                if unknown:
                    raise ConfigError(f"unknown keys in config section {name!r}: {unknown}")
                try:
                    kwargs[name] = cls(**_decode(section_doc))
                except (TypeError, ValidationError) as exc:
                    raise ConfigError(f"bad config section {name!r}: {exc}") from exc
        if doc:
            raise ConfigError(f"unknown top-level config keys: {sorted(doc)}")
        return RunConfig(**kwargs)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_dict(read_json(path))


def _decode(section_doc: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in section_doc.items()}
