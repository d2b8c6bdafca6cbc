"""One flat run configuration mirroring every stage's parameters.

Loaded from a JSON document with a ``format_version`` field; unknown keys
anywhere in the document are rejected. Every field has a default, so an
empty config (or none at all) runs the full pipeline with the documented
defaults. CLI flags override the matching fields after loading.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .bow import DEFAULT_MAX_ITERS
from .dataio import read_json, to_doc
from .descriptors import FEATURES, CuboidParams, HofParams, LogcParams, check_features
from .errors import ConfigError, ValidationError, check_params, check_positive, param
from .flow import DEFAULT_ALPHA, DEFAULT_ITERATIONS
from .kernels import KERNEL_KINDS
from .synth import SynthConfig


@dataclass(frozen=True)
class FlowSection:
    alpha: float = param(DEFAULT_ALPHA)
    iterations: int = param(DEFAULT_ITERATIONS)

    __post_init__ = check_params


@dataclass(frozen=True)
class BowSection:
    # desk-scale synthetic videos yield few descriptors per video, so the
    # experiment default is far below the bow module's 64-word default
    words: int = param(16)
    max_iters: int = param(DEFAULT_MAX_ITERS)
    adaptive_words: bool = False   # shrink words to the pool size instead of erroring

    def __post_init__(self):
        check_params(self)
        if not isinstance(self.adaptive_words, bool):
            raise ConfigError(f"adaptive_words must be true or false, got {self.adaptive_words!r}")


@dataclass(frozen=True)
class KernelsSection:
    kind: str = "h_int"
    gaussian_sigma: float | None = None    # None: median heuristic on the train split
    jpl_exponents: tuple = ()              # empty: 1/C per channel

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"kernels.kind must be one of {KERNEL_KINDS}")
        if self.gaussian_sigma is not None:
            check_positive("gaussian_sigma", self.gaussian_sigma)
        object.__setattr__(self, "jpl_exponents", tuple(self.jpl_exponents))
        for b in self.jpl_exponents:
            check_positive("jpl_exponents", b)


@dataclass(frozen=True)
class SvmSection:
    c_reg: float = param(10.0)
    tol: float = param(1e-3)

    __post_init__ = check_params


@dataclass(frozen=True)
class MklSection:
    weight_tol: float = param(1e-4)
    objective_tol: float = param(1e-4)
    max_outer: int = param(200)

    __post_init__ = check_params


@dataclass(frozen=True)
class BoostSection:
    trials: int = param(10)

    __post_init__ = check_params


@dataclass(frozen=True)
class SplitSection:
    mode: str = "per_class_counts"
    train_n: int = 9    # per class; read and checked only under per_class_counts
    test_n: int = 3
    repeats: int = param(100)
    base_seed: int = param(0, least=0)

    def __post_init__(self):
        if self.mode not in ("per_class_counts", "half_half"):
            raise ConfigError("split.mode must be per_class_counts or half_half")
        if self.mode == "per_class_counts":
            try:
                check_positive("train_n", self.train_n, count=True)
                check_positive("test_n", self.test_n, count=True)
            except ConfigError as exc:
                raise ConfigError(f"per_class_counts needs split.train_n and split.test_n: {exc}") from None
        check_params(self)


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
