"""Scenario configuration: dataclasses, JSON loading, validation.

Powers and losses are dB fields.  ScenarioConfig derives the linear link
budget from them, once: the powers, the path gains (beta_g, beta_ue) and
gain_prefactor = P*beta_g*M, the link gain of matched transmission and the
one place that product is formed.  validate() range-checks these values;
build_channels carries them into a realization.

Each config type checks its own fields when it is built, so every
LambdaPolicy, TargetSpec and ScenarioConfig that exists is valid: replace
and from_dict raise ConfigError rather than return a bad one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

SPEED_OF_LIGHT = 299792458.0
WEIGHT_SUM_TOL = 1e-12
# Every linear link quantity must lie in [1/LINK_BUDGET_LIMIT, LINK_BUDGET_LIMIT]: eight
# decades inside the float range, so fading and beam nulls cannot over- or underflow a metric.
LINK_BUDGET_LIMIT = 1e300
MAX_ARRAY_LENGTH = sys.maxsize  # np.iinfo(np.intp).max, the longest array numpy can index


def check_weight_sum(weights) -> None:
    """The one weight-sum rule: the correctly rounded (fsum) sum of the target
    weights is 1 within WEIGHT_SUM_TOL; raises ConfigError naming targets."""
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"targets: weights must sum to 1 (got {total!r})")


def _finite_real(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _check_fields(obj, prefix: str = "") -> None:
    """The one field rule: each field must be of the kind its annotation
    names (int but not bool, finite float, or a pair of finite floats); an
    optional field may also be None.  A pair is stored as a tuple of two
    floats, so positions compare as the floats the geometry reads.  Raises
    ConfigError naming the field."""
    for f in fields(obj):
        name, kind, v = prefix + f.name, f.type.removesuffix(" | None"), getattr(obj, f.name)
        if v is None and kind != f.type:
            continue
        if kind == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ConfigError(f"{name}: must be an integer, got {v!r}")
        if kind == "float" and not _finite_real(v):
            raise ConfigError(f"{name}: must be a finite number, got {v!r}")
        if kind == "tuple[float, float]":
            if not (isinstance(v, (tuple, list)) and len(v) == 2
                    and all(map(_finite_real, v))):
                raise ConfigError(f"{name}: must be a pair of finite numbers, got {v!r}")
            object.__setattr__(obj, f.name, (float(v[0]), float(v[1])))


def _from_db(db: float) -> float:
    """10^(db/10), or inf where that overflows a float."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LambdaPolicy:
    """Regularization policy: the adaptive trade-off schedule when fraction
    is None, else that fixed fraction of the largest singular value."""

    fraction: float | None = None

    def __post_init__(self):
        _check_fields(self, "lambda_policy.")
        if self.fraction is not None and self.fraction < 0:
            raise ConfigError(f"lambda_policy: fraction must be >= 0, got {self.fraction!r}")

    @classmethod
    def parse(cls, text: str) -> "LambdaPolicy":
        text = text.strip()
        if text == "adaptive":
            return cls()
        if text.startswith("fixed:"):
            try:
                return cls(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"lambda_policy: bad fraction in {text!r}") from exc
        raise ConfigError(f"lambda_policy: expected 'adaptive' or 'fixed:<c>', got {text!r}")

    def __str__(self) -> str:
        if self.fraction is None:
            return "adaptive"
        text = f"{self.fraction:g}"  # else the shortest text that parses back to the fraction
        return f"fixed:{text if float(text) == self.fraction else repr(float(self.fraction))}"

    def normalized(self, alpha: float, sigma_max: float) -> float:
        """Ridge on the factorized stack: adaptive (1 - alpha^2) * sigma_max,
        heavy when communication dominates, or fixed fraction * sigma_max."""
        if sigma_max < 0:
            raise ValueError("sigma_max must be nonnegative")
        if self.fraction is None:
            return (1.0 - alpha**2) * sigma_max
        lam = self.fraction * sigma_max
        if not math.isfinite(lam):
            raise ConfigError(f"lambda_policy: {self} times sigma_max {sigma_max!r} overflows")
        return lam


@dataclass(frozen=True)
class TargetSpec:
    """One sensing target: either a direct angle or a 2-D position, plus its
    fairness weight.  Error messages name the bare field; from_dict prefixes
    the target's index."""

    weight: float
    angle_deg: float | None = None
    position: tuple[float, float] | None = None

    def __post_init__(self):
        _check_fields(self)
        if (self.angle_deg is None) == (self.position is None):
            raise ConfigError("angle_deg/position: each target needs exactly one of them")
        if self.weight < 0:
            raise ConfigError(f"weight: must be nonnegative, got {self.weight!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description (geometry, powers, targets, trade-off knobs)."""

    transmit_power_dbm: float
    noise_power_dbm: float
    carrier_hz: float
    bs_antennas: int
    ris_rows: int  # vertical element count
    ris_cols: int  # horizontal element count
    rician_kappa: float
    reference_loss_db: float
    bs_pos: tuple[float, float]
    ris_pos: tuple[float, float]
    ue_pos: tuple[float, float]
    targets: tuple[TargetSpec, ...]
    alpha: float
    lambda_policy: LambdaPolicy = field(default_factory=LambdaPolicy)
    seed: int = 0
    bs_ris_exponent: float = 22.0
    ris_ue_exponent: float = 25.0

    @property
    def n_elements(self) -> int:
        return self.ris_rows * self.ris_cols

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.carrier_hz / SPEED_OF_LIGHT

    @property
    def spacing(self) -> float:
        """Half-wavelength RIS element spacing, in meters."""
        return SPEED_OF_LIGHT / (2.0 * self.carrier_hz)

    @property
    def transmit_power_w(self) -> float:
        return _from_db(self.transmit_power_dbm - 30.0)

    @property
    def noise_power_w(self) -> float:
        return _from_db(self.noise_power_dbm - 30.0)

    @property
    def path_gains(self) -> tuple[float, float]:
        """Linear gains (beta_g, beta_ue) of the BS-RIS and RIS-user links, L0 + c*log10(d) dB."""

        def gain(a, b, exponent) -> float:
            distance = float(np.hypot(b[0] - a[0], b[1] - a[1]))
            return _from_db(-(self.reference_loss_db + exponent * float(np.log10(distance))))

        return (gain(self.bs_pos, self.ris_pos, self.bs_ris_exponent),
                gain(self.ris_pos, self.ue_pos, self.ris_ue_exponent))

    @property
    def gain_prefactor(self) -> float:
        """P*beta_g*M; over the noise power it is the SNR prefactor."""
        return self.transmit_power_w * self.path_gains[0] * self.bs_antennas

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.targets)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check each field against the kind its annotation names, then the
        cross-field rules; raises ConfigError naming the field.  It runs on
        every construction, so a ScenarioConfig that exists has passed it."""
        _check_fields(self)
        if not isinstance(self.lambda_policy, LambdaPolicy):
            raise ConfigError(
                f"lambda_policy: expected 'adaptive' or 'fixed:<c>', got {self.lambda_policy!r}"
            )
        if not (isinstance(self.targets, tuple) and self.targets
                and all(isinstance(t, TargetSpec) for t in self.targets)):
            raise ConfigError("targets: must be a nonempty tuple of TargetSpec")
        for name, least in (("bs_antennas", 1), ("ris_rows", 1), ("ris_cols", 1),
                            ("seed", 0), ("rician_kappa", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name}: must be >= {least}, got {getattr(self, name)!r}")
        for name, count in (("bs_antennas", self.bs_antennas), ("ris_rows", self.ris_rows),
                            ("ris_cols", self.ris_cols), ("ris_rows * ris_cols", self.n_elements)):
            if count > MAX_ARRAY_LENGTH:
                raise ConfigError(f"{name}: exceeds the longest array, {MAX_ARRAY_LENGTH} elements")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha: must be in [0, 1], got {self.alpha}")
        if self.carrier_hz <= 0:
            raise ConfigError("carrier_hz: must be positive")
        check_weight_sum(t.weight for t in self.targets)
        if self.bs_pos == self.ris_pos:
            raise ConfigError("ris_pos: coincides with bs_pos")
        if self.ris_pos == self.ue_pos:
            raise ConfigError("ue_pos: coincides with ris_pos")
        for i, t in enumerate(self.targets):
            if t.position == self.ris_pos:
                raise ConfigError(f"targets[{i}]: position coincides with ris_pos")
        beta_g, beta_ue = self.path_gains
        gain_ceiling = self.gain_prefactor * self.n_elements**2
        for name, linear in (
            ("transmit_power_dbm", self.transmit_power_w),
            ("noise_power_dbm", self.noise_power_w),
            ("reference_loss_db", _from_db(-self.reference_loss_db)),
            ("bs_ris_exponent", beta_g),
            ("ris_ue_exponent", beta_ue),
            # phase span of both arrays, about pi * elements when it is finite
            ("carrier_hz",
             self.wavenumber * ((self.bs_antennas + self.n_elements) * self.spacing)),
            ("transmit_power_dbm (gain ceiling)", gain_ceiling),
            ("noise_power_dbm (line-of-sight SNR)",
             gain_ceiling * beta_ue * _from_db(30.0 - self.noise_power_dbm)),
        ):
            if not 1.0 / LINK_BUDGET_LIMIT <= linear <= LINK_BUDGET_LIMIT:
                raise ConfigError(f"{name}: out of range, linear value {linear!r}")

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda_policy"] = str(self.lambda_policy)
        d["targets"] = [
            {k: v for k, v in asdict(t).items() if v is not None} for t in self.targets
        ]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"top level: must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        missing = [
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ConfigError(f"missing required key(s): {', '.join(missing)}")
        unknown = [k for k in data if k not in cls.__dataclass_fields__]
        if unknown:
            raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")

        if not isinstance(data["targets"], list):
            raise ConfigError("targets: must be a list")
        targets = []
        for i, t in enumerate(data["targets"]):
            if not isinstance(t, dict) or "weight" not in t:
                raise ConfigError(f"targets[{i}]: must be an object with a 'weight' key")
            unknown = [k for k in t if k not in TargetSpec.__dataclass_fields__]
            if unknown:
                raise ConfigError(f"targets[{i}]: unknown key(s): {', '.join(sorted(unknown))}")
            try:
                targets.append(TargetSpec(t["weight"], t.get("angle_deg"), t.get("position")))
            except ConfigError as exc:
                raise ConfigError(f"targets[{i}].{exc}") from None
        data["targets"] = tuple(targets)

        if isinstance(data.get("lambda_policy"), str):
            data["lambda_policy"] = LambdaPolicy.parse(data["lambda_policy"])
        for name in (f.name for f in fields(cls) if f.type == "int"):
            if isinstance(data.get(name), float) and data[name].is_integer():
                data[name] = int(data[name])  # JSON writes 11.0 for 11 as well
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"scenario file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path}: invalid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"scenario file {path}: unreadable ({exc})") from exc
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"scenario file {path}: {exc}") from None


def default_scenario_path() -> Path:
    """Path of the shipped reference scenario."""
    return Path(__file__).parent / "scenarios" / "default.json"


def load_default_scenario() -> ScenarioConfig:
    return ScenarioConfig.from_file(default_scenario_path())
