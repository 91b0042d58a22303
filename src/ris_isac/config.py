"""Scenario configuration: dataclasses, JSON loading, validation.

All powers and losses are kept in dB units here; conversion to linear
happens once when a scenario is turned into channels/constants, so the
numerical core never mixes units.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

WEIGHT_SUM_TOL = 1e-12


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _from_db(db: float) -> float:
    """10^(db/10), or inf where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _as_tuple(value):
    """A JSON list as a tuple; anything else is left for validate() to reject."""
    return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class LambdaPolicy:
    """Regularization policy: adaptive trade-off schedule or a fixed fraction
    of the largest singular value."""

    kind: str  # "adaptive" | "fixed_fraction"
    fraction: float | None = None

    def __post_init__(self):
        if self.kind not in ("adaptive", "fixed_fraction"):
            raise ConfigError(f"lambda_policy: unknown kind {self.kind!r}")
        if self.kind == "fixed_fraction":
            if self.fraction is None or self.fraction < 0:
                raise ConfigError("lambda_policy: fixed_fraction needs a nonnegative fraction")

    @classmethod
    def parse(cls, text: str) -> "LambdaPolicy":
        text = text.strip()
        if text == "adaptive":
            return cls("adaptive")
        if text.startswith("fixed:"):
            try:
                return cls("fixed_fraction", float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"lambda_policy: bad fraction in {text!r}") from exc
        raise ConfigError(f"lambda_policy: expected 'adaptive' or 'fixed:<c>', got {text!r}")

    def __str__(self) -> str:
        if self.kind == "adaptive":
            return "adaptive"
        return f"fixed:{self.fraction:g}"

    def normalized(self, alpha: float, sigma_max: float) -> float:
        """Ridge on the power-normalized stack: adaptive (1 - alpha^2) * sigma_max,
        heavy when communication dominates, or fixed fraction * sigma_max."""
        if sigma_max < 0:
            raise ValueError("sigma_max must be nonnegative")
        if self.kind == "adaptive":
            return (1.0 - alpha**2) * sigma_max
        return self.fraction * sigma_max


@dataclass(frozen=True)
class TargetSpec:
    """One sensing target: either a direct angle or a 2-D position, plus its
    fairness weight."""

    weight: float
    angle_deg: float | None = None
    position: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.angle_deg is None) == (self.position is None):
            raise ConfigError("targets: each target needs exactly one of angle_deg / position")
        if self.weight < 0:
            raise ConfigError("targets: weights must be nonnegative")


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
    lambda_policy: LambdaPolicy = field(default_factory=lambda: LambdaPolicy("adaptive"))
    seed: int = 0
    bs_ris_exponent: float = 22.0
    ris_ue_exponent: float = 25.0

    @property
    def n_elements(self) -> int:
        return self.ris_rows * self.ris_cols

    @property
    def transmit_power_w(self) -> float:
        return _from_db(self.transmit_power_dbm - 30.0)

    @property
    def noise_power_w(self) -> float:
        return _from_db(self.noise_power_dbm - 30.0)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.targets)

    def validate(self) -> None:
        """Check each field (and each target's) against the kind its annotation names,
        then the structural invariants; raises ConfigError naming the field."""
        checked = [(f.name, f.type, getattr(self, f.name)) for f in fields(self)]
        for i, t in enumerate(self.targets):
            checked += [
                (f"targets[{i}].{f.name}", f.type.removesuffix(" | None"), getattr(t, f.name))
                for f in fields(t)
                if getattr(t, f.name) is not None
            ]
        for name, kind, v in checked:
            if kind == "int" and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ConfigError(f"{name}: must be an integer, got {v!r}")
            if kind == "float" and not _finite_real(v):
                raise ConfigError(f"{name}: must be a finite number, got {v!r}")
            pair = isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_finite_real, v))
            if kind == "tuple[float, float]" and not pair:
                raise ConfigError(f"{name}: must be a pair of finite numbers, got {v!r}")
        for name, linear in (
            ("transmit_power_dbm", self.transmit_power_w),
            ("noise_power_dbm", self.noise_power_w),
            ("reference_loss_db", _from_db(-self.reference_loss_db)),
        ):
            if not 0.0 < linear < math.inf:
                raise ConfigError(f"{name}: out of range, linear value {linear!r}")
        if self.bs_antennas < 1:
            raise ConfigError("bs_antennas: must be >= 1")
        if self.ris_rows < 1 or self.ris_cols < 1:
            raise ConfigError("ris_rows/ris_cols: must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha: must be in [0, 1], got {self.alpha}")
        if self.rician_kappa < 0:
            raise ConfigError("rician_kappa: must be >= 0")
        if self.carrier_hz <= 0:
            raise ConfigError("carrier_hz: must be positive")
        if not self.targets:
            raise ConfigError("targets: at least one target required")
        total = math.fsum(t.weight for t in self.targets)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"targets: weights must sum to 1 (got {total!r})")
        if self.seed < 0:
            raise ConfigError("seed: must be a nonnegative integer")
        if tuple(self.bs_pos) == tuple(self.ris_pos):
            raise ConfigError("ris_pos: coincides with bs_pos")
        if tuple(self.ris_pos) == tuple(self.ue_pos):
            raise ConfigError("ue_pos: coincides with ris_pos")
        for i, t in enumerate(self.targets):
            if t.position is not None and tuple(t.position) == tuple(self.ris_pos):
                raise ConfigError(f"targets[{i}]: position coincides with ris_pos")

    def replace(self, **kwargs) -> "ScenarioConfig":
        data = {**self.__dict__, **kwargs}
        return ScenarioConfig(**data)

    def with_weights(self, weights) -> "ScenarioConfig":
        if len(weights) != len(self.targets):
            raise ConfigError("targets: weight count mismatch")
        new_targets = tuple(
            TargetSpec(weight=w, angle_deg=t.angle_deg, position=t.position)
            for t, w in zip(self.targets, weights)
        )
        return self.replace(targets=new_targets)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda_policy"] = str(self.lambda_policy)
        d["targets"] = [
            {k: v for k, v in asdict(t).items() if v is not None} for t in self.targets
        ]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        required = [
            "transmit_power_dbm", "noise_power_dbm", "carrier_hz", "bs_antennas",
            "ris_rows", "ris_cols", "rician_kappa", "reference_loss_db",
            "bs_pos", "ris_pos", "ue_pos", "targets", "alpha",
        ]
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"missing required key(s): {', '.join(missing)}")

        raw_targets = data.pop("targets")
        if not isinstance(raw_targets, list):
            raise ConfigError("targets: must be a list")
        targets = []
        for i, t in enumerate(raw_targets):
            if not isinstance(t, dict) or "weight" not in t:
                raise ConfigError(f"targets[{i}]: must be an object with a 'weight' key")
            try:
                targets.append(
                    TargetSpec(
                        weight=float(t["weight"]),
                        angle_deg=float(t["angle_deg"]) if "angle_deg" in t else None,
                        position=_as_tuple(t["position"]) if "position" in t else None,
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"targets[{i}]: {exc}") from exc

        policy = data.pop("lambda_policy", "adaptive")
        if isinstance(policy, str):
            policy = LambdaPolicy.parse(policy)

        for name in (f.name for f in fields(cls) if f.type == "int"):
            if isinstance(data.get(name), float) and data[name].is_integer():
                data[name] = int(data[name])  # JSON writes 11.0 for 11 as well

        known = set(cls.__dataclass_fields__)
        unknown = [k for k in data if k not in known]
        if unknown:
            raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")

        try:
            cfg = cls(
                targets=tuple(targets),
                lambda_policy=policy,
                **{k: _as_tuple(data.pop(k)) for k in ("bs_pos", "ris_pos", "ue_pos")},
                **data,
            )
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"scenario file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)


def default_scenario_path() -> Path:
    """Path of the shipped reference scenario."""
    return Path(__file__).parent / "scenarios" / "default.json"


def load_default_scenario() -> ScenarioConfig:
    return ScenarioConfig.from_file(default_scenario_path())
