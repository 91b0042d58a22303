"""The two performance metrics under the matched transmit beamformer.

The BS-RIS channel is rank one, so matched (maximum-ratio) transmission is
simultaneously optimal for the communication SNR and for every beampattern
gain.  This module holds both metrics in that factored post-MRT form.  The
beamformer and the general pre-MRT forms are test oracles and live in
``tests/oracles.py``.  SNR is analytic throughout: no symbols or noise are
ever sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .channel import ChannelSet
from .errors import NumericalError, ShapeError


@dataclass(frozen=True)
class SystemConstants:
    """Scalars entering the factored metric forms."""

    transmit_power_w: float
    noise_power_w: float
    beta_g: float
    bs_antennas: int

    def __post_init__(self):
        if self.transmit_power_w <= 0 or self.noise_power_w <= 0:
            raise ValueError("powers must be positive")
        if self.beta_g <= 0:
            raise ValueError("beta_g must be positive")
        if self.bs_antennas < 1:
            raise ValueError("bs_antennas must be >= 1")

    @classmethod
    def from_scenario(cls, scenario: ScenarioConfig, channels: ChannelSet) -> "SystemConstants":
        return cls(
            transmit_power_w=scenario.transmit_power_w,
            noise_power_w=scenario.noise_power_w,
            beta_g=channels.beta_g,
            bs_antennas=scenario.bs_antennas,
        )

    @property
    def gain_prefactor(self) -> float:
        """P*beta_g*M; divided by the noise power it is the SNR prefactor."""
        return self.transmit_power_w * self.beta_g * self.bs_antennas


@dataclass(frozen=True)
class Metrics:
    """Communication SNR and per-target beampattern gains, linear and dB."""

    snr_linear: float
    snr_db: float
    gains: tuple[tuple[float, float], ...]  # (linear, dB) per target

    @classmethod
    def from_linear(cls, snr, gains_linear) -> list["Metrics"]:
        """Metrics of C designs from linear SNRs (C,) and gains (C, K), converted
        to dB in one pass; a NaN or infinite value raises NumericalError naming
        the first design that has one."""
        snr, gains = np.asarray(snr, dtype=float), np.asarray(gains_linear, dtype=float)
        finite = np.isfinite(snr) & np.isfinite(gains).all(axis=-1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericalError(
                f"metrics not finite: snr {snr[i].item()!r}, gains {gains[i].tolist()!r}"
            )
        return [
            cls(s, s_db, tuple(zip(g, g_db)))
            for s, s_db, g, g_db in zip(
                snr.tolist(), to_db(snr).tolist(), gains.tolist(), to_db(gains).tolist()
            )
        ]


def to_db(x):
    """10*log10(x) elementwise, with -inf where x <= 0; a scalar gives a float."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(x <= 0.0, -np.inf, 10.0 * np.log10(x))
    return db if db.ndim else float(db)


def comm_snr_mrt(
    v: np.ndarray, h_ue: np.ndarray, g_ris: np.ndarray, consts: SystemConstants
) -> np.ndarray:
    """SNR after plugging in the matched beamformer, for phases (N,) or a batch (..., N)."""
    if not (np.shape(v)[-1] == len(h_ue) == len(g_ris)):
        raise ShapeError("comm_snr_mrt: length mismatch")
    s = np.sum(np.conj(h_ue) * np.conj(v) * g_ris, axis=-1)  # h^H diag(v^H) g_ris
    return consts.gain_prefactor / consts.noise_power_w * np.abs(s) ** 2


def beampattern_gain(
    v: np.ndarray, a_target: np.ndarray, g_ris: np.ndarray, consts: SystemConstants
) -> np.ndarray:
    """Beampattern gain (factored post-MRT form); v and a_target broadcast over leading axes."""
    if not (np.shape(v)[-1] == np.shape(a_target)[-1] == len(g_ris)):
        raise ShapeError("beampattern_gain: length mismatch")
    s = np.sum(np.conj(a_target) * np.conj(v) * g_ris, axis=-1)
    return consts.gain_prefactor * np.abs(s) ** 2


def metrics_for(v: np.ndarray, channels: ChannelSet, consts: SystemConstants) -> list[Metrics]:
    """Evaluate both metrics for each row of a batch of RIS phase vectors (C, N)."""
    snr = comm_snr_mrt(v, channels.h_ue, channels.g_ris, consts)
    gains = beampattern_gain(v[:, None, :], np.asarray(channels.a_targets), channels.g_ris, consts)
    return Metrics.from_linear(snr, gains)
