"""Transmit beamformer and the two performance metrics.

The BS-RIS channel is rank one, so matched (maximum-ratio) transmission is
simultaneously optimal for the communication SNR and for every beampattern
gain.  Both metrics exist in a general pre-MRT form and a factored post-MRT
form; the pair is kept as mutual oracles.  SNR is analytic throughout: no
symbols or noise are ever sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .channel import ChannelSet
from .errors import DegenerateGeometry, ShapeError


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
    def from_linear(cls, snr: float, gains_linear) -> "Metrics":
        return cls(
            snr_linear=float(snr),
            snr_db=to_db(snr),
            gains=tuple((float(g), to_db(g)) for g in gains_linear),
        )


def to_db(x: float) -> float:
    x = float(x)
    if x <= 0.0:
        return -np.inf
    return 10.0 * np.log10(x)


def mrt_beamformer(g_bs: np.ndarray, power_w: float) -> np.ndarray:
    """Matched-filter beamformer scaled to the full power budget."""
    norm = np.linalg.norm(g_bs)
    if norm == 0.0:
        raise DegenerateGeometry("mrt_beamformer: zero steering vector")
    return np.sqrt(power_w) * np.asarray(g_bs, dtype=complex) / norm


def comm_snr_general(
    w: np.ndarray,
    beta_g: float,
    g_bs: np.ndarray,
    g_ris: np.ndarray,
    h_ue: np.ndarray,
    v: np.ndarray,
    noise_power_w: float,
) -> float:
    """SNR in the unfactored form, from the rank-one BS-RIS channel factors."""
    if len(w) != len(g_bs):
        raise ShapeError("comm_snr_general: w/g_bs length mismatch")
    if not (len(g_ris) == len(h_ue) == len(v)):
        raise ShapeError("comm_snr_general: RIS-side length mismatch")
    # received scalar: h^H diag(v^H) G w with G = sqrt(beta_g) g_ris g_bs^H
    ris_sum = np.sum(np.conj(h_ue) * np.conj(v) * g_ris)  # h^H diag(v^H) g_ris
    amp = np.sqrt(beta_g) * ris_sum * np.vdot(g_bs, w)
    return float(np.abs(amp) ** 2 / noise_power_w)


def comm_snr_mrt(
    v: np.ndarray, h_ue: np.ndarray, g_ris: np.ndarray, consts: SystemConstants
) -> float:
    """SNR after plugging in the matched beamformer (factored closed form)."""
    if not (len(v) == len(h_ue) == len(g_ris)):
        raise ShapeError("comm_snr_mrt: length mismatch")
    s = np.sum(np.conj(h_ue) * np.conj(v) * g_ris)  # h^H diag(v^H) g_ris
    return float(consts.gain_prefactor / consts.noise_power_w * np.abs(s) ** 2)


def beampattern_gain(
    v: np.ndarray, a_target: np.ndarray, g_ris: np.ndarray, consts: SystemConstants
) -> float:
    """Beampattern gain toward one direction (factored post-MRT form)."""
    if not (len(v) == len(a_target) == len(g_ris)):
        raise ShapeError("beampattern_gain: length mismatch")
    s = np.sum(np.conj(a_target) * np.conj(v) * g_ris)
    return float(consts.gain_prefactor * np.abs(s) ** 2)


def beampattern_gain_general(
    w: np.ndarray,
    beta_g: float,
    g_bs: np.ndarray,
    g_ris: np.ndarray,
    v: np.ndarray,
    a_target: np.ndarray,
) -> float:
    """Beampattern gain in the pre-MRT quadratic form; oracle for the factored one."""
    if len(w) != len(g_bs):
        raise ShapeError("beampattern_gain_general: w/g_bs length mismatch")
    if not (len(g_ris) == len(v) == len(a_target)):
        raise ShapeError("beampattern_gain_general: RIS-side length mismatch")
    ris_sum = np.sum(np.conj(a_target) * np.conj(v) * g_ris)  # a^H diag(v^H) g_ris
    return float(beta_g * np.abs(ris_sum) ** 2 * np.abs(np.vdot(g_bs, w)) ** 2)


def metrics_for(v: np.ndarray, channels: ChannelSet, consts: SystemConstants) -> Metrics:
    """Evaluate both metrics for a given RIS phase vector."""
    snr = comm_snr_mrt(v, channels.h_ue, channels.g_ris, consts)
    gains = [beampattern_gain(v, a, channels.g_ris, consts) for a in channels.a_targets]
    return Metrics.from_linear(snr, gains)
