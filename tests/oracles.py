"""Test oracles: the BS-side steering, the matched beamformer and both metrics
in their general pre-MRT form, which the factored forms in
``ris_isac.beamforming`` must match, the perturbation system's target
alignment in its angle form, and the SDR randomization's candidate stream
replayed one trial at a time."""

import numpy as np

from ris_isac.channel import angle_from_positions
from ris_isac.errors import ShapeError


def bs_steering(m_antennas: int, theta_tx: float, scenario) -> np.ndarray:
    """BS array response for a departure angle, at the scenario's carrier and
    half-wavelength spacing; entries are unit modulus."""
    if m_antennas < 1:
        raise ValueError("bs_steering: need at least one antenna")
    m = np.arange(1, m_antennas + 1)
    k, d = scenario.wavenumber, scenario.spacing
    phase = k * (m - (m_antennas + 1) / 2.0) * d * np.cos(theta_tx)
    return np.exp(1j * phase)


def bs_steering_for(scenario) -> np.ndarray:
    """BS-side steering g_bs (length M) of the BS-RIS link of a scenario."""
    theta_tx = angle_from_positions(scenario.bs_pos, scenario.ris_pos)
    return bs_steering(scenario.bs_antennas, theta_tx, scenario)


def mrt_beamformer(g_bs: np.ndarray, power_w: float) -> np.ndarray:
    """Matched-filter beamformer scaled to the full power budget."""
    norm = np.linalg.norm(g_bs)
    if norm == 0.0:
        raise ValueError("mrt_beamformer: zero steering vector")
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


def alignment(h_ue: np.ndarray, a_targets: np.ndarray) -> np.ndarray:
    """The target alignment (K, N) in its angle form, exp(j*(ang(h_n) - ang(a_k_n)));
    an exact-zero channel entry has phase 0, as np.angle gives it."""
    return np.exp(1j * (np.angle(h_ue) - np.angle(a_targets)))


def sequential_candidates(factor: np.ndarray, rng, trials: int) -> list[np.ndarray]:
    """The randomization's candidates replayed one trial at a time: a complex
    Gaussian draw with covariance factor factor^H (real parts, then imaginary),
    projected entrywise to unit modulus."""
    r = factor.shape[1]
    candidates = []
    for _ in range(trials):
        noise = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2.0)
        candidates.append(np.exp(1j * np.angle(factor @ noise)))
    return candidates
