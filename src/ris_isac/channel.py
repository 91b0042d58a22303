"""Deterministic and random channel quantities.

Steering vectors of the RIS uniform planar array and the Rician RIS-to-user
channel.  build_channels carries the link gain P*beta_g*M and the noise
power, which ScenarioConfig derives, on the ChannelSet, next to the target
steering as one (K, N) array with a row per target.  Angles are measured
at each array from the global +x axis by angle_from_positions (atan2
convention), which also gives the heatmap its cell angles; the config layer
accepts degrees, everything here is radians.  ScenarioConfig holds every
position as a pair of floats and rejects coincident ones, so the angles it
takes are those of distinct points.

The steering functions take the ScenarioConfig itself: its carrier sets the
wavenumber and the half-wavelength spacing, its ris_rows and ris_cols the
array.  The RIS element index n runs 0..N-1 with horizontal index
n_H = n mod N_H and vertical index n_V = n // N_H.  The offsets are centered
with an (N+1)/2 shift, which leaves a global phase on every steering
vector; all metrics are moduli, so that phase is irrelevant as long as
every vector uses the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

Rng = np.random.Generator
Steering = tuple[np.ndarray, np.ndarray, np.ndarray]  # g_ris, user LOS steering, a_targets

KAPPA_CAP = 1e12  # stand-in for the pure-LOS limit


def child_rng(root_seed: int, *indices: int) -> Rng:
    """Derive an independent generator from a root seed and a counter path.

    Same (seed, indices) always yields a bit-identical stream, so Monte
    Carlo cells can run in any order or in parallel without changing
    results.
    """
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(indices)))


def angle_from_positions(origin, point):
    """atan2 angle of `point` as seen from `origin`, in (-pi, pi]; the
    coordinates of `point` may be arrays, giving one angle per point."""
    return np.arctan2(point[1] - origin[1], point[0] - origin[0])


def _ris_offsets(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(scenario.n_elements)
    n_h = np.mod(n, scenario.ris_cols)
    n_v = n // scenario.ris_cols
    return (
        (n_v - (scenario.ris_rows + 1) / 2.0) * scenario.spacing,
        (n_h - (scenario.ris_cols + 1) / 2.0) * scenario.spacing,
    )


def ris_steering_tx(scenario: ScenarioConfig, theta: float) -> np.ndarray:
    """RIS array response on the BS side (+cos horizontal term)."""
    off_v, off_h = _ris_offsets(scenario)
    phase = -scenario.wavenumber * (off_v * np.sin(theta) + off_h * np.cos(theta))
    return np.exp(1j * phase)


def ris_steering_rx(scenario: ScenarioConfig, theta: float | np.ndarray) -> np.ndarray:
    """RIS array response toward a target or the user (-cos horizontal term).

    theta may also be an array of angles; the result then has one row per
    angle.  The sign of the horizontal term differs from ris_steering_tx on
    purpose; the two link directions use opposite horizontal conventions
    and must not be unified.
    """
    off_v, off_h = _ris_offsets(scenario)
    theta = np.asarray(theta, dtype=float)[..., None]
    phase = -scenario.wavenumber * (off_v * np.sin(theta) - off_h * np.cos(theta))
    return np.exp(1j * phase)


def rician_user_channel(
    a_ue: np.ndarray, kappa: float, beta_ue: float, rng: Rng
) -> np.ndarray:
    """Rician RIS-to-user channel: sqrt(beta)*LOS steering plus i.i.d. NLOS.

    The NLOS part is circularly-symmetric complex Gaussian with per-entry
    variance beta_ue.  kappa is capped rather than special-cased so sweeps
    stay continuous; kappa=0 is pure NLOS.
    """
    kappa = min(float(kappa), KAPPA_CAP)
    n = len(a_ue)
    los = np.sqrt(beta_ue) * np.asarray(a_ue, dtype=complex)
    nlos = np.sqrt(beta_ue / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.sqrt(kappa / (1.0 + kappa)) * los + np.sqrt(1.0 / (1.0 + kappa)) * nlos


@dataclass(frozen=True)
class ChannelSet:
    """The RIS-side channel quantities of one scenario realization, with the
    two link scalars of the matched-transmission metrics."""

    gain_prefactor: float  # P*beta_g*M; over the noise power it is the SNR prefactor
    noise_power_w: float
    g_ris: np.ndarray  # RIS-side steering of the BS-RIS link, length N
    h_ue: np.ndarray  # Rician RIS-user channel, length N
    a_targets: np.ndarray  # (K, N) RIS steering, one row per target


def target_angle(scenario: ScenarioConfig, index: int) -> float:
    """Angle of one configured target as seen from the RIS, in radians."""
    t = scenario.targets[index]
    if t.angle_deg is not None:
        return float(np.deg2rad(float(t.angle_deg)))
    return angle_from_positions(scenario.ris_pos, t.position)


def geometry_steering(scenario: ScenarioConfig) -> Steering:
    """The steering that the scenario's geometry fixes and its seed does not:
    g_ris, the user's line-of-sight steering and a_targets (K, N)."""
    theta_link = angle_from_positions(scenario.bs_pos, scenario.ris_pos)
    theta_ue = angle_from_positions(scenario.ris_pos, scenario.ue_pos)
    target_thetas = [target_angle(scenario, k) for k in range(len(scenario.targets))]
    return (
        ris_steering_tx(scenario, theta_link),
        ris_steering_rx(scenario, theta_ue),
        ris_steering_rx(scenario, target_thetas),
    )


def build_channels(
    scenario: ScenarioConfig, rng: Rng, steering: Steering | None = None
) -> ChannelSet:
    """Instantiate every channel quantity for one fading realization.

    steering is geometry_steering of the same geometry, for a seed loop that
    computes it once; without it, it is computed here.  Only h_ue is drawn.
    """
    if steering is None:
        steering = geometry_steering(scenario)
    g_ris, a_ue, a_targets = steering
    h_ue = rician_user_channel(a_ue, scenario.rician_kappa, scenario.path_gains[1], rng)

    return ChannelSet(
        gain_prefactor=scenario.gain_prefactor,
        noise_power_w=scenario.noise_power_w,
        g_ris=g_ris,
        h_ue=h_ue,
        a_targets=a_targets,
    )
