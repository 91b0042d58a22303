"""The two performance metrics under the matched transmit beamformer.

The BS-RIS channel is rank one, so matched (maximum-ratio) transmission is
simultaneously optimal for the communication SNR and for every beampattern
gain.  This module holds both metrics in that factored post-MRT form, each
as |q^H v|^2 for a rank-one factor q; beam_factors builds the factors from
one realization's ChannelSet, which carries the link gain P*beta_g*M and the
noise power, beam_gains evaluates them, and metrics_for returns one Metrics
record whose arrays keep the batch axes of v.  The beamformer, the BS-side
steering and the general pre-MRT forms are test oracles (``tests/oracles.py``).
SNR is analytic throughout: no symbols or noise are ever sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .errors import NumericalError, ShapeError


@dataclass(frozen=True)
class Metrics:
    """Communication SNR and per-target beampattern gains, linear and dB, of one
    design or a batch; every array carries the leading axes (...) of the inputs."""

    snr_linear: np.ndarray  # (...,)
    snr_db: np.ndarray  # (...,)
    gains: np.ndarray  # (..., K, 2): (linear, dB) per target

    @classmethod
    def from_linear(cls, snr, gains_linear) -> "Metrics":
        """Metrics from linear SNRs (...,) and gains (..., K), converted to dB in
        one pass; a NaN or infinite value raises NumericalError naming the first
        design that has one."""
        snr, gains = np.asarray(snr, dtype=float), np.asarray(gains_linear, dtype=float)
        finite = np.isfinite(snr) & np.isfinite(gains).all(axis=-1)
        if not finite.all():
            i = np.unravel_index(np.argmin(finite), finite.shape)
            raise NumericalError(
                f"metrics not finite: snr {snr[i].item()!r}, gains {gains[i].tolist()!r}"
            )
        return cls(snr, to_db(snr), np.stack([gains, to_db(gains)], axis=-1))


def to_db(x):
    """10*log10(x) elementwise, with -inf where x <= 0; a scalar gives a float."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(x <= 0.0, -np.inf, 10.0 * np.log10(x))
    return db if db.ndim else float(db)


def beam_factors(steering: np.ndarray, channels: ChannelSet) -> np.ndarray:
    """Rank-one factors sqrt(P*beta_g*M) * g_ris * conj(s) of the gain toward each
    steering row s (..., N): the gain of phases v toward s is |q^H v|^2."""
    if np.shape(steering)[-1] != len(channels.g_ris):
        raise ShapeError("beam_factors: length mismatch")
    return np.sqrt(channels.gain_prefactor) * channels.g_ris * np.conj(steering)


def row_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (..., N) @ m (N, R) as a stack of row products: each row rounds as it would
    alone, where a (C, N) @ (N, R) product rounds differently for different C."""
    return (x[..., None, :] @ m)[..., 0, :]


def beam_gains(v: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """|q_r^H v|^2 for each factor row q_r of (R, N), for phases (N,) or a batch (C, N)."""
    if np.ndim(factors) != 2 or np.shape(v)[-1] != np.shape(factors)[-1]:
        raise ShapeError("beam_gains: need factors (R, N) and phases (..., N)")
    return np.abs(row_products(v, np.conj(factors).T)) ** 2


def metric_factors(channels: ChannelSet) -> np.ndarray:
    """Factors (1 + K, N) of one realization: the SNR row, which also carries
    1/sqrt(noise power), then one gain row per target."""
    factors = beam_factors(np.vstack([channels.h_ue, channels.a_targets]), channels)
    factors[0] /= np.sqrt(channels.noise_power_w)
    return factors


def metrics_for(v: np.ndarray, channels: ChannelSet) -> Metrics:
    """Both metrics of RIS phases (N,), or of each row of a batch (C, N)."""
    scores = beam_gains(v, metric_factors(channels))
    return Metrics.from_linear(scores[..., 0], scores[..., 1:])
