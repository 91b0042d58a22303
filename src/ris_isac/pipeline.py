"""End-to-end solves: scenario -> channels -> phase design -> metrics.

realize() draws one fading realization; design() factorizes it, aims that
factorization at alpha * w * N for a batch of (alpha, weights, policy) cells
and evaluates them together in one pass of array operations, returning one
SolveOutcome whose arrays carry the cell axis.  Every RIS configuration
here is a unit-modulus vector v, v_comm times the solver's rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import Metrics, metrics_for
from .channel import ChannelSet, Steering, build_channels, child_rng
from .config import ScenarioConfig
from .errors import ShapeError
from .perturb import (
    PerturbationSystem,
    SolveReport,
    build_system,
    comm_optimal_phase,
    eta_targets,
    solve_perturbation,
)

CHANNEL_STREAM = 0  # child_rng(seed, CHANNEL_STREAM) draws a realization's fading
SDR_STREAM = 1  # child_rng(seed, SDR_STREAM) draws the SDR randomization of a realization


@dataclass(frozen=True)
class Realization:
    """One fading realization and its communication-optimal configuration."""

    scenario: ScenarioConfig
    channels: ChannelSet
    v_comm: np.ndarray  # communication-optimal configuration (N,)


@dataclass(frozen=True)
class SolveOutcome:
    """Everything produced by a batch of C proposed-method designs on one
    realization; report, metrics and v_final carry the cell axis."""

    system: PerturbationSystem  # the factorization the batch was solved on
    report: SolveReport
    metrics: Metrics
    v_final: np.ndarray  # the designed configurations (C, N) that metrics scores


def realize(scenario: ScenarioConfig, steering: Steering | None = None) -> Realization:
    """Draw the channels of the scenario's seed and align v_comm to them;
    steering, if given, is the geometry's (see build_channels)."""
    channels = build_channels(scenario, child_rng(scenario.seed, CHANNEL_STREAM), steering)
    return Realization(scenario, channels, comm_optimal_phase(channels.h_ue, channels.g_ris))


def design(realization: Realization, cells) -> SolveOutcome:
    """Closed-form designs for the cells (alpha, weights, policy) of one
    realization, solved as one batch: one factorization, one stacking check,
    one filtered solve with its Taylor-bound check, and one metric evaluation
    for all."""
    if not cells:
        raise ShapeError("design: cells is empty; need at least one (alpha, weights, policy)")
    ch = realization.channels
    system = build_system(ch.h_ue, ch.a_targets, ch.gain_prefactor)
    alphas, weights, policies = zip(*cells)
    alpha = np.array(alphas, dtype=float)[:, None]
    eta_bar = eta_targets(alpha, weights, system.n_elements)
    lam = [p.normalized(a, system.sigma_max_normalized) for a, p in zip(alphas, policies)]

    system.check_stacking(eta_bar)
    report = solve_perturbation(system, eta_bar, lam)
    v_final = realization.v_comm * report.rotation
    return SolveOutcome(system, report, metrics_for(v_final, ch), v_final)


def solve_scenario(scenario: ScenarioConfig) -> SolveOutcome:
    """Run the full closed-form design for one fading realization: a batch of one."""
    cell = (scenario.alpha, scenario.weights, scenario.lambda_policy)
    return design(realize(scenario), [cell])
