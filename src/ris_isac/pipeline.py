"""End-to-end solves: scenario -> channels -> phase design -> metrics.

realize() draws one fading realization and factorizes it; design() aims
that factorization at alpha * w * N for a batch of (alpha, weights, policy)
cells and evaluates them together in one pass of array operations, returning
one SolveOutcome whose arrays carry the cell axis.  Every RIS configuration
here is a unit-modulus vector v, v_comm times the solver's rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import Metrics, metrics_for
from .channel import ChannelSet, Rng, build_channels, child_rng
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


@dataclass(frozen=True)
class Realization:
    """One fading realization with its factorized perturbation system."""

    scenario: ScenarioConfig
    channels: ChannelSet
    v_comm: np.ndarray  # communication-optimal configuration (N,)
    system: PerturbationSystem


@dataclass(frozen=True)
class SolveOutcome:
    """Everything produced by a batch of C proposed-method designs on one
    realization; report, metrics and v_final carry the cell axis."""

    realization: Realization
    report: SolveReport
    metrics: Metrics
    v_final: np.ndarray  # the designed configurations (C, N) that metrics scores


def realize(scenario: ScenarioConfig, rng: Rng | None = None) -> Realization:
    """Draw the channels of one realization and factorize its system."""
    if rng is None:
        rng = child_rng(scenario.seed, CHANNEL_STREAM)
    channels = build_channels(scenario, rng)
    return Realization(
        scenario=scenario,
        channels=channels,
        v_comm=comm_optimal_phase(channels.h_ue, channels.g_ris),
        system=build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor),
    )


def design(realization: Realization, cells) -> SolveOutcome:
    """Closed-form designs for the cells (alpha, weights, policy) of one
    realization, solved as one batch: one stacking check, one filtered
    solve with its Taylor-bound check, and one metric evaluation for all."""
    if not cells:
        raise ShapeError("design: cells is empty; need at least one (alpha, weights, policy)")
    system = realization.system
    alphas, weights, policies = zip(*cells)
    alpha = np.array(alphas, dtype=float)[:, None]
    eta_bar = eta_targets(alpha, weights, system.n_elements)
    lam = [p.normalized(a, system.sigma_max_normalized) for a, p in zip(alphas, policies)]

    system.check_stacking(eta_bar)
    report = solve_perturbation(system, eta_bar, lam)
    v_final = realization.v_comm * report.rotation
    return SolveOutcome(realization, report, metrics_for(v_final, realization.channels), v_final)


def solve_scenario(scenario: ScenarioConfig, rng: Rng | None = None) -> SolveOutcome:
    """Run the full closed-form design for one fading realization: a batch of one."""
    cell = (scenario.alpha, scenario.weights, scenario.lambda_policy)
    return design(realize(scenario, rng), [cell])
