"""End-to-end solves: scenario -> channels -> phase design -> metrics.

realize() draws one fading realization and factorizes it; design() aims
that factorization at alpha * w * N under a ridge policy and evaluates the
result, so any number of designs can share one realization.

The ridge passed to the SVD solver always refers to the scaled stacked
system.  The lambda policies, however, are defined on the power-normalized
stack (scale divided out), so the communication/sensing trade-off they
express does not depend on the absolute link budget; the normalized value
is what gets reported.  The conversion between the two conventions is
lambda_scaled = scale^2 * lambda_normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import Metrics, SystemConstants, metrics_for
from .channel import ChannelSet, Rng, build_channels, child_rng
from .config import LambdaPolicy, ScenarioConfig
from .perturb import (
    PerturbationSystem,
    RisPhase,
    SolveReport,
    build_system,
    comm_optimal_phase,
    compose_phase,
    eta_targets,
    gain_upper_bound,
    solve_perturbation,
)


@dataclass(frozen=True)
class Realization:
    """One fading realization with its factorized perturbation system."""

    scenario: ScenarioConfig
    channels: ChannelSet
    consts: SystemConstants
    v_comm: RisPhase
    metrics_comm_only: Metrics
    system: PerturbationSystem  # aimed at the scenario's own targets; design() re-aims it


@dataclass(frozen=True)
class SolveOutcome:
    """Everything produced by one proposed-method design."""

    realization: Realization
    system: PerturbationSystem  # aimed at this design's targets
    report: SolveReport
    v_final: RisPhase
    metrics: Metrics
    lambda_normalized: float
    gain_bounds: np.ndarray


def realize(scenario: ScenarioConfig, rng: Rng | None = None) -> Realization:
    """Draw the channels of one realization and factorize its system."""
    if rng is None:
        rng = child_rng(scenario.seed, 0)
    channels = build_channels(scenario, rng)
    consts = SystemConstants.from_scenario(scenario, channels)
    targets = eta_targets(scenario.alpha, scenario.weights, scenario.n_elements)
    system = build_system(channels.h_ue, channels.a_targets, targets, consts)
    v_comm = comm_optimal_phase(channels.h_ue, channels.g_ris)
    return Realization(
        scenario=scenario,
        channels=channels,
        consts=consts,
        v_comm=v_comm,
        metrics_comm_only=metrics_for(v_comm.v, channels, consts),
        system=system,
    )


def design(
    realization: Realization, alpha: float, weights, policy: LambdaPolicy
) -> SolveOutcome:
    """Closed-form design for one (alpha, weights, policy) on a realization."""
    n = realization.scenario.n_elements
    system = realization.system.with_eta_bar(eta_targets(alpha, weights, n))
    lam_norm = policy.normalized(alpha, system.sigma_max_normalized)
    report = solve_perturbation(system, system.scale**2 * lam_norm)
    v_final = compose_phase(realization.v_comm, report.delta_phi)
    channels, consts = realization.channels, realization.consts

    return SolveOutcome(
        realization=realization,
        system=system,
        report=report,
        v_final=v_final,
        metrics=metrics_for(v_final.v, channels, consts),
        lambda_normalized=lam_norm,
        gain_bounds=gain_upper_bound(alpha, weights, consts, n),
    )


def solve_scenario(scenario: ScenarioConfig, rng: Rng | None = None) -> SolveOutcome:
    """Run the full closed-form design for one fading realization."""
    return design(
        realize(scenario, rng), scenario.alpha, scenario.weights, scenario.lambda_policy
    )
