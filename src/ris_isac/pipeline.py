"""End-to-end solves: scenario -> channels -> phase design -> metrics.

realize() draws one fading realization and factorizes it; design() aims
that factorization at alpha * w * N for a batch of (alpha, weights, policy)
cells and evaluates them together in one pass of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import Metrics, metrics_for
from .channel import ChannelSet, Rng, build_channels, child_rng
from .config import ScenarioConfig
from .perturb import (
    PerturbationSystem,
    RisPhase,
    SolveReport,
    build_system,
    comm_optimal_phase,
    compose_phase,
    eta_targets,
    solve_perturbation,
)


@dataclass(frozen=True)
class Realization:
    """One fading realization with its factorized perturbation system."""

    scenario: ScenarioConfig
    channels: ChannelSet
    v_comm: RisPhase
    system: PerturbationSystem


@dataclass(frozen=True)
class SolveOutcome:
    """Everything produced by one proposed-method design."""

    realization: Realization
    report: SolveReport
    metrics: Metrics

    @property
    def v_final(self) -> RisPhase:
        return compose_phase(self.realization.v_comm, self.report.delta_phi)


def realize(scenario: ScenarioConfig, rng: Rng | None = None) -> Realization:
    """Draw the channels of one realization and factorize its system."""
    if rng is None:
        rng = child_rng(scenario.seed, 0)
    channels = build_channels(scenario, rng)
    v_comm = comm_optimal_phase(channels.h_ue, channels.g_ris)
    return Realization(
        scenario=scenario,
        channels=channels,
        v_comm=v_comm,
        system=build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor),
    )


def design(realization: Realization, cells) -> list[SolveOutcome]:
    """Closed-form designs for the cells (alpha, weights, policy) of one
    realization, solved as one batch: one stacking check, one filtered
    solve with its Taylor-bound check, and one metric evaluation for all."""
    if not cells:
        return []
    system = realization.system
    alphas, weights, policies = zip(*cells)
    alpha = np.array(alphas, dtype=float)[:, None]
    eta_bar = eta_targets(alpha, weights, system.n_elements)
    lam = [p.normalized(a, system.sigma_max_normalized) for a, p in zip(alphas, policies)]

    system.check_stacking(eta_bar)
    report = solve_perturbation(system, eta_bar, lam)
    v_final = compose_phase(realization.v_comm, report.delta_phi)
    metrics = metrics_for(v_final.v, realization.channels)
    return [SolveOutcome(realization, report[i], metrics[i]) for i in range(len(cells))]


def solve_scenario(scenario: ScenarioConfig, rng: Rng | None = None) -> SolveOutcome:
    """Run the full closed-form design for one fading realization."""
    cell = (scenario.alpha, scenario.weights, scenario.lambda_policy)
    return design(realize(scenario, rng), [cell])[0]
