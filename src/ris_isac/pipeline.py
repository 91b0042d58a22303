"""End-to-end solves: scenario -> channels -> phase design -> metrics.

realize() draws one fading realization and factorizes it; design() aims
that factorization at alpha * w * N for a batch of (alpha, weights, policy)
cells and evaluates them together in one pass of array operations.

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
from .config import ScenarioConfig
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
    system: PerturbationSystem


@dataclass(frozen=True)
class SolveOutcome:
    """Everything produced by one proposed-method design."""

    realization: Realization
    report: SolveReport
    metrics: Metrics
    lambda_normalized: float
    gain_bounds: np.ndarray

    @property
    def v_final(self) -> RisPhase:
        return compose_phase(self.realization.v_comm, self.report.delta_phi)


def realize(scenario: ScenarioConfig, rng: Rng | None = None) -> Realization:
    """Draw the channels of one realization and factorize its system."""
    if rng is None:
        rng = child_rng(scenario.seed, 0)
    channels = build_channels(scenario, rng)
    consts = SystemConstants.from_scenario(scenario, channels)
    v_comm = comm_optimal_phase(channels.h_ue, channels.g_ris)
    return Realization(
        scenario=scenario,
        channels=channels,
        consts=consts,
        v_comm=v_comm,
        metrics_comm_only=metrics_for(v_comm.v[None], channels, consts)[0],
        system=build_system(channels.h_ue, channels.a_targets, consts),
    )


def design(realization: Realization, cells) -> list[SolveOutcome]:
    """Closed-form designs for the cells (alpha, weights, policy) of one
    realization, solved as one batch: one stacking check, one filtered
    solve with its Taylor-bound check, and one metric evaluation for all."""
    if not cells:
        return []
    system, consts = realization.system, realization.consts
    alphas, weights, policies = zip(*cells)
    alpha = np.array(alphas, dtype=float)[:, None]
    eta_bar = eta_targets(alpha, weights, system.n_elements)
    lam_norm = [p.normalized(a, system.sigma_max_normalized) for a, p in zip(alphas, policies)]

    system.check_stacking(eta_bar)
    report = solve_perturbation(system, eta_bar, system.scale**2 * np.array(lam_norm))
    v_final = compose_phase(realization.v_comm, report.delta_phi)
    metrics = metrics_for(v_final.v, realization.channels, consts)
    bounds = gain_upper_bound(alpha, weights, consts, system.n_elements)
    return [
        SolveOutcome(realization, report[i], metrics[i], lam_norm[i], bounds[i])
        for i in range(len(cells))
    ]


def solve_scenario(scenario: ScenarioConfig, rng: Rng | None = None) -> SolveOutcome:
    """Run the full closed-form design for one fading realization."""
    cell = (scenario.alpha, scenario.weights, scenario.lambda_policy)
    return design(realize(scenario, rng), [cell])[0]
