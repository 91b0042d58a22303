"""Reproductions of the reference studies at configurable scale.

Each experiment returns a SweepResult: plain row dicts, one per CSV row,
that can serialize itself to CSV.  All randomness flows from explicit seed
lists through counter-derived child generators, so a rerun with the same
inputs is byte-identical and cells can be evaluated in any order.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .beamforming import beam_factors, beam_gains, to_db
from .channel import angle_from_positions, child_rng, ris_steering_rx
from .config import LambdaPolicy, ScenarioConfig, TargetSpec
from .errors import CapExceeded, ConfigError
from .perturb import build_system, eta_targets, solve_perturbation
from .pipeline import design, realize
from .sdr import SdpProblem, gaussian_randomization, solve_sdp

DEFAULT_SDR_CAP = 64
WEIGHT_RATIOS = (1.0, 2.0, 5.0, 10.0)
_SDR_STREAM = 1

FLOAT_FMT = "%.9g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path, fieldnames, rows) -> None:
    """Write rows with all floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


@dataclass(frozen=True)
class SweepResult:
    """The CSV rows of one study."""

    fieldnames: tuple[str, ...]
    rows: tuple[dict, ...]

    def write_csv(self, path) -> None:
        write_csv(path, self.fieldnames, self.rows)


def _run_cells(scenario, seeds, cells, evaluate) -> list[list]:
    """Evaluate every cell on every seed; returns results[cell][seed].

    Seeds are the outer loop: each seed's realization is drawn and
    factorized once, goes with all cells to evaluate(real, cells), which
    returns one result per cell, and is dropped before the next seed.
    """
    seeds = list(seeds)
    results = [[None] * len(seeds) for _ in cells]
    for j, seed in enumerate(seeds):
        real = realize(scenario.replace(seed=seed))
        for i, result in enumerate(evaluate(real, cells)):
            results[i][j] = result
    return results


def _method_phase(real, method):
    """RIS configuration (N,) of one realization under the requested design method."""
    s = real.scenario
    if method == "comm-only":
        return real.v_comm
    if method == "proposed":
        return design(real, [(s.alpha, s.weights, s.lambda_policy)]).v_final[0]
    # sdr: relaxed solve + randomized extraction
    problem = SdpProblem.from_channels(real.channels, s.alpha, s.weights)
    solution = solve_sdp(problem)
    return gaussian_randomization(solution.v_matrix, problem, child_rng(s.seed, _SDR_STREAM))[0]


def _seed_mean_patterns(scenario, seeds, methods, steering) -> list[np.ndarray]:
    """Seed-mean beampattern gain (dB) toward each steering row, one per method."""

    def patterns(real, methods):
        factors = beam_factors(steering, real.channels)
        return [to_db(beam_gains(_method_phase(real, m), factors)) for m in methods]

    results = _run_cells(scenario, seeds, methods, patterns)
    # a running total in seed order; np.sum's pairwise order would move the last bits
    return [sum(per_seed, np.zeros(len(steering))) / len(per_seed) for per_seed in results]


def run_heatmap(
    scenario: ScenarioConfig,
    method: str,
    seeds,
    sdr_cap: int = DEFAULT_SDR_CAP,
) -> SweepResult:
    """Seed-mean far-field beampattern gain over a fixed spatial grid, one
    row per grid cell, y outer and x inner.

    The grid covers x in [0, 120] m and y in [-40, 40] m with 2 m cells:
    60 x 40 cell centers from (1, -39) to (119, 39).  Each grid cell is
    scored by the gain toward its angle as seen from the RIS (angle-only,
    no range falloff); the rendering is relative, so only gaps between
    regions are meaningful.
    """
    if method not in ("proposed", "sdr", "comm-only"):
        raise ConfigError(f"unknown method {method!r}")
    if method == "sdr" and scenario.n_elements > sdr_cap:
        raise CapExceeded(f"sdr requested for N={scenario.n_elements} above cap {sdr_cap}")
    xx, yy = np.meshgrid(np.arange(1.0, 120.0, 2.0), np.arange(-39.0, 40.0, 2.0))
    angles = np.arctan2(yy - scenario.ris_pos[1], xx - scenario.ris_pos[0]).ravel()
    steering = ris_steering_rx(scenario, angles)
    (mean,) = _seed_mean_patterns(scenario, seeds, [method], steering)

    rows = [
        {"x_m": float(x_m), "y_m": float(y_m), "gain_db": float(g)}
        for x_m, y_m, g in zip(xx.ravel(), yy.ravel(), mean)
    ]
    return SweepResult(fieldnames=("x_m", "y_m", "gain_db"), rows=tuple(rows))


def _design_rows(scenario, seeds, labelled_cells) -> list[dict]:
    """Design every (label, cell) pair on every seed; one row per pair and
    seed, pair-major, as {**label, seed, gamma_db, gain_t<k>_db}."""
    labels = [label for label, _ in labelled_cells]
    cells = [cell for _, cell in labelled_cells]

    def rows_of(real, cells):
        metrics = design(real, cells).metrics
        snr_db, gains_db = metrics.snr_db.tolist(), metrics.gains[..., 1].tolist()
        return [
            {
                **label,
                "seed": real.scenario.seed,
                "gamma_db": gamma_db,
                **{f"gain_t{k}_db": g_db for k, g_db in enumerate(gains, 1)},
            }
            for label, gamma_db, gains in zip(labels, snr_db, gains_db)
        ]

    results = _run_cells(scenario, seeds, cells, rows_of)
    return [row for per_seed in results for row in per_seed]


def sweep_alpha(
    scenario: ScenarioConfig,
    alphas,
    lambda_policies,
    seeds,
) -> SweepResult:
    """Proposed-method trade-off sweep over alpha for several ridge policies."""
    gain_cols = [f"gain_t{i + 1}_db" for i in range(len(scenario.targets))]
    policies = [LambdaPolicy.parse(p) for p in lambda_policies]
    rows = _design_rows(scenario, seeds, [
        ({"alpha": float(alpha), "lambda_policy": str(policy)},
         (float(alpha), scenario.weights, policy))
        for alpha in alphas
        for policy in policies
    ])
    return SweepResult(
        fieldnames=("alpha", "lambda_policy", "seed", "gamma_db", *gain_cols), rows=tuple(rows)
    )


def sweep_weight_ratio(scenario: ScenarioConfig, seeds) -> SweepResult:
    """Fairness sweep of a two-target scenario over the WEIGHT_RATIOS w_1/w_2."""
    if len(scenario.targets) != 2:
        raise ConfigError("sweep_weight_ratio: scenario must have exactly two targets")
    rows = _design_rows(scenario, seeds, [
        ({"ratio": r}, (scenario.alpha, (r / (1 + r), 1 / (1 + r)), scenario.lambda_policy))
        for r in WEIGHT_RATIOS
    ])
    return SweepResult(
        fieldnames=("ratio", "seed", "gamma_db", "gain_t1_db", "gain_t2_db"), rows=tuple(rows)
    )


def beampattern_vs_aoa(
    scenario: ScenarioConfig,
    seeds,
    sdr_cap: int = DEFAULT_SDR_CAP,
) -> SweepResult:
    """Beampattern gain versus angle for an extended angular target region.

    The band 85-95 degrees is expanded into 11 equal-weight virtual targets
    1 degree apart; the 0.5-degree scan grid also contains the band samples
    and the exact user angle.
    """
    band_angles = 85.0 + 1.0 * np.arange(11)
    k = len(band_angles)
    band_scenario = scenario.replace(
        targets=tuple(TargetSpec(weight=1.0 / k, angle_deg=float(a)) for a in band_angles)
    )

    ue_angle_deg = float(
        np.rad2deg(angle_from_positions(scenario.ris_pos, scenario.ue_pos))
    )
    scan = np.arange(-180.0, 180.0, 0.5)
    scan = np.unique(np.concatenate([scan, band_angles, [ue_angle_deg]]))

    steering = ris_steering_rx(scenario, np.deg2rad(scan))

    methods = ["proposed"]
    if scenario.n_elements <= sdr_cap:
        methods.append("sdr")
    means = _seed_mean_patterns(band_scenario, seeds, methods, steering)

    rows = [
        {"angle_deg": float(a), "method": m, "gain_db": float(mean[i])}
        for m, mean in zip(methods, means)
        for i, a in enumerate(scan)
    ]
    return SweepResult(fieldnames=("angle_deg", "method", "gain_db"), rows=tuple(rows))


def run_complexity_probe(
    n_list,
    scenario: ScenarioConfig,
    repeats: int = 5,
    sdr_cap: int = DEFAULT_SDR_CAP,
) -> SweepResult:
    """Median wall time of the two solvers versus element count.

    Each N is a 1 x N copy of the scenario at alpha 0.5 with two equal-weight
    targets at 60 and 120 degrees.  The proposed timing covers system build
    plus SVD solve for a fixed channel realization; the SDR timing covers the
    splitting solve.  SDR entries are only produced for N at or below the cap.
    """
    if repeats < 1:
        raise ConfigError("run_complexity_probe: repeats must be >= 1")

    def median_seconds(fn) -> float:
        fn()  # warm up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    rows = []
    for n in n_list:
        cell = scenario.replace(
            ris_rows=1, ris_cols=int(n), alpha=0.5,
            targets=(TargetSpec(0.5, angle_deg=60.0), TargetSpec(0.5, angle_deg=120.0)),
        )
        channels = realize(cell).channels
        eta_bar = eta_targets(cell.alpha, cell.weights, cell.n_elements)

        def proposed_once():
            system = build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor)
            lam = cell.lambda_policy.normalized(cell.alpha, system.sigma_max_normalized)
            return solve_perturbation(system, [eta_bar], [lam])

        seconds = median_seconds(proposed_once)
        rows.append({"n_elements": int(n), "method": "proposed", "median_seconds": seconds})
        if n <= sdr_cap:
            problem = SdpProblem.from_channels(channels, cell.alpha, cell.weights)
            seconds = median_seconds(lambda: solve_sdp(problem))
            rows.append({"n_elements": int(n), "method": "sdr", "median_seconds": seconds})

    return SweepResult(fieldnames=("n_elements", "method", "median_seconds"), rows=tuple(rows))
