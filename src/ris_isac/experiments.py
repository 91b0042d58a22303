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
from .channel import angle_from_positions, child_rng, geometry_steering, ris_steering_rx
from .config import ScenarioConfig, TargetSpec
from .errors import CapExceeded, ConfigError
from .pipeline import SDR_STREAM, design, realize
from .sdr import SdpProblem, gaussian_randomization, solve_sdp

# the largest element count N at which SDR runs
SDR_CAP = 64
WEIGHT_RATIOS = (1.0, 2.0, 5.0, 10.0)

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


def _realizations(scenario, seeds):
    """Each seed's realization, in seed order, drawn as the loop reaches it.

    The seeds share one geometry, so its steering is computed once for all
    of them.  An empty seed list is rejected here, when the study is called:
    a seed mean of nothing is NaN.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seeds: need at least one seed")
    steering = geometry_steering(scenario)
    return (realize(scenario.replace(seed=seed), steering) for seed in seeds)


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
    return gaussian_randomization(solution.v_matrix, problem, child_rng(s.seed, SDR_STREAM))[0]


def _seed_mean_patterns(scenario, seeds, methods, steering) -> list[np.ndarray]:
    """Seed-mean beampattern gain (dB) toward each steering row, one per method."""
    # a running total in seed order; np.sum's pairwise order would move the last bits
    totals = [np.zeros(len(steering)) for _ in methods]
    for n_seeds, real in enumerate(_realizations(scenario, seeds), 1):
        factors = beam_factors(steering, real.channels)
        for total, method in zip(totals, methods):
            total += to_db(beam_gains(_method_phase(real, method), factors))
    return [total / n_seeds for total in totals]


def run_heatmap(scenario: ScenarioConfig, method: str, seeds) -> SweepResult:
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
    if method == "sdr" and scenario.n_elements > SDR_CAP:
        raise CapExceeded(f"sdr requested for N={scenario.n_elements} above cap {SDR_CAP}")
    xx, yy = np.meshgrid(np.arange(1.0, 120.0, 2.0), np.arange(-39.0, 40.0, 2.0))
    steering = ris_steering_rx(scenario, angle_from_positions(scenario.ris_pos, (xx, yy)).ravel())
    (mean,) = _seed_mean_patterns(scenario, seeds, [method], steering)

    rows = [
        {"x_m": float(x_m), "y_m": float(y_m), "gain_db": float(g)}
        for x_m, y_m, g in zip(xx.ravel(), yy.ravel(), mean)
    ]
    return SweepResult(fieldnames=("x_m", "y_m", "gain_db"), rows=tuple(rows))


def _design_rows(scenario, seeds, labelled_cells) -> SweepResult:
    """Design every (label, cell) pair on every seed; one row per pair and
    seed, pair-major, with the columns of the labels, then seed, gamma_db
    and gain_t1_db ... gain_tK_db."""
    labels = [label for label, _ in labelled_cells]
    cells = [cell for _, cell in labelled_cells]
    gain_cols = [f"gain_t{k}_db" for k in range(1, len(scenario.targets) + 1)]

    rows = [[] for _ in cells]  # one list per pair, each in seed order
    for real in _realizations(scenario, seeds):
        metrics = design(real, cells).metrics
        snr_db, gains_db = metrics.snr_db.tolist(), metrics.gains[..., 1].tolist()
        for pair_rows, label, gamma_db, gains in zip(rows, labels, snr_db, gains_db):
            pair_rows.append({
                **label,
                "seed": real.scenario.seed,
                "gamma_db": gamma_db,
                **dict(zip(gain_cols, gains)),
            })
    return SweepResult(
        fieldnames=(*labels[0], "seed", "gamma_db", *gain_cols),
        rows=tuple(row for pair_rows in rows for row in pair_rows),
    )


def sweep_alpha(
    scenario: ScenarioConfig,
    alphas,
    lambda_policies,
    seeds,
) -> SweepResult:
    """Proposed-method sweep over alpha for several ridge policies (LambdaPolicy objects)."""
    return _design_rows(scenario, seeds, [
        ({"alpha": float(alpha), "lambda_policy": str(policy)},
         (float(alpha), scenario.weights, policy))
        for alpha in alphas
        for policy in lambda_policies
    ])


def sweep_weight_ratio(scenario: ScenarioConfig, seeds) -> SweepResult:
    """Fairness sweep of a two-target scenario over the WEIGHT_RATIOS w_1/w_2."""
    if len(scenario.targets) != 2:
        raise ConfigError("sweep_weight_ratio: scenario must have exactly two targets")
    return _design_rows(scenario, seeds, [
        ({"ratio": r}, (scenario.alpha, (r / (1 + r), 1 / (1 + r)), scenario.lambda_policy))
        for r in WEIGHT_RATIOS
    ])


def beampattern_vs_aoa(scenario: ScenarioConfig, seeds) -> SweepResult:
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
    if scenario.n_elements <= SDR_CAP:
        methods.append("sdr")
    means = _seed_mean_patterns(band_scenario, seeds, methods, steering)

    rows = [
        {"angle_deg": float(a), "method": m, "gain_db": float(mean[i])}
        for m, mean in zip(methods, means)
        for i, a in enumerate(scan)
    ]
    return SweepResult(fieldnames=("angle_deg", "method", "gain_db"), rows=tuple(rows))


def run_complexity_probe(n_list, scenario: ScenarioConfig, repeats: int = 5) -> SweepResult:
    """Median wall time of the two solvers versus element count.

    Each N is a 1 x N copy of the scenario at alpha 0.5 with two equal-weight
    targets at 60 and 120 degrees.  The proposed timing covers one design of
    a fixed channel realization (factorization, stacking check, solve with
    its Taylor check, metrics); the SDR timing covers the splitting solve.
    SDR entries are only produced for N at or below SDR_CAP.
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
        real = realize(cell)
        design_cell = (cell.alpha, cell.weights, cell.lambda_policy)
        seconds = median_seconds(lambda: design(real, [design_cell]))
        rows.append({"n_elements": int(n), "method": "proposed", "median_seconds": seconds})
        if n <= SDR_CAP:
            problem = SdpProblem.from_channels(real.channels, cell.alpha, cell.weights)
            seconds = median_seconds(lambda: solve_sdp(problem))
            rows.append({"n_elements": int(n), "method": "sdr", "median_seconds": seconds})

    return SweepResult(fieldnames=("n_elements", "method", "median_seconds"), rows=tuple(rows))
