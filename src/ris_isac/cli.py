"""Command-line entry point.

Subcommands: `solve` (one scenario end to end, printed summary),
`experiment` (CSV-producing studies), `validate` (config check only).
Flags override scenario-file fields, which override built-in defaults.
Exit codes: 0 success, 1 internal error (any other exception, reported on
one line), 2 config error, 3 numerical error, 4 capability error.  Every
output-producing run that succeeds writes a JSON manifest, with its wall
time, after the run and before its results; a failed run writes nothing.
The manifest pins everything needed to reproduce the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .config import LambdaPolicy, ScenarioConfig, default_scenario_path
from .errors import (
    CapExceeded,
    ConfigError,
    Infeasible,
    NonConvergence,
    NumericalError,
    RisIsacError,
)
from .perturb import gain_upper_bound

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPABILITY = 4

EXPERIMENT_NAMES = ("heatmap", "alpha-sweep", "weight-sweep", "aoa-scan", "complexity")

DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_POLICY_GRID = ("adaptive", "fixed:0.1", "fixed:0.5")
DEFAULT_RATIOS = (1.0, 2.0, 5.0, 10.0)
DEFAULT_N_LIST = (64, 128, 256, 512)


@dataclass
class RunManifest:
    """Everything needed to re-execute a run bit-identically."""

    command: list[str]
    scenario_path: str
    resolved_config: dict
    seed_list: list[int]
    output_dir: str
    tool_version: str
    wall_time_s: float

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-isac",
        description="Closed-form RIS phase design for joint sensing and communication.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", type=str, default=None, help="scenario JSON path")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--alpha", type=float, default=None, help="trade-off override")
        p.add_argument(
            "--lambda-policy",
            dest="lambda_policy",
            type=str,
            default=None,
            help="adaptive | fixed:<c>",
        )

    p_solve = sub.add_parser("solve", help="solve one scenario and print the summary")
    add_common(p_solve)
    p_solve.add_argument("--out", type=str, default=None, help="directory for the manifest")

    p_exp = sub.add_parser("experiment", help="run a CSV-producing study")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    add_common(p_exp)
    p_exp.add_argument("--out", type=str, default=".", help="output directory")
    p_exp.add_argument("--seeds", type=int, default=None, help="number of Monte Carlo seeds")
    p_exp.add_argument(
        "--alphas", type=str, default=None, help="comma-separated alpha list (alpha-sweep)"
    )
    p_exp.add_argument(
        "--method",
        choices=("proposed", "sdr", "comm-only"),
        default="proposed",
        help="design method (heatmap)",
    )
    p_exp.add_argument("--sdr-cap", dest="sdr_cap", type=int, default=None)

    p_val = sub.add_parser("validate", help="check a scenario file without solving")
    p_val.add_argument("--scenario", type=str, default=None)

    return parser


def _load_scenario(args) -> tuple[ScenarioConfig, str]:
    path = args.scenario if args.scenario else str(default_scenario_path())
    scenario = ScenarioConfig.from_file(path)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "lambda_policy", None) is not None:
        overrides["lambda_policy"] = LambdaPolicy.parse(args.lambda_policy)
    if overrides:
        scenario = scenario.replace(**overrides)
    return scenario, path


def _seed_list(scenario: ScenarioConfig, n_seeds: int | None) -> list[int]:
    """Expand the root seed to a contiguous block of child seeds."""
    n = n_seeds if n_seeds is not None else 1
    if n < 1:
        raise ConfigError("--seeds: must be >= 1")
    return [scenario.seed + i for i in range(n)]


def _write_manifest(args, path: str, scenario: ScenarioConfig, seeds, wall_time_s) -> None:
    """Create the output directory and write the manifest of a run that has
    finished, before any of its results."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    RunManifest(
        command=args.argv,
        scenario_path=path,
        resolved_config=scenario.to_dict(),
        seed_list=list(seeds),
        output_dir=str(out),
        tool_version=__version__,
        wall_time_s=wall_time_s,
    ).write(out / "manifest.json")


def cmd_solve(args) -> int:
    scenario, path = _load_scenario(args)
    t0 = time.perf_counter()
    from .pipeline import solve_scenario

    outcome = solve_scenario(scenario)  # a batch of one design
    if args.out is not None:
        _write_manifest(args, path, scenario, [scenario.seed], time.perf_counter() - t0)

    print(f"gamma_db={outcome.metrics.snr_db[0]:.6f}")
    gain_ub_db = gain_upper_bound(
        scenario.alpha, scenario.weights, outcome.realization.channels.gain_prefactor,
        scenario.n_elements, db=True,
    )
    for k, ((_, g_db), ub_db) in enumerate(zip(outcome.metrics.gains[0], gain_ub_db), 1):
        print(f"gain_t{k}_db={g_db:.6f} gain_ub_t{k}_db={ub_db:.6f}")
    print(f"lambda={outcome.report.lambda_used[0]:.9g}")
    print(f"max_abs_dphi={outcome.report.max_abs_perturbation[0]:.9g}")
    print(f"objective={outcome.report.objective_value[0]:.9g}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from . import experiments as exp

    scenario, path = _load_scenario(args)
    seeds = _seed_list(scenario, args.seeds)
    alphas = list(DEFAULT_ALPHAS)
    if args.alphas:
        try:  # each entry must pass the config's own alpha rule
            alphas = [scenario.replace(alpha=float(a)).alpha for a in args.alphas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--alphas: {exc}") from None
    sdr_cap = args.sdr_cap if args.sdr_cap is not None else exp.DEFAULT_SDR_CAP

    t0 = time.perf_counter()

    if args.name == "heatmap":
        grid = exp.GridSpec(0.0, 120.0, -40.0, 40.0, 2.0)
        method = args.method.replace("-", "_")
        result = exp.run_heatmap(scenario, grid, method, seeds=seeds, sdr_cap=sdr_cap)
    elif args.name == "alpha-sweep":
        policies = [args.lambda_policy] if args.lambda_policy else list(DEFAULT_POLICY_GRID)
        result = exp.sweep_alpha(scenario, alphas, policies, seeds)
    elif args.name == "weight-sweep":
        result = exp.sweep_weight_ratio(scenario, DEFAULT_RATIOS, seeds)
    elif args.name == "aoa-scan":
        result = exp.beampattern_vs_aoa(scenario, seeds=seeds, sdr_cap=sdr_cap)
    else:  # complexity; argparse restricts the choices
        result = exp.run_complexity_probe(DEFAULT_N_LIST, scenario=scenario, sdr_cap=sdr_cap)

    out = Path(args.out)
    _write_manifest(args, path, scenario, seeds, time.perf_counter() - t0)
    result.write_csv(out / f"{args.name.replace('-', '_')}.csv")
    print(f"wrote {args.name} results to {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario, path = _load_scenario(args)
    print(f"{path}: ok ({len(scenario.targets)} targets, N={scenario.n_elements})")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.argv = argv  # the manifest records the arguments this run parsed
    commands = {"solve": cmd_solve, "experiment": cmd_experiment, "validate": cmd_validate}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (NumericalError, NonConvergence, Infeasible) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RisIsacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
