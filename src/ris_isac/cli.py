"""Command-line entry point.

Subcommands: `solve` (one scenario end to end, printed summary),
`experiment <study>` (CSV-producing studies), `validate` (config check
only); each takes only the flags it reads, and argparse rejects any other
with exit 2.  Flags override scenario-file fields, which override defaults.
Exit codes: 0 success, 1 internal error (any other exception, a ShapeError
too, on one line), 2 config error (also a scenario file that cannot be read
or is not a JSON object, and an --out that cannot be made or where an output
name is a directory), 3 numerical error (SDR NonConvergence and Infeasible
too), 4 capability error.  An IllPosedWarning is one `warning:` line on
stderr.  A successful run writes a JSON manifest that pins how to reproduce
it, with its wall time, before its results; a failed run writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .config import MAX_ARRAY_LENGTH, LambdaPolicy, ScenarioConfig, default_scenario_path
from .errors import CapExceeded, ConfigError, IllPosedWarning, NumericalError
from .perturb import gain_upper_bound
from .pipeline import solve_scenario

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPABILITY = 4

DEFAULT_POLICY_GRID = (LambdaPolicy(), LambdaPolicy(0.1), LambdaPolicy(0.5))
DEFAULT_N_LIST = (64, 256, 1024, 4096, 16384, 65536)

# Every flag of the CLI; each subcommand and study takes the ones it reads.
FLAGS = {
    "--scenario": dict(help="scenario JSON path"),
    "--seed": dict(type=int, help="root seed override"),
    "--alpha": dict(type=float, help="trade-off override"),
    "--lambda-policy": dict(help="adaptive | fixed:<c>"),
    "--out": dict(help="output directory"),
    "--seeds": dict(type=int, default=1, help="number of Monte Carlo seeds"),
    "--alphas": dict(default="0,0.25,0.5,0.75,1", help="comma-separated alpha list"),
    "--method": dict(choices=("proposed", "sdr", "comm-only"), default="proposed",
                     help="design method"),
}
# Each study and the flags it reads besides --scenario, --seed, --lambda-policy, --out.
STUDIES = {
    "heatmap": ("--seeds", "--alpha", "--method"),
    "alpha-sweep": ("--seeds", "--alphas"),
    "weight-sweep": ("--seeds", "--alpha"),
    "aoa-scan": ("--seeds", "--alpha"),
    "complexity": (),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-isac",
        description="Closed-form RIS phase design for joint sensing and communication.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, flags, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    add(sub, "solve", ("--scenario", "--seed", "--alpha", "--lambda-policy", "--out"),
        help="solve one scenario and print the summary")
    studies = add(sub, "experiment", (), help="run a CSV-producing study")
    studies = studies.add_subparsers(dest="name", required=True)
    for name, flags in STUDIES.items():  # exact names only: --alpha is not --alphas
        add(studies, name, ("--scenario", "--seed", "--lambda-policy", "--out", *flags),
            allow_abbrev=False).set_defaults(out=".")
    add(sub, "validate", ("--scenario",), help="check a scenario file without solving")
    return parser


PARSER = _build_parser()


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


def _write_manifest(args, path: str, scenario: ScenarioConfig, seeds, wall_time_s,
                    results=()) -> None:
    """Create the output directory and write the manifest of a run that has
    finished, before any of its results (the file names in `results`):
    everything needed to re-execute the run bit-identically.  An --out that
    cannot be made, or where the manifest or a result would replace a
    directory, is a ConfigError raised before anything is written."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    for target in (out / name for name in ("manifest.json", *results)):
        if target.is_dir():
            raise ConfigError(f"--out: {target} is a directory")
    manifest = dict(
        command=args.argv,
        scenario_path=path,
        resolved_config=scenario.to_dict(),
        seed_list=list(seeds),
        output_dir=str(out),
        tool_version=__version__,
        wall_time_s=wall_time_s,
    )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_solve(args) -> int:
    scenario, path = _load_scenario(args)
    t0 = time.perf_counter()
    outcome = solve_scenario(scenario)  # a batch of one design
    if args.out is not None:
        _write_manifest(args, path, scenario, [scenario.seed], time.perf_counter() - t0)

    print(f"gamma_db={outcome.metrics.snr_db[0]:.6f}")
    gain_ub_db = gain_upper_bound(
        scenario.alpha, scenario.weights, scenario.gain_prefactor, scenario.n_elements, db=True
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
    n_seeds = getattr(args, "seeds", 1)  # the probe has no --seeds: it draws one seed
    if n_seeds < 1:
        raise ConfigError("--seeds: must be >= 1")
    if n_seeds > MAX_ARRAY_LENGTH:  # the seed list is built before anything runs
        raise ConfigError(f"--seeds: exceeds the longest array, {MAX_ARRAY_LENGTH} elements")
    seeds = [scenario.seed + i for i in range(n_seeds)]  # a contiguous block of child seeds

    t0 = time.perf_counter()

    if args.name == "heatmap":
        result = exp.run_heatmap(scenario, args.method, seeds=seeds)
    elif args.name == "alpha-sweep":
        try:  # each entry must pass the config's own alpha rule
            alphas = [scenario.replace(alpha=float(a)).alpha for a in args.alphas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--alphas: {exc}") from None
        policies = [scenario.lambda_policy] if args.lambda_policy else DEFAULT_POLICY_GRID
        result = exp.sweep_alpha(scenario, alphas, policies, seeds)
    elif args.name == "weight-sweep":
        result = exp.sweep_weight_ratio(scenario, seeds)
    elif args.name == "aoa-scan":
        result = exp.beampattern_vs_aoa(scenario, seeds=seeds)
    else:  # complexity; argparse restricts the choices
        result = exp.run_complexity_probe(DEFAULT_N_LIST, scenario)

    out, csv_name = Path(args.out), f"{args.name.replace('-', '_')}.csv"
    _write_manifest(args, path, scenario, seeds, time.perf_counter() - t0, [csv_name])
    result.write_csv(out / csv_name)
    print(f"wrote {args.name} results to {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario, path = _load_scenario(args)
    print(f"{path}: ok ({len(scenario.targets)} targets, N={scenario.n_elements})")
    return EXIT_OK


@functools.cache
def _pin_malloc_thresholds() -> None:
    """On glibc, fix malloc's mmap threshold at 32 MiB, the cap of its adaptive
    value on 64-bit, and its trim threshold at 64 MiB, twice that, as glibc's own
    rule pairs them.  Under the adaptive values a study's design transients
    (about 0.7 MiB per seed at N = 441 and 33 cells) exceed the trim threshold,
    so each seed's frees returned the heap top to the kernel and the next seed
    faulted it back in.  Both are set: setting the trim threshold alone freezes
    the mmap threshold at 128 KiB, and every array of that size is then mapped
    and faulted afresh.  The arithmetic, and so every output byte, is unchanged."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not this name
        glibc = None
    if not glibc:  # another C library: nothing to set
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = PARSER.parse_args(argv)
    args.argv = argv  # the manifest records the arguments this run parsed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllPosedWarning)
        code = _run(args)
    ill_posed = [str(w.message) for w in caught if w.category is IllPosedWarning]
    for message in dict.fromkeys(ill_posed):  # one line for each distinct message
        print(f"warning: {message}", file=sys.stderr)
    for w in caught:  # any other warning shows as Python shows it
        if w.category is not IllPosedWarning:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args) -> int:
    commands = {"solve": cmd_solve, "experiment": cmd_experiment, "validate": cmd_validate}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
