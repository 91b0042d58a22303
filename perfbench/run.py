"""ris-isac benchmark: one workload, closed loop, one caller.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload alpha-sweep --seed 1 --seconds 30 --trace 0

The workload runs in its own process with BLAS pinned to one thread.  Set-up
(interpreter start, ``import ris_isac``, loading and validating the scenario)
is timed over several launches and reported as the median.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  The full result, with the
environment, goes to ``.perfbench-out/`` and the spans of a traced run next
to it.  Generated scenarios and CSVs live in a temporary directory inside the
checkout that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import BLAS_THREAD_VARS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_LAUNCHES = 7
READY_TIMEOUT_S = 60.0
RUN_MARGIN_S = 100.0  # beyond --seconds, for the warm-up op and the last op
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(workload: str, scenario: Path, work_dir: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it once ready, with its set-up time in seconds."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           workload, str(scenario), str(work_dir), str(SRC)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Op time at the highest percentile with ten ops beyond it, never below p50.

    Returns (value, percentile); with fewer than 21 ops this is the median.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND
    if idx < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[idx], 100.0 * (idx + 1) / n


def check_ops(workload, records: list[dict], work_dir: Path) -> list[dict]:
    """Check every op's output against its reference; return the failures."""
    refs = workload.load_refs()
    failures = []
    for i, rec in enumerate(records):
        error = rec["error"]
        if error is None:
            out_dir = work_dir / "ops" / str(i)
            try:
                output = workload.read_output((out_dir / "stdout.txt").read_text(), out_dir)
                error = workload.check(output, refs[str(rec["seed"])])
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        rec["ok"] = error is None
        if error is not None:
            failures.append({"op": i, "seed": rec["seed"], "error": error})
    return failures


def end_to_end(workload, records: list[dict], setups: list[float], rss_mib: float):
    timed = [r for r in records if not r["warmup"]]
    times = [r["ms"] for r in timed]
    tail_ms, tail_pct = tail(times)
    cells = workload.cells_per_op * sum(r["ok"] for r in timed)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cells_per_s": {"value": cells / (sum(times) / 1e3), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(times), "unit": "ms"},
        "op_ms_tail": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    samples = {"ops": len(times), "tail_percentile": tail_pct, "setup_launches": setups}
    return metrics, samples


def result_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its full result; a traced run's spans go beside it."""
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def run(args, work_dir: Path) -> dict:
    workload = WORKLOADS[args.workload]
    scenario = work_dir / f"{workload.name}.json"
    scenario.write_text(json.dumps(workload.scenario(), indent=2))
    OUT_DIR.mkdir(exist_ok=True)
    path = result_path(workload.name, args.seed, args.trace)

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, setup_s = launch(workload.name, scenario, work_dir)
        proc.communicate("exit\n", timeout=READY_TIMEOUT_S)
        setups.append(setup_s)
    proc, setup_s = launch(workload.name, scenario, work_dir)
    setups.append(setup_s)
    params = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "spans": str(path.with_suffix(".spans.jsonl"))}
    try:
        out, _ = proc.communicate(f"go {json.dumps(params)}\n",
                                  timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran its time budget")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    records = result["ops"]
    result["failures"] = check_ops(workload, records, work_dir)
    result["attempted"] = len(records)
    result["failed"] = len(result["failures"])
    if args.trace:
        result["samples"] = {"traced_ops": sum(r["traced"] for r in records),
                             "untraced_ops": sum(not r["traced"] for r in records) - 1}
    else:
        result["metrics"], result["samples"] = end_to_end(
            workload, records, setups, result.pop("peak_rss_mib"))
    result.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print(f"environment {json.dumps(result['environment'])}")
    samples = result["samples"]
    beside = {
        "op_ms_p50": f"  ({samples.get('ops')} ops)",
        "op_ms_tail": f"  (p{samples.get('tail_percentile', 0):.0f} of {samples.get('ops')} ops)",
        "setup_s": f"  (median of {len(samples.get('setup_launches', []))} launches)",
    }
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}{beside.get(name, '')}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"][:20]:
        print(f"FAILED op {failure['op']} seed {failure['seed']}: {failure['error']}")
    if result["trace"]:
        print(f"absent (no longer in ris_isac): {result['absent']}")
        print(f"no spans on this workload: {result['silent']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ris_isac" / "__init__.py").is_file():
        print(f"no ris_isac sources under {SRC}", file=sys.stderr)
        return 2

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        result = run(args, work_dir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
