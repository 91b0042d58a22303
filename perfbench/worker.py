"""Workload process: set up, then run ops in a closed loop with one caller.

Started by ``run.py`` with BLAS pinned to one thread through the environment.
It imports ``ris_isac``, loads and validates the workload's scenario, prints
``ready`` and waits for one line on stdin: ``exit``, or ``go`` followed by a
JSON object with ``seed``, ``seconds``, ``trace`` and ``spans`` (a path).  It
then runs the ops, leaves each op's output in ``<work dir>/ops/<i>/`` for
``run.py`` to check, and prints one JSON result line.

Usage: worker.py <workload> <scenario.json> <work dir> <expected src dir>
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import ris_isac
from ris_isac import cli
from ris_isac.config import ScenarioConfig

from tracer import Tracer
from workloads import BLAS_THREAD_VARS, WORKLOADS


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_op(workload, scenario_path: str, seed: int, out_dir: Path) -> tuple[float, str | None]:
    """One ``cli.main`` call; returns (wall ms, error or None).  Output stays in out_dir."""
    argv = workload.argv(scenario_path, seed, str(out_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        code, error = None, traceback.format_exc(limit=3)
    wall_ms = (perf_counter() - start) * 1e3
    if error is None and code != 0:
        error = f"exit code {code}: {stderr.getvalue().strip()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stdout.txt").write_text(stdout.getvalue())
    return wall_ms, error


def measure(workload, scenario_path, seeds, seconds, work_dir: Path, tracer):
    """Closed loop; with a tracer, ops alternate traced and untraced.

    The first op is a warm-up (lazy imports, BLAS start-up): checked, not timed.
    """
    min_ops = 3 if tracer else 2  # the warm-up, then at least one op of each kind
    records = []
    start = None
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        seed = seeds[i % len(seeds)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        try:
            wall_ms, error = run_op(workload, scenario_path, seed, work_dir / "ops" / str(i))
        finally:
            if traced:
                tracer.uninstall()
        records.append({"seed": seed, "ms": wall_ms, "error": error,
                        "warmup": i == 0, "traced": traced})
        if start is None:
            start = perf_counter()
        i += 1
    return records


def main() -> int:
    name, scenario_path, work_dir, src_dir = sys.argv[1:5]
    if Path(ris_isac.__file__).resolve().parent.parent != Path(src_dir).resolve():
        print(f"ris_isac imported from {ris_isac.__file__}, not {src_dir}", file=sys.stderr)
        return 2
    ScenarioConfig.from_file(scenario_path).validate()
    print("ready", flush=True)

    command = sys.stdin.readline().split(maxsplit=1)
    if not command or command[0] != "go":
        return 0
    params = json.loads(command[1])
    workload = WORKLOADS[name]
    tracer = None
    if params["trace"]:
        from ris_isac import experiments  # noqa: F401  (`solve` never loads it; wrap it too)

        tracer = Tracer()
    records = measure(workload, scenario_path, workload.op_seeds(params["seed"]),
                      params["seconds"], Path(work_dir), tracer)
    result = {
        "environment": environment(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
    }
    if tracer is not None:
        traced = [r["ms"] for r in records if r["traced"]]
        untraced = [r["ms"] for r in records if not (r["traced"] or r["warmup"])]
        overhead = statistics.median(traced) - statistics.median(untraced)
        result["metrics"], result["silent"] = tracer.layer_metrics(
            workload.cells_per_op, overhead
        )
        result["absent"] = tracer.absent
        tracer.write(params["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
