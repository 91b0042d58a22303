"""Run every workload once untraced and twice traced; record the baseline.

Run from the root of a checkout:

    python3 perfbench/record_baseline.py [--seed 1] [--seconds 30]

Prints each run's report and writes ``perfbench/baseline/<workload>.json``
with the untraced result, both traced results and the exact-count check: the
counts in ``tracer.EXACT_COUNTS`` must be identical in the two traced runs.
Exits nonzero if a run fails, an op fails its output check or a count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import result_path
from tracer import EXACT_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(result_path(workload, seed, trace).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    (HERE / "baseline").mkdir(exist_ok=True)
    ok = True
    for name in WORKLOADS:
        untraced = bench(name, args.seed, args.seconds, 0)
        traced = [bench(name, args.seed, args.seconds, 1) for _ in range(2)]
        counts = {c: [t["metrics"][c]["value"] for t in traced] for c in EXACT_COUNTS}
        repeat = all(a == b for a, b in counts.values())
        print(f"{name}: exact counts {'repeat' if repeat else 'DIFFER'}: {counts}")
        ok &= repeat and all(r["failed"] == 0 for r in (untraced, *traced))
        doc = {
            "commit": commit or "unknown",
            "end_to_end": untraced,
            "traced": traced,
            "exact_counts": counts,
            "exact_counts_repeat": repeat,
        }
        (HERE / "baseline" / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
