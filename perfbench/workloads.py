"""Workload definitions: scenario copies, op inputs, output parsing and checks.

One op is one call of ``ris_isac.cli.main(argv)``.  The op inputs of a run are
a seeded permutation of a fixed pool of seeds, so the same ``--seed`` gives the
same inputs, no realization repeats until the pool is used up, and every op
has a reference output recorded in ``refs/`` by ``record_refs.py``.
"""

from __future__ import annotations

import csv
import json
import lzma
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_DIR = HERE / "refs"

# Pinned to 1 in every process that runs ops; set before numpy is imported,
# since the BLAS thread count cannot change afterwards.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Frozen copy of the shipped scenario (src/ris_isac/scenarios/default.json) at
# the commit that recorded the references; the workloads resize the surface only.
BASE_SCENARIO = {
    "transmit_power_dbm": 30.0,
    "noise_power_dbm": -80.0,
    "carrier_hz": 10000000000.0,
    "bs_antennas": 11,
    "ris_rows": 21,
    "ris_cols": 21,
    "rician_kappa": 1.0,
    "reference_loss_db": 30.0,
    "bs_ris_exponent": 22.0,
    "ris_ue_exponent": 25.0,
    "bs_pos": [0.0, 0.0],
    "ris_pos": [30.0, 30.0],
    "ue_pos": [100.0, -20.0],
    "targets": [
        {"weight": 0.5, "angle_deg": 65.0},
        {"weight": 0.5, "angle_deg": 90.0},
    ],
    "alpha": 1.0,
    "lambda_policy": "adaptive",
    "seed": 1,
}

# Proposed-method outputs are closed-form and deterministic.  `solve` prints
# dB values with 6 decimals and the CSVs carry 9 significant digits, so 1e-5 dB
# (and 1e-6 relative for the other values of `solve`, printed with 9
# significant digits) admits last-digit rounding and little else.  SDR rows are
# looser because the splitting solver stops at a 1e-5 residual and the
# randomization picks one of 100 candidates.
PROPOSED_DB_TOL = 1e-5
PROPOSED_REL_TOL = 1e-6
SDR_DB_TOL = 0.1


class Workload:
    """One workload: its scenario, its pool of op seeds and its output check."""

    name: str
    ris_size: int
    seeds_per_op: int
    pool_size: int
    cells_per_op: int

    def pool(self) -> list[int]:
        """First seed of each op in the pool; blocks never overlap."""
        return [1 + i * self.seeds_per_op for i in range(self.pool_size)]

    def op_seeds(self, root_seed: int) -> list[int]:
        order = self.pool()
        random.Random(root_seed).shuffle(order)
        return order

    def scenario(self) -> dict:
        return dict(BASE_SCENARIO, ris_rows=self.ris_size, ris_cols=self.ris_size)

    def argv(self, scenario_path: str, seed: int, out_dir: str) -> list[str]:
        raise NotImplementedError

    def read_output(self, stdout: str, out_dir: Path) -> dict:
        """Parse an op's output into ``{"labels": [...], "values": {col: [...]}}``."""
        raise NotImplementedError

    def tolerance(self, column: str, label: str) -> tuple[str, float]:
        return ("abs", PROPOSED_DB_TOL)

    def load_refs(self) -> dict:
        with lzma.open(REFS_DIR / f"{self.name}.json.xz", "rt") as fh:
            return json.load(fh)["outputs"]

    def check(self, output: dict, ref: dict) -> str | None:
        """Describe the first mismatch against the reference, or return None."""
        if output["labels"] != ref["labels"]:
            return "row labels differ from the reference"
        if sorted(output["values"]) != sorted(ref["values"]):
            return "value columns differ from the reference"
        for col, got in output["values"].items():
            want = ref["values"][col]
            if len(got) != len(want):
                return f"{col}: {len(got)} values, reference has {len(want)}"
            for i, (x, r) in enumerate(zip(got, want)):
                kind, tol = self.tolerance(col, output["labels"][i])
                err = abs(x - r) if kind == "abs" else abs(x - r) / max(abs(r), 1e-300)
                if not err <= tol:  # also catches NaN
                    return f"{col}[{i}] ({output['labels'][i]}): {x!r} vs {r!r} ({kind} {tol})"
        return None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class AlphaSweep(Workload):
    name = "alpha-sweep"
    ris_size = 21
    seeds_per_op = 20
    pool_size = 16
    alphas = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"
    ridge_policies = 3  # the CLI's default grid: adaptive, fixed:0.1, fixed:0.5
    cells_per_op = len(alphas.split(",")) * ridge_policies * seeds_per_op

    def argv(self, scenario_path, seed, out_dir):
        return [
            "experiment", "alpha-sweep", "--scenario", scenario_path,
            "--seed", str(seed), "--seeds", str(self.seeds_per_op),
            "--alphas", self.alphas, "--out", out_dir,
        ]

    def read_output(self, stdout, out_dir):
        rows = _read_csv(out_dir / "alpha_sweep.csv")
        cols = ("gamma_db", "gain_t1_db", "gain_t2_db")
        return {
            "labels": [f"{r['alpha']},{r['lambda_policy']},{r['seed']}" for r in rows],
            "values": {c: [float(r[c]) for r in rows] for c in cols},
        }


class LargeSurface(Workload):
    name = "large-surface"
    ris_size = 64
    seeds_per_op = 1
    pool_size = 96
    cells_per_op = 1

    def argv(self, scenario_path, seed, out_dir):
        return ["solve", "--scenario", scenario_path, "--seed", str(seed)]

    def read_output(self, stdout, out_dir):
        fields = dict(tok.split("=", 1) for tok in stdout.split())
        keys = sorted(fields)
        return {"labels": keys, "values": {"value": [float(fields[k]) for k in keys]}}

    def tolerance(self, column, label):
        if label.endswith("_db"):
            return ("abs", PROPOSED_DB_TOL)
        return ("rel", PROPOSED_REL_TOL)


class SdrBand(Workload):
    name = "sdr-band"
    ris_size = 6
    seeds_per_op = 2
    pool_size = 32
    cells_per_op = seeds_per_op  # each seed gets a proposed and an SDR design

    def argv(self, scenario_path, seed, out_dir):
        return [
            "experiment", "aoa-scan", "--scenario", scenario_path, "--alpha", "0.5",
            "--seed", str(seed), "--seeds", str(self.seeds_per_op), "--out", out_dir,
        ]

    def read_output(self, stdout, out_dir):
        rows = _read_csv(out_dir / "aoa_scan.csv")
        return {
            "labels": [f"{r['method']},{r['angle_deg']}" for r in rows],
            "values": {"gain_db": [float(r["gain_db"]) for r in rows]},
        }

    def tolerance(self, column, label):
        return ("abs", SDR_DB_TOL if label.startswith("sdr,") else PROPOSED_DB_TOL)


WORKLOADS = {w.name: w for w in (AlphaSweep(), LargeSurface(), SdrBand())}
