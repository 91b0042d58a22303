"""Span tracer that wraps public functions of ``ris_isac`` from outside.

The wrapper replaces a function object wherever a ``ris_isac`` module binds
it, so a call is recorded whichever name it is reached through.  A traced
name that no longer exists is reported as absent, so the benchmark keeps
measuring across refactors that move or delete functions.  Spans are kept in
memory as ``(name, start, end, parent, op)`` and written out at the end.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

EXPERIMENT_ENTRY_POINTS = (
    "run_heatmap", "sweep_alpha", "sweep_weight_ratio", "beampattern_vs_aoa",
    "run_complexity_probe",
)

# (span name, module under ris_isac, attribute path in that module)
TRACED = (
    ("config.from_file", "config", "ScenarioConfig.from_file"),
    ("channel.build_channels", "channel", "build_channels"),
    ("channel.ris_steering_rx", "channel", "ris_steering_rx"),
    ("beamforming.metrics_for", "beamforming", "metrics_for"),
    ("perturb.build_system", "perturb", "build_system"),
    ("perturb.solve_perturbation", "perturb", "solve_perturbation"),
    ("pipeline.solve_scenario", "pipeline", "solve_scenario"),
    ("sdr.solve_sdp", "sdr", "solve_sdp"),
    ("sdr.psd_project", "sdr", "psd_project"),
    ("sdr.gaussian_randomization", "sdr", "gaussian_randomization"),
    ("experiments.write_csv", "experiments", "write_csv"),
    *((f"experiments.{n}", "experiments", n) for n in EXPERIMENT_ENTRY_POINTS),
    ("cli.main", "cli", "main"),
)

# per-layer metric -> (unit, spans it is derived from)
LAYER_METRICS = {
    "perturb.build_system_ms": ("ms", ["perturb.build_system"]),
    "perturb.factor_mib": ("MiB", ["perturb.build_system"]),
    "perturb.build_system_calls": ("count", ["perturb.build_system"]),
    "perturb.cells_per_factorization": ("ratio", ["perturb.build_system"]),
    "perturb.solve_perturbation_ms": ("ms", ["perturb.solve_perturbation"]),
    "perturb.solve_perturbation_calls": ("count", ["perturb.solve_perturbation"]),
    "channel.build_channels_ms": ("ms", ["channel.build_channels"]),
    "channel.build_channels_calls": ("count", ["channel.build_channels"]),
    "channel.ris_steering_rx_calls": ("count", ["channel.ris_steering_rx"]),
    "beamforming.metrics_for_ms": ("ms", ["beamforming.metrics_for"]),
    "beamforming.metrics_for_calls": ("count", ["beamforming.metrics_for"]),
    "pipeline.solve_scenario_ms": ("ms", ["pipeline.solve_scenario"]),
    "pipeline.self_ms": ("ms", ["pipeline.solve_scenario"]),
    "sdr.solve_sdp_ms": ("ms", ["sdr.solve_sdp"]),
    "sdr.iterations": ("count", ["sdr.solve_sdp"]),
    "sdr.ms_per_iteration": ("ms", ["sdr.solve_sdp"]),
    "sdr.psd_project_calls": ("count", ["sdr.psd_project"]),
    "sdr.psd_project_ms": ("ms", ["sdr.psd_project"]),
    "sdr.self_ms": ("ms", ["sdr.solve_sdp"]),
    "sdr.gaussian_randomization_ms": ("ms", ["sdr.gaussian_randomization"]),
    "sdr.extraction_feasible_ratio": ("ratio", ["sdr.gaussian_randomization"]),
    "experiments.self_ms": ("ms", [f"experiments.{n}" for n in EXPERIMENT_ENTRY_POINTS]),
    "experiments.write_csv_ms": ("ms", ["experiments.write_csv"]),
    "cli.self_ms": ("ms", ["cli.main"]),
    "config.from_file_ms": ("ms", ["config.from_file"]),
    "trace.overhead_ms": ("ms", []),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "perturb.build_system_calls", "perturb.factor_mib", "sdr.iterations",
    "sdr.psd_project_calls", "channel.ris_steering_rx_calls",
)


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's fields."""
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, tuple):
        values = list(obj)
    else:
        values = list(getattr(obj, "__dict__", {}).values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _extraction_feasible(fn, args, kwargs, result) -> bool | None:
    """Whether the extracted phase meets every gain floor within the slack."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        floors = np.asarray(bound.arguments["problem"].desired_gains, dtype=float)
        slack = float(bound.arguments["slack"])
        gains = np.array([g for g, _ in result[1].gains], dtype=float)
    except (KeyError, TypeError, AttributeError, IndexError, ValueError):
        return None
    return bool(np.all(gains >= (1.0 - slack) * floors))


# span name -> probe(fn, args, kwargs, result) whose value is kept with the span
PROBES = {
    "perturb.build_system": lambda fn, a, k, r: _array_bytes(r),
    "sdr.solve_sdp": lambda fn, a, k, r: getattr(r, "iterations", None),
    "sdr.gaussian_randomization": _extraction_feasible,
}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.extra: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "ris_isac" or name.startswith("ris_isac.")
        }
        for span, module, path in TRACED:
            self._plan(span, modules, module, path)

    def _plan(self, span, modules, module, path):
        owner = modules.get(f"ris_isac.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if isinstance(raw, classmethod):
            self._patches.append(
                (owner, attr, raw, classmethod(self._wrap(span, raw.__func__)))
            )
        elif inspect.isfunction(raw):
            wrapped = self._wrap(span, raw)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patches.append((mod, name, raw, wrapped))
        else:
            self.absent.append(span)

    def _wrap(self, span, fn):
        probe = PROBES.get(span)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self.op)
            if probe is not None:
                self.extra[idx] = probe(fn, args, kwargs, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if idx in self.extra:
                    rec["value"] = self.extra[idx]
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, cells_per_op: int, overhead_ms: float) -> tuple[dict, list]:
        """Per-layer metrics plus the names of those with no recorded span.

        Times are medians per call over every traced op.  Counts, and the
        values derived from them, come from the first traced op, whose
        inputs depend only on the seed, so they repeat exactly.
        """
        dur = [(end - start) * 1e3 for _, start, end, _, _ in self.spans]
        child_ms = [0.0] * len(self.spans)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ms[parent] += dur[idx]
        by_name: dict[str, list[int]] = {}
        for idx, (name, *_rest) in enumerate(self.spans):
            by_name.setdefault(name, []).append(idx)
        first_op = min((s[4] for s in self.spans), default=-1)

        def idx_of(*names, first=False):
            return [i for n in names for i in by_name.get(n, [])
                    if not first or self.spans[i][4] == first_op]

        def median_ms(*names):
            vals = [dur[i] for i in idx_of(*names)]
            return statistics.median(vals) if vals else 0.0

        def median_self_ms(*names):
            vals = [dur[i] - child_ms[i] for i in idx_of(*names)]
            return statistics.median(vals) if vals else 0.0

        def calls(name):
            return len(idx_of(name, first=True))

        def extras(name, first=False):
            return [self.extra[i] for i in idx_of(name, first=first)
                    if self.extra.get(i) is not None]

        iters_first = extras("sdr.solve_sdp", first=True)
        sdp_idx = [i for i in idx_of("sdr.solve_sdp") if self.extra.get(i) is not None]
        sdp_iters = sum(self.extra[i] for i in sdp_idx)
        feasible = extras("sdr.gaussian_randomization")
        factorizations = calls("perturb.build_system")
        entry_points = [f"experiments.{n}" for n in EXPERIMENT_ENTRY_POINTS]

        values = {
            "perturb.build_system_ms": median_ms("perturb.build_system"),
            "perturb.factor_mib": max(extras("perturb.build_system", first=True), default=0)
            / 2**20,
            "perturb.build_system_calls": factorizations,
            "perturb.cells_per_factorization": cells_per_op / factorizations
            if factorizations else 0.0,
            "perturb.solve_perturbation_ms": median_ms("perturb.solve_perturbation"),
            "perturb.solve_perturbation_calls": calls("perturb.solve_perturbation"),
            "channel.build_channels_ms": median_ms("channel.build_channels"),
            "channel.build_channels_calls": calls("channel.build_channels"),
            "channel.ris_steering_rx_calls": calls("channel.ris_steering_rx"),
            "beamforming.metrics_for_ms": median_ms("beamforming.metrics_for"),
            "beamforming.metrics_for_calls": calls("beamforming.metrics_for"),
            "pipeline.solve_scenario_ms": median_ms("pipeline.solve_scenario"),
            "pipeline.self_ms": median_self_ms("pipeline.solve_scenario"),
            "sdr.solve_sdp_ms": median_ms("sdr.solve_sdp"),
            "sdr.iterations": sum(iters_first),
            "sdr.ms_per_iteration": sum(dur[i] for i in sdp_idx) / sdp_iters
            if sdp_iters else 0.0,
            "sdr.psd_project_calls": calls("sdr.psd_project"),
            "sdr.psd_project_ms": median_ms("sdr.psd_project"),
            "sdr.self_ms": median_self_ms("sdr.solve_sdp"),
            "sdr.gaussian_randomization_ms": median_ms("sdr.gaussian_randomization"),
            "sdr.extraction_feasible_ratio": sum(feasible) / len(feasible)
            if feasible else 0.0,
            "experiments.self_ms": median_self_ms(*entry_points),
            "experiments.write_csv_ms": median_ms("experiments.write_csv"),
            "cli.self_ms": median_self_ms("cli.main"),
            "config.from_file_ms": median_ms("config.from_file"),
            "trace.overhead_ms": overhead_ms,
        }
        recorded = set(by_name)
        silent = [m for m, (_, spans) in LAYER_METRICS.items()
                  if spans and not recorded.intersection(spans)]
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, (unit, _) in LAYER_METRICS.items()}
        return metrics, silent
