"""The names and signatures the benchmark tracer (perfbench/tracer.py) reads.

A traced function that is renamed or moved is reported as absent, and a
probe whose field or argument no longer resolves reads None, leaving its
layer metric empty; both happen silently in the benchmark, so they are
checked here.
"""

import types
from pathlib import Path

import pytest

# the tracer looks only in loaded ris_isac modules, so load them all
import ris_isac.cli
import ris_isac.experiments
from ris_isac import (
    SdpProblem,
    build_system,
    child_rng,
    gaussian_randomization,
    realize,
    solve_sdp,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, run from its source so no bytecode is cached beside it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(tracer):
    """The tracer finds each (module, attribute path) of TRACED in ris_isac."""
    assert tracer.Tracer().absent == []


def probe_value(tracer, span, fn, *args):
    """What the tracer keeps with the span of one real call fn(*args)."""
    return tracer.PROBES[span](fn, args, {}, fn(*args))


@pytest.fixture(scope="module")
def problem(small_scenario):
    real = realize(small_scenario)
    return SdpProblem.from_channels(real.channels, small_scenario.alpha, small_scenario.weights)


def test_size_and_iteration_probes_read_a_value(tracer, small_scenario, problem):
    """The factorization's bytes and the SDP's iteration count are read off
    real calls; a renamed field would leave them None, and their layer
    metrics empty, without an error."""
    ch = realize(small_scenario).channels
    system_args = (ch.h_ue, ch.a_targets, ch.gain_prefactor)
    assert probe_value(tracer, "perturb.build_system", build_system, *system_args) > 0
    assert probe_value(tracer, "sdr.solve_sdp", solve_sdp, problem) >= 1


def test_randomization_binds_problem_and_slack(tracer, small_scenario, problem):
    """The feasibility probe binds `problem` and `slack` by name and reads the gains."""
    args = (solve_sdp(problem).factor, problem, child_rng(small_scenario.seed, 1))
    assert probe_value(tracer, "sdr.gaussian_randomization", gaussian_randomization, *args) is True
