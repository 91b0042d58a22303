"""The names and signatures the benchmark tracer (perfbench/tracer.py) reads.

A traced function that is renamed or moved is reported as absent, and a
randomization whose arguments no longer bind leaves the feasibility ratio
empty; both happen silently in the benchmark, so they are checked here.
"""

import types
from pathlib import Path

import pytest

# the tracer looks only in loaded ris_isac modules, so load them all
import ris_isac.cli
import ris_isac.experiments
from ris_isac import SdpProblem, child_rng, gaussian_randomization, realize, solve_sdp

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


def test_randomization_binds_problem_and_slack(tracer, small_scenario):
    """The feasibility probe binds `problem` and `slack` by name and reads the gains."""
    real = realize(small_scenario)
    problem = SdpProblem.from_channels(real.channels, small_scenario.alpha, small_scenario.weights)
    args = (solve_sdp(problem).v_matrix, problem, child_rng(small_scenario.seed, 1))
    result = gaussian_randomization(*args)
    assert tracer._extraction_feasible(gaussian_randomization, args, {}, result) is True
