"""Closed-form RIS phase design for joint sensing and communication.

A lightweight toolkit: communication-optimal RIS phases plus a regularized
least-squares perturbation that steers beampattern gain toward sensing
targets, benchmarked against a semidefinite-relaxation solver.
"""

__version__ = "0.1.0"

from .beamforming import Metrics
from .channel import ChannelSet, build_channels, child_rng
from .config import LambdaPolicy, ScenarioConfig, TargetSpec, load_default_scenario
from .errors import (
    CapExceeded,
    ConfigError,
    Infeasible,
    NonConvergence,
    NumericalError,
    RisIsacError,
    ShapeError,
)
from .perturb import (
    PerturbationSystem,
    SolveReport,
    build_system,
    comm_optimal_phase,
    gain_upper_bound,
    solve_perturbation,
)
from .pipeline import Realization, SolveOutcome, design, realize, solve_scenario
from .sdr import SdpProblem, SdrSolution, gaussian_randomization, solve_sdp

__all__ = [
    "__version__",
    "CapExceeded",
    "ChannelSet",
    "ConfigError",
    "Infeasible",
    "LambdaPolicy",
    "Metrics",
    "NonConvergence",
    "NumericalError",
    "PerturbationSystem",
    "Realization",
    "RisIsacError",
    "ScenarioConfig",
    "SdpProblem",
    "SdrSolution",
    "ShapeError",
    "SolveOutcome",
    "SolveReport",
    "TargetSpec",
    "build_channels",
    "build_system",
    "child_rng",
    "comm_optimal_phase",
    "design",
    "gain_upper_bound",
    "gaussian_randomization",
    "load_default_scenario",
    "realize",
    "solve_perturbation",
    "solve_scenario",
    "solve_sdp",
]
