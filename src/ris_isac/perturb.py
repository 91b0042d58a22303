"""Closed-form RIS phase design.

The phase vector is split into a communication-optimal part and a small
perturbation that shapes beams toward the sensing targets.  The target
beam sums are linearized in the perturbation, stacked into a real
least-squares system, and solved through an SVD-filtered Tikhonov step.

Sign convention: with v = v_comm * exp(j*delta_phi), the beam sum toward
target k is exactly

    eta_k(delta_phi) = sum_n exp(j*(ang(h_n) - ang(a_k_n))) * exp(-j*delta_phi_n),

so the physical beampattern gain equals P*M*beta_g*|eta_k|^2 with no
approximation.  All reported metrics use this exact form; the linearization
exists only inside the solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import SystemConstants
from .errors import ConfigError, IllPosedWarning, NumericalError, ShapeError

PINV_RCOND = 1e-12  # relative cutoff for the lambda=0 pseudo-inverse
_BUILD_CHECK_TOL = 1e-8
_BUILD_CHECK_DRAWS = 10


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    wrapped = np.mod(-phi + np.pi, 2.0 * np.pi)
    return np.pi - wrapped


@dataclass(frozen=True)
class RisPhase:
    """Unit-modulus RIS configuration, stored as wrapped phases."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    @property
    def v(self) -> np.ndarray:
        return np.exp(1j * self.phi)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "RisPhase":
        return cls(np.angle(np.asarray(v, dtype=complex)))

    def __len__(self) -> int:
        return len(self.phi)


def comm_optimal_phase(h_ue: np.ndarray, g_ris: np.ndarray) -> RisPhase:
    """Per-element phase that aligns every summand of the user SNR.

    Exact-zero channel entries get phase 0 (np.angle convention); they are
    a probability-zero event under any continuous fading model.
    """
    if len(h_ue) != len(g_ris):
        raise ShapeError("comm_optimal_phase: length mismatch")
    return RisPhase(np.angle(np.conj(h_ue) * g_ris))


def eta_targets(alpha: float, weights, n_elements: int) -> np.ndarray:
    """Designed beam-sum magnitudes: alpha * weight_k * N."""
    w = np.asarray(weights, dtype=float)
    if abs(float(np.sum(w)) - 1.0) > 1e-12 or np.any(w < 0):
        raise ConfigError("eta_targets: weights must be nonnegative and sum to 1")
    return alpha * w * n_elements


@dataclass(frozen=True)
class PerturbationSystem:
    """Linearized target system, its real stacking, and the SVD.

    Only b_stacked depends on eta_bar, so one factorization serves any targets.
    """

    alignment: np.ndarray  # K x N unit-modulus exp(j*(ang(h)-ang(a_k)))
    a_stacked: np.ndarray  # 2K x N real, includes the sqrt(P*M*beta_g) scale
    scale: float  # sqrt(P*M*beta_g)
    svd_u: np.ndarray  # 2K x 2K
    svd_s: np.ndarray  # min(2K, N) singular values, descending
    svd_vt: np.ndarray  # N x N
    eta_bar: np.ndarray  # K

    @property
    def n_targets(self) -> int:
        return self.alignment.shape[0]

    @property
    def n_elements(self) -> int:
        return self.alignment.shape[1]

    @property
    def b_stacked(self) -> np.ndarray:
        """2K real right-hand side: the scaled miss of the unperturbed beam sums."""
        b = self.alignment.sum(axis=1) - self.eta_bar
        return self.scale * np.concatenate([b.real, b.imag])

    def with_eta_bar(self, eta_bar) -> "PerturbationSystem":
        """The same factorization aimed at other beam-sum targets, with the
        stacking self-check run for them."""
        eta_bar = np.asarray(eta_bar, dtype=float)
        if len(eta_bar) != self.n_targets:
            raise ShapeError("with_eta_bar: eta_bar length mismatch")
        system = replace(self, eta_bar=eta_bar)
        system._check_stacking()
        return system

    def _check_stacking(self) -> None:
        """Verify on random perturbations that the stacked real objective
        reproduces the weighted complex objective."""
        draws = np.random.default_rng(0).standard_normal((_BUILD_CHECK_DRAWS, self.n_elements))
        lhs = np.sum((draws @ self.a_stacked.T - self.b_stacked) ** 2, axis=1)
        eta_lin = self.alignment.sum(axis=1) - 1j * (draws @ self.alignment.T)
        rhs = self.scale**2 * np.sum(np.abs(eta_lin - self.eta_bar) ** 2, axis=1)
        denom = np.maximum(np.abs(rhs), 1e-30)
        if np.any(np.abs(lhs - rhs) / denom > _BUILD_CHECK_TOL):
            raise NumericalError("stacked objective does not match the complex objective")

    @property
    def sigma_max(self) -> float:
        return float(self.svd_s[0])

    @property
    def sigma_max_normalized(self) -> float:
        """Largest singular value of the stack with the power scale removed."""
        return float(self.svd_s[0] / self.scale)

    def eta_exact_all(self, delta_phi: np.ndarray) -> np.ndarray:
        """Exact beam sums for all targets at once."""
        return (self.alignment * np.exp(-1j * np.asarray(delta_phi, dtype=float))).sum(axis=1)

    def eta_linearized_all(self, delta_phi: np.ndarray) -> np.ndarray:
        c = self.alignment.sum(axis=1)
        return c - 1j * (self.alignment @ np.asarray(delta_phi, dtype=float))

    def objective_exact(self, delta_phi: np.ndarray) -> float:
        """Weighted squared miss of the exact beam sums from their targets."""
        diff = self.eta_exact_all(delta_phi) - self.eta_bar
        return float(self.scale**2 * np.sum(np.abs(diff) ** 2))


@dataclass(frozen=True)
class SolveReport:
    """Output of one Tikhonov solve."""

    delta_phi: np.ndarray
    objective_value: float  # exact-beam-sum objective at the solution
    residual_norm: float  # linearized stacked residual
    lambda_used: float  # ridge applied to the scaled stacked system
    max_abs_perturbation: float
    linearization_error_bound: float  # ||delta_phi||^2 / 2, in beam-sum units


def build_system(
    h_ue: np.ndarray,
    a_targets,
    eta_bar: np.ndarray,
    consts: SystemConstants,
) -> PerturbationSystem:
    """Assemble the linearized system and its SVD.

    The stacked real objective ||A~ dphi - b~||^2 must reproduce the
    weighted complex objective; with_eta_bar() verifies this for the
    targets a design actually solves for.
    """
    a_targets = list(a_targets)
    k = len(a_targets)
    if k < 1:
        raise ShapeError("build_system: need at least one target")
    n = len(h_ue)
    eta_bar = np.asarray(eta_bar, dtype=float)
    if len(eta_bar) != k:
        raise ShapeError("build_system: eta_bar length mismatch")
    if any(len(a) != n for a in a_targets):
        raise ShapeError("build_system: target steering length mismatch")
    if k > n:
        warnings.warn(
            f"{k} targets exceed {n} RIS elements; system is overdetermined",
            IllPosedWarning,
        )

    align = np.exp(1j * (np.angle(h_ue) - np.angle(np.stack(a_targets))))
    jacobian = 1j * align  # d/d(delta_phi) of -(eta - eta_bar)
    scale = float(np.sqrt(consts.gain_prefactor))
    a_stacked = scale * np.vstack([jacobian.real, jacobian.imag])

    try:
        u, s, vt = np.linalg.svd(a_stacked, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc

    return PerturbationSystem(
        alignment=align,
        a_stacked=a_stacked,
        scale=scale,
        svd_u=u,
        svd_s=s,
        svd_vt=vt,
        eta_bar=eta_bar,
    )


def solve_perturbation(system: PerturbationSystem, lam: float) -> SolveReport:
    """Tikhonov solve through the stored SVD.

    For lam=0 singular values below PINV_RCOND * sigma_max are truncated
    (pseudo-inverse).  The reported objective uses the exact beam sums, not
    the linearized surrogate.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    s = system.svd_s
    if lam == 0.0:
        cutoff = PINV_RCOND * (s[0] if len(s) else 0.0)
        with np.errstate(divide="ignore"):
            filt = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    else:
        filt = s / (s**2 + lam)

    b_stacked = system.b_stacked
    coeffs = filt * (system.svd_u.T @ b_stacked)[: len(s)]
    delta_phi = system.svd_vt[: len(s)].T @ coeffs

    residual = float(np.linalg.norm(system.a_stacked @ delta_phi - b_stacked))
    objective = system.objective_exact(delta_phi)

    bound = float(np.sum(delta_phi**2) / 2.0)
    gap = np.abs(system.eta_exact_all(delta_phi) - system.eta_linearized_all(delta_phi))
    if np.any(gap > bound + 1e-9):
        raise NumericalError("linearization error exceeded its analytic bound")

    return SolveReport(
        delta_phi=delta_phi,
        objective_value=objective,
        residual_norm=residual,
        lambda_used=float(lam),
        max_abs_perturbation=float(np.max(np.abs(delta_phi))) if len(delta_phi) else 0.0,
        linearization_error_bound=bound,
    )


def compose_phase(v_star: RisPhase, delta_phi: np.ndarray) -> RisPhase:
    """Apply a perturbation on top of the communication-optimal phases."""
    if len(v_star) != len(delta_phi):
        raise ShapeError("compose_phase: length mismatch")
    return RisPhase(v_star.phi + np.asarray(delta_phi, dtype=float))


def gain_upper_bound(alpha: float, weights, consts: SystemConstants, n_elements: int) -> np.ndarray:
    """Per-target ceiling on the beampattern gain, in linear units."""
    eta = eta_targets(alpha, np.atleast_1d(weights), n_elements)
    return consts.gain_prefactor * np.abs(eta) ** 2
