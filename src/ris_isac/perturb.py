"""Closed-form RIS phase design.

A RIS configuration is its unit-modulus vector v: (N,) for one design,
(C, N) for a batch.  The design v = v_comm * exp(j*delta_phi) is the
communication-optimal v_comm times a small perturbation that shapes beams
toward the sensing targets.  The target beam sums are linearized in the
perturbation, stacked into a real least-squares system, and solved through
an SVD-filtered Tikhonov step, which forms rotation = exp(j*delta_phi) once.

Sign convention: with that v, the beam sum toward target k is exactly

    eta_k = sum_n (h_n / |h_n|) * conj(a_k_n) * conj(rotation_n),

so the physical beampattern gain is exactly P*M*beta_g*|eta_k|^2.  The solver's
objective and Taylor-bound check use this exact form, the metrics use
beamforming.beam_gains, and the linearization exists only inside the solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .beamforming import row_products, to_db
from .config import check_weight_sum
from .errors import ConfigError, IllPosedWarning, NumericalError, ShapeError

PINV_RCOND = 1e-12  # relative cutoff for the lambda=0 pseudo-inverse
_BUILD_CHECK_TOL = 1e-8
_BUILD_CHECK_DRAWS = 10


def comm_optimal_phase(h_ue: np.ndarray, g_ris: np.ndarray) -> np.ndarray:
    """The configuration v_comm (N,) that aligns every summand of the user SNR.

    Exact-zero channel entries get phase 0 (np.angle convention); they are
    a probability-zero event under any continuous fading model.
    """
    if len(h_ue) != len(g_ris):
        raise ShapeError("comm_optimal_phase: length mismatch")
    return np.exp(1j * np.angle(np.conj(h_ue) * g_ris))


def eta_targets(alpha, weights, n_elements: int) -> np.ndarray:
    """Designed beam-sum magnitudes alpha * weight_k * N: (K,) for one design,
    or (C, K) for alphas (C, 1) and weights (C, K)."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ConfigError("targets: weights must be nonnegative")
    for row in dict.fromkeys(map(tuple, w.reshape(-1, w.shape[-1]).tolist())):  # distinct rows
        check_weight_sum(row)
    return alpha * w * n_elements


def _stack(alignment: np.ndarray) -> np.ndarray:
    """[-Im(alignment); Re(alignment)]: the real stacking of j * alignment."""
    return np.vstack([-alignment.imag, alignment.real])


@dataclass(frozen=True)
class PerturbationSystem:
    """Linearized target system of one fading realization and its unit-free SVD.

    Nothing here depends on the beam-sum targets eta_bar, so one
    factorization serves any number of designs; the methods that need
    targets take them, one row (K,) per design, as a (C, K) batch.
    """

    alignment: np.ndarray  # K x N unit phasors (h/|h|) * conj(a_k); phase 0 where h is 0
    scale: float  # sqrt(P*M*beta_g), only for a_stacked, b_stacked and the objective
    svd_u: np.ndarray  # 2K x min(2K, N)
    svd_s: np.ndarray  # min(2K, N) singular values, descending
    svd_vt: np.ndarray  # min(2K, N) x N

    @property
    def n_targets(self) -> int:
        return self.alignment.shape[0]

    @property
    def n_elements(self) -> int:
        return self.alignment.shape[1]

    @property
    def a_stacked(self) -> np.ndarray:
        """2K x N real stack, the scaled Jacobian of the miss (recomputed on each access)."""
        return self.scale * _stack(self.alignment)

    def _miss(self, eta_bar) -> np.ndarray:
        """Real miss (..., 2K) of the unperturbed beam sums, in beam-sum units."""
        if np.shape(eta_bar)[-1:] != (self.n_targets,):
            raise ShapeError("b_stacked: eta_bar length mismatch")
        b = self.alignment.sum(axis=1) - eta_bar
        return np.concatenate([b.real, b.imag], axis=-1)

    def b_stacked(self, eta_bar) -> np.ndarray:
        """Real right-hand sides (..., 2K): the miss scaled by sqrt(P*M*beta_g)."""
        return self.scale * self._miss(eta_bar)

    def check_stacking(self, eta_bar) -> None:
        """Verify on random perturbations that the stacked real objective
        reproduces the weighted complex objective, for every row of eta_bar (C, K).
        It covers the solver's unscaled stack and miss: both come from _stack and _miss."""
        eta_bar = np.asarray(eta_bar, dtype=float)
        # the identity is algebraic, so any fixed non-degenerate perturbations
        # check it; uniform ones on [-2, 2) spread like unit normals and cost a
        # fifth as much to draw at large N
        draws = np.random.default_rng(0).uniform(-2.0, 2.0, (_BUILD_CHECK_DRAWS, self.n_elements))
        b = self.b_stacked(eta_bar)[..., None, :]
        lhs = np.sum((draws @ self.a_stacked.T - b) ** 2, axis=-1)
        diff = self.eta_linearized_all(draws) - eta_bar[..., None, :]
        rhs = self.scale**2 * np.sum(np.abs(diff) ** 2, axis=-1)
        if np.any(np.abs(lhs - rhs) > _BUILD_CHECK_TOL * np.maximum(np.abs(rhs), 1e-30)):
            raise NumericalError("stacked objective does not match the complex objective")

    @property
    def sigma_max_normalized(self) -> float:
        """Largest singular value of the factorized stack, which carries no power scale."""
        return float(self.svd_s[0])

    def eta_exact_all(self, rotation: np.ndarray) -> np.ndarray:
        """Exact beam sums (..., K) of rotations exp(j*delta_phi) (..., N)."""
        # conjugates the (K, N) alignment and the sums, never a copy of the batch
        return np.conj(row_products(rotation, np.conj(self.alignment).T))

    def eta_linearized_all(self, delta_phi: np.ndarray) -> np.ndarray:
        """First-order beam sums (..., K) of perturbations (..., N)."""
        # two real products: a complex one would cast the batch to a complex copy;
        # contiguous (K, N) parts, as strided views send matmul past BLAS
        dphi = np.asarray(delta_phi, dtype=float)
        real, imag = (np.ascontiguousarray(p) for p in (self.alignment.real, self.alignment.imag))
        linear_part = row_products(dphi, real.T) + 1j * row_products(dphi, imag.T)
        return self.alignment.sum(axis=1) - 1j * linear_part


@dataclass(frozen=True)
class SolveReport:
    """Output of the Tikhonov solves of C designs; every field has a leading cell axis."""

    delta_phi: np.ndarray
    rotation: np.ndarray  # exp(j*delta_phi), the factor v_comm is multiplied by
    objective_value: np.ndarray  # exact-beam-sum objective at the solution
    lambda_used: np.ndarray  # the one ridge, as LambdaPolicy.normalized returns it
    max_abs_perturbation: np.ndarray
    linearization_error_bound: np.ndarray  # ||delta_phi||^2 / 2, in beam-sum units


def build_system(
    h_ue: np.ndarray, a_targets: np.ndarray, gain_prefactor: float
) -> PerturbationSystem:
    """Assemble the linearized system of one realization, with target steering
    a_targets (K, N), and the thin SVD of its unit-free stack (no factor above
    2K*N entries, O(K^2*N) work); the link gain P*beta_g*M only scales its views.

    The stacked real objective ||A~ dphi - b~||^2 must reproduce the
    weighted complex objective; check_stacking() verifies this for the
    targets a design actually solves for.
    """
    if np.ndim(a_targets) != 2 or len(a_targets) < 1:
        raise ShapeError("build_system: need at least one target, as rows of a (K, N) array")
    k, n = np.shape(a_targets)
    if n != len(h_ue):
        raise ShapeError("build_system: target steering length mismatch")
    if 2 * k > n:
        warnings.warn(
            f"{k} targets give {2 * k} real equations for {n} RIS elements;"
            " system is overdetermined",
            IllPosedWarning,
        )

    align = np.divide(h_ue, abs(h_ue), out=np.ones_like(h_ue), where=h_ue != 0) * np.conj(a_targets)
    try:
        u, s, vt = np.linalg.svd(_stack(align), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    scale = float(np.sqrt(gain_prefactor))
    return PerturbationSystem(alignment=align, scale=scale, svd_u=u, svd_s=s, svd_vt=vt)


def solve_perturbation(system: PerturbationSystem, eta_bar, lam) -> SolveReport:
    """Tikhonov solves through the stored SVD, one per row of eta_bar (C, K),
    each with its own ridge lam (C,).

    lam is the one ridge, as LambdaPolicy.normalized returns it: the factorized
    stack and its miss are both in beam-sum units.  For a zero ridge, singular
    values below PINV_RCOND * sigma_max are truncated (pseudo-inverse).  The
    objective is P*M*beta_g times the exact, not linearized, squared miss.
    """
    eta_bar, lam = np.asarray(eta_bar, dtype=float), np.asarray(lam, dtype=float)
    b = system._miss(eta_bar)
    if b.ndim != 2 or lam.shape != b.shape[:1]:
        raise ShapeError("solve_perturbation: need eta_bar (C, K) and lam (C,)")
    if (lam < 0).any():
        raise ValueError("lambda must be nonnegative")
    s = system.svd_s
    with np.errstate(divide="ignore", invalid="ignore"):
        filt = s / (s**2 + lam[:, None])
        cutoff = PINV_RCOND * (s[0] if len(s) else 0.0)
        filt[lam == 0.0] = np.where(s > cutoff, 1.0 / s, 0.0)

    delta_phi = row_products(filt * row_products(b, system.svd_u), system.svd_vt)

    rotation = 1j * delta_phi
    np.exp(rotation, out=rotation)
    eta = system.eta_exact_all(rotation)
    objective = system.scale**2 * (np.abs(eta - eta_bar) ** 2).sum(axis=-1)
    bound = (delta_phi**2).sum(axis=-1) / 2.0
    gap = np.abs(eta - system.eta_linearized_all(delta_phi))
    if (gap > bound[:, None] + 1e-9).any():
        raise NumericalError("linearization error exceeded its analytic bound")

    return SolveReport(
        delta_phi=delta_phi,
        rotation=rotation,
        objective_value=objective,
        lambda_used=lam,
        max_abs_perturbation=np.abs(delta_phi).max(axis=-1, initial=0.0),
        linearization_error_bound=bound,
    )


def gain_upper_bound(alpha, weights, gain_prefactor: float, n_elements: int, db=False):
    """Per-target ceiling P*beta_g*M*(alpha*w_k*N)^2 on the beampattern gain; batches as
    eta_targets.  With db=True it is a sum of logs in dB, which no underflow of the
    product reaches: it is -inf only where alpha or w_k is 0."""
    weights = np.atleast_1d(weights)
    eta = eta_targets(alpha, weights, n_elements)  # also checks the weights
    if db:
        return to_db(gain_prefactor) + 2.0 * (to_db(alpha) + to_db(weights) + to_db(n_elements))
    return gain_prefactor * np.abs(eta) ** 2
