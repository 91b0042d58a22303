"""Semidefinite-relaxation benchmark.

The unit-modulus phase vector is lifted to V = v v^H and the rank-one
constraint dropped, giving a complex Hermitian SDP: maximize the user SNR
trace form subject to per-target beampattern-gain floors, a unit diagonal,
and positive semidefiniteness.  The SDP is solved by an alternating
splitting scheme (PSD-cone projection + affine projection + dual updates)
directly in complex arithmetic; a feasible phase vector is then extracted
by Gaussian randomization.

This solver is intended for desk-scale element counts (N up to a few
dozen); its per-iteration eigendecomposition makes large surfaces the
domain of the closed-form design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import Metrics, beam_gains, metric_factors
from .channel import ChannelSet, Rng
from .errors import Infeasible, NonConvergence, NumericalError
from .perturb import gain_upper_bound

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 5000
_BALANCE_EVERY = 50
_BALANCE_RATIO = 10.0
_STAGNATION_WINDOW = 500
_STAGNATION_RTOL = 1e-4
RANDOMIZATION_TRIALS = 100


@dataclass(frozen=True)
class SdpProblem:
    """Rank-one trace-form data: SNR = |q_ue^H v|^2, gain_k = |q_k^H v|^2, floors."""

    factors: np.ndarray  # (1 + K, N): metric_factors rows q_ue, then q_k
    desired_gains: np.ndarray

    @classmethod
    def from_channels(cls, channels: ChannelSet, alpha: float, weights) -> "SdpProblem":
        """The metric factors of one realization, with the gain ceilings as floors."""
        factors = metric_factors(channels)
        floors = gain_upper_bound(alpha, weights, channels.gain_prefactor, factors.shape[1])
        return cls(factors=factors, desired_gains=floors)

    @property
    def n_elements(self) -> int:
        return self.factors.shape[1]


@dataclass(frozen=True)
class SdrSolution:
    """Relaxed optimum of the SDP."""

    v_matrix: np.ndarray  # Hermitian PSD, unit diagonal
    relaxed_objective: float
    constraint_residuals: np.ndarray  # desired - achieved, per target (<=0 when met)
    diag_residual: float
    iterations: int


def _quad(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Re q^H M q, i.e. tr(M q q^H), for one vector q or each row of q."""
    return np.real(np.sum((np.conj(q) @ m) * q, axis=-1))


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian part of h; a failed
    decomposition (for one, of a non-finite h) raises NumericalError."""
    try:
        return np.linalg.eigh(0.5 * (h + h.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize, clamp eigenvalues at zero."""
    w, q = _hermitian_eigh(h)
    return (q * np.maximum(w, 0.0)) @ q.conj().T


def solve_sdp(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdrSolution:
    """Splitting-method solve of the relaxed problem.

    Gain constraints are turned into equalities with nonnegative slacks;
    each iteration projects the cone copies (PSD matrix, slack orthant),
    solves the affine projection through a prefactored Gram system, and
    updates the scaled duals.  The penalty parameter starts at 1 and is
    rebalanced by factors of 2 when the residuals drift apart.
    """
    q_ue, q_targets = problem.factors[0], problem.factors[1:]
    n, k = problem.n_elements, len(q_targets)

    # normalize objective and constraints so the iteration is scale-free:
    # each trace form becomes u u^H with a unit-norm u
    norms = np.linalg.norm(q_targets, axis=1)
    if np.any(norms == 0):
        raise NumericalError("zero constraint matrix in SDP")
    u = q_targets / norms[:, None]
    floors = problem.desired_gains / norms**2
    u_ue = q_ue / (np.linalg.norm(q_ue) or 1.0)
    c_mat = np.outer(u_ue, np.conj(u_ue))

    # Gram matrix of the affine-constraint representers (diag entries, gains+slacks)
    diag_u = np.abs(u) ** 2
    cross = np.abs(np.conj(u) @ u.T) ** 2  # tr(u_a u_a^H u_b u_b^H)
    gram = np.block([[np.eye(n), diag_u.T], [diag_u, cross + np.eye(k)]])
    try:
        gram_cho = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"constraint Gram factorization failed: {exc}") from exc
    cho_inv = np.linalg.inv(gram_cho)  # the Gram never changes: invert it once
    gram_inv = cho_inv.T @ cho_inv

    rho = 1.0
    z = np.eye(n, dtype=complex)
    dual = np.zeros_like(z)
    t = np.zeros(k)
    dual_s = np.zeros(k)

    it = 0
    rp_norm = rd_norm = np.inf
    history: list[float] = []
    for it in range(1, max_iter + 1):
        # affine step: project the penalty-optimal point onto the constraints
        v0 = z - dual + c_mat / rho
        s0 = t - dual_s
        resid = np.concatenate((np.real(np.diagonal(v0)) - 1.0, _quad(u, v0) - s0 - floors))
        w = gram_inv @ resid
        v = v0 - (u.T * w[n:]) @ np.conj(u)
        v[np.arange(n), np.arange(n)] -= w[:n]
        s = s0 + w[n:]

        z_prev, t_prev = z, t
        z = psd_project(v + dual)
        t = np.maximum(s + dual_s, 0.0)
        dual = dual + (v - z)
        dual_s = dual_s + (s - t)

        denom = max(np.linalg.norm(v), np.linalg.norm(z), 1.0)
        rp = np.sqrt(np.linalg.norm(v - z) ** 2 + np.linalg.norm(s - t) ** 2)
        rd = rho * np.sqrt(np.linalg.norm(z - z_prev) ** 2 + np.linalg.norm(t - t_prev) ** 2)
        rp_norm, rd_norm = rp / denom, rd / denom
        if rp_norm < tol and rd_norm < tol:
            break

        history.append(rp_norm)
        if it % _BALANCE_EVERY == 0:
            if rp > _BALANCE_RATIO * rd:
                rho *= 2.0
                dual /= 2.0
                dual_s /= 2.0
            elif rd > _BALANCE_RATIO * rp:
                rho /= 2.0
                dual *= 2.0
                dual_s *= 2.0
    else:
        # stagnated with slacks pinned at zero means the floors are unreachable
        if len(history) > _STAGNATION_WINDOW:
            old = history[-_STAGNATION_WINDOW]
            stalled = abs(old - rp_norm) <= _STAGNATION_RTOL * max(old, rp_norm)
            if stalled and rp_norm > 100 * tol and np.all(t < 1e-8):
                raise Infeasible(
                    f"desired gains appear unreachable (residual {rp_norm:.3e})"
                )
        raise NonConvergence(it, rp_norm, rd_norm)

    # exact unit diagonal, PSD preserved by the congruence
    d = np.real(np.diagonal(z))
    scale = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    z = z * np.outer(scale, scale)

    return SdrSolution(
        v_matrix=z,
        relaxed_objective=float(_quad(q_ue, z)),
        constraint_residuals=problem.desired_gains - _quad(q_targets, z),
        diag_residual=float(np.max(np.abs(np.real(np.diagonal(z)) - 1.0))),
        iterations=it,
    )


def gaussian_randomization(
    v_matrix: np.ndarray,
    problem: SdpProblem,
    rng: Rng,
    slack: float = 0.05,
) -> tuple[np.ndarray, Metrics]:
    """Extract a unit-modulus phase vector from the relaxed solution.

    RANDOMIZATION_TRIALS candidates are drawn as complex Gaussians with
    covariance v_matrix and projected entrywise to unit modulus.  Among
    candidates meeting every gain floor within the given relative slack,
    the one with the best SNR wins; if none qualifies, the candidate with
    the best worst-case floor ratio is returned.  The vector (N,) returned
    is the one its Metrics scored.
    """
    w, q = _hermitian_eigh(v_matrix)
    chol_like = q * np.sqrt(np.maximum(w, 0.0))

    # trial t draws its real then its imaginary parts, as one draw per trial would
    draws = rng.standard_normal((RANDOMIZATION_TRIALS, 2, problem.n_elements))
    noise = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    candidates = np.exp(1j * np.angle(noise @ chol_like.T))
    scores = beam_gains(candidates, problem.factors)
    snr, gains = scores[:, 0], scores[:, 1:]
    floors = np.asarray(problem.desired_gains, dtype=float)
    feasible = np.all(gains >= (1.0 - slack) * floors, axis=1)
    if np.any(feasible):
        # argmax keeps the first of equal scores, as a strict "better" test would
        best = np.argmax(np.where(feasible, snr, -np.inf))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(floors > 0, gains / floors, np.inf)
        best = np.argmax(np.min(ratios, axis=1))
    return candidates[best], Metrics.from_linear(snr[best], gains[best])
