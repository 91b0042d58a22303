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

from .beamforming import Metrics, SystemConstants
from .channel import ChannelSet, Rng
from .errors import ConfigError, Infeasible, NonConvergence, NumericalError, ShapeError
from .perturb import RisPhase, gain_upper_bound

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 5000
_BALANCE_EVERY = 50
_BALANCE_RATIO = 10.0
_STAGNATION_WINDOW = 500
_STAGNATION_RTOL = 1e-4


@dataclass(frozen=True)
class SdpProblem:
    """Trace-form problem data: objective matrix, constraint matrices, floors."""

    psi_ue: np.ndarray
    psi_targets: tuple[np.ndarray, ...]
    desired_gains: np.ndarray

    @classmethod
    def from_channels(
        cls, channels: ChannelSet, consts: SystemConstants, alpha: float, weights
    ) -> "SdpProblem":
        """Trace forms of one realization, with the gain ceilings as floors."""
        return cls(
            psi_ue=build_psi_ue(channels.h_ue, channels.g_ris, consts),
            psi_targets=tuple(
                build_psi_target(a, channels.g_ris, consts) for a in channels.a_targets
            ),
            desired_gains=gain_upper_bound(alpha, weights, consts, len(channels.h_ue)),
        )

    @property
    def n_elements(self) -> int:
        return self.psi_ue.shape[0]

    def snr_of(self, v: np.ndarray) -> float:
        return float(np.real(np.vdot(v, self.psi_ue @ v)))

    def gains_of(self, v: np.ndarray) -> np.ndarray:
        return np.array([np.real(np.vdot(v, p @ v)) for p in self.psi_targets])


@dataclass(frozen=True)
class SdrSolution:
    """Relaxed optimum of the SDP."""

    v_matrix: np.ndarray  # Hermitian PSD, unit diagonal
    relaxed_objective: float
    constraint_residuals: np.ndarray  # desired - achieved, per target (<=0 when met)
    diag_residual: float
    iterations: int


def _rank_one_psi(weight: float, steering: np.ndarray, g_ris: np.ndarray) -> np.ndarray:
    q = np.conj(steering) * g_ris  # diag(steering^H) g_ris
    return weight * np.outer(q, q.conj())


def build_psi_ue(h_ue: np.ndarray, g_ris: np.ndarray, consts: SystemConstants) -> np.ndarray:
    """SNR trace-form matrix; rank one and PSD by construction."""
    if len(h_ue) != len(g_ris):
        raise ShapeError("build_psi_ue: length mismatch")
    return _rank_one_psi(consts.gain_prefactor / consts.noise_power_w, h_ue, g_ris)


def build_psi_target(a_target: np.ndarray, g_ris: np.ndarray, consts: SystemConstants) -> np.ndarray:
    """Beampattern-gain trace-form matrix for one target."""
    if len(a_target) != len(g_ris):
        raise ShapeError("build_psi_target: length mismatch")
    return _rank_one_psi(consts.gain_prefactor, a_target, g_ris)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize, clamp eigenvalues at zero."""
    h = 0.5 * (h + h.conj().T)
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    w = np.maximum(w, 0.0)
    return (q * w) @ q.conj().T


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
    n = problem.n_elements
    k = len(problem.psi_targets)

    # normalize objective and constraints so the iteration is scale-free
    obj_scale = np.linalg.norm(problem.psi_ue)
    c_mat = problem.psi_ue / obj_scale if obj_scale > 0 else problem.psi_ue
    psis, floors = [], []
    for p, d in zip(problem.psi_targets, problem.desired_gains):
        nk = np.linalg.norm(p)
        if nk == 0:
            raise NumericalError("zero constraint matrix in SDP")
        psis.append(p / nk)
        floors.append(d / nk)
    floors = np.asarray(floors)

    # Gram matrix of the affine-constraint representers (diag entries, gains+slacks)
    m_tot = n + k
    gram = np.zeros((m_tot, m_tot))
    gram[:n, :n] = np.eye(n)
    for a in range(k):
        da = np.real(np.diagonal(psis[a]))
        gram[:n, n + a] = da
        gram[n + a, :n] = da
        for b in range(k):
            gram[n + a, n + b] = np.real(np.trace(psis[a] @ psis[b])) + (1.0 if a == b else 0.0)
    try:
        gram_cho = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"constraint Gram factorization failed: {exc}") from exc

    rho = 1.0
    v = np.eye(n, dtype=complex)
    z = v.copy()
    dual = np.zeros_like(v)
    s = np.zeros(k)
    t = np.zeros(k)
    dual_s = np.zeros(k)

    it = 0
    rp_norm = rd_norm = np.inf
    history: list[float] = []
    for it in range(1, max_iter + 1):
        # affine step: project the penalty-optimal point onto the constraints
        v0 = z - dual + c_mat / rho
        s0 = t - dual_s
        resid = np.empty(m_tot)
        resid[:n] = np.real(np.diagonal(v0)) - 1.0
        for a in range(k):
            resid[n + a] = np.real(np.trace(v0 @ psis[a])) - s0[a] - floors[a]
        w = np.linalg.solve(gram_cho.conj().T, np.linalg.solve(gram_cho, resid))
        v = v0.copy()
        v[np.arange(n), np.arange(n)] -= w[:n]
        for a in range(k):
            v -= w[n + a] * psis[a]
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
    d = np.real(np.diagonal(z)).copy()
    d[d <= 0] = 1.0
    scale = 1.0 / np.sqrt(d)
    z = z * np.outer(scale, scale)

    achieved = np.array([np.real(np.trace(z @ p)) for p in problem.psi_targets])
    return SdrSolution(
        v_matrix=z,
        relaxed_objective=float(np.real(np.trace(z @ problem.psi_ue))),
        constraint_residuals=problem.desired_gains - achieved,
        diag_residual=float(np.max(np.abs(np.real(np.diagonal(z)) - 1.0))),
        iterations=it,
    )


def gaussian_randomization(
    v_matrix: np.ndarray,
    problem: SdpProblem,
    trials: int,
    rng: Rng,
    slack: float = 0.05,
) -> tuple[RisPhase, Metrics]:
    """Extract a unit-modulus phase vector from the relaxed solution.

    Candidates are drawn as complex Gaussians with covariance v_matrix and
    projected entrywise to unit modulus.  Among candidates meeting every
    gain floor within the given relative slack, the one with the best SNR
    wins; if none qualifies, the candidate with the best worst-case
    floor ratio is returned.
    """
    if trials < 1:
        raise ConfigError("gaussian_randomization: trials must be >= 1")
    n = problem.n_elements
    w, q = np.linalg.eigh(0.5 * (v_matrix + v_matrix.conj().T))
    chol_like = q * np.sqrt(np.maximum(w, 0.0))

    floors = np.asarray(problem.desired_gains, dtype=float)
    best_feasible: tuple[float, np.ndarray] | None = None
    best_ratio: tuple[float, np.ndarray] | None = None
    for _ in range(trials):
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        xi = chol_like @ noise
        v = np.exp(1j * np.angle(xi))
        gains = problem.gains_of(v)
        snr = problem.snr_of(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(floors > 0, gains / floors, np.inf)
        worst = float(np.min(ratios)) if len(ratios) else np.inf
        if np.all(gains >= (1.0 - slack) * floors):
            if best_feasible is None or snr > best_feasible[0]:
                best_feasible = (snr, v)
        if best_ratio is None or worst > best_ratio[0]:
            best_ratio = (worst, v)

    chosen = best_feasible[1] if best_feasible is not None else best_ratio[1]
    phase = RisPhase.from_vector(chosen)
    metrics = Metrics.from_linear(problem.snr_of(phase.v), problem.gains_of(phase.v))
    return phase, metrics
