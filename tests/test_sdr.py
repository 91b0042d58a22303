import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ris_isac import (
    ConfigError,
    Infeasible,
    NonConvergence,
    SdpProblem,
    SystemConstants,
    beampattern_gain,
    build_channels,
    child_rng,
    comm_snr_mrt,
    gaussian_randomization,
    solve_sdp,
)
from ris_isac.sdr import psd_project


@pytest.fixture(scope="module")
def small_problem(small_scenario):
    channels = build_channels(small_scenario, child_rng(small_scenario.seed, 0))
    consts = SystemConstants.from_scenario(small_scenario, channels)
    problem = SdpProblem.from_channels(
        channels, consts, small_scenario.alpha, small_scenario.weights
    )
    return problem, channels, consts


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestPsdProject:
    @given(seed=st.integers(0, 1000), n=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_result_is_psd_and_idempotent(self, seed, n):
        h = random_hermitian(child_rng(seed), n)
        p = psd_project(h)
        w = np.linalg.eigvalsh(p)
        assert w.min() >= -1e-10
        np.testing.assert_allclose(psd_project(p), p, atol=1e-10)

    def test_psd_fixed_point(self):
        rng = child_rng(2)
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = b @ b.conj().T
        np.testing.assert_allclose(psd_project(p), p, atol=1e-10)

    def test_projection_is_closest(self):
        # the clamped eigenvalue form beats any random PSD candidate in Frobenius
        rng = child_rng(3)
        h = random_hermitian(rng, 6)
        p = psd_project(h)
        dist = np.linalg.norm(h - p)
        for _ in range(20):
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            q = b @ b.conj().T
            assert np.linalg.norm(h - q) >= dist - 1e-10


class TestPsiMatrices:
    def test_trace_forms_match_metrics(self, small_problem):
        """v^H Psi v reproduces the closed-form SNR and gains."""
        problem, channels, consts = small_problem
        rng = child_rng(4)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, problem.n_elements))
            assert problem.snr_of(v) == pytest.approx(
                comm_snr_mrt(v, channels.h_ue, channels.g_ris, consts), rel=1e-10
            )
            gains = problem.gains_of(v)
            for g, a in zip(gains, channels.a_targets):
                assert g == pytest.approx(
                    beampattern_gain(v, a, channels.g_ris, consts), rel=1e-10
                )


class TestSolveSdp:
    def test_solution_invariants(self, small_problem):
        problem, _, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        n = problem.n_elements
        assert sol.v_matrix.shape == (n, n)
        assert sol.diag_residual <= 1e-9
        w = np.linalg.eigvalsh(sol.v_matrix)
        assert w.min() >= -1e-6 * w.max()
        # gain floors met up to solver tolerance
        assert np.all(sol.constraint_residuals <= 1e-3 * np.abs(problem.desired_gains))
        assert sol.iterations >= 1

    def test_relaxation_upper_bounds_unit_modulus(self, small_problem):
        """Any unit-modulus vector meeting the floors scores below the relaxed optimum."""
        problem, _, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        rng = child_rng(5)
        slack = 1e-3 * sol.relaxed_objective
        for _ in range(50):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, problem.n_elements))
            if np.all(problem.gains_of(v) >= problem.desired_gains):
                assert problem.snr_of(v) <= sol.relaxed_objective + slack

    def test_values_match_dense_trace_forms(self, small_problem):
        """The reported objective and residuals equal tr(Z psi) with each psi
        built densely as P*beta_g*M * q q^H, q = conj(steering) * g."""
        problem, channels, consts = small_problem
        sol = solve_sdp(problem, tol=1e-6)

        def trace_form(steering, weight):
            q = np.conj(steering) * channels.g_ris
            return np.real(np.trace(sol.v_matrix @ (weight * np.outer(q, q.conj()))))

        snr_weight = consts.gain_prefactor / consts.noise_power_w
        assert sol.relaxed_objective == pytest.approx(
            trace_form(channels.h_ue, snr_weight), rel=1e-10
        )
        achieved = [trace_form(a, consts.gain_prefactor) for a in channels.a_targets]
        np.testing.assert_allclose(
            problem.desired_gains - sol.constraint_residuals, achieved, rtol=1e-10
        )

    def test_deterministic(self, small_problem):
        problem, _, _ = small_problem
        a = solve_sdp(problem)
        b = solve_sdp(problem)
        np.testing.assert_array_equal(a.v_matrix, b.v_matrix)

    def test_unreachable_floors_flagged(self, small_problem):
        problem, _, _ = small_problem
        hopeless = SdpProblem(
            q_ue=problem.q_ue,
            q_targets=problem.q_targets,
            desired_gains=problem.desired_gains * 1e6,
        )
        with pytest.raises((Infeasible, NonConvergence)):
            solve_sdp(hopeless, max_iter=3000)


class TestRandomization:
    def test_trials_validated(self, small_problem):
        problem, _, _ = small_problem
        sol = solve_sdp(problem)
        with pytest.raises(ConfigError):
            gaussian_randomization(sol.v_matrix, problem, 0, child_rng(0))

    def test_extraction_feasible_and_unit_modulus(self, small_problem):
        problem, _, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        phase, metrics = gaussian_randomization(
            sol.v_matrix, problem, 100, child_rng(6)
        )
        np.testing.assert_allclose(np.abs(phase.v), 1.0, atol=1e-12)
        gains = np.array([g for g, _ in metrics.gains])
        assert np.all(gains >= 0.95 * problem.desired_gains)
        assert metrics.snr_linear <= sol.relaxed_objective * (1 + 1e-3)

    def test_deterministic_given_rng(self, small_problem):
        problem, _, _ = small_problem
        sol = solve_sdp(problem)
        p1, _ = gaussian_randomization(sol.v_matrix, problem, 20, child_rng(7))
        p2, _ = gaussian_randomization(sol.v_matrix, problem, 20, child_rng(7))
        np.testing.assert_array_equal(p1.phi, p2.phi)

    @pytest.mark.parametrize("floor_scale", [1.0, 1e3], ids=["feasible", "fallback"])
    def test_matches_sequential_replay(self, small_problem, floor_scale):
        """One draw and one score per trial, kept by the first strictly best
        feasible SNR, else the first best worst-case ratio, picks the same phase."""
        problem, _, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        problem = SdpProblem(
            q_ue=problem.q_ue,
            q_targets=problem.q_targets,
            desired_gains=problem.desired_gains * floor_scale,
        )
        n, trials, slack = problem.n_elements, 100, 0.05
        w, q = np.linalg.eigh(0.5 * (sol.v_matrix + sol.v_matrix.conj().T))
        factor = q * np.sqrt(np.maximum(w, 0.0))
        floors = problem.desired_gains
        rng = child_rng(8)
        best_feasible = best_ratio = None
        for _ in range(trials):
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
            v = np.exp(1j * np.angle(factor @ noise))
            gains, snr = problem.gains_of(v), problem.snr_of(v)
            worst = np.min(gains / floors)
            if np.all(gains >= (1.0 - slack) * floors):
                if best_feasible is None or snr > best_feasible[0]:
                    best_feasible = (snr, v)
            if best_ratio is None or worst > best_ratio[0]:
                best_ratio = (worst, v)
        assert (best_feasible is not None) == (floor_scale == 1.0)
        expected = (best_feasible or best_ratio)[1]

        phase, _ = gaussian_randomization(sol.v_matrix, problem, trials, child_rng(8))
        np.testing.assert_allclose(phase.v, expected, atol=1e-9)
