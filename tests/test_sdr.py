import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import beampattern_gain_general, bs_steering_for, comm_snr_general, mrt_beamformer
from ris_isac import (
    Infeasible,
    NonConvergence,
    SdpProblem,
    build_channels,
    child_rng,
    gaussian_randomization,
    solve_sdp,
)
from ris_isac.beamforming import beam_gains, metric_factors
from ris_isac.channel import path_gains
from ris_isac.sdr import RANDOMIZATION_TRIALS, psd_project


@pytest.fixture(scope="module")
def small_problem(small_scenario):
    channels = build_channels(small_scenario, child_rng(small_scenario.seed, 0))
    problem = SdpProblem.from_channels(channels, small_scenario.alpha, small_scenario.weights)
    return problem, channels


def snr_and_gains(problem, v):
    """SNR and gains (K,) of one phase vector, or of each row of a batch, from the factors."""
    scores = beam_gains(v, np.vstack([problem.q_ue, problem.q_targets]))
    return scores[..., 0], scores[..., 1:]


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
    def test_trace_forms_match_metrics(self, small_scenario, small_problem):
        """|q^H v|^2 on the problem's factors reproduces the pre-MRT SNR and
        gains under the matched beamformer."""
        problem, channels = small_problem
        beta_g = path_gains(small_scenario)[0]
        g_bs = bs_steering_for(small_scenario)
        w_star = mrt_beamformer(g_bs, small_scenario.transmit_power_w)
        rng = child_rng(4)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, problem.n_elements))
            snr, gains = snr_and_gains(problem, v)
            assert snr == pytest.approx(
                comm_snr_general(
                    w_star, beta_g, g_bs, channels.g_ris, channels.h_ue, v,
                    small_scenario.noise_power_w,
                ),
                rel=1e-10,
            )
            for g, a in zip(gains, channels.a_targets):
                assert g == pytest.approx(
                    beampattern_gain_general(w_star, beta_g, g_bs, channels.g_ris, v, a),
                    rel=1e-10,
                )


class TestSolveSdp:
    def test_solution_invariants(self, small_problem):
        problem, _ = small_problem
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
        problem, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        rng = child_rng(5)
        slack = 1e-3 * sol.relaxed_objective
        for _ in range(50):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, problem.n_elements))
            snr, gains = snr_and_gains(problem, v)
            if np.all(gains >= problem.desired_gains):
                assert snr <= sol.relaxed_objective + slack

    def test_values_match_dense_trace_forms(self, small_problem):
        """The reported objective and residuals equal tr(Z psi) with each psi
        built densely as P*beta_g*M * q q^H, q = conj(steering) * g."""
        problem, channels = small_problem
        sol = solve_sdp(problem, tol=1e-6)

        def trace_form(steering, weight):
            q = np.conj(steering) * channels.g_ris
            return np.real(np.trace(sol.v_matrix @ (weight * np.outer(q, q.conj()))))

        snr_weight = channels.gain_prefactor / channels.noise_power_w
        assert sol.relaxed_objective == pytest.approx(
            trace_form(channels.h_ue, snr_weight), rel=1e-10
        )
        achieved = [trace_form(a, channels.gain_prefactor) for a in channels.a_targets]
        np.testing.assert_allclose(
            problem.desired_gains - sol.constraint_residuals, achieved, rtol=1e-10
        )

    def test_deterministic(self, small_problem):
        problem, _ = small_problem
        a = solve_sdp(problem)
        b = solve_sdp(problem)
        np.testing.assert_array_equal(a.v_matrix, b.v_matrix)

    def test_unreachable_floors_flagged(self, small_problem):
        problem, _ = small_problem
        hopeless = SdpProblem(
            q_ue=problem.q_ue,
            q_targets=problem.q_targets,
            desired_gains=problem.desired_gains * 1e6,
        )
        with pytest.raises((Infeasible, NonConvergence)):
            solve_sdp(hopeless, max_iter=3000)


class TestRandomization:
    def test_extraction_feasible_and_unit_modulus(self, small_problem):
        problem, channels = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        v, metrics = gaussian_randomization(sol.v_matrix, problem, child_rng(6))
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
        # the returned configuration is the very candidate its metrics scored, and the
        # gains are one (linear, dB) pair per target, as perfbench's probe reads them
        scores = beam_gains(v, metric_factors(channels))
        assert scores[0] == metrics.snr_linear
        assert metrics.gains.shape == (len(problem.q_targets), 2)
        gains = np.array([g for g, _ in metrics.gains])
        np.testing.assert_array_equal(scores[1:], gains)
        assert np.all(gains >= 0.95 * problem.desired_gains)
        assert metrics.snr_linear <= sol.relaxed_objective * (1 + 1e-3)

    def test_deterministic_given_rng(self, small_problem):
        problem, _ = small_problem
        sol = solve_sdp(problem)
        p1, _ = gaussian_randomization(sol.v_matrix, problem, child_rng(7))
        p2, _ = gaussian_randomization(sol.v_matrix, problem, child_rng(7))
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("floor_scale", [1.0, 1e3], ids=["feasible", "fallback"])
    def test_matches_sequential_replay(self, small_problem, floor_scale):
        """One draw and one score per trial, kept by the first strictly best
        feasible SNR, else the first best worst-case ratio, picks the same phase."""
        problem, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        problem = SdpProblem(
            q_ue=problem.q_ue,
            q_targets=problem.q_targets,
            desired_gains=problem.desired_gains * floor_scale,
        )
        n, trials, slack = problem.n_elements, RANDOMIZATION_TRIALS, 0.05
        w, q = np.linalg.eigh(0.5 * (sol.v_matrix + sol.v_matrix.conj().T))
        factor = q * np.sqrt(np.maximum(w, 0.0))
        floors = problem.desired_gains
        rng = child_rng(8)
        best_feasible = best_ratio = None
        for _ in range(trials):
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
            v = np.exp(1j * np.angle(factor @ noise))
            snr, gains = snr_and_gains(problem, v)
            worst = np.min(gains / floors)
            if np.all(gains >= (1.0 - slack) * floors):
                if best_feasible is None or snr > best_feasible[0]:
                    best_feasible = (snr, v)
            if best_ratio is None or worst > best_ratio[0]:
                best_ratio = (worst, v)
        assert (best_feasible is not None) == (floor_scale == 1.0)
        expected = (best_feasible or best_ratio)[1]

        v, _ = gaussian_randomization(sol.v_matrix, problem, child_rng(8), slack=slack)
        np.testing.assert_allclose(v, expected, atol=1e-9)
