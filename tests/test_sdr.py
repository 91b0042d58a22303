import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    beampattern_gain_general,
    bs_steering_for,
    comm_snr_general,
    mrt_beamformer,
    sequential_candidates,
)
from ris_isac import (
    Infeasible,
    NonConvergence,
    SdpProblem,
    build_channels,
    child_rng,
    comm_optimal_phase,
    gaussian_randomization,
    solve_sdp,
)
from ris_isac.beamforming import beam_gains, metric_factors, metrics_for
from ris_isac.errors import NumericalError, ShapeError
from ris_isac.sdr import RANDOMIZATION_TRIALS, psd_project


@pytest.fixture(scope="module")
def small_problem(small_scenario):
    channels = build_channels(small_scenario, child_rng(small_scenario.seed, 0))
    problem = SdpProblem.from_channels(channels, small_scenario.alpha, small_scenario.weights)
    return problem, channels


def snr_and_gains(problem, v):
    """SNR and gains (K,) of one phase vector, or of each row of a batch, from the factors."""
    scores = beam_gains(v, problem.factors)
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


class TestProblemFactors:
    def test_trace_forms_match_metrics(self, small_scenario, small_problem):
        """|q^H v|^2 on the problem's factors reproduces the pre-MRT SNR and
        gains under the matched beamformer."""
        problem, channels = small_problem
        beta_g = small_scenario.path_gains[0]
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
        assert sol.factor.shape[0] == problem.n_elements
        assert sol.diag_residual <= 1e-9
        # V = F F^H is PSD by construction; its unit diagonal is F's unit row norms
        np.testing.assert_allclose(np.linalg.norm(sol.factor, axis=1), 1.0, atol=1e-9)
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
        """The reported objective and residuals equal tr(F F^H psi) with each psi
        built densely as P*beta_g*M * q q^H, q = conj(steering) * g."""
        problem, channels = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        relaxed = sol.factor @ sol.factor.conj().T

        def trace_form(steering, weight):
            q = np.conj(steering) * channels.g_ris
            return np.real(np.trace(relaxed @ (weight * np.outer(q, q.conj()))))

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
        np.testing.assert_array_equal(a.factor, b.factor)

    def test_unreachable_floors_flagged(self, small_problem):
        problem, _ = small_problem
        hopeless = SdpProblem(
            factors=problem.factors,
            desired_gains=problem.desired_gains * 1e6,
        )
        with pytest.raises((Infeasible, NonConvergence)):
            solve_sdp(hopeless, max_iter=3000)


class TestRandomization:
    def test_extraction_feasible_and_unit_modulus(self, small_problem):
        problem, channels = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        v, metrics = gaussian_randomization(sol.factor, problem, child_rng(6))
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
        # the returned configuration is the very candidate its metrics scored, and the
        # gains are one (linear, dB) pair per target, as perfbench's probe reads them
        scores = beam_gains(v, metric_factors(channels))
        assert scores[0] == metrics.snr_linear
        assert metrics.gains.shape == (len(problem.factors) - 1, 2)
        gains = np.array([g for g, _ in metrics.gains])
        np.testing.assert_array_equal(scores[1:], gains)
        assert np.all(gains >= 0.95 * problem.desired_gains)
        assert metrics.snr_linear <= sol.relaxed_objective * (1 + 1e-3)

    def test_nonfinite_relaxation_is_numerical_error(self, small_problem):
        """A NaN matrix fails as NumericalError in psd_project, not as numpy's
        LinAlgError, and a NaN factor fails as NumericalError in the extraction,
        where its candidates' Metrics are not finite."""
        problem, _ = small_problem
        nan = np.full((problem.n_elements,) * 2, np.nan, dtype=complex)
        with pytest.raises(NumericalError):
            psd_project(nan)
        with pytest.raises(NumericalError):
            gaussian_randomization(nan, problem, child_rng(6))

    def test_deterministic_given_rng(self, small_problem):
        problem, _ = small_problem
        sol = solve_sdp(problem)
        p1, _ = gaussian_randomization(sol.factor, problem, child_rng(7))
        p2, _ = gaussian_randomization(sol.factor, problem, child_rng(7))
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("floor_scale", [1.0, 1e3], ids=["feasible", "fallback"])
    def test_matches_sequential_replay(self, small_problem, floor_scale):
        """One draw and one score per trial, kept by the first strictly best
        feasible SNR, else the first best worst-case ratio, picks the same phase."""
        problem, _ = small_problem
        sol = solve_sdp(problem, tol=1e-6)
        problem = SdpProblem(
            factors=problem.factors,
            desired_gains=problem.desired_gains * floor_scale,
        )
        slack = 0.05
        floors = problem.desired_gains
        best_feasible = best_ratio = None
        for v in sequential_candidates(sol.factor, child_rng(8), RANDOMIZATION_TRIALS):
            snr, gains = snr_and_gains(problem, v)
            worst = np.min(gains / floors)
            if np.all(gains >= (1.0 - slack) * floors):
                if best_feasible is None or snr > best_feasible[0]:
                    best_feasible = (snr, v)
            if best_ratio is None or worst > best_ratio[0]:
                best_ratio = (worst, v)
        assert (best_feasible is not None) == (floor_scale == 1.0)
        expected = (best_feasible or best_ratio)[1]

        v, _ = gaussian_randomization(sol.factor, problem, child_rng(8), slack=slack)
        np.testing.assert_allclose(v, expected, atol=1e-9)

    def test_any_factor_rank_one(self, small_problem):
        """The rank-one factor of v_comm v_comm^H draws only global rotations of
        v_comm, so v_comm is extracted with its own Metrics."""
        problem, channels = small_problem
        v_comm = comm_optimal_phase(channels.h_ue, channels.g_ris)
        v, metrics = gaussian_randomization(v_comm[:, None], problem, child_rng(9))
        np.testing.assert_allclose(v, v[0] / v_comm[0] * v_comm, atol=1e-12)
        expected = metrics_for(v_comm, channels)
        assert metrics.snr_linear == pytest.approx(expected.snr_linear, rel=1e-12)
        np.testing.assert_allclose(metrics.gains[:, 0], expected.gains[:, 0], rtol=1e-12)

    def test_factor_row_count_must_match(self, small_problem):
        problem, _ = small_problem
        factor = np.ones((problem.n_elements + 1, 2), dtype=complex)
        with pytest.raises(ShapeError):
            gaussian_randomization(factor, problem, child_rng(9))
