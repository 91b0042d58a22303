import numpy as np
import pytest

from ris_isac import (
    LambdaPolicy,
    child_rng,
    solve_scenario,
)


class TestResolveLambda:
    """The ridge each policy resolves to, as solve_scenario reports it."""

    def test_adaptive_alpha_zero_is_sigma_max(self, scenario):
        outcome = solve_scenario(scenario.replace(alpha=0.0))
        assert outcome.lambda_normalized == pytest.approx(
            outcome.system.sigma_max_normalized
        )

    def test_adaptive_alpha_one_is_zero(self, scenario):
        outcome = solve_scenario(scenario.replace(alpha=1.0))
        assert outcome.lambda_normalized == 0.0
        assert outcome.report.lambda_used == 0.0

    def test_fixed_fraction(self, scenario):
        cell = scenario.replace(alpha=0.5, lambda_policy=LambdaPolicy.parse("fixed:0.1"))
        outcome = solve_scenario(cell)
        assert outcome.lambda_normalized == pytest.approx(
            0.1 * outcome.system.sigma_max_normalized
        )
        # the solver-side ridge carries the power scale
        assert outcome.report.lambda_used == pytest.approx(
            outcome.system.scale**2 * outcome.lambda_normalized
        )

    def test_scale_invariance_of_policy(self, scenario):
        """The normalized ridge does not move with the transmit power."""
        a = solve_scenario(scenario.replace(alpha=0.5))
        b = solve_scenario(scenario.replace(alpha=0.5, transmit_power_dbm=40.0))
        assert a.lambda_normalized == pytest.approx(b.lambda_normalized, rel=1e-12)
        np.testing.assert_allclose(a.report.delta_phi, b.report.delta_phi, rtol=1e-9)


class TestSolveScenario:
    def test_deterministic(self, scenario):
        a = solve_scenario(scenario)
        b = solve_scenario(scenario)
        assert a.metrics.snr_db == b.metrics.snr_db
        np.testing.assert_array_equal(a.v_final.phi, b.v_final.phi)

    def test_explicit_rng_matches_default(self, scenario):
        a = solve_scenario(scenario)
        b = solve_scenario(scenario, child_rng(scenario.seed, 0))
        np.testing.assert_array_equal(a.v_final.phi, b.v_final.phi)

    def test_frozen_reference_numbers(self, scenario):
        """End-to-end pinned values for the shipped scenario, seed 1, alpha 1."""
        o = solve_scenario(scenario)
        assert o.metrics.snr_db == pytest.approx(23.382017477480485, abs=1e-9)
        assert o.system.sigma_max_normalized == pytest.approx(15.38800258951944, abs=1e-9)
        comm_only = o.realization.metrics_comm_only
        assert comm_only.snr_db == pytest.approx(28.20810878359081, abs=1e-9)

    def test_alpha_zero_keeps_comm_phase_close(self, scenario):
        o = solve_scenario(scenario.replace(alpha=0.0))
        assert abs(o.metrics.snr_db - o.realization.metrics_comm_only.snr_db) < 0.5

    def test_gain_bounds_respected_in_linear_sense(self, scenario):
        # exact gains can exceed the design value only through linearization error;
        # with alpha=1 they stay within a couple of dB below the analytic ceiling
        o = solve_scenario(scenario)
        for (g_lin, _), ub in zip(o.metrics.gains, o.gain_bounds):
            assert g_lin <= ub * 1.05

    def test_outcome_cross_checks(self, scenario):
        o = solve_scenario(scenario.replace(alpha=0.5))
        assert len(o.v_final) == scenario.n_elements
        assert o.report.max_abs_perturbation < np.pi
        assert o.metrics.snr_linear <= o.realization.metrics_comm_only.snr_linear + 1e-9
