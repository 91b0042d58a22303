from dataclasses import fields

import numpy as np
import pytest

from ris_isac import (
    LambdaPolicy,
    NumericalError,
    PerturbationSystem,
    ShapeError,
    design,
    gain_upper_bound,
    realize,
    solve_scenario,
)
from ris_isac.beamforming import metrics_for


def comm_only_metrics(real):
    """Metrics of the communication-optimal phases of a realization."""
    return metrics_for(real.v_comm, real.channels)


def realize_and_solve(scenario):
    """The scenario's realization and its solve_scenario outcome."""
    real = realize(scenario)
    return real, design(real, [(scenario.alpha, scenario.weights, scenario.lambda_policy)])


class TestResolveLambda:
    """The ridge each policy resolves to, as solve_scenario reports it."""

    def test_adaptive_alpha_zero_is_sigma_max(self, scenario):
        outcome = solve_scenario(scenario.replace(alpha=0.0))
        assert outcome.report.lambda_used[0] == pytest.approx(
            outcome.system.sigma_max_normalized
        )

    def test_adaptive_alpha_one_is_zero(self, scenario):
        outcome = solve_scenario(scenario.replace(alpha=1.0))
        assert outcome.report.lambda_used[0] == 0.0

    def test_fixed_fraction(self, scenario):
        cell = scenario.replace(alpha=0.5, lambda_policy=LambdaPolicy.parse("fixed:0.1"))
        outcome = solve_scenario(cell)
        # the solver reports the normalized ridge; the power scale stays inside it
        assert outcome.report.lambda_used[0] == pytest.approx(
            0.1 * outcome.system.sigma_max_normalized
        )

    def test_scale_invariance_of_policy(self, scenario):
        """The normalized ridge does not move with the transmit power."""
        a = solve_scenario(scenario.replace(alpha=0.5))
        b = solve_scenario(scenario.replace(alpha=0.5, transmit_power_dbm=40.0))
        assert a.report.lambda_used == pytest.approx(b.report.lambda_used, rel=1e-12)
        np.testing.assert_allclose(a.report.delta_phi, b.report.delta_phi, rtol=1e-9)


class TestSolveScenario:
    def test_deterministic(self, scenario):
        a = solve_scenario(scenario)
        b = solve_scenario(scenario)
        assert a.metrics.snr_db[0] == b.metrics.snr_db[0]
        np.testing.assert_array_equal(a.v_final, b.v_final)

    def test_frozen_reference_numbers(self, scenario):
        """End-to-end pinned values for the shipped scenario, seed 1, alpha 1."""
        real, o = realize_and_solve(scenario)
        assert o.metrics.snr_db[0] == pytest.approx(23.382017477480485, abs=1e-9)
        sigma = o.system.sigma_max_normalized
        assert sigma == pytest.approx(15.38800258951944, abs=1e-9)
        comm_only = comm_only_metrics(real)
        assert comm_only.snr_db == pytest.approx(28.20810878359081, abs=1e-9)

    def test_alpha_zero_keeps_comm_phase_close(self, scenario):
        real, o = realize_and_solve(scenario.replace(alpha=0.0))
        assert abs(o.metrics.snr_db[0] - comm_only_metrics(real).snr_db) < 0.5

    def test_gain_bounds_respected_in_linear_sense(self, scenario):
        # exact gains can exceed the design value only through linearization error;
        # with alpha=1 they stay within a couple of dB below the analytic ceiling
        real, o = realize_and_solve(scenario)
        bounds = gain_upper_bound(
            scenario.alpha,
            scenario.weights,
            real.channels.gain_prefactor,
            scenario.n_elements,
        )
        for (g_lin, _), ub in zip(o.metrics.gains[0], bounds):
            assert g_lin <= ub * 1.05

    def test_outcome_cross_checks(self, scenario):
        real, o = realize_and_solve(scenario.replace(alpha=0.5))
        assert o.v_final.shape == (1, scenario.n_elements)
        assert o.report.max_abs_perturbation[0] < np.pi
        # v_final shifts each phase of v_comm by its delta_phi
        np.testing.assert_allclose(
            np.angle(o.v_final / real.v_comm), o.report.delta_phi, atol=1e-12
        )
        assert o.metrics.snr_linear[0] <= comm_only_metrics(real).snr_linear + 1e-9

    def test_large_surface_holds_no_n_by_n_factor(self, scenario):
        """A 256x256 surface (N = 65 536) solves with factors of at most 2K*N entries."""
        o = solve_scenario(scenario.replace(ris_rows=256, ris_cols=256))
        assert np.isfinite(o.metrics.snr_db).all()
        assert np.isfinite(o.metrics.gains).all()
        system = o.system
        limit = 2 * system.n_targets * system.n_elements
        for f in fields(PerturbationSystem):
            assert np.size(getattr(system, f.name)) <= limit, f.name


class TestDesignBatch:
    """All cells of one realization are designed in one batched call."""

    def test_batch_matches_cells_alone(self, scenario):
        real = realize(scenario)
        adaptive, fixed = LambdaPolicy(), LambdaPolicy.parse("fixed:0.1")
        cells = [
            (0.0, scenario.weights, adaptive),
            (0.5, (0.8, 0.2), fixed),
            (1.0, scenario.weights, adaptive),  # lambda = 0: the pseudo-inverse branch
            (0.3, (0.1, 0.9), LambdaPolicy.parse("fixed:0.5")),
            (1.0, (0.5, 0.5), fixed),
        ]
        batch = design(real, cells)
        assert batch.report.lambda_used[2] == 0.0
        for i, cell in enumerate(cells):
            alone = design(real, [cell])
            for record in ("report", "metrics"):
                got, want = getattr(batch, record), getattr(alone, record)
                for field in fields(got):
                    np.testing.assert_array_equal(
                        getattr(got, field.name)[i], getattr(want, field.name)[0],
                        err_msg=f"{record}.{field.name}", strict=True,
                    )
            np.testing.assert_array_equal(batch.v_final[i], alone.v_final[0], strict=True)
        with pytest.raises(ShapeError, match="cells"):
            design(real, [])

    def test_corrupt_cell_trips_taylor_check(self, scenario, monkeypatch):
        real = realize(scenario)
        cells = [(a, scenario.weights, LambdaPolicy()) for a in (0.2, 0.5, 0.8)]
        design(real, cells)
        exact = PerturbationSystem.eta_exact_all

        def corrupt_last_cell(system, rotation):
            # moves the last cell's exact beam sums by more than twice its bound
            eta = exact(system, rotation)
            eta[-1] += 1.0 + np.sum(np.angle(rotation[-1]) ** 2)
            return eta

        monkeypatch.setattr(PerturbationSystem, "eta_exact_all", corrupt_last_cell)
        with pytest.raises(NumericalError, match="linearization"):
            design(real, cells)

    def test_corrupt_stack_trips_stacking_check(self, scenario, monkeypatch):
        real = realize(scenario)
        stack = PerturbationSystem.a_stacked.fget
        monkeypatch.setattr(PerturbationSystem, "a_stacked", property(lambda s: 2.0 * stack(s)))
        with pytest.raises(NumericalError, match="stacked objective"):
            design(real, [(0.5, scenario.weights, LambdaPolicy())])
