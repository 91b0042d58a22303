from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import beampattern_gain_general, mrt_beamformer
from ris_isac import (
    ConfigError,
    LambdaPolicy,
    build_system,
    child_rng,
    comm_optimal_phase,
    design,
    gain_upper_bound,
    realize,
    solve_perturbation,
)
from ris_isac.errors import IllPosedWarning, NumericalError, ShapeError
from ris_isac.perturb import PerturbationSystem, eta_targets


def toy_prefactor(p=1.0, m=1, beta=1.0):
    """The link gain P*beta_g*M of toy link scalars."""
    return p * beta * m


def random_system(rng, n, k, gain_prefactor=1.0):
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a_targets = [np.exp(1j * rng.uniform(-np.pi, np.pi, n)) for _ in range(k)]
    return build_system(h, a_targets, gain_prefactor)


def random_problem(rng, n, k, gain_prefactor=1.0):
    """A random system and beam-sum targets for it, drawn in that order."""
    return random_system(rng, n, k, gain_prefactor), rng.uniform(0.0, n, k)


def solve_one(system, eta_bar, lam):
    """The report fields of one design, with the cell axis dropped."""
    report = solve_perturbation(system, [eta_bar], [lam])
    return SimpleNamespace(**{name: value[0] for name, value in vars(report).items()})


class TestRisPhase:
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        w=st.floats(min_value=0.0, max_value=1.0),
        fraction=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, small_scenario, alpha, w, fraction, seed):
        """Every configuration design returns has |v_n| = 1, also where the
        zero-ridge pseudo-inverse makes the perturbation large."""
        real = realize(small_scenario.replace(seed=seed))
        weights = (w, 1.0 - w)
        cells = [
            (alpha, weights, LambdaPolicy("fixed_fraction", fraction)),
            (alpha, weights, LambdaPolicy("adaptive")),
        ]
        np.testing.assert_allclose(np.abs(design(real, cells).v_final), 1.0, atol=1e-12)


class TestEta:
    def test_exact_gain_identity(self, scenario, channels, beta_g, g_bs):
        """The pre-MRT gain of the composed phases under the matched beamformer
        equals the exact beam-sum form."""
        rng = child_rng(11)
        v_star = comm_optimal_phase(channels.h_ue, channels.g_ris)
        sys_ = build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor)
        w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)
        for _ in range(20):
            rotation = np.exp(1j * rng.uniform(-0.5, 0.5, 441))
            v = v_star * rotation
            for a, eta in zip(channels.a_targets, sys_.eta_exact_all(rotation)):
                gain = beampattern_gain_general(
                    w_star, beta_g, g_bs, channels.g_ris, v, a
                )
                assert gain == pytest.approx(channels.gain_prefactor * abs(eta) ** 2, rel=1e-9)

    def test_linearized_matches_exact_at_zero(self, channels):
        sys_ = build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor)
        z = np.zeros(441)
        np.testing.assert_allclose(sys_.eta_linearized_all(z), sys_.eta_exact_all(np.exp(1j * z)))

    @given(scale=st.floats(min_value=1e-4, max_value=0.3))
    @settings(max_examples=25, deadline=None)
    def test_taylor_bound(self, scale):
        rng = child_rng(12)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
        sys_ = build_system(h, [a], 1.0)
        dphi = scale * rng.standard_normal(16)
        gap = abs(sys_.eta_exact_all(np.exp(1j * dphi))[0] - sys_.eta_linearized_all(dphi)[0])
        assert gap <= np.sum(dphi**2) / 2.0 + 1e-12

    def test_eta_targets(self):
        np.testing.assert_allclose(eta_targets(0.5, (0.5, 0.5), 441), [110.25, 110.25])
        with pytest.raises(ConfigError):
            eta_targets(0.5, (0.6, 0.6), 441)


class TestBuildSystem:
    def test_stacked_objective_equivalence(self):
        """Real stacked least squares reproduces the weighted complex objective."""
        rng = child_rng(13)
        for _ in range(100):
            n = int(rng.integers(4, 64))
            k = int(rng.integers(1, 5))
            prefactor = toy_prefactor(
                p=float(rng.uniform(0.1, 10)), m=int(rng.integers(1, 16)),
                beta=float(rng.uniform(1e-8, 1.0)),
            )
            sys_, eta_bar = random_problem(rng, n, k, prefactor)
            dphi = rng.standard_normal(n)
            lhs = np.linalg.norm(sys_.a_stacked @ dphi - sys_.b_stacked(eta_bar)) ** 2
            etas = sys_.eta_linearized_all(dphi)
            rhs = sys_.scale**2 * np.sum(np.abs(etas - eta_bar) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_overdetermined_warns(self):
        rng = child_rng(14)
        with pytest.warns(IllPosedWarning):
            random_system(rng, 3, 5)

    def test_shape_errors(self):
        rng = child_rng(15)
        h = rng.standard_normal(8) + 0j
        with pytest.raises(ShapeError):
            build_system(h, [], 1.0)
        with pytest.raises(ShapeError):
            solve_perturbation(build_system(h, [np.ones(8)], 1.0), [[1.0, 2.0]], [0.0])

    def test_batch_solve_matches_fresh_builds(self):
        """One factorization serves a batch of targets exactly as a fresh build
        solves each of them alone."""
        rng = child_rng(22)
        h = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        a_targets = [np.exp(1j * rng.uniform(-np.pi, np.pi, 24)) for _ in range(3)]
        system = build_system(h, a_targets, 1.0)
        eta_bar = np.array([[1.0, 2.0, 3.0], [4.0, 0.5, 7.0]])
        lam = np.array([0.3, 0.0]) * system.sigma_max_normalized
        batch = solve_perturbation(system, eta_bar, lam)
        for i in range(2):
            alone = solve_one(build_system(h, a_targets, 1.0), eta_bar[i], lam[i])
            np.testing.assert_array_equal(batch.delta_phi[i], alone.delta_phi)
            assert batch.objective_value[i] == alone.objective_value
        np.testing.assert_array_equal(system.b_stacked(eta_bar)[1], system.b_stacked(eta_bar[1]))

    def test_check_stacking_catches_corrupt_stack(self, monkeypatch):
        sys_, eta_bar = random_problem(child_rng(23), 16, 2)
        batch = [eta_bar, 2.0 * eta_bar, 0.5 * eta_bar]
        sys_.check_stacking(batch)
        with pytest.raises(ShapeError):
            sys_.check_stacking([[1.0]])

        rhs = PerturbationSystem.b_stacked

        def corrupt_last_cell(system, targets):
            b = rhs(system, targets)
            b[-1] += 1.0
            return b

        monkeypatch.setattr(PerturbationSystem, "b_stacked", corrupt_last_cell)
        with pytest.raises(NumericalError):
            sys_.check_stacking(batch)
        monkeypatch.undo()
        stack = PerturbationSystem.a_stacked.fget
        monkeypatch.setattr(PerturbationSystem, "a_stacked", property(lambda s: 2.0 * stack(s)))
        with pytest.raises(NumericalError):
            sys_.check_stacking(batch)

    def test_svd_shapes_full(self):
        sys_ = random_system(child_rng(16), 12, 2)
        assert sys_.svd_u.shape == (4, 4)
        assert sys_.svd_vt.shape == (12, 12)
        assert np.all(np.diff(sys_.svd_s) <= 0)


class TestLambdaSchedules:
    def test_adaptive_endpoints(self):
        adaptive = LambdaPolicy("adaptive")
        assert adaptive.normalized(0.0, 3.0) == 3.0
        assert adaptive.normalized(1.0, 3.0) == 0.0
        assert adaptive.normalized(0.5, 4.0) == pytest.approx(3.0)

    def test_fixed_fraction(self):
        assert LambdaPolicy("fixed_fraction", 0.1).normalized(0.5, 5.0) == pytest.approx(0.5)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1e6))
    def test_adaptive_nonnegative_decreasing(self, alpha, sigma):
        lam = LambdaPolicy("adaptive").normalized(alpha, sigma)
        assert 0.0 <= lam <= sigma


class TestSolver:
    def test_matches_normal_equation_oracle(self):
        """SVD-filtered solve equals the dense ridge normal equations."""
        rng = child_rng(17)
        for _ in range(12):
            n = int(rng.integers(8, 128))
            k = int(rng.integers(1, 9))
            sys_, eta_bar = random_problem(rng, n, k)
            for frac in (1e-3, 1.0, 10.0):
                lam = frac * sys_.sigma_max_normalized
                report = solve_one(sys_, eta_bar, lam)
                a, b = sys_.a_stacked, sys_.b_stacked(eta_bar)
                oracle = np.linalg.solve(a.T @ a + lam * np.eye(n), a.T @ b)
                np.testing.assert_allclose(report.delta_phi, oracle, rtol=1e-8, atol=1e-10)

    def test_lambda_zero_is_pseudo_inverse(self):
        sys_, eta_bar = random_problem(child_rng(18), 32, 2)
        report = solve_one(sys_, eta_bar, 0.0)
        oracle, *_ = np.linalg.lstsq(sys_.a_stacked, sys_.b_stacked(eta_bar), rcond=None)
        np.testing.assert_allclose(report.delta_phi, oracle, rtol=1e-8, atol=1e-10)

    def test_norm_decreases_with_lambda(self):
        sys_, eta_bar = random_problem(child_rng(19), 32, 2)
        sigma = sys_.sigma_max_normalized
        norms = [
            np.linalg.norm(solve_one(sys_, eta_bar, lam).delta_phi)
            for lam in (0.0, 0.1 * sigma, sigma, 10 * sigma)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_negative_lambda_rejected(self):
        sys_, eta_bar = random_problem(child_rng(20), 8, 1)
        with pytest.raises(ValueError):
            solve_one(sys_, eta_bar, -1.0)

    def test_report_fields(self):
        sys_, eta_bar = random_problem(child_rng(21), 16, 2)
        report = solve_one(sys_, eta_bar, sys_.sigma_max_normalized)
        assert report.lambda_used == pytest.approx(sys_.sigma_max_normalized)
        np.testing.assert_array_equal(report.rotation, np.exp(1j * report.delta_phi))
        assert report.max_abs_perturbation == pytest.approx(
            np.max(np.abs(report.delta_phi))
        )
        assert report.objective_value >= 0
        assert report.linearization_error_bound == pytest.approx(
            np.sum(report.delta_phi**2) / 2
        )


class TestGainUpperBound:
    def test_value(self, channels):
        c = toy_prefactor(p=2.0, m=3, beta=0.5)
        ub = gain_upper_bound(0.5, (0.5, 0.5), c, 100)
        # P*beta*M*(alpha*zeta*N)^2 = 2*0.5*3*(25)^2
        np.testing.assert_allclose(ub, [1875.0, 1875.0])
        ub_db = gain_upper_bound(0.5, (0.5, 0.5), c, 100, db=True)
        np.testing.assert_allclose(ub_db, 10.0 * np.log10([1875.0, 1875.0]), rtol=1e-14)
        # on the shipped scenario the linear ceiling underflows below alpha ~ 4e-162
        # (to -3233.06 dB at 5e-162 and to -inf at 3e-162); the dB form does not
        for alpha, want in ((5e-162, -3234.546499), (3e-162, -3238.983474), (0.0, -np.inf)):
            got = gain_upper_bound(alpha, (0.5, 0.5), channels.gain_prefactor, 441, db=True)
            np.testing.assert_allclose(got, [want, want], rtol=0.0, atol=5e-7)
        assert gain_upper_bound(0.5, (1.0, 0.0), c, 100, db=True)[1] == -np.inf

    def test_increasing_in_alpha(self):
        lo = gain_upper_bound(0.2, (1.0,), 1.0, 10)
        hi = gain_upper_bound(0.8, (1.0,), 1.0, 10)
        assert np.all(hi > lo)
