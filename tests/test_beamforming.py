import numpy as np
import pytest

from oracles import beampattern_gain_general, comm_snr_general, mrt_beamformer
from ris_isac import build_system, child_rng, comm_optimal_phase
from ris_isac.beamforming import (
    Metrics,
    beam_factors,
    beam_gains,
    metric_factors,
    metrics_for,
    to_db,
)
from ris_isac.errors import NumericalError, ShapeError


def test_to_db():
    assert to_db(100.0) == pytest.approx(20.0)
    assert to_db(0.0) == -np.inf
    assert to_db(-1.0) == -np.inf


def test_metrics_from_linear():
    m = Metrics.from_linear([10.0, 1.0], [[1.0, 100.0], [1e3, 0.0]])
    assert m.snr_db[0] == pytest.approx(10.0)
    assert m.gains[0].tolist() == [[1.0, 0.0], [100.0, pytest.approx(20.0)]]
    assert m.snr_db[1] == 0.0
    assert m.gains[1].tolist() == [[1e3, pytest.approx(30.0)], [0.0, -np.inf]]
    for snr, gains in ((np.nan, [1.0]), (np.inf, [1.0]), (1.0, [1.0, np.nan]), (1.0, [-np.inf])):
        with pytest.raises(NumericalError):
            Metrics.from_linear([2.0, snr], [np.ones(len(gains)), gains])


class TestMrt:
    def test_power_budget(self, g_bs):
        w = mrt_beamformer(g_bs, 2.0)
        assert np.linalg.norm(w) ** 2 == pytest.approx(2.0)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            mrt_beamformer(np.zeros(3, dtype=complex), 1.0)

    def test_mrt_maximizes_both_metrics(self, scenario, channels, beta_g, g_bs):
        """Random unit-power beamformers never beat the matched one."""
        v = comm_optimal_phase(channels.h_ue, channels.g_ris)
        w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)
        snr_star = comm_snr_general(
            w_star, beta_g, g_bs, channels.g_ris,
            channels.h_ue, v, scenario.noise_power_w,
        )
        gain_star = beampattern_gain_general(
            w_star, beta_g, g_bs, channels.g_ris, v,
            channels.a_targets[0],
        )
        rng = child_rng(42)
        for _ in range(200):
            w = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            w *= np.sqrt(scenario.transmit_power_w) / np.linalg.norm(w)
            snr = comm_snr_general(
                w, beta_g, g_bs, channels.g_ris,
                channels.h_ue, v, scenario.noise_power_w,
            )
            gain = beampattern_gain_general(
                w, beta_g, g_bs, channels.g_ris, v,
                channels.a_targets[0],
            )
            assert snr <= snr_star + 1e-9
            assert gain <= gain_star + 1e-9


class TestFactoredForms:
    def test_snr_general_matches_factored(self, scenario, channels, beta_g, g_bs):
        """The unfactored SNR with the matched beamformer equals the SNR row of
        the metric factors."""
        rng = child_rng(7)
        w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)
        factors = metric_factors(channels)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, 441))
            general = comm_snr_general(
                w_star, beta_g, g_bs, channels.g_ris,
                channels.h_ue, v, scenario.noise_power_w,
            )
            factored = beam_gains(v, factors)[0]
            assert general == pytest.approx(factored, rel=1e-10)

    def test_gain_general_matches_factored(self, scenario, channels, beta_g, g_bs):
        """The unfactored gain with the matched beamformer equals beam_gains on
        beam_factors, and the target rows of the metric factors."""
        rng = child_rng(8)
        w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)
        factors = beam_factors(np.asarray(channels.a_targets), channels)
        rows = metric_factors(channels)[1:]
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, 441))
            general = [
                beampattern_gain_general(w_star, beta_g, g_bs, channels.g_ris, v, a)
                for a in channels.a_targets
            ]
            np.testing.assert_allclose(beam_gains(v, factors), general, rtol=1e-10)
            np.testing.assert_allclose(beam_gains(v, rows), general, rtol=1e-10)

    def test_shape_checks(self, channels):
        with pytest.raises(ShapeError):
            beam_factors(np.ones(3), channels)
        factors = beam_factors(np.asarray(channels.a_targets), channels)
        with pytest.raises(ShapeError):
            beam_gains(np.ones(3), factors)
        with pytest.raises(ShapeError):
            beam_gains(np.ones(441), factors[0])

    def test_row_alone_equals_row_in_batch(self, channels):
        """beam_gains of one phase vector, and the exact and linearized beam sums of
        one perturbation, are bit-equal to their row in a batch of 33."""
        rng = child_rng(9)
        phases = rng.uniform(-np.pi, np.pi, (33, 441))
        factors = metric_factors(channels)
        system = build_system(channels.h_ue, channels.a_targets, channels.gain_prefactor)
        for beam_sums in (
            lambda x: beam_gains(np.exp(1j * x), factors),
            lambda x: system.eta_exact_all(np.exp(1j * x)),
            system.eta_linearized_all,
        ):
            together = beam_sums(phases)
            for i in (0, 16, 32):
                np.testing.assert_array_equal(beam_sums(phases[i]), together[i])
                np.testing.assert_array_equal(beam_sums(phases[i : i + 1])[0], together[i])


class TestOracleValues:
    def test_comm_optimal_snr_frozen(self, channels):
        """Closed-form SNR of the aligned phases for the pinned realization."""
        v = comm_optimal_phase(channels.h_ue, channels.g_ris)
        snr_db = to_db(beam_gains(v, metric_factors(channels))[0])
        assert snr_db == pytest.approx(28.20810878359081, abs=1e-9)

    def test_aligned_sum_is_sum_of_moduli(self, channels):
        # with aligned phases the SNR sum hits its triangle-inequality maximum
        v = comm_optimal_phase(channels.h_ue, channels.g_ris)
        s = np.abs(np.sum(np.conj(channels.h_ue) * np.conj(v) * channels.g_ris))
        assert s == pytest.approx(float(np.sum(np.abs(channels.h_ue))), rel=1e-12)

    def test_metrics_for(self, channels):
        v = comm_optimal_phase(channels.h_ue, channels.g_ris)
        m = metrics_for(v[None], channels)
        assert m.gains.shape == (1, 2, 2)
        assert m.snr_db[0] == pytest.approx(28.20810878359081, abs=1e-9)
