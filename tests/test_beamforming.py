import numpy as np
import pytest

from oracles import beampattern_gain_general, comm_snr_general, mrt_beamformer
from ris_isac import (
    SystemConstants,
    beampattern_gain,
    child_rng,
    comm_optimal_phase,
    comm_snr_mrt,
)
from ris_isac.beamforming import Metrics, metrics_for, to_db
from ris_isac.errors import DegenerateGeometry, NumericalError, ShapeError


def test_to_db():
    assert to_db(100.0) == pytest.approx(20.0)
    assert to_db(0.0) == -np.inf
    assert to_db(-1.0) == -np.inf


def test_metrics_from_linear():
    m = Metrics.from_linear(10.0, [1.0, 100.0])
    assert m.snr_db == pytest.approx(10.0)
    assert m.gains[1] == (100.0, pytest.approx(20.0))
    for snr, gains in ((np.nan, [1.0]), (np.inf, [1.0]), (1.0, [1.0, np.nan]), (1.0, [-np.inf])):
        with pytest.raises(NumericalError):
            Metrics.from_linear(snr, gains)


class TestMrt:
    def test_power_budget(self, channels):
        w = mrt_beamformer(channels.g_bs, 2.0)
        assert np.linalg.norm(w) ** 2 == pytest.approx(2.0)

    def test_zero_vector(self):
        with pytest.raises(DegenerateGeometry):
            mrt_beamformer(np.zeros(3, dtype=complex), 1.0)

    def test_mrt_maximizes_both_metrics(self, channels, consts):
        """Random unit-power beamformers never beat the matched one."""
        v = comm_optimal_phase(channels.h_ue, channels.g_ris).v
        w_star = mrt_beamformer(channels.g_bs, consts.transmit_power_w)
        snr_star = comm_snr_general(
            w_star, channels.beta_g, channels.g_bs, channels.g_ris,
            channels.h_ue, v, consts.noise_power_w,
        )
        gain_star = beampattern_gain_general(
            w_star, channels.beta_g, channels.g_bs, channels.g_ris, v,
            channels.a_targets[0],
        )
        rng = child_rng(42)
        for _ in range(200):
            w = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            w *= np.sqrt(consts.transmit_power_w) / np.linalg.norm(w)
            snr = comm_snr_general(
                w, channels.beta_g, channels.g_bs, channels.g_ris,
                channels.h_ue, v, consts.noise_power_w,
            )
            gain = beampattern_gain_general(
                w, channels.beta_g, channels.g_bs, channels.g_ris, v,
                channels.a_targets[0],
            )
            assert snr <= snr_star + 1e-9
            assert gain <= gain_star + 1e-9


class TestFactoredForms:
    def test_snr_general_matches_factored(self, channels, consts):
        """The unfactored SNR with the matched beamformer equals the closed form."""
        rng = child_rng(7)
        w_star = mrt_beamformer(channels.g_bs, consts.transmit_power_w)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, 441))
            general = comm_snr_general(
                w_star, channels.beta_g, channels.g_bs, channels.g_ris,
                channels.h_ue, v, consts.noise_power_w,
            )
            factored = comm_snr_mrt(v, channels.h_ue, channels.g_ris, consts)
            assert general == pytest.approx(factored, rel=1e-10)

    def test_gain_general_matches_factored(self, channels, consts):
        rng = child_rng(8)
        w_star = mrt_beamformer(channels.g_bs, consts.transmit_power_w)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(-np.pi, np.pi, 441))
            general = beampattern_gain_general(
                w_star, channels.beta_g, channels.g_bs, channels.g_ris, v,
                channels.a_targets[1],
            )
            factored = beampattern_gain(v, channels.a_targets[1], channels.g_ris, consts)
            assert general == pytest.approx(factored, rel=1e-10)

    def test_shape_checks(self, channels, consts):
        with pytest.raises(ShapeError):
            comm_snr_mrt(np.ones(3), channels.h_ue, channels.g_ris, consts)
        with pytest.raises(ShapeError):
            beampattern_gain(np.ones(3), channels.a_targets[0], channels.g_ris, consts)


class TestOracleValues:
    def test_comm_optimal_snr_frozen(self, channels, consts):
        """Closed-form SNR of the aligned phases for the pinned realization."""
        v = comm_optimal_phase(channels.h_ue, channels.g_ris).v
        snr_db = to_db(comm_snr_mrt(v, channels.h_ue, channels.g_ris, consts))
        assert snr_db == pytest.approx(28.20810878359081, abs=1e-9)

    def test_aligned_sum_is_sum_of_moduli(self, channels, consts):
        # with aligned phases the SNR sum hits its triangle-inequality maximum
        v = comm_optimal_phase(channels.h_ue, channels.g_ris).v
        s = np.abs(np.sum(np.conj(channels.h_ue) * np.conj(v) * channels.g_ris))
        assert s == pytest.approx(float(np.sum(np.abs(channels.h_ue))), rel=1e-12)

    def test_metrics_for(self, channels, consts):
        v = comm_optimal_phase(channels.h_ue, channels.g_ris).v
        (m,) = metrics_for(v[None], channels, consts)
        assert len(m.gains) == 2
        assert m.snr_db == pytest.approx(28.20810878359081, abs=1e-9)
