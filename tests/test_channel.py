import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bs_steering
from ris_isac import build_channels, child_rng, load_default_scenario
from ris_isac.channel import (
    angle_from_positions,
    geometry_steering,
    rician_user_channel,
    ris_steering_rx,
    ris_steering_tx,
    target_angle,
)
from ris_isac.config import SPEED_OF_LIGHT

angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
SHIPPED = load_default_scenario()


def surface(cols=4, rows=3, f=10e9):
    """The shipped scenario with the given RIS array and carrier."""
    return SHIPPED.replace(carrier_hz=f, ris_cols=cols, ris_rows=rows)


class TestChildRng:
    def test_same_path_same_stream(self):
        a = child_rng(7, 3, 1).standard_normal(8)
        b = child_rng(7, 3, 1).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = child_rng(7, 0).standard_normal(8)
        b = child_rng(7, 1).standard_normal(8)
        assert not np.allclose(a, b)


class TestGeometry:
    def test_half_wavelength_default(self):
        g = surface(f=10e9)
        assert g.spacing == pytest.approx(SPEED_OF_LIGHT / 2e10)
        assert g.wavenumber == pytest.approx(np.pi / g.spacing)

    def test_angle_from_positions(self):
        assert angle_from_positions((0, 0), (1, 1)) == pytest.approx(np.pi / 4)
        assert angle_from_positions((30, 30), (100, -20)) == pytest.approx(
            np.deg2rad(-35.53767779197438)
        )


class TestSteering:
    @given(theta=angles, m=st.integers(min_value=1, max_value=16))
    def test_bs_steering_unit_modulus(self, theta, m):
        v = bs_steering(m, theta, surface())
        assert v.shape == (m,)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    @given(theta=angles, cols=st.integers(1, 8), rows=st.integers(1, 8))
    @settings(max_examples=50)
    def test_ris_steering_unit_modulus(self, theta, cols, rows):
        g = surface(cols=cols, rows=rows)
        for f in (ris_steering_tx, ris_steering_rx):
            v = f(g, theta)
            assert v.shape == (cols * rows,)
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    def test_broadside_phases(self):
        # at theta = pi/2 the horizontal cosine term vanishes for both forms,
        # so tx and rx responses coincide and depend only on the row index
        g = surface(cols=3, rows=2)
        tx = ris_steering_tx(g, np.pi / 2)
        rx = ris_steering_rx(g, np.pi / 2)
        np.testing.assert_allclose(tx, rx, atol=1e-12)
        np.testing.assert_allclose(tx[:3], tx[0], atol=1e-12)  # same row, same phase

    def test_row_major_indexing(self):
        # element n=cols has the same horizontal offset as n=0, one row up
        g = surface(cols=4, rows=3)
        theta = 0.3
        v = ris_steering_rx(g, theta)
        row_step = v[4] / v[0]
        np.testing.assert_allclose(v[5] / v[1], row_step, atol=1e-12)

    def test_single_antenna(self):
        np.testing.assert_allclose(np.abs(bs_steering(1, 0.7, surface())), 1.0)


class TestRician:
    def test_pure_los_limit(self):
        a = np.exp(1j * np.linspace(0, 1, 16))
        # kappa is capped at 1e12, leaving a ~1e-6 relative NLOS remnant
        h = rician_user_channel(a, 1e15, 0.01, child_rng(0))
        np.testing.assert_allclose(h, np.sqrt(0.01) * a, atol=1e-5)

    def test_kappa_zero_statistics(self):
        a = np.ones(4000, dtype=complex)
        h = rician_user_channel(a, 0.0, 2.0, child_rng(3))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(2.0, rel=0.1)

    def test_deterministic_given_rng(self):
        a = np.exp(1j * np.linspace(0, 2, 8))
        h1 = rician_user_channel(a, 1.0, 1e-8, child_rng(5))
        h2 = rician_user_channel(a, 1.0, 1e-8, child_rng(5))
        np.testing.assert_array_equal(h1, h2)


class TestBuildChannels:
    def test_shapes_and_values(self, scenario, channels, g_bs):
        assert g_bs.shape == (11,)
        assert channels.g_ris.shape == (441,)
        assert channels.h_ue.shape == (441,)
        assert channels.a_targets.shape == (2, 441)
        for k in range(2):  # the one call over all angles gives each angle's own vector
            np.testing.assert_array_equal(
                channels.a_targets[k], ris_steering_rx(scenario, target_angle(scenario, k))
            )
        assert angle_from_positions(scenario.bs_pos, scenario.ris_pos) == pytest.approx(np.pi / 4)
        assert (target_angle(scenario, 0), target_angle(scenario, 1)) == tuple(
            np.deg2rad([65.0, 90.0])
        )
        assert scenario.path_gains[0] == pytest.approx(2.625428796375616e-07)
        assert channels.gain_prefactor == scenario.gain_prefactor  # bit for bit
        assert scenario.gain_prefactor == (
            scenario.transmit_power_w * scenario.path_gains[0] * scenario.bs_antennas
        )
        assert channels.noise_power_w == scenario.noise_power_w
        assert scenario.path_gains[1] == pytest.approx(1.4570026790857404e-08)

    def test_deterministic(self, scenario):
        c1 = build_channels(scenario, child_rng(scenario.seed, 0))
        c2 = build_channels(scenario, child_rng(scenario.seed, 0))
        np.testing.assert_array_equal(c1.h_ue, c2.h_ue)

    def test_given_steering_draws_the_same_realization(self, scenario):
        steering = geometry_steering(scenario)
        given = build_channels(scenario, child_rng(scenario.seed, 0), steering)
        computed = build_channels(scenario, child_rng(scenario.seed, 0))
        assert given.g_ris is steering[0] and given.a_targets is steering[2]
        for name in ("g_ris", "h_ue", "a_targets"):
            np.testing.assert_array_equal(
                getattr(given, name), getattr(computed, name), err_msg=name, strict=True
            )
