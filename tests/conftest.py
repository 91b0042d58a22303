import numpy as np
import pytest
from oracles import bs_steering_for

from ris_isac import build_channels, child_rng, load_default_scenario


@pytest.fixture(scope="session")
def scenario():
    return load_default_scenario()


@pytest.fixture(scope="session")
def small_scenario(scenario):
    """Desk-scale variant: 4x4 RIS, balanced trade-off."""
    return scenario.replace(ris_rows=4, ris_cols=4, alpha=0.5)


@pytest.fixture(scope="session")
def channels(scenario):
    return build_channels(scenario, child_rng(scenario.seed, 0))


@pytest.fixture(scope="session")
def g_bs(scenario):
    """BS-side steering of the shipped scenario, a pre-MRT oracle quantity."""
    return bs_steering_for(scenario)


@pytest.fixture()
def beta_g(scenario):
    """BS-RIS path gain of the `scenario` fixture, a pre-MRT oracle quantity."""
    return scenario.path_gains[0]


def random_unit_channels(rng, n):
    """Random unit-modulus steering-like vectors plus a random fading vector."""
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return h, a
