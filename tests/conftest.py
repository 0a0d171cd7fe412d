"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# First calls inside property tests may build whole netlists (hundreds of
# ms); wall-clock deadlines would make such tests flaky, so disable them
# globally and rely on example counts instead.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need randomness share this seed."""
    return np.random.default_rng(0xC1EE)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running verification test")
