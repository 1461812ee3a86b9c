"""Shared fixtures: small spaces used across the suite.

Property tests run under a fixed, derandomized hypothesis profile, so every
run draws the same examples and writes no example database.
"""

import pytest
from hypothesis import settings

from idealtop import Ideal, IdealSpace, sierpinski

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def sierp():
    return sierpinski()


@pytest.fixture
def sierp_space(sierp):
    """Sierpinski topology with the {1}-carrier ideal."""
    return IdealSpace(sierp, Ideal(2, 0b10))
