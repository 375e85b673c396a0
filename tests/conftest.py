"""Fixtures shared by every test module."""

import pytest

from qsupercheck import parametric


@pytest.fixture(autouse=True)
def _fresh_parametric_verdicts():
    """Each test decides its parametric instances afresh: a test that
    patches the engine must not read a verdict, or an a = 1 shape, that an
    earlier call stored."""
    parametric._witness.cache_clear()
    parametric._same_shape.cache_clear()
    yield
    parametric._witness.cache_clear()
    parametric._same_shape.cache_clear()
