"""Fixtures shared by every test module."""

import pytest

from qsupercheck import parametric


@pytest.fixture(autouse=True)
def _fresh_parametric_verdicts():
    """Each test decides its parametric instances afresh: a test that
    patches the engine must not read a verdict, or an a = 1 shape, that an
    earlier call stored."""
    parametric._CERTIFIED.clear()
    parametric._SAME_SHAPE.clear()
    yield
    parametric._CERTIFIED.clear()
    parametric._SAME_SHAPE.clear()
