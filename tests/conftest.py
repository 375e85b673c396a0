"""Fixtures shared by every test module."""

import pytest

from qsupercheck import parametric


@pytest.fixture(autouse=True)
def _fresh_parametric_verdicts():
    """Each test decides its parametric instances afresh: a test that
    patches the engine must not read a verdict that an earlier call
    certified."""
    parametric._CERTIFIED.clear()
    yield
    parametric._CERTIFIED.clear()
