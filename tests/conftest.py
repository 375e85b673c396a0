"""Fixtures shared by every test module."""

import pytest

from qsupercheck import parametric, qfuncs, verifier

# Every process-wide memo of the package.
_MEMOS = (parametric._left_side, parametric._same_shape,
          qfuncs._failing_term, verifier._left_side)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test decides its instances afresh: a test that patches the
    engine must not read a parametric sum, an a = 1 shape, a theorem's
    left side or a termwise verdict that an earlier call stored."""
    for memo in _MEMOS:
        memo.cache_clear()
    yield
    for memo in _MEMOS:
        memo.cache_clear()
