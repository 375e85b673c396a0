"""Parametric congruences at a = q^n, a = q^-n, and the a = 1 collapse."""

import pytest

from qsupercheck.parametric import (
    _sum_sides,
    numerator_entries,
    parametric_precondition,
    rhs_band,
    verify_parametric,
)
from qsupercheck.results import Status


def test_substituted_sums_vanish_exactly():
    for s in (1, -1):
        num, _ = _sum_sides("p1_24", 4, 1, 7, s)
        assert num.is_zero()


def test_examples_hold():
    assert verify_parametric("p1_24", 4, 1, 7).status is Status.HOLDS
    assert verify_parametric("p4_33", 3, 1, 5).status is Status.HOLDS
    assert verify_parametric("p6_44", 2, 1, 3).status is Status.HOLDS


def test_pattern_lists_are_negation_symmetric():
    for cid, d, r in (("p1_24", 4, 1), ("p2_25", 7, 3), ("p5_43", 5, 2),
                      ("p7_45", 7, 3), ("p8_46", 5, 3)):
        entries = numerator_entries(cid, d, r)
        as_set = sorted((j, e, off) for j, e, off in entries)
        mirrored = sorted((-j, e, off) for j, e, off in entries)
        assert as_set == mirrored
        band = rhs_band(cid, d, r)
        assert sorted(band) == sorted(-j for j in band)


def test_pattern_collapses_termwise_at_a_equals_one():
    # Multiplicity bookkeeping: the a = 1 multiset of (q-exponent, index)
    # pairs must match the reference summand shape.
    entries = numerator_entries("p2_25", 7, 3)
    k_index = [e for _, e, off in entries if off == 0]
    shifted = [e for _, e, off in entries if off == -2]
    assert len(k_index) == 7 - 3 - 1 and set(k_index) == {10}
    assert len(shifted) == 3 + 1 and set(shifted) == {10}


def test_preconditions():
    assert parametric_precondition("p1_24", 4, 1, 7) is None
    assert parametric_precondition("p1_24", 4, 1, 6) is not None
    assert parametric_precondition("p1_24", 5, 1, 9) is not None  # parity
    assert parametric_precondition("p7_45", 4, 3, 5) is not None
    assert parametric_precondition("p8_46", 5, 3, 7) is None
    result = verify_parametric("p1_24", 4, 1, 6)
    assert result.status is Status.SKIPPED_PRECONDITION


def test_mutated_closed_forms_fail():
    for mutation in ("sign", "exponent"):
        result = verify_parametric("p5_43", 4, 1, 7, mutation=mutation)
        assert result.status is Status.FAILS


def test_vanishing_families_reject_mutation():
    with pytest.raises(ValueError):
        verify_parametric("p1_24", 4, 1, 7, mutation="sign")
