"""Mod-p^2 arithmetic: p-adic Gamma, the shadow sums, classical checks."""

from fractions import Fraction

import pytest

from qsupercheck.padic import (
    padic_gamma,
    rational_residue,
    shadow_sum,
    verify_classical,
)
from qsupercheck.results import Status

from oracles import (
    classical_lhs_sum,
    rising_factorial_mod,
    wlt_integrality_value,
    written_out_classical,
)


def test_gamma_at_one_is_minus_one():
    for p in (3, 5, 7):
        assert padic_gamma(p, 2, 1) == p * p - 1


def test_gamma_at_zero_is_one():
    assert padic_gamma(5, 2, 0) == 1
    assert padic_gamma(7, 1, 0) == 1


def test_gamma_product_formula_example():
    # (-1)^3 * 1 * 2 = -2 = 23 mod 25.
    assert padic_gamma(5, 2, 3) == 23


def test_gamma_rejects_bad_prime():
    with pytest.raises(ValueError):
        padic_gamma(4, 2, 1)
    with pytest.raises(ValueError):
        padic_gamma(2, 2, 1)


def test_gamma_functional_equation():
    # Gamma_p(m+1) = -m Gamma_p(m) mod p^2 whenever p does not divide m.
    for p in (3, 5, 7):
        modulus = p * p
        for m in range(1, modulus):
            if m % p == 0:
                continue
            lhs = padic_gamma(p, 2, m + 1)
            rhs = -m * padic_gamma(p, 2, m) % modulus
            assert lhs == rhs


def test_gamma_well_defined_on_residues():
    assert padic_gamma(5, 2, 3) == padic_gamma(5, 2, 28)
    assert padic_gamma(5, 2, Fraction(-1, 3)) == padic_gamma(5, 2, 8)


def test_rising_factorial_examples():
    assert rising_factorial_mod(Fraction(1, 2), 0, 5) == 1
    assert rising_factorial_mod(1, 4, 5) == 24
    # (1/2)(3/2) = 3/4 = 3 * 19 = 7 mod 25.
    assert rising_factorial_mod(Fraction(1, 2), 2, 5) == 7


def test_rising_factorial_denominator_guard():
    with pytest.raises(ZeroDivisionError):
        rising_factorial_mod(Fraction(1, 5), 2, 5)


def test_rational_residue():
    assert rational_residue(Fraction(3, 4), 5) == 3 * 19 % 25
    with pytest.raises(ZeroDivisionError):
        rational_residue(Fraction(1, 10), 5)


def test_rv_sum_value_at_5():
    result = verify_classical("rv_11", p=5)
    assert result.status is Status.HOLDS
    assert result.params == {"p": 5}  # d = 2 is the row's, not a parameter
    assert verify_classical("rv_11", p=9).status is Status.SKIPPED_PRECONDITION


def test_deines_skips_wrong_residue_class():
    assert verify_classical(
        "deines_12", d=3, p=5).status is Status.SKIPPED_PRECONDITION


def test_cor41_examples():
    assert verify_classical(
        "cor41_ii", d=3, r=1, p=5).status is Status.HOLDS
    assert verify_classical(
        "cor41_i", d=4, r=1, p=7).status is Status.HOLDS
    assert verify_classical(
        "cor41_i", d=4, r=1, p=5).status is Status.SKIPPED_PRECONDITION


def test_gamma_factorial_example():
    assert verify_classical(
        "gamma_factorial", d=4, r=1, p=7).status is Status.HOLDS


def test_wlt_integrality():
    value = wlt_integrality_value(3, 5)
    assert value.denominator == 1
    num, den = shadow_sum("lemma21", 3, 1, 4)
    assert Fraction(num, 25) == value
    assert den == 24**3 * 3 ** (3 * 5 - 3)
    assert verify_classical(
        "wlt_integrality", d=3, n=5).status is Status.HOLDS
    assert verify_classical(
        "wlt_integrality", d=3, n=4).status is Status.SKIPPED_PRECONDITION


def test_classical_sum_matches_direct_rational_computation():
    # Independent oracle: accumulate the k-th terms as exact fractions,
    # then reduce once mod p^2.
    d, r, p = 3, 1, 5
    total = Fraction(0)
    fact = 1
    for k in range(p):
        if k:
            fact *= k
        term = Fraction(1, fact**d)
        for base, mult in ((Fraction(d + r, d), d - r - 1),
                           (Fraction(r, d), r + 1)):
            value = Fraction(1)
            for i in range(k):
                value *= base + i
            term *= value**mult
        total += term
    assert Fraction(*shadow_sum("thm42", d, r, p - 1)) == total
    expected = (total.numerator * pow(total.denominator, -1, p * p)) % (p * p)
    assert classical_lhs_sum("thm42", d, r, p) == expected


def test_rational_residue_defining_property():
    # value * b == a (mod p^k) for x = a/b with p not dividing b.
    for a, b, p in ((3, 4, 5), (-7, 9, 11), (22, 21, 5)):
        res = rational_residue(Fraction(a, b), p)
        assert res * b % (p * p) == a % (p * p)


def test_gamma_factorial_shares_the_gcd_condition_of_thm42():
    # p + r = d with p | d and p | r: outside the paper's conditions, and
    # (p-1-m)!/m!^(d-1) = 6 is not -(-1)^m Gamma_p(-1/2)^10 = 1 mod 25.
    result = verify_classical("gamma_factorial", d=10, r=5, p=5)
    assert result.status is Status.SKIPPED_PRECONDITION
    assert result.note == "as thm42 at n = p: requires gcd(d, r) = 1"


def test_skip_notes_read_in_terms_of_p():
    assert verify_classical("rv_11", p=9).note == \
        "requires a prime p >= 3"
    assert verify_classical("cor41_ii", d=2, r=1, p=3).note == \
        "requires a prime p >= 5"
    assert verify_classical("cor41_i", d=4, r=1, p=5).note == \
        "as lemma21 at n = p: requires n == -r (mod d)"
    assert verify_classical("wlt_integrality", d=3, n=4).note == \
        "as thm13: requires n == -1 (mod d)"


def test_shadow_sum_refuses_multiplicities_off_d():
    # lemma21 at d = 1, r = 1 keeps the bases 1 and 0: two over one.
    with pytest.raises(ValueError):
        shadow_sum("lemma21", 1, 1, 3)


def _classical_grid():
    for p in range(2, 120):
        yield "rv_11", {"p": p}
        for d in range(1, 12):
            yield "deines_12", {"d": d, "p": p}
            for r in range(10):
                for cid in ("cor41_i", "cor41_ii", "gamma_factorial"):
                    yield cid, {"d": d, "r": r, "p": p}
    for d in range(1, 9):
        for n in range(1, 60):
            yield "wlt_integrality", {"d": d, "n": n}


def test_shadow_checks_match_the_written_out_checks_past_the_grid():
    changed, count = [], 0
    for cid, params in _classical_grid():
        count += 1
        result = verify_classical(cid, **params)
        if (result.status, result.witness) != written_out_classical(cid,
                                                                    params):
            changed.append((cid, params))
    assert count == 40828
    assert changed == [("gamma_factorial", {"d": 10, "r": 5, "p": 5})]
    assert written_out_classical(*changed[0]) == (Status.FAILS,
                                                  "6 != 1 (mod 5^2)")
