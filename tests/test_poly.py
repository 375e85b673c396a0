"""Exact polynomial, Laurent, and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.poly import (
    Poly,
    divrem,
    exact_div,
    gcd,
    pack,
    poly_prod,
    unpack,
    xgcd,
)

Q = Poly((0, 1))


def test_divrem_difference_of_squares():
    quo, rem = divrem(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert quo == Poly((1, 1))
    assert rem.is_zero()


def test_divrem_identity_case():
    quo, rem = divrem(Q, Q)
    assert quo == Poly((1,))
    assert rem.is_zero()


def test_divrem_long_division():
    # Hand-checked long division: q^3 + 2q + 1 = q (q^2 + 1) + (q + 1).
    a, b = Poly((1, 2, 0, 1)), Poly((1, 0, 1))
    quo, rem = divrem(a, b)
    assert (quo, rem) == (Q, Poly((1, 1)))
    assert b * quo + rem == a
    assert rem.degree < b.degree


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        divrem(Q, Poly())


def test_xgcd_coprime_linear():
    a, b = Poly((-1, 1)), Poly((1, 1))
    g, s, t = xgcd(a, b)
    assert g == Poly((1,))
    assert s * a + t * b == g


def test_xgcd_divisor_case():
    g, s, t = xgcd(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert g == Poly((-1, 1))
    assert s * Poly((-1, 0, 1)) + t * Poly((-1, 1)) == g


def test_xgcd_cyclotomic_unit():
    # Phi_5(0) = 1, so q is invertible mod Phi_5; confirm the Bezout
    # identity by explicit multiplication.
    phi5 = Poly((1, 1, 1, 1, 1))
    g, s, t = xgcd(phi5, Q)
    assert g == Poly((1,))
    assert s * phi5 + t * Q == Poly((1,))


def _horner(f, x):
    """Exact value of the polynomial f at x."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def _random_poly(rng, max_deg=8):
    return Poly([rng.randint(-99, 99) for _ in range(rng.randint(0, max_deg + 1))])


def test_ring_axioms_on_random_samples():
    rng = random.Random(20240311)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_divrem_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        quo, rem = divrem(a, b)
        assert b * quo + rem == a
        assert rem.degree < b.degree


def test_laurent_multiplication_matches_shifted_dense():
    # Shift both factors to dense polynomials, multiply there, and shift
    # back: the result must agree with direct Laurent multiplication.
    rng = random.Random(99)
    for _ in range(200):
        fa, fb = _random_poly(rng, 6), _random_poly(rng, 6)
        ea, eb = rng.randint(-5, 5), rng.randint(-5, 5)
        prod = Laurent(fa, ea) * Laurent(fb, eb)
        assert prod == Laurent(fa * fb, ea + eb)
        if not prod.is_zero():
            assert prod.body.constant() != 0


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        f, g = _random_poly(rng, 6), _random_poly(rng, 6)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert _horner(f * g, x) == _horner(f, x) * _horner(g, x)
        assert _horner(f + g, x) == _horner(f, x) + _horner(g, x)


@given(st.lists(st.integers(-50, 50), max_size=7),
       st.lists(st.integers(-50, 50), max_size=7))
def test_multiplication_commutes(a, b):
    assert Poly(a) * Poly(b) == Poly(b) * Poly(a)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=7),
       st.lists(st.integers(-50, 50), max_size=9))
@settings(max_examples=60)
def test_exact_division_inverts_multiplication(a, b):
    pa, pb = Poly(a), Poly(b)
    if pa.is_zero():
        return
    assert exact_div(pa * pb, pa) == pb


def test_kronecker_path_agrees_with_schoolbook():
    rng = random.Random(17)
    a = Poly([rng.randint(-10**6, 10**6) for _ in range(150)] + [1])
    b = Poly([rng.randint(-10**6, 10**6) for _ in range(90)] + [1])
    from qsupercheck.poly import _mul_schoolbook

    assert list((a * b).coeffs) == _mul_schoolbook(a.coeffs, b.coeffs)


def test_gcd_of_shared_factor():
    shared = Poly((1, 2, 1))
    assert gcd(shared * Poly((3, 1)), shared * Poly((-1, 1))) == shared * Fraction(1)


def test_poly_prod_empty_is_one():
    assert poly_prod([]) == Poly((1,))


def test_ratfunc_normalization_invariants():
    f = RatFunc(Laurent(Poly((0, -2, 0, 2))), Poly((0, 0, 4, 4)))
    assert f.den.leading() == 1
    assert f.den.constant() != 0
    assert gcd(f.num.body, f.den).degree == 0


def test_ratfunc_arithmetic_small():
    one_over_1mq = RatFunc(Laurent(Poly((1,))), Poly((1, -1)))
    qpow = Laurent(Poly((1,)), 3)
    combined = one_over_1mq * qpow + 1
    assert combined == RatFunc(Laurent(Poly((1, -1, 0, 1))), Poly((1, -1)))


def test_xgcd_result_divides_both_inputs():
    rng = random.Random(31)
    for _ in range(100):
        a, b = _random_poly(rng, 5), _random_poly(rng, 5)
        if a.is_zero() and b.is_zero():
            continue
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()


@st.composite
def _digits(draw):
    """(coefficients, nbytes) with every coefficient a balanced digit below
    2^(8 nbytes - 1) in absolute value, the extremes drawn often."""
    nbytes = draw(st.integers(1, 5))
    top = (1 << (8 * nbytes - 1)) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    return draw(st.lists(digit, max_size=12)), nbytes


@settings(max_examples=300, deadline=None)
@given(_digits())
def test_pack_unpack_round_trip(case):
    coeffs, nbytes = case
    value = pack(coeffs, nbytes)
    assert value == _horner(Poly(coeffs), 1 << (8 * nbytes))
    assert Poly(unpack(value, nbytes)) == Poly(coeffs)
