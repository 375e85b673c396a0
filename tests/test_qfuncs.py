"""q-shifted factorials and Gaussian binomials."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsupercheck import identities
from qsupercheck.catalog import run_check
from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.poly import Poly
from qsupercheck.qfuncs import (
    DegenerateProductError,
    QMonomial,
    inflate,
    one_minus_normal_form,
    one_minus_product,
    q_binomial,
    q_pochhammer,
    truncated_sum,
)
from qsupercheck.results import Status


def test_pochhammer_two_factor_product():
    # (q^-1; q^2)_2 = (1 - q^-1)(1 - q) = 2 - q - q^-1.
    result = q_pochhammer(QMonomial(1, -1), 2, 2)
    assert result == Laurent(Poly((-1, 2, -1)), -1)


def test_pochhammer_empty_product():
    assert q_pochhammer(QMonomial(Fraction(3, 7), 9), 4, 0) == Laurent(Poly((1,)))


def test_pochhammer_negative_index_convention():
    # (q^3; q^2)_{-1} = 1 / (1 - q^3 q^-2) = 1 / (1 - q).
    result = q_pochhammer(QMonomial(1, 3), 2, -1)
    assert result == RatFunc(Laurent(Poly((1,))), Poly((1, -1)))


def test_pochhammer_negative_index_degenerate():
    # x = q^2 with step 2 makes the j = 1 reciprocal factor vanish.
    with pytest.raises(DegenerateProductError):
        q_pochhammer(QMonomial(1, 2), 2, -1)


def test_qmonomial_rejects_zero():
    with pytest.raises(ValueError):
        QMonomial(0, 3)


def test_q_binomial_examples():
    assert q_binomial(7, 0) == Poly((1,))
    assert q_binomial(4, 2) == Poly((1, 1, 2, 1, 1))
    assert q_binomial(3, 5).is_zero()
    assert q_binomial(3, -1).is_zero()


def _pascal_table(n_max):
    """Oracle: build [n k] from the q-Pascal recurrence only."""
    table = {(0, 0): Poly((1,))}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            left = table.get((n - 1, k - 1), Poly())
            right = table.get((n - 1, k), Poly())
            table[(n, k)] = left + right.shift(k) if right else left
    return table


def test_pascal_recurrence_oracle():
    table = _pascal_table(20)
    for (n, k), expected in table.items():
        assert q_binomial(n, k) == expected


@pytest.mark.parametrize("n", range(0, 16))
def test_symmetry(n):
    for k in range(n + 1):
        assert q_binomial(n, k) == q_binomial(n, n - k)


def test_pochhammer_telescoping():
    rng = random.Random(3)
    for _ in range(60):
        x = QMonomial(Fraction(rng.randint(2, 9), rng.randint(1, 9)),
                      rng.randint(-4, 4))
        step = rng.randint(1, 4)
        k = rng.randint(0, 5)
        longer = q_pochhammer(x, step, k + 1)
        shorter = q_pochhammer(x, step, k)
        factor = Laurent(Poly((1,))) - Laurent(Poly((x.coeff,)), x.exp + step * k)
        assert longer == shorter * factor


def test_negative_positive_consistency():
    rng = random.Random(11)
    for _ in range(40):
        coeff = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        if coeff == 1:
            continue
        x = QMonomial(coeff, rng.randint(-3, 3))
        step = rng.randint(1, 3)
        for k in range(-4, 5):
            shifted = QMonomial(x.coeff, x.exp + step * k)
            forward = q_pochhammer(x, step, k)
            backward = q_pochhammer(shifted, step, -k)
            product = RatFunc(forward) if isinstance(forward, Laurent) else forward
            product = product * backward
            assert product == 1


def test_inflate():
    assert inflate(Poly((1, 2, 3)), 3) == Poly((1, 0, 0, 2, 0, 0, 3))
    assert inflate(Poly((1, 1)), 1) == Poly((1, 1))


def test_exact_rational_invariants():
    # The coefficient field: gcd-normalized, denominator always positive.
    x = Fraction(-6, -8)
    assert (x.numerator, x.denominator) == (3, 4)
    y = Fraction(4, -6)
    assert (y.numerator, y.denominator) == (-2, 3)
    assert Fraction(0, 5) == Fraction(0, 1)
    assert (Fraction(1, 3) + Fraction(1, 6)).denominator == 2


def test_truncated_sum_two_terms_by_hand():
    # 1/(1 - q) + q^2 (1 - q^3)(1 - q) / ((1 - q)(1 - q^2)) over the common
    # denominator (1 - q)(1 - q^2): N = (1 - q^2) + q^2 (1 - q^3)(1 - q).
    num, den = truncated_sum(2, [([], [1], []), ([3], [2], [1])])
    assert num == Laurent(Poly((1, 0, 0, -1, 0, -1, 1)))
    assert den == Laurent(Poly((1, -1, -1, 1)))


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_truncated_sum_negative_exponent(d):
    factor = Laurent.one_minus(1, 1 - d)  # -q^{1-d} (1 - q^{d-1})
    assert factor == Laurent(Poly((-1,) + (0,) * (d - 2) + (1,)), 1 - d)
    assert truncated_sum(1, [([1 - d], [], [])]) == (factor, Laurent(Poly((1,))))
    assert truncated_sum(1, [([], [1 - d], [])]) == (Laurent(Poly((1,))), factor)
    num, den = truncated_sum(d, [([], [], []), ([1 - d], [d], [1 - d])])
    assert num == one_minus_product([d]) + factor * factor * Laurent.term(1, d)
    assert den == one_minus_product([d])


def test_truncated_sum_numerator_zero_ends_the_sum():
    num, den = truncated_sum(1, [([], [1], []), ([0], [2], []), ([5], [3], [])])
    assert num == one_minus_product([2, 3])
    assert den == one_minus_product([1, 2, 3])
    # A term-only factor 1 - q^0 drops that term alone.
    num, den = truncated_sum(1, [([], [], [0]), ([1], [], [])])
    assert num == Laurent(Poly((0, 1, -1)))
    assert den == Laurent(Poly((1,)))


def test_truncated_sum_denominator_zero_raises():
    with pytest.raises(DegenerateProductError):
        truncated_sum(1, [([], [], []), ([1], [0], [])])


def test_denominator_zero_reads_as_fails(monkeypatch):
    real = identities.truncated_sum

    def with_zero(step, increments):
        *head, (a, b, c) = increments
        return real(step, head + [(a, b + [0], c)])

    monkeypatch.setattr(identities, "truncated_sum", with_zero)
    result = run_check("sum_decomposition", {"d": 3, "n": 4})
    assert result.status is Status.FAILS
    assert result.witness.startswith("DegenerateProductError")


def _laurent_product(exps):
    """Oracle: the factors multiplied one Laurent product at a time."""
    return functools.reduce(operator.mul, (Laurent.one_minus(1, e) for e in exps),
                            Laurent(Poly((1,))))


_exponents = st.lists(st.integers(-6, 6), max_size=5)
_nonzero = _exponents.map(lambda es: [e for e in es if e])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=10))
def test_one_minus_product_matches_laurent_products(exps):
    assert one_minus_product(exps) == _laurent_product(exps)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3),
       st.lists(st.tuples(_exponents, _nonzero, _exponents), min_size=1,
                max_size=4))
def test_truncated_sum_matches_rational_sum(step, increments):
    num, den = truncated_sum(step, increments)
    total = RatFunc(Laurent(Poly()))
    a, b = [], []
    for k, (a_k, b_k, c_k) in enumerate(increments):
        a, b = a + a_k, b + b_k
        total = total + RatFunc(_laurent_product(a + c_k).shifted(step * k),
                                _laurent_product(b))
    assert den == _laurent_product(b)
    assert RatFunc(num, den) == total


def _product(shift, num, den):
    """Oracle: the quotient as cross-multipliable Laurent products."""
    return one_minus_product(num).shifted(shift), one_minus_product(den)


@settings(max_examples=300, deadline=None)
@given(st.integers(-4, 4), _exponents, _nonzero,
       st.integers(-4, 4), _exponents, _nonzero)
def test_normal_form_equality_matches_products(s1, num1, den1, s2, num2, den2):
    n1, d1 = _product(s1, num1, den1)
    n2, d2 = _product(s2, num2, den2)
    same = one_minus_normal_form(s1, num1, den1) == one_minus_normal_form(
        s2, num2, den2)
    assert same == (n1 * d2 == n2 * d1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-4, 4), _exponents, _nonzero,
       st.randoms(use_true_random=False))
def test_normal_form_sees_rearranged_quotients_equal(shift, num, den, rnd):
    # The same quotient written another way: shuffled, with a common factor
    # on both sides and each negative exponent e as -q^e (1 - q^-e).
    sign, extra = 1, 0
    num2 = []
    for e in num:
        if e < 0:
            sign, extra = -sign, extra + e
        num2.append(abs(e))
    num2 += [5]
    den2 = den + [5]
    rnd.shuffle(num2)
    form = one_minus_normal_form(shift, num, den)
    other = one_minus_normal_form(shift + extra, num2, den2)
    if form is None:
        assert other is None
    else:
        assert form == (other[0] * sign, other[1], other[2])


def test_normal_form_degenerate_factors():
    assert one_minus_normal_form(3, [2, 0], [1]) is None
    with pytest.raises(DegenerateProductError):
        one_minus_normal_form(0, [1], [0])
    assert one_minus_normal_form(0, [-2], []) == (-1, -2, frozenset({(2, 1)}))
    assert one_minus_normal_form(1, [6, 2], [2, 3]) == (
        1, 1, frozenset({(6, 1), (3, -1)}))
