"""q-shifted factorials, Gaussian binomials and the packed kernel."""

import copy
import functools
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsupercheck import identities, parametric, qfuncs, verifier
from qsupercheck.catalog import (
    GRID_PARAMETRIC,
    GRID_THM13,
    paper_default_suite,
    run_check,
)
from qsupercheck.cyclotomic import q_integer
from qsupercheck.families import F7_DIVISIBILITY, family_increments
from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.parametric import (
    PARAMETRIC_IDS,
    _rhs_factors,
    verify_parametric,
)
from qsupercheck.poly import Poly, divrem
from qsupercheck.qfuncs import (
    DegenerateProductError,
    Packed,
    PackingOverflowError,
    cancel_increments,
    one_minus_normal_form,
    one_minus_product,
    packed_width,
    q_binomial,
    relation_vanishes,
    sum_bounds,
    truncated_sum,
)
from qsupercheck.results import Status

from oracles import (
    QMonomial,
    counting_first_failing_term,
    inflate,
    one_minus,
    packed_truncated_sum,
    q_pochhammer,
)


def _denominator(increments):
    """Every b exponent of the increments: the factors of the sum's D."""
    return [e for _, b, _ in increments for e in b]


def _laurent_sum(step, increments):
    """The kernel's N and the product D of every b, each at the width of
    its own bound, unpacked."""
    den = _denominator(increments)
    num = truncated_sum(step, increments, packed_width(sum_bounds(increments)))
    return num.laurent(), one_minus_product(den)


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
    num, den = _laurent_sum(2, [([], [1], []), ([3], [2], [1])])
    assert num == Laurent(Poly((1, 0, 0, -1, 0, -1, 1)))
    assert den == Laurent(Poly((1, -1, -1, 1)))


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_truncated_sum_negative_exponent(d):
    factor = one_minus(1, 1 - d)  # -q^{1-d} (1 - q^{d-1})
    assert factor == Laurent(Poly((-1,) + (0,) * (d - 2) + (1,)), 1 - d)
    assert _laurent_sum(1, [([1 - d], [], [])]) == (factor, Laurent(Poly((1,))))
    assert _laurent_sum(1, [([], [1 - d], [])]) == (Laurent(Poly((1,))), factor)
    num, den = _laurent_sum(d, [([], [], []), ([1 - d], [d], [1 - d])])
    assert num == one_minus_product([d]) + (factor * factor).shifted(d)
    assert den == one_minus_product([d])


def test_truncated_sum_numerator_zero_ends_the_sum():
    num, den = _laurent_sum(1, [([], [1], []), ([0], [2], []), ([5], [3], [])])
    assert num == one_minus_product([2, 3])
    assert den == one_minus_product([1, 2, 3])
    # A term-only factor 1 - q^0 drops that term alone.
    num, den = _laurent_sum(1, [([], [], [0]), ([1], [], [])])
    assert num == Laurent(Poly((0, 1, -1)))
    assert den == Laurent(Poly((1,)))


def test_truncated_sum_denominator_zero_raises():
    with pytest.raises(DegenerateProductError):
        truncated_sum(1, [([], [], []), ([1], [0], [])], 8)


def test_denominator_zero_reads_as_fails(monkeypatch):
    real = identities._decomposition_increments

    def with_zero(d, n):
        sums = real(d, n)
        for increments in sums:
            *head, (a, b, c) = increments
            increments[-1] = (a, b + [0], c)
        return sums

    monkeypatch.setattr(identities, "_decomposition_increments", with_zero)
    result = run_check("sum_decomposition", {"d": 3, "n": 4})
    assert result.status is Status.FAILS
    assert result.witness.startswith("DegenerateProductError")


def _laurent_product(exps):
    """Oracle: the factors multiplied one Laurent product at a time."""
    return functools.reduce(operator.mul, (one_minus(1, e) for e in exps),
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
    num, den = _laurent_sum(step, increments)
    total = RatFunc(Laurent(Poly()))
    a, b = [], []
    for k, (a_k, b_k, c_k) in enumerate(increments):
        a, b = a + a_k, b + b_k
        total = total + RatFunc(_laurent_product(a + c_k).shifted(step * k),
                                _laurent_product(b))
    assert den == _laurent_product(b)
    assert RatFunc(num, den) == total


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3),
       st.lists(st.tuples(_exponents, _nonzero, _exponents), min_size=1,
                max_size=5),
       st.sampled_from((0, 1, 2, 3, 5)))
@example(2, [([], [3], []), ([0, 2], [-1], [1]), ([4], [2], [])], 0)
@example(1, [([2], [-3], [0]), ([-2], [], [1, -1]), ([1], [1], [])], 0)
@example(-2, [([-1], [2], [3]), ([4, -5], [-3], []), ([], [1], [2])], 0)
@example(-3, [([1], [-2], [0]), ([0], [3], [-4]), ([-1], [1], [2])], 2)
@example(3, [([-2, 2], [4], []), ([3], [-1], [0]), ([5], [2], [-3])], 5)
def test_int_kernel_matches_the_packed_object_loop(step, increments, fold):
    # Negative exponents, 1 - q^0 in a and in c, negative steps, fold 0
    # and fold n: the value, offset and bound are the object loop's.
    width = packed_width(sum_bounds(increments, step, fold))
    num = truncated_sum(step, increments, width, fold)
    old = packed_truncated_sum(step, increments, width, fold)
    assert (num.value, num.low, num.bits) == (old.value, old.low, old.bits)
    assert qfuncs._numerator(step, increments, width, fold) == (num.value,
                                                                num.low)


def _assert_cancels_exactly(step, increments):
    """``cancel_increments`` keeps the sum: its D' is a sub-multiset of D,
    N' prod(D minus D') == N, and its bound is no larger."""
    before = [tuple(list(part) for part in inc) for inc in increments]
    rewritten = cancel_increments(increments)
    assert [tuple(inc) for inc in increments] == before  # a pure function
    den, den2 = Counter(_denominator(increments)), Counter(_denominator(rewritten))
    assert not den2 - den
    gone = list((den - den2).elements())
    bits, bits2 = sum_bounds(increments, step), sum_bounds(rewritten, step)
    assert bits2 <= bits
    width = packed_width(max(bits, bits2 + len(gone)))
    assert truncated_sum(step, rewritten, width).times_one_minus(
        gone) == truncated_sum(step, increments, width)


def test_cancel_increments_by_hand():
    # 1 - q^3 from a_1 meets b_2: term 1 keeps it through c_1.
    assert cancel_increments([([], [], []), ([3], [2], []), ([5], [3], [1])]) \
        == [([], [], []), ([], [2], [3]), ([5], [], [1])]
    # The latest unmatched a_j pairs, so the fewest terms take it into c.
    assert cancel_increments([([2], [], []), ([2], [], []), ([], [2], [])]) \
        == [([2], [], []), ([], [], [2]), ([], [], [])]
    # A match inside one increment moves nothing into c.
    assert cancel_increments([([4, 1], [1], [])]) == [([4], [], [])]
    # A later a_j, an associate -e and 1 - q^0 never pair, so the kernel
    # still zeroes later terms by 1 - q^0 or refuses it.
    for fixed in ([([], [5], []), ([5], [], [])], [([-2, 0], [2, 0], [])]):
        assert cancel_increments(fixed) == fixed
    with pytest.raises(DegenerateProductError):
        truncated_sum(1, cancel_increments([([0], [0], [])]), 8)


_small = st.lists(st.integers(-4, 4), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), st.lists(st.tuples(_small, _small, _small),
                                    min_size=1, max_size=6))
def test_cancel_increments_keeps_the_sum(step, increments):
    if any(0 in b for _, b, _ in increments):
        with pytest.raises(DegenerateProductError):
            truncated_sum(step, cancel_increments(increments), 8)
        return
    _assert_cancels_exactly(step, increments)


def test_cancel_increments_fixes_thm13_and_decomposition_sums():
    # Their terms share no factor 1 - q^e, so there is nothing to cancel.
    cases = []
    for cid, p in KERNEL_INSTANCES:
        if cid == "thm13":
            cases.append(family_increments(F7_DIVISIBILITY, p["d"], 1,
                                           p["n"] - 1))
        elif cid == "sum_decomposition":
            cases += identities._decomposition_increments(p["d"], p["n"])
    assert len(cases) > 20
    for increments in cases:
        as_lists = [tuple(list(part) for part in inc) for inc in increments]
        assert cancel_increments(increments) == as_lists


def _product(sign, shift, num, den):
    """Oracle: the quotient as cross-multipliable Laurent products."""
    return one_minus_product(num).shifted(shift) * sign, one_minus_product(den)


_signs = st.sampled_from([1, -1])


@settings(max_examples=300, deadline=None)
@given(_signs, st.integers(-4, 4), _exponents, _nonzero,
       _signs, st.integers(-4, 4), _exponents, _nonzero)
def test_normal_form_equality_matches_products(g1, s1, num1, den1,
                                               g2, s2, num2, den2):
    n1, d1 = _product(g1, s1, num1, den1)
    n2, d2 = _product(g2, s2, num2, den2)
    same = one_minus_normal_form(g1, s1, num1, den1) == one_minus_normal_form(
        g2, s2, num2, den2)
    assert same == (n1 * d2 == n2 * d1)


@settings(max_examples=200, deadline=None)
@given(_signs, st.integers(-4, 4), _exponents, _nonzero,
       st.randoms(use_true_random=False))
def test_normal_form_sees_rearranged_quotients_equal(sign, shift, num, den,
                                                     rnd):
    # The same quotient written another way: shuffled, with a common factor
    # on both sides and each negative exponent e as -q^e (1 - q^-e).
    sign2, extra = sign, 0
    num2 = []
    for e in num:
        if e < 0:
            sign2, extra = -sign2, extra + e
        num2.append(abs(e))
    num2 += [5]
    den2 = den + [5]
    rnd.shuffle(num2)
    form = one_minus_normal_form(sign, shift, num, den)
    other = one_minus_normal_form(sign2, shift + extra, num2, den2)
    assert form == other


def test_normal_form_degenerate_factors():
    assert one_minus_normal_form(1, 3, [2, 0], [1]) is None
    with pytest.raises(DegenerateProductError):
        one_minus_normal_form(1, 0, [1], [0])
    assert one_minus_normal_form(1, 0, [-2], []) == (-1, -2, frozenset({(2, 1)}))
    assert one_minus_normal_form(-1, 0, [-2], []) == (1, -2, frozenset({(2, 1)}))
    assert one_minus_normal_form(1, 1, [6, 2], [2, 3]) == (
        1, 1, frozenset({(6, 1), (3, -1)}))


class _Dense:
    """Oracle: sign * q^low * sum_i coeffs[i] q^i on a dense integer list,
    updated in place, one pass over the list per factor 1 - q^e."""

    __slots__ = ("coeffs", "low", "sign")

    def __init__(self, coeffs, low=0, sign=1):
        self.coeffs, self.low, self.sign = coeffs, low, sign

    def times_one_minus(self, exps):
        f = self.coeffs
        for e in exps:
            if not e:  # 1 - q^0 = 0
                f.clear()
            if not f:
                break
            if e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                e, self.low, self.sign = -e, self.low + e, -self.sign
            f.extend([0] * e)
            f[e:] = map(operator.sub, f[e:], f[:-e])
        return self

    def add(self, other, shift):
        """self += other * q^shift."""
        if not other.coeffs:
            return
        low = other.low + shift
        if low < self.low:
            self.coeffs[:0] = [0] * (self.low - low)
            self.low = low
        f, g = self.coeffs, other.coeffs
        at = low - self.low
        f.extend([0] * (at + len(g) - len(f)))
        op = operator.add if other.sign == self.sign else operator.sub
        f[at:at + len(g)] = map(op, f[at:at + len(g)], g)

    def laurent(self):
        body = self.coeffs if self.sign > 0 else [-c for c in self.coeffs]
        return Laurent(Poly(body), self.low)


def _dense_sum(step, increments):
    """Oracle for ``truncated_sum``: the same recurrence on dense lists."""
    num, den, run = _Dense([]), _Dense([1]), _Dense([1])
    for k, (a, b, c) in enumerate(increments):
        num.times_one_minus(b)
        den.times_one_minus(b)
        run.times_one_minus(a)
        term = _Dense(list(run.coeffs), run.low, run.sign) if c else run
        num.add(term.times_one_minus(c), step * k)
    return num.laurent(), den.laurent()


def _dense_product(exps):
    return _Dense([1]).times_one_minus(exps).laurent()


# The instances of the laurent-products benchmark workload, past the grid.
LAURENT_PRODUCTS = (
    [(cid, {"d": d, "n": n, "r": r}) for cid, grid in {
        "p1_24": ((7, 2, 12), (5, 2, 13)),
        "p2_25": ((7, 3, 11), (5, 1, 14)),
        "p3_32": ((5, 1, 9), (5, 1, 14)),
        "p4_33": ((3, 1, 8), (3, 1, 11)),
        "p5_43": ((5, 2, 8), (5, 2, 13)),
        "p6_44": ((4, 3, 5), (4, 3, 9)),
        "p7_45": ((7, 3, 11), (5, 1, 14)),
        "p8_46": ((5, 3, 7), (5, 3, 12)),
    }.items() for d, r, n in grid]
    + [("sum_decomposition", {"d": d, "n": n})
       for d, n in ((5, 14), (6, 12), (7, 10))]
    + [("thm13", {"d": d, "n": n}) for d, n in ((4, 15), (6, 11))])
KERNEL_IDS = PARAMETRIC_IDS + ("sum_decomposition", "thm13")
KERNEL_INSTANCES = [(cid, params) for cid, params in paper_default_suite()
                    if cid in KERNEL_IDS] + LAURENT_PRODUCTS


def test_packed_kernel_matches_dense_oracle(monkeypatch):
    calls = []
    real = qfuncs._numerator

    def spy(step, increments, width, fold=0):
        calls.append((step, increments, width, fold))
        return real(step, increments, width, fold)

    monkeypatch.setattr(qfuncs, "_numerator", spy)
    for cid, params in KERNEL_INSTANCES:
        assert run_check(cid, params).status is Status.HOLDS, (cid, params)
    monkeypatch.undo()
    # One sum per parametric check, whose a = q^-n identity equals its
    # a = q^n one, and one folded sum per thm13; the decomposition, proved
    # term by term, builds none.
    assert len(calls) == sum({"thm13": 1, "sum_decomposition": 0}.get(cid, 1)
                             for cid, _ in KERNEL_INSTANCES)
    assert sum(1 for *_, fold in calls if fold) == sum(
        1 for cid, _ in KERNEL_INSTANCES if cid == "thm13")
    for step, increments, width, fold in calls:
        dense_num, dense_den = _dense_sum(step, increments)
        # D as verify_parametric builds it: the product of every b, at the
        # width its own bound asks for.
        b = _denominator(increments)
        bits = Packed(0, 0, 0, 8, fold).times_one_minus(b).bits
        den = Packed.one(packed_width(bits), fold).times_one_minus(b)
        num = truncated_sum(step, increments, width, fold)
        if fold:  # thm13: both folded modulo (1 - q^fold)^2
            assert num.laurent() == _fold_oracle(dense_num, fold)
            assert den.laurent() == _fold_oracle(dense_den, fold)
            continue
        # The vanishing checks pick a width for N alone.
        assert num.laurent() == dense_num
        assert den.laurent() == dense_den
        assert _laurent_sum(step, increments) == (dense_num, dense_den)
    for cid, params in KERNEL_INSTANCES:
        if cid in PARAMETRIC_IDS:
            for s in (1, -1):
                _, _, num, den = _rhs_factors(cid, params["d"], params["r"],
                                              params["n"], s, None)
                assert one_minus_product(num) == _dense_product(num)
                assert one_minus_product(den) == _dense_product(den)


def test_cancel_increments_keeps_every_parametric_sum():
    # The catalog grid and the laurent-products instances past it.
    instances = {(cid, p["d"], p["r"], p["n"]) for cid, p in KERNEL_INSTANCES
                 if cid in PARAMETRIC_IDS}
    assert len(instances) == 32
    for cid, d, r, n in sorted(instances):
        for s in (1, -1):
            _assert_cancels_exactly(
                d, parametric._sum_increments(cid, d, r, n, s))


def _oracle_verdict(check_id, d, r, n, increments):
    """HOLDS when both substituted sums, built on dense lists, equal their
    closed forms by Laurent cross-multiplication."""
    for s in (1, -1):
        num, den = _dense_sum(d, increments[s])
        if check_id in ("p1_24", "p2_25"):
            same = num.is_zero()
        else:
            sign, shift, rnum, rden = _rhs_factors(check_id, d, r, n, s, None)
            rhs = _dense_product(rnum).shifted(shift) * den * sign
            same = num * _dense_product(rden) == rhs
        if not same:
            return Status.FAILS
    return Status.HOLDS


def test_single_exponent_mutants_agree_with_dense_oracle(monkeypatch):
    rng = random.Random(5)
    real = parametric._sum_increments
    small = [(cid, d, r, n) for cid, grid in GRID_PARAMETRIC.items()
             for d, r, n in grid if n <= 9]
    verdicts = []
    for _ in range(64):
        cid, d, r, n = rng.choice(small)
        increments = {s: [tuple(list(part) for part in inc)
                          for inc in real(cid, d, r, n, s)] for s in (1, -1)}
        inc = increments[rng.choice((1, -1))]
        k, part = rng.choice([(k, p) for k in range(len(inc))
                              for p in range(3) if inc[k][p]])
        exps = inc[k][part]
        i = rng.randrange(len(exps))
        delta = rng.choice((1, -1))
        if part == 1 and exps[i] + delta == 0:  # keep denominators nonzero
            delta = -delta
        exps[i] += delta
        def mutated(c, d_, r_, n_, s, increments=increments):
            return increments[s] if s else real(c, d_, r_, n_, s)

        monkeypatch.setattr(parametric, "_sum_increments", mutated)
        packed = verify_parametric(cid, d, r, n).status
        assert packed is _oracle_verdict(cid, d, r, n, increments), (
            cid, d, r, n, k, part, i, delta)
        verdicts.append(packed)
    # A mutant inside a term that a factor 1 - q^0 already zeroes changes
    # nothing, so some mutants hold.
    assert verdicts.count(Status.FAILS) > len(verdicts) // 2


def _divisibility_oracle_verdict(d, n, increments):
    """FAILS unless (1 - q)^{d(n-1)} divides the dense N and [n]^2 divides
    the quotient, by running sums and polynomial division."""
    num, _ = _dense_sum(d, increments)
    body = list(num.body.coeffs)
    for _ in range(d * (n - 1)):
        if sum(body):
            return Status.FAILS
        body = list(itertools.accumulate(body[:-1]))
    _, rem = divrem(Poly(body), q_integer(n) ** 2)
    return Status.HOLDS if rem.is_zero() else Status.FAILS


def test_divisibility_exponent_mutants_agree_with_dense_oracle(monkeypatch):
    rng = random.Random(13)
    verdicts = []
    for _ in range(70):
        d, n = rng.choice(GRID_THM13)
        increments = family_increments(F7_DIVISIBILITY, d, 1, n - 1)
        k, part = rng.choice([(k, p) for k in range(n) for p in range(2)
                              if increments[k][p]])
        exps = increments[k][part]
        i = rng.randrange(len(exps))
        delta = rng.choice((1, -1))
        if part == 1 and exps[i] + delta == 0:  # keep denominators nonzero
            delta = -delta
        exps[i] += delta
        monkeypatch.setattr(
            verifier, "family_increments",
            lambda *args, inc=increments: [tuple(map(list, t)) for t in inc])
        packed = verifier.verify_divisibility(d, n).status
        assert packed is _divisibility_oracle_verdict(d, n, increments), (
            d, n, k, part, i, delta)
        verdicts.append(packed)
    assert verdicts.count(Status.FAILS) > len(verdicts) // 2


def _fold_oracle(value, n):
    """Oracle: the representative of degree < 2n of a Laurent polynomial
    modulo (1 - q^n)^2, by polynomial division once q^low is cleared with
    q^{-mn} = (1 + m) - m q^n there."""
    m = max(0, -(value.min_exp // n))
    body = value.body.shift(value.min_exp + m * n)
    body = body * Poly((1 + m,) + (0,) * (n - 1) + (-m,))
    _, rem = divrem(body, Poly((1,) + (0,) * (n - 1) + (-1,)) ** 2)
    return Laurent(rem, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 20),
       st.dictionaries(st.integers(-40, 40), st.integers(-50, 50),
                       max_size=8),
       st.lists(st.integers(-30, 30), max_size=4), st.integers(-30, 30),
       st.booleans())
def test_fold_matches_division_by_one_minus_q_n_squared(n, coeffs, exps,
                                                        shift, divisible):
    if divisible:
        exps = exps + [n, -n]
    bits = (sum(map(abs, coeffs.values())).bit_length()
            + qfuncs.fold_bits(40, n))
    # Bounds follow from the operations alone, so a zero value at any width
    # carries them ahead of the build.
    width = packed_width(
        Packed(0, 0, bits, 8, n).times_one_minus(exps).shifted(shift).bits)
    one = Packed.one(width, fold=n)
    start = Packed(sum(c * one.shifted(e).value for e, c in coeffs.items()),
                   0, bits, width, n)
    folded = start.times_one_minus(exps).shifted(shift)
    value = sum((Laurent(Poly((c,)), e) for e, c in coeffs.items()),
                Laurent(Poly()))
    value = (value * _laurent_product(exps)).shifted(shift)
    rep = _fold_oracle(value, n)
    assert folded.laurent() == rep
    assert not rep.body.coeffs or rep.min_exp + rep.body.degree < 2 * n
    assert folded.is_zero() is rep.is_zero()
    assert folded.is_zero() or not divisible
    assert folded == start.shifted(shift).times_one_minus(exps)


def _dense_relation(step, terms, fold):
    """Oracle for ``relation_vanishes``: the relation summed on dense
    lists, reduced modulo (1 - q^fold)^2 by division when fold is set."""
    total = Laurent(Poly())
    for sign, shift, exps, increments in terms:
        num = (Laurent(Poly((1,))) if increments is None
               else _dense_sum(step, increments)[0])
        total = total + (num * _laurent_product(exps)).shifted(shift) * sign
    return _fold_oracle(total, fold) if fold else total


def _cancelled_twin(term):
    """A term of the opposite sign and the same value: a sum's twin runs
    over ``cancel_increments``' smaller denominator, times what left it."""
    sign, shift, exps, increments = term
    if increments is None:
        return -sign, shift, exps[::-1], None
    cancelled = cancel_increments(increments)
    gone = Counter(_denominator(increments)) - Counter(_denominator(cancelled))
    return -sign, shift, exps + list(gone.elements()), cancelled


_relation_terms = st.lists(st.tuples(
    st.sampled_from((1, -1)), st.integers(-6, 6), _exponents,
    st.none() | st.lists(st.tuples(_exponents, _nonzero, _exponents),
                         min_size=1, max_size=3)), min_size=1, max_size=4)


def _exponent_lists(term):
    """The term's factor list, then every a, b and c list of its sum."""
    _, _, exps, increments = term
    return [exps] + [part for parts in increments or () for part in parts]


def test_relation_vanishes_matches_dense_oracle():
    raised = []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-3, 3), _relation_terms, st.sampled_from((0, 1, 2, 5)),
           st.data())
    def check(step, terms, fold, data):
        # Any verdict comes from a width wide enough: no PackingOverflowError.
        assert relation_vanishes(step, terms, fold) is _dense_relation(
            step, terms, fold).is_zero()
        vanishing = terms + [_cancelled_twin(term) for term in terms]
        assert relation_vanishes(step, vanishing, fold)
        # Negative control: one exponent raised; a b list (p = 2 mod 3)
        # never reaches 1 - q^0.
        spots = [(i, p, j) for i, term in enumerate(vanishing)
                 for p, exps in enumerate(_exponent_lists(term))
                 for j, e in enumerate(exps) if p % 3 != 2 or e != -1]
        if not spots:
            return
        i, p, j = data.draw(st.sampled_from(spots))
        mutant = copy.deepcopy(vanishing)
        _exponent_lists(mutant[i])[p][j] += 1
        verdict = relation_vanishes(step, mutant, fold)
        assert verdict is _dense_relation(step, mutant, fold).is_zero()
        raised.append(verdict)

    check()
    # About half the raised exponents change the relation (the rest sit in
    # a term that 1 - q^0 or the fold already zeroes), each one refused.
    assert raised.count(False) > len(raised) // 4


def test_each_sum_is_bounded_once(monkeypatch):
    # relation_vanishes sizes the width from sum_bounds and builds N with
    # no second bound: one call for the one sum of each check.
    calls = []
    real = qfuncs.sum_bounds

    def spy(increments, step=0, fold=0):
        calls.append(fold)
        return real(increments, step, fold)

    monkeypatch.setattr(qfuncs, "sum_bounds", spy)
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert run_check("thm13", {"d": 3, "n": 5}).status is Status.HOLDS
    assert calls == [0, 5]


def _first_failing(decide, runs, relation):
    try:
        return decide(runs, relation)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_exponents, _nonzero, _exponents), min_size=1,
                max_size=4), st.integers(1, 2), st.booleans(), st.data())
def test_first_failing_term_matches_the_counting_oracle(run, others,
                                                        vanishing, data):
    # Runs 1, 2, ... are run 0 with every list reordered, so most terms
    # take the path without counts, and sometimes one exponent changed, so
    # the rest are counted.  A vanishing relation pairs one part with its
    # negation; 1 - q^0 in a or c leaves terms that hold either way.
    runs = [run]
    for _ in range(others):
        copy_ = [tuple(list(data.draw(st.permutations(part))) for part in inc)
                 for inc in run]
        if data.draw(st.booleans()):
            spots = [(k, p, i) for k, inc in enumerate(copy_)
                     for p, part in enumerate(inc) for i in range(len(part))]
            if spots:
                k, p, i = data.draw(st.sampled_from(spots))
                copy_[k][p][i] += 1
        runs.append(copy_)
    part = st.tuples(st.sampled_from((1, -1)), st.integers(-2, 2), _exponents)
    relation = data.draw(st.lists(part, min_size=len(runs),
                                  max_size=len(runs)))
    if vanishing:  # the first part, its negation, and parts of sign 0
        sign, shift, exps = relation[0]
        relation = [relation[0], (-sign, shift, exps[::-1])] + [
            (0, 0, [])] * (len(runs) - 2)
    assert _first_failing(qfuncs.first_failing_term, runs, relation) == \
        _first_failing(counting_first_failing_term, runs, relation)


def test_relation_width_fits_the_whole_sum():
    # A sum of m terms 1 is the constant m.  256 - q is 0 at q = 2^8,
    # which each term alone would fit: the sum's bound, 2^9, asks for more.
    ones = [(1, 0, [], None)] * 256
    assert not relation_vanishes(0, ones + [(-1, 1, [], None)])
    assert relation_vanishes(0, ones + [(-1, 0, [], [([], [], [])] * 256)])
    # Folded modulo (1 - q^3)^2, q^{-255 * 3} = 256 - 255 q^3.
    for m, holds in ((255, True), (254, False)):
        assert relation_vanishes(0, [(1, -255 * 3, [], None),
                                     (-1, 0, [], [([], [], [])] * 256),
                                     (1, 3, [], [([], [], [])] * m)],
                                 fold=3) is holds


@pytest.mark.parametrize("module,check_id,params", [
    (parametric, "p7_45", {"d": 7, "n": 11, "r": 3}),
    (parametric, "p1_24", {"d": 4, "n": 7, "r": 1}),
    (identities, "sum_decomposition", {"d": 3, "n": 4}),
    (verifier, "thm13", {"d": 3, "n": 5}),
    (identities, "pochhammer_split_general", {"d": 5, "r": 2, "k": 3}),
])
def test_undersized_width_is_error_not_a_verdict(monkeypatch, module,
                                                 check_id, params):
    assert run_check(check_id, params).status is Status.HOLDS
    # The check's module decides through qfuncs, so one bit short of the
    # bits + 2 that a bound of 2^bits needs, patched there alone, reaches
    # every width the check picks.
    assert module.relation_vanishes is qfuncs.relation_vanishes
    monkeypatch.setattr(qfuncs, "packed_width", lambda bits: bits + 1)
    result = run_check(check_id, params)
    assert result.status is Status.ERROR
    assert result.witness.startswith("PackingOverflowError")


def test_packed_bound_decides_exactness():
    width = packed_width(6)
    assert width == 8
    six = Packed.one(width).times_one_minus([1, 2, 3, 4, 5, 6])
    assert six.bits == 6 and six.laurent() == one_minus_product(range(1, 7))
    assert six == six.shifted(0) and not six.is_zero()
    seven = six.times_one_minus([7])
    for ask in (seven.is_zero, seven.laurent, lambda: seven == six):
        with pytest.raises(PackingOverflowError):
            ask()
    with pytest.raises(ValueError):
        six == Packed.one(16)
    with pytest.raises(ValueError):
        six == Packed.one(width, fold=3)
    # Folded, the bound also carries the growth of each reduction.
    folded = Packed.one(width, fold=3).times_one_minus([1, 2])
    assert folded.bits == 2 + qfuncs.fold_bits(2 * 3 + 3, 3) == 6
    assert folded.laurent() == one_minus_product([1, 2])
    with pytest.raises(PackingOverflowError):
        folded.times_one_minus([1]).is_zero()
    # q^400 = -199 + 200 q^2 mod (1 - q^2)^2: 200 needs more than 8-bit
    # digits, which the reduction's growth in the bound asks for.
    far = Packed.one(8, fold=2).shifted(400)
    with pytest.raises(PackingOverflowError):
        far.laurent()
    far = Packed.one(packed_width(far.bits), fold=2).shifted(400)
    assert far.laurent() == Laurent(Poly((-199, 0, 200)), 0)
    # Factors of either sign and offsets line up like Laurent products.
    mixed = Packed.one(16).times_one_minus([3, -2]).shifted(-4)
    assert mixed.laurent() == _laurent_product([3, -2]).shifted(-4)
    assert (mixed - mixed).is_zero()
