"""q-shifted factorials, Gaussian binomials and the packed kernel."""

import copy
import itertools
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
from qsupercheck.families import family_increments
from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.parametric import (
    PARAMETRIC_IDS,
    _rhs_factors,
    _SHIFTED_INDEX,
    rhs_band,
    verify_parametric,
)
from qsupercheck.poly import Poly, divrem, pack
from qsupercheck.qfuncs import (
    DegenerateProductError,
    Packed,
    PackingOverflowError,
    expand,
    first_failing_term,
    one_minus_product,
    packed_width,
    q_binomial,
    quotients_differ,
    relation_vanishes,
    sum_bounds,
    termwise_degree,
    truncated_sum,
)
from qsupercheck.results import Status

from oracles import (
    QMonomial,
    cancel_increments,
    counting_first_failing_term,
    decomposition_sums,
    dense_product,
    dense_sum,
    folded_times_one_minus,
    inflate,
    laurent_product,
    normal_forms_differ,
    one_minus,
    one_minus_normal_form,
    SAME_WORK,
    packed_truncated_sum,
    packed_check,
    q_pochhammer,
    template_increments,
    times_q,
)


def _denominator(increments):
    """Every b exponent of the increments: the factors of the sum's D."""
    return [e for _, b, _ in increments for e in b]


def _laurent_sum(step, increments):
    """The kernel's N and the product D of every b, each at the width of
    its own bound, unpacked."""
    den = _denominator(increments)
    return truncated_sum(step, increments).laurent(), one_minus_product(den)


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
        truncated_sum(1, [([], [], []), ([1], [0], [])])


def test_denominator_zero_reads_as_fails(monkeypatch):
    # A b intercept -d(n - 2), n = 4, in every run puts 1 - q^0 into the
    # last term's denominator, past the terms that the certificate samples.
    real = identities._decomposition_templates

    def with_zero(d):
        return [(head, a, b + [-d * 2], c) for head, a, b, c in real(d)]

    monkeypatch.setattr(identities, "_decomposition_templates", with_zero)
    result = run_check("sum_decomposition", {"d": 3, "n": 4})
    assert result.status is Status.FAILS
    assert result.witness.startswith("DegenerateProductError")


_exponents = st.lists(st.integers(-6, 6), max_size=5)
_nonzero = _exponents.map(lambda es: [e for e in es if e])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=10))
def test_one_minus_product_matches_laurent_products(exps):
    assert one_minus_product(exps) == laurent_product(exps)


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
        total = total + RatFunc(laurent_product(a + c_k).shifted(step * k),
                                laurent_product(b))
    assert den == laurent_product(b)
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
    # and fold n: the value and offset are those of the recurrence on
    # dense lists, packed once (folded, the value's class modulo
    # (2^{n width} - 1)^2), and the bound holds the unpacked coefficients.
    width = packed_width(sum_bounds(increments, step, fold))
    value, low = qfuncs._numerator(step, increments, width, fold)
    want, want_low, bits = packed_truncated_sum(step, increments, width, fold)
    if fold:
        modulus = ((1 << fold * width) - 1) ** 2
        value, want = value % modulus, want % modulus
    else:
        num = truncated_sum(step, increments)
        assert (num.value, num.low, num.bits) == (want, want_low, bits)
    assert (value, low) == (want, want_low)
    coeffs = Packed(value, low, bits, width, fold).laurent().body.coeffs
    assert sum(map(abs, coeffs)) <= 1 << bits


def _assert_cancels_exactly(step, increments):
    """``cancel_increments`` keeps the sum: its D' is a sub-multiset of D,
    N' prod(D minus D') == N, and its bound is no larger."""
    before = [tuple(list(part) for part in inc) for inc in increments]
    rewritten = cancel_increments(increments)
    assert [tuple(inc) for inc in increments] == before  # a pure function
    den, den2 = Counter(_denominator(increments)), Counter(_denominator(rewritten))
    assert not den2 - den
    gone = list((den - den2).elements())
    assert sum_bounds(rewritten, step) <= sum_bounds(increments, step)
    num, _ = dense_sum(step, increments)
    assert truncated_sum(step, rewritten).laurent() * dense_product(
        gone) == num


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
        truncated_sum(1, cancel_increments([([0], [0], [])]))


_small = st.lists(st.integers(-4, 4), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), st.lists(st.tuples(_small, _small, _small),
                                    min_size=1, max_size=6))
def test_cancel_increments_keeps_the_sum(step, increments):
    if any(0 in b for _, b, _ in increments):
        with pytest.raises(DegenerateProductError):
            truncated_sum(step, cancel_increments(increments))
        return
    _assert_cancels_exactly(step, increments)


def test_cancel_increments_fixes_thm13_and_decomposition_sums():
    # Their terms share no factor 1 - q^e, so there is nothing to cancel.
    cases = []
    for cid, p in KERNEL_INSTANCES:
        if cid == "thm13":
            cases.append(family_increments("lemma21", p["d"], 1,
                                           p["n"] - 1))
        elif cid == "sum_decomposition":
            cases += decomposition_sums(p["d"], p["n"])
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


def _rewritten(side, rnd):
    """The same quotient written another way: some exponents e as -e by
    1 - q^e = -q^e (1 - q^-e), a common factor on both sides, shuffled."""
    sign, shift, num, den = side
    num2, den2 = [], []
    for exps, unit, out in ((num, 1, num2), (den, -1, den2)):
        for e in exps:
            if rnd.random() < 0.5:
                sign, shift, e = -sign, shift + unit * e, -e
            out.append(e)
    common = rnd.choice([-3, 2, 5])
    num2.append(common)
    den2.append(common)
    rnd.shuffle(num2)
    rnd.shuffle(den2)
    return sign, shift, num2, den2


_side = st.none() | st.tuples(_signs, st.integers(-4, 4), _exponents,
                              _exponents)


@settings(max_examples=400, deadline=None)
@given(_side, _side, st.booleans(), st.randoms(use_true_random=False))
# Equal through a negative exponent, and a sign, a shift or one factor off.
@example((1, 0, [2], [1]), (-1, 2, [-2], [1]), False, None)
@example((1, 0, [2], [1]), (1, 0, [-2], [-1]), False, None)
@example((1, 0, [2, -3], [1]), (1, -3, [2, 3], [1]), False, None)
@example((1, 0, [2, 3], [1, 3]), (1, 0, [2, 3], [1]), False, None)
# Zero sides, and 1 - q^0 in a denominator, which lhs's normal form
# meets first, whatever rhs is.
@example((-1, 3, [-3, 0], [2]), None, False, None)
@example((1, 0, [0], [1]), (1, 0, [2], [0]), False, None)
@example((1, 0, [2], [0]), None, False, None)
@example((1, 0, [2], [0]), (1, 0, [0], [-1, 0]), False, None)
def test_net_count_matches_two_normal_forms(lhs, rhs, rewrite, rnd):
    # Sides with negative exponents, zero sides (None, or 1 - q^0 in a
    # numerator) and 1 - q^0 in a denominator; with ``rewrite`` the rhs is
    # the lhs written another way.  Comparing the sorted |e| lists, the
    # parity and the shift of lhs over rhs must give the verdict of the
    # oracle ``one_minus_normal_form`` on each side, or its error.
    if rewrite and lhs is not None:
        rhs = _rewritten(lhs, rnd)
    try:
        want = normal_forms_differ(lhs, rhs)
    except DegenerateProductError:
        with pytest.raises(DegenerateProductError):
            quotients_differ(lhs, rhs)
        return
    assert quotients_differ(lhs, rhs) == want
    if rewrite and lhs is not None:
        assert not want


def test_normal_form_degenerate_factors():
    assert one_minus_normal_form(1, 3, [2, 0], [1]) is None
    with pytest.raises(DegenerateProductError):
        one_minus_normal_form(1, 0, [1], [0])
    assert one_minus_normal_form(1, 0, [-2], []) == (-1, -2, frozenset({(2, 1)}))
    assert one_minus_normal_form(-1, 0, [-2], []) == (1, -2, frozenset({(2, 1)}))
    assert one_minus_normal_form(1, 1, [6, 2], [2, 3]) == (
        1, 1, frozenset({(6, 1), (3, -1)}))


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
    # One folded sum per thm13; the parametric checks count exponents and
    # the decomposition is proved term by term, so neither builds one.
    folded = sum(1 for cid, _ in KERNEL_INSTANCES if cid == "thm13")
    assert len(calls) == folded and all(fold for *_, fold in calls)
    # The packed oracle of the parametric checks builds one sum for each
    # piece of work, whose a = q^-n identity equals its a = q^n one: a
    # repeated instance, p3_32 as p7_45 at r = 1 or p4_33 as p8_46, is
    # the same work.
    parametric_work = {(SAME_WORK.get(cid, cid), params["d"], params["r"],
                        params["n"]) for cid, params in KERNEL_INSTANCES
                       if cid in PARAMETRIC_IDS}
    for cid, d, r, n in sorted(parametric_work):
        assert packed_check(cid, d, r, n) is None
    monkeypatch.undo()
    assert len(calls) == folded + len(parametric_work)
    for step, increments, width, fold in calls:
        dense_num, dense_den = dense_sum(step, increments)
        # N at the width the decision picked, with its own bound.
        num = Packed(*qfuncs._numerator(step, increments, width, fold),
                     sum_bounds(increments, step, fold), width, fold)
        if fold:  # thm13: N and D folded modulo (1 - q^fold)^2
            assert num.laurent() == _fold_oracle(dense_num, fold)
            b = _denominator(increments)
            bits = qfuncs.grown_bits(0, b, fold)
            w = packed_width(bits)
            den = Packed(*qfuncs._times_one_minus(1, 0, b, w, fold), bits, w,
                         fold)
            assert den.laurent() == _fold_oracle(dense_den, fold)
            continue
        assert num.laurent() == dense_num
        # truncated_sum at the width of N's bound alone, and D as
        # verify_parametric builds it: the product of every b.
        assert _laurent_sum(step, increments) == (dense_num, dense_den)
    for cid, params in KERNEL_INSTANCES:
        if cid in PARAMETRIC_IDS:
            for s in (1, -1):
                d, r = params["d"], params["r"]
                _, _, num, den = _rhs_factors(rhs_band(cid, d, r), d, r,
                                              params["n"], s, None)
                assert one_minus_product(num) == dense_product(num)
                assert one_minus_product(den) == dense_product(den)


def _template(check_id, d, r, n, s):
    """A parametric sum's template at a = q^{sn}."""
    return parametric._sum_template(
        check_id in _SHIFTED_INDEX, d, r, n, s,
        parametric.numerator_entries(check_id, d, r))


def _limit(check_id, d, r, n):
    """A parametric sum's last term."""
    return parametric._upper_limit(check_id in _SHIFTED_INDEX, d, r, n)


def test_cancel_increments_keeps_every_parametric_sum():
    # The catalog grid and the laurent-products instances past it.
    instances = {(cid, p["d"], p["r"], p["n"]) for cid, p in KERNEL_INSTANCES
                 if cid in PARAMETRIC_IDS}
    assert len(instances) == 32
    for cid, d, r, n in sorted(instances):
        for s in (1, -1):
            _assert_cancels_exactly(d, expand(_template(cid, d, r, n, s), d,
                                              _limit(cid, d, r, n)))


def _at_two(step, increments):
    """Oracle: the increments' sum N / D evaluated exactly at q = 2, by the
    recurrence N_k = N_{k-1} B_k + T_k on ints times powers of 2."""
    def times(value, exps):
        v, s = value
        for e in exps:
            if e < 0:  # 1 - 2^e = 2^e (2^-e - 1)
                v, s = v * ((1 << -e) - 1), s + e
            else:
                v *= 1 - (1 << e)
        return v, s

    def plus(x, y):
        (u, s), (v, t) = sorted((x, y), key=lambda value: value[1])
        return u + (v << (t - s)), s

    num, den, run = (0, 0), (1, 0), (1, 0)
    for k, (a, b, c) in enumerate(increments):
        num, den, run = times(num, b), times(den, b), times(run, a)
        v, s = times(run, c)
        num = plus(num, (v, s + step * k))
    (v, s), (w, t) = num, den
    return Fraction(v, w) * Fraction(2) ** (s - t)


# The admissible parametric instances with d <= 11, r <= 9 and n <= 40.
ADMISSIBLE_TO_40 = [(cid, d, r, n) for cid in PARAMETRIC_IDS
                    for d in range(2, 12) for r in range(1, 10)
                    for n in range(2, 41)
                    if parametric.parametric_precondition(cid, d, r, n) is None]


def test_template_increments_match_the_counting_cancel():
    # Cancelled on the template, each sum keeps the value that the oracle's
    # cancellation of the expanded lists keeps, and its bound is never
    # larger: the natural end drops the terms after a numerator factor
    # 1 - q^0, and on 522 of the 738 sums that narrows the bound.
    assert len(ADMISSIBLE_TO_40) == 369
    narrower = 0
    for cid, d, r, n in ADMISSIBLE_TO_40:
        limit = _limit(cid, d, r, n)
        for s in (1, -1):
            template = _template(cid, d, r, n, s)
            ours = template_increments(template, d, limit)
            theirs = cancel_increments(expand(template, d, limit))
            assert _at_two(d, ours) == _at_two(d, theirs), (cid, d, r, n, s)
            if d * n <= 60:
                (num, den), (num2, den2) = (dense_sum(d, ours),
                                            dense_sum(d, theirs))
                assert num * den2 == num2 * den, (cid, d, r, n, s)
            bound, oracle_bound = sum_bounds(ours, d), sum_bounds(theirs, d)
            assert bound <= oracle_bound, (cid, d, r, n, s)
            narrower += bound < oracle_bound
    assert narrower == 522


def test_template_increments_by_hand():
    # a intercept 5 meets b intercept 3 one step later (L = 1): b keeps 3
    # at k = 1 only, a keeps 5 at the last term only, and term t gains
    # 5 + 2(t - 1) from the a_j it paired.
    template = (([], [], []), [5], [3], [])
    assert template_increments(template, 2, 3) == [
        ([], [], []), ([], [3], [5]), ([], [], [7]), ([9], [], [])]
    assert template_increments(template, 2, 3) == cancel_increments(
        expand(template, 2, 3))
    # An a intercept -4 puts 1 - q^0 into a_3, so the sum ends at k = 2;
    # a b intercept -4 would put it into b_3, which is refused, as the
    # kernel refuses it.
    assert template_increments((([], [], []), [-4], [], []), 2, 5) == [
        ([], [], []), ([-4], [], []), ([-2], [], [])]
    for write_out in (template_increments, expand):
        with pytest.raises(DegenerateProductError):
            write_out((([], [], []), [], [-4], []), 2, 3)
        assert len(write_out((([], [], []), [], [-4], []), 2, 2)) == 3


def _runs(*intercepts):
    """Templates of step 2 with empty heads and the given (a, b, c)
    intercept lists."""
    return [(([], [], []), *map(list, parts)) for parts in intercepts]


def test_termwise_degree_by_hand():
    # (q^5; q^2)_k / (q; q^2)_k = (1 - q^{1+2k})(1 - q^{3+2k}) / ((1 - q)
    # (1 - q^3)): degree 2; a c intercept 3 adds 1 - q^{1+2k}.
    assert termwise_degree(_runs(([1], [], []), ([5], [], [])), 2, 9) == 2
    assert termwise_degree(_runs(([1], [], []), ([5], [], [3])), 2, 9) == 3
    # Bases in different classes mod 2 do not telescope.
    assert termwise_degree(_runs(([1], [], []), ([2], [], [])), 2, 9) is None
    # (q^-2; q^2)_k / (q^2; q^2)_k clears 1 - q^{-2+2k}, zero at k = 1.
    assert termwise_degree(_runs(([2], [], []), ([-2], [], [])), 2, 9) is None
    # Run 0's term 1 holds 1 - q^0 in c_1, so it proves nothing: here the
    # relation s0 - (1 - q^5) s1 holds at k = 0 and 1 and fails at k = 2.
    runs = [(([], [], [5]), [1], [], [0]), (([], [], []), [1], [], [0])]
    relation = [(1, 0, []), (-1, 0, [5])]
    assert termwise_degree(runs, 2, 9) is None
    assert counting_first_failing_term([expand(t, 2, 2) for t in runs],
                                       relation) == 2
    with pytest.raises(RuntimeError, match="^no certificate"):
        first_failing_term(runs, relation, 2, 9)
    # Only run 0's head holds 1 - q^0, in c_0: term 0 is 0 - 1, so the
    # relation fails there; 1 - q^0 is never divided out across runs.
    runs = [(([], [], [0]), [1], [], []), (([], [], []), [1], [], [])]
    relation = [(1, 0, []), (-1, 0, [])]
    assert termwise_degree(runs, 2, 9) == 0
    assert first_failing_term(runs, relation, 2, 9) == 0 == \
        counting_first_failing_term([expand(t, 2, 1) for t in runs], relation)
    # A constant cleared below, (q^-2; q^2)_2, holds 1 - q^0.
    assert termwise_degree(_runs(([], [], []), ([2], [-2], [])), 2, 1) is None
    # A denominator 1 - q^0 in range is refused, in any run.
    with pytest.raises(DegenerateProductError):
        termwise_degree(_runs(([], [], []), ([2], [-2], [])), 2, 2)


def test_raised_intercepts_still_fail(monkeypatch):
    # Negative control: one a or b intercept raised by one, at both points,
    # is found by the packed oracle's cancelled sums.  It leaves its
    # residue class mod d, so Gasper's pairing keeps more than b = [d] and
    # a = [-dN]: the check reads ERROR "no certificate", or FAILS where
    # the raise puts 1 - q^0 into a denominator.  Such a sum cancels
    # little, so the larger instances are left out for time.
    real = parametric._sum_template
    instances = [inst for inst in ADMISSIBLE_TO_40 if inst[1] * inst[3] <= 120]
    assert len(instances) == 173
    for i, (cid, d, r, n) in enumerate(instances):
        for part in (1, 2):
            def raised(c, d_, r_, n_, s, entries, part=part, i=i):
                template = list(real(c, d_, r_, n_, s, entries))
                if s:
                    exps = list(template[part])
                    exps[i % len(exps)] += 1
                    template[part] = exps
                return tuple(template)

            monkeypatch.setattr(parametric, "_sum_template", raised)
            parametric._witness.cache_clear()  # each mutant is decided afresh
            parametric._left_side.cache_clear()
            parametric._same_shape.cache_clear()
            result = run_check(cid, {"d": d, "n": n, "r": r})
            where = (cid, d, r, n, part)
            if result.status is Status.FAILS:
                assert result.witness.startswith(
                    "DegenerateProductError"), where
                continue
            assert result.status is Status.ERROR, where
            assert result.witness.startswith(
                "RuntimeError: no certificate"), where
            assert packed_check(cid, d, r, n) is not None, where


def _oracle_verdict(check_id, d, r, n, increments):
    """HOLDS when the substituted sums at both points, built on dense
    lists, equal their closed forms by Laurent cross-multiplication."""
    for s in (1, -1):
        num, den = dense_sum(d, increments)
        if check_id in ("p1_24", "p2_25"):
            same = num.is_zero()
        else:
            sign, shift, rnum, rden = _rhs_factors(rhs_band(check_id, d, r),
                                                   d, r, n, s, None)
            rhs = dense_product(rnum).shifted(shift) * den * sign
            same = num * dense_product(rden) == rhs
        if not same:
            return Status.FAILS
    return Status.HOLDS


def test_single_exponent_mutants_agree_with_dense_oracle(monkeypatch):
    # The one template that stands for both points, mutated: the dense
    # oracle sees its lists at a = q^n and at a = q^-n.
    rng = random.Random(5)
    real = parametric._sum_template
    small = [(cid, d, r, n) for cid, grid in GRID_PARAMETRIC.items()
             for d, r, n in grid if n <= 9]
    verdicts = []
    while len(verdicts) < 64:
        cid, d, r, n = rng.choice(small)
        # The template as its six lists: the head's a_0, b_0, c_0, then the
        # intercepts of a, b and c.
        (a0, b0, c0), a, b, c = _template(cid, d, r, n, 1)
        mutant = [a0, b0, c0, a, b, c]
        part = rng.choice([p for p in range(6) if mutant[p]])
        mutant[part][rng.randrange(len(mutant[part]))] += rng.choice((1, -1))
        template = (tuple(mutant[:3]), *mutant[3:])
        try:
            increments = expand(template, d, _limit(cid, d, r, n))
        except DegenerateProductError:
            continue  # keep denominators nonzero

        def mutated(c, d_, r_, n_, s, entries, template=template):
            return template if s else real(c, d_, r_, n_, s, entries)

        monkeypatch.setattr(parametric, "_sum_template", mutated)
        parametric._witness.cache_clear()  # each mutant is decided afresh
        parametric._left_side.cache_clear()
        parametric._same_shape.cache_clear()
        where = cid, d, r, n, part, template
        oracle = _oracle_verdict(cid, d, r, n, increments)
        packed = packed_check(cid, d, r, n)
        assert (packed is None) is (oracle is Status.HOLDS), where
        # Gasper's argument reads a mutant whose premises fail, such as an
        # intercept moved out of its class mod d, as ERROR "no
        # certificate", and decides every other one as the oracle does.
        result = run_check(cid, {"d": d, "n": n, "r": r})
        if result.status is Status.ERROR:
            assert result.witness.startswith(
                "RuntimeError: no certificate"), where
        else:
            assert result.status is oracle, where
        verdicts.append(oracle)
    # A mutant inside a term that a factor 1 - q^0 already zeroes changes
    # nothing, so some mutants hold.
    assert verdicts.count(Status.FAILS) > len(verdicts) // 2


def _divisibility_oracle_verdict(d, n, increments):
    """FAILS unless (1 - q)^{d(n-1)} divides the dense N and [n]^2 divides
    the quotient, by running sums and polynomial division."""
    num, _ = dense_sum(d, increments)
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
        increments = family_increments("lemma21", d, 1, n - 1)
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
    # The bound follows from the factor counts alone, ahead of the build.
    grown = qfuncs.grown_bits(bits, exps, n, shift)
    width = packed_width(grown)
    start = 0
    for e, c in coeffs.items():
        start, _ = qfuncs._plus_shifted(start, 0, c, 0, e, width, n)
    value, _ = qfuncs._times_one_minus(start, 0, exps, width, n)
    value, _ = qfuncs._plus_shifted(0, 0, value, 0, shift, width, n)
    folded = Packed(value, 0, grown, width, n)
    expected = sum((Laurent(Poly((c,)), e) for e, c in coeffs.items()),
                   Laurent(Poly()))
    expected = (expected * laurent_product(exps)).shifted(shift)
    rep = _fold_oracle(expected, n)
    assert folded.laurent() == rep
    assert not rep.body.coeffs or rep.min_exp + rep.body.degree < 2 * n
    assert folded.is_zero() is rep.is_zero()
    assert folded.is_zero() or not divisible
    # The shift and the factors commute in the fold, as in Z[q].
    other, _ = qfuncs._plus_shifted(0, 0, start, 0, shift, width, n)
    other, _ = qfuncs._times_one_minus(other, 0, exps, width, n)
    assert (value - other) % folded._modulus() == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.lists(st.integers(-9, 9), max_size=27),
       st.sampled_from(["zero", "negative", "folded", "raw"]),
       st.lists(st.integers(-50, 50), max_size=5), st.integers(-50, 50))
@example(4, [3, -1, 0, 2, 0, 0, 0, 0, 0, 5], "raw", [-7, 2, 11, 8], 13)
@example(3, [1, 2], "negative", [-3, 0, 7], -5)
@example(5, [7, 0, 0, 0, 0, 0, 1], "folded", [23, -12, 4], 2)
@example(2, [1], "zero", [5, -5], 9)
def test_fold_step_matches_the_old_step_and_division(n, coeffs, kind, exps,
                                                     k):
    # After a factor or a sum, the folded branches hold the running value
    # in [0, X^2) and in the class modulo (X - 1)^2 of the old per-factor
    # step, whose unpacked residue is the dense one modulo (1 - q^n)^2.
    coeffs = [] if kind == "zero" else coeffs[:3 * n]  # degree < 3n
    # The top nonzero coefficient sets the sign of the packed start.
    if kind == "negative" and [c for c in coeffs if c][-1:] > [0]:
        coeffs = [-c for c in coeffs]
    dense = Laurent(Poly(tuple(coeffs)), 0)
    span = 3 * n + sum(map(abs, exps)) + abs(k)
    bits = (sum(map(abs, coeffs)).bit_length() + len(exps) + 1
            + qfuncs.fold_bits(span, n))
    width = packed_width(bits)
    start = pack(coeffs, width // 8)
    assert start < 0 or kind != "negative" or not any(coeffs)
    if kind == "folded":
        start, _ = qfuncs._plus_shifted(0, 0, start, 0, 0, width, n)
    square = 1 << 2 * n * width
    modulus = ((1 << n * width) - 1) ** 2
    value, low = qfuncs._times_one_minus(start, 0, exps, width, n)
    assert low == 0 and (0 <= value < square if exps else value == start)
    old = folded_times_one_minus(start, exps, n, width)
    assert (value - old) % modulus == 0
    rep = _fold_oracle(dense * laurent_product(exps), n)
    assert Packed(value, 0, bits, width, n).laurent() == rep
    total, low = qfuncs._plus_shifted(value, 0, start, 0, k, width, n)
    assert low == 0 and 0 <= total < square
    assert (total - value - times_q(start, k, n, width)) % modulus == 0
    rep = _fold_oracle(dense * laurent_product(exps) + dense.shifted(k), n)
    assert Packed(total, 0, bits, width, n).laurent() == rep


def _dense_relation(step, terms, fold):
    """Oracle for ``relation_vanishes``: the relation summed on dense
    lists, reduced modulo (1 - q^fold)^2 by division when fold is set."""
    total = Laurent(Poly())
    for sign, shift, exps, increments in terms:
        num = (Laurent(Poly((1,))) if increments is None
               else dense_sum(step, increments)[0])
        total = total + (num * laurent_product(exps)).shifted(shift) * sign
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
    # The parametric checks count exponents and bound no sum; the packed
    # oracle they replaced bounds its one sum once.
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert calls == []
    assert packed_check("p7_45", 7, 3, 11) is None
    assert run_check("thm13", {"d": 3, "n": 5}).status is Status.HOLDS
    assert calls == [0, 5]


def _outcome(decide, *args):
    """The first failing k, the DegenerateProductError, or "no certificate"
    where ``first_failing_term`` has none."""
    try:
        return decide(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)
    except RuntimeError as exc:
        assert str(exc).startswith("no certificate")
        return "no certificate"


def _counted(templates, relation, step, limit):
    """The counting oracle on the templates' expanded lists."""
    return counting_first_failing_term(
        [expand(t, step, limit) for t in templates], relation)


# Intercepts mostly above 0, so that most ratios telescope with no factor
# that vanishes at some k >= 1.
_intercepts = st.lists(st.integers(-1, 8), max_size=4)
_templates = st.tuples(st.tuples(_nonzero, _nonzero, _exponents),
                       _intercepts, st.lists(st.integers(1, 6), max_size=4),
                       _intercepts)


def test_first_failing_term_matches_the_counting_oracle():
    outcomes = []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), _templates,
           st.integers(1, 2), st.booleans(), st.data())
    def check(step, limit, template, others, vanishing, data):
        # Runs 1, 2, ... are run 0's template with every list reordered,
        # and sometimes one exponent moved: by a multiple of the step, which
        # keeps the ratios telescoping, or by one, which mostly does not.
        # A vanishing relation pairs one part with its negation; 1 - q^0 in
        # a or c leaves terms that hold either way.
        templates = [template]
        for _ in range(others):
            lists = [list(data.draw(st.permutations(exps)))
                     for exps in (*template[0], *template[1:])]
            spots = [(p, i) for p, exps in enumerate(lists)
                     for i in range(len(exps))]
            if spots and data.draw(st.booleans()):
                p, i = data.draw(st.sampled_from(spots))
                lists[p][i] += data.draw(st.sampled_from(
                    (1, -1, step, -step, 2 * step)))
            templates.append((tuple(lists[:3]), *lists[3:]))
        part = st.tuples(st.sampled_from((1, -1)), st.integers(-2, 2),
                         _exponents)
        relation = data.draw(st.lists(part, min_size=len(templates),
                                      max_size=len(templates)))
        if vanishing:  # the first part, its negation, and parts of sign 0
            sign, shift, exps = relation[0]
            relation = [relation[0], (-sign, shift, exps[::-1])] + [
                (0, 0, [])] * (len(templates) - 2)
        got = _outcome(first_failing_term, templates, relation, step, limit)
        if got == "no certificate":
            assert termwise_degree(templates, step, limit) is None
        else:
            assert got == _outcome(_counted, templates, relation, step,
                                   limit)
        outcomes.append(got)

    check()
    # Certified verdicts of both kinds are compared, failures past term 0
    # among them.
    assert None in outcomes and "no certificate" in outcomes
    assert any(isinstance(k, int) and k > 0 for k in outcomes)


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
    (verifier, "thm12", {"d": 3, "n": 5}),
])
def test_undersized_width_is_error_not_a_verdict(monkeypatch, module,
                                                 check_id, params):
    assert run_check(check_id, params).status is Status.HOLDS
    # The check's module decides or builds its closed form through qfuncs,
    # so one bit short of the bits + 2 that a bound of 2^bits needs,
    # patched there alone, reaches every width the check picks.
    name = "one_minus_product" if check_id == "thm12" else "relation_vanishes"
    if module is not parametric:
        assert getattr(module, name) is getattr(qfuncs, name)
    monkeypatch.setattr(qfuncs, "packed_width", lambda bits: bits + 1)
    parametric._witness.cache_clear()  # decide the patched instance afresh
    parametric._left_side.cache_clear()
    parametric._same_shape.cache_clear()
    result = run_check(check_id, params)
    if module is parametric:
        # Gasper's argument counts exponents and packs nothing, so the
        # verdict stands; the packed oracle it replaced reads the width
        # as an error.
        assert not hasattr(parametric, name)
        assert result.status is Status.HOLDS
        with pytest.raises(PackingOverflowError):
            packed_check(check_id, params["d"], params["r"], params["n"])
        return
    assert result.status is Status.ERROR
    assert result.witness.startswith("PackingOverflowError")


def test_packed_bound_decides_exactness():
    width = packed_width(6)
    assert width == 8
    six = Packed(*qfuncs._times_one_minus(1, 0, range(1, 7), width), 6, width)
    assert six.laurent() == laurent_product(range(1, 7))
    assert not six.is_zero()
    seven = Packed(*qfuncs._times_one_minus(six.value, 0, [7], width), 7,
                   width)
    for ask in (seven.is_zero, seven.laurent):
        with pytest.raises(PackingOverflowError):
            ask()
    # Folded, the bound also carries the growth of each reduction.
    bits = qfuncs.grown_bits(0, [1, 2], 3)
    assert bits == 2 + qfuncs.fold_bits(2 * 3 + 3, 3) == 6
    folded = Packed(*qfuncs._times_one_minus(1, 0, [1, 2], width, 3), bits,
                    width, 3)
    assert folded.laurent() == laurent_product([1, 2])
    bits = qfuncs.grown_bits(0, [1, 2, 1], 3)
    with pytest.raises(PackingOverflowError):
        Packed(*qfuncs._times_one_minus(1, 0, [1, 2, 1], width, 3), bits,
               width, 3).is_zero()
    # q^400 = -199 + 200 q^2 mod (1 - q^2)^2: 200 needs more than 8-bit
    # digits, which the reduction's growth in the bound asks for.
    bits = qfuncs.grown_bits(0, [], 2, 400)
    far = Packed(*qfuncs._plus_shifted(0, 0, 1, 0, 400, 8, 2), bits, 8, 2)
    with pytest.raises(PackingOverflowError):
        far.laurent()
    width = packed_width(bits)
    far = Packed(*qfuncs._plus_shifted(0, 0, 1, 0, 400, width, 2), bits,
                 width, 2)
    assert far.laurent() == Laurent(Poly((-199, 0, 200)), 0)
    # Factors of either sign and offsets line up like Laurent products.
    value, low = qfuncs._times_one_minus(1, 0, [3, -2], 16)
    mixed = Packed(*qfuncs._plus_shifted(0, 0, value, low, -4, 16), 2, 16)
    assert mixed.laurent() == laurent_product([3, -2]).shifted(-4)
    assert Packed(*qfuncs._plus_shifted(mixed.value, mixed.low, -mixed.value,
                                        mixed.low, 0, 16), 3, 16).is_zero()


@pytest.mark.parametrize("fold", [0, 3])
def test_packed_decides_at_bits_plus_two_and_refuses_past_it(fold):
    # ||c - c q^2||_1 = 2^bits with c = 2^(bits - 1): decided and unpacked
    # while bits + 2 == width, refused at bits + 3.  Folded, a multiple of
    # (2^{3 width} - 1)^2 is the zero class.
    for width in (8, 16, 24):
        bits = width - 2
        c = 1 << (bits - 1)
        low = 0 if fold else -1  # a folded value has no offset
        cases = [(c - (c << 2 * width), Laurent(Poly((c, 0, -c)), low)),
                 (0, Laurent(Poly()))]
        if fold:
            modulus = ((1 << fold * width) - 1) ** 2
            cases += [(value + 5 * modulus, rep) for value, rep in cases]
        for value, rep in cases:
            at = Packed(value, low, bits, width, fold)
            assert at.is_zero() is rep.is_zero()
            assert at.laurent() == rep
            past = Packed(value, low, bits + 1, width, fold)
            for ask in (past.is_zero, past.laurent):
                with pytest.raises(PackingOverflowError):
                    ask()
