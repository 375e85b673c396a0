"""Parametric congruences at a = q^n, a = q^-n, and the a = 1 collapse."""

import functools
import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    SAME_WORK,
    collapse_at_one,
    counting_first_failing_term,
    dense_product,
    dense_sum,
    first_differing_term,
    identity,
    one_minus_normal_form,
    packed_witness,
    reference_increments,
    reference_summand,
    sum_increments,
)
from qsupercheck import parametric, qfuncs
from qsupercheck.catalog import _WIDE_ROWS, GRID_PARAMETRIC, run_check
from qsupercheck.cli import main
from qsupercheck.identities import _alternating_sum, qbinomial_row
from qsupercheck.laurent import Laurent
from qsupercheck.parametric import (
    PARAMETRIC_IDS,
    DegenerateSubstitutionError,
    _den_core,
    _key,
    _reference_template,
    _rhs_factors,
    _same_shape,
    _SHIFTED_INDEX,
    _sum_template,
    _upper_limit,
    numerator_entries,
    parametric_precondition,
    rhs_band,
    verify_parametric,
)
from qsupercheck.poly import Poly
from qsupercheck.qfuncs import (
    DegenerateProductError,
    expand,
    first_failing_term,
    one_minus_product,
    packed_width,
    truncated_sum,
)
from qsupercheck.results import Status

# The catalog grid plus the instances just past it (largest catalog d, next
# admissible n) that the benchmark's laurent-products workload runs.
PAST_GRID = {
    "p1_24": ((7, 2, 12), (5, 2, 13)),
    "p2_25": ((7, 3, 11), (5, 1, 14)),
    "p3_32": ((5, 1, 9), (5, 1, 14)),
    "p4_33": ((3, 1, 8), (3, 1, 11)),
    "p5_43": ((5, 2, 8), (5, 2, 13)),
    "p6_44": ((4, 3, 5), (4, 3, 9)),
    "p7_45": ((7, 3, 11), (5, 1, 14)),
    "p8_46": ((5, 3, 7), (5, 3, 12)),
}
INSTANCES = sorted({(cid, d, r, n) for grid in (GRID_PARAMETRIC, PAST_GRID)
                    for cid, triples in grid.items() for d, r, n in triples})


def _template(check_id, d, r, n, s):
    """The LHS template at a = q^{sn}, or a = 1 for s = 0."""
    return _sum_template(check_id in _SHIFTED_INDEX, d, r, n, s,
                         numerator_entries(check_id, d, r))


def _same(check_id, d, r):
    """Whether the a = 1 template and the reference's have equal keys."""
    return _same_shape(check_id in _SHIFTED_INDEX,
                       tuple(numerator_entries(check_id, d, r)), d, r)


def _limit(check_id, d, r, n):
    """The sum's last term."""
    return _upper_limit(check_id in _SHIFTED_INDEX, d, r, n)


def _ref_template(check_id, d, r):
    """The reference summand's template."""
    return _reference_template(check_id in _SHIFTED_INDEX, d, r)


def _sum(check_id, d, r, n, s):
    """The LHS template's expanded increments at a = q^{sn}, or a = 1 for
    s = 0."""
    return expand(_template(check_id, d, r, n, s), d,
                  _limit(check_id, d, r, n))


def _reference(check_id, d, r, n):
    """The reference summand's increments as the a = 1 collapse expands
    them."""
    return expand(_ref_template(check_id, d, r), d,
                  _limit(check_id, d, r, n))


def _sum_sides(check_id, d, r, n, s):
    """The kernel's LHS N at a = q^{sn} and D, the product of every b,
    unpacked."""
    increments = _sum(check_id, d, r, n, s)
    return truncated_sum(d, increments).laurent(), one_minus_product(
        [e for _, b, _ in increments for e in b])


def _sum_sides_by_suffixes(check_id, d, r, n, s):
    """Oracle: each term's full factor product times a suffix product of
    the denominator increments, with the reciprocal factors of index k - 2
    handled at k = 0 and k = 1 by hand."""
    entries = numerator_entries(check_id, d, r)
    limit = _limit(check_id, d, r, n)
    den_bases = [j * s * n + d for j in [0] + _den_core(d)]
    for e in den_bases:
        if e % d == 0 and e <= 0:
            raise DegenerateSubstitutionError(f"denominator base q^{e}")
    shifted_bases = [j * s * n + d + r for j, _, off in entries if off == -2]
    neg_exps_k0 = ([b - d for b in shifted_bases]
                   + [b - 2 * d for b in shifted_bases])
    if 0 in neg_exps_k0:
        raise DegenerateSubstitutionError("reciprocal factor 1 - q^0")
    neg_total = dense_product(neg_exps_k0)
    neg_k1_complement = dense_product([b - 2 * d for b in shifted_bases])
    increments = [dense_product([e + d * k for e in den_bases])
                  for k in range(limit)]
    suffix = [Laurent(Poly((1,)))]
    for g in reversed(increments):
        suffix.append(suffix[-1] * g)
    suffix.reverse()  # suffix[k] = prod of increments k..limit-1
    total = Laurent(Poly())
    for k in range(limit + 1):
        num_exps = []
        for j, e, off in entries:
            base = j * s * n + e
            for t in range(k + off if off else k):
                num_exps.append(base + d * t)
        if check_id in _SHIFTED_INDEX:
            num_exps.extend([d * k - d + r] * r)
        term = dense_product(num_exps).shifted(d * k)
        if k == 1:
            term = term * neg_k1_complement
        elif k >= 2:
            term = term * neg_total
        total = total + term * suffix[k]
    return total, suffix[0] * neg_total


@pytest.mark.parametrize("check_id,d,r,n", INSTANCES)
def test_sum_sides_match_suffix_product_oracle(check_id, d, r, n):
    for s in (1, -1):
        assert _sum_sides(check_id, d, r, n, s) == _sum_sides_by_suffixes(
            check_id, d, r, n, s)


def test_cancelled_cross_product_packs_at_32_bit_digits(monkeypatch):
    # The packed oracle: factor counts alone packed p7_45 (7, 3, 11) at
    # 88-bit digits for 27-bit coefficients; after the counted
    # cancellation 32 bits suffice.
    widths = []
    real = qfuncs._numerator

    def spy(step, increments, width, fold=0):
        widths.append(width)
        return real(step, increments, width, fold)

    monkeypatch.setattr(qfuncs, "_numerator", spy)
    assert packed_witness("p7_45", 7, 3, 11) is None
    # a = q^-n is the a = q^n identity, so one sum is built.
    assert len(widths) == 1 and max(widths) <= 32


WIDE = [(cid, d, r, n) for cid, _, axes in _WIDE_ROWS if cid in PARAMETRIC_IDS
        for d, r, n in itertools.product(*axes)
        if parametric_precondition(cid, d, r, n) is None]
WIDE_TO_24 = [inst for inst in WIDE if inst[3] <= 24]


def _decided(check_id, d, r, n, mutation=None, witness=None):
    """``verify_parametric``'s witness, None where it holds, or the packed
    oracle's with ``witness=packed_witness``; an exception as its type and
    text."""
    try:
        if witness:
            return witness(check_id, d, r, n, mutation)
        return verify_parametric(check_id, d, r, n, mutation).witness
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_gasper_agrees_with_the_packed_oracle_on_the_wide_rows():
    # Every admissible instance of the eight parametric paper-wide rows up
    # to n = 24, and its sign and exponent twins, reads the packed cross
    # product's witness, or its refusal of a mutated vanishing sum.
    assert (len(WIDE), len(WIDE_TO_24)) == (345, 196)
    held = Counter()
    for cid, d, r, n in WIDE_TO_24:
        for mutation in (None, "sign", "exponent"):
            got = _decided(cid, d, r, n, mutation)
            assert got == _decided(cid, d, r, n, mutation, packed_witness), (
                cid, d, r, n, mutation)
            held[mutation] += got is None
    assert held == {None: 196, "sign": 0, "exponent": 0}


def _patched_template(monkeypatch, change):
    """The a = q^n template changed by ``change(template, d, limit)``; the
    a = 1 one is left alone."""
    def patched(shifted, d, r, n, s, entries):
        template = _sum_template(shifted, d, r, n, s, entries)
        if not s:
            return template
        return change(template, d, _upper_limit(shifted, d, r, n))

    monkeypatch.setattr(parametric, "_sum_template", patched)


def _one_more_c(template, d, limit):
    (a0, b0, c0), a, b, c = template
    return (a0, b0, c0 + [d + 1]), a, b, c + [2 * d + 1]


def _kept_a_past_the_limit(template, d, limit):
    (kept,), _, _ = qfuncs.pair_intercepts(template, d, limit)
    head, a, b, c = template
    return head, [-d * (limit + 1) if x == kept else x for x in a], b, c


def _one_more_kept_b(template, d, limit):
    head, a, b, c = template
    return head, a, b + [max(a) + d], c


def _c0_unshifted(template, d, limit):
    (a0, b0, _), a, b, c = template
    return (a0, b0, list(c)), a, b, c


@pytest.mark.parametrize("check_id,d,r,n,change,why", [
    ("p7_45", 7, 3, 11, _one_more_c, "P has degree 9 > N = 8"),
    ("p7_45", 7, 3, 11, _kept_a_past_the_limit, "the sum ends before N = 11"),
    ("p5_43", 5, 2, 13, _one_more_kept_b, "the kept intercepts are not"),
    ("p1_24", 7, 2, 12, _c0_unshifted, "c_0 is not c at k = 0"),
    ("p1_24", 7, 2, 12, _one_more_kept_b, "the kept intercepts are not"),
])
def test_a_failed_premise_is_an_error_never_a_verdict(monkeypatch, check_id,
                                                     d, r, n, change, why):
    params = {"d": d, "n": n, "r": r}
    assert run_check(check_id, params).status is Status.HOLDS
    _patched_template(monkeypatch, change)
    parametric._left_side.cache_clear()  # decide the patched instance afresh
    result = run_check(check_id, params)
    assert result.status is Status.ERROR
    assert result.witness.startswith("RuntimeError: no certificate: " + why)


def test_an_a_intercept_raised_by_d_never_holds(monkeypatch):
    # (q^{x+d}; q^d)_k is (q^x; q^d)_{k+1} / (1 - q^x): a pair's L or N
    # moves by one.  A closed form's M = N becomes M > N, an ERROR, and a
    # vanishing sum's M = N - 1 becomes M = N, a FAILS, as the packed
    # oracle finds.
    statuses = Counter()
    for cid, d, r, n in WIDE_TO_24:
        for i in range(len(numerator_entries(cid, d, r))):
            def raised(template, d, limit, i=i):
                head, a, b, c = template
                return head, a[:i] + [a[i] + d] + a[i + 1:], b, c

            _patched_template(monkeypatch, raised)
            parametric._left_side.cache_clear()
            result = run_check(cid, {"d": d, "n": n, "r": r})
            statuses[cid in _SHIFTED_INDEX, result.status] += 1
            if result.status is Status.FAILS:
                assert result.witness == _decided(cid, d, r, n, None,
                                                  packed_witness)
            else:
                assert result.witness.startswith(
                    "RuntimeError: no certificate: P has degree"), (
                        cid, d, r, n, i)
    assert set(statuses) == {(True, Status.FAILS), (False, Status.ERROR)}


_small = st.lists(st.integers(-5, 7), max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4),
       st.lists(st.tuples(st.integers(1, 7), st.integers(0, 2)), max_size=2),
       _small, _small, _small.map(lambda es: [e for e in es if e]),
       st.integers(0, 2))
def test_gasper_sum_matches_the_dense_sum(d, top, pairs, c, a0, b0, extra):
    # Templates built to Gasper's shape: kept a = [-dN], kept b = [d], pairs
    # (y, L) and c factors, with M <= N.  Each y >= 1 in the class of d is
    # at least d, so the largest open b leaves d unpaired and every premise
    # holds.  The normal form read off them is the dense sum's, or None
    # exactly where that sum is zero.
    assume(sum(span for _, span in pairs) + len(c) <= top)
    template = ((a0, b0, [e - d for e in c]),
                [-d * top] + [y + d * span for y, span in pairs],
                [d] + [y for y, _ in pairs], c)
    limit = top + extra
    got = parametric._gasper_sum(template, d, limit)
    num, den = dense_sum(d, expand(template, d, limit))
    if got is None:
        assert num.is_zero()
        return
    sign, shift, up, down = got
    assert num * dense_product(down) == (
        dense_product(up) * den).shifted(shift) * sign


def test_sides_are_compared_on_one_net_count_by_hand():
    differ = qfuncs.quotients_differ
    one_plus_q = (1, 0, [2], [1])  # (1 - q^2) / (1 - q) = 1 + q
    # The same value through other factors, and through 1 - q^-2 =
    # -q^-2 (1 - q^2); then a wrong sign, power of q and factor.
    assert not differ(one_plus_q, (1, 0, [2, 3], [1, 3]))
    assert not differ(one_plus_q, (-1, 2, [-2], [1]))
    for other in ((-1, 0, [2], [1]), (1, 1, [2], [1]), (1, 0, [4], [2])):
        assert differ(one_plus_q, other) and differ(other, one_plus_q)
    # 1 - q^0 in either side's numerator makes that side 0, as None does.
    for zero in (None, (1, 3, [0], [1]), (-1, 0, [2, 0], [5])):
        for other in (None, (1, 0, [0, 2], [1])):
            assert not differ(zero, other)
        assert differ(zero, one_plus_q) and differ(one_plus_q, zero)
    # 1 - q^0 in either side's denominator is refused, whatever the other
    # side, and even where that side's numerator makes it 0.
    for other in (one_plus_q, None, (1, 0, [0], [])):
        for degenerate in ((1, 0, [2], [0]), (-1, 1, [0], [3, 0])):
            with pytest.raises(DegenerateProductError):
                differ(other, degenerate)
            with pytest.raises(DegenerateProductError):
                differ(degenerate, other)


def test_every_n_reached_sits_inside_the_qbinom_row():
    # Gasper's sum vanishes for M < N because (q^{d(1+j-N)}; q^d)_N = 0
    # for 0 <= j < N.  At base q that is paper-wide's qbinom_vanish row,
    # whose alternating sum is q^{C(N,2)} (q^{j+1-N}; q)_N, so every N
    # reached must lie on the row; at j = N the sum is q^{C(N,2)} (q; q)_N.
    reached = set()
    for cid, d, r, n in WIDE:
        (kept,), _, _ = qfuncs.pair_intercepts(_template(cid, d, r, n, 1), d,
                                               _limit(cid, d, r, n))
        reached.add(-kept // d)
    (row,) = next(axes for cid, _, axes in _WIDE_ROWS
                  if cid == "qbinom_vanish")
    assert max(reached) <= row[-1] == 80 and row[0] == 1 <= min(reached)
    for top in sorted(reached):
        width = packed_width(top)
        total = _alternating_sum(qbinomial_row(top, width), top, width)
        assert total.laurent() == dense_product(range(1, top + 1)).shifted(
            top * (top - 1) // 2), top


ADMISSIBLE_TO_40 = [(cid, d, r, n) for cid in PARAMETRIC_IDS
                    for d in range(2, 12) for r in range(1, 10)
                    for n in range(2, 41)
                    if parametric_precondition(cid, d, r, n) is None]


def _multisets(increments):
    return [[Counter(exps) for exps in inc] for inc in increments]


def test_both_points_give_the_same_exponent_lists():
    # verify_parametric decides a = q^n alone, once it has found
    # numerator_entries, rhs_band and _den_core symmetric under j -> -j;
    # this oracle pins on the whole range that the two points then give
    # the same lists and the same closed form.
    assert len(ADMISSIBLE_TO_40) == 369
    for cid, d, r, n in ADMISSIBLE_TO_40:
        parametric._refuse_asymmetry(numerator_entries(cid, d, r),
                                     rhs_band(cid, d, r), d)
        assert _multisets(sum_increments(cid, d, r, n, 1)) == _multisets(
            sum_increments(cid, d, r, n, -1)), (cid, d, r, n)
        if cid in _SHIFTED_INDEX:
            continue
        (sign, shift, num, den), (sign2, shift2, num2, den2) = (
            _rhs_factors(rhs_band(cid, d, r), d, r, n, s, None)
            for s in (1, -1))
        assert (sign, shift, Counter(num), Counter(den)) == (
            sign2, shift2, Counter(num2), Counter(den2)), (cid, d, r, n)


def _unmirrored(real):
    """``real`` with its first a-exponent j, d - 1 or the band's largest,
    raised by one, so that no -j mirrors it."""
    def raised(check_id, d, r):
        first, *rest = real(check_id, d, r)
        if isinstance(first, tuple):
            return [(first[0] + 1, *first[1:])] + rest
        return [first + 1] + rest
    return raised


@pytest.mark.parametrize("check_id,d,r,n,target", [
    ("p1_24", 7, 2, 12, "numerator_entries"),
    ("p2_25", 7, 3, 11, "numerator_entries"),
    ("p5_43", 5, 2, 13, "numerator_entries"),
    ("p7_45", 7, 3, 11, "rhs_band"),
    ("p8_46", 5, 3, 12, "rhs_band"),
])
def test_an_asymmetric_list_is_an_error(monkeypatch, check_id, d, r, n,
                                        target):
    # Negative control: a = q^n stands for a = q^-n only while the lists
    # that a j s n enters are symmetric, so one j without its mirror is
    # refused as an engine error, not decided at one point.
    params = {"d": d, "n": n, "r": r}
    assert run_check(check_id, params).status is Status.HOLDS
    monkeypatch.setattr(parametric, target,
                        _unmirrored(getattr(parametric, target)))
    parametric._left_side.cache_clear()  # decide the patched instance afresh
    parametric._same_shape.cache_clear()
    result = run_check(check_id, params)
    assert result.status is Status.ERROR
    assert result.witness == (f"RuntimeError: {target} is not symmetric"
                              " under j -> -j")


def test_families_share_work_exactly_where_written_out():
    # Two families admissible at one (d, r, n) run the same computation
    # exactly when their shifted index, numerator entries and central
    # band agree; that happens only for the pairs written out.
    shared = set()
    for d in range(2, 16):
        for r in range(1, d):
            for n in range(2, 41):
                groups = {}
                for cid in PARAMETRIC_IDS:
                    if parametric_precondition(cid, d, r, n) is None:
                        groups.setdefault((
                            cid in _SHIFTED_INDEX,
                            tuple(numerator_entries(cid, d, r)),
                            tuple(rhs_band(cid, d, r))), []).append(cid)
                for cids in groups.values():
                    assert len(cids) <= 2, (d, r, n, cids)
                    if len(cids) == 2:
                        assert SAME_WORK.get(cids[0]) == cids[1], (d, r, n)
                        shared.add(tuple(cids))
    assert shared == set(SAME_WORK.items())
    for cid, twin in SAME_WORK.items():
        for d in range(2, 16):
            for r in range(1, d):
                for n in range(2, 41):
                    if parametric_precondition(cid, d, r, n) is None:
                        assert parametric_precondition(twin, d, r, n) is None


def test_shared_work_is_certified_once_per_process(monkeypatch):
    calls, closed = [], []
    real, real_rhs = parametric._gasper_sum, parametric._rhs_factors

    def spy(template, d, limit):
        calls.append(limit)
        return real(template, d, limit)

    def rhs_spy(*args):
        closed.append(args)
        return real_rhs(*args)

    monkeypatch.setattr(parametric, "_gasper_sum", spy)
    monkeypatch.setattr(parametric, "_rhs_factors", rhs_spy)
    first = verify_parametric("p7_45", 5, 1, 14)
    second = verify_parametric("p3_32", 5, 1, 14)
    # The sum is built once; the closed form, which a mutation reaches, at
    # every call.
    assert (len(calls), len(closed)) == (1, 2)
    assert (first.check_id, first.status) == ("p7_45", Status.HOLDS)
    assert (second.check_id, second.status) == ("p3_32", Status.HOLDS)
    assert second.params == first.params == {"d": 5, "n": 14, "r": 1}
    assert second.params is not first.params
    # A mutation reaches only the closed form: it is decided on the sum
    # its sibling built.
    for _ in range(2):
        mutant = verify_parametric("p3_32", 5, 1, 14, mutation="sign")
        assert (mutant.check_id, mutant.status) == ("p3_32", Status.FAILS)
        assert mutant.witness == "sides differ at a = q^14"
    assert (len(calls), len(closed)) == (1, 4)
    # Another n is other work; the memos stay within their bound.
    assert verify_parametric("p3_32", 5, 1, 19).status is Status.HOLDS
    assert (len(calls), len(closed)) == (2, 5)
    for memo in (parametric._left_side, parametric._same_shape):
        assert memo.cache_info().maxsize == 4096
    small = functools.lru_cache(maxsize=2)(parametric._left_side.__wrapped__)
    monkeypatch.setattr(parametric, "_left_side", small)
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert verify_parametric("p7_45", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 4
    assert verify_parametric("p3_32", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 4
    # A third sum drops the least recently used, (7, 3, 11).
    assert verify_parametric("p3_32", 5, 1, 19).status is Status.HOLDS
    assert parametric._left_side.cache_info().currsize == 2
    assert verify_parametric("p7_45", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 5
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert len(calls) == 6


def test_a_twin_after_its_sibling_builds_only_its_closed_form(monkeypatch):
    # Every grid and past-grid instance, then its sign and exponent twins:
    # a twin builds no second template or sum, and decides as it does
    # with every memo cleared, down to the error of a mutated vanishing
    # sum.
    built = Counter()
    for name in ("_sum_template", "_gasper_sum"):
        def spy(*args, name=name, real=getattr(parametric, name)):
            built[name] += 1
            return real(*args)

        monkeypatch.setattr(parametric, name, spy)

    def decided(cid, d, r, n, mutation):
        try:
            result = verify_parametric(cid, d, r, n, mutation=mutation)
        except ValueError as exc:
            return "ValueError", str(exc)
        return result.status, result.witness, result.note

    for cid, d, r, n in INSTANCES:
        assert decided(cid, d, r, n, None)[0] is Status.HOLDS
        for mutation in ("sign", "exponent"):
            before = built.copy()
            warm = decided(cid, d, r, n, mutation)
            assert built == before, (cid, d, r, n, mutation)
            for memo in (parametric._left_side, parametric._same_shape):
                memo.cache_clear()
            assert decided(cid, d, r, n, mutation) == warm
            assert warm[0] in (Status.FAILS, "ValueError")
            assert built["_gasper_sum"] == before["_gasper_sum"] + 1


def test_vanishing_sum_without_last_term_is_nonzero():
    # Negative control: the vanishing check must not pass vacuously.
    for s in (1, -1):
        increments = _sum("p1_24", 4, 1, 7, s)
        assert truncated_sum(4, increments).is_zero()
        assert not truncated_sum(4, increments[:-1]).is_zero()


def _collapsed_term_by_entries(check_id, d, r, k):
    """Oracle: term k at a = 1 read off the numerator entries directly."""
    num_exps = []
    den_exps = [d + d * t for t in range(k)] * d
    for _, e, off in numerator_entries(check_id, d, r):
        if off == -2 and k < 2:
            den_exps.extend((e - d,) if k == 1 else (e - d, e - 2 * d))
            continue
        num_exps.extend(e + d * t for t in range(k + off))
    if check_id in _SHIFTED_INDEX:
        num_exps.extend([d * k - d + r] * r)
    num = one_minus_product(num_exps).shifted(d * k)
    return num, one_minus_product(den_exps)


@pytest.mark.parametrize("check_id,d,r,n", INSTANCES)
def test_collapse_counting_matches_polynomial_oracle(check_id, d, r, n):
    num, den, ref_num, ref_den = [], [], [], []
    for k, ((a, b, c), (ra, rb, rc)) in enumerate(zip(
            _sum(check_id, d, r, n, 0), _reference(check_id, d, r, n))):
        num, den = num + a, den + b
        ref_num, ref_den = ref_num + ra, ref_den + rb
        lhs_num = one_minus_product(num + c).shifted(d * k)
        lhs_den = one_minus_product(den)
        oracle_num, oracle_den = _collapsed_term_by_entries(check_id, d, r, k)
        assert lhs_num * oracle_den == oracle_num * lhs_den
        ref = one_minus_product(ref_num + rc).shifted(d * k)
        assert lhs_num * one_minus_product(ref_den) == ref * lhs_den
    assert _same(check_id, d, r)


# A failed a = 1 premise: ERROR, and a sweep that meets it exits 4.
NO_COLLAPSE = (Status.ERROR, "RuntimeError: no certificate: the a = 1"
               " template is not the reference summand's", 4)


def _with_reference(monkeypatch, tmp_path, check_id, params, reference):
    """The check's status and witness with ``reference`` patched in as the
    reference template, and the exit code of a sweep of that instance."""
    monkeypatch.setattr(parametric, "_reference_template", reference)
    parametric._left_side.cache_clear()  # decide the patched reference
    parametric._same_shape.cache_clear()
    result = run_check(check_id, params)
    out = tmp_path / "report.json"
    flags = [f"--{key}={value}" for key, value in params.items()]
    code = main(["sweep", "--check", check_id, *flags, "--out", str(out)])
    return result.status, result.witness, code


def test_collapse_detects_a_wrong_exponent(monkeypatch, tmp_path):
    # One more factor in each of the reference's a_0 and b_0: the a = 1
    # template no longer reproduces it, so the premise fails, an engine
    # ERROR, never a verdict.
    def off_by_one(shifted, d, r):
        (a, b, c), *lines = _reference_template(shifted, d, r)
        return ((a + [1], b + [2], c), *lines)

    params = {"d": 7, "n": 11, "r": 3}
    assert run_check("p7_45", params).status is Status.HOLDS
    assert _with_reference(monkeypatch, tmp_path, "p7_45", params,
                           off_by_one) == NO_COLLAPSE


ADMISSIBLE = [(cid, d, r, n) for cid in PARAMETRIC_IDS for d in range(2, 12)
              for r in range(1, d) for n in range(40)
              if parametric_precondition(cid, d, r, n) is None]


def test_reference_increments_match_the_written_out_summands():
    for cid, d, r, n in ADMISSIBLE:
        num, den = [], []
        for k, (a, b, c) in enumerate(_reference(cid, d, r, n)):
            num, den = num + a, den + b
            assert one_minus_normal_form(1, d * k, num + c, den) == \
                one_minus_normal_form(*reference_summand(cid, d, r, k))


def test_every_admissible_shape_has_the_reference_template_at_one():
    # The a = 1 premise is template equality alone: equal sorted lists
    # give equal terms at every k and n, and templates that differ read
    # ERROR.  Every admissible (family, d, r) up to 39 meets it.  Each
    # q-statement asks n = -r (mod d) and n >= 2d - r at most, so
    # n = 2d - r is admissible wherever some n is.
    shapes = [(cid, d, r) for cid in PARAMETRIC_IDS for d in range(2, 40)
              for r in range(1, 40)
              if parametric_precondition(cid, d, r, 2 * d - r) is None]
    assert len(shapes) == 908
    for cid, d, r in shapes:
        assert _key(_template(cid, d, r, 0, 0)) == _key(
            _ref_template(cid, d, r)), (cid, d, r)


def test_running_collapse_matches_the_quadratic_oracle():
    assert len(ADMISSIBLE) == 365
    for cid, d, r, n in ADMISSIBLE:
        assert _same(cid, d, r) and collapse_at_one(cid, d, r, n) is None


COLLAPSE = ((1, 0, []), (-1, 0, []))


def _collapse_term(lhs, rhs, d, limit):
    """``first_failing_term`` on two templates with the collapse's
    relation, lhs - rhs."""
    return first_failing_term((lhs, rhs), COLLAPSE, d, limit)


def _counted_term(lhs, rhs, d, limit):
    """The counting oracle on the expanded lists, relation lhs - rhs."""
    return counting_first_failing_term(
        (expand(lhs, d, limit), expand(rhs, d, limit)), COLLAPSE)


def _quadratic_term(lhs, rhs, d, limit):
    """The quadratic oracle on the expanded lists."""
    return first_differing_term(expand(lhs, d, limit), expand(rhs, d, limit))


def _outcome(first_differing, *args):
    """The first differing k, the DegenerateProductError, or "no
    certificate" where ``first_failing_term`` has none."""
    try:
        return first_differing(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)
    except RuntimeError as exc:
        assert str(exc).startswith("no certificate")
        return "no certificate"


def _changed(template, changes):
    """The template with its exponent lists changed: change (p, i, e) puts
    e at place i of list p of (a_0, b_0, c_0, a, b, c)."""
    (a0, b0, c0), a, b, c = template
    lists = [list(exps) for exps in (a0, b0, c0, a, b, c)]
    for p, i, e in changes:
        lists[p][i] = e
    return tuple(lists[:3]), *lists[3:]


def _exponent_mutants(template, d):
    """Each change of one exponent by +-1 or +-d, and each negation of one
    or two exponents of one list: in the head, 1 - q^-e = -q^-e (1 - q^e)
    keeps the counts and moves only the sign, or with two only the
    q-shift."""
    (a0, b0, c0), a, b, c = template
    for p, exps in enumerate((a0, b0, c0, a, b, c)):
        for i, e in enumerate(exps):
            for delta in (1, -1, d, -d):
                yield _changed(template, [(p, i, e + delta)])
            for j in range(i, len(exps)):
                yield _changed(template, [(p, i, -e), (p, j, -exps[j])])


@pytest.mark.parametrize("check_id,d,r,n", [
    ("p1_24", 4, 1, 7), ("p1_24", 5, 2, 8), ("p2_25", 7, 3, 11),
    ("p3_32", 5, 1, 9), ("p4_33", 3, 1, 8), ("p5_43", 5, 2, 8),
    ("p6_44", 2, 1, 3), ("p6_44", 4, 3, 5), ("p7_45", 7, 3, 11),
    ("p8_46", 5, 3, 7)])
def test_collapse_mutants_match_the_quadratic_oracle(check_id, d, r, n):
    # Every mutant template of either side gives the quadratic oracle's
    # first differing k or its DegenerateProductError, or has no
    # certificate.
    limit = _limit(check_id, d, r, n)
    lhs = _template(check_id, d, r, n, 0)
    rhs = _ref_template(check_id, d, r)
    pairs = [(m, rhs) for m in _exponent_mutants(lhs, d)]
    pairs += [(lhs, m) for m in _exponent_mutants(rhs, d)]
    certified = []
    for pair in pairs:
        outcome = _outcome(_collapse_term, *pair, d, limit)
        if outcome != "no certificate":
            assert outcome == _outcome(_quadratic_term, *pair, d, limit)
            certified.append(outcome)
    assert any(isinstance(k, int) for k in certified)


def test_collapse_without_counts_matches_the_counting_oracle():
    # Both sides carry the same factors as multisets at every term, so the
    # certificate, with the equal-key answer bypassed, leaves no factor
    # over at any term; the oracle counts every term.
    assert len(ADMISSIBLE_TO_40) == 369
    for cid, d, r, n in ADMISSIBLE_TO_40:
        pair = _template(cid, d, r, n, 0), _ref_template(cid, d, r)
        limit = _limit(cid, d, r, n)
        assert _collapse_term(*pair, d, limit) is None
        assert _counted_term(*pair, d, limit) is None


def _intercepts_moved(template, d):
    """Each change of one intercept by +-d."""
    for p in (3, 4, 5):
        for i, e in enumerate(template[p - 2]):
            for delta in (d, -d):
                yield _changed(template, [(p, i, e + delta)])


@pytest.mark.parametrize("check_id,d,r,n", INSTANCES)
def test_collapse_mutants_match_the_counting_oracle(check_id, d, r, n):
    # An intercept moved by +-d stays in its residue class mod d, so the
    # ratios still telescope and the certificate decides the mutant: each
    # k or DegenerateProductError must be the counting oracle's on the
    # expanded lists.
    limit = _limit(check_id, d, r, n)
    lhs = _template(check_id, d, r, n, 0)
    rhs = _ref_template(check_id, d, r)
    pairs = [(m, rhs) for m in _intercepts_moved(lhs, d)]
    pairs += [(lhs, m) for m in _intercepts_moved(rhs, d)]
    outcomes = [_outcome(_collapse_term, *pair, d, limit) for pair in pairs]
    for pair, outcome in zip(pairs, outcomes):
        assert outcome == _outcome(_counted_term, *pair, d, limit), pair
    assert any(isinstance(k, int) for k in outcomes)


ADMISSIBLE_TO_60 = [(cid, d, r, n) for cid in PARAMETRIC_IDS
                    for d in range(2, 14) for r in range(1, 12)
                    for n in range(61)
                    if parametric_precondition(cid, d, r, n) is None]


def test_templates_expand_to_the_written_out_lists():
    # Templates are compared where lists were: the a = 1 collapse with the
    # reference summand in verify_parametric, and a = q^-n with a = q^n,
    # which the symmetry of the generator lists makes equal.  Both must
    # read as the list comparisons do.
    assert len(ADMISSIBLE_TO_60) == 698
    for cid, d, r, n in ADMISSIBLE_TO_60:
        limit = _limit(cid, d, r, n)
        templates = {s: _template(cid, d, r, n, s) for s in (1, -1, 0)}
        lists = {s: sum_increments(cid, d, r, n, s) for s in (1, -1, 0)}
        for s, template in templates.items():
            assert expand(template, d, limit) == lists[s], (cid, d, r, n, s)
        ref, ref_lists = (_ref_template(cid, d, r),
                          reference_increments(cid, d, r, n))
        assert expand(ref, d, limit) == ref_lists, (cid, d, r, n)
        closed = {s: None if cid in _SHIFTED_INDEX
                  else _rhs_factors(rhs_band(cid, d, r), d, r, n, s, None)
                  for s in (1, -1)}
        same_sums = identity(lists[1], None) == identity(lists[-1], None)
        assert (_key(templates[1]) == _key(templates[-1])) == same_sums, (
            cid, d, r, n)
        same_identity = (identity(lists[1], closed[1])
                         == identity(lists[-1], closed[-1]))
        same_terms = identity(lists[0], None) == identity(ref_lists, None)
        assert (_key(templates[0]) == _key(ref)) == same_terms, (cid, d, r, n)
        assert same_identity and same_terms, (cid, d, r, n)
        assert _collapse_term(templates[0], ref, d, limit) is None
        assert counting_first_failing_term((lists[0], ref_lists),
                                           COLLAPSE) is None


def _template_mutants(template):
    """Each +-1 change of one head exponent or one intercept."""
    (a0, b0, c0), a, b, c = template
    lists = (a0, b0, c0, a, b, c)
    for p, exps in enumerate(lists):
        for i in range(len(exps)):
            for delta in (1, -1):
                mutant = [list(part) for part in lists]
                mutant[p][i] += delta
                yield tuple(mutant[:3]), *mutant[3:]


@pytest.mark.parametrize("check_id,d,r,n", INSTANCES)
def test_template_mutants_match_the_counting_oracle(check_id, d, r, n):
    # A mutant template's key differs, so the certificate decides it: each
    # outcome is the counting oracle's k or DegenerateProductError on the
    # expanded lists, or "no certificate", and a certified None is the
    # oracle's None.
    limit = _limit(check_id, d, r, n)
    lhs = _template(check_id, d, r, n, 0)
    rhs = _ref_template(check_id, d, r)
    pairs = [(m, rhs) for m in _template_mutants(lhs)]
    pairs += [(lhs, m) for m in _template_mutants(rhs)]
    for pair in pairs:
        assert _key(pair[0]) != _key(pair[1])
        outcome = _outcome(_collapse_term, *pair, d, limit)
        assert outcome in ("no certificate",
                           _outcome(_counted_term, *pair, d, limit)), pair


def test_collapse_without_a_certificate_is_an_error(monkeypatch, tmp_path):
    # The reference's first a intercept raised by one leaves its residue
    # class mod d, and raised by d it stays there, with terms that differ
    # from k = 1 on: either way the templates differ, so the collapse
    # premise fails, an engine ERROR.
    lhs = _template("p3_32", 5, 1, 14, 0)
    (a0, b0, c0), a, b, c = _ref_template("p3_32", 5, 1)
    for delta in (1, 5):
        raised = ((a0, b0, c0), [a[0] + delta] + a[1:], b, c)
        assert _key(raised) != _key(lhs)
        assert _with_reference(monkeypatch, tmp_path, "p3_32",
                               {"d": 5, "n": 14, "r": 1},
                               lambda *_, raised=raised: raised) == NO_COLLAPSE


def test_collapse_with_a_shared_intercept_holds_on_its_certificate():
    # One more intercept in both the reference's a and b lists divides
    # each term by (q; q^d)_k / (q; q^d)_k: the sorted templates differ,
    # the terms do not, and the termwise certificate proves it.
    for cid, d, r, n in INSTANCES:
        lhs = _template(cid, d, r, n, 0)
        head, a, b, c = _ref_template(cid, d, r)
        shared = head, a + [1], b + [1], c
        assert _key(lhs) != _key(shared), (cid, d, r, n)
        assert _collapse_term(lhs, shared, d, _limit(cid, d, r, n)) is None
    # A relation of another number of parts than templates is refused.
    for relation in (COLLAPSE + ((1, 0, []),), COLLAPSE[:1]):
        with pytest.raises(ValueError):
            first_failing_term((lhs, lhs), relation, 5, 13)


def _admissible_ns(check_id, d, r):
    return [n for n in range(2, 61)
            if parametric_precondition(check_id, d, r, n) is None]


def test_a_cached_shape_builds_no_second_collapse_template(monkeypatch):
    # Neither the a = 1 template nor the reference depends on n, so a
    # second n of one shape builds only its a = q^n template, and reads
    # the first n's answer, whichever it was.
    points = []
    real_template = parametric._sum_template
    real_reference = parametric._reference_template

    def template_spy(shifted, d, r, n, s, entries):
        points.append(s)
        return real_template(shifted, d, r, n, s, entries)

    def shared(shifted, d, r):
        head, a, b, c = real_reference(shifted, d, r)
        return head, a + [1], b + [1], c

    monkeypatch.setattr(parametric, "_sum_template", template_spy)
    for reference, status in ((real_reference, Status.HOLDS),
                              (shared, Status.ERROR)):
        monkeypatch.setattr(parametric, "_reference_template", reference)
        parametric._left_side.cache_clear()  # decide each reference afresh
        parametric._same_shape.cache_clear()
        for cid, d, r in (("p7_45", 7, 3), ("p1_24", 7, 2), ("p5_43", 5, 2)):
            first, second = _admissible_ns(cid, d, r)[:2]
            points.clear()
            assert run_check(cid, {"d": d, "n": first, "r": r}).status \
                is status, cid
            assert points == [1, 0], cid
            points.clear()
            assert run_check(cid, {"d": d, "n": second, "r": r}).status \
                is status, cid
            assert points == [1], cid


def test_stored_shapes_answer_as_an_empty_store_does():
    # The shape is all that builds the two templates.  A family's entries
    # handed on with another r, or with the other index, must read as they
    # do with nothing stored, after the honest call has stored its answer.
    calls = []
    for cid, d, r, n in INSTANCES:
        shifted, entries = cid in _SHIFTED_INDEX, tuple(
            numerator_entries(cid, d, r))
        calls.append((shifted, entries, d, r))
        calls += [(shifted, entries, d, r + delta) for delta in (1, 2)]
        calls.append((not shifted, entries, d, r))

    def outcome(call):
        try:
            return _same_shape(*call)
        except ZeroDivisionError as exc:
            return type(exc), str(exc)

    fresh = []
    for call in calls:
        parametric._same_shape.cache_clear()
        fresh.append(outcome(call))
    parametric._same_shape.cache_clear()
    assert [outcome(call) for call in calls] == fresh
    # Only the honest calls hold, so a store that answered a changed call
    # from an honest one would be seen.
    assert fresh.count(True) == len(INSTANCES)


# Each pair is two templates of step 2, decided up to term 3.
@pytest.mark.parametrize("lhs,rhs,k", [
    # Term 0 zero in both, then equal counts and q-shift, opposite signs:
    # q^-3 P against -q^-3 P.
    ((([-1, -2, 3], [], [0]), [], [], []), (([1, 2, -3], [], [0]), [], [], []),
     1),
    # Equal counts and sign, q-shifts -3 and 0.
    ((([-1, -2], [], []), [], [], []), (([1, 2], [], []), [], [], []), 0),
    ((([-1, 5], [2], [-4]), [1], [3], []),
     (([5, -1], [2], [-4]), [1], [3], []), None),
    # A factor 1 - q^0 held by both runs makes both terms zero: equal.
    ((([2], [3], [0, -3]), [], [], []), (([2], [3], [0, 2]), [], [], []),
     None),
    # Held by one run only, at k = 1, the terms differ there.
    ((([], [], []), [2], [3], []), (([], [], []), [2], [3], [0]), 1),
    # A denominator 1 - q^0 is refused.
    ((([1], [0], []), [], [], []), (([1], [1], []), [], [], []),
     DegenerateProductError),
])
def test_first_differing_term_tracks_sign_and_shift(lhs, rhs, k):
    outcome = _outcome(_collapse_term, lhs, rhs, 2, 3)
    assert outcome == _outcome(_quadratic_term, lhs, rhs, 2, 3)
    if isinstance(outcome, tuple):
        assert outcome == (k, "denominator factor 1 - q^0")
    else:
        assert outcome == k


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
