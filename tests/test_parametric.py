"""Parametric congruences at a = q^n, a = q^-n, and the a = 1 collapse."""

import functools
from collections import Counter

import pytest

from oracles import (
    SAME_WORK,
    collapse_at_one,
    counting_first_failing_term,
    dense_product,
    first_differing_term,
    identity,
    reference_increments,
    reference_summand,
    sum_increments,
)
from qsupercheck import parametric, qfuncs
from qsupercheck.catalog import GRID_PARAMETRIC, run_check
from qsupercheck.laurent import Laurent
from qsupercheck.parametric import (
    PARAMETRIC_IDS,
    DegenerateSubstitutionError,
    _collapse_at_one,
    _den_core,
    _key,
    _reference_template,
    _rhs_factors,
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
    one_minus_normal_form,
    one_minus_product,
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


def _collapse(check_id, d, r, n):
    """The a = 1 collapse's witness, or None."""
    return _collapse_at_one(check_id in _SHIFTED_INDEX, d, r, n,
                            tuple(numerator_entries(check_id, d, r)))


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
    # Factor counts alone packed p7_45 (7, 3, 11) at 88-bit digits for
    # 27-bit coefficients; after the counted cancellation 32 bits suffice.
    widths = []
    real = qfuncs._numerator

    def spy(step, increments, width, fold=0):
        widths.append(width)
        return real(step, increments, width, fold)

    monkeypatch.setattr(qfuncs, "_numerator", spy)
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    # a = q^-n is the a = q^n identity, so one sum is built.
    assert len(widths) == 1 and max(widths) <= 32


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
    parametric._witness.cache_clear()  # decide the patched instance afresh
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
    calls = []
    real = qfuncs._numerator

    def spy(step, increments, width, fold=0):
        calls.append(width)
        return real(step, increments, width, fold)

    monkeypatch.setattr(qfuncs, "_numerator", spy)
    first = verify_parametric("p7_45", 5, 1, 14)
    second = verify_parametric("p3_32", 5, 1, 14)
    assert len(calls) == 1
    assert (first.check_id, first.status) == ("p7_45", Status.HOLDS)
    assert (second.check_id, second.status) == ("p3_32", Status.HOLDS)
    assert second.params == first.params == {"d": 5, "n": 14, "r": 1}
    assert second.params is not first.params
    # A mutation is other work: it is decided, and only once.
    for _ in range(2):
        mutant = verify_parametric("p3_32", 5, 1, 14, mutation="sign")
        assert (mutant.check_id, mutant.status) == ("p3_32", Status.FAILS)
        assert mutant.witness == "sides differ at a = q^14"
    assert len(calls) == 2
    # So is another n; the memo stays within its bound.
    assert verify_parametric("p3_32", 5, 1, 19).status is Status.HOLDS
    assert len(calls) == 3
    assert parametric._witness.cache_info().maxsize == 4096
    assert parametric._same_shape.cache_info().maxsize == 4096
    small = functools.lru_cache(maxsize=2)(parametric._witness.__wrapped__)
    monkeypatch.setattr(parametric, "_witness", small)
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert verify_parametric("p7_45", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 5
    assert verify_parametric("p3_32", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 5
    # A third verdict drops the least recently used, (7, 3, 11).
    assert verify_parametric("p3_32", 5, 1, 19).status is Status.HOLDS
    assert parametric._witness.cache_info().currsize == 2
    assert verify_parametric("p7_45", 5, 1, 14).status is Status.HOLDS
    assert len(calls) == 6
    assert verify_parametric("p7_45", 7, 3, 11).status is Status.HOLDS
    assert len(calls) == 7


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
    assert _collapse(check_id, d, r, n) is None


def test_collapse_detects_a_wrong_exponent(monkeypatch):
    def off_by_one(shifted, d, r):
        (a, b, c), *lines = _reference_template(shifted, d, r)
        return ((a + [1], b + [2], c), *lines)

    monkeypatch.setattr(parametric, "_reference_template", off_by_one)
    witness = _collapse("p7_45", 7, 3, 11)
    assert witness == "a = 1 collapse differs from reference summand at k = 0"


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


def test_running_collapse_matches_the_quadratic_oracle():
    assert len(ADMISSIBLE) == 365
    for cid, d, r, n in ADMISSIBLE:
        assert _collapse(cid, d, r, n) == collapse_at_one(
            cid, d, r, n) is None


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


def test_collapse_without_a_certificate_is_an_error(monkeypatch):
    # The reference's first a intercept raised by one leaves its residue
    # class mod d: the templates neither match nor telescope, so the
    # collapse has no certificate, an engine ERROR.  Raised by d, they
    # telescope and the certificate finds the oracle's differing term.
    lhs = _template("p3_32", 5, 1, 14, 0)
    (a0, b0, c0), a, b, c = _ref_template("p3_32", 5, 1)
    for delta in (1, 5):
        raised = ((a0, b0, c0), [a[0] + delta] + a[1:], b, c)
        monkeypatch.setattr(parametric, "_reference_template",
                            lambda *_, raised=raised: raised)
        parametric._witness.cache_clear()  # decide each patched reference
        parametric._same_shape.cache_clear()
        result = run_check("p3_32", {"d": 5, "n": 14, "r": 1})
        if delta == 1:
            assert result.status is Status.ERROR
            assert result.witness.startswith("RuntimeError: no certificate")
        else:
            k = _counted_term(lhs, raised, 5, 13)
            assert result.status is Status.FAILS
            assert result.witness == ("a = 1 collapse differs from"
                                      f" reference summand at k = {k}")
    # A relation of another number of parts than templates is refused.
    for relation in (COLLAPSE + ((1, 0, []),), COLLAPSE[:1]):
        with pytest.raises(ValueError):
            first_failing_term((lhs, lhs), relation, 5, 13)


def test_collapse_with_a_shared_intercept_holds_on_its_certificate(
        monkeypatch):
    # One more intercept in both the reference's a and b lists divides
    # each term by (q; q^d)_k / (q; q^d)_k: the sorted templates differ,
    # the terms do not, and the certificate proves it.
    calls = []
    real = parametric.first_failing_term

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    def shared(shifted, d, r):
        head, a, b, c = _reference_template(shifted, d, r)
        return head, a + [1], b + [1], c

    monkeypatch.setattr(parametric, "first_failing_term", spy)
    monkeypatch.setattr(parametric, "_reference_template", shared)
    for cid, d, r, n in INSTANCES:
        calls.clear()
        parametric._witness.cache_clear()  # p3_32 would read p7_45's verdict
        parametric._same_shape.cache_clear()
        assert run_check(cid, {"d": d, "n": n, "r": r}).status \
            is Status.HOLDS, (cid, d, r, n)
        assert calls == [None], (cid, d, r, n)


def _admissible_ns(check_id, d, r):
    return [n for n in range(2, 61)
            if parametric_precondition(check_id, d, r, n) is None]


def test_a_cached_shape_builds_no_second_collapse_template(monkeypatch):
    # Neither the a = 1 template nor the reference depends on n, so a
    # second n of one shape builds only its a = q^n template.  Where the
    # shapes differ, every n is still decided on its own limit.
    points, limits = [], []
    real_template, real_first = (parametric._sum_template,
                                 parametric.first_failing_term)

    def template_spy(shifted, d, r, n, s, entries):
        points.append(s)
        return real_template(shifted, d, r, n, s, entries)

    def first_spy(templates, relation, step, limit):
        limits.append(limit)
        return real_first(templates, relation, step, limit)

    monkeypatch.setattr(parametric, "_sum_template", template_spy)
    monkeypatch.setattr(parametric, "first_failing_term", first_spy)
    for cid, d, r in (("p7_45", 7, 3), ("p1_24", 7, 2), ("p5_43", 5, 2)):
        first, second = _admissible_ns(cid, d, r)[:2]
        points.clear()
        assert verify_parametric(cid, d, r, first).status is Status.HOLDS
        assert points == [1, 0], cid
        points.clear()
        assert verify_parametric(cid, d, r, second).status is Status.HOLDS
        assert points == [1], cid
    assert limits == []

    def shared(shifted, d, r):
        head, a, b, c = _reference_template(shifted, d, r)
        return head, a + [1], b + [1], c

    monkeypatch.setattr(parametric, "_reference_template", shared)
    parametric._witness.cache_clear()  # decide the patched reference afresh
    parametric._same_shape.cache_clear()
    ns = _admissible_ns("p7_45", 7, 3)[:3]
    for n in ns:
        assert verify_parametric("p7_45", 7, 3, n).status is Status.HOLDS
    assert limits == [_limit("p7_45", 7, 3, n) for n in ns]


def test_stored_shapes_answer_as_an_empty_store_does():
    # The shape is all that builds the two templates.  A family's entries
    # handed on with another r, or with the other index, must read as they
    # do with nothing stored, after the honest call has stored its answer.
    calls = []
    for cid, d, r, n in INSTANCES:
        shifted, entries = cid in _SHIFTED_INDEX, tuple(
            numerator_entries(cid, d, r))
        calls.append((shifted, d, r, n, entries))
        calls += [(shifted, d, r + delta, n, entries) for delta in (1, 2)]
        calls.append((not shifted, d, r, n, entries))

    def outcome(call):
        try:
            return _collapse_at_one(*call)
        except (ZeroDivisionError, RuntimeError) as exc:
            return type(exc), str(exc)

    fresh = []
    for call in calls:
        parametric._same_shape.cache_clear()
        fresh.append(outcome(call))
    parametric._same_shape.cache_clear()
    assert [outcome(call) for call in calls] == fresh
    # Only the honest calls hold, so a store that answered a changed call
    # from an honest one would be seen.
    assert fresh.count(None) == len(INSTANCES)


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
