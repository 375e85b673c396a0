"""Karlsson-Minton summation, q-binomial vanishing, proof-step identities."""

import itertools
from fractions import Fraction

import pytest

from qsupercheck import identities, qfuncs
from qsupercheck.catalog import GRID_LEMMA21, paper_default_suite, run_check
from qsupercheck.cyclotomic import cyclotomic, divisors, q_integer
from qsupercheck.identities import (
    _check_poch_split,
    _check_prefactor_divisibility,
    _check_qbinom_rewrite,
    _check_ratio_shift,
    _check_sum_decomposition,
    _decomposition_relation,
    _decomposition_templates,
    _km_degenerate,
    _km_sides,
    _poch_parts,
    _ratio_shift_pre,
    qbinomial_row,
    verify_karlsson_minton,
    verify_proof_step,
    verify_qbinomial_vanishing,
)
from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.poly import Poly, divrem, poly_prod
from qsupercheck.qfuncs import (
    Packed,
    expand,
    first_failing_term,
    one_minus_product,
    packed_width,
    q_binomial,
    termwise_degree,
    truncated_sum,
)
from qsupercheck.results import Status

from oracles import (
    QMonomial,
    counting_first_failing_term,
    decomposition_sums,
    dense_product,
    inflate,
    km_certificate,
    q_pochhammer,
    qbinom_alternating_sum,
    whole_sum_decomposition,
)


def test_km_certificate_oracle_decides_every_paper_default_list():
    # The exact proof that ROADMAP item 2 plans, as an oracle: with every
    # denominator cleared and b_j = q^{D_j}, one relation_vanishes call
    # proves the summation for all b at each offset list of the suite, and
    # the right-hand side times q is refused at each.
    lists = [params["n_list"] for cid, params in paper_default_suite()
             if cid == "km"]
    assert len(lists) == 155
    for ns in lists:
        assert km_certificate(ns), ns
        assert not km_certificate(ns, rhs_shift=1), ns


def test_km_trivial_offsets_give_one():
    lhs, rhs = _km_sides(Fraction(2, 3), [Fraction(5, 7)], [0])
    assert lhs == rhs == 1


def test_km_examples_hold():
    assert verify_karlsson_minton([0], trials=5, seed=1).status is Status.HOLDS
    assert verify_karlsson_minton([1, 1], trials=5, seed=42).status is Status.HOLDS
    assert verify_karlsson_minton([2, 0, 1], trials=5, seed=42).status is Status.HOLDS


def test_km_direct_sample():
    lhs, rhs = _km_sides(Fraction(3, 5), [Fraction(7, 2), Fraction(9, 4)], [2, 1])
    assert lhs == rhs


def test_km_degeneracy_detection():
    assert _km_degenerate(Fraction(1), [Fraction(2)], 1)
    assert _km_degenerate(Fraction(4), [Fraction(1, 4)], 2)  # b q = 1
    assert not _km_degenerate(Fraction(2, 3), [Fraction(5, 7)], 3)


def test_km_direct_call_samples_like_run_check():
    direct = verify_karlsson_minton([1, 2])
    assert direct.params == {"m": 2, "n_list": (1, 2), "trials": 5,
                             "seed": 42}
    via_catalog = run_check("km", {"n_list": (1, 2)})
    assert (direct.status, direct.params) == (via_catalog.status,
                                              via_catalog.params)


def test_km_bad_arguments_skip():
    assert verify_karlsson_minton([], m=0).status is Status.SKIPPED_PRECONDITION
    mismatch = verify_karlsson_minton([1], m=2)
    assert mismatch.status is Status.SKIPPED_PRECONDITION
    assert mismatch.note == "requires m = len(n_list) >= 1, n_j >= 0"


@pytest.mark.parametrize("trials", [0, -3])
def test_km_without_trials_is_skipped(trials):
    # Zero trials would check nothing and report HOLDS.
    result = run_check("km", {"n_list": (1, 2), "trials": trials})
    assert result.status is Status.SKIPPED_PRECONDITION
    assert result.note == "requires trials >= 1"


@pytest.mark.parametrize("n", range(1, 7))
def test_qbinom_sum_is_a_pochhammer(n):
    # q-binomial theorem with k -> n - k and x = q^-j:
    # the sum is (-1)^n q^{jn} (q^-j; q)_n, negative j included.
    for j in range(-4, n + 3):
        expected = one_minus_product([t - j for t in range(n)]).shifted(j * n)
        assert qbinom_alternating_sum(n, j) == (-1) ** n * expected, j


@pytest.mark.parametrize("n, j", [(3, -1), (40, 40), (40, -1)])
def test_qbinom_negative_j_is_nonvanishing(n, j):
    result = run_check("qbinom_vanish", {"n": n, "j": j})
    assert result.status is Status.HOLDS
    assert result.note == "expected-nonvanishing outside stated range"
    forced = run_check("qbinom_vanish", {"n": n, "j": j, "expect": "zero"})
    assert forced.status is Status.FAILS


@pytest.mark.parametrize("expect", ["zero", "nonzero"])
def test_qbinom_expect_without_j_is_refused(expect):
    for result in (verify_qbinomial_vanishing(5, expect=expect),
                   run_check("qbinom_vanish", {"n": 5, "expect": expect})):
        assert result.status is Status.SKIPPED_PRECONDITION
        assert result.note == "requires j with expect"


@pytest.mark.parametrize("expect", ["zer0", "maybe"])
def test_qbinom_unknown_expect_is_an_error(expect):
    # An expectation other than zero or nonzero would check nothing.
    with pytest.raises(ValueError, match="expect must be"):
        verify_qbinomial_vanishing(4, 1, expect)
    result = run_check("qbinom_vanish", {"n": 4, "j": 9, "expect": expect})
    assert result.status is Status.ERROR
    assert result.witness.startswith("ValueError")


def test_qbinom_vanishing_small():
    assert verify_qbinomial_vanishing(1).status is Status.HOLDS
    assert verify_qbinomial_vanishing(5).status is Status.HOLDS


def test_qbinom_diagnostic_out_of_range():
    result = verify_qbinomial_vanishing(2, j=2)
    assert result.status is Status.HOLDS
    assert result.note == "expected-nonvanishing outside stated range"
    assert not qbinom_alternating_sum(2, 2).is_zero()
    forced = verify_qbinomial_vanishing(2, j=2, expect="zero")
    assert forced.status is Status.FAILS


def test_qbinomial_rows_unpack_to_the_division_oracle():
    for n in range(31):
        width = packed_width(n)
        row = qbinomial_row(n, width)
        assert [Packed(v, 0, n, width).laurent() for v in row] == [
            Laurent(q_binomial(n, k)) for k in range(n + 1)], n


@pytest.mark.parametrize("n", range(1, 31))
def test_qbinom_vanishing_matches_the_division_oracle(n):
    for j in range(-3, n + 4):
        value = qbinom_alternating_sum(n, j)
        for expect in (None, "zero", "nonzero"):
            expectation = expect or ("zero" if 0 <= j <= n - 1 else "nonzero")
            if expectation == "zero" and not value.is_zero():
                want = (Status.FAILS,
                        f"nonzero polynomial at j = {j}: {value!r}")
            elif expectation == "nonzero" and value.is_zero():
                want = (Status.FAILS, f"unexpected vanishing at j = {j}")
            else:
                want = (Status.HOLDS, None)
            result = verify_qbinomial_vanishing(n, j, expect)
            assert (result.status, result.witness) == want, (j, expect)


@pytest.mark.parametrize("n, k, c", [(1, 0, 0), (4, 2, 3), (9, 9, 0),
                                     (17, 5, 40), (30, 15, 225)])
def test_qbinom_bumped_row_fails(monkeypatch, n, k, c):
    # One coefficient of [n k] off by one: the sum at j = 0 is that
    # coefficient's term alone, (-1)^k q^{C(n-k,2) + c}.
    def bumped(n, width):
        row = qbinomial_row(n, width)
        row[k] += 1 << c * width
        return row

    monkeypatch.setattr(identities, "qbinomial_row", bumped)
    result = verify_qbinomial_vanishing(n)
    term = Laurent(Poly(((-1) ** k,)), (n - k) * (n - k - 1) // 2 + c)
    assert result.status is Status.FAILS
    assert result.witness == f"nonzero polynomial at j = 0: {term!r}"


def _binom2(x):
    return x * (x - 1) // 2


def test_exponent_identity_example_value():
    # Independent integer oracle for d=4, r=1, n=7, k=3: both sides -24.
    d, r, n, k = 4, 1, 7, 3
    top = n - 1 - (n + r) // d
    lhs = d * _binom2(k) + (n + 2 * d + r - d * n) * k
    rhs = d * _binom2(top - k) - d * _binom2(top)
    assert lhs == rhs == -24
    result = verify_proof_step("exponent_identity", d=d, r=r, n=n, k=k)
    assert result.status is Status.HOLDS


def test_pochhammer_split_general_display_instance():
    # (q^7, q^-3; q^5)_3 = -q^2 ([3]/[2]) (1 + (1-q^5)/(q^5-q^17)) (q^2;q^5)_3^2,
    # assembled here exactly as displayed.
    lhs = q_pochhammer(QMonomial(1, 7), 5, 3) * q_pochhammer(QMonomial(1, -3), 5, 3)
    correction = 1 + RatFunc(
        Laurent(Poly((1, 0, 0, 0, 0, -1))),
        Laurent(Poly((1,)), 5) - Laurent(Poly((1,)), 17))
    rhs = (-Laurent(Poly((1,)), 2)
           * RatFunc(Laurent(q_integer(3)), q_integer(2))
           * correction
           * q_pochhammer(QMonomial(1, 2), 5, 3) ** 2)
    assert RatFunc(lhs) == rhs
    result = verify_proof_step("pochhammer_split_general", d=5, r=2, k=3)
    assert result.status is Status.HOLDS


def test_pochhammer_split_r1_empty_product():
    result = verify_proof_step("pochhammer_split_r1", d=4, k=0)
    assert result.status is Status.HOLDS


def test_sum_decomposition_termwise_oracle():
    # The three-sum relation holds termwise: check one k directly.
    d, k = 3, 2
    high = q_pochhammer(QMonomial(1, d + 1), d, k)
    low = q_pochhammer(QMonomial(1, 1), d, k)
    neg = q_pochhammer(QMonomial(1, 1 - d), d, k)
    bracket_d = Laurent(q_integer(d))
    bracket_d1 = Laurent(q_integer(d - 1), 1)
    assert high * neg == bracket_d * low * neg - bracket_d1 * low * low
    result = verify_proof_step("sum_decomposition", d=3, n=5)
    assert result.status is Status.HOLDS


def _decomposition_sums_per_term(d, n):
    """Oracle: every term's whole factor product, cofactor included."""
    sums = []
    for high, one, neg in ((d - 1, 0, 1), (d - 2, 1, 1), (d - 2, 2, 0)):
        total = Laurent(Poly())
        for k in range(n):
            exps = [d + 1 + d * t for t in range(k)] * high
            exps += [1 + d * t for t in range(k)] * one
            exps += [1 - d + d * t for t in range(k)] * neg
            cofactor = [d * t for t in range(k + 1, n)] * d
            total = total + dense_product(exps + cofactor).shifted(d * k)
        sums.append(total)
    return sums


# The catalog instances, then those the benchmark runs past the grid.
@pytest.mark.parametrize("d,n", sorted({(d, n) for d, _, n in GRID_LEMMA21})
                         + [(2, 1), (2, 2), (5, 14), (6, 12), (7, 10)])
def test_decomposition_sums_match_per_term_oracle(d, n):
    sums = []
    for increments in decomposition_sums(d, n):
        sums.append(truncated_sum(d, increments).laurent())
    assert sums == _decomposition_sums_per_term(d, n)


def test_decomposition_runs_are_the_written_out_sums():
    # Term k of the three runs has the factors 1 - q^e, 1 - q^{e-d} and
    # 1 - q^{e-2d}, e = dk + 1, (high, one, neg) times each.
    for d in range(2, 12):
        shapes = ((d - 1, 0, 1), (d - 2, 1, 1), (d - 2, 2, 0))
        for n in range(1, 41):
            runs = decomposition_sums(d, n)
            assert len(runs) == 3
            for run, (high, one, neg) in zip(runs, shapes):
                assert len(run) == n and run[0] == ([], [], [])
                for k, (a, b, c) in enumerate(run[1:], 1):
                    e = d * k + 1
                    written = [e] * high + [e - d] * one + [e - 2 * d] * neg
                    assert sorted(a) == sorted(written), (d, n, k)
                    assert (b, c) == ([d * k] * d, [])


def _raised(templates, run, part, i, delta=1):
    """The templates with intercept i of list ``part`` (1 a, 2 b, 3 c) of
    one run raised by delta."""
    out = [tuple(list(p) if j else p for j, p in enumerate(t))
           for t in templates]
    out[run][part][i] += delta
    return out


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


def _certified(d, n):
    """The check's witness, or "no certificate" where it has none."""
    try:
        return _check_sum_decomposition(d, n)
    except RuntimeError as exc:
        assert str(exc).startswith("no certificate")
        return "no certificate"


def test_decomposition_with_a_wrong_exponent_fails(monkeypatch):
    real = identities._decomposition_templates

    def one_off(d):
        # The first a intercept of s2 raised by d: the ratios still
        # telescope, so the certificate decides it.
        return _raised(real(d), 1, 1, 0, d)

    assert verify_proof_step("sum_decomposition", d=3, n=5).status \
        is Status.HOLDS
    monkeypatch.setattr(identities, "_decomposition_templates", one_off)
    result = verify_proof_step("sum_decomposition", d=3, n=5)
    assert result.status is Status.FAILS
    assert result.witness == "three-sum decomposition differs"
    assert whole_sum_decomposition(3, decomposition_sums(3, 5)) == \
        result.witness


def test_decomposition_without_a_certificate_is_an_error(monkeypatch):
    # Raised by one, an intercept leaves its residue class mod d, so no D
    # is read: the check decides nothing and reports an engine ERROR,
    # though the whole sums differ.
    real = identities._decomposition_templates
    monkeypatch.setattr(identities, "_decomposition_templates",
                        lambda d: _raised(real(d), 1, 1, 0))
    assert termwise_degree(identities._decomposition_templates(3), 3, 3) \
        is None
    assert whole_sum_decomposition(3, decomposition_sums(3, 4)) is not None
    result = run_check("sum_decomposition", {"d": 3, "n": 4})
    assert result.status is Status.ERROR
    assert result.witness.startswith("RuntimeError: no certificate")
    monkeypatch.undo()
    monkeypatch.setattr(qfuncs, "termwise_degree", lambda *args: None)
    result = run_check("sum_decomposition", {"d": 3, "n": 4})
    assert result.status is Status.ERROR
    assert result.witness.startswith("RuntimeError: no certificate")


def test_termwise_decomposition_matches_three_sum_oracle():
    # The certificate and the counting oracle on every term hold on the
    # whole range; the whole sums, whose cost grows like (dn)^3, are
    # compared where d n <= 120 (221 of 400 cells).
    for d in range(2, 12):
        relation = _decomposition_relation(d)
        for n in range(1, 41):
            sums = decomposition_sums(d, n)
            assert first_failing_term(_decomposition_templates(d), relation,
                                      d, n - 1) is None
            assert counting_first_failing_term(sums, relation) is None
            if d * n <= 120:
                assert whole_sum_decomposition(d, sums) is None


def test_decomposition_reads_degree_one_at_every_d():
    # Run 2 over run 1 is (1 - q)/(1 - q^{dk+1}), run 3 over run 1 is
    # (1 - q)(1 - q^{d(k-1)+1})/((1 - q^{1-d})(1 - q^{dk+1})): cleared of
    # 1 - q^{dk+1}, the relation has degree 1 in x = q^{dk}.
    for d in range(2, 101):
        for n in (1, 2, 3, 5, 17, 60):
            assert termwise_degree(_decomposition_templates(d), d, n - 1) \
                == 1, (d, n)


def test_decomposition_certificate_matches_the_n_term_verdict(monkeypatch):
    # One termwise call decides each (d, n) of CI's sweep, on D + 2 = 3
    # terms read straight from the templates, one relation each, and its
    # verdict is the counting oracle's on all n terms: certified, never
    # "no certificate".
    calls, terms, expanded = [], [], []
    real, real_vanishes = (identities.first_failing_term,
                           qfuncs.relation_vanishes)

    def spy(*args):
        calls.append(args)
        return real(*args)

    def vanishes_spy(step, parts, fold=0):
        terms.append(step)
        return real_vanishes(step, parts, fold)

    monkeypatch.setattr(identities, "first_failing_term", spy)
    monkeypatch.setattr(qfuncs, "relation_vanishes", vanishes_spy)
    monkeypatch.setattr(qfuncs, "expand", lambda *args: expanded.append(args))
    for d in range(2, 12):
        for n in range(1, 41):
            calls.clear()
            terms.clear()
            verdict = _certified(d, n)
            assert verdict is None
            assert len(calls) == 1 and terms == [0] * min(n, 3), (d, n)
            assert verdict == counting_first_failing_term(
                decomposition_sums(d, n), _decomposition_relation(d))
    assert expanded == []


def _parent_verdict(d, n, sums):
    """Oracle: the decomposition decided without templates, on the n-term
    counting oracle where the runs share their denominators and then on
    the whole sums."""
    relation = _decomposition_relation(d)
    shared = all(b == b1 for (_, b1, _), *rest in zip(*sums)
                 for _, b, _ in rest)
    if shared and counting_first_failing_term(sums, relation) is None:
        return None
    return whole_sum_decomposition(d, sums)


def test_a_raised_intercept_is_refused_or_certified(monkeypatch):
    # Raised by one, an intercept leaves its residue class: no D is read,
    # and the check has no certificate.  Raised by d, the ratios still
    # telescope, to a larger D, and the certificate's verdict must be the
    # n-term and whole-sum verdict.
    cases = 0
    for d in range(2, 12):
        templates = _decomposition_templates(d)
        for n in (1, 2, 3, 4, 6, 9):
            if d * n > 120:
                continue
            for run, part in itertools.product(range(3), (1, 2)):
                for i in {0, len(templates[run][part]) - 1}:
                    for delta in (1, d):
                        mutant = _raised(templates, run, part, i, delta)
                        degree = termwise_degree(mutant, d, n - 1)
                        assert (degree is None) is (delta == 1)
                        monkeypatch.setattr(identities,
                                            "_decomposition_templates",
                                            lambda d, mutant=mutant: mutant)
                        want = ("no certificate" if delta == 1 else
                                _parent_verdict(d, n, decomposition_sums(d, n)))
                        assert _certified(d, n) == want, (d, n, run, part)
                        cases += 1
    assert cases > 600


def test_failing_termwise_step_is_a_fails(monkeypatch):
    # A term of the certificate that differs is the verdict: no later
    # step can turn it into HOLDS.
    monkeypatch.setattr(identities, "first_failing_term", lambda *args: 0)
    for d, n in ((2, 1), (3, 5), (7, 12)):
        result = verify_proof_step("sum_decomposition", d=d, n=n)
        assert result.status is Status.FAILS
        assert result.witness == "three-sum decomposition differs"


def _decomposition_mutants(sums):
    """Each +-1 change of one exponent of one run, denominators included."""
    for i, run in enumerate(sums):
        for k, parts in enumerate(run):
            for p, exps in enumerate(parts):
                for j in range(len(exps)):
                    for delta in (1, -1):
                        mutant = [[tuple(list(part) for part in inc)
                                   for inc in increments]
                                  for increments in sums]
                        mutant[i][k][p][j] += delta
                        yield mutant


def _template_mutants(templates, delta):
    """Each change of one intercept of one run's template by delta."""
    for run, template in enumerate(templates):
        for part in (1, 2, 3):
            for i in range(len(template[part])):
                yield _raised(templates, run, part, i, delta)


@pytest.mark.parametrize("d,n", [(2, 4), (3, 5), (5, 4)])
def test_decomposition_mutants_keep_the_three_sum_verdict(d, n):
    # The termwise steps may only prove what the whole sums prove: the
    # counting oracle on all n terms of every list mutant, and the
    # certificate on every template mutant.  Moved by one, an intercept
    # leaves its residue class mod d, so no D is read and the check has no
    # certificate; moved by d, the certificate decides, and its verdict is
    # the counting oracle's on all n terms.
    mutants = list(_decomposition_mutants(decomposition_sums(d, n)))
    assert len(mutants) > 40
    relation = _decomposition_relation(d)
    for sums in mutants:
        try:
            verdict = counting_first_failing_term(sums, relation)
        except qfuncs.DegenerateProductError:
            continue
        if verdict is None:
            assert whole_sum_decomposition(d, sums) is None
    templates = _decomposition_templates(d)
    certified = 0
    for delta in (1, -1, d, -d):
        mutants = list(_template_mutants(templates, delta))
        assert len(mutants) == 3 * (2 * d)
        for mutant in mutants:
            outcome = _outcome(first_failing_term, mutant, relation, d, n - 1)
            if abs(delta) == 1:
                assert outcome == "no certificate"
                continue
            assert outcome in ("no certificate", _outcome(
                _counted, mutant, relation, d, n - 1))
            if outcome is None:
                assert whole_sum_decomposition(
                    d, [expand(t, d, n - 1) for t in mutant]) is None
            certified += outcome != "no certificate"
    assert certified > 2 * d


def test_ratio_shifts():
    holds = verify_proof_step(
        "ratio_shift_generic", d=4, r=1, n=7, j=3, k=2)
    assert holds.status is Status.HOLDS
    central = verify_proof_step(
        "ratio_shift_central", d=4, r=1, n=7, j=2, k=0)
    assert central.status is Status.HOLDS
    wrong_band = verify_proof_step(
        "ratio_shift_generic", d=4, r=1, n=7, j=2, k=2)
    assert wrong_band.status is Status.SKIPPED_PRECONDITION
    parity = verify_proof_step(
        "ratio_shift_generic", d=5, r=1, n=9, j=4, k=1)
    assert parity.status is Status.SKIPPED_PRECONDITION


def test_qbinom_rewrite():
    result = verify_proof_step(
        "qbinom_rewrite", d=5, r=2, n=8, k=4)
    assert result.status is Status.HOLDS


# Oracles: the three counting checks by Laurent and rational-function
# arithmetic, each returning a witness or None.

def _ratio_shift_by_products(d, r, n, j, k, central):
    m = (n + r) // d
    b = d - (d - 2 * j) * n
    top = d + r - (d - 2 * j - 1) * n
    lnum, lden = _poch_parts(top, d, k - 2 if central else k)
    lden2, _ = _poch_parts(b, d, k)
    rnum, rden = _poch_parts(b + d * k, d, m - 2 if central else m)
    rden2, _ = _poch_parts(b, d, m)
    lhs_num = one_minus_product(lnum)
    lhs_den = one_minus_product(lden + lden2)
    rhs_num = one_minus_product(rnum)
    rhs_den = one_minus_product(rden + rden2)
    if lhs_num * rhs_den != rhs_num * lhs_den:
        return f"ratio shift differs at j={j}, k={k}"
    return None


def _qbinom_rewrite_by_products(d, r, n, k):
    top = n - 1 - (n + r) // d
    lhs_num = one_minus_product(
        [d + r - (d - 1) * n + d * t for t in range(k)]).shifted(d * k)
    lhs_den = one_minus_product([d + d * t for t in range(k)])
    exponent = d * k * (k - 1) // 2 + (n + 2 * d + r - d * n) * k
    rhs_num = Laurent(inflate(q_binomial(top, k), d), exponent)
    if k % 2:
        rhs_num = -rhs_num
    if lhs_num != rhs_num * lhs_den:
        return f"q-binomial rewrite differs at k={k}"
    return None


def _poch_split_by_products(d, r, k):
    lhs = one_minus_product(
        [d + r + d * t for t in range(k)] + [r - d + d * t for t in range(k)])
    # 1 + (1 - q^d)/(q^d - q^{dk+r}) = (p + (1 - q^d)) / p with
    # p = q^d (1 - q^{dk+r-d}), so the splitting cross-multiplied by its
    # denominators [r] p reads lhs [r] p = -q^r [d-r] (p + 1 - q^d) square.
    p = one_minus_product([d * k + r - d]).shifted(d)
    den = p * Laurent(q_integer(r))
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    square = one_minus_product([r + d * t for t in range(k)]) ** 2
    rhs = -Laurent(q_integer(d - r), r) * (p + one_minus_product([d])) * square
    if lhs * den != rhs:
        return f"Pochhammer splitting differs at d={d}, r={r}, k={k}"
    return None


def _verdict(check, *args):
    """HOLDS, or FAILS for a witness or an arithmetic refusal, as
    ``run_check`` would report it."""
    try:
        return Status.HOLDS if check(*args) is None else Status.FAILS
    except ArithmeticError:
        return Status.FAILS


def _past_grid_cases():
    """(counting check, oracle, arguments) for d 2..11, r 1..d-1, k 0..6
    and every admissible n <= 40."""
    cases = []
    for d in range(2, 12):
        for r, k in itertools.product(range(1, d), range(7)):
            cases.append((_check_poch_split, _poch_split_by_products,
                          (d, r, k)))
            for n in range(1, 41):
                if (n + r) % d == 0 and n - 1 - (n + r) // d >= 0:
                    cases.append((_check_qbinom_rewrite,
                                  _qbinom_rewrite_by_products, (d, r, n, k)))
                for j, central in itertools.product(range(1, d), (False, True)):
                    if _ratio_shift_pre(d, r, n, j, k, central) is None:
                        cases.append((_check_ratio_shift,
                                      _ratio_shift_by_products,
                                      (d, r, n, j, k, central)))
    return cases


# The paper-default instances of the five steps that count exponents, as
# (check, oracle, arguments).
COUNTED_STEPS = {
    "ratio_shift_generic": lambda p: (
        _check_ratio_shift, _ratio_shift_by_products,
        (p["d"], p["r"], p["n"], p["j"], p["k"], False)),
    "ratio_shift_central": lambda p: (
        _check_ratio_shift, _ratio_shift_by_products,
        (p["d"], p["r"], p["n"], p["j"], p["k"], True)),
    "qbinom_rewrite": lambda p: (
        _check_qbinom_rewrite, _qbinom_rewrite_by_products,
        (p["d"], p["r"], p["n"], p["k"])),
    "pochhammer_split_r1": lambda p: (
        _check_poch_split, _poch_split_by_products, (p["d"], 1, p["k"])),
    "pochhammer_split_general": lambda p: (
        _check_poch_split, _poch_split_by_products,
        (p["d"], p["r"], p["k"])),
}
PAPER_STEPS = [(cid, params) for cid, params in paper_default_suite()
               if cid in COUNTED_STEPS]


def test_counted_steps_match_product_oracles_on_the_suite():
    assert len(PAPER_STEPS) > 200
    for cid, params in PAPER_STEPS:
        check, oracle, args = COUNTED_STEPS[cid](params)
        assert run_check(cid, params).status is Status.HOLDS, (cid, params)
        assert _verdict(check, *args) is _verdict(oracle, *args) \
            is Status.HOLDS, (cid, params)


def test_counted_steps_match_product_oracles_past_the_grid():
    cases = _past_grid_cases()
    verdicts = [_verdict(check, *args) for check, _, args in cases]
    assert verdicts == [_verdict(oracle, *args) for _, oracle, args in cases]
    assert len(cases) > 3000 and Status.HOLDS in verdicts


def _one_exponent_mutants(sides):
    """The sides with one numerator or denominator exponent moved by +-1,
    one mutant at a time."""
    for i, side in enumerate(sides):
        for part in (2, 3):
            for at, delta in itertools.product(range(len(side[part])),
                                               (1, -1)):
                exps = list(side[part])
                exps[at] += delta
                mutant = list(sides)
                mutant[i] = side[:part] + (exps,) + side[part + 1:]
                yield mutant


# (check id, params, the function giving its sides, that function's args)
MUTATED_STEPS = [
    ("ratio_shift_generic", {"d": 4, "r": 1, "n": 7, "j": 3, "k": 2},
     "_ratio_shift_sides", (4, 1, 7, 3, 2, False)),
    ("ratio_shift_central", {"d": 7, "r": 2, "n": 12, "j": 3, "k": 1},
     "_ratio_shift_sides", (7, 2, 12, 3, 1, True)),
    ("qbinom_rewrite", {"d": 5, "r": 2, "n": 8, "k": 3},
     "_qbinom_rewrite_sides", (5, 2, 8, 3)),
    ("pochhammer_split_r1", {"d": 3, "k": 4}, "_poch_split_sides", (3, 1, 4)),
    ("pochhammer_split_general", {"d": 5, "r": 2, "k": 3},
     "_poch_split_sides", (5, 2, 3)),
]


@pytest.mark.parametrize("check_id,params,name,args", MUTATED_STEPS)
def test_one_exponent_mutants_of_counted_steps_fail(monkeypatch, check_id,
                                                    params, name, args):
    assert run_check(check_id, params).status is Status.HOLDS
    sides = getattr(identities, name)(*args)
    count = 0
    # The splitting's third part is the 1 + ratio sum, mutated below.
    for mutant in _one_exponent_mutants(sides[:2]):
        monkeypatch.setattr(identities, name,
                            lambda *_, m=mutant: (*m, *sides[2:]))
        assert run_check(check_id, params).status is Status.FAILS, mutant
        count += 1
    assert count >= 4


@pytest.mark.parametrize("term,delta", itertools.product(range(3), (1, -1)))
def test_wrong_exponent_in_one_plus_ratio_fails(monkeypatch, term, delta):
    real = identities._poch_split_sides

    def wrong(d, r, k):
        lhs, rest, terms = real(d, r, k)
        shift, (e,) = terms[term]
        terms = list(terms)
        terms[term] = (shift, [e + delta])
        return lhs, rest, tuple(terms)

    monkeypatch.setattr(identities, "_poch_split_sides", wrong)
    result = run_check("pochhammer_split_general", {"d": 5, "r": 2, "k": 3})
    assert result.status is Status.FAILS
    assert result.witness == "1 + ratio differs at d=5, r=2, k=3"


def test_counted_steps_need_no_polynomial_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial arithmetic in a counted step")

    for cls, attr in ((Laurent, "__mul__"), (Laurent, "__rmul__"),
                      (RatFunc, "__init__")):
        monkeypatch.setattr(cls, attr, refuse)
    for module in (qfuncs, identities):
        for attr in ("one_minus_product", "q_binomial"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for cid, params in PAPER_STEPS:
        assert verify_proof_step(cid, **params).status is Status.HOLDS, (
            cid, params)


def test_bracket_factorization_12():
    product = cyclotomic(12) * poly_prod(
        [cyclotomic(m) for m in (2, 3, 4, 6)])
    assert product == q_integer(12)
    result = verify_proof_step("bracket_factorization", n=12)
    assert result.status is Status.HOLDS


def test_prefactor_divisibility():
    assert verify_proof_step(
        "prefactor_divisibility", d=2, n=9).status is Status.HOLDS
    # Prime n has no proper divisors above 1; the modulus is trivial.
    assert verify_proof_step(
        "prefactor_divisibility", d=2, n=7).status is Status.HOLDS


def _prefactor_divides_by_division(d, n):
    """Oracle: reduce prod_{j<n} [jd]^d modulo prod Phi_m^2 (m | n,
    1 < m < n) by polynomial division, one j at a time."""
    modulus = poly_prod([cyclotomic(m) ** 2 for m in divisors(n) if 1 < m < n])
    rem = Poly((1,))
    for j in range(1, n):
        _, rem = divrem(rem * q_integer(j * d) ** d, modulus)
    return rem.is_zero()


def test_prefactor_counting_matches_division_oracle():
    verdicts = [_check_prefactor_divisibility(d, n) is None
                for d in range(1, 7) for n in range(2, 31)]
    assert verdicts == [_prefactor_divides_by_division(d, n)
                        for d in range(1, 7) for n in range(2, 31)]
    assert 0 < verdicts.count(False) < len(verdicts)


def test_prefactor_fails_when_a_cyclotomic_factor_divides_once():
    # d = 1, n = 4: of [1], [2], [3] only [2] has the factor Phi_2.
    assert not _prefactor_divides_by_division(1, 4)
    assert _check_prefactor_divisibility(1, 4) == (
        "Phi_2 divides the product 1 times, not twice")


@pytest.mark.parametrize("step_id", ["qbinom_rewrite", "exponent_identity"])
def test_q_binomial_steps_need_positive_d(step_id):
    # d < 1 once read as FAILS (integer modulo by zero) or ERROR.
    for d, r, n, k in itertools.product(range(-1, 7), range(-1, 5),
                                        range(-1, 12), range(-1, 4)):
        result = run_check(step_id, {"d": d, "r": r, "n": n, "k": k})
        if d < 1:
            assert result.status is Status.SKIPPED_PRECONDITION, (d, r, n, k)
            assert result.note == "requires d >= 1"
        else:
            assert result.status in (Status.HOLDS,
                                     Status.SKIPPED_PRECONDITION), (d, r, n, k)


def test_unknown_step_rejected():
    with pytest.raises(ValueError):
        verify_proof_step("nope")


def test_km_sample_exhaustion(monkeypatch):
    import qsupercheck.identities as ident

    class DegenerateRng:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            return 7  # q = 7/7 = 1: always degenerate

    monkeypatch.setattr(ident.random, "Random", DegenerateRng)
    with pytest.raises(ident.SampleExhaustionError):
        ident.verify_karlsson_minton([1], trials=1, seed=0)
