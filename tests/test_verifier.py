"""Truncated-sum congruence checks against their closed forms."""

from collections import Counter

import pytest

from qsupercheck import qfuncs, verifier
from qsupercheck.catalog import (
    GRID_EQ13,
    GRID_EQ14,
    GRID_EQ15,
    GRID_EQ22,
    GRID_LEMMA21,
    GRID_THM11,
    GRID_THM12,
    GRID_THM13,
    GRID_THM41,
    GRID_THM42,
    run_check,
)
from qsupercheck.cyclotomic import cyclotomic, divisors, q_integer
from qsupercheck.families import (
    THEOREMS,
    IntegralityError,
    a_exponent,
    at_r,
    closed_form,
    family_increments,
    family_template,
    mutated,
    theorem_precondition,
)
from qsupercheck.identities import DECOMPOSITION_SUMMANDS
from qsupercheck.laurent import Laurent
from qsupercheck.padic import SHADOWS
from qsupercheck.poly import Poly, poly_prod
from qsupercheck.qfuncs import Packed, poch_power_base, relation_vanishes
from qsupercheck.residue import NonUnitError, ResidueRing
from qsupercheck.results import Status
from qsupercheck.verifier import (
    DIVISIBILITY_SUMMAND,
    lhs_sum,
    divisibility_expression,
    rhs_closed_form,
    verify_divisibility,
    verify_theorem,
)

from oracles import (
    laurent_product,
    lhs_sum_whole,
    summand_counts,
    written_out_closed_form,
    written_out_counts,
    written_out_summand,
    written_out_value,
)


def _closed_form(check_id, d, n, r):
    """The closed form of the (statement, r) the theorem id checks."""
    statement, at = at_r(THEOREMS[check_id], r)
    return closed_form(statement, d, n, at)


def _same_value(a, b):
    """(num, den) pairs with units as denominators, compared as fractions."""
    return a[0] * b[1] == b[0] * a[1]


def test_lhs_sum_two_term_by_hand():
    # d = 3, n = 2: 1 + T_1 / h_1 = (h_1 + T_1) / h_1.
    ring = ResidueRing(2)
    h1 = poch_power_base(3, 3, 1) ** 3
    t1 = (poch_power_base(4, 3, 1) * poch_power_base(1, 3, 1) ** 2
          * Laurent(Poly((1,)), 3))
    num, den = lhs_sum("thm42", 3, 1, 2, ring)
    assert num == ring.element(h1 + t1)
    assert den == ring.element(h1)


def test_lhs_sum_coefficients_stay_integral():
    ring = ResidueRing(11)
    for value in lhs_sum("thm42", 3, 1, 11, ring):
        assert all(type(c) is int for c in value.rep.coeffs)


def test_lhs_sum_matches_whole_sum_oracle():
    ring = ResidueRing(3)
    num, den = lhs_sum("eq13", 2, 1, 3, ring)
    assert num == lhs_sum_whole("eq13", 2, 1, 3, ring) * den


def test_lemma_sum_vanishes():
    ring = ResidueRing(7)
    num, _ = lhs_sum("lemma21", 4, 1, 7, ring)
    assert num.is_zero()


def test_lhs_sum_refuses_non_unit_denominator():
    # d = 2, n = 4: the k = 2 factor 1 - q^4 is divisible by Phi_4.
    with pytest.raises(NonUnitError) as err:
        lhs_sum("eq13", 2, 1, 4, ResidueRing(4))
    assert err.value.witness == cyclotomic(4)


def test_rhs_closed_form_refuses_non_unit_denominator():
    # thm12, thm42 at r = 1, at d = 3, n = 8 in the ring of n = 3:
    # (q^3; q^3)_3 has 1 - q^3.
    with pytest.raises(NonUnitError):
        rhs_closed_form("thm42", 3, 1, 8, ResidueRing(3))


# Statuses of (no mutation, sign mutant, exponent mutant) per check id on
# its catalog grid, recorded from the ring-inversion implementation.  The
# vanishing families have no closed form to mutate, and a mutation of
# theirs is refused with ValueError.
THEOREM_GRID_VERDICTS = {
    "eq13": ("HOLDS", "FAILS", "FAILS"),
    "eq14": ("HOLDS", "FAILS", "FAILS"),
    "eq15": ("HOLDS", "FAILS", "FAILS"),
    "thm11": ("HOLDS", "FAILS", "FAILS"),
    "thm12": ("HOLDS", "FAILS", "FAILS"),
    "lemma21": ("HOLDS", "ValueError", "ValueError"),
    "eq22": ("HOLDS", "ValueError", "ValueError"),
    "thm41": ("HOLDS", "FAILS", "FAILS"),
    "thm42": ("HOLDS", "FAILS", "FAILS"),
}
THEOREM_GRID = (
    [("eq13", d, 1, n) for d, n in GRID_EQ13]
    + [("eq14", d, 1, n) for d, n in GRID_EQ14]
    + [("eq15", d, 1, n) for d, n in GRID_EQ15]
    + [("thm11", d, 1, n) for d, n in GRID_THM11]
    + [("thm12", d, 1, n) for d, n in GRID_THM12]
    + [("lemma21", d, r, n) for d, r, n in GRID_LEMMA21]
    + [("eq22", d, 1, n) for d, n in GRID_EQ22]
    + [("thm41", d, r, n) for d, r, n in GRID_THM41]
    + [("thm42", d, r, n) for d, r, n in GRID_THM42]
)


def _outcome(verdict):
    """What ``verdict()`` returns, or "ValueError" when it raises one."""
    try:
        return verdict()
    except ValueError:
        return "ValueError"


def test_theorem_grid_verdicts_without_inversion(monkeypatch):
    import qsupercheck.poly
    import qsupercheck.residue

    def refuse(*args):
        raise AssertionError("verify_theorem inverted a ring element")

    monkeypatch.setattr(qsupercheck.residue.RingElement, "invert", refuse)
    monkeypatch.setattr(qsupercheck.residue, "xgcd", refuse)
    monkeypatch.setattr(qsupercheck.poly, "xgcd", refuse)
    assert len(THEOREM_GRID) == 50
    for check_id, d, r, n in THEOREM_GRID:
        statuses = tuple(
            _outcome(lambda: verify_theorem(check_id, d, n, r,
                                            mutation=mutation).status.value)
            for mutation in (None, "sign", "exponent"))
        assert statuses == THEOREM_GRID_VERDICTS[check_id], (check_id, d, r, n)


def test_each_left_side_is_summed_once_per_statement_d_r_n(monkeypatch):
    # eq14 is thm41 at r = 1, and a mutant shares its sibling's left side:
    # four checks, one sum.  thm41 at (5, 1, 9) and (5, 2, 8) are two.
    summed = []
    real = verifier.lhs_sum

    def counted(statement, d, r, n, ring):
        summed.append((statement, d, r, n))
        return real(statement, d, r, n, ring)

    monkeypatch.setattr(verifier, "lhs_sum", counted)
    statuses = [verify_theorem("eq14", 3, 5).status,
                verify_theorem("thm41", 3, 5, 1).status]
    statuses += [verify_theorem("thm41", 3, 5, 1, mutation=mutation).status
                 for mutation in ("sign", "exponent")]
    assert statuses == [Status.HOLDS] * 2 + [Status.FAILS] * 2
    assert summed == [("thm41", 3, 1, 5)]
    verify_theorem("thm41", 5, 9, 1)
    verify_theorem("thm41", 5, 8, 2)
    assert summed[1:] == [("thm41", 5, 1, 9), ("thm41", 5, 2, 8)]


def test_a_kept_left_side_decides_as_a_fresh_one():
    # The grid in order, so aliases and mutant twins find their left side
    # kept, against each call made again with the memo cleared before it.
    def decide(check_id, d, r, n, mutation):
        result = verify_theorem(check_id, d, n, r, mutation=mutation)
        return result.status, result.witness, result.note

    kept = {(*point, mutation): _outcome(lambda: decide(*point, mutation))
            for point in THEOREM_GRID
            for mutation in (None, "sign", "exponent")}
    assert verifier._left_side.cache_info().misses == 42
    for key, outcome in kept.items():
        verifier._left_side.cache_clear()
        assert _outcome(lambda: decide(*key)) == outcome, key


def test_a_exponent_values():
    assert a_exponent(3, 5, 1) == 17
    assert a_exponent(2, 3, 1) == 5
    # The r = 1 exponent of the squared family agrees with the
    # one-parameter form: A(d, n, 1) - 1 = core(d, n) - 2.
    assert a_exponent(3, 5, 1) - 1 == written_out_closed_form(
        "thm12", 3, 5)[1] == 16


def test_rhs_closed_form_first_family():
    # d = 2, n = 3: the two length-one Pochhammers cancel, leaving -q^2.
    ring = ResidueRing(3)
    num, den = rhs_closed_form("eq13", 2, 1, 3, ring)
    assert den == ring.element(poch_power_base(2, 2, 1))
    assert num == -ring.pow_q(2) * den


def test_rhs_zero_for_vanishing_family():
    ring = ResidueRing(7)
    assert rhs_closed_form("lemma21", 4, 1, 7, ring) == (ring.zero, ring.one)


def test_vanishing_families_reject_mutation():
    # The refusal of the parametric vanishing sums, unknown mutations too.
    for check_id, mutation in (("lemma21", "sign"), ("eq22", "bogus")):
        with pytest.raises(ValueError, match="vanishing right-hand sides"):
            verify_theorem(check_id, 4, 7, 1, mutation=mutation)


def test_verify_theorem_examples():
    assert verify_theorem("thm12", 3, 5).status is Status.HOLDS
    assert verify_theorem("thm11", 4, 7).status is Status.HOLDS
    skipped = verify_theorem("thm11", 4, 6)
    assert skipped.status is Status.SKIPPED_PRECONDITION


def test_verify_theorem_boundary_note():
    result = verify_theorem("thm12", 3, 2)
    assert result.status is Status.HOLDS
    assert result.note and "n = 2" in result.note


def test_verify_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_theorem("thm99", 3, 5)


def test_one_parameter_ids_read_no_instance_r():
    # A one-parameter id checks its statement at r = 1 whatever r it is
    # called with, as its result's params, which carry no r, say; eq22
    # once summed lemma21's summand at the given r and read FAILS.
    for check_id, grid in (("eq13", GRID_EQ13), ("eq14", GRID_EQ14),
                           ("eq15", GRID_EQ15), ("thm11", GRID_THM11),
                           ("thm12", GRID_THM12), ("eq22", GRID_EQ22)):
        for d, n in grid:
            at_one = verify_theorem(check_id, d, n)
            assert at_one.status is Status.HOLDS and "r" not in at_one.params
            for r in range(2, d):
                other = verify_theorem(check_id, d, n, r)
                assert (other.status, other.params, other.witness) == (
                    at_one.status, at_one.params, at_one.witness), (
                    check_id, d, n, r)


@pytest.mark.parametrize("check_id,d,n,r", [
    ("eq13", 2, 3, 1),
    ("eq14", 3, 5, 1),
    ("thm41", 4, 7, 1),
    ("thm42", 3, 4, 2),
])
def test_mutations_fail(check_id, d, n, r):
    for mutation in ("sign", "exponent"):
        result = verify_theorem(check_id, d, n, r, mutation=mutation)
        assert result.status is Status.FAILS
        assert result.witness


def test_verify_divisibility_examples():
    assert verify_divisibility(2, 3).status is Status.HOLDS
    assert verify_divisibility(3, 5).status is Status.HOLDS
    assert verify_divisibility(3, 4).status is Status.SKIPPED_PRECONDITION


def _divisibility_by_q_integers(d, n):
    """Oracle: each factor 1 - q^e of each term becomes a q-integer [|e|]
    times a signed monomial, cancelling (1 - q)^{d(n-1)} term by term."""
    total = Laurent(Poly())
    for k in range(n):
        exponents = []
        for e, mult in written_out_summand("thm13", d):
            for j in range(k):
                exponents.extend([e + d * j] * mult)
        for j in range(k + 1, n):
            exponents.extend([d * j] * d)
        sign, shift, q_ints = 1, d * k, []
        for e in exponents:
            if e < 0:
                sign, shift, e = -sign, shift + e, -e
            q_ints.append(q_integer(e))
        term = Laurent(poly_prod(q_ints), shift)
        total = total + (term if sign > 0 else -term)
    return total


# The catalog grid, then the instances the benchmark runs past it.
@pytest.mark.parametrize("d,n", GRID_THM13 + ((2, 1), (4, 15), (6, 11)))
def test_divisibility_expression_matches_q_integer_oracle(d, n):
    assert divisibility_expression(d, n) == _divisibility_by_q_integers(d, n)


def test_inexact_divisibility_division_reads_as_fails(monkeypatch):
    # A factor dropped from one term: f is no longer a Laurent polynomial,
    # which the factor count refuses.
    real_increments = verifier.family_increments

    def dropped(family, d, r, limit):
        increments = real_increments(family, d, r, limit)
        increments[2][0].pop()
        return increments

    monkeypatch.setattr(verifier, "family_increments", dropped)
    for result in (verify_divisibility(3, 5), run_check("thm13", {"d": 3, "n": 5})):
        assert result.status is Status.FAILS
        assert result.witness == (
            "IntegralityError: term 2 has 11 factors 1 - q^e, fewer than 12")
    monkeypatch.undo()

    # q^low added to N: the fold sees no (1 - q^n)^2, and the witness's
    # unfolded path finds that 1 - q no longer divides N.
    # The fold and ``truncated_sum`` both take N from ``qfuncs._numerator``.
    real = qfuncs._numerator

    def plus_one(step, increments, width, fold=0):
        value, low = real(step, increments, width, fold)
        return value + 1, low

    monkeypatch.setattr(qfuncs, "_numerator", plus_one)
    with pytest.raises(IntegralityError):
        divisibility_expression(3, 5)
    for result in (verify_divisibility(3, 5), run_check("thm13", {"d": 3, "n": 5})):
        assert result.status is Status.FAILS
        assert result.witness.startswith("IntegralityError")


@pytest.mark.parametrize("d,n", [(5, 24), (7, 20)])
def test_divisibility_holds_past_the_grid(d, n):
    assert verify_divisibility(d, n).status is Status.HOLDS


def test_divisibility_reaches_no_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("the HOLDS path divided or unpacked")

    monkeypatch.setattr(verifier, "divrem", refuse)
    monkeypatch.setattr(verifier, "divisibility_expression", refuse)
    monkeypatch.setattr(Packed, "laurent", refuse)
    for d, n in GRID_THM13 + ((4, 15), (6, 11)):
        assert verify_divisibility(d, n).status is Status.HOLDS


def _fold_theorem_verdict(check_id, d, n, r, mutation, added=None):
    """verify_theorem's verdict from sums folded modulo (1 - q^n)^2.

    A is 0 mod Phi_n^2 exactly when (1 - q^n)^2 divides C A, where
    C = prod_{m | n, m < n} (1 - q^m)^2 is coprime to Phi_n and divisible by
    the square of every other cyclotomic factor of 1 - q^n.  A is the
    cross-multiplied difference N rden - sign q^s rnum D, and a vanishing
    closed form has sign 0.  ``added = (p, s)`` adds (1 - q^n)^p q^s to the
    right-hand side, so A loses q^s (1 - q^n)^p rden D.
    """
    statement, at = at_r(THEOREMS[check_id], r)
    increments = family_increments(statement, d, at, n - 1)
    quotient = mutated(closed_form(statement, d, n, at), mutation)
    sign, shift, rnum, rden = quotient or (0, 0, [], [])
    lhs_den = [e for _, b, _ in increments for e in b]
    if any(e % n == 0 for e in lhs_den + rden):
        return "FAILS"  # a denominator that is no unit mod Phi_n^2
    c = [m for m in divisors(n) if m < n for _ in range(2)]
    terms = [(1, 0, rden + c, increments),
             (-sign, shift, lhs_den + rnum + c, None)]
    if added is not None:
        power, s = added
        terms.append((-1, s, lhs_den + rden + [n] * power + c, None))
    same = relation_vanishes(d, terms, fold=n)
    return "HOLDS" if same else "FAILS"


def test_fold_reproduces_theorem_grid_verdicts():
    for check_id, d, r, n in THEOREM_GRID:
        statuses = tuple(
            _outcome(lambda: _fold_theorem_verdict(check_id, d, n, r, mutation))
            for mutation in (None, "sign", "exponent"))
        assert statuses == THEOREM_GRID_VERDICTS[check_id], (check_id, d, r, n)


def test_fold_sees_the_square():
    # The control that sees the square: a right-hand side shifted by
    # (1 - q^n) q^s is still congruent mod Phi_n, but not mod Phi_n^2,
    # since rden D is a unit there, so the fold must report FAILS.  A fold
    # reduced by the wrong power would pass the sign and exponent mutants.
    # Shifted by (1 - q^n)^2 q^s, the congruence still holds.
    for check_id, d, r, n in THEOREM_GRID:
        for s in (-3, 0, 1, n + 2):
            assert _fold_theorem_verdict(check_id, d, n, r, None,
                                         (1, s)) == "FAILS", (check_id, d, n)
            assert _fold_theorem_verdict(check_id, d, n, r, None,
                                         (2, s)) == "HOLDS", (check_id, d, n)


def test_closed_forms_match_the_written_out_pochhammers():
    # Every admissible instance with d <= 12 and n <= 200: the same sign,
    # q-power and exponent multisets as the displayed formulas, mutants too.
    seen = 0
    for check_id in THEOREMS:
        two_parameter = check_id in ("lemma21", "thm41", "thm42")
        for d in range(2, 13):
            for r in range(1, d) if two_parameter else (1,):
                for n in range(2, 201):
                    if theorem_precondition(check_id, d, n, r) is not None:
                        continue
                    quotient = _closed_form(check_id, d, n, r)
                    if written_out_closed_form(check_id, d, n, r) is None:
                        assert quotient is None
                        continue
                    for mutation in (None, "sign", "exponent"):
                        sign, shift, num, den = mutated(quotient, mutation)
                        assert (sign, shift, Counter(num), Counter(den)) == (
                            written_out_counts(check_id, d, n, r, mutation)), (
                            check_id, d, r, n, mutation)
                    seen += 1
    assert seen > 2500


def test_r1_collapse_of_closed_forms():
    # The two-parameter closed forms at r = 1 must equal the displayed
    # one-parameter ones, odd d matching the odd-d display and even d
    # the even-d one.
    for d, n, flavor_mixed, flavor_squared in (
        (3, 5, "eq14", "thm12"),
        (4, 7, "thm11", "eq15"),
        (5, 9, "eq14", "thm12"),
    ):
        ring = ResidueRing(n)
        assert _same_value(rhs_closed_form("thm41", d, 1, n, ring),
                           written_out_value(flavor_mixed, d, n, ring))
        assert _same_value(rhs_closed_form("thm42", d, 1, n, ring),
                           written_out_value(flavor_squared, d, n, ring))


@pytest.mark.parametrize("check_id,d,r,n", [
    ("thm41", 5, 2, 8),
    ("thm12", 3, 1, 5),
    ("eq13", 3, 1, 4),
])
def test_congruence_by_polynomial_divisibility_oracle(check_id, d, r, n):
    # Third route, no ring reduction: clear all denominators of LHS - RHS
    # and check Phi_n(q)^2 divides the resulting Laurent polynomial.
    from qsupercheck.poly import divrem

    factors = written_out_summand(check_id, d, r)
    lhs_num = Laurent(Poly())
    for k in range(n):
        term = Laurent(Poly((1,))).shifted(d * k)
        for e, mult in factors:
            term = term * poch_power_base(e, d, k) ** mult
        term = term * poch_power_base(d * (k + 1), d, n - 1 - k) ** d
        lhs_num = lhs_num + term
    lhs_den = poch_power_base(d, d, n - 1) ** d

    sign, shift, num, den = _closed_form(check_id, d, n, r)
    rhs_num = laurent_product(num).shifted(shift) * sign
    rhs_den = laurent_product(den)

    difference = lhs_num * rhs_den - rhs_num * lhs_den
    modulus = cyclotomic(n) ** 2
    # Denominators are coprime to Phi_n, so the congruence is equivalent
    # to Phi_n^2 dividing the cleared difference.
    from qsupercheck.poly import gcd

    assert gcd(rhs_den.to_poly(), cyclotomic(n)).degree == 0
    assert gcd(lhs_den.to_poly(), cyclotomic(n)).degree == 0
    _, rem = divrem(difference.body, modulus)
    assert rem.is_zero()


def test_two_parameter_families_collapse_termwise_at_r1():
    # As the paper displays them, Guo's summands and eq22's (thm13's too)
    # are thm41's, thm42's and lemma21's at r = 1, factor for factor: the
    # identity that ``THEOREMS`` rests on.
    for d in range(2, 13):
        for one, two in (("eq14", "thm41"), ("thm11", "thm41"),
                         ("eq15", "thm42"), ("thm12", "thm42"),
                         ("eq22", "lemma21"), ("thm13", "lemma21")):
            assert summand_counts(one, d) == summand_counts(two, d, 1), (
                one, d)


def _template_counts(declared, d, r):
    """The numerator bases of a declared (statement, r or None)'s
    template at the instance's r, each term's denominator checked to be
    (q^d; q^d)_k^d with nothing else."""
    statement, at = at_r(declared, r)
    head, a, b, c = family_template(statement, d, at)
    assert (head, b, c) == (([], [], []), [d] * d, [])
    return Counter(a)


def test_every_summand_is_the_papers_display():
    # Every theorem id's template, thm13's, the three-sum decomposition's
    # (mixed = [d] divisibility - q [d-1] squared) and each classical
    # shadow's, against the summand written out from the paper.
    seen = 0
    for d in range(2, 13):
        for r in range(1, d):
            declared = [(cid, THEOREMS[cid]) for cid in THEOREMS]
            declared.append(("thm13", DIVISIBILITY_SUMMAND))
            declared += zip(("eq14", "thm13", "eq15"), DECOMPOSITION_SUMMANDS)
            declared += [(cid, summand) for cid, (_, summand, _, fixed)
                         in SHADOWS.items() if summand and fixed in (None, d)]
            for cid, summand in declared:
                assert _template_counts(summand, d, r) == summand_counts(
                    cid, d, r), (cid, d, r)
                seen += 1
    assert seen == 66 * 17 + 1
