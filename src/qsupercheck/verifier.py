"""Congruence checks: truncated sums against closed forms in quotient rings.

Both sides of a congruence modulo Phi_n(q)^2 are fractions whose
denominators are products of factors 1 - q^e.  Each side is kept as a
(numerator, denominator) pair of elements of Z[q]/(Phi_n^2), and the
check compares the cross products.  The modulus is monic with integer
coefficients, so every coefficient stays an integer and nothing is
inverted.  A theorem id checks the (statement, r) of ``families.THEOREMS``,
whose closed form's exponent lists are each reduced into the ring as one
product of factors 1 - q^e.  Cross-multiplying is valid only when both
denominators are units; 1 - q^e is divisible by Phi_n exactly when n
divides e, so each denominator factor is checked by counting and a
non-unit raises ``NonUnitError``.  thm13's sum is different in kind: its
prefactor cancels every denominator exactly, which is proved by counting
factors 1 - q^e, and [n]^2 divides the result exactly when (1 - q^n)^2
divides (1 - q)^2 times the sum's numerator, which ``relation_vanishes``
decides folded modulo (1 - q^n)^2; only a FAILS unpacks that numerator,
for its witness.  ``lhs_sum`` keeps its own recurrence on ring elements.
The left side depends on (statement, d, r, n) alone, so ``_left_side``
keeps the ring and the sum in a ``functools.lru_cache`` of 4,096 entries
under that key: a one-parameter id and the two-parameter statement it is
at r = 1, or a mutant and its sibling, sum once.  The right side carries
the mutation and is built at every call; a raised error is never kept.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import accumulate

from .cyclotomic import cyclotomic, q_integer
from .families import (
    THEOREMS,
    IntegralityError,
    at_r,
    closed_form,
    family_increments,
    mutated,
    numerator_bases,
    theorem_precondition,
)
from .laurent import Laurent
from .poly import Poly, divrem
from .qfuncs import one_minus_product, relation_vanishes, truncated_sum
from .residue import NonUnitError, ResidueRing, RingElement
from .results import CheckResult, fails, holds, skipped

# thm13's summand: the divisibility sum is lemma21's at r = 1.
DIVISIBILITY_SUMMAND = ("lemma21", 1)

Fractional = tuple[RingElement, RingElement]  # (numerator, denominator)


def _require_unit(ring: ResidueRing, e: int) -> None:
    """Raise NonUnitError when 1 - q^e is no unit mod Phi_n^2: when n | e.

    ``ring`` is Z[q]/(Phi_n^2), as for every congruence checked here.
    """
    if e % ring.n == 0:
        raise NonUnitError(cyclotomic(ring.n) if e else Poly())


def lhs_sum(statement: str, d: int, r: int, n: int,
            ring: ResidueRing) -> Fractional:
    """Sum_{k=0}^{n-1} of the statement's term as (N, D), sum = N / D.

    With h_k = (1 - q^{dk})^d and T_k = q^{dk} prod_e (q^e; q^d)_k^{m_e}
    the term's numerator, the forward recurrence N_k = N_{k-1} h_k + T_k,
    D_k = D_{k-1} h_k gives D = (q^d; q^d)_{n-1}^d.  Every factor of D is
    checked to be a unit; none is inverted.
    """
    factors = Counter(numerator_bases(statement, d, r))
    running = {e: ring.one for e in factors}
    base = {e: ring.pow_q(e) for e in running}
    q_step = ring.pow_q(d)
    q_power = ring.one  # q^{d(k-1)} at the top of the loop, q^{dk} below
    num = den = ring.one  # the k = 0 term is 1
    for k in range(1, n):
        for e in running:
            running[e] = running[e] * (ring.one - base[e] * q_power)
        _require_unit(ring, d * k)
        q_power = q_power * q_step
        h = (ring.one - q_power) ** d
        term = q_power
        for e, mult in factors.items():
            term = term * running[e] ** mult
        num = num * h + term
        den = den * h
    return num, den


def rhs_closed_form(statement: str, d: int, r: int, n: int, ring: ResidueRing,
                    mutation: str | None = None) -> Fractional:
    """The statement's closed form as a (num, den) pair; (0, 1) for the
    vanishing one.  Every factor of den is checked to be a unit."""
    quotient = mutated(closed_form(statement, d, n, r), mutation)
    if quotient is None:
        return ring.zero, ring.one
    sign, shift, num, den = quotient
    for e in den:
        _require_unit(ring, e)
    rhs = ring.pow_q(shift) * ring.element(one_minus_product(num))
    return (rhs if sign > 0 else -rhs), ring.element(one_minus_product(den))


@functools.lru_cache(maxsize=4096)
def _left_side(statement: str, d: int, r: int,
               n: int) -> tuple[ResidueRing, Fractional]:
    """The ring Z[q]/(Phi_n^2) and ``lhs_sum`` in it, kept per key;
    ``lhs_sum`` is looked up by its module name, so a wrapper patched over
    it counts every sum made."""
    ring = ResidueRing(n)
    return ring, lhs_sum(statement, d, r, n, ring)


def verify_theorem(check_id: str, d: int, n: int, r: int = 1,
                   mutation: str | None = None) -> CheckResult:
    """Compare LHS sum and closed form in Z[q]/(Phi_n(q)^2)."""
    declared = THEOREMS.get(check_id)
    if declared is None:
        raise ValueError(f"unknown theorem id {check_id!r}")
    params = {"d": d, "n": n}
    if declared[1] is None:
        params["r"] = r
    reason = theorem_precondition(check_id, d, n, r)
    if reason is not None:
        return skipped(check_id, params, reason)
    note = None
    if check_id == "thm12" and n == 2:
        note = "boundary case n = 2: accepted, smallest admissible n"
    try:
        name, at = at_r(declared, r)
        ring, (lhs_num, lhs_den) = _left_side(name, d, at, n)
        rhs_num, rhs_den = rhs_closed_form(name, d, at, n, ring, mutation)
    except (NonUnitError, IntegralityError) as exc:
        return fails(check_id, params, f"{type(exc).__name__}: {exc}")
    difference = lhs_num * rhs_den - rhs_num * lhs_den
    if difference.is_zero():
        return holds(check_id, params, note)
    return fails(check_id, params,
                 f"cross-multiplied difference {difference.rep!r}")


def _require_integral(increments, order: int) -> None:
    """Raise IntegralityError unless every nonzero term of
    ``truncated_sum``'s N has at least ``order`` factors 1 - q^e with
    e != 0, each divisible by 1 - q (a term with a factor 1 - q^0 is zero,
    and a denominator one is refused by ``truncated_sum``)."""
    later = sum(len(b) for _, b, _ in increments)
    ran, dead = 0, False
    for k, (a, b, c) in enumerate(increments):
        ran += len(a)
        later -= len(b)
        dead = dead or 0 in a
        if not (dead or 0 in c) and ran + len(c) + later < order:
            raise IntegralityError(f"term {k} has {ran + len(c) + later}"
                                   f" factors 1 - q^e, fewer than {order}")


def divisibility_expression(d: int, n: int) -> Laurent:
    """(q^d;q^d)_{n-1}^d / (1-q)^{d(n-1)} times the divisibility sum, eq22's
    (q^{d+1};q^d)_k^{d-2} (q, q^{1-d};q^d)_k, assembled as one Laurent
    polynomial with integer coefficients.

    ``truncated_sum`` gives the sum's numerator N over the denominator
    (q^d;q^d)_{n-1}^d, packed at the width of its own bound and unpacked;
    N is divided by 1 - q d(n-1) times, one running sum each.  An inexact
    division raises IntegralityError.  ``verify_divisibility`` needs this
    only for the witness of a FAILS.
    """
    statement, r = DIVISIBILITY_SUMMAND
    increments = family_increments(statement, d, r, n - 1)
    num = truncated_sum(d, increments).laurent()
    body = list(num.body.coeffs)
    for _ in range(d * (n - 1)):
        if sum(body):
            raise IntegralityError("1 - q does not divide the numerator")
        body = list(accumulate(body[:-1]))  # f / (1 - q), f(1) = 0
    return Laurent(Poly(body), num.min_exp)


def verify_divisibility(d: int, n: int) -> CheckResult:
    """Divisibility of f = N / (1 - q)^{d(n-1)} by [n]^2, N the numerator of
    the prefactored divisibility sum (``divisibility_expression``).

    f is a Laurent polynomial because every nonzero term of N has d(n-1)
    factors 1 - q^e with e != 0, counted on the increments.  [n] is coprime
    to 1 - q, so [n]^2 | f exactly when (1 - q^n)^2 = (1 - q)^2 [n]^2
    divides (1 - q)^2 N, one ``relation_vanishes`` folded modulo (1 - q^n)^2.
    """
    params = {"d": d, "n": n}
    reason = theorem_precondition("thm13", d, n, 1)
    if reason is not None:
        return skipped("thm13", params, reason)
    try:
        statement, r = DIVISIBILITY_SUMMAND
        increments = family_increments(statement, d, r, n - 1)
        _require_integral(increments, d * (n - 1))
        if relation_vanishes(d, [(1, 0, [1, 1], increments)], fold=n):
            return holds("thm13", params)
        body = divisibility_expression(d, n).body  # drops q^min_exp, a unit
    except IntegralityError as exc:
        return fails("thm13", params, f"{type(exc).__name__}: {exc}")
    _, rem = divrem(body, q_integer(n) ** 2)
    if rem.is_zero():
        raise RuntimeError("fold and divrem disagree on [n]^2 | f")
    return fails("thm13", params, f"remainder {rem!r}")
