"""The classical congruences, read as the q -> 1 shadows of the statements.

At q = 1 a statement's term prod_e (q^e; q^d)_k q^{dk} / (q^d; q^d)_k^d
is prod_e (e/d)_k / k!^d.  ``shadow_sum`` sums it over the integers, and
each check is admissible where the q-statement it shadows is, at n = p:

    check            q-statement    summand         least prime
    rv_11            eq13, d = 2    eq13            3
    deines_12        eq13           eq13            3
    cor41_i          lemma21        thm41           3
    cor41_ii         thm42          thm42           5
    gamma_factorial  thm42          -               5
    wlt_integrality  thm13          lemma21, r = 1  - (takes n, not p)

Morita's Gamma_p is read at a rational through its integer representative
mod p^k, since Gamma_p(x) == Gamma_p(y) (mod p^k) whenever x == y (mod
p^k); the product Gamma_p(m) = (-1)^m prod_{0 < i < m, p !| i} i suffices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

from .cyclotomic import is_prime
from .families import at_r, numerator_bases, theorem_precondition
from .results import CheckResult, RefusalError, fails, holds, skipped


class ResidueDenominatorError(RefusalError, ZeroDivisionError):
    """A rational whose denominator p divides has no residue mod p^k."""


# Check id -> (q-statement whose precondition it shares, (statement, r or
# None for the instance's) whose sum at q = 1 is its left-hand side, least
# prime p or None when it takes n, the d it fixes or None when it takes d).
SHADOWS = {
    "rv_11": ("eq13", ("eq13", 1), 3, 2),
    "deines_12": ("eq13", ("eq13", 1), 3, None),
    "cor41_i": ("lemma21", ("thm41", None), 3, None),
    "cor41_ii": ("thm42", ("thm42", None), 5, None),
    "gamma_factorial": ("thm42", None, 5, None),
    "wlt_integrality": ("thm13", ("lemma21", 1), None, None),
}
CLASSICAL_IDS = tuple(SHADOWS)


def rational_residue(x: Fraction | int, p: int, k: int = 2) -> int:
    """Residue mod p**k of a rational with denominator prime to p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ResidueDenominatorError(f"denominator of {x} divisible by {p}")
    modulus = p**k
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def padic_gamma(p: int, k: int, x: int | Fraction) -> int:
    """Gamma_p at the residue of x mod p**k, for p >= 3 prime, k in {1, 2}."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    if k not in (1, 2):
        raise ValueError("precision k must be 1 or 2")
    m = rational_residue(x, p, k)
    modulus = p**k
    product = 1
    for i in range(1, m):
        if i % p:
            product = product * i % modulus
    return (-product if m % 2 else product) % modulus


def shadow_sum(statement: str, d: int, r: int, limit: int) -> tuple[int, int]:
    """Integers (N, D) with N / D = sum_{k <= limit} prod (e/d)_k / k!^d
    over the statement's numerator bases e, its sum at q = 1.

    There are d bases, so term k is A_k / (d^k k!)^d with
    A_k = prod_{j<k} prod (e + jd), and N_k = N_{k-1} (dk)^d + A_k,
    D_k = D_{k-1} (dk)^d.
    """
    bases = numerator_bases(statement, d, r)
    if len(bases) != d:
        raise ValueError(f"{statement} has {len(bases)} bases, not d = {d}")
    factors = Counter(bases).items()
    num = den = term = 1
    for k in range(1, limit + 1):
        for e, m in factors:
            term *= (e + (k - 1) * d) ** m
        step = (d * k) ** d
        num, den = num * step + term, den * step
    return num, den


def verify_classical(check_id: str, *, d: int | None = None,
                     r: int | None = None, p: int | None = None,
                     n: int | None = None) -> CheckResult:
    """One classical check: a congruence mod p^2, or wlt's integrality.

    A check takes the parameters its catalog row names, and its result
    carries those: p, or n for wlt; d unless its row fixes it, as rv_11's
    does; r where its q-statement reads one, and no other check reads r.
    """
    if check_id not in SHADOWS:
        raise ValueError(f"unknown classical id {check_id!r}")
    statement, summand, least, fixed = SHADOWS[check_id]
    params = {name: value for name, value in
              (("d", d), ("r", r), ("p", p), ("n", n)) if value is not None}
    d = d if fixed is None else fixed
    n = p if least else n
    if least and (not is_prime(n) or n < least):
        return skipped(check_id, params, f"requires a prime p >= {least}")
    reason = theorem_precondition(statement, d, n, r)
    if reason:
        at = " at n = p" if least else ""
        return skipped(check_id, params, f"as {statement}{at}: {reason}")
    if summand is not None:  # gamma_factorial has none
        name, at = at_r(summand, r)
        num, den = shadow_sum(name, d, at, n - 1)
    if not least:  # wlt's prefactor (n-1)!^d d^(dn-d) is D: N / n^2 is left
        value = Fraction(num, n * n)
        if value.denominator != 1:
            return fails(check_id, params, f"non-integer value {value}")
        return holds(check_id, params)
    p, modulus = n, n * n
    if summand is None:
        m = (p + r) // d
        lhs = factorial(p - 1 - m) * pow(factorial(m), 1 - d, modulus)
    else:
        lhs = num * pow(den, -1, modulus)  # p !| den: k < p, p !| d
    if check_id == "rv_11":
        rhs = (-1) ** ((p - 1) // 2)
    elif check_id == "deines_12":
        rhs = -pow(padic_gamma(p, 2, Fraction(1, d)), d, modulus)
    else:
        rhs = pow(padic_gamma(p, 2, Fraction(-r, d)), d, modulus)
        if check_id == "cor41_i":
            rhs *= rational_residue(Fraction(d - r, d) * Fraction(r, d)**r, p)
        elif check_id == "cor41_ii":
            rhs *= -rational_residue(Fraction(r, d) ** (r + 1), p)
        else:  # gamma_factorial
            rhs *= (-1) ** (m + 1)
    lhs, rhs = lhs % modulus, rhs % modulus
    if lhs != rhs:
        return fails(check_id, params, f"{lhs} != {rhs} (mod {p}^2)")
    return holds(check_id, params)
