"""Summands and closed forms of the paper's theorems, declared once.

Each left-hand side is a sum over k of prod_e (q^e; q^d)_k q^{dk} /
(q^d; q^d)_k^d over the exponent multiset of its numerator bases
(``numerator_bases``), one for each two-parameter statement (lemma21,
thm41, thm42) and for Guo's eq13; ``THEOREMS`` maps each theorem id to
the (statement, r) it checks.  ``family_template`` writes a statement's
sum as a template of ``truncated_sum`` increments, and
``family_increments`` expands it.  ``closed_form`` gives a right-hand
side as the exponent lists (sign, shift, num, den) of sign q^shift times
explicit factors 1 - q^e and (q^d; q^d)_L Pochhammers, the exponent an
integer-valued formula of (d, n, r) asserted at build time, and
``mutated`` derives the negative controls.
"""

from __future__ import annotations

from math import gcd as igcd

from .qfuncs import expand
from .results import RefusalError


class IntegralityError(RefusalError):
    """An exponent formula failed to be an integer."""


# Theorem id -> (the statement whose summand and closed form it checks, at
# which r; None: the instance's own r).
THEOREMS = {
    "eq13": ("eq13", 1),
    "eq14": ("thm41", 1),
    "eq15": ("thm42", 1),
    "thm11": ("thm41", 1),
    "thm12": ("thm42", 1),
    "lemma21": ("lemma21", None),
    "eq22": ("lemma21", 1),
    "thm41": ("thm41", None),
    "thm42": ("thm42", None),
}


def at_r(declared, r: int) -> tuple[str, int]:
    """A declared (statement, r or None) at the instance's r."""
    statement, fixed = declared
    return statement, r if fixed is None else fixed


def numerator_bases(statement: str, d: int, r: int) -> list[int]:
    """The exponents e of its numerator factors (q^e; q^d)_k, with repeats."""
    if statement == "eq13":
        return [d - 1] * d
    if statement == "lemma21":
        return [d + r] * (d - r - 1) + [r] * r + [r - d]
    if statement == "thm41":
        return [d + r] * (d - r) + [r] * (r - 1) + [r - d]
    if statement == "thm42":
        return [d + r] * (d - r - 1) + [r] * (r + 1)
    raise ValueError(f"unknown statement {statement!r}")


def _exact_quotient(num: int, den: int) -> int:
    if num % den:
        raise IntegralityError(f"{num}/{den} is not an integer")
    return num // den


def a_exponent(d: int, n: int, r: int) -> int:
    """The q-power exponent A(d,n,r) in the two-parameter closed forms."""
    num = d * (d + n) * (n + r) + d * n * (r - 1) - (n + r) ** 2
    return _exact_quotient(num, 2 * d) - r * (r + 1) // 2


def family_template(statement: str, d: int, r: int):
    """The statement's sum as a template (head, a, b, c) of
    ``truncated_sum`` increments: term 0 is 1, and term k >= 1 is
    [x + d(k - 1)] over the numerator bases a and b = [d] * d."""
    return ([], [], []), numerator_bases(statement, d, r), [d] * d, []


def family_increments(statement: str, d: int, r: int,
                      limit: int) -> list[tuple]:
    """``truncated_sum`` increments (a_k, b_k, c_k), k = 0..limit, of the
    statement's sum over the denominator (q^d; q^d)_limit^d."""
    return expand(family_template(statement, d, r), d, limit)


def closed_form(statement: str, d: int, n: int, r: int):
    """Right-hand side of a statement as (sign, shift, num, den), the
    quotient sign q^shift prod_num (1 - q^e) / prod_den (1 - q^e); None
    when it is zero.

    num is the explicit factors followed by (q^d; q^d)_{n-1-m}, den is
    (q^d; q^d)_m repeated d - 1 times, and the sign is (-1)^parity.
    """
    if statement == "lemma21":
        return None
    if statement == "eq13":
        m = _exact_quotient(n - 1, d)
        parity, units = n - 1 - m, []
        shift = _exact_quotient((d - 1) * (n - 1) * (d + n - 1), 2 * d)
    elif statement == "thm41":
        m = _exact_quotient(n + r, d)
        parity, shift, units = n - m, a_exponent(d, n, r), [r] * r + [d - r]
    elif statement == "thm42":
        m = _exact_quotient(n + r, d)
        parity, shift = n - 1 - m, a_exponent(d, n, r) - r
        units = [r] * (r + 1)
    else:
        raise ValueError(f"no closed form for statement {statement!r}")
    num = units + [d * (t + 1) for t in range(n - 1 - m)]
    den = [d * (t + 1) for t in range(m)] * (d - 1)
    return (-1) ** (parity % 2), shift, num, den


def mutated(quotient, mutation: str | None):
    """The quotient (sign, shift, num, den) with its sign flipped
    (``"sign"``) or its q-power raised by one (``"exponent"``); a zero
    right-hand side, None, has no mutation."""
    if mutation is None:
        return quotient
    if quotient is None:
        raise ValueError("vanishing right-hand sides have no mutation")
    sign, shift, num, den = quotient
    if mutation == "sign":
        return -sign, shift, num, den
    if mutation == "exponent":
        return sign, shift + 1, num, den
    raise ValueError(f"unknown mutation {mutation!r}")


def theorem_precondition(check_id: str, d: int, n: int, r: int) -> str | None:
    """None when (d, r, n) is admissible, else a short reason to skip."""
    if check_id == "eq13":
        if d < 2 or n < 2:
            return "requires d > 1 and n > 1"
        if n % d != 1 % d:
            return "requires n == 1 (mod d)"
        return None
    if check_id == "eq14":
        if d < 3 or d % 2 == 0:
            return "requires odd d >= 3"
        return _complement_condition(d, n, bound=2 * d - 1)
    if check_id == "thm11":
        if d < 4 or d % 2:
            return "requires even d >= 4"
        return _complement_condition(d, n, bound=2 * d - 1)
    if check_id == "eq15":
        if d < 4 or d % 2:
            return "requires even d >= 4"
        return _complement_condition(d, n, bound=2)
    if check_id == "thm12":
        if d < 3 or d % 2 == 0:
            return "requires odd d >= 3"
        return _complement_condition(d, n, bound=2)
    if check_id in ("lemma21", "thm41"):
        if r < 1:
            return "requires r >= 1"
        if igcd(d, r) != 1:
            return "requires gcd(d, r) = 1"
        if check_id == "lemma21":
            if d < r + 3:
                return "requires d >= r + 3"
        elif d < r + 3 and not (r == 1 and d in (2, 3)):
            return "requires d >= r + 3, or r = 1 with d in {2, 3}"
        if (n + r) % d:
            return "requires n == -r (mod d)"
        if n < 2 * d - r:
            return "requires n >= 2d - r"
        return None
    if check_id == "eq22":
        if d < 4:
            return "requires d >= 4"
        return _complement_condition(d, n, bound=2 * d - 1)
    if check_id == "thm42":
        if not (d > r >= 1):
            return "requires d > r >= 1"
        if igcd(d, r) != 1:
            return "requires gcd(d, r) = 1"
        if n < 2:
            return "requires n > 1"
        if (n + r) % d:
            return "requires n == -r (mod d)"
        return None
    if check_id == "thm13":
        if d < 2:
            return "requires d >= 2"
        return _complement_condition(d, n, bound=2 * d - 1)
    raise ValueError(f"unknown check {check_id!r}")


def _complement_condition(d: int, n: int, bound: int) -> str | None:
    if (n + 1) % d:
        return "requires n == -1 (mod d)"
    if n < bound:
        return f"requires n >= {bound}"
    return None
