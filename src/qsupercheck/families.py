"""Term shapes and closed forms for the truncated sum families.

Every left-hand side in the catalog is a sum over k of

    prod_i (q^{e_i}; q^d)_k^{m_i} * q^{dk} / (q^d; q^d)_k^d

and the family is pinned down by its list of (base exponent, multiplicity)
pairs; ``family_template`` writes the sum as a template of
``truncated_sum`` increments, a head and intercept lists moved by
d(k - 1), and ``family_increments`` expands it.  Right-hand sides share
one shape as well: a sign, a few explicit (1 - q^e) factors, a quotient
of (q^d; q^d)_L Pochhammers, and a power of q whose exponent is an
integer-valued formula of (d, n, r); integrality is asserted at build
time.  ``closed_form`` returns it as the exponent lists (sign, shift,
num, den) that every quotient of factors 1 - q^e is carried as, and
``mutated`` derives the negative controls.
"""

from __future__ import annotations

from math import gcd as igcd

from .qfuncs import expand


class IntegralityError(ArithmeticError):
    """An exponent formula failed to be an integer."""


F1_GUO = "F1_GUO"
F2_MIXED = "F2_MIXED"
F3_SQUARED = "F3_SQUARED"
F4_LEMMA = "F4_LEMMA"
F5_THM41 = "F5_THM41"
F6_THM42 = "F6_THM42"
F7_DIVISIBILITY = "F7_DIVISIBILITY"


def numerator_factors(family: str, d: int, r: int) -> list[tuple[int, int]]:
    """(base exponent, multiplicity) pairs for the family's summand numerator.

    Zero multiplicities are dropped; the denominator is always
    (q^d; q^d)_k^d and the term carries q^{dk}.
    """
    if family == F1_GUO:
        pairs = [(d - 1, d)]
    elif family == F2_MIXED:
        pairs = [(d + 1, d - 1), (1 - d, 1)]
    elif family == F3_SQUARED:
        pairs = [(d + 1, d - 2), (1, 2)]
    elif family == F4_LEMMA:
        pairs = [(d + r, d - r - 1), (r, r), (r - d, 1)]
    elif family == F5_THM41:
        pairs = [(d + r, d - r), (r, r - 1), (r - d, 1)]
    elif family == F6_THM42:
        pairs = [(d + r, d - r - 1), (r, r + 1)]
    elif family == F7_DIVISIBILITY:
        pairs = [(d + 1, d - 2), (1, 1), (1 - d, 1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    return [(e, m) for e, m in pairs if m > 0]


def _exact_quotient(num: int, den: int) -> int:
    if num % den:
        raise IntegralityError(f"{num}/{den} is not an integer")
    return num // den


def a_exponent(d: int, n: int, r: int) -> int:
    """The q-power exponent A(d,n,r) in the two-parameter closed forms."""
    num = d * (d + n) * (n + r) + d * n * (r - 1) - (n + r) ** 2
    return _exact_quotient(num, 2 * d) - r * (r + 1) // 2


def one_parameter_exponent(d: int, n: int) -> int:
    """(d(d+n)(n+1) - (n+1)^2) / (2d), the r = 1 closed-form exponent core."""
    return _exact_quotient(d * (d + n) * (n + 1) - (n + 1) ** 2, 2 * d)


def family_template(family: str, d: int, r: int):
    """The family's sum as a template (head, a, b, c) of ``truncated_sum``
    increments: term 0 is 1, and term k >= 1 is [x + d(k - 1)] over the
    numerator bases a, with multiplicity, and b = [d] * d."""
    return (([], [], []), [e for e, mult in numerator_factors(family, d, r)
                           for _ in range(mult)], [d] * d, [])


def family_increments(family: str, d: int, r: int, limit: int) -> list[tuple]:
    """``truncated_sum`` increments (a_k, b_k, c_k), k = 0..limit, of the
    family's sum over the denominator (q^d; q^d)_limit^d."""
    return expand(family_template(family, d, r), d, limit)


def closed_form(check_id: str, d: int, n: int, r: int = 1):
    """Right-hand side of a catalog congruence as (sign, shift, num, den),
    the quotient sign q^shift prod_num (1 - q^e) / prod_den (1 - q^e); None
    when it is zero.

    num is the explicit factors followed by (q^d; q^d)_{n-1-m}, den is
    (q^d; q^d)_m repeated d - 1 times, and the sign is (-1)^parity.
    """
    if check_id in ("lemma21", "eq22"):
        return None
    if check_id == "eq13":
        m = _exact_quotient(n - 1, d)
        parity, units = n - 1 - m, []
        shift = _exact_quotient((d - 1) * (n - 1) * (d + n - 1), 2 * d)
    elif check_id in ("eq14", "thm11", "eq15", "thm12"):
        m = _exact_quotient(n + 1, d)
        mixed = check_id in ("eq14", "thm11")
        parity = mixed + (m if check_id in ("thm11", "eq15") else 0)
        shift = one_parameter_exponent(d, n) - (1 if mixed else 2)
        units = [1, d - 1] if mixed else [1, 1]
    elif check_id == "thm41":
        m = _exact_quotient(n + r, d)
        parity, shift, units = n - m, a_exponent(d, n, r), [r] * r + [d - r]
    elif check_id == "thm42":
        m = _exact_quotient(n + r, d)
        parity, shift = n - 1 - m, a_exponent(d, n, r) - r
        units = [r] * (r + 1)
    else:
        raise ValueError(f"no closed form for check {check_id!r}")
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


def theorem_family(check_id: str) -> str:
    return {
        "eq13": F1_GUO,
        "eq14": F2_MIXED,
        "thm11": F2_MIXED,
        "eq15": F3_SQUARED,
        "thm12": F3_SQUARED,
        "lemma21": F4_LEMMA,
        "eq22": F4_LEMMA,
        "thm41": F5_THM41,
        "thm42": F6_THM42,
    }[check_id]


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
