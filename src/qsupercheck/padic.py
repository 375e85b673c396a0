"""Arithmetic mod p^2 and the classical congruence checks.

Morita's p-adic Gamma function is evaluated at rational arguments through
their integer representative mod p^k: Gamma_p(x) and Gamma_p(y) agree mod
p^k whenever x == y (mod p^k), so at precision two the product formula
Gamma_p(m) = (-1)^m prod_{0 < i < m, p !| i} i is all that is needed.
Rising factorials of rational arguments reduce termwise with modular
inverses of the denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd

from .cyclotomic import is_prime
from .results import CheckResult, fails, holds, skipped

CLASSICAL_IDS = ("rv_11", "deines_12", "cor41_i", "cor41_ii",
                 "gamma_factorial", "wlt_integrality")


@dataclass(frozen=True)
class PadicResidue:
    """An integer residue mod p**k."""

    p: int
    k: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p**self.k)

    @property
    def modulus(self) -> int:
        return self.p**self.k


def rational_residue(x: Fraction | int, p: int, k: int = 2) -> PadicResidue:
    """Residue of a rational with denominator prime to p."""
    x = Fraction(x)
    modulus = p**k
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} divisible by {p}")
    value = x.numerator * pow(x.denominator, -1, modulus) % modulus
    return PadicResidue(p, k, value)


def padic_gamma(p: int, k: int, x: int | Fraction) -> PadicResidue:
    """Gamma_p at the residue of x mod p**k, for p >= 3 prime, k in {1, 2}."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    if k not in (1, 2):
        raise ValueError("precision k must be 1 or 2")
    m = rational_residue(x, p, k).value
    modulus = p**k
    product = 1
    for i in range(1, m):
        if i % p:
            product = product * i % modulus
    if m % 2:
        product = modulus - product
    return PadicResidue(p, k, product)


def rising_factorial_mod(x: Fraction | int, j: int, p: int,
                         k: int = 2) -> PadicResidue:
    """(x)_j = x (x+1) ... (x+j-1) reduced mod p**k."""
    if j < 0:
        raise ValueError("rising factorial index must be >= 0")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} divisible by {p}")
    modulus = p**k
    num = 1
    a, b = x.numerator, x.denominator
    for i in range(j):
        num = num * (a + i * b) % modulus
    value = num * pow(b, -j, modulus) % modulus if j else 1
    return PadicResidue(p, k, value)


def _factorial_mod(n: int, modulus: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out = out * i % modulus
    return out


def _hypergeometric_sum_mod(numerators: list[tuple[Fraction, int]], d: int,
                            p: int) -> int:
    """sum_{k<p} prod (x)_k^mult / k!^d mod p^2."""
    modulus = p * p
    total = 0
    fact = 1
    for k in range(p):
        if k:
            fact = fact * k % modulus
        term = pow(pow(fact, -1, modulus), d, modulus)
        for x, mult in numerators:
            term = term * pow(rising_factorial_mod(x, k, p).value, mult,
                              modulus) % modulus
        total = (total + term) % modulus
    return total


def classical_lhs_sum(kind: str, d: int, r: int, p: int) -> int:
    """The q -> 1 shadow of the two-parameter sums, mod p^2."""
    if kind == "thm41":
        numerators = [(Fraction(d + r, d), d - r), (Fraction(r, d), r - 1),
                      (Fraction(r - d, d), 1)]
    elif kind == "thm42":
        numerators = [(Fraction(d + r, d), d - r - 1), (Fraction(r, d), r + 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    numerators = [(x, m) for x, m in numerators if m > 0]
    return _hypergeometric_sum_mod(numerators, d, p)


def wlt_integrality_value(d: int, n: int) -> Fraction:
    """(n-1)!^d d^(dn-d) n^-2 times the mixed classical sum, exactly."""
    total = Fraction(0)
    fact = 1
    for k in range(n):
        if k:
            fact *= k
        term = Fraction(1, fact**d)
        for x, mult in ((Fraction(d + 1, d), d - 2), (Fraction(1, d), 1),
                        (Fraction(1 - d, d), 1)):
            if mult > 0:
                term *= _rising_exact(x, k) ** mult
        total += term
    prefactor = Fraction(_int_factorial(n - 1) ** d * d ** (d * n - d), n * n)
    return prefactor * total


def _rising_exact(x: Fraction, j: int) -> Fraction:
    value = Fraction(1)
    for i in range(j):
        value *= x + i
    return value


def _int_factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def verify_classical(check_id: str, params: dict) -> CheckResult:
    """Dispatch one mod-p^2 (or exact integrality) classical check."""
    if check_id not in CLASSICAL_IDS:
        raise ValueError(f"unknown classical id {check_id!r}")
    p = dict(params)
    if check_id == "rv_11":
        prime = p["p"]
        if not is_prime(prime) or prime == 2:
            return skipped(check_id, p, "requires an odd prime")
        lhs = _hypergeometric_sum_mod([(Fraction(1, 2), 2)], 2, prime)
        rhs = (-1) ** ((prime - 1) // 2) % (prime * prime)
        witness = None if lhs == rhs else f"{lhs} != {rhs} (mod {prime}^2)"
    elif check_id == "deines_12":
        d, prime = p["d"], p["p"]
        if d < 2 or not is_prime(prime) or prime % d != 1:
            return skipped(check_id, p, "requires d > 1, prime p == 1 (mod d)")
        lhs = _hypergeometric_sum_mod([(Fraction(d - 1, d), d)], d, prime)
        rhs = -padic_gamma(prime, 2, Fraction(1, d)).value ** d % prime**2
        witness = None if lhs == rhs else f"{lhs} != {rhs} (mod {prime}^2)"
    elif check_id == "cor41_i":
        d, r, prime = p["d"], p["r"], p["p"]
        if (r < 1 or d < r + 3 or igcd(d, r) != 1 or not is_prime(prime)
                or prime < 2 * d - r or (prime + r) % d):
            return skipped(check_id, p,
                           "requires d >= r + 3, gcd(d, r) = 1, prime "
                           "p >= 2d - r with p == -r (mod d)")
        lhs = classical_lhs_sum("thm41", d, r, prime)
        gamma = padic_gamma(prime, 2, Fraction(-r, d)).value
        rhs = rational_residue(
            Fraction(d - r, d) * Fraction(r, d) ** r, prime).value
        rhs = rhs * pow(gamma, d, prime**2) % prime**2
        witness = None if lhs == rhs else f"{lhs} != {rhs} (mod {prime}^2)"
    elif check_id == "cor41_ii":
        d, r, prime = p["d"], p["r"], p["p"]
        if (not d > r >= 1 or igcd(d, r) != 1 or not is_prime(prime)
                or prime < 5 or (prime + r) % d):
            return skipped(check_id, p,
                           "requires d > r >= 1, gcd(d, r) = 1, prime "
                           "p >= 5 with p == -r (mod d)")
        lhs = classical_lhs_sum("thm42", d, r, prime)
        gamma = padic_gamma(prime, 2, Fraction(-r, d)).value
        rhs = -rational_residue(Fraction(r, d) ** (r + 1), prime).value
        rhs = rhs * pow(gamma, d, prime**2) % prime**2
        witness = None if lhs == rhs else f"{lhs} != {rhs} (mod {prime}^2)"
    elif check_id == "gamma_factorial":
        d, r, prime = p["d"], p["r"], p["p"]
        if (not d > r >= 1 or not is_prime(prime) or prime < 5
                or (prime + r) % d):
            return skipped(check_id, p,
                           "requires d > r >= 1, prime p >= 5 with "
                           "p == -r (mod d)")
        modulus = prime * prime
        m = (prime + r) // d
        lhs = _factorial_mod(prime - 1 - m, modulus)
        lhs = lhs * pow(pow(_factorial_mod(m, modulus), -1, modulus), d - 1,
                        modulus) % modulus
        gamma = padic_gamma(prime, 2, Fraction(-r, d)).value
        rhs = -((-1) ** m) * pow(gamma, d, modulus) % modulus
        witness = None if lhs == rhs else f"{lhs} != {rhs} (mod {prime}^2)"
    else:  # wlt_integrality
        d, n = p["d"], p["n"]
        if d < 2 or (n + 1) % d or n < 2 * d - 1:
            return skipped(check_id, p,
                           "requires d >= 2, n == -1 (mod d), n >= 2d - 1")
        value = wlt_integrality_value(d, n)
        witness = (None if value.denominator == 1
                   else f"non-integer value {value}")
    if witness is not None:
        return fails(check_id, p, witness)
    return holds(check_id, p)
