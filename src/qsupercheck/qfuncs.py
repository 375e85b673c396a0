"""q-shifted factorials and Gaussian binomial coefficients.

The q-shifted factorial (x; q^s)_k is a finite product for k >= 0.  For
k < 0 it is the reciprocal product forced by the infinite-quotient
definition, (x; q)_{-m} = prod_{j=1..m} (1 - x q^{-j})^{-1}, which is the
unique extension satisfying (x;q)_a (x q^a;q)_b = (x;q)_{a+b} for all
integers; the verification sums hit indices k-2 at k = 0, 1.

``truncated_sum`` builds the truncated Laurent sums of the checks as
(num, den) pairs, one factor 1 - q^e at a time on dense integer lists;
``one_minus_normal_form`` reduces a quotient of such factors to exponent
counts for comparison.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .laurent import Laurent, RatFunc
from .poly import Poly, exact_div, poly_prod


class DegenerateProductError(ZeroDivisionError):
    """A denominator, such as a reciprocal q-shifted factorial, vanishes."""


@dataclass(frozen=True)
class QMonomial:
    """A single term c * q**e with c != 0; Pochhammer bases look like this."""

    coeff: Fraction | int
    exp: int

    def __post_init__(self):
        if not self.coeff:
            raise ValueError("QMonomial coefficient must be nonzero")


def q_pochhammer(x: QMonomial, step: int, k: int):
    """(x; q**step)_k as a Laurent polynomial (k >= 0) or RatFunc (k < 0)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    shifts = range(k) if k >= 0 else range(-1, k - 1, -1)
    factors = [Laurent.one_minus(x.coeff, x.exp + step * j) for j in shifts]
    product = Laurent(poly_prod([f.body for f in factors]),
                      sum(f.min_exp for f in factors))
    if k >= 0:
        return product
    if product.is_zero():
        raise DegenerateProductError(
            f"a factor of (({x.coeff})q^{x.exp}; q^{step})_{k} vanishes")
    return RatFunc(Laurent(Poly((1,))), product)


def poch_power_base(e: int, step: int, k: int) -> Laurent:
    """(q**e; q**step)_k for k >= 0, the all-monic-base common case."""
    if k < 0:
        raise ValueError("use q_pochhammer for negative indices")
    return one_minus_product([e + step * j for j in range(k)])


@functools.lru_cache(maxsize=None)
def q_factorial_poly(n: int) -> Poly:
    """(q; q)_n as a dense polynomial."""
    return one_minus_product(range(1, n + 1)).to_poly()


@functools.lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}) by exact division.

    Returns the zero polynomial for k outside 0..n.
    """
    if n < 0:
        raise ValueError("q_binomial expects n >= 0")
    if k < 0 or k > n:
        return Poly()
    return exact_div(q_factorial_poly(n), q_factorial_poly(k) * q_factorial_poly(n - k))


def inflate(p: Poly, d: int) -> Poly:
    """Substitute q -> q**d."""
    if d < 1:
        raise ValueError("inflate expects d >= 1")
    if d == 1 or p.is_zero():
        return p
    out = [0] * (p.degree * d + 1)
    for e, c in enumerate(p.coeffs):
        out[e * d] = c
    return Poly(out)


def one_minus_product(exponents) -> Laurent:
    """prod (1 - q^e) over the exponent list, one dense pass per factor."""
    return _Dense([1]).times_one_minus(exponents).laurent()


def one_minus_normal_form(shift: int, num, den):
    """Normal form of q^shift prod_num (1 - q^e) / prod_den (1 - q^e).

    Returns (sign, shift, counts) with counts the frozenset of (e, m), e > 0,
    m != 0 the net multiplicity of 1 - q^e; None when a numerator factor is
    1 - q^0, which a denominator one refuses with DegenerateProductError.
    Phi_m divides 1 - q^e to the first power exactly when m | e, so
    Moebius inversion recovers the counts from the cyclotomic factorization:
    two such quotients are equal exactly when their normal forms are.
    """
    if 0 in den:
        raise DegenerateProductError("denominator factor 1 - q^0")
    if 0 in num:
        return None
    sign = 1
    counts = Counter()
    for exps, unit in ((num, 1), (den, -1)):
        for e in exps:
            if e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                sign, shift, e = -sign, shift + unit * e, -e
            counts[e] += unit
    return sign, shift, frozenset((e, m) for e, m in counts.items() if m)


class _Dense:
    """sign * q^low * sum_i coeffs[i] q^i, updated in place."""

    __slots__ = ("coeffs", "low", "sign")

    def __init__(self, coeffs, low=0, sign=1):
        self.coeffs, self.low, self.sign = coeffs, low, sign

    def times_one_minus(self, exps) -> "_Dense":
        f = self.coeffs
        for e in exps:
            if not e:  # 1 - q^0 = 0
                f.clear()
            if not f:
                break
            if e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                e, self.low, self.sign = -e, self.low + e, -self.sign
            f.extend([0] * e)
            f[e:] = map(sub, f[e:], f[:-e])
        return self

    def add(self, other: "_Dense", shift: int) -> None:
        """self += other * q^shift."""
        if not other.coeffs:
            return
        low = other.low + shift
        if low < self.low:
            self.coeffs[:0] = [0] * (self.low - low)
            self.low = low
        f, g = self.coeffs, other.coeffs
        at = low - self.low
        f.extend([0] * (at + len(g) - len(f)))
        op = add if other.sign == self.sign else sub
        f[at:at + len(g)] = map(op, f[at:at + len(g)], g)

    def laurent(self) -> Laurent:
        body = self.coeffs if self.sign > 0 else [-c for c in self.coeffs]
        return Laurent(Poly(body), self.low)


def truncated_sum(step: int, increments) -> tuple[Laurent, Laurent]:
    """Sum_{k=0}^{L} T_k / prod_{j<=k} B_j as a pair (N, D) with sum = N / D.

    ``increments[k] = (a_k, b_k, c_k)`` are lists of exponents e of factors
    1 - q^e, with B_k = prod_{b_k} (1 - q^e) and
    T_k = q^{step k} prod_{j<=k} prod_{a_j} (1 - q^e) prod_{c_k} (1 - q^e):
    a and b accumulate from term to term, c belongs to term k alone.  The
    forward recurrence N_k = N_{k-1} B_k + T_k gives
    N = sum_k T_k prod_{j>k} B_j and D = prod_j B_j.  A factor 1 - q^0
    zeroes every later term from a, only term k from c, and raises
    DegenerateProductError from b.
    """
    if any(0 in b for _, b, _ in increments):
        raise DegenerateProductError("denominator factor 1 - q^0")
    num, den, run = _Dense([]), _Dense([1]), _Dense([1])
    for k, (a, b, c) in enumerate(increments):
        num.times_one_minus(b)
        den.times_one_minus(b)
        run.times_one_minus(a)
        term = _Dense(list(run.coeffs), run.low, run.sign) if c else run
        num.add(term.times_one_minus(c), step * k)
    return num.laurent(), den.laurent()
