"""q-shifted factorials and Gaussian binomial coefficients.

The q-shifted factorial (x; q^s)_k is a finite product for k >= 0.  For
k < 0 it is the reciprocal product forced by the infinite-quotient
definition, (x; q)_{-m} = prod_{j=1..m} (1 - x q^{-j})^{-1}, which is the
unique extension satisfying (x;q)_a (x q^a;q)_b = (x;q)_{a+b} for all
integers; the verification sums hit indices k-2 at k = 0, 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .laurent import Laurent, RatFunc
from .poly import Poly, exact_div, poly_prod


class DegenerateProductError(ZeroDivisionError):
    """A reciprocal q-shifted factorial has a vanishing factor."""


@dataclass(frozen=True)
class QMonomial:
    """A single term c * q**e with c != 0; Pochhammer bases look like this."""

    coeff: Fraction | int
    exp: int

    def __post_init__(self):
        if not self.coeff:
            raise ValueError("QMonomial coefficient must be nonzero")

    @staticmethod
    def q_power(e: int) -> "QMonomial":
        return QMonomial(1, e)


@dataclass(frozen=True)
class PochhammerSpec:
    """One factor (base; q**step)_length of a compact multi-product."""

    base: QMonomial
    step: int
    length: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("PochhammerSpec step must be >= 1")

    def build(self):
        return q_pochhammer(self.base, self.step, self.length)


def q_pochhammer_multi(specs):
    """(x_1, ..., x_m; q**step)_k style compact product of factors.

    Laurent result when every index is nonnegative, RatFunc otherwise.
    """
    result = Laurent(Poly((1,)))
    for spec in specs:
        result = result * spec.build()
    return result


def q_pochhammer(x: QMonomial, step: int, k: int):
    """(x; q**step)_k as a Laurent polynomial (k >= 0) or RatFunc (k < 0)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if k >= 0:
        factors = [
            Laurent.one_minus(x.coeff, x.exp + step * j) for j in range(k)
        ]
        return _laurent_prod(factors)
    factors = []
    for j in range(1, -k + 1):
        f = Laurent.one_minus(x.coeff, x.exp - step * j)
        if f.is_zero():
            raise DegenerateProductError(
                f"factor 1 - ({x.coeff})q^{x.exp - step * j} vanishes"
            )
        factors.append(f)
    return RatFunc(Laurent(Poly((1,))), _laurent_prod(factors))


def _laurent_prod(factors) -> Laurent:
    result = Laurent(Poly((1,)))
    items = list(factors)
    while len(items) > 1:
        nxt = [items[i] * items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0] if items else result


def poch_power_base(e: int, step: int, k: int) -> Laurent:
    """(q**e; q**step)_k for k >= 0, the all-monic-base common case."""
    if k < 0:
        raise ValueError("use q_pochhammer for negative indices")
    return _laurent_prod(Laurent.one_minus(1, e + step * j) for j in range(k))


@functools.lru_cache(maxsize=None)
def q_factorial_poly(n: int) -> Poly:
    """(q; q)_n as a dense polynomial."""
    return poly_prod(
        [Poly((1,) + (0,) * (j - 1) + (-1,)) for j in range(1, n + 1)]
    )


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
    """prod (1 - q^e) over the exponent list.

    Balanced pairwise products keep the big multiplications on the packed
    integer fast path.
    """
    return _laurent_prod(Laurent.one_minus(1, e) for e in exponents)
