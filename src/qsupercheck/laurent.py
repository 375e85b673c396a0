"""Laurent polynomials and rational functions in q.

A Laurent polynomial is a dense polynomial together with the exponent of
its lowest term, normalized so the offset is tight (the body has nonzero
constant term unless the whole thing is zero).  A rational function keeps
a Laurent numerator over a monic denominator polynomial with gcd 1 and
nonzero constant term; any power of q in the denominator is folded into
the numerator's offset, q being a unit among Laurent polynomials.
``RatFunc`` has no caller in the package: the tests use it as an oracle,
and the benchmark's tracer (``perfbench/tracer.py``) wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, exact_div, format_terms, gcd, _scalar_inv


def _as_laurent(x):
    if isinstance(x, Laurent):
        return x
    if isinstance(x, Poly):
        return Laurent(x, 0)
    if isinstance(x, (int, Fraction)):
        return Laurent(Poly((x,)), 0)
    return None


class Laurent:
    """Immutable Laurent polynomial body * q**min_exp."""

    __slots__ = ("body", "min_exp")

    def __init__(self, body: Poly, min_exp: int = 0):
        if not isinstance(body, Poly):
            body = Poly(body)
        if body.is_zero():
            min_exp = 0
        else:
            low = 0
            while not body.coeffs[low]:
                low += 1
            if low:
                body = Poly(body.coeffs[low:])
                min_exp += low
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "min_exp", min_exp)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Laurent is immutable")

    def is_zero(self):
        return self.body.is_zero()

    def __bool__(self):
        return bool(self.body)

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return self.min_exp == other.min_exp and self.body == other.body

    def __hash__(self):
        return hash((self.body, self.min_exp))

    def __add__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        return Laurent(
            self.body.shift(self.min_exp - lo) + other.body.shift(other.min_exp - lo),
            lo,
        )

    __radd__ = __add__

    def __neg__(self):
        return Laurent(-self.body, self.min_exp)

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return Laurent(self.body * other.body, self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative Laurent power; use RatFunc")
        return Laurent(self.body**n, self.min_exp * n)

    def shifted(self, k):
        """Multiply by q**k."""
        return Laurent(self.body, self.min_exp + k)

    def to_poly(self) -> Poly:
        if self.min_exp < 0:
            raise ValueError("Laurent polynomial has negative exponents")
        return self.body.shift(self.min_exp)

    def __repr__(self):
        terms = ((e + self.min_exp, c) for e, c in enumerate(self.body.coeffs))
        return f"Laurent('{format_terms(terms)}')"


class RatFunc:
    """Reduced rational function: Laurent numerator over a polynomial.

    Normalized so the denominator is monic with nonzero constant term and
    shares no factor with the numerator body.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_laurent(num)
        if num is None or isinstance(den, RatFunc):
            raise TypeError("construct from Laurent or Poly parts")
        if isinstance(den, Laurent):
            num = num.shifted(-den.min_exp)
            den = den.body
        elif isinstance(den, (int, Fraction)):
            den = Poly((den,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        low = 0
        while not den.coeffs[low]:
            low += 1
        if low:
            den = Poly(den.coeffs[low:])
            num = num.shifted(-low)
        if den.degree > 0 and not num.is_zero():
            g = gcd(num.body, den)
            if g.degree > 0:
                num = Laurent(exact_div(num.body, g), num.min_exp)
                den = exact_div(den, g)
        lead = den.leading()
        if lead != 1:
            inv = _scalar_inv(lead)
            num = Laurent(num.body * inv, num.min_exp)
            den = den * inv
        if num.is_zero():
            den = Poly((1,))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        lau = _as_laurent(other)
        return None if lau is None else RatFunc(lau)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Both sides canonical, so compare parts directly.
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = self.num * Laurent(other.den) + other.num * Laurent(self.den)
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(
            Laurent(self.num.body * other.den, self.num.min_exp - other.num.min_exp),
            self.den * other.num.body,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n >= 0:
            return RatFunc(self.num**n, self.den**n)
        inv = 1 / self
        return inv ** (-n)

    def __repr__(self):
        return f"RatFunc({self.num!r} / {Poly.__repr__(self.den)})"

