"""The quotient ring Z[q]/(Phi_n(q)^2) of the congruence checks.

The modulus is a monic integer polynomial with constant term 1 for
n >= 2.  Reducing by a monic modulus never divides a coefficient, so an
integer polynomial stays integer in the ring, and q is a unit whose
inverse -(M - 1)/q is an integer polynomial too: negative powers of q
become powers of that cached inverse.  Unit inversion runs extended
Euclid against the modulus and leaves the integers; the congruence checks
avoid it.  A non-unit raises ``NonUnitError`` carrying the offending gcd.
Rings and their elements are immutable.
"""

from __future__ import annotations

from .cyclotomic import cyclotomic
from .laurent import Laurent
from .poly import Poly, divrem, xgcd
from .results import RefusalError


class NonUnitError(RefusalError):
    """Inversion of a ring element sharing a factor with the modulus."""

    def __init__(self, witness: Poly):
        super().__init__(f"non-unit element; gcd with modulus is {witness!r}")
        self.witness = witness


class ResidueRing:
    """Z[q]/(M(q)) with M = Phi_n^2, n >= 2."""

    __slots__ = ("n", "modulus", "inv_q", "one", "zero")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("residue rings require n >= 2")
        base = cyclotomic(n)
        modulus = base * base
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        # M = 1 + q*T  ==>  q^(-1) = -T mod M.
        tail = Poly(modulus.coeffs[1:])
        inv_q = RingElement(self, -tail)
        object.__setattr__(self, "inv_q", inv_q)
        object.__setattr__(self, "one", RingElement(self, Poly((1,))))
        object.__setattr__(self, "zero", RingElement(self, Poly()))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ResidueRing is immutable")

    def __repr__(self):
        return f"ResidueRing(n={self.n})"

    def element(self, f) -> "RingElement":
        """Canonical class of an int, Poly, or Laurent."""
        if isinstance(f, RingElement):
            if f.ring is not self:
                raise ValueError("element of a different ring")
            return f
        if isinstance(f, Laurent):
            return self.reduce_laurent(f)
        if not isinstance(f, Poly):
            f = Poly((f,))
        return RingElement(self, f)

    def reduce_laurent(self, f: Laurent) -> "RingElement":
        body = RingElement(self, f.body)
        if f.min_exp >= 0:
            return body * self.pow_q(f.min_exp)
        return body * self.inv_q ** (-f.min_exp)

    def pow_q(self, e: int) -> "RingElement":
        """Class of q**e for e of either sign, by square and multiply."""
        if e >= 0:
            deg = self.modulus.degree
            if e < deg:
                return RingElement(self, Poly((0,) * e + (1,)))
            base = RingElement(self, Poly((0, 1)))
            return base**e
        return self.inv_q ** (-e)


class RingElement:
    """Canonical residue mod the ring modulus."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: ResidueRing, rep: Poly):
        if rep.degree >= ring.modulus.degree:
            _, rep = divrem(rep, ring.modulus)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise ValueError("mixed residue rings")
            return other
        if isinstance(other, (int, Poly, Laurent)):
            return self.ring.element(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((id(self.ring), self.rep))

    def is_zero(self):
        return self.rep.is_zero()

    def __bool__(self):
        return bool(self.rep)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.rep * other.rep)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def invert(self) -> "RingElement":
        """Multiplicative inverse; raises NonUnitError with the gcd witness."""
        if self.rep.is_zero():
            raise NonUnitError(Poly())
        g, s, _ = xgcd(self.rep, self.ring.modulus)
        if g.degree != 0:
            raise NonUnitError(g)
        return RingElement(self.ring, s)

    def __repr__(self):
        return f"RingElement({self.rep!r} mod {self.ring!r})"
