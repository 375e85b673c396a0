"""Dense univariate polynomial arithmetic over exact scalars.

A polynomial in q is a tuple of coefficients indexed by exponent, with the
leading (highest-index) coefficient nonzero; the zero polynomial is the
empty tuple.  Coefficients are Python ints or ``fractions.Fraction``;
integer polynomials stay integer until a genuine division happens, and
division by a monic polynomial never leaves the integers.

Large products are multiplied through Kronecker substitution: coefficients
packed into one big integer, multiplied with CPython's native bignum
arithmetic, and unpacked.  Everything else is schoolbook.  ``pack`` and
``unpack`` are the one conversion between coefficient lists and values at
q = 2^B; the packed kernel in ``qfuncs`` computes on such values directly.
"""

from __future__ import annotations

from fractions import Fraction

_KRONECKER_MIN_LEN = 32


def _sdiv(a, b):
    """Exact scalar division a / b inside the coefficient field."""
    if isinstance(a, int) and isinstance(b, int):
        quo, rem = divmod(a, b)
        return quo if rem == 0 else Fraction(a, b)
    return a / b


def pack(coeffs, nbytes):
    """sum c_i 2^(8 nbytes i), the polynomial's value at q = 2^(8 nbytes)."""
    pos = bytearray(len(coeffs) * nbytes)
    neg = bytearray(len(coeffs) * nbytes)
    for i, c in enumerate(coeffs):
        if c > 0:
            width = (c.bit_length() + 7) // 8
            pos[i * nbytes : i * nbytes + width] = c.to_bytes(width, "little")
        elif c < 0:
            c = -c
            width = (c.bit_length() + 7) // 8
            neg[i * nbytes : i * nbytes + width] = c.to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack(value, nbytes):
    """Inverse of ``pack``: the balanced base-2^(8 nbytes) digits of value,
    lowest first, each in [-2^(8 nbytes - 1), 2^(8 nbytes - 1)).

    They are the packed coefficients whenever every coefficient lies in that
    range; the list may end in zero digits.
    """
    bits = 8 * nbytes
    length = abs(value).bit_length() // bits + 2
    # Bias every digit into [0, 2**bits) so unpacking never borrows.
    bias = 1 << (bits - 1)
    biases = int.from_bytes(bias.to_bytes(nbytes, "little") * length, "little")
    raw = (value + biases).to_bytes(length * nbytes, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") - bias
            for i in range(0, length * nbytes, nbytes)]


def _mul_int_kronecker(ac, bc):
    """Multiply two all-int coefficient tuples via Kronecker substitution."""
    bound = max(map(abs, ac)) * max(map(abs, bc)) * min(len(ac), len(bc))
    nbytes = (bound.bit_length() + 2 + 7) // 8
    return unpack(pack(ac, nbytes) * pack(bc, nbytes), nbytes)


def _mul_schoolbook(ac, bc):
    res = [0] * (len(ac) + len(bc) - 1)
    for i, c in enumerate(ac):
        if c:
            for j, d in enumerate(bc):
                if d:
                    res[i + j] = res[i + j] + c * d
    return res


class Poly:
    """Immutable dense polynomial in q.

    >>> Poly([1, 0, 1])
    Poly('q^2 + 1')
    >>> Poly([-1, 0, 1]) // Poly([1, 1])
    Poly('q - 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if min(len(a), len(b)) >= _KRONECKER_MIN_LEN and all(
                type(c) is int for c in a) and all(type(c) is int for c in b):
            return Poly(_mul_int_kronecker(a, b))
        return Poly(_mul_schoolbook(a, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by q**k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs)

    def __floordiv__(self, other):
        return divrem(self, other)[0]

    def __mod__(self, other):
        return divrem(self, other)[1]

    def __repr__(self):
        return f"Poly('{format_terms(enumerate(self.coeffs))}')"


def format_terms(terms):
    """Human-readable sparse rendering of (exponent, coefficient) pairs."""
    parts = []
    for exp, c in terms:
        if not c:
            continue
        negative = _is_negative(c)
        sign = "-" if negative else "+"
        mag = -c if negative else c
        if exp == 0:
            body = f"{mag}"
        else:
            var = "q" if exp == 1 else f"q^{exp}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    if not parts:
        return "0"
    parts.reverse()
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _is_negative(c):
    try:
        return c < 0
    except TypeError:
        return False


def _scalar_inv(c):
    """1/c as an exact rational."""
    return _sdiv(1, c)


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with a = b*q + r and deg r < deg b.

    Exact field division of coefficients; integer inputs stay integer
    whenever the divisor's leading coefficient divides exactly.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("divrem expects polynomials")
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly(), a
    rem = list(a.coeffs)
    bc = b.coeffs
    lead = bc[-1]
    db = len(bc) - 1
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        t = c if lead == 1 else _sdiv(c, lead)
        quo[i - db] = t
        base = i - db
        for j, bj in enumerate(bc[:-1]):
            if bj:
                rem[base + j] = rem[base + j] - t * bj
        rem[i] = 0
    return Poly(quo), Poly(rem[:db])


def exact_div(a: Poly, b: Poly) -> Poly:
    quo, rem = divrem(a, b)
    if not rem.is_zero():
        raise ValueError(f"inexact polynomial division, remainder {rem!r}")
    return quo


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: (g, s, t) with g = s*a + t*b and g monic.

    Requires a, b not both zero.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("xgcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = Poly((1,)), Poly()
    t0, t1 = Poly(), Poly((1,))
    while not r1.is_zero():
        quo, rem = divrem(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    lead = r0.leading()
    if lead != 1:
        inv = _scalar_inv(lead)
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    if a.is_zero() and b.is_zero():
        return Poly()
    while not b.is_zero():
        a, b = b, a % b
    lead = a.leading()
    return a if lead == 1 else a * _scalar_inv(lead)


def poly_prod(factors) -> Poly:
    """Balanced product of an iterable of polynomials."""
    items = list(factors)
    if not items:
        return Poly((1,))
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(items[i] * items[i + 1])
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
