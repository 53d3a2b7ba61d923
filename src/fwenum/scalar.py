"""Exact scalar arithmetic: arbitrary-precision rationals and real quadratic extensions.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator, exact arithmetic).  ``QuadElem`` represents a + b*sqrt(D) for a
squarefree positive integer D and is closed under the ring operations; the
inverse exists whenever the element is nonzero, so Q(sqrt(D)) is a field.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .record import Record

Rational = Fraction


class MixedExtensionError(TypeError):
    """Raised when arithmetic would mix two different quadratic extensions."""


class NotRationalError(ValueError):
    """Raised when a rational value is required but an irrational part remains."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m = s^2 * D with D squarefree; returns (s, D).  Requires m >= 1."""
    if m < 1:
        raise ValueError("positive integer required")
    s, d = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


class QuadElem(Record):
    """Element a + b*sqrt(D) of the real quadratic extension Q(sqrt(D)).

    D is a squarefree positive integer.  Elements with b == 0 are stored with
    D == 1 so that rationals embed uniquely and compare equal across contexts.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if d < 1:
            raise ValueError("D must be a positive squarefree integer")
        if b == 0:
            d = 1
        elif d == 1:
            # sqrt(1) = 1: fold into the rational part
            a, b = a + b, Fraction(0)
        else:
            s, d0 = squarefree_decompose(d)
            if s != 1 or d0 != d:
                raise ValueError(f"D = {d} is not squarefree")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- coercion helpers ---------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> "QuadElem | None":
        if isinstance(x, QuadElem):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def _join_d(self, other: "QuadElem") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise MixedExtensionError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadElem(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadElem(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadElem is zero")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = QuadElem(1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field structure -----------------------------------------------------

    def conjugate(self) -> "QuadElem":
        """Galois conjugate a - b*sqrt(D)."""
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - D*b^2 (always rational)."""
        return self.a * self.a - self.d * self.b * self.b

    # -- predicates / conversion ----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_rational(self) -> Fraction:
        if self.b != 0:
            raise NotRationalError(f"{self} has a nonzero sqrt({self.d}) part")
        return self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        rad = f"sqrt({self.d})"
        if self.b == 1:
            parts.append(rad)
        elif self.b == -1:
            parts.append(f"-{rad}")
        else:
            parts.append(f"{self.b}*{rad}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def simplify(x):
    """Collapse a QuadElem with no irrational part back to a Fraction."""
    if isinstance(x, QuadElem) and x.b == 0:
        return x.a
    return x


def sqrt_rational(q: Fraction) -> tuple[QuadElem, int]:
    """Exact positive square root of q > 0 inside one quadratic extension.

    Returns (r, D) with r**2 == q, r > 0 and D squarefree; D == 1 exactly when
    q is the square of a rational.
    """
    q = _as_fraction(q)
    if q <= 0:
        raise ValueError("q must be positive")
    # sqrt(num/den) = sqrt(num*den)/den
    s, d = squarefree_decompose(q.numerator * q.denominator)
    coef = Fraction(s, q.denominator)
    if d == 1:
        return QuadElem(coef), 1
    return QuadElem(0, coef, d), d


def is_perfect_square(q: Fraction) -> bool:
    q = _as_fraction(q)
    if q < 0:
        return False
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator
