"""Exact scalar values: arbitrary-precision rationals and elements of Q(sqrt(D)).

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator, exact arithmetic).  ``QuadElem`` is the read-only value
a + b*sqrt(D), D a squarefree positive integer, that `HomPoly.coeffs`,
`Mat2` entries and `sqrt_rational` return.  It has no arithmetic: every sum
and product over Q(sqrt(D)) runs on the integer parts of a `HomPoly` or
`Mat2`, (f0 + f1*sqrt(D)) / den.
"""

from __future__ import annotations

from fractions import Fraction

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
    """The value a + b*sqrt(D) of the real quadratic extension Q(sqrt(D)).

    D is a squarefree positive integer.  Elements with b == 0 are stored with
    D == 1 so that rationals embed uniquely and compare equal across contexts.
    Values compare, hash and print; they do not add, multiply or divide.
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

    # -- predicates / conversion ----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_rational(self) -> Fraction:
        if self.b != 0:
            raise NotRationalError(f"{self} has a nonzero sqrt({self.d}) part")
        return self.a

    def __bool__(self):
        return bool(self.a or self.b)

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
