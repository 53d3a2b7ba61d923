"""A test-side reference for arithmetic in Q(sqrt(D)).

fwenum stores every value over Q(sqrt(D)) as integer parts,
(f0 + f1*sqrt(D)) / den, and its `QuadElem` is a read-only value with no
arithmetic.  `Surd` is a + b*sqrt(D) on Fractions with the field operations
written out from their definitions, so the tests can check the integer-part
kernels against an arithmetic that shares no code with them.  It imports
only the `QuadElem` value, to hand results back to `HomPoly` and `Mat2`.

`series_div` is the Fraction power-series quotient that the Molien series
prefix is checked against.
"""

from __future__ import annotations

from fractions import Fraction

from fwenum.scalar import QuadElem


class Surd:
    """a + b*sqrt(d) for Fractions a, b and a squarefree d >= 1; b == 0
    exactly when d == 1, so rationals have one form."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 1):
        a, b = Fraction(a), Fraction(b)
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        self.a, self.b, self.d = a, b, d

    @classmethod
    def of(cls, x) -> "Surd":
        """x as a Surd: an int, a Fraction, a Surd or a fwenum QuadElem."""
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return cls(x.a, x.b, x.d)

    def value(self):
        """The value as fwenum takes it: a Fraction, or a QuadElem."""
        return self.a if self.b == 0 else QuadElem(self.a, self.b, self.d)

    def _field(self, other: "Surd") -> int:
        if self.d != 1 and other.d != 1 and self.d != other.d:
            raise ValueError(f"sqrt({self.d}) and sqrt({other.d}) in one operation")
        return max(self.d, other.d)

    def __add__(self, other):
        o = Surd.of(other)
        return Surd(self.a + o.a, self.b + o.b, self._field(o))

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -Surd.of(other)

    def __rsub__(self, other):
        return Surd.of(other) - self

    def __mul__(self, other):
        o = Surd.of(other)
        d = self._field(o)
        return Surd(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "Surd":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("Surd is zero")
        return Surd(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * Surd.of(other).inverse()

    def __rtruediv__(self, other):
        return Surd.of(other) * self.inverse()

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        out = Surd(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, Surd, QuadElem)):
            return NotImplemented
        o = Surd.of(other)
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"


def lift(values) -> list[Surd]:
    """Each of fwenum's Fraction / QuadElem values as a Surd."""
    return [Surd.of(v) for v in values]


def values(surds) -> list:
    """Each Surd as the Fraction or QuadElem that fwenum takes."""
    return [Surd.of(s).value() for s in surds]


def series_div(num: list, den: list, terms: int) -> list:
    """The first `terms` coefficients of the power series num/den, on
    Fractions; den[0] must be nonzero."""
    if not den or not den[0]:
        raise ZeroDivisionError("series division needs a unit constant term")
    out = []
    for k in range(terms):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out
