"""Finite closure of 2x2 matrix groups and exact Molien series.

Group elements are compared by exact structural equality of their entries, so
the closure is reliable over any real quadratic extension.  The Molien series
is computed as an exact rational function and reduced; any square-root
contributions of individual elements must cancel in the sum, which is
asserted rather than assumed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import unipoly
from .families import FAMILIES, ring_dimension
from .homopoly import Mat2, sigma_q, TAU
from .record import Record
from .scalar import NotRationalError, QuadElem, simplify

__all__ = [
    "MatrixGroup",
    "RationalFunctionSeries",
    "GroupClosureError",
    "group_closure",
    "molien_series",
    "named_group",
    "molien_basis_mismatches",
    "GROUP_NAMES",
]


class GroupClosureError(RuntimeError):
    """Closure exceeded the cap: the generated group is infinite or too large."""


class MatrixGroup(Record):
    __slots__ = ("elements", "generators")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: Mat2) -> bool:
        return m in self.elements

    def sorted_elements(self) -> list[Mat2]:
        return sorted(self.elements, key=repr)


def group_closure(generators: list[Mat2], cap: int = 1024) -> MatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    The generators must be invertible; in a finite closure the inverses are
    reached automatically through the power cycles.  Raises GroupClosureError
    when more than `cap` elements appear.
    """
    gens = tuple(generators)
    for g in gens:
        if not g.det():
            raise ValueError("generators must be invertible")
    elements = {Mat2.identity()}
    frontier = [Mat2.identity()]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = m @ g
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
                    if len(elements) > cap:
                        raise GroupClosureError(
                            f"closure exceeded cap = {cap} elements"
                        )
        frontier = new
    return MatrixGroup(elements=frozenset(elements), generators=gens)


class RationalFunctionSeries:
    """Rational function num(l)/den(l) over Q with a cached series prefix.

    Series are equal when they are the same rational function, and are not
    hashable."""

    __slots__ = ("num", "den", "_series")

    def __init__(self, num: list, den: list):
        self.num = unipoly.trim([Fraction(c) for c in num])
        self.den = unipoly.trim([Fraction(c) for c in den])
        if unipoly.is_zero(self.den):
            raise ZeroDivisionError("zero denominator")
        self._series = []

    @classmethod
    def one_over(cls, powers: list[int]) -> "RationalFunctionSeries":
        """Build 1 / prod((1 - l^k) for k in powers)."""
        den = [Fraction(1)]
        for k in powers:
            factor = [Fraction(0)] * (k + 1)
            factor[0], factor[k] = Fraction(1), Fraction(-1)
            den = unipoly.mul(den, factor)
        return cls([Fraction(1)], den)

    def series(self, terms: int) -> list[Fraction]:
        """First `terms` Taylor coefficients at l = 0."""
        if len(self._series) < terms:
            self._series = unipoly.series_div(self.num, self.den, terms)
        return self._series[:terms]

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionSeries):
            return NotImplemented
        # cross-multiplication: exact identity of rational functions
        return unipoly.mul(self.num, other.den) == unipoly.mul(other.num, self.den)

    def __str__(self):
        num = unipoly.to_string(self.num, "λ")
        den = unipoly.to_string(self.den, "λ")
        return f"({num}) / ({den})"


def _char_denominator(m: Mat2) -> list:
    """det(I - l*A) = 1 - tr(A) l + det(A) l^2 as a coefficient list."""
    return unipoly.trim([Fraction(1), simplify(-m.trace()), simplify(m.det())])


def molien_series(group: MatrixGroup, terms: int = 41) -> RationalFunctionSeries:
    """Exact Molien series (1/|G|) sum(1/det(I - l*A)) of a finite group.

    The per-element terms may involve sqrt(D); the summed series must be
    rational, which is asserted.  The result is reduced and normalised to a
    denominator with constant term 1.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    # elements with one (trace, det) give one term; sum each once, times its
    # multiplicity, in first-seen order
    counts = Counter(tuple(_char_denominator(m)) for m in group.sorted_elements())
    num, den = [], [Fraction(1)]
    for d, k in counts.items():
        # num/den + k/d = (num*d + k*den) / (den*d), reduced as we go
        num = unipoly.add(unipoly.mul(num, d), unipoly.scale(den, k))
        den = unipoly.mul(den, d)
        g = unipoly.gcd(num, den)
        if unipoly.degree(g) > 0:
            num = unipoly.div_exact(num, g)
            den = unipoly.div_exact(den, g)
    num = unipoly.scale(num, Fraction(1, group.order))
    rational_num, rational_den = [], []
    for coeffs, out in ((num, rational_num), (den, rational_den)):
        for c in coeffs:
            c = simplify(c)
            if isinstance(c, QuadElem):
                raise NotRationalError(
                    "Molien series has an irrational residue; closure is incomplete"
                )
            out.append(c)
    # normalise the constant term of the denominator to 1
    c0 = rational_den[0]
    if c0 == 0:
        raise NotRationalError("Molien denominator vanishes at 0")
    rational_num = [c / c0 for c in rational_num]
    rational_den = [c / c0 for c in rational_den]
    series = RationalFunctionSeries(rational_num, rational_den)
    series.series(terms)
    return series


def _eta_43() -> Mat2:
    return Mat2(Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2))


def _conjugated_tau(q) -> Mat2:
    s = sigma_q(q)
    return s @ TAU @ s


GROUP_NAMES = ("g1minus", "g4minus", "g43minus", "g43")


def named_group(name: str, cap: int = 1024) -> MatrixGroup:
    """The four concrete groups with printed orders 8, 6, 12 and 24."""
    if name == "g1minus":
        gens = [_conjugated_tau(2), TAU]
    elif name == "g4minus":
        gens = [_conjugated_tau(4), TAU]
    elif name == "g43minus":
        gens = [_eta_43(), TAU]
    elif name == "g43":
        gens = [sigma_q(Fraction(4, 3)), TAU]
    else:
        raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
    return group_closure(gens, cap=cap)


def molien_basis_mismatches(max_degree: int) -> tuple[list[tuple[str, int]], int]:
    """The (family, n) pairs, n <= max_degree, where the Molien coefficient of
    the family's group differs from its ring dimension, and the group count."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    terms = max_degree + 1
    grouped = [fam for fam in FAMILIES.values() if fam.group]
    mismatches = []
    for fam in grouped:
        coeffs = molien_series(named_group(fam.group), terms).series(terms)
        mismatches += [(fam.name, n) for n in range(terms)
                       if coeffs[n] != ring_dimension(fam, n)]
    return mismatches, len(grouped)
