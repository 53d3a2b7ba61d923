"""Finite closure of 2x2 matrix groups and exact Molien series.

Group elements multiply and compare on the integer parts of `Mat2`, so the
closure is exact over any real quadratic extension.  The Molien series, its
prefix too, is summed as an exact rational function on the integer kernel:
a term 1/d with d = d0 + d1 sqrt(D) is rewritten over the rational norm
d0^2 - D d1^2, so the rational part and the sqrt(D) part are sums of integer
fractions.  The sqrt(D) part must sum to zero, which is checked rather than
assumed (classes need not come in conjugate pairs).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import unipoly
from .families import FAMILIES, ring_dimension
from .homopoly import Mat2, sigma_q, TAU, _lowest, _mat
from .record import Record
from .scalar import NotRationalError
from .unipoly import _convolve, _integer_coeffs

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


class RationalFunctionSeries(Record):
    """Rational function num(l)/den(l) over Q.

    Stored on ints as num = p / a and den = u / b, p and u trimmed integer
    lists; `num` and `den`, Fraction lists, are built on read.  Series are
    equal when they are the same rational function, and are not hashable."""

    __slots__ = ("_p", "_a", "_u", "_b")

    def __init__(self, num: list, den: list):
        p, a = _integer_coeffs(unipoly.trim([Fraction(c) for c in num]))
        u, b = _integer_coeffs(unipoly.trim([Fraction(c) for c in den]))
        if not u:
            raise ZeroDivisionError("zero denominator")
        super().__init__(p, a, u, b)

    num = property(lambda self: [Fraction(v, self._a) for v in self._p])
    den = property(lambda self: [Fraction(v, self._b) for v in self._u])

    @classmethod
    def one_over(cls, powers: list[int]) -> "RationalFunctionSeries":
        """Build 1 / prod((1 - l^k) for k in powers)."""
        den = [1]
        for k in powers:
            den = _convolve(den, [1] + [0] * (k - 1) + [-1])
        return cls([1], den)

    def series(self, terms: int) -> list[Fraction]:
        """First `terms` Taylor coefficients at l = 0, computed on each call.

        Coefficient k is b s_k / (a u0^(k+1)) for the integers
        s_k = p_k u0^k - sum over j of u_j u0^(j-1) s_(k-j); u0 = 1 in every
        Molien series.  A zero u0 raises ZeroDivisionError.
        """
        if terms < 1:
            raise ValueError("terms must be >= 1")
        p, a, u, b = self._p, self._a, self._u, self._b
        if not u[0]:
            raise ZeroDivisionError("series expansion needs den(0) != 0")
        s = [v * u[0]**k for k, v in enumerate(p[:terms])] + [0] * (terms - len(p))
        steps = [(j, v * u[0] ** (j - 1)) for j, v in enumerate(u) if j and v]
        for k in range(terms):
            s[k] -= sum([w * s[k - j] for j, w in steps if j <= k])
        return [Fraction(b * v, a * u[0] ** (k + 1)) for k, v in enumerate(s)]

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionSeries):
            return NotImplemented
        # cross-multiplication: exact identity of rational functions
        left = [v * other._a * self._b for v in _convolve(self._p, other._u)]
        right = [v * self._a * other._b for v in _convolve(other._p, self._u)]
        return unipoly.trim(left) == unipoly.trim(right)

    def __str__(self):
        num = unipoly.to_string(self.num, "λ")
        den = unipoly.to_string(self.den, "λ")
        return f"({num}) / ({den})"


def _char_denominator(m: Mat2) -> tuple:
    """det(I - l*A) = 1 - tr(A) l + det(A) l^2 as (D, u0, u1, e), the list
    (u0 + u1 sqrt(D)) / e in lowest terms (u1 None when it is rational), from
    the stored integer parts of A = (M0 + M1 sqrt(D)) / den, over den^2."""
    den, nums, surd = m._den, m._nums, m._surd
    det0, det1, root = m._det_parts()
    tr1 = 0 if surd is None else surd[0] + surd[3]
    u0, e, u1, root = _lowest([den * den, -den * (nums[0] + nums[3]), det0], den * den,
                              [0, -den * tr1, det1], root)
    return root, tuple(u0), None if u1 is None else tuple(u1), e


def _add(frac: tuple[list[int], list[int]], num: list[int], den: list[int]):
    """frac + num/den for fractions of integer lists, in lowest terms: no
    common factor of positive degree and no common integer factor."""
    num = unipoly.add(_convolve(frac[0], den), _convolve(num, frac[1]))
    if not num:
        return [], [1]
    den = _convolve(frac[1], den)
    g = unipoly.gcd(num, den)
    if len(g) > 1:
        num = unipoly.divide_ints(num, g)[0]
        den = unipoly.divide_ints(den, g)[0]
    c = unipoly.content(num + den)
    return [v // c for v in num], [v // c for v in den]


def molien_series(group: MatrixGroup) -> RationalFunctionSeries:
    """Exact Molien series (1/|G|) sum(1/det(I - l*A)) of a finite group.

    The elements with one (trace, det) share a term k/d.  With d scaled to
    (u0 + u1 sqrt(D)) / e over integer lists and N = u0^2 - D u1^2,
    k/d = k e u0 / N - (k e u1 / N) sqrt(D); the rational parts and, per D,
    the sqrt(D) parts are summed as reduced integer fractions.  Every sqrt(D)
    part must sum to zero, else NotRationalError.  The result is scaled by
    1/|G| and normalised to a denominator with constant term 1; that reduced
    form is unique, so the order of the classes does not matter.  Read a
    prefix with `series(terms)`.
    """
    rational = [], [1]
    surds = {}  # D -> the sum of the sqrt(D) parts
    for (root, u0, u1, e), k in Counter(_char_denominator(m) for m in group.elements).items():
        if u1 is None:
            rational = _add(rational, [k * e], u0)
            continue
        norm = unipoly.surd_norm(u0, u1, root)
        rational = _add(rational, [k * e * v for v in u0], norm)
        surds[root] = _add(surds.get(root, ([], [1])), [-k * e * v for v in u1], norm)
    if any(num for num, _ in surds.values()):
        raise NotRationalError(
            "Molien series has an irrational residue; closure is incomplete"
        )
    num, den = rational
    return RationalFunctionSeries([Fraction(v, den[0] * group.order) for v in num],
                                  [Fraction(v, den[0]) for v in den])


def _conjugated_tau(q) -> Mat2:
    s = sigma_q(q)
    return s @ TAU @ s


GROUP_NAMES = ("g1minus", "g4minus", "g43minus", "g43")


def named_group(name: str) -> MatrixGroup:
    """The four concrete groups with printed orders 8, 6, 12 and 24."""
    if name == "g1minus":
        gens = [_conjugated_tau(2), TAU]
    elif name == "g4minus":
        gens = [_conjugated_tau(4), TAU]
    elif name == "g43minus":
        gens = [_mat([1, 1, -3, 1], 2), TAU]  # eta = (1, 1; -3, 1) / 2
    elif name == "g43":
        gens = [sigma_q(Fraction(4, 3)), TAU]
    else:
        raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
    return group_closure(gens)


def molien_basis_mismatches(max_degree: int) -> tuple[list[tuple[str, int]], int]:
    """The (family, n) pairs, n <= max_degree, where the Molien coefficient of
    the family's group differs from its ring dimension, and the group count."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    terms = max_degree + 1
    grouped = [fam for fam in FAMILIES.values() if fam.group]
    mismatches = []
    for fam in grouped:
        coeffs = molien_series(named_group(fam.group)).series(terms)
        mismatches += [(fam.name, n) for n in range(terms)
                       if coeffs[n] != ring_dimension(fam, n)]
    return mismatches, len(grouped)
