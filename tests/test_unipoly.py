from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from fwenum import unipoly
from fwenum.homopoly import HomPoly
from fwenum.scalar import MixedExtensionError, QuadElem
from fwenum.zeta import _coprime
from reference import Surd, lift, series_div, values

polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                 min_size=0, max_size=6)
int_polys = st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=7)


def fraction_gcd(p: list, q: list) -> list:
    """Monic gcd by Euclid's algorithm over a field (Fraction lists, or lists
    of reference scalars): the reference for the integer gcd."""
    a, b = unipoly.trim(list(p)), unipoly.trim(list(q))
    while not unipoly.is_zero(b):
        _, r = unipoly.divmod_(a, b)
        a, b = b, r
    da = unipoly.degree(a)
    if da < 0:
        return []
    lead = a[da]
    return [c / lead for c in a]


def as_primitive(p: list) -> list[int]:
    """A rational list scaled to a primitive integer list, positive leading
    coefficient."""
    den = lcm(*[Fraction(c).denominator for c in p])
    return unipoly.primitive([int(c * den) for c in p])


def product(*factors: list[int]) -> list[int]:
    out = [1]
    for f in factors:
        out = unipoly._convolve(out, f) if f else []
    return unipoly.trim(out)


@given(polys, polys)
def test_divmod_roundtrip(p, q):
    if unipoly.is_zero(q):
        return
    quot, rem = unipoly.divmod_(p, q)
    assert unipoly.add(unipoly.mul(quot, q), rem) == unipoly.trim(list(p))
    assert unipoly.degree(rem) < unipoly.degree(q) or unipoly.is_zero(rem)


@given(int_polys, int_polys)
def test_gcd_divides_both(p, q):
    g = unipoly.gcd(p, q)
    if unipoly.is_zero(g):
        assert unipoly.is_zero(p) and unipoly.is_zero(q)
        return
    assert unipoly.divide_ints(list(p), g) is not None or unipoly.is_zero(p)
    assert unipoly.divide_ints(list(q), g) is not None or unipoly.is_zero(q)


@given(int_polys, int_polys)
def test_pseudo_division_identity(a, b):
    if unipoly.is_zero(b):
        with pytest.raises(ZeroDivisionError):
            unipoly.pseudo_divmod(a, b)
        return
    quot, rem = unipoly.pseudo_divmod(a, b)
    db = unipoly.degree(b)
    k = max(unipoly.degree(a) - db + 1, 0)
    lhs = [b[db] ** k * c for c in unipoly.trim(list(a))]
    assert unipoly.add(product(quot, unipoly.trim(list(b))), rem) == lhs
    assert unipoly.degree(rem) < db
    assert all(isinstance(c, int) for c in quot + rem)


@given(int_polys, int_polys, int_polys)
def test_gcd_matches_the_fraction_reference(p, q, common):
    # a shared factor makes most draws have a gcd of positive degree
    p, q = product(p, common), product(q, common)
    g = unipoly.gcd(p, q)
    assert g == as_primitive(fraction_gcd([Fraction(c) for c in p],
                                          [Fraction(c) for c in q]))
    assert g == unipoly.primitive(g)


@given(int_polys, int_polys, int_polys)
def test_divide_ints_is_none_exactly_on_a_remainder(f, a, cofactor):
    if unipoly.is_zero(a):
        return
    a = unipoly.trim(list(a))
    for dividend in (unipoly.trim(list(f)), product(a, cofactor)):
        divided = unipoly.divide_ints(list(dividend), a)
        _, rem = unipoly.divmod_([Fraction(c) for c in dividend], a)
        assert (divided is None) == (not unipoly.is_zero(rem))
        if divided is not None:
            quot, content = divided
            assert content == unipoly.content(a)
            assert unipoly.add(product(quot, a), [-content * c for c in dividend]) == []


def test_content_and_primitive():
    assert unipoly.content([6, -4, 0]) == 2
    assert unipoly.content([]) == 0
    assert unipoly.primitive([6, -4, 0]) == [-3, 2]
    assert unipoly.primitive([0, 0]) == []


surds = st.builds(lambda a, b: QuadElem(a, b, 3) if b else a,
                  st.fractions(min_value=-4, max_value=4, max_denominator=3),
                  st.fractions(min_value=-4, max_value=4, max_denominator=3))


@given(st.lists(surds, min_size=1, max_size=5))
def test_split_surd_round_trip(p):
    d, p0, p1, den = unipoly.split_surd(p)
    assert den > 0 and len(p0) == len(p1) == len(p)
    assert [Surd(u, v, 3) / den for u, v in zip(p0, p1)] == p
    assert d == (3 if any(p1) else 1)
    norm = unipoly.surd_norm(p0, p1, d)
    conjugate = [Surd(u, -v, 3) / den for u, v in zip(p0, p1)]
    assert [c * den * den for c in unipoly.mul(lift(p), conjugate)] == norm


def test_split_surd_rejects_two_extensions():
    with pytest.raises(MixedExtensionError):
        unipoly.split_surd([QuadElem(0, 1, 2), QuadElem(1, 1, 3)])


@given(st.lists(surds, min_size=1, max_size=4), st.lists(surds, min_size=1, max_size=4),
       st.lists(surds, min_size=1, max_size=3))
def test_coprime_matches_the_field_euclid(a, b, common):
    # over Q(sqrt(3)): the norm test of _coprime against Euclid on reference lists
    a, b = unipoly.mul(lift(a), lift(common)), unipoly.mul(lift(b), lift(common))
    if unipoly.is_zero(a) or unipoly.is_zero(b):
        return
    fa = HomPoly(len(a) - 1, values(a))
    fb = HomPoly(len(b) - 1, values(b))
    expected = True
    for lo in (0, -1):
        if not fa.coeffs[lo] and not fb.coeffs[lo]:
            expected = False  # x or y divides both
    cores = [lift(f.coeffs[f.support()[0]:f.support()[-1] + 1]) for f in (fa, fb)]
    expected = expected and unipoly.degree(fraction_gcd(*cores)) == 0
    assert _coprime(fa, fb) == expected


def test_exact_division_detects_remainder():
    assert unipoly.div_exact([1, 0, 1], [1, 1]) is None
    assert unipoly.div_exact([Fraction(1), 2, 1], [1, 1]) == [1, 1]


def test_series_div_geometric():
    # the reference quotient of the Molien prefix checks:
    # 1/(1 - 2x) = 1 + 2x + 4x^2 + ...
    s = series_div([Fraction(1)], [Fraction(1), Fraction(-2)], 6)
    assert s == [1, 2, 4, 8, 16, 32]


def test_series_mul_pads_and_truncates():
    # the truncated series product of burmann_coefficient: _convolve with a
    # limit, on Fractions
    p, q = [Fraction(1), Fraction(2)], [Fraction(3), Fraction(1), Fraction(-1)]
    assert unipoly._convolve(p, q, 6) == [3, 7, 1, -2, 0, 0]
    assert unipoly._convolve(p, q, 2) == [3, 7]
    assert unipoly._convolve([], q, 3) == [0, 0, 0]
    assert unipoly._convolve(p, [Fraction(0)] * 4, 3) == [0, 0, 0]


def test_series_div_requires_unit():
    with pytest.raises(ZeroDivisionError):
        series_div([Fraction(1)], [Fraction(0), Fraction(1)], 3)


def test_to_string():
    assert unipoly.to_string([Fraction(1), Fraction(-2), Fraction(2)], "T") == \
        "2*T^2 - 2*T + 1"
    assert unipoly.to_string([], "T") == "0"


def test_coprime_tells_conjugate_cores_apart():
    # x - sqrt(3) y and x + sqrt(3) y have the same norm x^2 - 3 y^2 but no
    # common factor; each shares one with x^2 - 3 y^2 itself
    minus, plus = HomPoly(1, [1, QuadElem(0, -1, 3)]), HomPoly(1, [1, QuadElem(0, 1, 3)])
    norm = HomPoly(2, [1, 0, -3])
    assert _coprime(minus, plus)
    assert not _coprime(minus, norm) and not _coprime(norm, plus)
    assert not _coprime(minus * plus, minus * HomPoly(1, [1, 1]))
    with pytest.raises(MixedExtensionError):
        _coprime(minus, HomPoly(1, [1, QuadElem(0, 1, 2)]))
