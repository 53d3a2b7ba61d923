from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fwenum import unipoly
from fwenum.scalar import sqrt_rational

polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                 min_size=0, max_size=6)


@given(polys, polys)
def test_divmod_roundtrip(p, q):
    if unipoly.is_zero(q):
        return
    quot, rem = unipoly.divmod_(p, q)
    assert unipoly.add(unipoly.mul(quot, q), rem) == unipoly.trim(list(p))
    assert unipoly.degree(rem) < unipoly.degree(q) or unipoly.is_zero(rem)


@given(polys, polys)
def test_gcd_divides_both(p, q):
    g = unipoly.gcd(p, q)
    if unipoly.is_zero(g):
        assert unipoly.is_zero(p) and unipoly.is_zero(q)
        return
    assert unipoly.div_exact(list(p), g) is not None or unipoly.is_zero(p)
    assert unipoly.div_exact(list(q), g) is not None or unipoly.is_zero(q)


def test_exact_division_detects_remainder():
    assert unipoly.div_exact([1, 0, 1], [1, 1]) is None
    assert unipoly.div_exact([Fraction(1), 2, 1], [1, 1]) == [1, 1]


def test_series_div_geometric():
    # 1/(1 - 2x) = 1 + 2x + 4x^2 + ...
    s = unipoly.series_div([Fraction(1)], [Fraction(1), Fraction(-2)], 6)
    assert s == [1, 2, 4, 8, 16, 32]


def test_series_mul_pads_and_truncates():
    p, q = [Fraction(1), Fraction(2)], [Fraction(3), Fraction(1), Fraction(-1)]
    assert unipoly.series_mul(p, q, 6) == [3, 7, 1, -2, 0, 0]
    assert unipoly.series_mul(p, q, 2) == [3, 7]
    assert unipoly.series_mul([], q, 3) == [0, 0, 0]
    assert unipoly.series_mul(p, [Fraction(0)] * 4, 3) == [0, 0, 0]


def test_series_mul_quadratic_operand():
    r, _ = sqrt_rational(Fraction(3))
    out = unipoly.series_mul([Fraction(1), r], [Fraction(1), r, Fraction(1)], 5)
    # (1 + r T)(1 + r T + T^2) = 1 + 2r T + 4 T^2 + r T^3
    assert out == [1, 2 * r, 4, r, 0]


def test_series_div_requires_unit():
    with pytest.raises(ZeroDivisionError):
        unipoly.series_div([Fraction(1)], [Fraction(0), Fraction(1)], 3)


def test_to_string():
    assert unipoly.to_string([Fraction(1), Fraction(-2), Fraction(2)], "T") == \
        "2*T^2 - 2*T + 1"
    assert unipoly.to_string([], "T") == "0"
