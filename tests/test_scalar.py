import operator
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from fwenum.homopoly import HomPoly
from fwenum.scalar import (
    MixedExtensionError,
    NotRationalError,
    QuadElem,
    sqrt_rational,
    squarefree_decompose,
)
from reference import Surd

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)
nonzero_fractions = fractions.filter(lambda f: f != 0)


@st.composite
def quad_elems(draw, d=None):
    d = d if d is not None else draw(st.sampled_from([2, 3, 5, 7]))
    return QuadElem(draw(fractions), draw(fractions), d)


def homopoly_product(x: Surd, y: Surd):
    """x * y as fwenum computes it: on the integer parts of two polynomials
    of degree 0."""
    return (HomPoly(0, [x.value()]) * HomPoly(0, [y.value()])).coeffs[0]


def is_square(q: Fraction) -> bool:
    return q >= 0 and isqrt(q.numerator) ** 2 == q.numerator and (
        isqrt(q.denominator) ** 2 == q.denominator)


class TestRational:
    def test_lowest_terms_and_positive_denominator(self):
        r = Fraction(6, -8)
        assert (r.numerator, r.denominator) == (-3, 4)

    def test_text_form(self):
        assert str(Fraction(3, 4)) == "3/4"
        assert str(Fraction(5)) == "5"  # denominator omitted when 1
        assert Fraction("-33") == -33
        assert Fraction("2/6") == Fraction(1, 3)

    @given(fractions, fractions, fractions)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


class TestQuadElem:
    """QuadElem is a value with no arithmetic.  The field axioms are checked
    on the test-side reference `Surd`, over QuadElem values, and the
    reference is checked against fwenum's arithmetic on integer parts, the
    product of two polynomials of degree 0."""

    @given(st.integers(2, 7).filter(lambda d: d in (2, 3, 5, 6, 7)), fractions,
           fractions, fractions, fractions, fractions, fractions)
    def test_ring_axioms(self, d, a1, b1, a2, b2, a3, b3):
        x = Surd(a1, b1, d)
        y = Surd(a2, b2, d)
        z = Surd(a3, b3, d)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert homopoly_product(x, y) == x * y
        assert homopoly_product(x, y + z) == x * (y + z)

    @given(quad_elems(d=3), quad_elems(d=3))
    def test_conjugation_is_a_ring_homomorphism(self, x, y):
        x, y = Surd.of(x), Surd.of(y)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(quad_elems(d=5), quad_elems(d=5))
    def test_norm_is_multiplicative(self, x, y):
        x, y = Surd.of(x), Surd.of(y)
        assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_identity(self):
        x = Surd(Fraction(3), Fraction(2), 7)
        assert x * x.conjugate() == x.norm() == 9 - 7 * 4
        assert homopoly_product(x, x.conjugate()) == x.norm()

    @given(quad_elems().filter(bool))
    def test_inverse(self, x):
        x = Surd.of(x)
        assert x * x.inverse() == 1
        assert homopoly_product(x, x.inverse()) == 1

    def test_powers_including_negative(self):
        x = Surd(1, 1, 2)
        assert x ** 3 == x * x * x
        assert x ** -2 == (x * x).inverse()
        assert x ** 0 == 1
        assert HomPoly(0, [x.value()]) ** 3 == HomPoly(0, [(x ** 3).value()])

    def test_mixed_extensions_rejected(self):
        with pytest.raises(ValueError):
            Surd(0, 1, 2) * Surd(0, 1, 3)
        with pytest.raises(MixedExtensionError):
            HomPoly(0, [QuadElem(0, 1, 2)]) * HomPoly(0, [QuadElem(0, 1, 3)])
        # a rational-valued element combines with anything
        assert Surd(2, 0, 2) * Surd(0, 1, 3) == QuadElem(0, 2, 3)
        assert homopoly_product(Surd(2, 0, 2), Surd(0, 1, 3)) == QuadElem(0, 2, 3)

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv, operator.pow,
    ], ids=["add", "sub", "mul", "truediv", "pow"])
    def test_values_have_no_arithmetic(self, op):
        with pytest.raises(TypeError):
            op(QuadElem(1, 1, 2), 2)
        with pytest.raises(TypeError):
            op(2, QuadElem(1, 1, 2))
        with pytest.raises(TypeError):
            op(QuadElem(1, 1, 2), QuadElem(0, 1, 2))

    def test_values_do_not_negate(self):
        with pytest.raises(TypeError):
            -QuadElem(1, 1, 2)

    def test_rational_embedding(self):
        assert QuadElem(Fraction(1, 2)) == Fraction(1, 2)
        assert QuadElem(3, 0, 5) == 3
        assert hash(QuadElem(3, 0, 5)) == hash(Fraction(3))
        assert QuadElem(1, 1, 2) != QuadElem(1, 1, 3)

    def test_to_rational(self):
        assert QuadElem(5, 0, 3).to_rational() == 5
        with pytest.raises(NotRationalError):
            QuadElem(0, 1, 3).to_rational()

    def test_non_squarefree_d_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(0, 1, 12)


class TestSqrtRational:
    def test_perfect_square(self):
        r, d = sqrt_rational(Fraction(4))
        assert d == 1 and r == 2

    def test_four_thirds(self):
        r, d = sqrt_rational(Fraction(4, 3))
        assert d == 3
        assert r == QuadElem(0, Fraction(2, 3), 3)
        assert Surd.of(r) ** 2 == Fraction(4, 3)

    def test_two(self):
        r, d = sqrt_rational(Fraction(2))
        assert d == 2 and r == QuadElem(0, 1, 2)

    def test_random_roots_square_back(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            q = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            r, d = sqrt_rational(q)
            assert Surd.of(r) ** 2 == q
            s, d0 = squarefree_decompose(d)
            assert s == 1 and d0 == d  # squarefree
            assert (d == 1) == is_square(q)
            assert r.b >= 0 and (r.b > 0 or r.a > 0)  # positive root

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sqrt_rational(Fraction(0))
        with pytest.raises(ValueError):
            sqrt_rational(Fraction(-4, 3))
