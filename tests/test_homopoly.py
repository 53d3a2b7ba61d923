import copy
import json
import pickle
import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fwenum.homopoly import (
    HomPoly,
    Mat2,
    MixedExtensionError,
    TAU,
    act_matrix,
    diff_op,
    divide_exact,
    format_poly,
    format_poly_latex,
    macwilliams,
    min_weight,
    parse_poly,
    pochhammer,
    sigma_q,
    transform_sign,
    weight_profile,
)
from fwenum import homopoly, unipoly
from fwenum.scalar import QuadElem, simplify
from fwenum.zeta import run_duursma_lemma_suite, verify_duursma_lemma
from reference import Surd, lift, values

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=8)


@st.composite
def hom_polys(draw, max_degree=6, min_degree=0):
    n = draw(st.integers(min_degree, max_degree))
    return HomPoly(n, [draw(fractions) for _ in range(n + 1)])


@st.composite
def invertible_mats(draw):
    m = Mat2(*[draw(fractions) for _ in range(4)])
    if not m.det():
        # force det = 1 while keeping the off-diagonal entries
        m = Mat2(1, m.b, m.c, 1 + m.b * m.c)
    return m


@st.composite
def quad_mats(draw):
    """A pure surd matrix M1 sqrt(D) / den, the kind `act_matrix` takes over
    Q(sqrt(D)), and a scalar strategy for the same field."""
    rad = draw(st.sampled_from([2, 3, 5]))
    scalars = st.builds(lambda a, b: QuadElem(a, b, rad), fractions, fractions)
    return Mat2(*[QuadElem(0, draw(fractions), rad) for _ in range(4)]), scalars


def naive_action(f, m):
    """sum(c_i (a x + b y)^(n-i) (c x + d y)^i) by HomPoly powers and products."""
    u, v = HomPoly(1, [m.a, m.b]), HomPoly(1, [m.c, m.d])
    out = HomPoly.zero(f.degree)
    for i, c in enumerate(f.coeffs):
        out = out + u ** (f.degree - i) * v ** i * c
    return out


class TestParsePrint:
    @pytest.mark.parametrize("text", [
        "x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12",
        "x^2 + 1/3*y^2",
        "x^6 - 5*x^4*y^2 + 5/3*x^2*y^4 - 1/27*y^6",
        "x^3 - 9*x*y^2",
        "7",
        "x*y",
        "-x + y",
    ])
    def test_roundtrip(self, text):
        poly = parse_poly(text)
        assert parse_poly(format_poly(poly)) == poly

    @given(hom_polys().filter(lambda f: not f.is_zero()))
    def test_roundtrip_random(self, f):
        # the zero polynomial prints as "0" and loses its degree by design
        assert parse_poly(format_poly(f)) == f

    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x^2 + y")

    @pytest.mark.parametrize("text,message", [
        ("x^2--y^2", "sign '-' with no term after it"),
        ("x^2-+y^2", "sign '-' with no term after it"),
        ("x^2+", "sign '+' with no term after it"),
        ("-", "sign '-' with no term after it"),
        ("2 3*x", "whitespace between digits"),
        ("x^1 2", "whitespace between digits"),
        ("2\t3*x", "whitespace between digits"),
        ("1/0*x", "zero denominator in term '1/0*x'"),
    ], ids=["double-sign", "minus-plus", "trailing-sign", "sign-alone",
            "split-coefficient", "split-exponent", "tab-split-coefficient",
            "zero-denominator"])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_poly(text)

    @pytest.mark.parametrize("text,spaced", [
        ("x\n+y", "x + y"),
        ("x^2\n", "x^2"),
        ("x\t+y", "x + y"),
        ("x^2\r\n", "x^2"),
        ("x +\ny", "x + y"),
    ], ids=["newline-before-sign", "final-newline", "tab", "final-crlf",
            "newline-after-sign"])
    def test_whitespace_of_any_kind_is_ignored(self, text, spaced):
        assert parse_poly(text) == parse_poly(spaced)

    def test_json_roundtrip(self):
        f = parse_poly("x^2 + 1/3*y^2")
        obj = json.loads(f.to_json())
        assert obj == {"degree": 2, "coeffs": ["1", "0", "1/3"]}
        assert HomPoly.from_json(f.to_json()) == f

    def test_latex(self):
        f = parse_poly("x^12 + 55/9*x^8*y^4")
        assert format_poly_latex(f) == "x^{12} + \\frac{55}{9}x^{8}y^{4}"

    def test_zero_and_degree_mismatch(self):
        assert format_poly(HomPoly.zero(4)) == "0"
        with pytest.raises(ValueError):
            HomPoly(2, [1, 2])


def reference_product(f, g):
    """The coefficient convolution of f * g on the reference scalars, skipping
    zero coefficients of f."""
    out = [Surd(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(lift(f.coeffs)):
        if not a:
            continue
        for j, b in enumerate(lift(g.coeffs)):
            if b:
                out[i + j] = out[i + j] + a * b
    return HomPoly(f.degree + g.degree, values(out))


rational_factors = st.one_of(
    hom_polys(max_degree=12),
    st.integers(0, 12).map(HomPoly.zero),
    fractions.map(lambda c: HomPoly(0, [c])),
)


class TestProduct:
    @settings(max_examples=200, deadline=None)
    @given(rational_factors, rational_factors)
    def test_rational_matches_reference(self, f, g):
        product = f * g
        assert product == reference_product(f, g)
        assert all(type(c) is Fraction for c in product.coeffs)

    def test_zero_negative_and_fractional_coefficients(self):
        f = HomPoly(2, [Fraction(-1, 2), 0, Fraction(3, 4)])
        g = HomPoly(1, [Fraction(2, 3), Fraction(-5)])
        assert f * g == HomPoly(3, [Fraction(-1, 3), Fraction(5, 2),
                                    Fraction(1, 2), Fraction(-15, 4)])
        assert f * HomPoly.zero(3) == HomPoly.zero(5)
        assert f * HomPoly(0, [Fraction(-2, 7)]) == f * Fraction(-2, 7)

    @settings(max_examples=60, deadline=None)
    @given(hom_polys(max_degree=6).filter(lambda f: f.degree % 2 and not f.is_zero()),
           rational_factors)
    def test_quadratic_factor_unchanged(self, f, g):
        # an odd-degree sigma_q(2) image has coefficients in Q(sqrt(2))
        image = act_matrix(f, sigma_q(2))
        assert not image.is_rational()
        assert image * g == reference_product(image, g)
        assert g * image == reference_product(g, image)
        assert image * image == reference_product(image, image)


class TestActMatrix:
    def test_phi4_antiinvariant_under_sigma2(self, printed):
        assert act_matrix(printed["phi4"], sigma_q(2)) == -printed["phi4"]

    def test_identity(self, printed):
        assert act_matrix(printed["w11"], Mat2.identity()) == printed["w11"]

    def test_hamming_invariant(self, printed):
        assert act_matrix(printed["wh8"], sigma_q(2)) == printed["wh8"]

    @given(hom_polys(max_degree=5), invertible_mats(), invertible_mats())
    def test_composition(self, f, s, r):
        assert act_matrix(act_matrix(f, s), r) == act_matrix(f, s @ r)

    @given(hom_polys(max_degree=5), hom_polys(max_degree=5), invertible_mats())
    def test_linearity(self, f, g, s):
        g = HomPoly(f.degree, (list(g.coeffs) + [Fraction(0)] * 9)[: f.degree + 1])
        assert act_matrix(f + g, s) == act_matrix(f, s) + act_matrix(g, s)

    @settings(max_examples=40, deadline=None)
    @given(hom_polys(max_degree=24), invertible_mats())
    def test_matches_naive_expansion_rational(self, f, m):
        assert act_matrix(f, m) == naive_action(f, m)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 24))
    def test_matches_naive_expansion_quadratic(self, data, n):
        m, scalars = data.draw(quad_mats())
        coeffs = st.one_of(fractions, scalars)
        f = HomPoly(n, [data.draw(coeffs) for _ in range(n + 1)])
        assert act_matrix(f, m) == naive_action(f, m)

    @settings(max_examples=40, deadline=None)
    @given(hom_polys(max_degree=16), invertible_mats(),
           fractions.filter(bool), st.sampled_from([1, 2, 3, 5]))
    def test_matches_naive_expansion_scalar_multiple(self, f, m, r, rad):
        # sigma = lam * M with M rational: the factored path of act_matrix
        lam = Surd(0, r, rad)  # r*sqrt(rad); rad = 1 gives the rational r
        sigma = Mat2(*values(lam * e for e in (m.a, m.b, m.c, m.d)))
        assert act_matrix(f, sigma) == naive_action(f, sigma)

    @settings(max_examples=20, deadline=None)
    @given(hom_polys(max_degree=16), st.sampled_from([2, Fraction(4, 3)]))
    def test_transposed_sigma_q(self, f, q):
        sigma = sigma_q(q).transpose()
        assert act_matrix(f, sigma) == naive_action(f, sigma)

    def test_mixed_extension_rejected(self):
        f = HomPoly(1, [QuadElem(0, 1, 3), Fraction(1)])
        with pytest.raises(MixedExtensionError):
            act_matrix(f, sigma_q(2))  # sqrt(2) entries against sqrt(3) coeffs

    def test_mixed_extension_at_even_degree(self):
        # lam^2 = 1/2 is rational, so the image stays over Q(sqrt(3))
        f = HomPoly(2, [SQRT3, 1, 0])
        image = act_matrix(f, sigma_q(2))
        assert image == naive_action(f, sigma_q(2))
        assert not image.is_rational()


def slot_bits(nums, m):
    return 8 * homopoly._slot_bytes(nums, *m)


@st.composite
def packed_cases(draw):
    """Integer coefficients of 3 to 1100 bits (so slots on both sides of the
    packed cap) and an integer matrix, possibly singular or zero."""
    n = draw(st.integers(0, 24))
    size = 2 ** draw(st.sampled_from([3, 64, 600, 1100]))
    nums = [draw(st.integers(-size, size)) for _ in range(n + 1)]
    return nums, [draw(st.integers(-4, 4)) for _ in range(4)]


class TestPackedAction:
    """The Kronecker-packed integer action against the list Horner loop."""

    @settings(max_examples=150, deadline=None)
    @given(packed_cases())
    @example(([0] * 7, [1, 1, 1, -1]))  # the zero polynomial
    @example(([-5], [2, -3, 0, 4]))  # degree 0
    @example(([3, -1, 4, 1, -5], [0, 0, 0, 0]))  # the zero matrix
    @example(([2, 7, -1, 8], [2, 4, 1, 2]))  # singular, a = 2c and b = 2d
    @example(([-1, 0, 2**900, -(2**900)], [0, -3, 4, 0]))  # a packed slot
    @example(([2**1100, -1, 0, 5], [1, 1, 1, -1]))  # a slot above the cap
    def test_matches_list_horner(self, case):
        nums, m = case
        width = homopoly._slot_bytes(nums, *m)
        assert homopoly._act_packed(nums, *m, width) == homopoly._act_horner(nums, *m)

    def test_examples_land_on_both_sides_of_the_cap(self):
        cap = homopoly._PACKED_SLOT_BITS
        assert slot_bits([-1, 0, 2**900, -(2**900)], [0, -3, 4, 0]) <= cap
        assert slot_bits([2**1100, -1, 0, 5], [1, 1, 1, -1]) > cap

    @pytest.mark.parametrize("width", [1, 2, 16, 129])
    def test_unpack_extreme_digits(self, width):
        top = 2 ** (8 * width - 1) - 1
        digits = [top, -top, 0, -top, top, 0, 0]
        packed = sum(r << (8 * width * i) for i, r in enumerate(digits))
        assert homopoly._unpack(packed, len(digits), width) == digits
        assert homopoly._unpack(0, 3, width) == [0, 0, 0]

    def test_slot_holds_the_largest_coefficient(self):
        # (x + y)^n: the middle coefficient C(n, n/2) is near the bound 2^n
        m = [1, 1, 1, 1]
        for n in range(0, 40):
            nums = [0] * n + [1]
            width = homopoly._slot_bytes(nums, *m)
            out = homopoly._act_packed(nums, *m, width)
            assert out == [comb(n, i) for i in range(n + 1)]

    @pytest.mark.parametrize("bits, packed", [(800, True), (1000, False)])
    def test_act_matrix_on_each_side_of_the_cap_matches_naive(self, bits, packed):
        rng = random.Random(bits)
        f = HomPoly(24, [Fraction(rng.randint(-(2**bits), 2**bits), rng.choice([1, 3, 7]))
                         for _ in range(25)])
        m = Mat2(Fraction(1, 2), 3, -1, Fraction(2, 5))
        ints, _ = unipoly._integer_coeffs([m.a, m.b, m.c, m.d])
        assert (slot_bits(f._nums, ints) <= homopoly._PACKED_SLOT_BITS) == packed
        assert act_matrix(f, m) == naive_action(f, m)


class TestMacwilliams:
    def test_phi3(self, printed):
        assert macwilliams(printed["phi3"], 4) == -printed["phi3"]

    @pytest.mark.parametrize("q", [2, 4, Fraction(4, 3), Fraction(9, 5)])
    def test_w2q_invariant(self, q):
        w2q = HomPoly(2, [1, 0, Fraction(q) - 1])
        assert macwilliams(w2q, q) == w2q

    def test_phi6(self, printed):
        assert macwilliams(printed["phi6"], Fraction(4, 3)) == -printed["phi6"]

    @given(hom_polys(max_degree=7), st.sampled_from([2, 4, Fraction(4, 3)]))
    def test_involution(self, f, q):
        assert macwilliams(macwilliams(f, q), q) == f

    def test_odd_degree_irrational_then_sign_flag(self, printed):
        g = macwilliams(parse_poly("x^5 + y^5"), 2)
        assert not g.is_rational()
        assert transform_sign(printed["w12"], 2) == -1
        assert transform_sign(printed["wh8"], 2) == 1
        assert transform_sign(parse_poly("x^4 + y^4"), 2) is None

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            macwilliams(parse_poly("x^2 + y^2"), 1)


class TestDiffOp:
    def test_printed_w12_identity(self, printed):
        p = parse_poly("x*y^3 - x^3*y")
        a = parse_poly("x^3*y - x*y^3")
        assert diff_op(p, printed["w12"]) == a * printed["phi4"] * (-6336)

    def test_single_partial(self):
        n = 7
        assert diff_op(parse_poly("x"), HomPoly.monomial(n, 0)) == \
            HomPoly.monomial(n - 1, 0) * n

    def test_printed_w11_identity(self, printed):
        p = parse_poly("y^3 - 9*x^2*y")
        a = parse_poly("x^2*y - y^3")
        w24 = HomPoly(2, [1, 0, 3])
        assert diff_op(p, printed["w11"]) == a * printed["phi3"] * w24 * (-720)

    @given(hom_polys(max_degree=2), hom_polys(max_degree=2),
           hom_polys(min_degree=4, max_degree=7))
    def test_operator_factorisation(self, p, r, f):
        if p.degree + r.degree > f.degree:
            return
        assert diff_op(p * r, f) == diff_op(p, diff_op(r, f))

    @given(hom_polys(max_degree=2), hom_polys(min_degree=2, max_degree=6),
           hom_polys(min_degree=2, max_degree=6))
    def test_linearity(self, p, f, g):
        g = HomPoly(f.degree, (list(g.coeffs) + [Fraction(0)] * 9)[: f.degree + 1])
        assert diff_op(p, f + g) == diff_op(p, f) + diff_op(p, g)

    def test_degree_contract(self):
        with pytest.raises(ValueError):
            diff_op(parse_poly("x^3"), parse_poly("x^2"))
        out = diff_op(parse_poly("y^2"), parse_poly("x^2"))
        assert out.is_zero() and out.degree == 0

    @given(hom_polys(max_degree=3).filter(lambda p: not p.is_zero()),
           hom_polys(min_degree=3, max_degree=7), invertible_mats())
    def test_duursma_lemma_random(self, p, big_a, sigma):
        if p.degree > big_a.degree:
            return
        assert verify_duursma_lemma(p, big_a, sigma)


def reference_diff_op(p, f):
    """p(D) f term by term on the scalars given: c x^(m-j) y^j of p takes
    x^a y^b of f to c (a)_(m-j) (b)_j x^(a-m+j) y^(b-j), falling factorials."""
    m, n = p.degree, f.degree
    out = HomPoly.zero(n - m)
    for j, pj in enumerate(lift(p.coeffs)):
        for i, ci in enumerate(lift(f.coeffs)):
            a, b = n - i, i
            if not (pj and ci) or a < m - j or b < j:
                continue
            k = 1
            for t in range(m - j):
                k *= a - t
            for t in range(j):
                k *= b - t
            out = out + HomPoly.monomial(a - m + j, b - j, (pj * ci * k).value())
    return out


class TestDiffOpAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(hom_polys(max_degree=4), hom_polys(min_degree=4, max_degree=12))
    def test_rational(self, p, f):
        assert diff_op(p, f) == reference_diff_op(p, f)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 3), st.integers(3, 9), st.sampled_from([2, 3, 5]))
    def test_quadratic(self, data, m, n, rad):
        scalars = st.one_of(fractions, st.builds(lambda a, b: QuadElem(a, b, rad),
                                                 fractions, fractions))
        p = HomPoly(m, [data.draw(scalars) for _ in range(m + 1)])
        f = HomPoly(n, [data.draw(scalars) for _ in range(n + 1)])
        assert diff_op(p, f) == reference_diff_op(p, f)

    def test_one_denominator_per_operand(self):
        p = parse_poly("1/2*x^2 + 1/3*y^2")
        f = parse_poly("3/4*x^4 + 5/7*x^2*y^2 + y^4")
        assert diff_op(p, f) == reference_diff_op(p, f) == parse_poly(
            "209/42*x^2 + 33/7*y^2")


def reference_quotient(a, f):
    """The cofactor g of degree n - m with a*g == f, by Fraction long division
    of f(1, y) by a(1, y); None when it leaves a remainder or needs y^k with
    k > n - m."""
    num = lift(f.coeffs)
    den = lift(a.coeffs)
    while not den[-1]:
        den.pop()
    quot = [Surd(0)] * (f.degree - a.degree + 1)
    while True:
        while num and not num[-1]:
            num.pop()
        if len(num) < len(den):
            break
        k = len(num) - len(den)
        if k >= len(quot):
            return None
        c = num[-1] / den[-1]
        quot[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    return None if num else HomPoly(f.degree - a.degree, values(quot))


@st.composite
def divisors(draw):
    """x^i y^j * c * core with core an integer list times a content of 1, 2 or
    6 whose end coefficients are rarely +-1, and c a nonzero rational."""
    m = draw(st.integers(0, 3))
    core = [draw(st.integers(-6, 6)) for _ in range(m + 1)]
    core[0], core[-1] = core[0] or 2, core[-1] or -3
    content = draw(st.sampled_from([1, 2, 6]))
    c = draw(fractions.filter(bool))
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return HomPoly.monomial(i, j) * HomPoly(m, [v * content for v in core]) * c


surds3 = st.builds(lambda a, b: QuadElem(a, b, 3), fractions, fractions)


@st.composite
def surd_divisors(draw):
    """A divisor from `divisors` times x - sqrt(3) y or times a linear form
    over Q(sqrt(3)) with an irrational coefficient."""
    linear = draw(st.one_of(st.just([1, QuadElem(0, -1, 3)]),
                            st.lists(surds3, min_size=2, max_size=2)
                            .filter(lambda c: any(isinstance(v, QuadElem) for v in c))))
    return draw(divisors()) * HomPoly(1, linear)


@st.composite
def surd_polys(draw, max_degree=5, min_degree=0):
    n = draw(st.integers(min_degree, max_degree))
    return HomPoly(n, [draw(st.one_of(fractions, surds3)) for _ in range(n + 1)])


class TestDivideExactAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(divisors(), hom_polys(max_degree=5).filter(lambda g: not g.is_zero()))
    def test_cofactor_of_a_product(self, a, g):
        assert divide_exact(a, a * g) == g == reference_quotient(a, a * g)

    @settings(max_examples=80, deadline=None)
    @given(divisors(), hom_polys(min_degree=2, max_degree=8))
    def test_verdict_matches_long_division(self, a, f):
        if a.degree <= f.degree and not f.is_zero():
            assert divide_exact(a, f) == reference_quotient(a, f)

    @settings(max_examples=60, deadline=None)
    @given(surd_divisors(), surd_polys(max_degree=4).filter(lambda g: not g.is_zero()))
    def test_cofactor_over_q_sqrt3(self, a, g):
        assert divide_exact(a, a * g) == g == reference_quotient(a, a * g)

    @settings(max_examples=60, deadline=None)
    @given(surd_divisors(), surd_polys(min_degree=2, max_degree=7))
    def test_verdict_over_q_sqrt3(self, a, f):
        if a.degree <= f.degree and not f.is_zero():
            assert divide_exact(a, f) == reference_quotient(a, f)

    @pytest.mark.parametrize("core,f", [
        ("2*x^2 + y^2", "x^4 - 1/3*y^4"),            # cofactor over Q(sqrt(3))
        ("3*x + 2*y", "x^3 + x*y^2"),                # not a divisor
        ("x*y", "x^3*y + x*y^3"),                    # x y factor, rational cofactor
    ])
    def test_named_divisors_over_q_sqrt3(self, core, f):
        # (x - sqrt(3) y) * core against f * (x - sqrt(3) y) and f itself
        a = HomPoly(1, [1, QuadElem(0, -1, 3)]) * parse_poly(core)
        f = parse_poly(f)
        for dividend in (f * HomPoly(1, [1, QuadElem(0, -1, 3)]), f):
            assert divide_exact(a, dividend) == reference_quotient(a, dividend)

    @pytest.mark.parametrize("a,g", [
        ("6*x + 4*y", "x^2 - 1/5*y^2"),             # content 2
        ("3*x^2 + 2*x*y - 5*y^2", "7/2*x - y"),     # leading coefficient 3 and -5
        ("1/6*x^3*y - 1/4*x^2*y^2", "2*x^2 + y^2"),  # x^2 y factor, rational core
    ])
    def test_named_divisors(self, a, g):
        a, g = parse_poly(a), parse_poly(g)
        assert divide_exact(a, a * g) == g

    @pytest.mark.parametrize("a,f", [
        ("3*x + 2*y", "x^2 + y^2"),              # 3 does not divide the first step
        ("4*x + 6*y", "x^2 + y^2"),              # content 2, then 3 does not divide
        ("x*y^2", "x^3 + x*y^2"),                # y^2 does not divide
        ("x + y", "x^3 + 2*x^2*y + 2*x*y^2"),    # remainder in the last step
    ])
    def test_non_divisors(self, a, f):
        a, f = parse_poly(a), parse_poly(f)
        assert divide_exact(a, f) is None is reference_quotient(a, f)


class TestDivideExact:
    def test_constructed_product(self):
        assert divide_exact(parse_poly("x*y"), parse_poly("x^3*y + x*y^3")) == \
            parse_poly("x^2 + y^2")

    def test_not_divisible(self):
        assert divide_exact(parse_poly("x^2"), parse_poly("x^2 + y^2")) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(HomPoly.zero(1), parse_poly("x^2 + y^2"))

    @given(hom_polys(max_degree=4).filter(lambda p: not p.is_zero()),
           hom_polys(max_degree=4))
    def test_roundtrip(self, a, g):
        f = a * g
        got = divide_exact(a, f)
        assert got is not None and a * got == f

    @given(hom_polys(max_degree=3).filter(lambda p: not p.is_zero()),
           hom_polys(min_degree=4, max_degree=7))
    def test_verdict_matches_remainder(self, a, f):
        if a.degree > f.degree:
            return
        got = divide_exact(a, f)
        if got is not None:
            assert a * got == f


def assert_canonical(f, rational=True):
    """f's stored integer parts are in lowest terms over a positive
    denominator, a sqrt(D) part is stored only when it is nonzero, its
    coefficients are Fractions (QuadElems where the sqrt(D) part is nonzero),
    and a rebuild from them equals f."""
    assert f.is_rational() == rational
    assert type(f.coeffs) is tuple
    if rational:
        assert f._surd is None and f._root == 1
        assert all(type(c) is Fraction for c in f.coeffs)
        assert f._den > 0 and gcd(f._den, *f._nums) == 1
        assert f.coeffs == tuple(Fraction(v, f._den) for v in f._nums)
    else:
        assert any(f._surd) and f._root > 1 and len(f._surd) == len(f._nums)
        assert f._den > 0 and gcd(f._den, *f._nums, *f._surd) == 1
        want = tuple(simplify(QuadElem(Fraction(u, f._den), Fraction(v, f._den), f._root))
                     for u, v in zip(f._nums, f._surd))
        assert f.coeffs == want
        assert [type(c) for c in f.coeffs] == [type(c) for c in want]
    twin = HomPoly(f.degree, list(f.coeffs))
    assert twin == f and hash(twin) == hash(f)


def fraction_product(f, g):
    """The coefficients of f * g by the convolution on reference scalars."""
    out = [Surd(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(lift(f.coeffs)):
        for j, b in enumerate(lift(g.coeffs)):
            out[i + j] += a * b
    return tuple(values(out))


# (Fraction-built, kernel-built) pairs of the same polynomial
SQRT3 = QuadElem(0, 1, 3)
SAME_POLY = {
    "product": (lambda: parse_poly("1/3*x^2 + 3/2*x*y - 3*y^2"),
                lambda: parse_poly("1/2*x + 3*y") * parse_poly("2/3*x - y")),
    "power": (lambda: parse_poly("1/8*x^3 + 3/4*x^2*y + 3/2*x*y^2 + y^3"),
              lambda: parse_poly("1/2*x + y") ** 3),
    "rational action": (lambda: parse_poly("1/2*x^2 + x*y + 5/6*y^2"),
                        lambda: act_matrix(parse_poly("1/2*x^2 + 1/3*y^2"),
                                           Mat2(1, 1, 0, 1))),
    "sigma_q(2) action": (lambda: HomPoly(2, [1, 0, 1]),
                          lambda: act_matrix(parse_poly("x^2 + y^2"), sigma_q(2))),
    "diff_op": (lambda: parse_poly("1/2*x^2 + 1/2*y^2"),
                lambda: diff_op(parse_poly("1/2*y"), parse_poly("x^2*y + 1/3*y^3"))),
    "divide_exact": (lambda: parse_poly("1/2*x - 1/4*y"),
                     lambda: divide_exact(parse_poly("2*x + y"),
                                          parse_poly("x^2 - 1/4*y^2"))),
    "negation": (lambda: parse_poly("-1/2*x + y"), lambda: -parse_poly("1/2*x - y")),
    "scalar": (lambda: HomPoly(1, [1, 2]), lambda: parse_poly("3*x + 6*y") * Fraction(1, 3)),
    "zero": (lambda: HomPoly(2, [0, 0, 0]),
             lambda: parse_poly("1/2*x^2 - y^2") - parse_poly("1/2*x^2 - y^2")),
    "degree zero": (lambda: parse_poly("7/2"),
                    lambda: HomPoly.one() * Fraction(-7, 2) * -1),
    "QuadElem with no root": (lambda: parse_poly("2*x + y"),
                              lambda: HomPoly(1, [QuadElem(2), QuadElem(1, 0, 3)])),
    # over Q(sqrt(3)): the odd-degree transforms and sigma_q(4/3) instances of
    # the lemma suite, and a product with both parts
    "odd macwilliams over Q(sqrt(3))": (
        lambda: HomPoly(3, [QuadElem(0, c, 3) for c in (Fraction(15, 16), Fraction(-5, 16),
                                                        Fraction(-3, 16), Fraction(65, 144))]),
        lambda: macwilliams(parse_poly("x^3 + 2*x*y^2 - 1/2*y^3"), Fraction(4, 3))),
    "sigma_q(4/3) action": (
        lambda: naive_action(parse_poly("1/2*x^3 - x^2*y + 3*y^3"), sigma_q(Fraction(4, 3))),
        lambda: act_matrix(parse_poly("1/2*x^3 - x^2*y + 3*y^3"), sigma_q(Fraction(4, 3)))),
    "product over Q(sqrt(3))": (lambda: HomPoly(2, [2, QuadElem(-1, 2, 3),
                                                    QuadElem(0, -1, 3)]),
                                lambda: HomPoly(1, [1, SQRT3]) * parse_poly("2*x - y")),
    "sqrt(2) parts cancel": (lambda: parse_poly("2*x^2"),
                             lambda: HomPoly(1, [QuadElem(0, 1, 2), 0]) ** 2),
}


class TestIntegerStorage:
    """Rational polys store integers over one denominator; whichever route
    builds them, equal polys compare, hash, print and serialize alike."""

    @pytest.mark.parametrize("built,computed", SAME_POLY.values(), ids=SAME_POLY.keys())
    def test_same_poly_two_ways(self, built, computed):
        left, right = built(), computed()
        assert left == right and hash(left) == hash(right)
        assert len({left, right}) == 1
        assert left.coeffs == right.coeffs
        for f in (left, right):
            assert_canonical(f, rational=left.is_rational())
            copy = pickle.loads(pickle.dumps(f))
            assert copy == f and hash(copy) == hash(f) and copy.coeffs == f.coeffs
        if left.is_rational():  # the text forms print rational coefficients only
            assert str(left) == str(right)
            assert left.to_json() == right.to_json()
        assert left.support() == right.support()

    def test_integers_are_reduced_over_a_positive_denominator(self):
        f = homopoly._poly(2, [2, 0, -4], -6)  # as member_with_min_weight divides by w[0]
        assert (f._nums, f._den) == ((-1, 0, 2), 3)
        assert f == parse_poly("-1/3*x^2 + 2/3*y^2")
        assert_canonical(f)

    def test_irrational_poly_keeps_its_tuple(self):
        f = HomPoly(1, [QuadElem(0, 1, 2), 1])
        assert not f.is_rational()
        assert f != HomPoly(1, [0, 1]) and f == HomPoly(1, [QuadElem(0, 1, 2), Fraction(1)])
        assert hash(f) == hash(HomPoly(1, [QuadElem(0, 1, 2), Fraction(1)]))

    def test_mixed_extensions_rejected_at_construction(self):
        with pytest.raises(MixedExtensionError):
            HomPoly(1, [QuadElem(0, 1, 2), QuadElem(0, 1, 3)])
        with pytest.raises(MixedExtensionError):
            HomPoly(2, [QuadElem(1, 1, 5), 0, QuadElem(0, 2, 3)])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        hom_polys(min_degree=n, max_degree=n), hom_polys(min_degree=n, max_degree=n))))
    def test_sum_difference_negation(self, pair):
        f, g = pair
        for got, want in ((f + g, [a + b for a, b in zip(f.coeffs, g.coeffs)]),
                          (f - g, [a - b for a, b in zip(f.coeffs, g.coeffs)]),
                          (-f, [-a for a in f.coeffs])):
            assert got.coeffs == tuple(want)
            assert_canonical(got)

    @settings(max_examples=80, deadline=None)
    @given(hom_polys(max_degree=8),
           st.one_of(fractions, st.integers(-5, 5), st.just(0), st.just(Fraction(-3, 7))))
    def test_scalar_product(self, f, c):
        for got in (f * c, c * f):
            assert got.coeffs == tuple(a * c for a in f.coeffs)
            assert_canonical(got)

    @settings(max_examples=80, deadline=None)
    @given(rational_factors, rational_factors)
    def test_product(self, f, g):
        got = f * g
        assert got.coeffs == fraction_product(f, g)
        assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(hom_polys(max_degree=4), st.integers(0, 5))
    @example(HomPoly(1, [Fraction(1, 6), Fraction(5, 8)]), 5)  # denominators 6^5 8^5...
    @example(HomPoly(1, [Fraction(2, 3), Fraction(4, 3)]), 4)  # ... and a content of 2^4
    def test_power_comes_back_in_lowest_terms(self, f, k):
        want = HomPoly.one()
        for _ in range(k):
            want = HomPoly(want.degree + f.degree, fraction_product(want, f))
        got = f ** k
        assert got.coeffs == want.coeffs
        assert_canonical(got)

    @pytest.mark.parametrize("n", range(7))
    def test_zero_of_each_degree(self, n):
        zero = HomPoly.zero(n)
        f = HomPoly(n, [Fraction(k - 3, k + 1) for k in range(n + 1)])
        sigma = Mat2(Fraction(1, 2), 3, -1, Fraction(2, 5))
        results = [zero, f * 0, f * Fraction(0), f - f, zero * f, -zero,
                   act_matrix(zero, sigma), diff_op(HomPoly.one(), zero)]
        results.append(divide_exact(parse_poly("2*x - 3*y"), zero * parse_poly("x")))
        for got in results:
            assert got.is_zero() and got.support() == []
            assert got.degree in (n, 2 * n) and got == HomPoly.zero(got.degree)
            assert got._den == 1 and set(got._nums) == {0}
            assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(hom_polys(max_degree=10), invertible_mats())
    def test_action(self, f, m):
        got = act_matrix(f, m)
        assert got.coeffs == naive_action(f, m).coeffs
        assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(hom_polys(max_degree=3), hom_polys(min_degree=3, max_degree=9))
    def test_diff_op(self, p, f):
        got = diff_op(p, f)
        assert got.coeffs == reference_diff_op(p, f).coeffs
        assert_canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(divisors(), hom_polys(max_degree=5))
    def test_divide_exact(self, a, g):
        got = divide_exact(a, a * g)
        assert got.coeffs == g.coeffs
        assert_canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(divisors().filter(lambda a: a.degree), hom_polys(max_degree=4),
           st.integers(0, 8), fractions.filter(bool))
    def test_divide_exact_non_divisor(self, a, g, i, c):
        # a*g plus one term: a divides it exactly when the long division does
        f = a * g
        f = f + HomPoly.monomial(f.degree - i % (f.degree + 1), i % (f.degree + 1), c)
        assume(reference_quotient(a, f) is None)
        assert divide_exact(a, f) is None


class TestSurdKernels:
    """Polys over Q(sqrt(D)) run on their stored integer parts, never on the
    Fraction list kernels `unipoly.mul` and `unipoly.div_exact`."""

    @pytest.fixture
    def no_list_kernels(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Fraction list kernel ran")
        monkeypatch.setattr(unipoly, "mul", forbidden)
        monkeypatch.setattr(unipoly, "div_exact", forbidden)

    def test_product_division_and_diff_op(self, no_list_kernels):
        a = HomPoly(2, [1, QuadElem(0, -1, 3), Fraction(1, 2)])
        g = HomPoly(3, [SQRT3, 0, Fraction(-2, 3), QuadElem(1, 1, 3)])
        f = a * g
        assert f.coeffs == fraction_product(a, g)
        assert f == HomPoly(5, list(fraction_product(a, g)))
        assert divide_exact(a, f) == g == reference_quotient(a, f)
        off = f + HomPoly.monomial(5, 0)
        assert divide_exact(a, off) is None is reference_quotient(a, off)
        p = HomPoly(1, [SQRT3, 2])
        assert diff_op(p, g) == reference_diff_op(p, g)
        assert diff_op(a, f) == reference_diff_op(a, f)

    def test_lemma_suite(self, no_list_kernels):
        assert run_duursma_lemma_suite(150, 1) == (150, 150)


class EntryMat2:
    """The entrywise Mat2 that the integer storage replaced: four reference
    scalars and the ring operations on them; the reference for `Mat2`."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = lift((a, b, c, d))

    def entries(self):
        """The entries as fwenum reads them: Fractions or QuadElems."""
        return tuple(values((self.a, self.b, self.c, self.d)))

    def __eq__(self, other):
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        a, b, c, d = self.entries()
        return f"Mat2(a={a!r}, b={b!r}, c={c!r}, d={d!r})"

    def __matmul__(self, o):
        return EntryMat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                         self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def __neg__(self):
        return EntryMat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def transpose(self):
        return EntryMat2(self.a, self.c, self.b, self.d)

    def inverse(self):
        dt = self.det()
        return EntryMat2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)


def assert_same_matrix(got, want):
    """Mat2 `got` has the entries of EntryMat2 `want`, of the same types, and
    the same repr."""
    entries = (got.a, got.b, got.c, got.d)
    assert entries == want.entries()
    assert [type(e) for e in entries] == [type(e) for e in want.entries()]
    assert repr(got) == repr(want)


def assert_same_scalar(got, want):
    # a det or trace whose sqrt parts cancel is a Fraction
    assert got == want and type(got) is type(want.value())


@st.composite
def entry_pairs(draw):
    """Entries of two matrices over Q or over one Q(sqrt(D)), D in {2, 3, 5};
    the second is sometimes the first."""
    rad = draw(st.sampled_from([1, 2, 3, 5]))
    scalars = fractions if rad == 1 else st.one_of(
        fractions, st.builds(lambda a, b: QuadElem(a, b, rad), fractions, fractions))
    left = [draw(scalars) for _ in range(4)]
    right = left if draw(st.booleans()) else [draw(scalars) for _ in range(4)]
    return left, right


class TestMat2Storage:
    """Mat2 on integer parts (M0 + M1 sqrt(D)) / den against the entrywise
    reference."""

    @settings(max_examples=150, deadline=None)
    @given(entry_pairs())
    def test_operations_match_the_entrywise_reference(self, pair):
        (left, right), refs = pair, [EntryMat2(*e) for e in pair]
        m, n = Mat2(*left), Mat2(*right)
        ref_m, ref_n = refs
        assert_same_matrix(m, ref_m)
        assert_same_matrix(m @ n, ref_m @ ref_n)
        assert_same_matrix(n @ m, ref_n @ ref_m)
        assert_same_matrix(-m, -ref_m)
        assert_same_matrix(m.transpose(), ref_m.transpose())
        assert_same_scalar(m.det(), ref_m.det())
        assert_same_scalar(m.trace(), ref_m.trace())
        if ref_m.det():
            assert_same_matrix(m.inverse(), ref_m.inverse())
            assert m @ m.inverse() == Mat2.identity()
        assert (m == n) == (ref_m == ref_n)
        if m == n:
            assert hash(m) == hash(n)
        product = m @ n  # rebuilt from the reference's entries
        twin = Mat2(*(ref_m @ ref_n).entries())
        assert twin == product and hash(twin) == hash(product)

    @pytest.mark.parametrize("built,computed", [
        (lambda: Mat2(0, 1, 1, 0), lambda: sigma_q(2) @ TAU @ sigma_q(2)),
        (lambda: Mat2(-1, 0, 0, -1), lambda: -(sigma_q(4) @ sigma_q(4))),
        (lambda: Mat2(*[QuadElem(0, e, 3) for e in (Fraction(1, 2), Fraction(1, 6),
                                                     Fraction(1, 2), Fraction(-1, 2))]),
         lambda: sigma_q(Fraction(4, 3)).transpose().transpose()),
        (lambda: Mat2(Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 2)),
         lambda: (sigma_q(Fraction(4, 3)) @ TAU) @ (sigma_q(Fraction(4, 3)) @ TAU)),
        (lambda: Mat2(0, QuadElem(0, Fraction(-1, 3), 3), SQRT3, 0),
         lambda: sigma_q(Fraction(4, 3)) @ TAU @ sigma_q(Fraction(4, 3)) @ TAU
         @ sigma_q(Fraction(4, 3)) @ TAU),
    ], ids=["sigma_2 tau sigma_2", "-sigma_4^2", "sigma_4/3 twice transposed",
            "(sigma_4/3 tau)^2", "(sigma_4/3 tau)^3"])
    def test_same_matrix_two_ways(self, built, computed):
        left, right = built(), computed()
        assert left == right and hash(left) == hash(right) and len({left, right}) == 1
        assert repr(left) == repr(right)
        for m in (left, right):
            for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
            assert (m._den > 0 and gcd(m._den, *m._nums, *(m._surd or ())) == 1
                    and (m._surd is None) == (m._root == 1))

    def test_entries_from_two_extensions_raise_when_built(self):
        # the entrywise Mat2 took these and raised at the first product
        with pytest.raises(MixedExtensionError):
            Mat2(QuadElem(0, 1, 2), QuadElem(0, 1, 3), 0, 1)
        with pytest.raises(MixedExtensionError):
            Mat2(1, QuadElem(1, 1, 5), QuadElem(0, 2, 3), 1)
        with pytest.raises(MixedExtensionError):
            sigma_q(2) @ sigma_q(Fraction(4, 3))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 14), invertible_mats())
    def test_action_by_a_multiple_with_both_parts(self, data, n, m):
        # lam = 1 + sqrt(2): M0 and M1 are both nonzero, which no caller
        # builds, and act_matrix names the restriction
        lam = Surd(1, 1, 2)
        sigma = Mat2(*values(lam * e for e in (m.a, m.b, m.c, m.d)))
        assert sigma._surd is not None and any(sigma._nums)
        coeffs = st.one_of(fractions, st.builds(lambda a, b: QuadElem(a, b, 2),
                                                fractions, fractions))
        f = HomPoly(n, [data.draw(coeffs) for _ in range(n + 1)])
        with pytest.raises(ValueError, match="both parts nonzero"):
            act_matrix(f, sigma)

    def test_irrational_poly_repr(self):
        f = HomPoly(1, [QuadElem(0, 1, 2), 1])
        assert repr(f) == "HomPoly(1, [sqrt(2), Fraction(1, 1)])"
        assert repr(act_matrix(parse_poly("x^3 - y^3"), sigma_q(Fraction(4, 3)))) == (
            "HomPoly(3, [Fraction(0, 1), 3/2*sqrt(3), -sqrt(3), 7/18*sqrt(3)])")
        # the rational repr is the text form, as before
        assert repr(parse_poly("x^2 + 1/3*y^2")) == "HomPoly('x^2 + 1/3*y^2')"


class TestWeightProfile:
    def test_w12(self, printed):
        p = weight_profile(printed["w12"], 2)
        assert (p.d, p.d_perp, p.divisibility) == (4, 4, 4)

    def test_w11(self, printed):
        p = weight_profile(printed["w11"], 4)
        assert p.d == 4 and p.divisibility == 2

    def test_two_term(self):
        n = 9
        p = weight_profile(parse_poly("x^9 + y^9"), 2)
        assert p.d == n and p.divisibility == n

    def test_min_weight_agrees(self, printed):
        for name, q in (("w12", 2), ("w11", 4), ("phi6", Fraction(4, 3))):
            assert min_weight(printed[name]) == weight_profile(printed[name], q).d

    def test_errors(self):
        for profile in (lambda f: weight_profile(f, 2), min_weight):
            with pytest.raises(ValueError, match="zero polynomial"):
                profile(HomPoly.zero(3))
            with pytest.raises(ValueError, match="x\\^n alone"):
                profile(HomPoly.monomial(5, 0))  # bare x^n
            with pytest.raises(ValueError, match="monic"):
                profile(parse_poly("2*x^2 + y^2"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
               fractions, min_size=n, max_size=n).filter(any)),
           st.sampled_from([2, 3, 4, Fraction(4, 3)]))
    # (x + (q-1)y)^n transforms to q^(n/2) x^n, which has no positive weight
    @example([Fraction(1)], 2)
    @example([Fraction(4), Fraction(4)], 3)
    def test_d_perp_matches_the_transform(self, tail, q):
        # monic with a positive weight; odd degrees take sqrt(q) in the
        # reference transform but not in the shortcut
        f = HomPoly(len(tail), [Fraction(1), *tail])
        def reference():
            return homopoly._min_positive_support(macwilliams(f, q))
        try:
            d_perp = weight_profile(f, q).d_perp
        except ValueError as exc:
            with pytest.raises(ValueError) as ref_exc:
                reference()
            assert str(ref_exc.value) == str(exc)
            return
        assert d_perp == reference()

    def test_no_transform_and_no_square_root(self, printed, monkeypatch):
        def forbidden(*args):
            raise AssertionError("weight_profile must not take this path")

        monkeypatch.setattr(homopoly, "macwilliams", forbidden)
        assert not hasattr(QuadElem, "__pow__")  # no sqrt(q)^n on scalars
        p = weight_profile(parse_poly("x^5 + y^5"), 2)  # odd degree, sqrt(2)
        assert (p.d, p.d_perp) == (5, 2)
        assert weight_profile(printed["w12"], 2).d_perp == 4


class TestPochhammer:
    @pytest.mark.parametrize("a,n,expected", [
        (2, 0, 1),
        (2, 3, 24),
        (2, 4, 120),  # (d-2)_3 factor at d = 4 times the next step
        (Fraction(1, 2), 2, Fraction(3, 4)),
    ])
    def test_values(self, a, n, expected):
        assert pochhammer(a, n) == expected

    def test_extremal_factor(self):
        d = 4
        assert pochhammer(d - 2, 3) == 24

    def test_negative_length(self):
        with pytest.raises(ValueError):
            pochhammer(2, -1)
