import random
from fractions import Fraction

import pytest

from fwenum import families, homopoly
from fwenum.families import (
    FAMILIES,
    Bound,
    ExtremalConstructionError,
    FamilySpec,
    NotInRingError,
    basis,
    basis_exponents,
    bound,
    burmann_coefficient,
    classical_bound,
    expand_in_generators,
    extremal,
    family,
    generator,
    is_fwe,
    member_with_min_weight,
)
from fwenum import linalg
from fwenum.homopoly import HomPoly, parse_poly, transform_sign, weight_profile
from reference import series_div

F = Fraction


class TestGenerators:
    @pytest.mark.parametrize("name,key", [
        ("phi4", "phi4"), ("phi3", "phi3"), ("phi6", "phi6"),
        ("wh8", "wh8"), ("w12", "w12"),
    ])
    def test_printed_forms(self, printed, name, key):
        assert generator(name) == printed[key]

    def test_w2_parameterised(self):
        assert generator("w2", F(4, 3)) == parse_poly("x^2 + 1/3*y^2")
        assert generator("w2", 2) == parse_poly("x^2 + y^2")
        with pytest.raises(ValueError):
            generator("w2")

    @pytest.mark.parametrize("q", [1, 0, -3, F(-1, 2)])
    def test_w2_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match=r"^q must be positive and != 1$"):
            generator("w2", q)

    def test_w12prime_product_form(self):
        expected = (
            parse_poly("x^2*y^2")
            * parse_poly("x^2 - y^2") ** 2
            * parse_poly("9*x^2 - y^2") ** 2
            * F(1, 81)
        )
        assert generator("w12prime") == expected

    def test_w12prime_generator_combination(self):
        # exact arithmetic fixes the normalisation at 1/12 (not the printed 1/2)
        w2 = generator("w2", F(4, 3))
        phi6 = generator("phi6")
        assert generator("w12prime") == (w2 ** 6 - phi6 ** 2) * F(1, 12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generator("phi5")

    def test_family_generator_transforms(self):
        for fam in FAMILIES.values():
            assert transform_sign(fam.even_gen, fam.q) == 1
            assert transform_sign(fam.odd_gen, fam.q) == -1


class TestBasis:
    def test_type1_degree_12(self):
        # independent enumeration of 2l + 4m = 12 with m odd
        expected = sorted(
            (l, m)
            for m in range(0, 4)
            for l in range(0, 7)
            if 2 * l + 4 * m == 12 and m % 2 == 1
        )
        assert sorted(basis_exponents(family("type1"), 12)) == expected
        assert len(basis(family("type1"), 12)) == 2

    def test_type4_degree_5_unique(self):
        assert basis_exponents(family("type4"), 5) == [(1, 1)]

    def test_q43_odd_degree_18_span(self):
        fam = family("q43-odd")
        assert basis_exponents(fam, 18) == [(6, 1), (0, 3)]
        phi6 = generator("phi6")
        coords = expand_in_generators(phi6 ** 3, fam)
        assert coords == [0, 1]
        coords = expand_in_generators(generator("w12prime") * phi6, fam)
        assert len(coords) == 2  # inside the span

    def test_empty_basis(self):
        assert basis(family("type4"), 6) == []
        assert basis(family("ozeki"), 16) == []

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            basis_exponents(family("type1"), 0)


class TestExpand:
    def test_w12_coordinates(self, printed):
        assert expand_in_generators(printed["w12"], family("type1")) == \
            [F(9, 8), F(-1, 8)]

    def test_basis_element_itself(self):
        fam = family("type1")
        assert expand_in_generators(generator("phi4"), fam) == [1]

    def test_w11_coordinates(self, printed):
        assert expand_in_generators(printed["w11"], family("type4")) == \
            [F(8, 9), F(1, 9)]

    def test_not_in_ring(self):
        with pytest.raises(NotInRingError):
            expand_in_generators(parse_poly("x^4 + y^4"), family("type1"))
        with pytest.raises(NotInRingError):
            expand_in_generators(parse_poly("x^7"), family("type1"))


class TestBounds:
    @pytest.mark.parametrize("fam_name,n,expected", [
        ("type1", 12, 4), ("type1", 20, 6), ("type4", 11, 4),
        ("q43", 10, 2), ("q43", 12, 4), ("q43-odd", 18, 4),
        ("q43-odd", 30, 6), ("ozeki", 12, 4), ("ozeki", 36, 8),
    ])
    def test_values(self, fam_name, n, expected):
        assert bound(family(fam_name), n).d_max == expected

    def test_conjectural_flag(self):
        assert bound(family("q43-odd"), 30).proven
        assert not bound(family("q43-odd"), 28).proven
        assert bound(family("q43-odd"), 28).d_max == 4

    def test_classical_reference_bounds(self):
        assert classical_bound("type1", 12) == 2 * (12 // 8) + 2 == 4
        assert classical_bound("type4", 12) == 6
        with pytest.raises(ValueError):
            classical_bound("q43", 12)

    def test_empty_degree_rejected(self):
        with pytest.raises(ValueError):
            bound(family("type4"), 6)


# the per-family bound formulas as they were written out before the bound was
# derived from the spec; kept as the reference the derived formula must match
_LITERAL_BOUNDS = {
    "type1": lambda n: (2 * ((n - 4) // 8) + 2, True),
    "type4": lambda n: (2 * ((n - 3) // 6) + 2, True),
    "q43": lambda n: (2 * (n // 12) + 2, True),
    "q43-odd": lambda n: (2 * ((n - 6) // 12) + 2, n % 12 == 6),
    "ozeki": lambda n: (4 * ((n - 12) // 24) + 4, True),
}


class TestFamilyTable:
    @pytest.mark.parametrize("fam_name", sorted(FAMILIES))
    def test_bound_matches_literal_formulas_to_240(self, fam_name):
        fam = FAMILIES[fam_name]
        degrees = [n for n in range(1, 241) if basis_exponents(fam, n)]
        assert degrees
        for n in degrees:
            b = bound(fam, n)
            assert (b.d_max, b.proven) == _LITERAL_BOUNDS[fam_name](n), (fam_name, n)

    def test_sign_and_ring_degrees_match_literals(self):
        assert {name: (fam.sign, fam.ring_degrees) for name, fam in FAMILIES.items()} == {
            "type1": (-1, (2, 4)), "type4": (-1, (2, 3)), "q43": (1, (2, 12)),
            "q43-odd": (-1, (2, 6)), "ozeki": (-1, (8, 12)),
        }

    def test_groups(self):
        assert {name: fam.group for name, fam in FAMILIES.items() if fam.group} == {
            "type1": "g1minus", "type4": "g4minus", "q43-odd": "g43minus", "q43": "g43",
        }

    def test_identity_data_on_type1_and_type4_only(self):
        with_data = {name for name, fam in FAMILIES.items()
                     if fam.divisor_base is not None or fam.diff_operator is not None}
        assert with_data == {"type1", "type4"}
        assert family("type1").divisor_base == parse_poly("x^3*y - x*y^3")
        assert family("type4").divisor_base == parse_poly("x^2*y - y^3")


class TestExtremal:
    def test_printed_type1(self, printed):
        fam = family("type1")
        assert extremal(fam, 12) == printed["w12"]
        assert extremal(fam, 14) == printed["w14"]
        assert extremal(fam, 20) == printed["w20"]

    def test_printed_combinations(self, printed):
        w22 = generator("w2", 2)
        phi4 = generator("phi4")
        assert extremal(family("type1"), 14) == \
            (w22 ** 5 * phi4 * 17 - w22 * phi4 ** 3) * F(1, 16)
        assert extremal(family("type1"), 20) == \
            (w22 ** 8 * phi4 * 235 + w22 ** 4 * phi4 ** 3 * 10 + phi4 ** 5 * 11) * F(1, 256)

    def test_printed_type4(self, printed):
        assert extremal(family("type4"), 11) == printed["w11"]

    def test_printed_q43(self, printed):
        fam = family("q43")
        assert extremal(fam, 12) == printed["w12e_43"]
        assert extremal(fam, 12) == \
            (generator("w2", F(4, 3)) ** 6 * 5 + generator("phi6") ** 2) * F(1, 6)
        assert extremal(fam, 10) == generator("w2", F(4, 3)) ** 5
        assert extremal(fam, 22) == printed["w22e_43"]

    def test_degree_18_q43_odd(self):
        fam = family("q43-odd")
        phi6 = generator("phi6")
        combo = phi6 ** 3 + generator("w12prime") * phi6 * 15
        w = extremal(fam, 18)
        assert w == combo
        assert w.coeffs[2] == 0 and w.coeffs[4] == F(-85, 3)
        # ground truth for the printed line whose tail monomial is garbled:
        # the degree-14 term is +85/729 x^4 y^14
        assert w.coeffs[14] == F(85, 729)
        assert w.coeffs[18] == F(-1, 19683)

    def test_degree_30_q43_odd_combination(self):
        w2 = generator("w2", F(4, 3))
        phi6 = generator("phi6")
        combo = (w2 ** 12 * phi6 * 10075 - w2 ** 6 * phi6 ** 3 * 2600
                 + phi6 ** 5 * 949) * F(1, 8424)
        assert extremal(family("q43-odd"), 30) == combo
        assert combo.coeffs[6] == F(-14065, 81)

    def test_ozeki_smallest(self, printed):
        assert extremal(family("ozeki"), 12) == printed["w12"]

    def test_bound_saturation_sample(self):
        for fam in FAMILIES.values():
            for n in range(1, 41):
                if not basis_exponents(fam, n):
                    continue
                w = extremal(fam, n)
                d = next(i for i in range(1, n + 1) if w.coeffs[i])
                assert d == bound(fam, n).d_max
                assert w.coeffs[0] == 1

    def test_no_basis(self):
        with pytest.raises(ValueError):
            extremal(family("ozeki"), 14)


def _extremal_by_nullspace(fam, n):
    """Reference for extremal: the one nullspace vector of A_1..A_(d_max-1) = 0
    over basis(fam, n), expanded over the basis products and made monic."""
    elems = basis(fam, n)
    rows = [[b.coeffs[i] for b in elems] for i in range(1, bound(fam, n).d_max)]
    (vec,) = linalg.nullspace(rows, len(elems))
    w = HomPoly.zero(n)
    for cj, b in zip(vec, elems):
        if cj:
            w = w + b * cj
    return w * (1 / w.coeffs[0])


class TestExtremalAgainstNullspace:
    @pytest.mark.parametrize("fam_name", sorted(FAMILIES))
    def test_every_degree_to_96(self, fam_name):
        fam = FAMILIES[fam_name]
        degrees = [n for n in range(1, 97) if basis_exponents(fam, n)]
        assert degrees
        for n in degrees:
            assert extremal(fam, n) == _extremal_by_nullspace(fam, n), (fam_name, n)

    @pytest.mark.parametrize("fam_name,n", [
        ("type1", 150), ("type4", 151), ("q43", 150), ("q43-odd", 150), ("ozeki", 156)])
    def test_high_degree(self, fam_name, n):
        fam = family(fam_name)
        assert extremal(fam, n) == _extremal_by_nullspace(fam, n)

    @pytest.mark.parametrize("fam_name", sorted(FAMILIES))
    def test_cold_caches(self, fam_name):
        # each call starts from empty caches, as the first call of a process does
        fam = FAMILIES[fam_name]
        degrees = [n for n in range(1, 97) if basis_exponents(fam, n)]
        for n in degrees[:4] + degrees[-2:]:
            families._burmann_family.cache_clear()
            families._extremal.cache_clear()
            assert extremal(fam, n) == _extremal_by_nullspace(fam, n), (fam_name, n)


def _power_by_products(f, alpha, limit):
    """f^alpha mod s^limit over Fractions: |alpha| series products of f, or
    of 1/f for alpha < 0."""
    base = [F(c) for c in f]
    if alpha < 0:
        base = series_div([F(1)], base, limit)
    base = (base + [F(0)] * limit)[:limit]
    out = [F(1)] + [F(0)] * (limit - 1)
    for _ in range(abs(alpha)):
        out = [sum(out[j] * base[k - j] for j in range(k + 1)) for k in range(limit)]
    return out


class TestPowerSeries:
    @pytest.mark.parametrize("fam_name", sorted(FAMILIES))
    def test_matches_repeated_products(self, fam_name):
        # E and O in s = y^c, at the integer scale of the extremal solve
        fam = FAMILIES[fam_name]
        k, _, _, e_m, o_m, *_ = families._burmann_family(fam)
        big_l = (84 - fam.parity * fam.odd_gen.degree) // fam.even_gen.degree
        for f in (e_m, o_m):
            for alpha in (k, -1, -k, -big_l):
                assert families._power_series(f, alpha, 12) == \
                    _power_by_products(f, alpha, 12), (fam_name, alpha)

    def test_inexact_division_raises(self):
        # (1 + s)^(1/2) = 1 + s/2 + ... is not an integer series
        with pytest.raises(AssertionError, match="^power series coefficient 1 "
                                                 "is not an integer$"):
            families._power_series([1, 1], F(1, 2), 3)

    def test_generator_off_the_multiples_of_c(self):
        # the type1 generators carry y^2, so c = 4 is not a divisibility
        fam = family("type1")
        spec = FamilySpec("c4", fam.q, 4, fam.even_gen, fam.odd_gen, fam.parity)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^c4: a generator has a term off the "
                                 r"multiples of c = 4$"):
            extremal(spec, 12)


def _with_bound_shift(monkeypatch, shift):
    real = families.bound
    monkeypatch.setattr(
        families, "bound", lambda fam, n: Bound(real(fam, n).d_max + shift, True))


class TestExtremalChecks:
    """One test per ExtremalConstructionError raised by extremal."""

    def test_undetermined_coefficient_is_dimension_above_one(self, monkeypatch):
        # type1 n=20: J = 2, v = 2; at d = 4 the coefficient b_2 is free
        _with_bound_shift(monkeypatch, -2)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^type1 degree 20: cancellation space has "
                                 r"dimension 2, expected 1$"):
            extremal(family("type1"), 20)
        fam = family("type1")
        rows = [[b.coeffs[i] for b in basis(fam, 20)] for i in range(1, 4)]
        assert len(linalg.nullspace(rows, 3)) == 2

    def test_nonzero_residual_is_dimension_zero(self, monkeypatch):
        # at d = d_max + c the row at the true bound must vanish too, and cannot
        _with_bound_shift(monkeypatch, 2)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^type1 degree 20: cancellation space has "
                                 r"dimension 0, expected 1$"):
            extremal(family("type1"), 20)

    def test_generators_not_monic(self):
        fam = family("type1")
        spec = FamilySpec("scaled", fam.q, fam.c, fam.even_gen * 2, fam.odd_gen,
                          fam.parity)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^scaled degree 12: cancellation space is not "
                                 r"monic-normalisable$"):
            extremal(spec, 12)

    def test_coefficient_at_the_bound_vanishes(self, monkeypatch):
        # d = d_max - 1 is odd, and every member has A_d = 0 there
        _with_bound_shift(monkeypatch, -1)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^type1 degree 20: coefficient vanishes at the "
                                 r"bound d = 5$"):
            extremal(family("type1"), 20)

    def test_generator_degrees_not_commensurate(self):
        fam = family("type4")
        spec = FamilySpec("odd-degrees", fam.q, fam.c, fam.odd_gen, fam.even_gen, 0)
        with pytest.raises(ExtremalConstructionError,
                           match=r"^odd-degrees: 2\*deg\(odd_gen\) is not a "
                                 r"multiple of deg\(even_gen\)$"):
            extremal(spec, 6)

    def test_second_call_is_a_cache_hit(self):
        fam = family("q43")
        first = extremal(fam, 98)
        hits = families._extremal.cache_info().hits
        assert extremal(fam, 98) is first
        assert families._extremal.cache_info().hits == hits + 1


class TestIsFwe:
    def test_w12(self, printed):
        res = is_fwe(printed["w12"], 2, 4)
        assert res.ok and res.sign == -1
        assert res.profile.d == 4 and res.profile.d_perp == 4

    def test_hamming_has_plus_sign(self, printed):
        res = is_fwe(printed["wh8"], 2, 4)
        assert not res.ok and res.sign == 1

    def test_invariant_generator(self):
        res = is_fwe(parse_poly("x^2 + y^2"), 2, 2)
        assert not res.ok and res.sign == 1

    def test_divisibility_mismatch(self, printed):
        res = is_fwe(printed["w11"], 4, 4)  # weights 4,6,8,10: gcd 2, not 4
        assert not res.ok and res.sign == -1

    def test_one_macwilliams_expansion(self, monkeypatch):
        # d_perp and the sign are both read off one unscaled image
        f = extremal(family("type1"), 40)
        degrees = []
        act = homopoly.act_matrix
        monkeypatch.setattr(homopoly, "act_matrix",
                            lambda g, sigma: degrees.append(g.degree) or act(g, sigma))
        res = is_fwe(f, 2, 4)
        assert degrees == [40]
        assert (res.ok, res.reason) == (False, "weights are not divisible by 4")
        assert (res.sign, res.profile.d_perp) == (transform_sign(f, 2),
                                                  weight_profile(f, 2).d_perp) == (-1, 10)


class TestBurmann:
    def test_printed_values(self):
        assert burmann_coefficient(family("q43"), 1, 5) == F(220, 27)
        assert burmann_coefficient(family("q43-odd"), 2) == F(-14065, 81)
        assert burmann_coefficient(family("q43"), 0, 1) == F(1, 3)

    def test_matches_w2_coefficient(self):
        # mu = 0, nu = 1: degree 2 extremal is W_2 itself
        assert burmann_coefficient(family("q43"), 0, 1) == \
            generator("w2", F(4, 3)).coeffs[2]

    @pytest.mark.parametrize("mu", range(0, 4))
    @pytest.mark.parametrize("nu", range(0, 6))
    def test_equals_extremal_coefficient_invariant_family(self, mu, nu):
        if (mu, nu) == (0, 0):
            return
        fam = family("q43")
        n = 2 * (6 * mu + nu)
        value = burmann_coefficient(fam, mu, nu)
        assert value > 0
        assert extremal(fam, n).coeffs[2 * mu + 2] == value

    @pytest.mark.parametrize("mu", range(2, 5))
    def test_equals_extremal_coefficient_fwe_family(self, mu):
        fam = family("q43-odd")
        value = burmann_coefficient(fam, mu)
        assert value < 0
        assert extremal(fam, 12 * mu + 6).coeffs[2 * mu + 2] == value

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            burmann_coefficient(family("q43"), 0, 0)
        with pytest.raises(ValueError):
            burmann_coefficient(family("q43"), 1, 6)
        with pytest.raises(ValueError):
            burmann_coefficient(family("q43-odd"), 1)
        with pytest.raises(ValueError):
            burmann_coefficient(family("type1"), 1, 1)


class TestBasisMembersAreEnumerators:
    @pytest.mark.parametrize("fam_name", sorted(FAMILIES))
    def test_transform_sign_and_divisibility_to_60(self, fam_name):
        fam = FAMILIES[fam_name]
        for n in range(1, 61):
            for f in basis(fam, n):
                assert transform_sign(f, fam.q) == fam.sign, (fam_name, n)
                profile = weight_profile(f, fam.q)
                assert profile.divisibility % fam.c == 0, (fam_name, n)


def test_member_with_min_weight_deterministic():
    fam = family("type1")
    w1 = member_with_min_weight(fam, 20, 4, random.Random(5))
    w2 = member_with_min_weight(fam, 20, 4, random.Random(5))
    assert w1 == w2
    assert w1.coeffs[0] == 1 and w1.coeffs[2] == 0 and w1.coeffs[4] != 0


def _member_by_basis_coordinates(fam, n, d_target, rng):
    """Reference for member_with_min_weight: the random combination is taken
    of the nullspace vectors in basis coordinates, and only then expanded
    over the basis products."""
    elems = basis(fam, n)
    if not elems:
        return None
    rows = [[b.coeffs[i] for b in elems] for i in range(1, d_target)]
    kernel = linalg.nullspace(rows, len(elems))
    if not kernel:
        return None
    for _ in range(32):
        coeffs = [Fraction(0)] * len(elems)
        for vec in kernel:
            c = Fraction(rng.randint(-9, 9))
            coeffs = [a + c * v for a, v in zip(coeffs, vec)]
        lead = sum(coeffs)
        if lead == 0:
            continue
        w = HomPoly.zero(n)
        for cj, b in zip(coeffs, elems):
            if cj:
                w = w + b * (cj / lead)
        if w.coeffs[d_target]:
            return w
    return None


# the degrees of the Duursma-Okuda suite
@pytest.mark.parametrize("fam_name,degrees", [
    ("type1", range(12, 23, 2)), ("type4", range(9, 18, 2))])
@pytest.mark.parametrize("d_target", [4, 6])
def test_member_with_min_weight_matches_basis_coordinates(fam_name, degrees, d_target):
    fam = family(fam_name)
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for n in list(degrees) * 2:
            assert (member_with_min_weight(fam, n, d_target, rng)
                    == _member_by_basis_coordinates(fam, n, d_target, ref_rng)), (n, seed)
            assert rng.getstate() == ref_rng.getstate(), (n, seed)
