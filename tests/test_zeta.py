import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb, isqrt, ldexp, pi

import mpmath as mp
from mpmath import libmp
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import P12E_DEN, P12E_NUM, zeta_identity_holds
from reference import Surd, lift
import fwenum
from fwenum import cli, homopoly, unipoly, zeta as zeta_mod
from fwenum.families import extremal, family, generator
from fwenum.homopoly import (
    HomPoly,
    Mat2,
    TAU,
    act_matrix,
    diff_op,
    divide_exact,
    macwilliams,
    parse_poly,
    sigma_q,
    transform_sign,
    weight_profile,
)
from fwenum.scalar import QuadElem, sqrt_rational
from fwenum.unipoly import _integer_coeffs
from fwenum.zeta import (
    DIFF_OPERATORS,
    _proportionality,
    RHConvergenceError,
    ZetaPoly,
    functional_equation_check,
    mds_enumerator,
    _mds_poly,
    rh_check,
    run_duursma_lemma_suite,
    run_duursma_okuda_suite,
    star_operator,
    star_zeta_factor,
    verify_divisibility_prop,
    verify_duursma_okuda,
    verify_extremal_diff_identity,
    verify_star,
    verify_zeta_binomial_identity,
    zeta_checked,
    zeta_from_genfunc,
    zeta_from_mds,
)

F = Fraction
Q43 = F(4, 3)


def forward_substitution(c: list, q: Fraction, d: int) -> list[Fraction]:
    """P's coefficients p_k by forward substitution on the defining identity:
    the reference for the closed form of `_genfunc_route` and for the
    binomial moments of `_zeta_mds`.

    The equation for y^i x^(n-i), i = d+k, reads
    c_k = sum_t s_t p_(k-t), where s is the series of (1-T)^(i-1)/(1-qT),
    s_t = q s_(t-1) + (-1)^t C(i-1, t), so p_k = c_k - sum_(t>=1) s_t p_(k-t).
    """
    p = []
    for k, acc in enumerate(c):
        i = d + k
        s, binom = F(1), 1  # s_t, C(i-1, t)
        for t in range(1, k + 1):
            binom = binom * (i - t) // t
            s = q * s + (-binom if t % 2 else binom)
            acc -= s * p[k - t]
        p.append(F(acc))
    return p


@pytest.fixture(scope="module")
def p12e():
    return zeta_from_genfunc(extremal(family("q43"), 12), Q43)


class TestZetaExtraction:
    def test_p12e_printed(self, p12e):
        assert p12e.coeffs == tuple(F(c, P12E_DEN) for c in P12E_NUM)
        assert p12e.degree == 6 and p12e.genus == 3

    @pytest.mark.parametrize("q", [2, 4, Q43, F(9, 2)])
    def test_w2q_gives_constant_one(self, q):
        w2q = HomPoly(2, [1, 0, F(q) - 1])
        p = zeta_checked(w2q, q)
        assert p.coeffs == (F(1),)
        assert zeta_identity_holds(w2q, q, p.coeffs, 2)

    def test_w2_fifth_power_factorisation(self, p12e):
        p10 = zeta_checked(generator("w2", Q43) ** 5, Q43)
        assert list(p10.coeffs) == unipoly.mul([F(3), F(-6), F(4)],
                                               list(p12e.coeffs))

    def test_identity_oracle_on_family_members(self, printed, p12e):
        # independent truncated-series expansion of the defining identity
        assert zeta_identity_holds(extremal(family("q43"), 12), Q43,
                                   p12e.coeffs, 4)
        w12 = printed["w12"]
        p = zeta_from_genfunc(w12, 2)
        assert zeta_identity_holds(w12, 2, p.coeffs, 4)
        w11 = printed["w11"]
        p11 = zeta_from_genfunc(w11, 4)
        assert zeta_identity_holds(w11, 4, p11.coeffs, 4)

    def test_cross_method_agreement(self, printed):
        for w, q in [
            (printed["w12"], 2),
            (printed["w14"], 2),
            (printed["w11"], 4),
            (printed["w12e_43"], Q43),
            (printed["w22e_43"], Q43),
            (extremal(family("ozeki"), 36), 2),
        ]:
            assert zeta_from_genfunc(w, q) == zeta_from_mds(w, q)

    def test_functional_equation_tested_once(self, monkeypatch):
        w = extremal(family("q43"), 12)
        calls = []

        def spy(p, _fn=functional_equation_check):
            calls.append(p)
            return _fn(p)

        monkeypatch.setattr(zeta_mod, "functional_equation_check", spy)
        p = zeta_checked(w, Q43)
        assert len(calls) == 1 and p.sign == 1 and (p.n, p.d) == (12, 4)
        for route in (zeta_from_genfunc, zeta_from_mds):
            assert route(w, Q43).sign == 1

    def test_d_perp_requirement(self):
        # d and d_perp must both be at least 2: at q = 2, x^3 + x^2*y has
        # d = 1, and x^4 + 2*y^4 has d = 4 but d_perp = 1
        for text, d in (("x^3 + x^2*y", 1), ("x^4 + 2*y^4", 4)):
            with pytest.raises(ValueError, match=f"got d = {d}, d_perp = 1$"):
                zeta_from_genfunc(parse_poly(text), 2)

    @given(st.sampled_from([F(2), F(4), Q43, F(1, 3)]), st.integers(3, 8),
           st.lists(st.integers(-4, 4), min_size=7, max_size=7),
           st.lists(st.integers(-4, 4), min_size=7, max_size=7),
           st.lists(st.booleans(), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_d_perp_read_off_one_image_coefficient(self, q, n, nums, surd, balance):
        # monic members with d >= 2, over Q(sqrt(2)); where balance says so,
        # A_2 is chosen on that part (rational, sqrt(2)) so that the part's
        # x^(n-1) y coefficient of the image vanishes; d_perp >= 2 when both do
        a, b = q.numerator, q.denominator
        weight = [(a - b) * n - a * i for i in range(n + 1)]
        rat = [F(1), F(0)] + [F(v) for v in nums[:n - 1]]
        sur = [F(0), F(0)] + [F(v) for v in surd[:n - 1]]
        for part, balanced in zip((rat, sur), balance):
            if balanced:
                assume(weight[2])
                part[2] -= sum(c * v for c, v in zip(weight, part)) / weight[2]
        assume(any(rat[2:]) or any(sur[2:]))
        w = HomPoly(n, [QuadElem(r, v, 2) for r, v in zip(rat, sur)])
        d_perp = weight_profile(w, q).d_perp
        assert d_perp >= 2 or not all(balance)
        try:
            zeta_from_genfunc(w, q)
            message = ""
        except ValueError as exc:
            message = str(exc)
        assert message.startswith("zeta extraction needs") == (d_perp < 2)

    def test_json_schema(self, p12e):
        obj = json.loads(p12e.to_json())
        assert obj["q"] == "4/3" and obj["n"] == 12 and obj["d"] == 4
        assert obj["genus"] == "3" and obj["sign"] == 1
        assert obj["coeffs"][0] == "1/27"


class TestIntegerStorage:
    """The zeta steps read P's stored ints, with no Fraction round trip."""

    @staticmethod
    def callers(monkeypatch, module, name):
        """Patch module.name with a spy; the list it fills holds the
        (module, function) of each caller."""
        calls, fn = [], getattr(module, name)

        def spy(*args, **kwargs):
            frame = sys._getframe(1)
            calls.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_scan_converts_no_coefficients_back(self, monkeypatch, capsys):
        calls = self.callers(monkeypatch, zeta_mod, "_integer_coeffs")
        ZetaPoly([F(1, 2), 3], 2)  # the spy sees the zeta module's calls
        assert calls == [(zeta_mod.__name__, "__init__")]
        calls.clear()
        assert cli.main(["scan", "--family", "type1", "-n", "4..28"]) == 0
        names = {name for _, name in calls}
        assert not names

    @pytest.mark.parametrize("argv", [
        ["verify", "star", "--family", "type1", "-n", "44"],
        ["verify", "zeta-binomial", "--family", "type4", "-n", "45"],
    ], ids=["star", "zeta-binomial"])
    def test_verifiers_multiply_no_fractions(self, argv, monkeypatch, capsys):
        calls = self.callers(monkeypatch, unipoly, "mul")
        assert cli.main(argv) == 0
        assert not [call for call in calls if call[0] == zeta_mod.__name__]


@pytest.fixture(scope="module", params=[("type1", 140), ("q43", 120)],
                ids=lambda p: f"{p[0]}-n{p[1]}")
def high_extremal(request):
    fam = family(request.param[0])
    return fam, extremal(fam, request.param[1])


class TestHighDegree:
    def test_macwilliams_involution_and_sign(self, high_extremal):
        fam, w = high_extremal
        image = macwilliams(w, fam.q)
        assert macwilliams(image, fam.q) == w
        assert transform_sign(w, fam.q) == fam.sign

    def test_zeta_checked_runs_and_matches_both_routes(self, high_extremal,
                                                       monkeypatch):
        fam, w = high_extremal
        results, args_seen = {}, {}
        for route in ("_genfunc_route", "_zeta_mds"):
            def spy(*args, _route=route, _fn=getattr(zeta_mod, route)):
                args_seen[_route] = args
                results[_route] = _fn(*args)
                return results[_route]
            monkeypatch.setattr(zeta_mod, route, spy)
        p = zeta_checked(w, fam.q)
        # each route is handed W and q only, never the other's R (or d)
        assert args_seen == {"_genfunc_route": (w, fam.q), "_zeta_mds": (w, fam.q)}
        assert all(args[0] is w for args in args_seen.values())
        # each route returns p over one denominator
        for nums, den in results.values():
            assert ZetaPoly([F(x, den) for x in nums], fam.q) == p
        assert p.sign == fam.sign and p.degree == w.degree + 2 - 2 * p.d

    def test_zeta_checked_builds_the_right_hand_side_once(self, high_extremal,
                                                          monkeypatch):
        fam, w = high_extremal
        calls = []
        for name in ("_scaled_weights", "_genfunc_route", "_zeta_mds"):
            def spy(*args, _name=name, _fn=getattr(zeta_mod, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(zeta_mod, name, spy)
        zeta_checked(w, fam.q)
        assert sorted(calls) == ["_genfunc_route", "_scaled_weights", "_zeta_mds"]

    def test_zeta_checked_expands_no_image(self, high_extremal, monkeypatch):
        # d_perp >= 2 is read off one coefficient of the MacWilliams image
        fam, w = high_extremal

        def refuse(*args):
            raise AssertionError("zeta_checked expanded a MacWilliams image")

        for module in (homopoly, zeta_mod):
            monkeypatch.setattr(module, "act_matrix", refuse)
        monkeypatch.setattr(homopoly, "_unscaled_macwilliams", refuse)
        assert zeta_checked(w, fam.q).sign == fam.sign


class TestMDS:
    def test_tail_enumerator(self):
        m = mds_enumerator(7, 7, 3)
        assert m.poly == HomPoly(7, [1, 0, 0, 0, 0, 0, 0, 2])

    def test_degree_two(self):
        assert mds_enumerator(2, 2, Q43).poly == parse_poly("x^2 + 1/3*y^2")

    def test_zeta_is_constant_one(self):
        p = zeta_checked(mds_enumerator(10, 4, 2).poly, 2)
        assert p.coeffs == (F(1),)

    def test_minimum_weight_structural(self):
        for n, d, q in [(9, 3, 2), (12, 5, 4), (8, 2, Q43)]:
            m = mds_enumerator(n, d, q)
            assert m.poly.coeffs[0] == 1
            assert all(m.poly.coeffs[i] == 0 for i in range(1, d))
            assert m.poly.coeffs[d] != 0

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            mds_enumerator(5, 1, 2)
        with pytest.raises(ValueError):
            mds_enumerator(5, 6, 2)

    @pytest.mark.parametrize("q", [2, Q43])
    def test_puncture_and_shorten_identities(self, q):
        # x(D) M_{n,i} = n M_{n-1,i} and y(D) M_{n,i} = n (M_{n-1,i-1} - M_{n-1,i})
        q = F(q)
        x_op, y_op = parse_poly("x"), parse_poly("y")
        top = 30 if q == 2 else 16
        for n in range(3, top + 1):
            for i in range(2, n + 1):
                m = _mds_poly(n, i, q)
                assert diff_op(x_op, m) == _mds_poly(n - 1, i, q) * n
                lower = _mds_poly(n - 1, i - 1, q) - _mds_poly(n - 1, i, q)
                assert diff_op(y_op, m) == lower * n


class TestMDSWeightTable:
    """The MDS weights of `_mds_poly` against the generating-function series,
    the MDS route `_zeta_mds` on expansions over them, its agreement with the
    closed form at high degree, its memory, and the checks of W it makes."""

    @pytest.mark.parametrize("q", [2, 3, 4, Q43])
    def test_matches_mds_poly(self, q):
        # W = sum_k p_k M_(n,d+k) with sum_k p_k = 1 is monic of minimum
        # weight d, and the route must give back P(T) = sum_k p_k T^k
        q = F(q)
        for n in range(2, 41):
            mds = {e: _mds_poly(n, e, q) for e in range(2, n + 1)}
            for d in range(2, n + 1):
                top = n - d
                p = [F(2 * (k + 1), (top + 1) * (top + 2)) for k in range(top + 1)]
                w = mds[d] * p[0]
                for k in range(1, top + 1):
                    w = w + mds[d + k] * p[k]
                nums, den = zeta_mod._zeta_mds(w, q)
                assert [F(x, den) for x in nums] == p

    @pytest.mark.parametrize("q", [2, 3, 4, Q43])
    def test_entries_are_the_genfunc_series(self, q):
        # A_w(M_(n,e)) = C(n, w) (q - 1) s_(w-e), with s the series of
        # (1-T)^(w-1)/(1-qT): the series whose convolution the MDS route
        # inverts, against the alternating sum of `_mds_poly`
        q = F(q)
        for n in range(2, 31):
            for e in range(2, n + 1):
                coeffs = _mds_poly(n, e, q).coeffs
                assert coeffs[0] == 1 and not any(coeffs[1:e])
                for w in range(e, n + 1):
                    s_t = F(0)  # (1-T)^(w-1) times sum_t q^t T^t
                    for t in range(w - e + 1):
                        s_t = q * s_t + (-1) ** t * comb(w - 1, t)
                    assert coeffs[w] == comb(n, w) * (q - 1) * s_t

    @pytest.mark.parametrize("fam_name,n", [
        ("type1", 300), ("type4", 301), ("q43", 300), ("q43-odd", 302), ("ozeki", 300)])
    def test_routes_agree_at_high_degree(self, fam_name, n):
        fam = family(fam_name)
        w = extremal(fam, n)
        mds = homopoly._lowest(*zeta_mod._zeta_mds(w, fam.q), None, 1)
        assert mds == homopoly._lowest(*zeta_mod._genfunc_route(w, fam.q), None, 1)

    def test_one_row_alive(self):
        # the route keeps O(n) ints: the moments B_t and the beta_s; the
        # whole (n - d)^2 table of MDS weights would take about 7.9 MiB here
        fam = family("type1")
        w = extremal(fam, 600)
        tracemalloc.start()
        try:
            zeta_mod._zeta_mds(w, fam.q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("route", ["_genfunc_route", "_zeta_mds"])
    def test_both_routes_require_standard_form(self, route, printed):
        w = printed["w12"]  # d = 4, q = 2
        p = zeta_from_genfunc(w, 2)
        surd_w = w + HomPoly(12, [0] * 12 + [QuadElem(0, 1, 2)])
        # the closed form reads W only through the right-hand side, which
        # checks it; the MDS route reads W and checks it itself
        nums, den = getattr(zeta_mod, route)(w, F(2))
        if route == "_genfunc_route":
            bad = [(w, 5), (w * 2, 4), (surd_w, 4)]
            read = zeta_mod._scaled_weights
        else:
            bad = [(w * 2,), (surd_w,)]
            read = zeta_mod._zeta_mds
        assert ZetaPoly([F(x, den) for x in nums], 2) == p
        for bad_w, *d in bad:
            with pytest.raises(ValueError, match="standard form"):
                read(bad_w, F(2), *d)
        public = {"_genfunc_route": zeta_from_genfunc, "_zeta_mds": zeta_from_mds}
        with pytest.raises(ValueError, match="monic"):
            public[route](w * 2, 2)


class TestClosedForm:
    """The closed form of `_genfunc_route`, L b P = b H - a T H on R = L C,
    against the forward substitution it replaced, and a mutation of its
    prefix sums that `zeta_checked` catches."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**128 + 1, 2**128 - 1), min_size=1, max_size=40),
           st.sampled_from([F(2), F(3), F(4), Q43, F(3, 2), F(5, 3), F(1, 2), F(3, 4)]),
           st.integers(1, 15))
    def test_equals_forward_substitution(self, rhs, q, d):
        # the standard-form W whose right-hand side is c_k = rhs_k
        assume(rhs[0] != 0)
        n = d + len(rhs) - 1
        w = HomPoly(n, [1] + [0] * (d - 1)
                    + [r * (q - 1) * comb(n, d + k) for k, r in enumerate(rhs)])
        nums, den = zeta_mod._genfunc_route(w, q)
        assert den > 0 and [F(x, den) for x in nums] == forward_substitution(rhs, q, d)

    @pytest.mark.parametrize("fam_name,n", [("type1", 24), ("type4", 15), ("q43", 12)])
    def test_dropped_prefix_sum_is_caught(self, fam_name, n, monkeypatch):
        fam = family(fam_name)
        w = extremal(fam, n)
        zeta_checked(w, fam.q)
        # the route runs n - d shear passes and d passes of (1 - T)^(-1);
        # the last of those n passes becomes the identity
        calls = []

        def dropping(iterable, _fn=zeta_mod.accumulate):
            calls.append(None)
            return iter(iterable) if len(calls) == n else _fn(iterable)

        monkeypatch.setattr(zeta_mod, "accumulate", dropping)
        with pytest.raises(AssertionError):
            zeta_checked(w, fam.q)
        assert len(calls) == n


class TestBinomialMoments:
    """The identity the MDS route rests on, the route against the forward
    substitution, and the cross-check that now reaches R."""

    @pytest.mark.parametrize("q", [2, 3, 4, Q43, F(1, 2)])
    def test_mds_moments(self, q):
        # B_t(M_(n,e) - x^n) = sum_(u>=1) A_u C(n-u, t-u) = C(n, t) (q^(t-e+1) - 1)
        # for t >= e - 1, and 0 below, from the definition of `_mds_poly`
        q = F(q)
        for n in range(2, 41):
            for e in range(2, n + 1):
                m = _mds_poly(n, e, q)
                for t in range(n + 1):
                    moment = sum(m._nums[u] * comb(n - u, t - u) for u in range(1, t + 1))
                    expected = comb(n, t) * (q ** (t - e + 1) - 1) if t >= e - 1 else 0
                    assert F(moment, m._den) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12),
           st.lists(st.integers(-2**64, 2**64), min_size=1, max_size=30),
           st.sampled_from([F(2), F(3), F(4), Q43, F(3, 2), F(1, 2), F(3, 4)]))
    def test_equals_forward_substitution(self, d, tail, q):
        assume(tail[0] != 0)
        n = d + len(tail) - 1
        w = HomPoly(n, [1] + [0] * (d - 1) + tail)
        c = [F(t) / ((q - 1) * comb(n, d + k)) for k, t in enumerate(tail)]
        expected = forward_substitution(c, q, d)
        nums, mds_den = zeta_mod._zeta_mds(w, q)
        assert mds_den > 0 and [F(x, mds_den) for x in nums] == expected

    @pytest.mark.parametrize("fam_name,n", [("type1", 24), ("type4", 15), ("q43", 12),
                                            ("q43-odd", 18), ("ozeki", 36)])
    def test_corrupted_right_hand_side_is_an_oracle_disagreement(self, fam_name, n,
                                                                 monkeypatch):
        # R feeds the closed form only, so an error in it is a disagreement
        fam = family(fam_name)
        w = extremal(fam, n)
        zeta_checked(w, fam.q)

        def corrupted(w_, q_, d_, _fn=zeta_mod._scaled_weights):
            rhs, den = _fn(w_, q_, d_)
            rhs[1] += den
            return rhs, den

        monkeypatch.setattr(zeta_mod, "_scaled_weights", corrupted)
        with pytest.raises(AssertionError, match="zeta oracle disagreement"):
            zeta_checked(w, fam.q)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 4)])
    def test_q_below_one(self, q):
        # a - b < 0, so the route's denominator den L (a - b) changes sign
        m = mds_enumerator(10, 4, q).poly
        assert zeta_checked(m, q).coeffs == (F(1),)
        assert zeta_from_mds(m, q) == ZetaPoly((1,), q, 10, 4)
        assert zeta_mod._zeta_mds(m, q)[1] > 0


class TestFunctionalEquation:
    def test_p12e_sign(self, p12e):
        assert functional_equation_check(p12e) == 1
        # independent reversal check: p_i q^(g-i) == p_(2g-i)
        g, coeffs = 3, list(p12e.coeffs)
        for i in range(len(coeffs)):
            assert coeffs[i] * Q43 ** (g - i) == coeffs[2 * g - i]

    def test_constant(self):
        p = ZetaPoly((F(1),), 2, n=2, d=2)
        assert functional_equation_check(p) == 1

    def test_w11_half_integral_genus(self, printed):
        p = zeta_checked(printed["w11"], 4)
        assert p.genus == F(5, 2)
        assert functional_equation_check(p) == -1
        assert p.degree == 5  # 2g

    def test_failure_is_a_value(self):
        p = ZetaPoly((F(1), F(1), F(7)), 2, n=6, d=2)
        assert functional_equation_check(p) is None

    def test_sign_on_random_non_extremal_members(self):
        # the family sign carries over to the zeta polynomial for arbitrary
        # members, not just the extremal ones
        import random

        from fwenum.families import FAMILIES, member_with_min_weight

        rng = random.Random(4242)
        cases = [("type1", 16, 4), ("type1", 24, 6), ("type4", 13, 4),
                 ("q43-odd", 20, 4), ("q43", 16, 2), ("ozeki", 20, 4)]
        for fam_name, n, d_target in cases:
            fam = FAMILIES[fam_name]
            w = member_with_min_weight(fam, n, d_target, rng)
            p = zeta_checked(w, fam.q)
            assert p.sign == fam.sign, (fam_name, n)
            assert p.degree == n + 2 - 2 * p.d, (fam_name, n)

    def test_unknown_parameters(self):
        assert functional_equation_check(ZetaPoly((F(1), F(2)), 2)) is None


def _fe_sign_quadratic(p: ZetaPoly):
    """Reference for functional_equation_check: p_(2g-i) = sign q^(g-i) p_i
    compared directly, with q^(g-i) in the quadratic extension by sqrt(q)."""
    two_g = p.n + 2 - 2 * p.d
    coeffs = list(p.coeffs)
    r = len(coeffs) - 1

    def pc(i):
        return coeffs[i] if 0 <= i <= r else F(0)

    root, _ = sqrt_rational(p.q)
    top = Surd.of(root) ** two_g
    for sign in (1, -1):
        factor = top  # root^(2g - 2i)
        for i in range(0, max(r, two_g) + 1):
            if pc(two_g - i) != sign * factor * pc(i):
                break
            factor = factor / p.q
        else:
            return sign
    return None


def _unfold(r_coeffs, signs, q):
    """P rebuilt from its fold: T^m R(qT + 1/T), m = deg R, times
    1 - sign sqrt(q) T for each split-off root sign/sqrt(q)."""
    m = len(r_coeffs) - 1
    p = [F(0)] * (2 * m + 1)
    power = [F(1)]  # (1 + qT^2)^k
    for k, c in enumerate(r_coeffs):
        for i, a in enumerate(power):
            p[m - k + i] += c * a
        power = unipoly.mul(power, [F(1), F(0), q])
    if -1 in signs and 1 in signs:
        p = unipoly.mul(p, [F(1), F(0), -q])
    if len(signs) % 2:
        p = unipoly.mul(p, [F(1), -signs[0] * sqrt_rational(q)[0].a])
    return p


def _fold_reference(coeffs, q):
    """The fold on Fractions, (R, signs) or None, with the sign of the
    functional equation from `_fe_sign_quadratic`: R = p_g + sum_(k>=1)
    p_(g-k) V_k(s) for eps = +1, R = sum_(k>=1) p_(g-k) U_(k-1)(s) for
    eps = -1, X_k = s X_(k-1) - q X_(k-2), after dividing out the root
    -eps/sqrt(q) of an odd degree."""
    p = list(coeffs)
    signs = []
    if not p[0]:
        return None
    eps = _fe_sign_quadratic(_zeta(p, q))
    if eps is None:
        return None
    if len(p) % 2 == 0:
        r = F(isqrt(q.numerator), isqrt(q.denominator))
        p = unipoly.div_exact(p, [F(1), eps * r])
        signs.append(-eps)
        eps = 1
    g = (len(p) - 1) // 2
    if eps == 1:
        x0, weights = 2, [p[g] / 2] + p[:g][::-1]  # on V_0 .. V_g
    else:
        x0, weights = 1, p[:g][::-1]  # on U_0 .. U_(g-1)
        signs += [-1, 1]
    r = [F(0)] * len(weights)
    xk, xnext = [F(x0)], [F(0), F(1)]
    for w in weights:
        for i, c in enumerate(xk):
            r[i] += w * c
        step = [F(0)] + xnext
        for i, c in enumerate(xk):
            step[i] -= q * c
        xk, xnext = xnext, step
    return r, signs


def _fold_of(coeffs, q):
    """`_fold` of P given by its rational coefficients."""
    return zeta_mod._fold(*_integer_coeffs(list(coeffs)), q)


@st.composite
def symmetric_polys(draw, odd=None):
    """(coeffs, q, eps) with P(T) = eps P(1/(qT)) q^g T^(2g), 2g = deg P >= 1
    and P(0) != 0: even 2g at q = 2, 4, 4/3, odd 2g at q = 4."""
    if odd is None:
        odd = draw(st.booleans())
    q = F(4) if odd else draw(st.sampled_from([F(2), F(4), Q43]))
    two_g = draw(st.integers(1, 5)) * 2 - odd
    eps = draw(st.sampled_from([1, -1]))
    coeff = st.fractions(-9, 9, max_denominator=9)
    low = ([draw(coeff.filter(bool))]
           + draw(st.lists(coeff, min_size=two_g // 2, max_size=two_g // 2)))
    if eps == -1 and not odd:
        low[-1] = F(0)  # the middle coefficient equals its negative
    a = [F(0)] * (two_g + 1)
    for i, c in enumerate(low):
        a[i] = c
        # sqrt(q)^(2g - 2i), with sqrt(4) = 2 at odd 2g
        a[two_g - i] = eps * c * q ** ((two_g - 2 * i) // 2) * (2 if odd else 1)
    return a, q, eps


def _zeta(coeffs, q):
    # n + 2 - 2d = len(coeffs) - 1 = 2g
    return ZetaPoly(tuple(coeffs), q, n=len(coeffs) + 1, d=2)


class TestFunctionalEquationSign:
    """functional_equation_check and _fold share one exact test."""

    @settings(max_examples=100, deadline=None)
    @given(symmetric_polys())
    def test_symmetric(self, case):
        coeffs, q, eps = case
        p = _zeta(coeffs, q)
        assert functional_equation_check(p) == eps == _fe_sign_quadratic(p)
        for n in (p.n - 1, p.n + 1):  # 2g != deg P
            other = ZetaPoly(p.coeffs, q, n=n, d=2)
            assert functional_equation_check(other) is None
            assert _fe_sign_quadratic(other) is None
        fold = _fold_of(p.coeffs, q)
        reference = _fold_reference(p.coeffs, q)
        assert fold is not None
        assert _unfold(*reference, q) == list(p.coeffs)
        assert fold == (_integer_coeffs(reference[0])[0], reference[1])

    @settings(max_examples=100, deadline=None)
    @given(symmetric_polys(), st.data())
    def test_one_perturbed_coefficient(self, case, data):
        coeffs, q, _ = case
        two_g = len(coeffs) - 1
        # the middle coefficient of an even 2g is its own partner
        j = data.draw(st.integers(0, two_g).filter(lambda j: 2 * j != two_g))
        new = coeffs[j] + data.draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
        assume(new not in (0, -coeffs[j]))  # 0 would change deg P or P(0)
        coeffs = coeffs[:j] + [new] + coeffs[j + 1:]
        p = _zeta(coeffs, q)
        assert functional_equation_check(p) is None
        assert _fe_sign_quadratic(p) is None
        assert _fold_of(p.coeffs, q) is None

    @settings(max_examples=50, deadline=None)
    @given(symmetric_polys(odd=True), st.sampled_from([F(2), Q43]))
    def test_odd_degree_needs_rational_sqrt_q(self, case, q):
        coeffs, _, _ = case
        p = _zeta(coeffs, q)
        assert functional_equation_check(p) is None
        assert _fe_sign_quadratic(p) is None
        assert _fold_of(p.coeffs, q) is None


# q with its rational square root, or None
_FOLD_QS = {F(2): None, F(4): F(2), Q43: None, F(9, 4): F(3, 2), F(4, 9): F(2, 3),
            F(5, 3): None}


@st.composite
def fold_inputs(draw):
    """(coeffs, q) for the fold oracle: P with a functional equation of
    either sign, of even degree at any q or of odd degree at a square q; or
    such a P with one coefficient changed (no functional equation), or times
    T (P(0) = 0)."""
    q = draw(st.sampled_from(sorted(_FOLD_QS)))
    r = _FOLD_QS[q]
    odd = r is not None and draw(st.booleans())
    two_g = draw(st.integers(1, 7)) * 2 - odd
    eps = draw(st.sampled_from([1, -1]))
    coeff = st.fractions(-9, 9, max_denominator=9)
    low = ([draw(coeff.filter(bool))]
           + draw(st.lists(coeff, min_size=two_g // 2, max_size=two_g // 2)))
    if eps == -1 and not odd:
        low[-1] = F(0)  # the middle coefficient equals its negative
    a = [F(0)] * (two_g + 1)
    for i, c in enumerate(low):
        a[i] = c
        a[two_g - i] = eps * c * (r ** (two_g - 2 * i) if odd
                                  else q ** ((two_g - 2 * i) // 2))
    kind = draw(st.sampled_from(["fe", "perturbed", "zero"]))
    if kind == "perturbed":
        j = draw(st.integers(0, two_g))
        a[j] += draw(coeff.filter(bool))
        assume(a[0] and a[-1])
    elif kind == "zero":
        a = [F(0)] + a
    return a, q


class TestIntegerFold:
    """`_fold` on ints against the Fraction fold of `_fold_reference`."""

    @settings(max_examples=300, deadline=None)
    @given(fold_inputs())
    def test_matches_the_fraction_fold(self, case):
        coeffs, q = case
        reference = _fold_reference(coeffs, q)
        fold = _fold_of(coeffs, q)
        if reference is None:
            assert fold is None
            return
        r_coeffs, signs = reference
        assert _unfold(r_coeffs, signs, q) == coeffs
        # the integer R is exactly what rh_check used to refine: the
        # reference R times the lcm of its denominators
        assert fold == (_integer_coeffs(r_coeffs)[0], signs)

    @pytest.mark.parametrize("coeffs,q,signs", [
        ([F(1), F(-2), F(2)], F(2), []),  # eps = +1
        ([F(1), F(0), F(-2)], F(2), [-1, 1]),  # eps = -1
        ([F(1), F(-3, 2)], F(9, 4), [1]),  # the root 2/3 = 1/sqrt(q) split off
        ([F(1, 3), F(1, 2), F(3, 4)], F(9, 4), []),  # a denominator on P
        ([F(0), F(1), F(-2), F(2)], F(2), None),  # P(0) = 0
        ([F(1), F(-3), F(3)], F(2), None),  # no functional equation
    ])
    def test_each_branch(self, coeffs, q, signs):
        reference = _fold_reference(coeffs, q)
        if signs is None:
            assert reference is None and _fold_of(coeffs, q) is None
            return
        assert reference[1] == signs
        assert _fold_of(coeffs, q) == (_integer_coeffs(reference[0])[0], signs)


class TestRHCheck:
    def test_exact_conjugate_pair(self):
        r = rh_check(ZetaPoly((F(1), F(-2), F(2)), 2), 1e-9)
        assert r.passed and r.max_abs_deviation < 1e-14
        assert len(r.roots) == 2

    def test_exact_real_pair(self):
        # 1 - 2T^2 has roots exactly +-1/sqrt(2)
        r = rh_check(ZetaPoly((F(1), F(0), F(-2)), 2), 1e-9)
        assert r.passed and r.max_abs_deviation < 1e-14

    def test_product_of_exact_factors(self):
        coeffs = unipoly.mul([F(1), F(0), F(-2)], [F(1), F(-2), F(2)])
        r = rh_check(ZetaPoly(tuple(coeffs), 2), 1e-9)
        assert r.passed and r.max_abs_deviation < 1e-14
        assert r.max_residual < 1e-20

    def test_q43_quadratic(self):
        r = rh_check(ZetaPoly((F(3), F(-6), F(4)), Q43), 1e-9)
        assert r.passed and r.max_abs_deviation < 1e-14  # modulus sqrt(3)/2

    def test_p12e_passes(self, p12e):
        r = rh_check(p12e, 1e-9)
        assert r.passed and r.max_residual < 1e-20
        assert len(r.roots) == 6

    def test_failing_polynomial_reported(self):
        # roots 1/2 and 1/8: not on the q = 2 circle
        r = rh_check(ZetaPoly((F(1), F(-10), F(16)), 2), 1e-9)
        assert not r.passed and r.max_abs_deviation > 0.1

    @pytest.mark.parametrize("coeffs", [
        # roots -1/2, -1 and 1/2, 1: the functional equation holds, so
        # inversion in the circle |T| = 1/sqrt(2) swaps them, and points
        # seeded on that circle would stay on it
        (1, 3, 2),
        (1, -3, 2),
        # 1 / 2^2200 rounds to 0 in doubles, so the float stage is skipped;
        # the roots are +-i * 2^-1100, far inside the circle
        (1, 0, 2 ** 2200),
    ])
    def test_roots_off_the_circle_never_pass(self, coeffs):
        try:
            r = rh_check(ZetaPoly(coeffs, 2), 1e-9)
        except RHConvergenceError:
            return
        assert not r.passed

    @pytest.mark.parametrize("bits", [0, -8, 52, 4097])
    def test_precision_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError, match="precision_bits"):
            rh_check(ZetaPoly((F(1), F(-2), F(2)), 2), 1e-9, bits)

    @pytest.mark.parametrize("q", [0, -2, 1])
    def test_bad_q_rejected(self, q):
        with pytest.raises(ValueError, match=r"^q must be positive and != 1$"):
            rh_check(ZetaPoly((F(1), F(-2), F(2)), q), 1e-9)

    @pytest.mark.parametrize("tolerance", [float("inf"), 0.0, -1e-9, float("nan")])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        # with tolerance inf the roots -1/2, -1 of (1, 3, 2) used to pass
        with pytest.raises(ValueError, match="tolerance"):
            rh_check(ZetaPoly((1, 3, 2), 2), tolerance)

    def test_precision_environment_ignored(self):
        # the default precision is a constant; no environment variable sets it
        src = os.path.dirname(os.path.dirname(fwenum.__file__))
        env = dict(os.environ, PYTHONPATH=src, FWENUM_PRECISION_BITS="abc")
        for argv, expected in ((["gen", "--name", "phi4"], "x^4"),
                               (["zeta", "--family", "type1", "-n", "12", "--rh"],
                                "precision = 256 bits")):
            proc = subprocess.run(
                [sys.executable, "-m", "fwenum.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stderr == ""
            assert expected in proc.stdout

    def test_negative_real_root_stability(self):
        # this zeta polynomial has the exact root T = -sqrt(3)/2; the root
        # ordering must stay stable across precision escalation even when the
        # imaginary part wobbles around the negative real axis
        w16 = extremal(family("q43-odd"), 16)
        p = zeta_checked(w16, Q43)
        t = Surd(0, F(-1, 2), 3)  # -sqrt(3)/2, modulus 1/sqrt(4/3)
        value = sum((c * t ** i for i, c in enumerate(p.coeffs)), Surd(0))
        assert value == 0
        r = rh_check(p, 1e-9)
        assert r.passed and r.precision_bits <= 512
        assert any(abs(z.imag) < 1e-30 and z.real < 0 for z in r.roots)

    def test_float_stage_deflates_zero_roots(self, monkeypatch):
        # R(s) = s^2 - 5s at q = 2: the root s = 0 gives T = +-i/sqrt(2), and
        # s = 5 lies outside (-2 sqrt(2), 2 sqrt(2)), so the certified path
        # declines and the fold's zero constant term reaches the float stage
        p = ZetaPoly((1, -5, 4, -10, 4), 2)
        r_coeffs, signs = _fold_of(p.coeffs, p.q)
        assert r_coeffs[0] == 0 and r_coeffs[1] and not signs
        found = []

        def spy(*args, _fn=zeta_mod._float_roots):
            found.append(_fn(*args))
            return found[-1]

        monkeypatch.setattr(zeta_mod, "_float_roots", spy)
        report = rh_check(p, 1e-9, 128)
        assert len(found) == 1 and found[0] is not None
        assert found[0][0] == 0 and abs(found[0][1] - 5) < 1e-12
        # the verdict and the roots are those of a cold first mpmath pass
        monkeypatch.setattr(zeta_mod, "_float_roots", lambda *args: None)
        cold = rh_check(p, 1e-9, 128)
        assert not report.passed and not cold.passed
        assert report.precision_bits == cold.precision_bits == 256
        _assert_roots_match(report.roots, cold.roots)

    def test_deterministic_reports(self, p12e):
        a = rh_check(p12e, 1e-9).to_json()
        b = rh_check(p12e, 1e-9).to_json()
        assert a == b

    def test_degree_zero_passes_vacuously(self):
        r = rh_check(ZetaPoly((F(1),), 2), 1e-9)
        assert r.passed and r.roots == ()
        assert r.max_abs_deviation == 0.0 and r.max_residual == 0.0

    def test_report_json(self, p12e):
        obj = json.loads(rh_check(p12e, 1e-9).to_json())
        assert obj["pass"] is True
        assert len(obj["roots"]) == 6
        assert set(obj["roots"][0]) == {"re", "im"}

    # the exact reports of both paths; 1 + 3T + 2T^2 folds to R(s) = s + 3,
    # whose root -3 lies outside (-2 sqrt(2), 2 sqrt(2)), so the certified
    # path declines and the Aberth ladder runs
    _PINNED_FALLBACK = (
        '{"target_modulus": "0.7071067811865476", "max_abs_deviation": '
        '"0.2928932188134525", "max_residual": "0.0", "pass": false, '
        '"tolerance": 1e-09, "precision_bits": 256, "roots": '
        '[{"re": "-1.0", "im": "0.0"}, {"re": "-0.5", "im": "0.0"}]}')
    _ROOT_1 = "0.7071067811865475244008443621048490392848359376884740365883398689953662392311"
    _PINNED_CERTIFIED = (
        '{"target_modulus": "0.7071067811865476", "max_abs_deviation": '
        '"8.636168555094445e-78", "max_residual": "8.636168555094445e-78", '
        '"pass": true, "tolerance": 1e-09, "precision_bits": 256, "roots": ['
        f'{{"re": "-{_ROOT_1}", "im": "0.0"}}, {{"re": "-0.5", "im": "-0.5"}}, '
        f'{{"re": "-0.5", "im": "0.5"}}, {{"re": "0.0", "im": "-{_ROOT_1}"}}, '
        f'{{"re": "0.0", "im": "{_ROOT_1}"}}, {{"re": "{_ROOT_1}", "im": "0.0"}}]}}')

    def test_pinned_fallback_report(self, monkeypatch):
        outcomes = []
        certified = zeta_mod._certified_rh

        def spy(*args):
            outcomes.append(certified(*args))
            return outcomes[-1]

        monkeypatch.setattr(zeta_mod, "_certified_rh", spy)
        report = rh_check(ZetaPoly((1, 3, 2), 2))
        assert outcomes == [None]
        assert report.to_json() == self._PINNED_FALLBACK

    def test_pinned_certified_report(self):
        p = zeta_checked(extremal(family("type1"), 12), 2)
        assert rh_check(p).to_json() == self._PINNED_CERTIFIED

    def test_fallback_roots_sorted(self):
        # a double root makes the certified path decline; the report's roots
        # are sorted by (re, im) on the Aberth path as on the certified one
        p = zeta_checked(extremal(family("type1"), 12), 2)
        square = ZetaPoly(tuple(unipoly.mul(list(p.coeffs), list(p.coeffs))), 2)
        roots = rh_check(square).roots
        assert len(roots) == 12
        assert list(roots) == sorted(roots, key=lambda t: (t.real, t.imag))

    def test_fallback_pairs_are_exact_conjugates(self):
        # random P with no functional equation take the Aberth path; each
        # non-real pair is listed (re, -im) then (re, +im), and the deviation
        # and residual are those of the listed roots
        rng = random.Random(1018)
        polys = pairs = 0
        while polys < 30:
            c = [rng.randint(-6, 6) for _ in range(rng.randint(4, 9))]
            if not c[0] or not c[-1] or zeta_mod._fold(c, 1, F(2)):
                continue
            polys += 1
            r = rh_check(ZetaPoly(c, 2))
            roots = list(r.roots)
            with mp.workprec(r.precision_bits):
                for i, z in enumerate(roots):
                    if z.imag > 0:
                        assert i > 0 and roots[i - 1] == z.conjugate()
                        pairs += 1
                assert sum(z.imag < 0 for z in roots) == sum(z.imag > 0 for z in roots)
                target = 1 / mp.sqrt(2)
                assert r.max_abs_deviation == float(max(abs(abs(z) - target)
                                                        for z in roots))
                coeffs = [mp.mpf(x) for x in c]
                residual = max(abs(zeta_mod._horner(coeffs, z)) for z in roots)
                assert r.max_residual == float(residual / abs(coeffs[-1]))
        assert pairs >= 30


def _mp(x):
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x


def _quadratic_roots(s, q):
    """Both roots of 1 - sT + qT^2 at 400 bits; s rational or an mpc."""
    with mp.workprec(400):
        q, s = _mp(q), _mp(s)
        sq = mp.sqrt(mp.mpc(s * s - 4 * q))
        return [(s + sq) / (2 * q), (s - sq) / (2 * q)]


def _assert_roots_match(found, known, tol=1e-30):
    left = list(found)
    assert len(left) == len(known)
    for z in known:
        i = min(range(len(left)), key=lambda j: abs(left[j] - z))
        assert abs(left.pop(i) - z) < tol, (z, found)


@st.composite
def folded_polys(draw):
    """(P, its known roots, RH holds) for P a product of distinct factors
    1 - sT + qT^2 (rational s, or complex conjugate pairs s), times at most
    one of 1 - qT^2, 1 + 2T, 1 - 2T (the last two at q = 4 only)."""
    q = draw(st.sampled_from([F(2), F(4), Q43]))
    edge = [F(4), F(-4)] if q == 4 else []  # s = +-2 sqrt(q): double root
    inside = draw(st.booleans())
    s_values = (st.fractions(-2, 2, max_denominator=6) if inside
                else st.fractions(-6, 6, max_denominator=6))
    reals = draw(st.lists(st.one_of(s_values, st.sampled_from([F(4), F(-4)])),
                          min_size=1, max_size=4, unique=True))
    if inside:
        reals = [s for s in reals if s * s <= 4 * q]
    pairs = [] if inside else draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(1, 12)).filter(
            lambda ab: ab[0] ** 2 < 4 * ab[1]),
        max_size=2, unique=True))
    extras = [None, (F(1), F(0), -q)]
    if q == 4:
        extras += [(F(1), F(2)), (F(1), F(-2))]
    extra = None if set(reals) & set(edge) else draw(st.sampled_from(extras))
    coeffs, known = [F(1)], []
    for s in reals:
        coeffs = unipoly.mul(coeffs, [F(1), -s, q])
        known += _quadratic_roots(s, q)
    for a, b in pairs:
        # (1 - sT + qT^2)(1 - s'T + qT^2) for the roots s, s' of s^2 - a s + b
        coeffs = unipoly.mul(coeffs, [F(1), F(-a), 2 * q + b, -a * q, q * q])
        with mp.workprec(400):
            disc = mp.sqrt(mp.mpc(a * a - 4 * b))
            for s in ((a + disc) / 2, (a - disc) / 2):
                known += _quadratic_roots(s, q)
    if extra is not None:
        coeffs = unipoly.mul(coeffs, list(extra))
        with mp.workprec(400):
            known += ([mp.mpc(-1 / _mp(extra[1]))] if len(extra) == 2
                      else [mp.mpc(t / mp.sqrt(_mp(q))) for t in (-1, 1)])
    holds = not pairs and all(s * s <= 4 * q for s in reals)
    return ZetaPoly(tuple(coeffs), q), known, holds


class TestFold:
    """rh_check on P built from known factors: the verdict is the exact truth
    and the roots are the known ones."""

    @settings(max_examples=40, deadline=None)
    @given(folded_polys())
    def test_functional_equation(self, case):
        p, known, holds = case
        assert p.degree == 0 or _fold_of(p.coeffs, p.q) is not None
        r = rh_check(p, 1e-9)
        assert r.passed == holds
        _assert_roots_match(r.roots, known)

    @settings(max_examples=30, deadline=None)
    @given(folded_polys(), st.fractions(-5, 5, max_denominator=5).filter(bool))
    def test_no_functional_equation(self, case, a):
        # a root 1/a off the circle breaks the functional equation
        p, known, _ = case
        assume(a * a != p.q)
        p = ZetaPoly(tuple(unipoly.mul(list(p.coeffs), [F(1), -a])), p.q)
        assert _fold_of(p.coeffs, p.q) is None
        r = rh_check(p, 1e-9)
        assert not r.passed
        with mp.workprec(400):
            _assert_roots_match(r.roots, known + [mp.mpc(1 / _mp(a))])

    @pytest.mark.parametrize("eps", [F(1, 10**12), F(1, 10**20)], ids=["1e-12", "1e-20"])
    def test_no_functional_equation_within_tolerance(self, eps):
        # the roots +-i/sqrt(2 + eps) miss |T| = 1/sqrt(2) by about eps/(4 sqrt(2)),
        # far below the tolerance, but P has no fold, so RH fails
        p = ZetaPoly((1, 0, F(2) + eps), 2)
        assert _fold_of(p.coeffs, p.q) is None
        r = rh_check(p, 1e-9)
        assert not r.passed
        assert 0 < r.max_abs_deviation < eps and r.max_residual < 1e-20
        assert [complex(z) for z in r.roots] == pytest.approx([-0.5**0.5 * 1j, 0.5**0.5 * 1j])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=8),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=8),
           st.integers(0, 5))
    def test_roots_stable_is_nearest_distance(self, a, b, limit):
        # dyadic points make every distance exact, so ties with the limit
        # are hit exactly
        old = [mp.mpc(x, y) / 4 for x, y in a]
        new = [mp.mpc(x, y) / 4 for x, y in b]
        lim = mp.mpf(limit) / 4

        def near(u, v):
            return all(any(abs(s - t) <= lim for t in v) for s in u)

        expected = len(old) == len(new) and near(old, new) and near(new, old)
        assert zeta_mod._roots_stable(old, new, lim) == expected

    @pytest.mark.parametrize("factors,q,roots", [
        # the exact roots of 1 - 4T^2 and the double root of (1 - 2T)^2,
        # a simple root s = 4 of the fold
        ([(1, 0, -4), (1, -4, 4)], 4, [0.5, 0.5, 0.5, -0.5]),
        ([(1, -4, 4), (1, 4, 4)], 4, [0.5, 0.5, -0.5, -0.5]),  # s = +-4
        ([(1, -2), (1, -4, 4)], 4, [0.5, 0.5, 0.5]),  # odd degree
        ([(1, 2), (1, -2)], 4, [0.5, -0.5]),  # 1 - 4T^2: a constant fold
        ([(0, 1), (1, -2, 2)], 2, [0, 0.5 + 0.5j, 0.5 - 0.5j]),  # P(0) = 0
    ], ids=["edge-triple", "edge-both", "odd-cube", "odd-pair", "zero-root"])
    def test_edge_cases(self, factors, q, roots):
        coeffs = [F(1)]
        for f in factors:
            coeffs = unipoly.mul(coeffs, [F(c) for c in f])
        r = rh_check(ZetaPoly(tuple(coeffs), q), 1e-9)
        assert r.passed == (0 not in roots)
        assert r.max_residual < 1e-20
        _assert_roots_match(r.roots, [mp.mpc(z) for z in roots])


def _simple_roots_inside(case):
    # RH holds and the known roots are distinct: every s lies strictly inside
    # (-2 sqrt(q), 2 sqrt(q)), since s = +-2 sqrt(q) gives a double root T
    p, known, holds = case
    return holds and p.degree > 0 and len({(z.real, z.imag) for z in known}) == len(known)


# Tier A samples the fold R at s = 2 sqrt(q) cos(pi (j + 1/2) / N), N =
# 4(deg R + 1), and certifies only when each root of R has a bracket of its
# own between neighbouring points.  A root s = 2 sqrt(q) cos(theta) of R gives
# P the roots T = e^(+-i theta) / sqrt(q), so theta = arg T over the roots with
# im T > 0 (the real roots of P are split off and are not roots of R).  With
# neighbouring theta more than pi/N + margin apart, some point between them
# lies at least margin/2 from both; with every theta more than pi/(2N) +
# margin from 0 and pi, the outer points lie at least margin from the roots,
# outside all of them.  On [pi/(2N), pi - pi/(2N)], |ds/dtheta| = 2 sqrt(q)
# sin(theta) > 2 sin(pi/40) > 0.15 for q >= 4/3 and N <= 20 (deg R <= 4), so
# these separating points stay more than 7e-8 in s from the roots, far beyond
# the 1e-14 by which rounding the points to 60 bits through a double cosine,
# or theta to a double, moves them.  Tier A evaluates R exactly, so a root
# near any other point changes no sign unless it equals that point exactly.
_GRID_MARGIN = 1e-6


def _roots_apart_on_the_grid(case):
    _, known, _ = case
    thetas = sorted(float(mp.arg(z)) for z in known if z.imag > 0)
    if not thetas:
        return True
    step = pi / (4 * (len(thetas) + 1))
    return (thetas[0] > step / 2 + _GRID_MARGIN
            and pi - thetas[-1] > step / 2 + _GRID_MARGIN
            and all(b - a > step + _GRID_MARGIN for a, b in zip(thetas, thetas[1:])))


def _refuse(*args):
    raise AssertionError("the Aberth path ran")


@pytest.fixture
def aberth_calls(monkeypatch):
    """The precision of every `_aberth_pass` call, which still runs."""
    calls = []

    def spy(*args, _fn=zeta_mod._aberth_pass):
        calls.append(args[2])
        return _fn(*args)

    monkeypatch.setattr(zeta_mod, "_aberth_pass", spy)
    return calls


def _product(factors):
    coeffs = [F(1)]
    for f in factors:
        coeffs = unipoly.mul(coeffs, [F(c) for c in f])
    return tuple(coeffs)


class TestCertifiedRH:
    """The exact path of rh_check: sign alternation of the fold R at dyadic
    points, refinement on Python ints, and the decline to Aberth."""

    @settings(max_examples=40, deadline=None)
    @given(folded_polys().filter(_simple_roots_inside).filter(_roots_apart_on_the_grid),
           st.sampled_from([53, 128, 200]))
    def test_certified_without_aberth(self, case, prec):
        p, known, _ = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeta_mod, "_aberth_pass", _refuse)
            r = rh_check(p, 1e-9, prec)
        assert r.passed and r.max_residual < 1e-20
        assert r.precision_bits == 2 * prec
        _assert_roots_match(r.roots, known)

    @pytest.mark.parametrize("factors,q,passed", [
        ([(1, -4, 4), (1, -1, 4)], 4, True),  # s = 4 and s = 1: a double root T = 1/2
        ([(1, -4, 4), (1, 4, 4)], 4, True),  # s = +-4
        ([(1, -1, 4), (1, -1, 4)], 4, True),  # s = 1 twice: a double root of R
        ([(1, -5, 4), (1, 1, 4)], 4, False),  # s = 5 outside (-4, 4)
        ([(1, 0, 5, 0, 4)], 2, False),  # s = +-i
        ([(1, 3, 2)], 2, False),
        ([(1, -3, 2)], 2, False),
        # R = s(2s - 1): the roots 0 and 1/2 lie between the same two points
        ([(1, 0, 4), (1, F(-1, 2), 4)], 4, True),
    ], ids=["edge-double", "edge-both", "double-inside", "outside", "complex-pair",
            "1,3,2", "1,-3,2", "close-roots"])
    def test_undecided_inputs_reach_aberth(self, factors, q, passed, aberth_calls):
        r = rh_check(ZetaPoly(_product(factors), q), 1e-9, 128)
        assert aberth_calls and r.passed == passed and r.precision_bits == 256

    def test_tolerance_below_the_certified_precision_reaches_aberth(self, p12e,
                                                                    aberth_calls):
        # 256 bits resolve the moduli to about 1e-77, so 1e-100 is left to
        # the ladder, which passes at 1024 bits
        r = rh_check(p12e, 1e-100, 128)
        assert aberth_calls and r.passed and r.precision_bits == 1024

    def test_tier_a_declines(self):
        one = 1 << 60
        q = F(4)
        # R(s) = (s - 1)(s + 1)(s - 2) on points that bracket its three roots
        r = [2, -1, -2, 1]
        brackets = zeta_mod._sign_brackets(r, q, [-2 * one, 0, 3 * one // 2, 3 * one])
        assert brackets == [(-2 * one, 0), (0, 3 * one // 2), (3 * one // 2, 3 * one)]
        # a point on a root: the sign change there brackets nothing strictly
        assert zeta_mod._sign_brackets([0, -1], q, [-one, 0, one]) is None
        assert zeta_mod._sign_brackets(r, q, [-2 * one, -one, 0, 3 * one]) is None
        # R(s) = (s - 1)(s - 10): the sign changes twice, but one point lies
        # outside (-4, 4), and so does the root 10
        assert zeta_mod._sign_brackets([10, -11, 1], q, [0, 2 * one, 12 * one]) is None
        # fewer sign changes than roots
        assert zeta_mod._sign_brackets(r, q, [-2 * one, one // 2, 3 * one]) is None

    def test_refinement_is_closed_by_a_sign_change(self):
        bits = 256
        # R(s) = s^2 - 2: the root sqrt(2) is in (1, 2), within 2^(14 - bits)
        x = zeta_mod._refine_root([-2, 0, 1], 1 << bits, 2 << bits, bits)
        assert abs(x - isqrt(2 << 2 * bits)) < 2 ** 14
        # R(s) = s - 3 has no root in (1, 2): no sign change closes it
        assert zeta_mod._refine_root([-3, 1], 1 << bits, 2 << bits, bits) is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=6),
           st.lists(st.integers(-6, 6), max_size=4), st.integers(-600, 600),
           st.sampled_from([0, 4, 16, 60]), st.sampled_from([0, 2, 8, 24]),
           st.one_of(st.none(), st.integers(-3, 3)))
    def test_bounded_sign_is_the_exact_sign(self, cofactor, roots, a, bits, guard,
                                            offset):
        # R = cofactor * prod(s - k) at a / 2^bits; with an offset, the point
        # lies that many units 2^-bits from the root roots[0]: on it R = 0,
        # and near it the fixed-point value often falls inside the bound
        assume(cofactor[-1])
        c = cofactor
        for k in roots:
            c = [x - k * y for x, y in zip([0] + c, c + [0])]
        if offset is not None and roots:
            a = (roots[0] << bits) + offset
        else:
            a = (a << bits) >> 6  # |a / 2^bits| <= 600 / 64
        assert zeta_mod._bounded_sign(c, a, bits, guard) == (
            zeta_mod._scaled_value(c, a, bits) > 0)

    def test_bounded_sign_falls_back_inside_the_bound(self, monkeypatch):
        calls = []

        def spy(*args, _fn=zeta_mod._scaled_value):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(zeta_mod, "_scaled_value", spy)
        bits = 64
        r = [-2, 0, 1]  # R(s) = s^2 - 2
        # R(root / 2^bits) is about -2^(1 - bits); with no guard bits the
        # fixed-point value is -2 units against a bound of 3
        root = isqrt(2 << 2 * bits)
        # far from the root the fixed-point value decides on its own
        assert zeta_mod._bounded_sign(r, 3 << bits, bits, 8)
        assert not zeta_mod._bounded_sign(r, 1 << bits, bits, 8)
        assert calls == []
        # on an exact root, and at a value below the bound, R is evaluated exactly
        assert not zeta_mod._bounded_sign([-3, 1], 3 << bits, bits, 8)
        assert not zeta_mod._bounded_sign(r, root, bits, 0)
        assert zeta_mod._bounded_sign([-1, 1], 2, 0, 0)  # p = 1, bound 1
        assert calls == [([-3, 1], 3 << bits, bits), (r, root, bits), ([-1, 1], 2, 0)]

    def test_refinement_takes_the_given_bracket_signs(self, monkeypatch):
        # with both signs given, R is never evaluated exactly at the ends,
        # and the root is the one found from exact end values
        bits = 256
        expected = zeta_mod._refine_root([-2, 0, 1], 1 << bits, 2 << bits, bits)
        monkeypatch.setattr(zeta_mod, "_scaled_value", _refuse)
        assert zeta_mod._refine_root([-2, 0, 1], 1 << bits, 2 << bits, bits,
                                     False, True) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1 << 80), min_size=1, max_size=12),
           st.lists(st.integers(0, 1 << 70), min_size=1, max_size=6),
           st.sampled_from([8, 64, 128]))
    def test_scale_evaluation_is_monotone(self, coeffs, radii, bits):
        # sum |c_i| r^i in truncated fixed point does not decrease in r, so
        # one evaluation at the largest radius is the largest of all of them
        values = [zeta_mod._fixed_horner(coeffs, r, 0, bits) for r in sorted(radii)]
        assert all(im == 0 for _, im in values)
        assert all(u[0] <= v[0] for u, v in zip(values, values[1:]))
        assert (zeta_mod._fixed_horner(coeffs, max(radii), 0, bits)[0]
                == max(v[0] for v in values))

    def test_one_scale_evaluation_at_the_largest_radius(self, monkeypatch):
        # the certificate evaluates P at each root kept (one per conjugate
        # pair, and the split-off real roots) and sum |c_i| r^i once
        p = zeta_checked(extremal(family("type1"), 24), 2)
        int_p = _integer_coeffs(list(p.coeffs))[0]
        abs_p = [abs(c) for c in int_p]
        assert abs_p != int_p
        calls = []

        def spy(*args, _fn=zeta_mod._fixed_horner):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(zeta_mod, "_fixed_horner", spy)
        rh_check(p)
        residual = [args for args in calls if args[0] == int_p]
        scale = [args for args in calls if args[0] == abs_p]
        # deg P = 14: six conjugate pairs and the roots +-1/sqrt(2)
        assert len(residual) == 8 and len(scale) == 1 and len(calls) == 9
        _, r_max, im, bits = scale[0]
        radii = [isqrt(zr * zr + zi * zi) for _, zr, zi, _ in residual]
        assert len(set(radii)) > 1  # rounding leaves the moduli a unit apart
        assert im == 0 and r_max == max(radii)
        monkeypatch.undo()
        assert zeta_mod._fixed_horner(abs_p, r_max, 0, bits)[0] == max(
            zeta_mod._fixed_horner(abs_p, r, 0, bits)[0] for r in radii)

    @pytest.mark.parametrize("fam_name,n", [
        ("type1", 150), ("type4", 151), ("q43", 150), ("q43-odd", 150), ("ozeki", 156),
    ])
    def test_high_degree_certified(self, fam_name, n, monkeypatch):
        fam = family(fam_name)
        p = zeta_checked(extremal(fam, n), fam.q)
        monkeypatch.setattr(zeta_mod, "_aberth_pass", _refuse)
        r = rh_check(p, 1e-9, 128)
        assert r.passed and r.max_abs_deviation < 1e-9 and r.max_residual < 1e-20
        assert len(r.roots) == p.degree == n + 2 - 2 * p.d


# The report's numbers are computed on ints (`_rh_report`); the oracles below
# are the `libmp` calls on raw mpf parts that they must equal bit for bit.
NEAR = libmp.round_nearest
REPORT_BITS = [53, 106, 256, 512]
REPORT_QS = [F(2), F(3), F(4), Q43]


def _libmp_target(q, bits):
    """1/sqrt(q) as mpf arithmetic computes 1 / sqrt(mpf(a) / b)."""
    q_mp = libmp.mpf_div(libmp.from_int(q.numerator, bits, NEAR),
                         libmp.from_int(q.denominator), bits, NEAR)
    return libmp.mpf_rdiv_int(1, libmp.mpf_sqrt(q_mp, bits, NEAR), bits, NEAR)


def _libmp_deviation(parts, target, bits):
    """The largest ||z| - target| over raw mpc parts with im >= 0, by
    `mpf_hypot`, `mpf_sub` and `mpf_abs`."""
    max_dev = libmp.fzero
    for re, im in parts:
        if im[0]:
            continue
        modulus = libmp.mpf_hypot(re, im, bits, NEAR)
        dev = libmp.mpf_abs(libmp.mpf_sub(modulus, target, bits, NEAR), bits, NEAR)
        if libmp.mpf_lt(max_dev, dev):
            max_dev = dev
    return max_dev


def _dyadic(t):
    """A raw mpf >= 0 as (m, e)."""
    return t[1], t[2]


def _report(points, exp, q, bits, tolerance=1e-9, res=(0, 0), res_den=1):
    return zeta_mod._rh_report([], points, exp, zeta_mod._inv_sqrt(q, bits), res,
                               res_den, tolerance, bits)


@st.composite
def circle_points(draw, bits):
    """(x, y, shift): the point (x + i y) 2^(shift - bits) with |x|, |y| <
    2^bits, on, near, inside or outside the circle of radius 1/sqrt(q) for
    q >= 4/3, on an axis, or with a tiny real part whose square `mpf_add`
    drops."""
    q = draw(st.sampled_from(REPORT_QS))
    radius2 = (q.denominator << 2 * bits) // q.numerator
    x = draw(st.integers(0, isqrt(radius2)))
    y = isqrt(radius2 - x * x)
    kind = draw(st.sampled_from(["on", "near", "any", "axis", "tiny"]))
    shift = 0
    if kind == "near":
        y = min(max(y + draw(st.integers(-1 << 24, 1 << 24)), 0), (1 << bits) - 1)
    elif kind == "any":
        x, y = (draw(st.integers(0, (1 << bits) - 1)) for _ in "xy")
        shift = draw(st.integers(-4, 2))
    elif kind == "axis":
        x, y = draw(st.sampled_from([(x, 0), (0, y), (0, 0)]))
    elif kind == "tiny":
        x, y = draw(st.integers(1, 1 << 24)), y >> 80 << 80
    if draw(st.booleans()):
        x = -x
    return x, y, shift


def _common_exponent(points, bits):
    """The points (x, y, shift) as ints at one exponent, and that exponent."""
    low = min(shift for _, _, shift in points)
    return ([(x << shift - low, y << shift - low) for x, y, shift in points],
            low - bits)


class TestReportNumbers:
    """`_rh_report` and its helpers against the `libmp` calls they replace."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(REPORT_BITS), st.sampled_from(REPORT_QS))
    def test_deviation_is_libmp_bit_for_bit(self, data, bits, q):
        points = data.draw(st.lists(circle_points(bits), min_size=1, max_size=5))
        ints, exp = _common_exponent(points, bits)
        parts = [(libmp.from_man_exp(x, exp), libmp.from_man_exp(y, exp)) for x, y in ints]
        target = _libmp_target(q, bits)
        max_dev = _libmp_deviation(parts, target, bits)
        tolerance = data.draw(st.sampled_from([1e-9, 1e-20, 0.5]))
        r = _report(ints, exp, q, bits, tolerance)
        assert r.max_abs_deviation == libmp.to_float(max_dev, rnd=NEAR)
        assert r.passed == libmp.mpf_lt(max_dev, libmp.from_float(tolerance))
        assert r.target_modulus == libmp.to_float(target, rnd=NEAR)

    def test_a_dropped_square_is_dropped(self):
        # mpf_add drops x^2 when its top bit lies more than bits + 8 below
        # y^2's and its lowest bit more than 100 below, and y^2 alone is
        # rounded down.  With y^2 = -7 2^102 (mod 2^302) the exact sum
        # carries into the kept bits, so the two roundings differ
        bits = 256
        root = 1  # root^2 = -7 (mod 2^200), lifted one bit at a time
        for k in range(3, 200):
            if (root * root + 7) >> k & 1:
                root += 1 << (k - 1)
        x, y = isqrt(7 << 102) + 1 | 1, root << 51
        xx, yy = x * x, y * y
        assert yy.bit_length() - xx.bit_length() > bits + 8 and yy & -yy == 1 << 102
        n = yy.bit_length() - bits - 4
        assert (xx + yy) >> n != yy >> n
        assert zeta_mod._modulus2(x, y, bits) == yy >> n << n
        parts = [(libmp.from_man_exp(x, -bits), libmp.from_man_exp(y, -bits))]
        for q in REPORT_QS:
            max_dev = _libmp_deviation(parts, _libmp_target(q, bits), bits)
            assert (_report([(x, y)], -bits, q, bits).max_abs_deviation
                    == libmp.to_float(max_dev, rnd=NEAR))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(REPORT_BITS), st.integers(1, 1 << 600), st.integers(1, 1 << 80))
    def test_target_is_libmp_bit_for_bit(self, bits, a, b):
        q = F(a, b)
        assume(q != 1)
        target = libmp.from_man_exp(*zeta_mod._inv_sqrt(q, bits))
        assert target == _libmp_target(q, bits)
        with mp.workprec(bits):  # the Aberth path's object arithmetic
            assert target == (1 / mp.sqrt(mp.mpf(a) / b))._mpf_

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(REPORT_BITS), st.data())
    def test_residual_is_libmp_bit_for_bit(self, bits, data):
        # the certified path's residual sqrt(max_res2) 2^-bits / |c_m| ...
        max_res2 = data.draw(st.integers(0, 1 << 2 * bits + 40))
        c = data.draw(st.integers(1, 1 << data.draw(st.sampled_from([1, 60, bits + 9]))))
        res = libmp.mpf_sqrt(libmp.from_int(max_res2, bits, NEAR), bits, NEAR)
        want = libmp.mpf_div(libmp.mpf_shift(res, -bits), libmp.from_int(c), bits, NEAR)
        rm, re_ = zeta_mod._sqrt_nearest(*zeta_mod._nearest(max_res2, 0, bits), bits)
        r = _report([], 0, F(2), bits, res=(rm, re_ - bits), res_den=c)
        assert r.max_residual == libmp.to_float(want, rnd=NEAR)
        # ... and the Aberth path's mpf quotient max |P(z)| / mpf(c_m)
        m = data.draw(st.integers(0, (1 << bits) - 1))
        e = data.draw(st.integers(-3 * bits, bits))
        den = libmp.from_int(c, bits, NEAR)
        want = libmp.mpf_div(libmp.from_man_exp(m, e), den, bits, NEAR)
        r = _report([], 0, F(2), bits, res=(m, e), res_den=libmp.to_int(den))
        assert r.max_residual == libmp.to_float(want, rnd=NEAR)

    @pytest.mark.parametrize("step,passed", [(-1, True), (0, False), (1, False)])
    def test_passed_compares_the_unrounded_deviation(self, step, passed):
        # a real root at 1/sqrt(2) + tolerance + step 2^-256: each deviation
        # rounds to the float tolerance itself, and only the one below passes
        bits, q, tolerance = 256, F(2), 1e-9
        tm, te = zeta_mod._inv_sqrt(q, bits)
        num, den = tolerance.as_integer_ratio()
        x = (tm << te + bits) + (num << bits) // den + step
        r = _report([(x, 0)], -bits, q, bits, tolerance)
        assert r.max_abs_deviation == tolerance and r.passed is passed

    @pytest.mark.parametrize("odd", [0, 1])
    def test_a_tie_rounds_to_even(self, odd):
        # a real root whose deviation lies halfway between the floats
        # M 2^-82 and (M + 1) 2^-82: the float is the one with M even
        bits, q = 256, F(2)
        tm, te = zeta_mod._inv_sqrt(q, bits)
        mantissa = (1 << 52) + odd
        x = (tm << te + bits) + ((2 * mantissa + 1) << bits - 83)
        parts = [(libmp.from_man_exp(x, -bits), libmp.fzero)]
        max_dev = _libmp_deviation(parts, _libmp_target(q, bits), bits)
        r = _report([(x, 0)], -bits, q, bits)
        assert r.max_abs_deviation == libmp.to_float(max_dev, rnd=NEAR)
        assert r.max_abs_deviation == ldexp(mantissa + odd, -82)

    def test_a_deviation_beyond_the_float_range(self):
        # the root -10^400 of 1 + 10^-400 T: `libmp.to_float` gives inf
        r = rh_check(ZetaPoly((1, F(1, 10**400)), 2))
        assert r.max_abs_deviation == float("inf") and not r.passed

    @pytest.mark.parametrize("fam_name,n", [("type1", 60), ("q43", 40), ("type4", 45)])
    def test_certified_report_is_libmp_bit_for_bit(self, fam_name, n):
        # the deviation, target and residual of a certified report, from its
        # roots as listed: the parts of a non-real root are its fixed-point
        # ints exactly, and the residual takes a real root +-1/sqrt(q) at
        # isqrt(2^(2 bits) / q)
        fam = family(fam_name)
        p = zeta_checked(extremal(fam, n), fam.q)
        r = rh_check(p)
        bits = r.precision_bits
        target = _libmp_target(fam.q, bits)
        parts = [z._mpc_ for z in r.roots]
        assert r.max_abs_deviation == libmp.to_float(
            _libmp_deviation(parts, target, bits), rnd=NEAR)
        assert r.target_modulus == libmp.to_float(target, rnd=NEAR)
        c = list(p._nums)
        inv_sqrt_q = isqrt((fam.q.denominator << 2 * bits) // fam.q.numerator)
        fixed = [[libmp.to_fixed(part, bits) for part in z] if z[1][1]
                 else [(-1) ** z[0][0] * inv_sqrt_q, 0] for z in parts]
        max_res2 = max(sum(v * v for v in zeta_mod._fixed_horner(c, *z, bits))
                       for z in fixed)
        res = libmp.mpf_sqrt(libmp.from_int(max_res2, bits, NEAR), bits, NEAR)
        want = libmp.mpf_div(libmp.mpf_shift(res, -bits), libmp.from_int(abs(c[-1])),
                             bits, NEAR)
        assert r.max_residual == libmp.to_float(want, rnd=NEAR)

    @pytest.mark.parametrize("q", [F(1, 2), F(2, 3)])
    def test_q_below_one(self, q, monkeypatch):
        # |T| = 1/sqrt(q) > 1: the fixed-point parts have more than `bits`
        # bits, and the deviation is that of the rounded roots as listed
        p = ZetaPoly(_product([(1, F(1, 3), q), (1, F(-1, 2), q), (1, 0, -q)]), q)
        monkeypatch.setattr(zeta_mod, "_aberth_pass", _refuse)
        r = rh_check(p)
        target = _libmp_target(q, r.precision_bits)
        assert r.passed and r.max_abs_deviation == libmp.to_float(
            _libmp_deviation([z._mpc_ for z in r.roots], target, r.precision_bits),
            rnd=NEAR)

    def test_certified_path_makes_no_mpf_arithmetic(self, monkeypatch):
        p = zeta_checked(extremal(family("type1"), 60), 2)
        calls = []
        for name in ("mpf_hypot", "mpf_sqrt", "mpf_div"):
            def spy(*args, _name=name, _fn=getattr(libmp, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(libmp, name, spy)
        monkeypatch.setattr(zeta_mod, "_aberth_pass", _refuse)
        r = rh_check(p)
        assert r.passed and calls == []

    def test_declined_input_reports_the_libmp_deviation(self, aberth_calls):
        # the close-roots case of test_undecided_inputs_reach_aberth: the
        # ladder's roots go through the same integer routine
        q = F(4)
        r = rh_check(ZetaPoly(_product([(1, 0, 4), (1, F(-1, 2), 4)]), q), 1e-9, 128)
        assert aberth_calls and r.passed
        bits = r.precision_bits
        target = _libmp_target(q, bits)
        max_dev = _libmp_deviation([z._mpc_ for z in r.roots], target, bits)
        assert r.max_abs_deviation == libmp.to_float(max_dev, rnd=NEAR)
        assert r.target_modulus == 0.5


class TestStarOperator:
    def test_q43_example(self, p12e):
        fam = family("q43")
        w12e = extremal(fam, 12)
        assert star_operator(w12e, fam) == generator("w2", Q43) ** 5
        check = verify_star(fam, 12)
        assert check.ok

    def test_type1_zeta_factor(self):
        assert verify_star(family("type1"), 12).ok
        assert star_zeta_factor(family("type1")) == [F(1), F(-2), F(2)]

    def test_type4_explicit_comparison(self):
        fam = family("type4")
        w9 = extremal(fam, 9)
        w7 = extremal(fam, 7)
        w_star = star_operator(w9, fam)
        assert w_star == w7
        p9 = zeta_checked(w9, 4)
        p7 = zeta_checked(w7, 4)
        expected = unipoly.mul([F(1, 3), F(-2, 3), F(4, 3)], list(p9.coeffs))
        assert expected == list(p7.coeffs)

    def test_inadmissible_degree(self):
        with pytest.raises(ValueError):
            star_operator(extremal(family("type1"), 16), family("type1"))
        with pytest.raises(ValueError):
            star_operator(extremal(family("q43"), 14), family("q43"))

    def test_closing_remark_relation(self):
        fam = family("q43-odd")
        p30 = zeta_checked(extremal(fam, 30), Q43)
        p28 = zeta_checked(extremal(fam, 28), Q43)
        assert list(p28.coeffs) == unipoly.mul([F(3), F(-6), F(4)],
                                               list(p30.coeffs))


# (degree modulus, residue, smallest degree, p(x, y), zeta factor ascending)
# as they were tabulated before the star operator was derived from q, parity
# and the odd generator's degree
_STAR_LITERALS = {
    "type1": (8, 4, 12, HomPoly(2, [1, 0, 1]), [F(1), F(-2), F(2)]),
    "type4": (6, 3, 9, HomPoly(2, [1, 0, F(1, 3)]), [F(1, 3), F(-2, 3), F(4, 3)]),
    "q43": (12, 0, 12, HomPoly(2, [1, 0, 3]), [F(3), F(-6), F(4)]),
}


class TestStarTable:
    @pytest.mark.parametrize("fam_name", sorted(_STAR_LITERALS))
    def test_matches_literal_rules(self, fam_name):
        fam = family(fam_name)
        modulus, residue, smallest, p, factor = _STAR_LITERALS[fam_name]
        assert star_zeta_factor(fam) == factor
        for n in range(2, 61):
            w = HomPoly.monomial(n - 2, 2)
            if n % modulus == residue and n >= smallest:
                assert star_operator(w, fam) == diff_op(p, w) * F(1, n * (n - 1)), n
            else:
                with pytest.raises(ValueError, match="inadmissible"):
                    star_operator(w, fam)

    @pytest.mark.parametrize("fam_name", ["q43-odd", "ozeki"])
    def test_no_star_operator(self, fam_name):
        fam = family(fam_name)
        with pytest.raises(ValueError, match="no star operator"):
            star_zeta_factor(fam)
        n = 18 if fam_name == "q43-odd" else 12
        with pytest.raises(ValueError, match="no star operator"):
            star_operator(extremal(fam, n), fam)
        with pytest.raises(ValueError, match="no star operator"):
            verify_star(fam, n)

    def test_no_star_operator_reported_before_the_degree(self):
        # ozeki has no members of degree 24; the missing operator is found
        # without the extremal construction
        with pytest.raises(ValueError, match="^no star operator for family ozeki$"):
            verify_star(family("ozeki"), 24)


def test_diff_operators_match_literals():
    assert DIFF_OPERATORS == {
        "type1": parse_poly("x*y^3 - x^3*y"),
        "type4": parse_poly("y^3 - 9*x^2*y"),
    }


class TestDivisibilityProp:
    @pytest.mark.parametrize("fam_name,degrees", [
        ("type1", [12, 14, 20, 28, 36]),
        ("type4", [9, 11, 15, 21, 27]),
    ])
    def test_holds_on_extremal_members(self, fam_name, degrees):
        fam = family(fam_name)
        for n in degrees:
            check = verify_divisibility_prop(extremal(fam, n), fam)
            assert check.divides and check.cofactor_divisible, n

    def test_holds_on_random_members_with_d_at_least_4(self):
        import random

        from fwenum.families import member_with_min_weight

        rng = random.Random(99)
        for fam_name, n in (("type1", 20), ("type1", 24), ("type4", 15),
                            ("type4", 19)):
            fam = family(fam_name)
            w = member_with_min_weight(fam, n, 4, rng)
            res = verify_divisibility_prop(w, fam)
            assert res.divides, (fam_name, n)

    def test_printed_type1_identities(self, printed):
        p = DIFF_OPERATORS["type1"]
        a = parse_poly("x^3*y - x*y^3")
        phi4, w22 = printed["phi4"], parse_poly("x^2 + y^2")
        assert diff_op(p, printed["w12"]) == a * phi4 * (-6336)
        assert diff_op(p, printed["w14"]) == a * phi4 * w22 * (-6240)
        assert diff_op(p, printed["w20"]) == a ** 3 * phi4 * (-319200)

    def test_w20prime_cofactor(self, printed):
        p = DIFF_OPERATORS["type1"]
        a = parse_poly("x^3*y - x*y^3")
        image = diff_op(p, printed["w20prime"])
        cof = divide_exact(a * printed["phi4"], image)
        g8 = parse_poly("x^8 - 238*x^6*y^2 + 490*x^4*y^4 - 238*x^2*y^6 + y^8")
        assert cof == g8 * 1920
        assert g8 == (printed["phi4"] ** 2 * 121
                      - parse_poly("x^2 + y^2") ** 4 * 113) * F(1, 8)
        check = verify_divisibility_prop(printed["w20prime"], family("type1"))
        assert check.ok and check.divides and check.cofactor_divisible

    def test_printed_type4_identity(self, printed):
        p = DIFF_OPERATORS["type4"]
        a = parse_poly("x^2*y - y^3")
        w24 = parse_poly("x^2 + 3*y^2")
        assert diff_op(p, printed["w11"]) == a * printed["phi3"] * w24 * (-720)
        assert verify_divisibility_prop(printed["w11"], family("type4")).ok

    def test_d_below_four_rejected(self):
        with pytest.raises(ValueError):
            verify_divisibility_prop(extremal(family("type1"), 8), family("type1"))


class TestExtremalDiffIdentity:
    @pytest.mark.parametrize("fam_name,degrees", [
        ("type1", [12, 14, 16, 18, 20, 22, 28]),
        ("type4", [9, 11, 13, 15, 17, 21]),
    ])
    def test_holds(self, fam_name, degrees):
        fam = family(fam_name)
        for n in degrees:
            assert verify_extremal_diff_identity(extremal(fam, n), fam), n

    def test_constants_match_printed_examples(self, printed):
        # n = 12: (d-2)_3 (n-d) A_d = 24 * 8 * (-33) = -6336
        from fwenum.homopoly import pochhammer

        assert pochhammer(2, 3) * 8 * (-33) == -6336
        # n = 11, type4: (d-2)_3 A_d = 24 * (-30) = -720
        assert pochhammer(2, 3) * (-30) == -720


class TestBinomialRowSum:
    @staticmethod
    def direct(weights, n_choose, y_start, total_deg):
        acc = HomPoly.zero(total_deg)
        x_minus_y = parse_poly("x - y")
        for i, w_i in enumerate(weights):
            ypow = y_start + i
            if ypow <= total_deg:
                acc = acc + (x_minus_y ** (total_deg - ypow)
                             * HomPoly.monomial(0, ypow, w_i * comb(n_choose, ypow)))
        return acc

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                    max_size=10),
           st.integers(0, 6), st.integers(0, 14), st.integers(0, 16))
    def test_matches_term_by_term_expansion(self, weights, y_start, total_deg, n_choose):
        # n_choose below y_start + i makes C(n_choose, y_start + i) = 0
        assume(y_start <= total_deg)
        got = zeta_mod._binomial_row_sum(weights, n_choose, y_start, total_deg)
        assert got == self.direct(weights, n_choose, y_start, total_deg)

    def test_zero_binomials_vanish(self):
        weights = [F(3), F(-1, 2), F(5)]
        assert zeta_mod._binomial_row_sum(weights, 1, 2, 6) == HomPoly.zero(6)
        # only the i = 0 term has C(2, 2) != 0
        assert zeta_mod._binomial_row_sum(weights, 2, 2, 6) == self.direct(
            weights[:1], 2, 2, 6)


class TestZetaBinomialIdentity:
    @pytest.mark.parametrize("fam_name,degrees", [
        ("type1", [12, 14, 16, 18, 20, 22, 24, 26]),  # m = 2, v = 0..3; m = 4
        ("type4", [9, 11, 13, 15, 17, 19]),
    ])
    def test_holds(self, fam_name, degrees):
        fam = family(fam_name)
        for n in degrees:
            assert verify_zeta_binomial_identity(extremal(fam, n), fam), n

    def test_odd_m_rejected(self):
        fam = family("type1")
        with pytest.raises(ValueError):
            verify_zeta_binomial_identity(extremal(fam, 8), fam)  # d = 2


@pytest.mark.parametrize("fam_name,n,delta", [
    ("type1", 13, 4), ("type1", 11, 4), ("type4", 10, 3), ("type4", 8, 3)])
@pytest.mark.parametrize("verifier", [verify_extremal_diff_identity,
                                      verify_zeta_binomial_identity])
def test_identities_reject_undecomposable_degree(fam_name, n, delta, verifier):
    # M_(n,4) is monic with d = 4 and d_perp = n - 2, so both verifiers reach
    # the shared decomposition n = delta (d - 1) + 2v; n - 3 delta is odd or < 0
    fam = family(fam_name)
    w = mds_enumerator(n, 4, fam.q).poly
    with pytest.raises(ValueError,
                       match=rf"^degree does not decompose as {delta}\(d-1\) \+ 2v$"):
        verifier(w, fam)


def proportionality(f, g):
    """The scalar of `_proportionality`, which returns it as a polynomial of
    degree 0, or None."""
    c = _proportionality(f, g)
    return None if c is None else c.coeffs[0]


class TestProportionality:
    @pytest.mark.parametrize("c", [F(-3, 7), F(5), F(1)])
    def test_proportional_pair(self, c):
        f = parse_poly("2/3*x^3*y - x*y^3 + 5*y^4")
        assert proportionality(f, f * c) == c

    def test_not_proportional(self):
        f = parse_poly("x^2 + 1/2*x*y")
        assert proportionality(f, parse_poly("2*x^2 + x*y + y^2")) is None
        assert proportionality(f, parse_poly("2*x^2 + 2*x*y")) is None
        assert proportionality(parse_poly("x*y + y^2"), parse_poly("x^2 + x*y + y^2")) is None

    def test_zero(self):
        f = parse_poly("x^2 - y^2")
        assert proportionality(f, HomPoly.zero(2)) == 0
        assert proportionality(HomPoly.zero(2), f) is None

    def test_degree_mismatch(self):
        assert proportionality(parse_poly("x^2"), parse_poly("x^3")) is None

    def test_quadratic(self):
        r2 = sqrt_rational(F(2))[0]
        f = parse_poly("x^2 + 3*x*y - y^2")
        assert proportionality(f, f * r2) == r2
        g = HomPoly(2, [r2, QuadElem(0, 3, 2), F(-1)])
        assert proportionality(f, g) is None
        assert proportionality(g, g * F(2, 3)) == F(2, 3)
        assert proportionality(g, g * r2) == r2
        f = HomPoly(2, [r2, 0, QuadElem(0, 2, 2)])  # a leading coefficient with no rational part
        twin = parse_poly("2*x^2 + 4*y^2")  # r2 * f
        assert proportionality(f, HomPoly.zero(2)) == 0
        assert proportionality(f, twin) == r2
        assert proportionality(twin, f) == QuadElem(0, F(1, 2), 2)
        assert proportionality(f, parse_poly("2*x^2 + 3*y^2")) is None
        assert proportionality(twin, f + HomPoly.monomial(1, 1)) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.fractions(-5, 5, max_denominator=4),
                              st.fractions(-5, 5, max_denominator=4)),
                    min_size=1, max_size=5).filter(lambda c: any(a or b for a, b in c)),
           st.fractions(-5, 5, max_denominator=4), st.fractions(-5, 5, max_denominator=4))
    def test_ratio_against_the_reference(self, parts, u, v):
        # f's first nonzero coefficient may have both parts; c = u + v sqrt(3)
        f = HomPoly(len(parts) - 1, [Surd(a, b, 3).value() for a, b in parts])
        c = Surd(u, v, 3)
        g = HomPoly(f.degree, [(c * x).value() for x in lift(f.coeffs)])
        assert proportionality(f, g) == c
        assert _proportionality(f, g).degree == 0


class TestDuursmaOkuda:
    def test_sigma2_part_one_factor(self, printed):
        res = verify_duursma_okuda(parse_poly("x^3*y - x*y^3"), printed["w12"],
                                   sigma_q(2))
        assert res.preconditions_ok and res.c1 == 1 and res.c2 == -1
        assert res.part1_ok
        image = diff_op(parse_poly("x^3*y - x*y^3"), printed["w12"])
        assert act_matrix(image, sigma_q(2)) == image * (-1)

    def test_identity_matrix_trivial(self, printed):
        res = verify_duursma_okuda(parse_poly("x^3*y - x*y^3"), printed["w12"],
                                   Mat2.identity(), a=parse_poly("x*y"))
        assert res.ok and res.c1 == res.c2 == 1

    def test_tau_cofactor_transform(self, printed):
        # the exact expansion fixes the cofactor sign: c2/(c1 c3) = +1 here
        p = DIFF_OPERATORS["type4"]
        a = parse_poly("x^2*y - y^3")
        res = verify_duursma_okuda(p, printed["w11"], TAU, a=a)
        assert res.preconditions_ok
        assert (res.c1, res.c2, res.c3) == (-1, 1, -1)
        assert res.part3_applicable and res.part3_ok
        cof = divide_exact(a, diff_op(p, printed["w11"]))
        assert act_matrix(cof, TAU) == cof  # +1, not -1

    def test_sigma4_cofactor_transform(self, printed):
        p = DIFF_OPERATORS["type4"]
        a = parse_poly("x^2*y - y^3")
        res = verify_duursma_okuda(p, printed["w11"], sigma_q(4), a=a)
        assert res.preconditions_ok
        assert (res.c1, res.c2, res.c3) == (1, -1, 1)
        assert res.part3_ok
        cof = divide_exact(a, diff_op(p, printed["w11"]))
        assert act_matrix(cof, sigma_q(4)) == -cof

    def test_coprime_clause_with_xy(self, printed):
        res = verify_duursma_okuda(DIFF_OPERATORS["type1"], printed["w12"],
                                   sigma_q(2), a=parse_poly("x*y"))
        assert res.preconditions_ok and res.part2_applicable and res.part2_ok
        assert res.part2_coprime_applicable and res.part2_coprime_ok
        assert not res.part3_applicable  # (xy)^sigma2 is not proportional to xy

    def test_precondition_violation_reported(self, printed):
        res = verify_duursma_okuda(parse_poly("x"), printed["w12"], sigma_q(2))
        assert not res.preconditions_ok
        assert "p^(t sigma)" in res.failed_precondition

    def test_suites_small(self):
        rep = run_duursma_okuda_suite(samples=25, seed=11)
        assert rep.ok
        passed, total = run_duursma_lemma_suite(samples=25, seed=11)
        assert passed == total == 25
