"""An outside oracle for the RH verdict of `rh_check`.

sympy decides RH for P exactly, from P alone, with no fwenum code; fwenum
gives only P (`zeta_checked`) and the verdict, through its public API.

The fold: s = qT + 1/T maps the two roots of qT^2 - sT + 1 to one s, and a
root T of P lies on |T| = 1/sqrt(q) exactly when its s is real and lies in
[-2 sqrt(q), 2 sqrt(q)] (then the two roots T are conjugate, or equal, with
product 1/q).  The resultant Res_T(P(T), qT^2 - sT + 1) has as its roots the
s of every root T of P: with the functional equation that is the fold R of P
twice over, times s -+ 2 sqrt(q) for each root +-1/sqrt(q) that the fold
splits off, which lies on the circle.  So RH holds for P exactly when two
counts of the squarefree part R of the resultant match:

- all deg R roots of R are real: its real-root count is its degree;
- every root s has s^2 in [0, 4q]: with R(s) = E(s^2) + s O(s^2), the
  roots of S(t) = R(sqrt(t)) R(-sqrt(t)) = E(t)^2 - t O(t)^2 are the s^2,
  and all distinct roots of S lie in [0, 4q].

`Poly.count_roots` takes rational bounds only (it refuses 2 sqrt(2)), and
the bounds 0 and 4q of S are rational.  The interval is closed: roots at
s = +-2 sqrt(q) are double roots T = +-1/sqrt(q), on the circle.
"""

from __future__ import annotations

import pytest
import sympy as sp

import fwenum

T, s, t = sp.symbols("T s t")

# the fold R has degree deg P // 2; the oracle runs to deg R = 20 (deg P <= 41)
MAX_DEG_P = 41
# every degree up to deg P = 16, and the highest degree up to MAX_DEG_P
ALL_UP_TO_DEG_P = 16


def sympy_rh(p: fwenum.ZetaPoly) -> bool:
    """Whether every root of P lies on |T| = 1/sqrt(q), decided by sympy."""
    q = sp.Rational(p.q.numerator, p.q.denominator)
    poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                   T, domain="QQ[s]")
    quadratic = sp.Poly(q * T**2 - s * T + 1, T, domain="QQ[s]")
    r = sp.Poly(poly.resultant(quadratic).as_expr(), s).sqf_part()
    c = r.all_coeffs()[::-1]  # ascending
    even, odd = (sp.Poly(c[i::2][::-1] or [0], t) for i in (0, 1))
    squares = (even**2 - sp.Poly(t, t) * odd**2).sqf_part()
    return (r.count_roots() == r.degree()
            and squares.count_roots(0, 4 * q) == squares.degree())


def _oracle_degrees(fam: fwenum.FamilySpec) -> list[fwenum.ZetaPoly]:
    polys = []
    for n in range(1, 200):
        if not fwenum.basis_exponents(fam, n):
            continue
        p = fwenum.zeta_checked(fwenum.extremal(fam, n), fam.q)
        if p.degree <= MAX_DEG_P:
            polys.append(p)
        elif p.degree > MAX_DEG_P + 8:  # deg P grows with n, by a few at a time
            break
    return [p for p in polys if p.degree <= ALL_UP_TO_DEG_P] + polys[-1:]


@pytest.mark.parametrize("name", ["type1", "type4", "q43", "q43-odd", "ozeki"])
def test_verdicts_of_the_families(name):
    polys = _oracle_degrees(fwenum.family(name))
    assert max(p.degree for p in polys) >= MAX_DEG_P - 3
    for p in polys:
        assert sympy_rh(p) is fwenum.rh_check(p).passed is True, p.n


@pytest.mark.parametrize("coeffs", [(1, 3, 2), (1, -3, 2)])
def test_roots_off_the_circle(coeffs):
    # (1 +- T)(1 +- 2T): the roots -+1 and -+1/2 fold to s = -+3, and
    # 9 > 4q = 8
    p = fwenum.ZetaPoly(coeffs, 2)
    assert sympy_rh(p) is fwenum.rh_check(p).passed is False
