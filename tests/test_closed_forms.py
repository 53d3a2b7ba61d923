"""type4 zeta polynomials against a closed form built from n alone.

For type4 (q = 4) at n = 3 (mod 6), the zeta polynomial of the extremal
enumerator is

    P(T) = (1 - 2T) T^m P_m^(alpha, beta)(T + 1/(4T)),  scaled so that P(1) = 1,

with P_m^(alpha, beta) the Jacobi polynomial, alpha = n/3 + 1/2, beta = 1/2
and m = (n - 3)/6.  At n = 1 (mod 6), P is (1 - 2T + 4T^2)/3 times the closed
form at n + 2: the star factor 1 - 2T + qT^2, over its value q - 1 at T = 1.

The closed form comes from the explicit Jacobi sum (Szego, Orthogonal
Polynomials, (4.3.2)) on Fractions, with no fwenum algebra; only P comes
from fwenum, as `zeta_checked` of `extremal`.  With x = T + 1/(4T),
(x - 1)/2 = (2T - 1)^2 / (8T) and (x + 1)/2 = (2T + 1)^2 / (8T), so

    T^m P_m(x) = 8^(-m) sum_k C(m + alpha, m - k) C(m + beta, k)
                        (2T - 1)^(2k) (2T + 1)^(2m - 2k).

Tier-1 checks every such degree up to `TIER1_MAX_N`; `check_range` takes
any bound, for example

    PYTHONPATH=src:tests python -c "import test_closed_forms as t; t.check_range(303)"
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from fwenum.families import extremal, family
from fwenum.zeta import zeta_checked

TIER1_MAX_N = 159


def _mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _binom(top: Fraction, k: int) -> Fraction:
    """The generalised binomial coefficient C(top, k)."""
    out = Fraction(1)
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


def _scaled(p: list) -> list:
    """p over p(1)."""
    at_one = sum(p)
    return [c / at_one for c in p]


def jacobi_closed_form(n: int) -> list[Fraction]:
    """The coefficients of P at type4 n = 3 (mod 6), ascending in T."""
    if n % 6 != 3:
        raise ValueError(f"the closed form is for n = 3 (mod 6), not n = {n}")
    m = (n - 3) // 6
    alpha, beta = Fraction(n, 3) + Fraction(1, 2), Fraction(1, 2)
    # the powers (2T - 1)^(2k) and (2T + 1)^(2k), k = 0..m
    minus, plus = [[Fraction(1)]], [[Fraction(1)]]
    for _ in range(m):
        minus.append(_mul(minus[-1], [1, -4, 4]))
        plus.append(_mul(plus[-1], [1, 4, 4]))
    total = [Fraction(0)] * (2 * m + 1)
    for k in range(m + 1):
        weight = _binom(m + alpha, m - k) * _binom(m + beta, k)
        for i, c in enumerate(_mul(minus[k], plus[m - k])):
            total[i] += weight * c
    # 8^(-m) cancels in the scaling
    return _scaled(_mul([1, -2], total))


def closed_form(n: int) -> list[Fraction]:
    """P at type4 n = 1 or 3 (mod 6) from the closed form."""
    if n % 6 == 1:
        return _scaled(_mul([1, -2, 4], jacobi_closed_form(n + 2)))
    return jacobi_closed_form(n)


def fwenum_zeta(n: int) -> list[Fraction]:
    fam = family("type4")
    return list(zeta_checked(extremal(fam, n), fam.q).coeffs)


def check_range(max_n: int) -> int:
    """Compare P with the closed form at every type4 n = 1 or 3 (mod 6)
    from 7 to max_n; returns the number of degrees checked."""
    degrees = [n for n in range(7, max_n + 1) if n % 6 in (1, 3)]
    for n in degrees:
        assert fwenum_zeta(n) == closed_form(n), n
    return len(degrees)


@pytest.mark.parametrize("n", range(9, TIER1_MAX_N + 1, 6))
def test_jacobi_closed_form(n):
    assert fwenum_zeta(n) == closed_form(n)


@pytest.mark.parametrize("n", range(7, TIER1_MAX_N - 1, 6))
def test_star_factor_times_the_closed_form(n):
    assert fwenum_zeta(n) == closed_form(n)


def test_small_closed_forms_by_hand():
    # n = 9: m = 1, alpha = 7/2; P_1(x) = (alpha - beta)/2 + (alpha + beta + 2) x / 2
    # = 3/2 + 3x, so T P_1(T + 1/(4T)) = 3/4 + 3T/2 + 3T^2, times (1 - 2T)
    want = _scaled(_mul([1, -2], [Fraction(3, 4), Fraction(3, 2), 3]))
    assert jacobi_closed_form(9) == want
    with pytest.raises(ValueError):
        jacobi_closed_form(7)
