"""Shared fixtures: printed reference polynomials and an independent
series-expansion oracle for the zeta generating-function identity."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from fwenum.homopoly import HomPoly, parse_poly

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[
        HealthCheck.large_base_example,
        HealthCheck.filter_too_much,
        HealthCheck.too_slow,
    ],
)
# the seed sweep: the same settings with fresh examples, drawn from the seed
# given by `--hypothesis-profile sweep --hypothesis-seed N`
settings.register_profile("sweep", settings.get_profile("deterministic"), derandomize=False)
settings.load_profile("deterministic")


PRINTED = {
    "phi4": "x^4 - 6*x^2*y^2 + y^4",
    "phi3": "x^3 - 9*x*y^2",
    "phi6": "x^6 - 5*x^4*y^2 + 5/3*x^2*y^4 - 1/27*y^6",
    "wh8": "x^8 + 14*x^4*y^4 + y^8",
    "w12": "x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12",
    "w14": "x^14 - 26*x^10*y^4 - 39*x^8*y^6 - 39*x^6*y^8 - 26*x^4*y^10 + y^14",
    "w20": "x^20 - 190*x^14*y^6 + 95*x^12*y^8 - 836*x^10*y^10 + 95*x^8*y^12"
           " - 190*x^6*y^14 + y^20",
    "w20prime": "x^20 + 5*x^16*y^4 - 240*x^14*y^6 + 250*x^12*y^8"
                " - 1056*x^10*y^10 + 250*x^8*y^12 - 240*x^6*y^14"
                " + 5*x^4*y^16 + y^20",
    "w11": "x^11 - 30*x^7*y^4 - 336*x^5*y^6 - 1035*x^3*y^8 - 648*x*y^10",
    "w12e_43": "x^12 + 55/9*x^8*y^4 - 176/81*x^6*y^6 + 55/81*x^4*y^8"
               " + 1/729*y^12",
    "w22e_43": "x^22 + 220/27*x^18*y^4 + 2497/243*x^16*y^6 + 2750/729*x^14*y^8"
               " + 484/2187*x^12*y^10 + 484/6561*x^10*y^12 + 2750/19683*x^8*y^14"
               " + 2497/59049*x^6*y^16 + 220/59049*x^4*y^18 + 1/177147*y^22",
}

# 5103 * P12E coefficients, ascending in T
P12E_NUM = (189, 504, 846, 1092, 1128, 896, 448)
P12E_DEN = 5103


@pytest.fixture(scope="session")
def printed() -> dict:
    return {name: parse_poly(text) for name, text in PRINTED.items()}


# -- independent oracle for the zeta defining identity -----------------------------


def _tpoly_mul_scalar_series(tpoly: list, series: list, upto: int) -> list:
    """(list of HomPoly) * (list of Fraction), truncated to upto+1 terms."""
    zero = None
    out = [None] * (upto + 1)
    for i, hp in enumerate(tpoly[: upto + 1]):
        for j, s in enumerate(series[: upto + 1 - i]):
            if not s:
                continue
            term = hp * s
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    n = tpoly[0].degree
    return [HomPoly.zero(n) if v is None else v for v in out]


def zeta_identity_holds(w: HomPoly, q, p_coeffs, d: int) -> bool:
    """Expand P(T) (y(1-T)+xT)^n / ((1-T)(1-qT)) up to T^(n-d) by truncated
    series multiplication and compare the top coefficient with (W - x^n)/(q-1).

    This recomputes the defining identity with polynomial arithmetic only and
    is independent of the linear-system solver.
    """
    q = Fraction(q)
    n = w.degree
    upto = n - d
    # (y(1-T) + xT)^n = (y + (x-y) T)^n, truncated
    lin = [
        HomPoly(1, [Fraction(0), Fraction(1)]),            # y
        HomPoly(1, [Fraction(1), Fraction(-1)]),           # x - y
    ]
    power = [HomPoly(0, [Fraction(1)])]
    for _ in range(n):
        nxt = [None] * min(len(power) + 1, upto + 1)
        for i, hp in enumerate(power[: upto + 1]):
            for j, l in enumerate(lin):
                if i + j > upto:
                    continue
                term = hp * l
                nxt[i + j] = term if nxt[i + j] is None else nxt[i + j] + term
        deg = power[0].degree + 1
        power = [HomPoly.zero(deg) if v is None else v for v in nxt]
    # geometric factor 1/((1-T)(1-qT)) = sum (1 + q + ... + q^s) T^s
    geom = [Fraction(1)]
    for _ in range(upto):
        geom.append(geom[-1] * q + 1)
    expanded = _tpoly_mul_scalar_series(power, geom, upto)
    expanded = _tpoly_mul_scalar_series(expanded, list(p_coeffs), upto)
    target_coeffs = [
        (c - (1 if i == 0 else 0)) / (q - 1) for i, c in enumerate(w.coeffs)
    ]
    return expanded[upto] == HomPoly(n, target_coeffs)
