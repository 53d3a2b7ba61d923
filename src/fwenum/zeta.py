"""Zeta polynomials, functional equation, numerical Riemann-hypothesis checks,
MDS enumerators, star operators and the theorem-level identity verifiers.

The zeta polynomial is extracted by two exact routes on Python ints that
share only W and q.  The generating-function route builds the right-hand side
R from d and W and evaluates the Lagrange-inversion closed form
P(T) = (1 - qT) (1 - T)^(-d) C(T/(1 - T)) mod T^(n-d+1) by prefix sums.  The
MDS route finds its own d and reads the binomial moments of W, in which the
MDS basis is a convolution with q^r - 1, so P follows by a three-term
recurrence.  Both are readings of one identity, not independent derivations:
the comparison checks independent code on independent inputs (R and d
against W).  `ZetaPoly` stores P on ints over one denominator, and every step
below reads them.

Root location is the only numerical step.  P is first folded exactly, on
Python ints, with its functional equation into R(s), s = qT + 1/T, of half
the degree.  When the signs of R at dyadic points prove all its roots real,
simple and inside (-2 sqrt(q), 2 sqrt(q)), RH holds exactly and the roots are
refined and lifted on Python ints; each refined root is closed by a sign
change that a fixed-point truncation bound decides, with exact evaluation
when the bound does not.  Otherwise Aberth iteration with deterministic
seeding finds the roots of R, first in hardware doubles and then in arbitrary
precision with warm-started precision escalation, and each root s is lifted
to its two roots T.  On either path a residual check on P itself certifies the
lifted set, and the report takes each root's deviation from its raw mpmath
parts.  mpmath is imported inside the functions of that step, so the exact
routes run without loading it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, cos, gcd, inf, isfinite, isqrt, lcm, ldexp, pi
from operator import add, mul

from . import unipoly
from .families import (
    FAMILIES,
    FamilySpec,
    bound,
    extremal,
    family,
    member_with_min_weight,
)
from .homopoly import (
    TAU,
    HomPoly,
    Mat2,
    act_matrix,
    diff_op,
    divide_exact,
    min_weight,
    parse_poly,
    pochhammer,
    sigma_q,
    weight_profile,
    _check_q,
    _coefficient,
    _common_root,
    _dehomogenize,
    _lowest,
    _mat,
    _poly,
)
from .record import Record
from .unipoly import _convolve, _integer_coeffs

__all__ = [
    "ZetaPoly",
    "RHReport",
    "MDSEnumerator",
    "RHConvergenceError",
    "zeta_from_genfunc",
    "zeta_from_mds",
    "zeta_checked",
    "mds_enumerator",
    "functional_equation_check",
    "rh_check",
    "star_operator",
    "star_zeta_factor",
    "star_scan_q43_odd",
    "verify_star",
    "verify_divisibility_prop",
    "verify_extremal_diff_identity",
    "verify_zeta_binomial_identity",
    "verify_duursma_okuda",
    "verify_duursma_lemma",
    "DIFF_OPERATORS",
]


_PRECISION_CEILING_BITS = 8192
# hardware doubles; the root finder's first stage runs at this precision
MIN_PRECISION_BITS = 53
# the first pass and its confirming pass at twice the bits fit under the ceiling
MAX_PRECISION_BITS = _PRECISION_CEILING_BITS // 2


def parse_precision_bits(text: str) -> int:
    """A working precision for `rh_check` read from text: an integer in
    [MIN_PRECISION_BITS, MAX_PRECISION_BITS]; raises ValueError otherwise."""
    try:
        bits = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if not MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"{bits} is outside [{MIN_PRECISION_BITS}, {MAX_PRECISION_BITS}]")
    return bits


DEFAULT_PRECISION_BITS = 128


class RHConvergenceError(RuntimeError):
    """Root refinement did not converge: the root set did not stabilise below
    the precision ceiling, or it stabilised with residuals that are not small."""


# -- zeta polynomial ------------------------------------------------------------


class ZetaPoly(Record):
    """P(T) together with the parameters of the enumerator it came from.

    Stored as `_nums` / `_den`: ascending ints with no trailing zeros ((0,)
    for P = 0) over `_den` > 0 in lowest terms; `coeffs` is built on read.
    Polys compare and hash by q and the coefficients alone.  Given n and d
    but no sign, the sign of the functional equation is computed.
    """

    __slots__ = ("_nums", "_den", "q", "n", "d", "sign")

    def __init__(self, coeffs, q, n: int | None = None, d: int | None = None,
                 sign: int | None = None):
        _store_zeta(self, *_integer_coeffs([Fraction(c) for c in coeffs]), q, n, d, sign)

    def __reduce__(self):
        # the slots are not the constructor's arguments
        return ZetaPoly, (self.coeffs, self.q, self.n, self.d, self.sign)

    @property
    def coeffs(self) -> tuple:
        return tuple([Fraction(c, self._den) for c in self._nums])

    @property
    def degree(self) -> int:
        return unipoly.degree(self._nums)

    @property
    def genus(self) -> Fraction | None:
        if self.n is None or self.d is None:
            return None
        return Fraction(self.n, 2) + 1 - self.d

    def __eq__(self, other):
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        return self.q == other.q and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.q, self._den, self._nums))

    def __str__(self):
        return unipoly.to_string(list(self.coeffs), "T")

    def to_latex(self) -> str:
        c = self.coeffs
        return unipoly.format_terms(
            ((c[i], unipoly.power_string("T", i, True)) for i in range(len(c) - 1, -1, -1)),
            latex=True)

    def to_json(self) -> str:
        payload = {
            "q": str(self.q),
            "n": self.n,
            "d": self.d,
            "genus": None if self.genus is None else str(self.genus),
            "sign": self.sign,
            "coeffs": [str(c) for c in self.coeffs],
        }
        return json.dumps(payload)


def _store_zeta(p: ZetaPoly, nums: list[int], den: int, q, n, d, sign) -> ZetaPoly:
    """Fill p with P = nums / den (den > 0), trimmed and reduced by one gcd;
    q is checked and, given n and d but no sign, the sign is computed."""
    nums = unipoly.trim(nums)
    g = gcd(den, *nums)
    Record.__init__(p, tuple([v // g for v in nums]) or (0,), den // g, _check_q(q), n, d, sign)
    if sign is None and n is not None and d is not None:
        object.__setattr__(p, "sign", functional_equation_check(p))
    return p


def zeta_from_genfunc(w: HomPoly, q) -> ZetaPoly:
    """The unique P of degree <= n - d matching the generating-function identity.

    The T^(n-d) coefficient of P(T) (y(1-T) + xT)^n / ((1-T)(1-qT)) is forced
    to equal (W - x^n)/(q - 1); that is n + 1 scalar equations for the n-d+1
    unknown coefficients.  Those for y^i x^(n-i), i < d, carry no unknown and
    are checked by `_scaled_weights`; the one for i = d+k reads
    c_k = [T^k] P(T) (1-T)^(d+k-1) / (1-qT), c_k = W_(d+k) / ((q-1) C(n, d+k)).
    Lagrange inversion on T = x(1-T) sums them to
    C(x) = sum_k c_k x^k = (1+x)^(-d) P(x/(1+x)) / (1 - qx/(1+x)), so
    P(T) = (1 - qT) (1 - T)^(-d) C(T/(1 - T)) mod T^(n-d+1) (`_zeta_genfunc`).
    """
    return _extract(w, q, (_genfunc_route,))


def _extract(w: HomPoly, q, routes) -> ZetaPoly:
    """P from each of `routes`, which must agree.  Each route reads only W
    and q and returns P as (nums, den); the pairs are compared in lowest terms
    (`_lowest`).  d_perp >= 2 is read off the x^(n-1) y coefficient of the
    MacWilliams image unexpanded: with d >= 2 the image is no multiple of
    x^n, which would make w a multiple of (x + (q-1)y)^n, whose A_1 is
    nonzero.
    """
    d, q, n = min_weight(w), _check_q(q), w.degree
    a, b = q.numerator, q.denominator
    # b times that coefficient, (a - b) n sum f_i - a sum i f_i, on each part
    if d < 2 or any((a - b) * n * sum(part) - a * sum(map(mul, range(n + 1), part))
                    for part in (w._nums, w._surd) if part is not None):
        d_perp = weight_profile(w, q).d_perp  # or "no positive-weight term"
        raise ValueError(
            f"zeta extraction needs d, d_perp >= 2; got d = {d}, d_perp = {d_perp}"
        )
    first, *others = [_lowest(*route(w, q), None, 1)[:2] for route in routes]
    if any(p != first for p in others):
        raise AssertionError("zeta oracle disagreement between the two methods")
    return _store_zeta(object.__new__(ZetaPoly), *first, q, n, d, None)


def _scaled_weights(w: HomPoly, q: Fraction, d: int) -> tuple[list[int], int]:
    """The right-hand side of the generating-function route, on ints.

    Returns (R, L) with R_k = L b^k c_k for k = 0..n-d, where
    c_k = W_(d+k) / ((q - 1) C(n, d+k)), q = a/b and L is the lcm of the
    denominators of the c_k.  With W stored as nums / den, each
    c_k = nums[d+k] b / ((a - b) den C(n, d+k)) is reduced by one gcd to a
    positive denominator, and the binomials follow their recurrence.  Raises
    ValueError unless W is in standard form, monic with A_1 = ... = A_(d-1)
    = 0 (the equations with no unknown).
    """
    n, nums = w.degree, w._nums
    if not w.is_rational() or nums[0] != w._den or any(nums[1:d]):
        raise ValueError("inconsistent zeta system: input is not of the standard form")
    a, b = q.numerator, q.denominator
    # c_k = nums[d+k] top / (bottom C(n, d+k)) with bottom = |a - b| den > 0
    top, bottom = (b, (a - b) * w._den) if a > b else (-b, (b - a) * w._den)
    reduced, binom = [], comb(n, d)
    for i in range(d, n + 1):
        num, den = top * nums[i], bottom * binom
        g = gcd(num, den)
        reduced.append((num // g, den // g))
        binom = binom * (n - i) // (i + 1)
    big_l = lcm(*[den for _, den in reduced])
    out, bpow = [], 1
    for num, den in reduced:
        out.append(num * (big_l // den) * bpow)
        bpow *= b
    return out, big_l


def _zeta_genfunc(rhs: list[int], q: Fraction, n: int, d: int) -> list[int]:
    """The scaled unknowns X_k = L b^k p_k by the closed form, on ints.

    Lagrange inversion of the generating-function identity gives
    P(T) = (1 - qT) (1 - T)^(-d) C(T/(1 - T)) mod T^(N+1), N = n - d, with
    C(x) = sum_j c_j x^j and R_j = L b^j c_j (`_scaled_weights`, q = a/b).
    With G_j = R_j b^(N-j) = L b^N c_j, Horner's rule in u = T/(1 - T) takes
    acc <- G_j + u acc, and u acc is acc's prefix sums shifted by T; the
    list for step j needs N - j + 1 terms, so the last is T^N.  d more
    prefix-sum passes multiply by (1 - T)^(-d) and give H = L b^N (1 - T)^(-d)
    C(u), and X_m = (b H_m - a H_(m-1)) / b^(N+1-m), an exact division that
    is checked.  The O(N^2) core is additions only.
    """
    a, b = q.numerator, q.denominator
    top = n - d
    bpow = [1]
    for _ in range(top + 1):
        bpow.append(bpow[-1] * b)
    acc = [rhs[top]]
    for j in range(top - 1, -1, -1):
        acc = [rhs[j] * bpow[top - j], *accumulate(acc)]
    for _ in range(d):
        acc = list(accumulate(acc))
    out = []
    for m, (h, prev) in enumerate(zip(acc, [0, *acc])):
        x, rem = divmod(b * h - a * prev, bpow[top + 1 - m])
        if rem:
            raise AssertionError(
                f"closed-form coefficient {m} is not a multiple of b^{top + 1 - m}")
        out.append(x)
    return out


def _genfunc_route(w: HomPoly, q: Fraction) -> tuple[list[int], int]:
    """P as (nums, den) by the closed form: d of `min_weight`, the right-hand
    side (R, L) of `_scaled_weights`, and the unknowns X_k = L b^k p_k of
    `_zeta_genfunc` (q = a/b) brought over one denominator L b^(n-d)."""
    d, n = min_weight(w), w.degree
    rhs, den = _scaled_weights(w, q, d)
    b, top = q.denominator, n - d  # p_k = X_k b^(top-k) / (L b^top)
    nums = [x * b**(top - k) for k, x in enumerate(_zeta_genfunc(rhs, q, n, d))]
    return nums, den * b**top


# -- MDS enumerators ------------------------------------------------------------


class MDSEnumerator(Record):
    __slots__ = ("n", "d", "q", "poly")


def _mds_poly(n: int, d: int, q: Fraction) -> HomPoly:
    """Weight distribution of the [n, n-d+1, d] MDS code; d = n+1 gives x^n.

    A_w = C(n, w) sum_j (-1)^j C(w, j) (q^(m-j) - 1) with m = w - d + 1; with
    q = a/b each sum is the integer sum_j (-1)^j C(w, j) (a^(m-j) b^j - b^m)
    divided by b^m.
    """
    a, b = q.numerator, q.denominator
    top = n - d + 1
    apow, bpow = [1], [1]
    for _ in range(top):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    nums = [bpow[top]] + [0] * n
    for w_ in range(d, n + 1):
        m = w_ - d + 1
        acc, binom = 0, 1  # binom = C(w_, j)
        for j in range(m):
            term = binom * (apow[m - j] * bpow[j] - bpow[m])
            acc += -term if j % 2 else term
            binom = binom * (w_ - j) // (j + 1)
        nums[w_] = comb(n, w_) * acc * bpow[top - m]
    return _poly(n, nums, bpow[top])


def mds_enumerator(n: int, d: int, q) -> MDSEnumerator:
    """MDS weight enumerator M_{n,d}; monic, minimum weight exactly d."""
    if not (2 <= d <= n):
        raise ValueError("need 2 <= d <= n")
    q = _check_q(q)
    poly = _mds_poly(n, d, q)
    assert poly._nums[d] != 0
    return MDSEnumerator(n=n, d=d, q=q, poly=poly)


def zeta_from_mds(w: HomPoly, q) -> ZetaPoly:
    """Zeta polynomial from the expansion over M_{n,d+i}.

    Writing W - x^n = sum(p_i (M_{n,d+i} - x^n)) determines the p_i, and
    P(T) = sum(p_i T^i).  `_zeta_mds` reads it in binomial moments, where it
    is a convolution.  This must always agree with zeta_from_genfunc and is
    kept as a cross-oracle.
    """
    return _extract(w, q, (_zeta_mds,))


def _zeta_mds(w: HomPoly, q: Fraction) -> tuple[list[int], int]:
    """P as (nums, den) by the MDS expansion in binomial moments, on ints.

    The binomial moment B_t = sum_(u>=1) A_u C(n-u, t-u) of W - x^n is its
    y^t coefficient at x = 1 + y.  For M_(n,e) - x^n it is
    C(n, t) (q^(t-e+1) - 1) for t >= e - 1 (MacWilliams and Sloane, ch. 11),
    so with beta_s = B_(d+s-1) / C(n, d+s-1) the expansion reads
    beta_s = sum_i p_i (q^(s-i) - 1), a convolution with the series
    (q - 1)T / ((1 - qT)(1 - T)).  Its inverse is three terms,
    (a - b) p_k = b beta_(k+1) - (a + b) beta_k + a beta_(k-1) (q = a/b,
    beta_0 = beta_(-1) = 0).  Horner's rule in y, h <- h (1 + y) + A_u y^u,
    gives the B_t by additions only, and the beta_s go over the lcm L of the
    binomials, so P is over den L (a - b), made positive.  The route finds
    its own d, the least u >= 1 with A_u != 0, and reads W's integer parts,
    never R.  Raises ValueError unless W is rational and monic.
    """
    nums, den, n = w._nums, w._den, w.degree
    if not w.is_rational() or nums[0] != den:
        raise ValueError("inconsistent zeta system: input is not of the standard form")
    d = next(u for u in range(1, n + 1) if nums[u])
    h = []  # den B_t for t = d..u after step u
    for u in range(d, n + 1):
        h = list(map(add, [*h, nums[u]], [0, *h]))
    binoms = [comb(n, t) for t in range(d, n + 1)]
    big_l = lcm(*binoms)
    beta = [0, 0, *[x * (big_l // c) for x, c in zip(h, binoms)]]  # from beta_(-1)
    a, b = q.numerator, q.denominator
    sign = 1 if a > b else -1
    return ([sign * (b * hi - (a + b) * mid + a * lo)
             for lo, mid, hi in zip(beta, beta[1:], beta[2:])],
            den * big_l * abs(a - b))


def zeta_checked(w: HomPoly, q) -> ZetaPoly:
    """Run both extraction routes and fail hard on disagreement.

    The routes share only W and q.  `_genfunc_route` takes d from
    `min_weight`, builds the right-hand side R and evaluates the closed form
    by prefix sums, checking its final divisions by powers of b; `_zeta_mds`
    finds its own d and reads the binomial moments of W.  The closed form
    and the three-term recurrence are two readings of one identity, so the
    comparison does not check the derivation: it checks each route's code on
    its own inputs, R and d against W.  The two P are compared in lowest
    terms and one ZetaPoly is built, so the functional equation is tested
    once.
    """
    return _extract(w, q, (_genfunc_route, _zeta_mds))


# -- functional equation -----------------------------------------------------------


def functional_equation_check(p: ZetaPoly) -> int | None:
    """Sign in P(T) = sign * P(1/(qT)) q^g T^(2g), or None when neither holds.

    2g = n + 2 - 2d; the exact test is `_fe_sign`, which `_fold` shares, so
    half-integral genus (odd n) works whenever sqrt(q) is rational.
    """
    if p.n is None or p.d is None:
        return None
    return _fe_sign(list(p._nums), p.q, p.n + 2 - 2 * p.d)


def _fe_sign(c: list[int], q: Fraction, two_g: int) -> int | None:
    """The sign eps of P(T) = eps P(1/(qT)) q^g T^(2g), or None without one.

    `c` are the coefficients of P times one positive denominator, as ints,
    ascending with no trailing zeros.  Coefficientwise
    c_(2g-i) = eps sqrt(q)^(2g-2i) c_i for 0 <= i <= 2g, and P has degree
    <= 2g.  With q = a/b and e = 2g - 2i, each pair (x, y) = (c_(2g-i), c_i)
    is tested as x^2 b^e = a^e y^2 together with eps x y >= 0, which also
    covers odd 2g, where an irrational sqrt(q) forces x = y = 0.  P = 0 has
    sign +1.
    """
    if two_g < 0 or len(c) - 1 > two_g:
        return None
    c = c + [0] * (two_g + 1 - len(c))
    a, b = q.numerator, q.denominator
    ae, be = (a, b) if two_g % 2 else (1, 1)  # a^e, b^e from the middle pair out
    products = []
    for i in range(two_g // 2, -1, -1):
        x, y = c[two_g - i], c[i]
        if x * x * be != ae * y * y:
            return None
        products.append(x * y)
        ae, be = ae * a * a, be * b * b
    for eps in (1, -1):
        if all(eps * xy >= 0 for xy in products):
            return eps
    return None


# -- numerical Riemann hypothesis ---------------------------------------------------


class RHReport(Record):
    # roots are mpmath mpc values at the final precision
    __slots__ = ("roots", "target_modulus", "max_abs_deviation", "max_residual",
                 "passed", "tolerance", "precision_bits")

    def to_json(self) -> str:
        import mpmath as mp

        digits = max(20, int(self.precision_bits * 0.3))
        payload = {
            "target_modulus": repr(self.target_modulus),
            "max_abs_deviation": repr(self.max_abs_deviation),
            "max_residual": repr(self.max_residual),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "precision_bits": self.precision_bits,
            "roots": [
                {"re": mp.nstr(z.real, digits), "im": mp.nstr(z.imag, digits)}
                for z in self.roots
            ],
        }
        return json.dumps(payload)


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _abs2(z):
    # squared modulus from basic operations only: abs(complex) calls the
    # platform's hypot, whose last bit may differ between libm versions
    return z.real * z.real + z.imag * z.imag


def _aberth_pass(coeffs, z, bits: int, max_iter: int):
    """Aberth-Ehrlich refinement of all roots of `coeffs` (ascending) from
    the starting points `z`; returns the new root list sorted by (re, im).

    The one loop serves two number types.  With Python floats and `complex`
    (`bits` = 53) it uses only IEEE basic operations, so it gives the same
    result on every platform.  With mpmath mpf and mpc it runs at the current
    mp precision (`bits` = mp.prec).  The stop and stall thresholds follow
    from `bits`: a step below 2^(10 - bits) ends the pass, and so do three
    steps below 2^(-bits/2) that no longer shrink.
    """
    deg = len(z)
    z = list(z)
    deriv = [coeffs[i] * i for i in range(1, deg + 1)]
    two = type(coeffs[-1])(2)
    stop2 = two ** (2 * (10 - bits))
    # steps bottom out at the evaluation noise floor, usually above `stop`;
    # once they are below half precision and no longer shrinking we are done
    coarse2 = two ** (2 * (-bits // 2))
    nudge = 1 + two ** (-bits // 2)
    best2 = inf
    stalled = 0
    for _ in range(max_iter):
        max2 = 0
        for k in range(deg):
            zk = z[k]
            pz = _horner(coeffs, zk)
            dpz = _horner(deriv, zk)
            if dpz == 0:
                z[k] = zk * nudge
                max2 = _abs2(z[k])
                continue
            newton = pz / dpz
            s = 0
            for j in range(deg):
                if j != k:
                    s += 1 / (zk - z[j])
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            z[k] = zk - w
            step2 = _abs2(w)
            if step2 > max2:
                max2 = step2
        if max2 < stop2:
            break
        if max2 < coarse2:
            if max2 >= best2:
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
        if max2 < best2:
            best2 = max2
    # (re, im) ordering is stable under tiny perturbations of real roots,
    # unlike sorting by argument (discontinuous at the negative real axis)
    z.sort(key=lambda t: (t.real, t.imag))
    return z


def _float_roots(int_coeffs: list[int], seeds, max_iter: int):
    """Roots from a cold Aberth pass in hardware doubles, or None when the
    doubles cannot represent the problem or the pass did not separate the
    roots into finite, pairwise distinct points.

    Exact zero roots are deflated first: the pass runs on the coefficients
    above the zero low ones, from as many of the seeds as it has roots, and
    the roots 0 are added back exactly."""
    zeros = next(i for i, c in enumerate(int_coeffs) if c)
    rest = int_coeffs[zeros:]
    scale = max(abs(c) for c in rest)
    coeffs = [c / scale for c in rest]  # correctly rounded, never overflows
    if coeffs[0] == 0 or coeffs[-1] == 0:
        return None
    try:
        z = [0j] * zeros + _aberth_pass(
            coeffs, [complex(s) for s in seeds[:len(rest) - 1]], 53, max_iter)
    except ZeroDivisionError:  # two points met exactly
        return None
    finite = all(isfinite(t.real) and isfinite(t.imag) for t in z)
    if not finite or len(set(z)) != len(z):
        return None
    return z


def _roots_stable(old, new, limit) -> bool:
    """Symmetric nearest-distance agreement of two root multisets."""
    limit2 = limit * limit
    near = [[_abs2(a - b) <= limit2 for b in new] for a in old]
    return (len(old) == len(new) and all(map(any, near))
            and all(map(any, zip(*near))))


def _fold(c: list[int], den: int, q: Fraction):
    """Fold P = c / den with its functional equation: (R, signs), or None
    without one.

    `c` are P's integer coefficients over the positive denominator `den`
    (as `ZetaPoly` stores them).  Roots of P are the roots sign/sqrt(q) for each of
    `signs`, plus both roots T of qT^2 - sT + 1 for every root s of R.  With
    2g = deg P and P(T) = eps P(1/(qT)) q^g T^(2g) (`_fe_sign`), s = qT + 1/T
    gives
    T^(-g) P(T) = R(s) if eps = +1, R = p_g + sum_(k>=1) p_(g-k) V_k(s), and
    T^(-g) P(T) = (1/T - qT) R(s) if eps = -1, R = sum_(k>=1) p_(g-k) U_(k-1)(s);
    V_0 = 2, U_0 = 1, V_1 = U_1 = s, X_k = s X_(k-1) - q X_(k-2).  An odd
    degree forces q = r^2 with r = ra/rb rational and the root -eps/r; the
    quotient of c by rb + eps ra T is integral (Gauss's lemma), and P divided
    by 1 + eps r T, of sign +1, is rb times it over `den`.

    Everything runs on ints: with q = a/b, Z_k = b^k X_k satisfies
    Z_k = b s Z_(k-1) - a b Z_(k-2), so R' = Dtot R with Dtot = den b^K, K
    the top index, is an integer combination of the Z_k.  R is returned as
    R' / gcd(Dtot, content(R')), which is R times the lcm of its
    denominators: the `_integer_coeffs` of R, whatever den and b were.
    None when P(0) = 0 or the coefficients satisfy no functional equation.
    """
    signs = []
    if not c[0]:
        return None
    eps = _fe_sign(c, q, len(c) - 1)
    if eps is None:
        return None
    a, b = q.numerator, q.denominator
    if len(c) % 2 == 0:
        ra, rb = isqrt(a), isqrt(b)
        quot, carry = [], 0
        for ci in c[:-1]:  # c = (rb + eps ra T) quot, exactly
            quot.append((ci - carry) // rb)
            carry = eps * ra * quot[-1]
        c = [rb * x for x in quot]
        signs.append(-eps)
        eps = 1
    g = (len(c) - 1) // 2
    if eps == 1:
        z0, weights = 2, c[g::-1]  # p_g V_0 / 2, then p_(g-k) on V_k
    else:
        z0, weights = 1, c[g - 1::-1]  # p_(g-1-k) on U_k
        signs += [-1, 1]
    top = len(weights) - 1
    bpow = [1]
    for _ in range(top):
        bpow.append(bpow[-1] * b)
    r = [weights[0] * bpow[top]]  # Z_0 enters as 1: V_0 / 2 or U_0
    zprev, zk, ab = [z0], [0, b], a * b
    for k in range(1, top + 1):
        w = weights[k] * bpow[top - k]
        r = [ri + w * zi for ri, zi in zip(r, zk)] + [w * zk[-1]]
        znext = [0] + [b * zi for zi in zk]
        for i, zi in enumerate(zprev):
            znext[i] -= ab * zi
        zprev, zk = zk, znext
    content = gcd(den * bpow[top], *r)
    return [ri // content for ri in r], signs


def _mp_rational(x: Fraction):
    import mpmath as mp

    return mp.mpf(x.numerator) / x.denominator


def _lift(s, q):
    """Both roots of q T^2 - s T + 1, the larger one from the quadratic
    formula and the other as 1/(q T), so that neither cancels."""
    import mpmath as mp

    sq = mp.sqrt(s * s - 4 * q)
    if (s.real * sq.real + s.imag * sq.imag) < 0:
        sq = -sq
    t = (s + sq) / (2 * q)
    return [t, 1 / (q * t)]


def _conjugate_pairs(roots: list) -> list:
    """The roots of a real polynomial, each non-real pair made exactly
    conjugate, at the caller's mp precision.

    Rounding leaves the two members of a pair a few ulps from conjugate, so
    a sort by (re, im) would order them by noise.  Each root with im > 0,
    the largest im first, is matched with the root with im < 0 nearest its
    conjugate; both become the mean m and conj(m).  A root with no partner
    nearer than its own conjugate is real, and its imaginary part is
    dropped.
    """
    import mpmath as mp

    upper = sorted((z for z in roots if z.imag > 0), key=lambda z: (-z.imag, z.real))
    lower = [z for z in roots if z.imag < 0]
    out = [mp.mpc(z.real) for z in roots if not z.imag]
    for z in upper:
        partner = min(lower, key=lambda w: abs(w - z.conjugate()), default=None)
        if partner is None or abs(partner - z.conjugate()) >= 2 * z.imag:
            out.append(mp.mpc(z.real))
            continue
        lower.remove(partner)
        m = (z + partner.conjugate()) / 2
        out += [m, m.conjugate()]
    return out + [mp.mpc(z.real) for z in lower]


def _rh_report(roots: list, target: tuple, max_res: tuple, tolerance: float,
               bits: int) -> RHReport:
    """The report of a certified root set, given sorted by (re, im) as mpc,
    with the largest deviation of |root| from `target` at `bits` bits;
    `target` and `max_res` are raw mpf parts.

    Both paths list each non-real pair exactly conjugate, and |conj(z)| is
    |z| bit for bit, so the deviation is taken over the roots with im >= 0.
    It is computed on mpmath's raw parts (`z._mpc_`), with the rounding to
    nearest that mpf and mpc arithmetic use: ||z| - target| with |z| =
    `mpf_hypot`, the same value the object arithmetic gives.
    """
    from mpmath import libmp

    near = libmp.round_nearest
    max_dev = libmp.fzero
    for z in roots:
        re, im = z._mpc_
        if im[0]:  # im < 0
            continue
        modulus = libmp.mpf_hypot(re, im, bits, near)
        dev = libmp.mpf_abs(libmp.mpf_sub(modulus, target, bits, near), bits, near)
        if libmp.mpf_lt(max_dev, dev):
            max_dev = dev
    return RHReport(
        roots=tuple(roots),
        target_modulus=libmp.to_float(target, rnd=near),
        max_abs_deviation=libmp.to_float(max_dev, rnd=near),
        max_residual=libmp.to_float(max_res, rnd=near),
        passed=libmp.mpf_lt(max_dev, libmp.from_float(tolerance)),
        tolerance=tolerance,
        precision_bits=bits,
    )


# -- certified RH step on Python ints ----------------------------------------------

# Tier A samples R at dyadic points a / 2^_GRID_BITS; a refined root x / 2^B
# is closed by a sign change across x -+ 2^_CLOSE_BITS
_GRID_BITS = 60
_CLOSE_BITS = 14


def _scaled_value(c: list[int], a: int, k: int) -> int:
    """2^(k m) R(a / 2^k) exactly, R of degree m with integer coefficients
    `c` (ascending)."""
    acc, shift = c[-1], 0
    for ci in c[-2::-1]:
        shift += k
        acc = acc * a + (ci << shift)
    return acc


@lru_cache(maxsize=4)
def _tier_a_points(count: int, q: Fraction) -> tuple[int, ...]:
    """The numerators a of the `count` Tier A points a / 2^60, ascending:
    2 sqrt(q) cos(pi (j + 1/2) / count) rounded to 60 bits.  Neighbouring
    degrees of a scan share a count, so a few entries keep every reuse."""
    # 2 sqrt(q) 2^60, any q
    radius = isqrt((q.numerator << 2 * _GRID_BITS + 2) // q.denominator)
    return tuple(sorted(radius * round(ldexp(cos(pi * (j + 0.5) / count), 53)) >> 53
                        for j in range(count)))


def _sign_brackets(c: list[int], q: Fraction, points: list[int]):
    """Tier A: one bracket (lo, hi) per root of R, or None.

    `points` are ascending numerators a of a / 2^60.  When every point lies
    strictly inside (-2 sqrt(q), 2 sqrt(q)), R is nonzero at each of them and
    its sign changes deg R times between neighbours, each change brackets a
    root (intermediate value theorem), so all roots of R are real, simple and
    inside the interval.  Any other outcome declines with None.
    """
    limit = 4 * q.numerator << 2 * _GRID_BITS
    brackets, prev, prev_value = [], None, 0
    for a in points:
        value = _scaled_value(c, a, _GRID_BITS)
        if value == 0 or a * a * q.denominator >= limit:
            return None
        if prev_value and (value > 0) != (prev_value > 0):
            brackets.append((prev, a))
        prev, prev_value = a, value
    return brackets if len(brackets) == len(c) - 1 else None


def _bounded_sign(c: list[int], a: int, bits: int, guard: int) -> bool:
    """Whether R(a / 2^bits) > 0, R with integer coefficients `c` (ascending).

    Horner's rule in fixed point at `bits` + `guard` bits truncates once per
    step, by less than one unit, and each later step multiplies the error by
    |a| / 2^bits < S = (|a| >> bits) + 1; so the value p is off by less than
    sum_(j<m) S^j units, m = deg R.  The sign of p decides when |p| exceeds
    that bound; otherwise R is evaluated exactly (`_scaled_value`).
    """
    work = bits + guard
    x = a << guard
    p = c[-1] << work
    for ci in c[-2::-1]:
        p = (p * x >> work) + (ci << work)
    m, s = len(c) - 1, (abs(a) >> bits) + 1
    bound = m if s == 1 else (s**m - 1) // (s - 1)
    if abs(p) > bound:
        return p > 0
    return _scaled_value(c, a, bits) > 0


def _refine_root(c: list[int], lo: int, hi: int, bits: int,
                 lo_positive: bool | None = None, hi_positive: bool | None = None):
    """The root of R in the bracket (lo, hi), as x in units 2^-bits, or None.

    `lo_positive` and `hi_positive` are the signs of R at lo and hi when the
    caller has proved them; R is evaluated exactly at an end whose sign is
    not given.  Safeguarded Newton on truncated fixed-point values of R and
    R': a step that leaves the bracket, which the sign of each value
    narrows, bisects instead.  The iteration carries m log2|x| + 16 guard
    bits, because the truncation error of Horner's rule grows like |x|^m.
    The result is certified by a sign change of R across
    [x - 2^14, x + 2^14] clipped to the bracket, so it lies within
    2^(14 - bits) of the only root there: a clipped end has the bracket's
    sign, and any other is decided by `_bounded_sign`.
    """
    lo0, hi0 = lo, hi
    if lo_positive is None:
        lo_positive = _scaled_value(c, lo, bits) > 0
    if hi_positive is None:
        hi_positive = _scaled_value(c, hi, bits) > 0
    guard = (len(c) - 1) * ((max(-lo, hi) >> bits) + 1).bit_length() + 16
    work = bits + guard
    lo, hi = lo << guard, hi << guard
    x = (lo + hi) >> 1
    top, shifted = c[-1] << work, [ci << work for ci in c[-2::-1]]
    for _ in range(2 * work):
        p, dp = top, 0
        for ci in shifted:
            dp = (dp * x >> work) + p
            p = (p * x >> work) + ci
        if p == 0:
            break
        if (p > 0) == lo_positive:
            lo = x
        else:
            hi = x
        new = x - (p << work) // dp if dp else lo
        if abs(new - x) >> guard < 1 << (_CLOSE_BITS - 2):
            x = new
            break
        x = new if lo < new < hi else (lo + hi) >> 1
    x >>= guard
    a, b = x - (1 << _CLOSE_BITS), x + (1 << _CLOSE_BITS)
    a_positive = lo_positive if a <= lo0 else _bounded_sign(c, a, bits, guard)
    b_positive = hi_positive if b >= hi0 else _bounded_sign(c, b, bits, guard)
    if a_positive == b_positive:
        return None
    return x


def _fixed_horner(c: list[int], zr: int, zi: int, bits: int):
    """P(z) for z = (zr + i zi) / 2^bits in truncated fixed point: (re, im)
    in units 2^-bits, by one complex Horner loop; a real z (zi = 0) keeps
    the imaginary part 0."""
    ar, ai = c[-1] << bits, 0
    for ci in c[-2::-1]:
        ar, ai = ((ar * zr - ai * zi) >> bits) + (ci << bits), (ar * zi + ai * zr) >> bits
    return ar, ai


def _certified_rh(int_p: list[int], int_r: list[int], signs, q: Fraction,
                  tolerance: float, bits: int) -> RHReport | None:
    """The RH report of P from an exact proof on its fold R, or None.

    Tier A (`_sign_brackets`) at 4(deg R + 1) points 2 sqrt(q) cos(pi (j +
    1/2) / N) rounded to 60 bits proves that all roots s of R are real,
    simple and inside (-2 sqrt(q), 2 sqrt(q)), which is RH for P.  It also
    proves the sign of R at both ends of each bracket: left of all m roots R
    has the sign of (-1)^m c_m, and the sign flips once per bracket.  Each s
    is refined on `bits`-bit fixed-point ints (`_refine_root`, given those
    signs) and lifted to T = (s +- i sqrt(4q - s^2)) / (2q) with `isqrt`;
    the split-off roots sign/sqrt(q) are added as in the Aberth path.  The
    residual certificate of `rh_check` is then run on ints, with the scale
    sum |c_i| |z|^i evaluated once, at the largest |z|.  The report's numbers
    and roots are built from mpmath's raw parts at `bits` bits, with no mpf
    object arithmetic.  None (decline) when Tier A or a refinement fails, or
    when `bits` cannot resolve `tolerance`.
    """
    import mpmath as mp
    from mpmath import libmp

    m = len(int_r) - 1
    num, den = q.numerator, q.denominator
    brackets = _sign_brackets(int_r, q, _tier_a_points(4 * (m + 1), q))
    if brackets is None:
        return None
    shift = bits - _GRID_BITS
    # left of all m roots R has the sign of (-1)^m c_m; it flips once per bracket
    positive = (int_r[-1] > 0) == (m % 2 == 0)
    upper = []  # the root with im > 0 of each conjugate pair, in units 2^-bits
    for lo, hi in brackets:
        x = _refine_root(int_r, lo << shift, hi << shift, bits, positive, not positive)
        if x is None:
            return None
        positive = not positive
        # den 2^bits sqrt(4q - s^2) for s = x / 2^bits
        y = isqrt(((4 * num * den) << 2 * bits) - x * x * den * den)
        upper.append((x * den // (2 * num), y // (2 * num)))
    inv_sqrt_q = isqrt((den << 2 * bits) // num)
    real = [(sign * inv_sqrt_q, 0) for sign in signs]
    # P has real coefficients, so a conjugate root has the same residual
    max_res2 = r_max = 0
    for zr, zi in upper + real:
        pr, pi_ = _fixed_horner(int_p, zr, zi, bits)
        max_res2 = max(max_res2, pr * pr + pi_ * pi_)
        r_max = max(r_max, isqrt(zr * zr + zi * zi))
    # sum |c_i| r^i in truncated fixed point does not decrease as r grows
    max_scale = _fixed_horner([abs(c) for c in int_p], r_max, 0, bits)[0]
    if max_res2 << bits > max_scale * max_scale:
        with mp.workprec(bits):
            ratio = mp.sqrt(mp.mpf(max_res2)) / max_scale
        raise RHConvergenceError(
            f"certified roots at {bits} bits, but max |P(z)| = "
            f"{mp.nstr(ratio, 5)} * max sum |c_i| |z|^i exceeds 2^-{bits // 2}"
        )
    # 1/sqrt(q), max |P(z)| / |c_m| and each root on mpmath's raw parts at
    # `bits` bits, rounded to nearest as mpf and mpc arithmetic round them
    near = libmp.round_nearest
    q_mp = libmp.mpf_div(libmp.from_int(num, bits, near), libmp.from_int(den), bits, near)
    target = libmp.mpf_rdiv_int(1, libmp.mpf_sqrt(q_mp, bits, near), bits, near)
    res = libmp.mpf_sqrt(libmp.from_int(max_res2, bits, near), bits, near)
    max_res = libmp.mpf_div(libmp.mpf_shift(res, -bits), libmp.from_int(abs(int_p[-1])),
                            bits, near)
    # in (re, im) order with no mpf comparison: every upper root has
    # |re| < 1/sqrt(q), and rounding does not reorder the fixed-point ints
    roots = [mp.make_mpc((libmp.mpf_neg(target), libmp.fzero))
             for sign in signs if sign < 0]
    for zr, zi in sorted(upper):
        re = libmp.from_man_exp(zr, -bits, bits, near)
        im = libmp.from_man_exp(zi, -bits, bits, near)
        roots += [mp.make_mpc((re, libmp.mpf_neg(im))), mp.make_mpc((re, im))]
    roots += [mp.make_mpc((target, libmp.fzero)) for sign in signs if sign > 0]
    report = _rh_report(roots, target, max_res, tolerance, bits)
    return report if report.passed else None


def rh_check(p: ZetaPoly, tolerance: float = 1e-9,
             precision_bits: int | None = None) -> RHReport:
    """Locate all roots of P and test |root| = 1/sqrt(q) within `tolerance`.

    Fold: when P has a functional equation, the root finder runs on its fold
    R(s), s = qT + 1/T, of half the degree (`_fold`), and every root s is
    lifted to the two roots of qT^2 - sT + 1; the roots +-1/sqrt(q) that the
    fold divides out are added exactly.  Without a functional equation, or
    when P(0) = 0, the same steps run on P itself with each root its own
    lift.  A constant P has no roots and passes vacuously.

    Certified path: with a fold, `_certified_rh` is tried first.  If the
    signs of R at 4(deg R + 1) dyadic points inside (-2 sqrt(q), 2 sqrt(q))
    change deg R times, with no zero, every root of R is real and simple and
    lies in that interval, which proves RH for P.  The roots are refined to
    2^(14 - B) with B = 2 * `precision_bits` bits on Python ints, each closed
    by a sign change of R: at an end of its bracket the sign is the one the
    dyadic points proved, elsewhere a fixed-point value decides it when it
    exceeds its truncation bound and an exact evaluation when it does not.
    They are lifted to T; the residual certificate below
    runs on ints at B bits, and the report gives `precision_bits` = B, which
    is what the ladder below reports when its second pass confirms the first.
    The path declines, and the Aberth path runs, when the signs do not prove
    it: roots off the circle, multiple roots, roots at s = +-2 sqrt(q).  It
    also declines when B bits cannot resolve `tolerance`.

    Seeds: the image under s = qT + 1/T of deg R points at angles
    pi*(k + golden_ratio_frac)/deg R on the upper half of the circle of
    radius 1.1/sqrt(q) (without a fold, deg P points at angles
    2*pi*(k + golden_ratio_frac)/deg P on the whole circle), computed with
    mpmath.  They sit off the target circle because the functional equation
    makes inversion in that circle a symmetry of P, which maps the Aberth
    iteration to itself: points started on the circle stay on it and never
    reach roots that lie off it.

    Float stage: a cold Aberth pass in hardware doubles, on the coefficients
    scaled by the largest one, finds the roots to about 53 bits.  Exact zero
    roots (zero low coefficients, such as s = 0 when P has the roots
    +-i/sqrt(q)) are split off first and added back exactly.  The stage is
    skipped when a scaled end coefficient of the rest rounds to 0, and its
    result is discarded when the roots are not finite or not pairwise
    distinct; the first mpmath pass then starts cold from the same seeds.

    Precision ladder: mpmath passes at `precision_bits` (default
    DEFAULT_PRECISION_BITS, 128), then twice that and so on, each warm
    started from the previous pass's roots, until two consecutive sets of
    lifted roots T agree to tolerance/10.  Exceeding the 8192-bit ceiling
    raises RHConvergenceError rather than passing silently.  The stable
    set is made exactly closed under conjugation (`_conjugate_pairs`), so
    each non-real pair is listed (re, -im) then (re, +im), and the
    deviation and the residual are computed on the roots as reported.

    Residual certificate: a stable root set is accepted only if
    max |P(z)| <= 2^(-prec/2) * max sum |c_i| |z|^i, on P itself and at the
    final precision `prec`; otherwise RHConvergenceError is raised, since a
    warm-started pass that stalls on non-roots would otherwise look stable.
    The certified path applies the same test with prec = B.
    """
    import mpmath as mp

    if not 0 < tolerance < inf:
        raise ValueError(f"rh_check needs a finite tolerance > 0, got {tolerance!r}")
    int_coeffs = list(p._nums)  # ZetaPoly trims trailing zeros
    deg = len(int_coeffs) - 1
    if not any(int_coeffs):
        raise ValueError("rh_check needs a nonzero P")
    prec = DEFAULT_PRECISION_BITS if precision_bits is None else precision_bits
    if not MIN_PRECISION_BITS <= prec <= MAX_PRECISION_BITS:
        raise ValueError(f"rh_check needs precision_bits in "
                         f"[{MIN_PRECISION_BITS}, {MAX_PRECISION_BITS}], got {prec}")
    qf = p.q  # checked by ZetaPoly
    if deg == 0:
        return RHReport((), float(1 / mp.sqrt(_mp_rational(qf))), 0.0, 0.0, True,
                        tolerance, prec)
    fold = _fold(int_coeffs, p._den, qf)
    int_r, signs = fold or (int_coeffs, ())
    r_deg = len(int_r) - 1
    if fold is not None:
        report = _certified_rh(int_coeffs, int_r, signs, qf, tolerance, 2 * prec)
        if report is not None:
            return report
    max_iter = 60 + 12 * r_deg
    with mp.workprec(prec):
        q_mp = _mp_rational(qf)
        radius = 11 / (10 * mp.sqrt(q_mp))
        offset = (mp.sqrt(5) - 1) / 2
        if fold is None:
            seeds = [radius * mp.expjpi(2 * (k + offset) / deg) for k in range(deg)]
        else:
            seeds = [q_mp * t + 1 / t for t in (radius * mp.expjpi((k + offset) / r_deg)
                                                for k in range(r_deg))]
    found = _float_roots(int_r, seeds, max_iter) or seeds
    previous = None
    while True:
        with mp.workprec(prec):
            found = _aberth_pass([mp.mpf(c) for c in int_r],
                                 [mp.mpc(t) for t in found], prec, max_iter)
            q_mp = _mp_rational(qf)
            target = 1 / mp.sqrt(q_mp)
            if fold is None:
                roots = found
            else:
                roots = [mp.mpc(sign * target) for sign in signs]
                for s in found:
                    roots += _lift(s, q_mp)
            if previous is not None and _roots_stable(
                previous, roots, mp.mpf(tolerance) / 10
            ):
                roots = _conjugate_pairs(roots)
                mp_coeffs = [mp.mpf(c) for c in int_coeffs]
                max_res = max(abs(_horner(mp_coeffs, z)) for z in roots)
                abs_coeffs = [abs(c) for c in mp_coeffs]
                scale = max(_horner(abs_coeffs, abs(z)) for z in roots)
                if max_res > mp.ldexp(scale, -prec // 2):
                    raise RHConvergenceError(
                        f"root set stable at {prec} bits, but max |P(z)| = "
                        f"{mp.nstr(max_res / scale, 5)} * max sum |c_i| |z|^i "
                        f"exceeds 2^-{prec // 2}"
                    )
                roots.sort(key=lambda t: (t.real, t.imag))
                return _rh_report(roots, target._mpf_, (max_res / abs_coeffs[-1])._mpf_,
                                  tolerance, prec)
        previous = roots
        prec *= 2
        if prec > _PRECISION_CEILING_BITS:
            raise RHConvergenceError(
                f"root set did not stabilise below {_PRECISION_CEILING_BITS} bits"
            )


# -- star operators ------------------------------------------------------------------


def _require_star(fam: FamilySpec) -> None:
    if not fam.has_star:
        raise ValueError(f"no star operator for family {fam.name}")


def star_zeta_factor(fam: FamilySpec) -> list[Fraction]:
    """Quadratic zeta factor (1 - 2T + qT^2)/(q - 1) of the star operator,
    ascending coefficients."""
    _require_star(fam)
    return [1 / (fam.q - 1), -2 / (fam.q - 1), fam.q / (fam.q - 1)]


def star_operator(w: HomPoly, fam: FamilySpec) -> HomPoly:
    """Degree-lowering operator W* = p(D) W / (n (n-1)), p = x^2 + y^2/(q-1),
    for n = parity*delta (mod 2*delta) and n >= parity*delta + 2*delta, where
    delta is the degree of the odd generator."""
    _require_star(fam)
    return _star_image(w, fam)


def _star_image(w: HomPoly, fam: FamilySpec) -> HomPoly:
    n = w.degree
    delta = fam.odd_gen.degree
    low = fam.parity * delta
    if (n - low) % (2 * delta) or n < low + 2 * delta:
        raise ValueError(
            f"degree {n} is inadmissible for the {fam.name} star operator"
        )
    p = HomPoly(2, [1, 0, 1 / (fam.q - 1)])
    return diff_op(p, w) * Fraction(1, n * (n - 1))


class StarCheck(Record):
    __slots__ = ("ok", "maps_to_extremal", "zeta_factor_matches")


def _star_check(fam: FamilySpec, w: HomPoly) -> StarCheck:
    """The star relation at the degree n of the extremal member w: W* is the
    extremal member of degree n - 2, and its P is the star factor times P."""
    w_star = _star_image(w, fam)
    maps = w_star == extremal(fam, w.degree - 2)
    p = zeta_checked(w, fam.q)
    p_star = zeta_checked(w_star, fam.q)
    a, b = fam.q.numerator, fam.q.denominator
    # P* = (b - 2b T + a T^2) P / (a - b), cross-multiplied on the stored ints
    zmatch = ([v * p_star._den for v in _convolve([b, -2 * b, a], p._nums)]
              == [v * (a - b) * p._den for v in p_star._nums])
    return StarCheck(ok=maps and zmatch, maps_to_extremal=maps,
                     zeta_factor_matches=zmatch)


def star_scan_q43_odd(k_max: int) -> list[tuple[int, bool, bool]]:
    """Scan the conjectural star relation 12k+6 -> 12k+4 for the q=4/3 fwe family.

    The degrees 12k+6 are the admissible class of the star rule (delta = 6,
    parity 1), so this runs the check of `verify_star` without its has_star
    gate.  The bound at 12k+4 is itself unproven; nothing here is asserted.
    Returns (k, operator image is the unique degree-(12k+4) member, zeta
    relation holds) per k, for reporting only.
    """
    if k_max < 1:
        raise ValueError(f"max_k must be >= 1, got {k_max}")
    fam = family("q43-odd")
    out = []
    for k in range(1, k_max + 1):
        check = _star_check(fam, extremal(fam, 12 * k + 6))
        out.append((k, check.maps_to_extremal, check.zeta_factor_matches))
    return out


def verify_star(fam: FamilySpec, n: int) -> StarCheck:
    """Postcondition contracts of the star operator at degree n."""
    _require_star(fam)
    return _star_check(fam, extremal(fam, n))


# -- theorem verifiers ------------------------------------------------------------------


# canonical anti-symmetrised operators; these reproduce the printed constants
DIFF_OPERATORS = {
    name: fam.diff_operator for name, fam in FAMILIES.items() if fam.diff_operator
}


def _require_identity_data(fam: FamilySpec, statement: str) -> None:
    if fam.diff_operator is None:
        raise ValueError(f"{statement} covers type1 and type4 only")


class DivisibilityCheck(Record):
    __slots__ = ("ok", "divides", "cofactor_divisible", "cofactor")


def verify_divisibility_prop(w: HomPoly, fam: FamilySpec) -> DivisibilityCheck:
    """a^(d-3) divides p(D)W, and the cofactor is divisible by the family generator."""
    _require_identity_data(fam, "the divisibility statement")
    d = min_weight(w)
    if d < 4:
        raise ValueError("the divisibility statement needs d >= 4")
    a = fam.divisor_base ** (d - 3)
    image = diff_op(fam.diff_operator, w)
    cof = divide_exact(a, image)
    if cof is None:
        return DivisibilityCheck(False, False, False, None)
    inner = divide_exact(fam.odd_gen, cof)
    return DivisibilityCheck(inner is not None, True, inner is not None, cof)


def _closed_form(w: HomPoly, fam: FamilySpec, d: int) -> HomPoly:
    """p(D)W = a^(d-3) E^v O (d-2)_3 A_d, times n - d for type1, for extremal W
    of degree n = delta(d-1) + 2v, with a, E, O, delta from `fam` (Duursma 2003)."""
    n = w.degree
    delta = fam.odd_gen.degree
    v2 = n - delta * (d - 1)
    if v2 < 0 or v2 % 2:
        raise ValueError(f"degree does not decompose as {delta}(d-1) + 2v")
    scalar = pochhammer(d - 2, 3) * _coefficient(w, d)
    if fam.name == "type1":
        scalar *= n - d
    return fam.divisor_base ** (d - 3) * fam.even_gen ** (v2 // 2) * fam.odd_gen * scalar


def verify_extremal_diff_identity(w: HomPoly, fam: FamilySpec) -> bool:
    """Closed form of p(D)W for extremal members with d >= 4 (exact expansion)."""
    _require_identity_data(fam, "the identity")
    d = min_weight(w)
    if d < 4:
        raise ValueError("the identity needs d >= 4")
    return diff_op(fam.diff_operator, w) == _closed_form(w, fam, d)


def _binomial_row_sum(weights: list[int | Fraction], n_choose: int, y_start: int,
                      total_deg: int) -> HomPoly:
    """sum(weights[i] C(n_choose, y_start + i) (x - y)^(...) y^(y_start + i)),
    terms with y-exponent above total_deg dropped: the shear x -> x - y of
    sum(weights[i] C(n_choose, y_start + i) x^(...) y^(y_start + i))."""
    ys = range(y_start, total_deg + 1)
    nums, den = _integer_coeffs(weights)
    coeffs = [0] * y_start + [w * comb(n_choose, y) for w, y in zip(nums, ys)]
    coeffs += [0] * (total_deg + 1 - len(coeffs))
    return act_matrix(_poly(total_deg, coeffs, den), _mat([1, -1, 0, 1], 1))


def verify_zeta_binomial_identity(w: HomPoly, fam: FamilySpec) -> bool:
    """Binomial sum over zeta coefficients against the closed form of p(D)W:
    the row sum over P (type1) or P (1 + 2T) (type4) with N = n - delta,
    times (n-3)_4 or 3 (n-2)_3, is `_closed_form`."""
    _require_identity_data(fam, "the identity")
    n = w.degree
    p = zeta_from_genfunc(w, fam.q)
    m = p.d - 2
    if m < 2 or m % 2:
        raise ValueError("the identity needs even d - 2 >= 2")
    closed = _closed_form(w, fam, p.d)
    if fam.name == "type1":
        weights, normaliser = list(p._nums), pochhammer(n - 3, 4)
    else:
        weights, normaliser = _convolve(p._nums, [1, 2]), 3 * pochhammer(n - 2, 3)
    big_n = n - fam.odd_gen.degree
    return _binomial_row_sum(weights, big_n, m - 1, big_n) * (normaliser / p._den) == closed


# -- generalised invariant-operator theorem ------------------------------------------


def _proportionality(f: HomPoly, g: HomPoly):
    """Scalar c with g == c*f, or None; f must be nonzero.

    With f_k the first nonzero coefficient of f, g == c*f exactly when
    f_k g == g_k f, and then c = g_k / f_k: compared on the stored parts of
    f = (f0 + f1 sqrt(D)) / den (f1 = 0 if rational) up to the first mismatch.
    """
    if f.is_zero() or f.degree != g.degree:
        return None
    idx = f.support()[0]
    root, zeros = _common_root(f, g), (0,) * (f.degree + 1)
    f0, f1, g0, g1 = f._nums, f._surd or zeros, g._nums, g._surd or zeros
    a0, a1, c0, c1 = f0[idx], f1[idx], g0[idx], g1[idx]
    if any(u * a0 + root * v * a1 != x * c0 + root * y * c1
           or u * a1 + v * a0 != x * c1 + y * c0
           for u, v, x, y in zip(g0, g1, f0, f1)):
        return None
    return _coefficient(g, idx) / _coefficient(f, idx)


def _scales_by(f: HomPoly, g: HomPoly, c) -> bool:
    """g == c*f for a nonzero scalar c, decided without building c*f."""
    return g.is_zero() if f.is_zero() else _proportionality(f, g) == c


def _coprime(a: HomPoly, b: HomPoly) -> bool:
    """No common homogeneous factor (x, y or a dehomogenized core factor).

    The cores a0 + a1 sqrt(D) and b0 + b1 sqrt(D) (stored integer lists, a1 = 0
    when rational) share a root exactly when a0^2 - D a1^2, b0^2 - D b1^2 and
    a0 b1 - a1 b0 do: a common root of the cores is a root of all three, and a
    root of all three is a common root of the cores or of their conjugates.
    """
    ax, ay, a0, a1 = _dehomogenize(a)
    bx, by, b0, b1 = _dehomogenize(b)
    if (ax and bx) or (ay and by):
        return False
    d = _common_root(a, b)
    a1, b1 = a1 or [0] * len(a0), b1 or [0] * len(b0)
    cross = unipoly.add(_convolve(a0, b1), [-v for v in _convolve(a1, b0)])
    common = unipoly.gcd(unipoly.surd_norm(a0, a1, d), unipoly.surd_norm(b0, b1, d))
    return unipoly.degree(unipoly.gcd(common, cross)) == 0


class DuursmaOkudaResult(Record):
    """Verdict of `verify_duursma_okuda`; the constants c1, c2, c3 default to
    None and the part flags to False, as when a precondition fails."""

    __slots__ = ("preconditions_ok", "failed_precondition", "c1", "c2", "c3",
                 "part1_ok", "part2_applicable", "part2_ok", "part2_coprime_applicable",
                 "part2_coprime_ok", "part3_applicable", "part3_ok")
    _defaults = dict.fromkeys(("c1", "c2", "c3")) | dict.fromkeys(__slots__[5:], False)

    @property
    def ok(self) -> bool:
        checks = [self.part1_ok]
        if self.part2_applicable:
            checks.append(self.part2_ok)
            if self.part2_coprime_applicable:
                checks.append(self.part2_coprime_ok)
        if self.part3_applicable:
            checks.append(self.part3_ok)
        return self.preconditions_ok and all(checks)


def verify_duursma_okuda(p: HomPoly, big_a: HomPoly, sigma: Mat2,
                         a: HomPoly | None = None) -> DuursmaOkudaResult:
    """Eigen-operator theorem: transform of p(D)A, divisor transport, cofactor sign.

    Preconditions p^(t sigma) = c1 p and A^sigma = c2 A (and a^sigma = c3 a
    when a is supplied) are verified, not assumed; their failure is reported
    separately from a conclusion failure.
    """
    a_sigma = act_matrix(a, sigma) if a is not None else None
    return _duursma_okuda(p, act_matrix(p, sigma.transpose()), big_a, sigma, a, a_sigma)


def _once(memo: dict | None, key, make):
    """make(), computed once per key of `memo`, or on every call without one."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _duursma_okuda(p: HomPoly, p_image: HomPoly, big_a: HomPoly, sigma: Mat2,
                   a: HomPoly | None, a_sigma: HomPoly | None,
                   memo: dict | None = None) -> DuursmaOkudaResult:
    """`verify_duursma_okuda` given p_image = p^(t sigma) and a_sigma =
    a^sigma, which `run_duursma_okuda_suite` expands once per call.  With a
    `memo`, c1 is computed once per (p, sigma), and c3, the coprimality of a
    and a^sigma and their product once per (a, sigma)."""
    c1 = _once(memo, ("c1", p, sigma), lambda: _proportionality(p, p_image))
    if c1 is None or not c1:
        return DuursmaOkudaResult(False, "p^(t sigma) is not proportional to p")
    c2 = _proportionality(big_a, act_matrix(big_a, sigma))
    if c2 is None or not c2:
        return DuursmaOkudaResult(False, "A^sigma is not proportional to A", c1)
    # a^sigma = c3 a is required by part (iii) only; without it parts (i)
    # and (ii) still apply
    c3 = None if a is None else _once(memo, ("c3", a, sigma),
                                      lambda: _proportionality(a, a_sigma))

    image = diff_op(p, big_a)
    part1 = _scales_by(image, act_matrix(image, sigma), c2 / c1)

    part2_applicable = part2_ok = False
    coprime_applicable = coprime_ok = False
    part3_applicable = part3_ok = False
    if a is not None:
        cof = divide_exact(a, image) if not image.is_zero() else HomPoly.zero(
            image.degree - a.degree)
        if cof is not None:
            part2_applicable = True
            part2_ok = divide_exact(a_sigma, image) is not None
            if not image.is_zero() and _once(memo, ("coprime", a, sigma),
                                             lambda: _coprime(a, a_sigma)):
                coprime_applicable = True
                product = _once(memo, ("product", a, sigma), lambda: a * a_sigma)
                coprime_ok = divide_exact(product, image) is not None
            if c3:
                part3_applicable = True
                part3_ok = _scales_by(cof, act_matrix(cof, sigma), c2 / (c1 * c3))
    return DuursmaOkudaResult(
        True, "", c1, c2, c3, part1, part2_applicable, part2_ok,
        coprime_applicable, coprime_ok, part3_applicable, part3_ok,
    )


def verify_duursma_lemma(p: HomPoly, big_a: HomPoly, sigma: Mat2) -> bool:
    """Chain-rule identity: (p^(t sigma)(D) A)^sigma == p(D) A^sigma."""
    lhs = act_matrix(diff_op(act_matrix(p, sigma.transpose()), big_a), sigma)
    rhs = diff_op(p, act_matrix(big_a, sigma))
    return lhs == rhs


# -- randomized suites -----------------------------------------------------------------


class SuiteReport(Record):
    __slots__ = ("total", "part1", "part2", "part3", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures and all(
            passed == seen for passed, seen in (self.part1, self.part2, self.part3)
        )


def run_duursma_okuda_suite(samples: int = 100, seed: int = 20240811) -> SuiteReport:
    """Randomized instances of the eigen-operator theorem, each part counted.

    Instances combine a random member with prescribed minimum weight, the
    canonical family operator, a matrix with verified eigen-behaviour and a
    divisor drawn from the divisibility statement.  Deterministic per seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    neg_i = Mat2(-1, 0, 0, -1)
    setups = {
        "type1": {
            "degrees": [12, 14, 16, 18, 20, 22],
            "sigmas": [sigma_q(2), TAU, neg_i],
            # eigen divisors and the non-eigen pair that exercises coprimality
            "divisors": [family("type1").divisor_base, parse_poly("x*y"),
                         parse_poly("x^2 - y^2")],
        },
        "type4": {
            "degrees": [9, 11, 13, 15, 17],
            "sigmas": [sigma_q(4), TAU, neg_i],
            "divisors": [family("type4").divisor_base, parse_poly("y"),
                         parse_poly("x^2 - y^2")],
        },
    }
    # for this call only: the powers of the divisor bases, the transports
    # that instances repeat (p^(t sigma) of the family operator and a^sigma
    # of the divisor powers), what `_duursma_okuda` derives from them, and
    # the verdict of an instance drawn again
    memo = {}

    def transport(f: HomPoly, m: Mat2) -> HomPoly:
        return _once(memo, ("image", f, m), lambda: act_matrix(f, m))

    p1 = p2 = p3 = seen1 = seen2 = seen3 = 0
    failures = []
    count = 0
    while min(seen1, seen2, seen3) < samples:
        fam_name = rng.choice(["type1", "type4"])
        fam = family(fam_name)
        setup = setups[fam_name]
        n = rng.choice(setup["degrees"])
        d_cap = bound(fam, n).d_max
        d_target = rng.choice([d for d in range(4, d_cap + 1, 2)] or [4])
        w = member_with_min_weight(fam, n, d_target, rng)
        if w is None:
            continue
        w = w * Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        sigma = rng.choice(setup["sigmas"])
        base = rng.choice(setup["divisors"])
        a = _once(memo, ("power", base, d_target - 3), lambda: base ** (d_target - 3))
        p = DIFF_OPERATORS[fam_name]
        res = _once(memo, ("result", p, w, sigma, a), lambda: _duursma_okuda(
            p, transport(p, sigma.transpose()), w, sigma, a, transport(a, sigma), memo))
        count += 1
        if not res.preconditions_ok:
            failures.append((fam_name, n, d_target, res.failed_precondition))
            continue
        seen1 += 1
        p1 += res.part1_ok
        if res.part2_applicable:
            seen2 += 1
            p2 += res.part2_ok and (
                res.part2_coprime_ok if res.part2_coprime_applicable else True
            )
        if res.part3_applicable:
            seen3 += 1
            p3 += res.part3_ok
        if not res.ok and res.preconditions_ok:
            failures.append((fam_name, n, d_target, "conclusion failed"))
        if count > samples * 60:
            failures.append(("suite", 0, 0, "instance generation starved"))
            break
    return SuiteReport(count, (p1, seen1), (p2, seen2), (p3, seen3), failures)


def run_duursma_lemma_suite(samples: int = 100, seed: int = 20240811) -> tuple[int, int]:
    """Random (p, A, sigma) instances of the chain-rule identity."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    specials = [sigma_q(2), sigma_q(4), sigma_q(Fraction(4, 3))]
    passed = 0
    for k in range(samples):
        deg_p = rng.randint(0, 4)
        deg_a = rng.randint(deg_p, deg_p + 5)
        p = HomPoly(deg_p, [Fraction(rng.randint(-5, 5)) for _ in range(deg_p + 1)])
        if p.is_zero():
            p = HomPoly.monomial(deg_p, 0)
        big_a = HomPoly(deg_a, [Fraction(rng.randint(-5, 5)) for _ in range(deg_a + 1)])
        if k % 5 == 0:
            sigma = rng.choice(specials)
        else:
            while True:
                sigma = Mat2(*[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(4)])
                if sigma.det():
                    break
        passed += verify_duursma_lemma(p, big_a, sigma)
    return passed, samples
