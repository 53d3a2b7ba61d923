"""Concrete enumerator families: generators, graded bases, extremal members.

Each family is generated by an invariant polynomial of degree two (or eight
for the c = 4 family) together with an anti-invariant generator; products
with an odd number of anti-invariant factors transform with sign -1 under the
MacWilliams matrix, products with an even number with sign +1.  The extremal
member of a degree is the unique monic combination whose low-order weights
vanish strictly below the family bound.  `extremal` finds it without a linear
solve: in the basis E^(L-kj) h^j, h = E^k - O^2 (E, O the even and odd
generators, 2*deg O = k*deg E), the cancellation conditions are the
Buermann-Lagrange expansion of 1/(E^L O^p) in powers of t = h/E^k, a
triangular system whose unknowns are read off one row each, on Python ints.
Every weight of a member is a multiple of c, so the solve runs on series in
s = y^c, and every power of a generator is one `_power_series` recurrence.
It checks that every unknown is determined (dimension one), that the rows
between them vanish, that the member is monic and that its A_(d_max) is
nonzero, instead of trusting them.  The series that do not depend on n are
cached per family in one small bounded cache, so a scan pays per degree only
for three power series, the solve and the member's Horner loop.  The
randomized suites draw combinations of the members with A_1..A_(d-1) = 0
from the nullspace of that exact system over the graded basis, one integer
row per nullspace vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul

from . import linalg, unipoly
from .homopoly import (
    HomPoly,
    _check_q,
    _image_sign,
    _poly,
    _profile_and_image,
    parse_poly,
)
from .record import Record
from .unipoly import _convolve

__all__ = [
    "FamilySpec",
    "FAMILIES",
    "Bound",
    "FweResult",
    "NotInRingError",
    "ExtremalConstructionError",
    "family",
    "generator",
    "basis",
    "basis_exponents",
    "expand_in_generators",
    "bound",
    "classical_bound",
    "extremal",
    "member_with_min_weight",
    "is_fwe",
    "burmann_coefficient",
    "ring_dimension",
]


class NotInRingError(ValueError):
    """The polynomial is outside the span of the family's graded basis."""


class ExtremalConstructionError(RuntimeError):
    """The cancellation system violated the bound/uniqueness contract."""


class FamilySpec(Record):
    """A formal-weight-enumerator family and its invariant-ring data.

    This is the one table of per-family facts.  The bound, the star operator
    and the degree classes they apply to follow from q, c, parity and the
    generators; a field holds only what cannot be derived from the others.
    The fields after parity default to False or None.  Specs compare and hash
    by identity, so they are cheap cache keys.
    """

    __slots__ = (
        "name", "q",
        "c",  # every nonzero weight of a member is a multiple of c
        "even_gen",  # invariant generator
        "odd_gen",  # anti-invariant generator
        "parity",  # required parity (mod 2) of the odd_gen exponent
        # the bound is proven only for n - parity*deg(odd_gen) = 0 mod 2*deg(odd_gen)
        "bound_proven_on_class_only",
        "has_star",  # the star operator of zeta.star_operator applies
        "group",  # matgroup.named_group whose Molien series counts the ring
        # divisor base a and operator p of the differential identities (type1, type4)
        "divisor_base",
        "diff_operator",
    )
    _defaults = {"bound_proven_on_class_only": False, "has_star": False,
                 "group": None, "divisor_base": None, "diff_operator": None}

    @property
    def sign(self) -> int:
        """MacWilliams sign of the members: odd_gen is anti-invariant."""
        return -1 if self.parity else 1

    @property
    def ring_degrees(self) -> tuple[int, int]:
        """Generator degrees of the full invariant ring: even_gen and odd_gen
        when members carry odd powers of odd_gen, even_gen and odd_gen^2
        otherwise."""
        return self.even_gen.degree, self.odd_gen.degree * (2 - self.parity)


def _w2(q) -> HomPoly:
    return HomPoly(2, [1, 0, _check_q(q) - 1])


_PHI4 = parse_poly("x^4 - 6*x^2*y^2 + y^4")
_PHI3 = parse_poly("x^3 - 9*x*y^2")
_PHI6 = parse_poly("x^6 - 5*x^4*y^2 + 5/3*x^2*y^4 - 1/27*y^6")
_WH8 = parse_poly("x^8 + 14*x^4*y^4 + y^8")
_W12 = parse_poly("x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12")
# (1/81) x^2 y^2 (x^2-y^2)^2 (9x^2-y^2)^2; equals (W_2^6 - phi6^2)/12
_W12PRIME = parse_poly(
    "x^10*y^2 - 20/9*x^8*y^4 + 118/81*x^6*y^6 - 20/81*x^4*y^8 + 1/81*x^2*y^10")

_GENERATORS = {
    "phi4": _PHI4,
    "phi3": _PHI3,
    "phi6": _PHI6,
    "wh8": _WH8,
    "w12": _W12,
    "w12prime": _W12PRIME,
}


def generator(name: str, q=None) -> HomPoly:
    """Named generator polynomial; `w2` takes the field size q as a parameter."""
    if name == "w2":
        if q is None:
            raise ValueError("generator 'w2' needs the parameter q")
        return _w2(q)
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; expected w2, {', '.join(_GENERATORS)}"
        ) from None


# even_gen is invariant and odd_gen anti-invariant under sigma_q, as the tests check
FAMILIES: dict[str, FamilySpec] = {
    "type1": FamilySpec(
        "type1", Fraction(2), 2, _w2(2), _PHI4, 1, has_star=True, group="g1minus",
        divisor_base=parse_poly("x^3*y - x*y^3"),
        diff_operator=parse_poly("x*y^3 - x^3*y")),
    "type4": FamilySpec(
        "type4", Fraction(4), 2, _w2(4), _PHI3, 1, has_star=True, group="g4minus",
        divisor_base=parse_poly("x^2*y - y^3"),
        diff_operator=parse_poly("y^3 - 9*x^2*y")),
    "q43": FamilySpec("q43", Fraction(4, 3), 2, _w2(Fraction(4, 3)), _PHI6, 0,
                      has_star=True, group="g43"),
    "q43-odd": FamilySpec(
        "q43-odd", Fraction(4, 3), 2, _w2(Fraction(4, 3)), _PHI6, 1,
        bound_proven_on_class_only=True, group="g43minus"),
    "ozeki": FamilySpec("ozeki", Fraction(2), 4, _WH8, _W12, 1),
}


def family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}"
        ) from None


# -- graded bases -----------------------------------------------------------------

@lru_cache(maxsize=1024)
def _gen_power(fam: FamilySpec, which: str, k: int) -> HomPoly:
    gen = fam.even_gen if which == "even" else fam.odd_gen
    if k % 64 == 0:
        # a direct power every 64 steps keeps the recursion of a cold call shallow
        return gen ** k
    return _gen_power(fam, which, k - 1) * gen


def basis_exponents(fam: FamilySpec, n: int) -> list[tuple[int, int]]:
    """All (l, m) with l*deg(even) + m*deg(odd) = n and m of the family parity."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    de, do = fam.even_gen.degree, fam.odd_gen.degree
    out = []
    for m in range(n // do + 1):
        if m % 2 != fam.parity:
            continue
        rest = n - m * do
        if rest % de == 0:
            out.append((rest // de, m))
    return out


def basis(fam: FamilySpec, n: int) -> list[HomPoly]:
    """Monomial products even_gen^l odd_gen^m of degree n, m of the family parity."""
    return [
        _gen_power(fam, "even", l) * _gen_power(fam, "odd", m)
        for l, m in basis_exponents(fam, n)
    ]


def ring_dimension(fam: FamilySpec, n: int) -> int:
    """Dimension of the degree-n graded piece of the full invariant ring.

    Counts products of the two algebraically independent ring generators
    (both parities), which is what the Molien series of the matching group
    enumerates.
    """
    e, o = fam.ring_degrees
    if n == 0:
        return 1
    return sum(1 for m in range(n // o + 1) if (n - m * o) % e == 0)


# -- expansion and extremal construction -------------------------------------------


def expand_in_generators(f: HomPoly, fam: FamilySpec) -> list[Fraction]:
    """Exact coordinates of f over basis(fam, deg f); raises NotInRingError."""
    if not f.is_rational():
        raise NotInRingError("family members have rational coefficients")
    elems = basis(fam, f.degree)
    if not elems:
        raise NotInRingError(f"no degree-{f.degree} basis in family {fam.name}")
    *columns, rhs = _common_scale(elems + [f])
    x, unique = linalg.solve(list(zip(*columns)), rhs)
    if x is None:
        raise NotInRingError(f"polynomial is not in the {fam.name} ring")
    if not unique:
        raise AssertionError("graded basis is linearly dependent")
    return x


class Bound(Record):
    """Upper bound for the minimum weight at a given degree."""

    __slots__ = ("d_max", "proven")


def bound(fam: FamilySpec, n: int) -> Bound:
    """Family bound d_max = c * floor((n - parity*delta) / (2*delta)) + c, where
    delta is the degree of the odd generator; where the spec says so it is
    proven only for n - parity*delta = 0 (mod 2*delta)."""
    if not basis_exponents(fam, n):
        raise ValueError(f"family {fam.name} has no members of degree {n}")
    delta = fam.odd_gen.degree
    k, r = divmod(n - fam.parity * delta, 2 * delta)
    return Bound(fam.c * k + fam.c, r == 0 or not fam.bound_proven_on_class_only)


def classical_bound(name: str, n: int) -> int:
    """Reference bounds for the self-dual (not formal) enumerator rings."""
    if name == "type1":
        return 2 * (n // 8) + 2
    if name == "type4":
        return 2 * (n // 6) + 2
    raise ValueError(f"no classical bound for {name!r}")


def _common_scale(polys: list[HomPoly]) -> list[list[int]]:
    """The stored integers of rational polys over one common denominator:
    scaling a linear system by a constant keeps its reduced row echelon form."""
    den = lcm(*[f._den for f in polys])
    return [[v * (den // f._den) for v in f._nums] for f in polys]


@lru_cache(maxsize=256)
def _cancellation_space(fam: FamilySpec, n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The members of degree n with A_1 = ... = A_(d-1) = 0, one integer row
    per vector of the nullspace of that exact system over basis(fam, n); all
    rows are off by one common factor, which a member's lead divides out."""
    columns = _common_scale(basis(fam, n))
    rows = list(zip(*columns))
    vectors = linalg.nullspace(rows[1:d], len(columns))
    den = lcm(*[c.denominator for vec in vectors for c in vec])
    ints = [[c.numerator * (den // c.denominator) for c in vec] for vec in vectors]
    return tuple(tuple([sum(map(mul, vec, row)) for row in rows]) for vec in ints)


def _power_series(f: list[int], alpha: int, limit: int) -> list[int]:
    """g = f^alpha mod s^limit for an integer series f with f[0] = 1 and an
    integer alpha, in O(limit * deg f) steps by J.C.P. Miller's recurrence
    k g_k = sum_(j=1..deg f) ((alpha + 1) j - k) f_j g_(k-j), g_0 = 1 (Knuth,
    TAOCP vol. 2, 4.7).  g is an integer series, so each division by k is
    exact; a remainder raises AssertionError."""
    f = f[1:limit]
    lifted = [(alpha + 1) * j * c for j, c in enumerate(f, 1)]
    g = [1]
    for k in range(1, limit):
        window = g[:-len(f) - 1:-1]  # g_(k-1), ..., g_(k-deg f) or g_0
        total = sum(map(mul, lifted, window)) - k * sum(map(mul, f, window))
        g_k, rem = divmod(total, k)
        if rem:
            raise AssertionError(f"power series coefficient {k} is not an integer")
        g.append(g_k)
    return g


def _scaled(coeffs, m) -> list:
    """Coefficients of f(x, m*y) from those of f(x, y)."""
    return [c * m**i for i, c in enumerate(coeffs)]


def extremal(fam: FamilySpec, n: int) -> HomPoly:
    """The unique monic member with all weights below the family bound cancelled.

    Write E = even_gen (degree e), O = odd_gen (degree o), p = parity,
    k = 2o/e, h = E^k - O^2 and v its y-valuation.  The members of degree n
    are W = O^p * sum_j b_j E^(L-kj) h^j, L = (n - p*o)/e, j = 0..J = L // k,
    and at x = 1 the cancellation A_1 = ... = A_(d-1) = 0 of a monic W reads

        sum_j b_j t^j = 1 / (E^L O^p)  (mod y^d),  t = h / E^k,

    a triangular system (t^j has valuation v*j) whose b_j is read off row
    v*j; the member is then built by a Horner loop over j.  Both run on
    series in s = y^c (`_extremal`), where row v*j is row v*j/c.  It checks,
    with d = d_max, that every b_j is determined (v*J < d, the dimension-one
    condition), that the residual vanishes on every row below d (which
    covers the rows between multiples of v), that b_0 = 1 (the generators
    are monic in x) and that the coefficient at the bound is nonzero; it
    raises ExtremalConstructionError otherwise.
    """
    return _extremal(fam, n, bound(fam, n).d_max)


@lru_cache(maxsize=16)
def _burmann_family(fam: FamilySpec) -> tuple:
    """The degree-free data of `_extremal`, on Python ints: (k, v_s, M, E_M,
    O_M, K_M, theta, tails), with E_M, O_M and K_M = E_M^k the generators at
    y = M*w, each a series in s = w^c.

    Every weight of a member is a multiple of c, so every series of the solve
    lives in s; a generator term off the multiples of c raises
    ExtremalConstructionError.  D is the lcm of the generators' denominators
    and tau the leading coefficient of h(1, D*z), h = E^k - O^2 of
    y-valuation v = c*v_s.  At y = M*w, M = D*tau, the generators E and O are
    integer polynomials with constant term 1, so are their powers, and
    h = tau^(v+1) * theta with theta an integer polynomial, theta[v_s] = 1.
    tails[rho] = E^rho O^p for rho < k.  `_extremal` has checked that k is
    an integer and that the generators are monic in x.
    """
    even, odd, c = fam.even_gen, fam.odd_gen, fam.c
    k = 2 * odd.degree // even.degree
    # at y = D*z the generators have integer coefficients
    den = lcm(even._den, odd._den)
    if any(v for gen in (even, odd) for i, v in enumerate(gen._nums) if i % c):
        raise ExtremalConstructionError(
            f"{fam.name}: a generator has a term off the multiples of c = {c}"
        )
    e_d, o_d = ([v // g._den for v in _scaled(g._nums[::c], den**c)]
                for g in (even, odd))
    size = 2 * odd.degree // c + 1  # E^k and O^2 have y-degree 2*deg(O)
    k_d = _power_series(e_d, k, size)
    h_d = [a - b for a, b in zip(k_d, _convolve(o_d, o_d, size))]
    v_s = next(i for i, x in enumerate(h_d) if x)
    tau = h_d[v_s]
    e_m, o_m, k_m = (_scaled(f, tau**c) for f in (e_d, o_d, k_d))
    theta = [x // tau ** (c * v_s + 1) for x in _scaled(h_d, tau**c)]  # exact
    tails = [o_m if fam.parity else [1]]
    for _ in range(k - 1):
        tails.append(_convolve(tails[-1], e_m))
    # tuples: the cache hands these to every caller
    return (k, v_s, den * tau, tuple(e_m), tuple(o_m), tuple(k_m), tuple(theta),
            tuple(map(tuple, tails)))


@lru_cache(maxsize=32)
def _extremal(fam: FamilySpec, n: int, d: int) -> HomPoly:
    """The Buermann-Lagrange solve of `extremal` at bound d, on Python ints.

    Every series is in s = y^c (`_burmann_family` for v_s, tau, theta and
    M), taken mod s^ceil(d/c), the rows s^i with c*i < d.  The unknowns
    e_j = b_j * tau^((v+1)*j) are the integers read off row v_s*j of
    1/(E^L O^p) - sum_(i<j) e_i (theta/E^k)^i, and the member at y = M*w is
    O^p E^(L-kJ) * sum_j e_j (E^k)^(J-j) theta^j, spread back onto y once.
    The powers E^(-L), O^(-1) and E^(-k) are `_power_series` calls, cheap
    enough to pay per degree.
    """
    even, odd, parity, c = fam.even_gen, fam.odd_gen, fam.parity, fam.c
    if 2 * odd.degree % even.degree:
        raise ExtremalConstructionError(
            f"{fam.name}: 2*deg(odd_gen) is not a multiple of deg(even_gen)"
        )
    if even._nums[0] != even._den or odd._nums[0] != odd._den:  # b_0 = E(1,0)^(-L) O(1,0)^(-p)
        raise ExtremalConstructionError(
            f"{fam.name} degree {n}: cancellation space is not monic-normalisable"
        )
    k, v_s, step, e_m, o_m, k_m, theta, tails = _burmann_family(fam)
    big_j, rho = divmod((n - parity * odd.degree) // even.degree, k)
    if c * v_s * big_j >= d:
        raise ExtremalConstructionError(
            f"{fam.name} degree {n}: cancellation space has dimension "
            f"{big_j - (d - 1) // (c * v_s) + 1}, expected 1"
        )
    rows = -(-d // c)
    rest = _power_series(e_m, -k * big_j - rho, rows)  # 1 / (E^L O^p)
    if parity:
        rest = _convolve(rest, _power_series(o_m, -1, rows), rows)
    ratio = _convolve(theta[:rows], _power_series(e_m, -k, rows), rows)
    coeffs, ratio_power = [], [1] + [0] * (rows - 1)
    for j in range(big_j + 1):
        if j:
            ratio_power = _convolve(ratio_power, ratio, rows)
        e_j = rest[v_s * j]
        coeffs.append(e_j)
        rest = [a - e_j * b for a, b in zip(rest, ratio_power)]
    if any(rest):
        raise ExtremalConstructionError(
            f"{fam.name} degree {n}: cancellation space has dimension 0, expected 1"
        )
    acc, theta_power = [coeffs[0]], [1]
    for e_j in coeffs[1:]:
        theta_power = _convolve(theta, theta_power)
        acc = [a + e_j * b for a, b in zip(_convolve(k_m, acc), theta_power)]
    acc = _convolve(acc, tails[rho])
    if d % c or not acc[d // c]:  # off the multiples of c, A_d = 0
        raise ExtremalConstructionError(
            f"{fam.name} degree {n}: coefficient vanishes at the bound d = {d}"
        )
    # coefficient c*i is acc[i] / step^(c*i): over step^n it is acc[i] step^(n-c*i)
    nums, stride = [0] * (n + 1), step**c
    power = step ** (n - c * (len(acc) - 1))
    for i in range(len(acc) - 1, -1, -1):
        nums[c * i] = acc[i] * power
        power *= stride
    return _poly(n, nums, step**n)


def member_with_min_weight(fam: FamilySpec, n: int, d_target: int, rng) -> HomPoly | None:
    """A random monic member with A_i = 0 below d_target and A_(d_target) != 0.

    Used by the randomized theorem suites; returns None when the degree
    cannot host such a member.  Each of at most 32 attempts draws one
    rng.randint(-9, 9) per vector of the cancellation space, so the result
    is deterministic for a seeded rng.
    """
    rows = _cancellation_space(fam, n, d_target)
    for _ in range(32):
        w = [0] * (n + 1)
        for row in rows:
            r = rng.randint(-9, 9)
            w = [a + r * b for a, b in zip(w, row)]
        lead = w[0]
        if lead and w[d_target]:
            return _poly(n, w, lead)
    return None


# -- membership predicate -----------------------------------------------------------


class FweResult(Record):
    __slots__ = ("ok", "sign", "profile", "reason")


def is_fwe(f: HomPoly, q, c: int) -> FweResult:
    """Check the formal-weight-enumerator property with divisibility by c.

    True when f is monic of the standard form, transforms with sign -1, every
    nonzero weight is a multiple of c, and d <= n/2 + 1.
    """
    q = Fraction(q)
    try:
        profile, image = _profile_and_image(f, q)
    except ValueError as exc:
        return FweResult(False, None, None, str(exc))
    sign = _image_sign(f, image, q)
    if sign != -1:
        return FweResult(False, sign, profile, f"transform sign is {sign}, not -1")
    if profile.divisibility % c:
        return FweResult(
            False, sign, profile, f"weights are not divisible by {c}"
        )
    if 2 * profile.d > f.degree + 2:
        return FweResult(False, sign, profile, "d exceeds n/2 + 1")
    return FweResult(True, sign, profile, "")


# -- Buermann-Lagrange coefficient oracle ----------------------------------------------


def _inverse_power_series(alpha: int, k: int, terms: int) -> list[Fraction]:
    """Series prefix of (x - alpha)^(-k) at x = 0 (k >= 1, alpha != 0)."""
    sign = 1 if k % 2 == 0 else -1
    a = Fraction(alpha)
    out = []
    for j in range(terms):
        out.append(sign * comb(k - 1 + j, j) * a ** (-k - j))
    return out


def burmann_coefficient(fam: FamilySpec, mu: int, nu: int | None = None) -> Fraction:
    """First uncancelled weight coefficient A_(2*mu+2) from the series formula.

    For the invariant q = 4/3 family the degree is n = 2(6*mu + nu) and the
    value is always positive; for the q = 4/3 formal-weight-enumerator family
    the degree is n = 12*mu + 6 and the value is always negative.
    """
    k = 2 * mu + 2
    if fam.name == "q43":
        if nu is None or not (0 <= nu <= 5) or mu < 0 or (mu, nu) == (0, 0):
            raise ValueError("q43 oracle needs mu >= 0, 0 <= nu <= 5, (mu, nu) != (0, 0)")
        # (1 + x/3)^(5 - nu) is a polynomial
        top = [comb(5 - nu, j) * Fraction(1, 3**j) for j in range(5 - nu + 1)]
        prefactor = Fraction(9 ** k * (6 * mu + nu), 3 * factorial(mu + 1))
        sign, contract = 1, "positive"
    elif fam.name == "q43-odd":
        if mu < 2:
            raise ValueError("q43-odd oracle needs mu >= 2")
        top = [Fraction(5), Fraction(-10, 3), Fraction(1, 9)]
        prefactor = -Fraction(9 ** k * (2 * mu + 1), factorial(mu + 1))
        sign, contract = -1, "negative"
    else:
        raise ValueError("the coefficient oracle exists for the q = 4/3 families only")
    terms = mu + 1
    series = unipoly.series_mul(top, _inverse_power_series(1, k, terms), terms)
    series = unipoly.series_mul(series, _inverse_power_series(9, k, terms), terms)
    value = prefactor * (series[mu] * factorial(mu))
    if sign * value <= 0:
        raise AssertionError(f"{fam.name} coefficient lost its {contract} sign contract")
    return value
