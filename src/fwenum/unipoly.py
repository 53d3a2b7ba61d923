"""Dense univariate polynomials as coefficient lists, ascending in the exponent.

The zero polynomial is [].  Two kinds of list share the module:

- Integer lists carry the exact rational work, with no Fraction in between.
  A rational polynomial is an integer list up to a rational factor:
  `content` and `primitive`, the pseudo-division `pseudo_divmod`, the
  primitive-PRS `gcd` (Knuth, TAOCP vol. 2, 4.6.1), the Gauss-lemma exact
  division `divide_ints` and the product `_convolve`; `_integer_coeffs`
  clears the denominators of a rational list.  `split_surd` writes a list
  over Q(sqrt(D)) as two integer lists, and `surd_norm` gives their rational
  norm.  Consumers: the Molien series of `matgroup` (its sums, equality and
  series prefix), the coprimality, star and binomial checks of `zeta`, every
  `homopoly.HomPoly` (its integer parts, products and exact division), and
  the series of `families.extremal` and `families.burmann_coefficient`
  (`_convolve` adds and multiplies Fractions as well as ints).
- Fraction lists serve the tests only: the product `mul` and the division
  `divmod_` with its exact form `div_exact`, whose names the per-layer
  metrics of `perfbench` trace.  No list here holds a QuadElem except the
  input of `split_surd`; the term printer reads Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd, lcm

from .scalar import MixedExtensionError, QuadElem


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def is_zero(p: list) -> bool:
    return all(not c for c in p)


def degree(p: list) -> int:
    """Degree of p, or -1 for the zero polynomial."""
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def add(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return trim(out)


# -- the integer kernel ------------------------------------------------------------


def _convolve(left: list[int], right: list[int], limit: int | None = None) -> list[int]:
    """Product of two integer coefficient lists in ascending order; with
    `limit`, its first `limit` coefficients, zero-padded (a series product
    mod y^limit)."""
    size = len(left) + len(right) - 1 if limit is None else limit
    out = [0] * size
    width = len(right)
    for i, a in enumerate(left[:size]):
        if a:
            window = out[i : i + width]
            out[i : i + width] = [s + a * b for s, b in zip(window, right)]
    return out


def _integer_coeffs(coeffs) -> tuple[list[int], int]:
    """Rational coefficients as (ints, den) with ints[i] / den == coeffs[i],
    den the lcm of their denominators (so gcd(den, *ints) == 1)."""
    dens = [c.denominator for c in coeffs]  # a list: see homopoly.HomPoly.__init__
    den = lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def content(p: list[int]) -> int:
    """The gcd of the coefficients; 0 for the zero polynomial."""
    return _gcd(*p)


def primitive(p: list[int]) -> list[int]:
    """p over its content, trimmed, with a positive leading coefficient."""
    p = trim(list(p))
    if not p:
        return p
    c = content(p)
    if p[-1] < 0:
        c = -c
    return [v // c for v in p]


def pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^k * a == q * b + r and deg r < deg b, where
    k = max(deg a - deg b + 1, 0); b must be nonzero.

    The division of Knuth's Algorithm R: each step multiplies the partial
    remainder by lc(b) instead of dividing by it, so it stays on ints.
    """
    m = degree(b)
    if m < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = trim(list(a))
    k = len(rem) - m
    if k <= 0:
        return [], rem
    lead = b[m]
    quot = [0] * k
    for j in range(k - 1, -1, -1):
        c = rem.pop()  # the coefficient of x^(m + j)
        quot[j] = c * lead**j
        rem = [lead * v for v in rem]
        if c:
            rem[j:] = [v - c * w for v, w in zip(rem[j:], b)]
    return quot, trim(rem)


def gcd(p: list[int], q: list[int]) -> list[int]:
    """The gcd over Q of two integer lists, as a primitive list with a
    positive leading coefficient; [] when both are zero.

    A primitive remainder sequence: every pseudo-remainder is divided by its
    content, so no coefficient grows beyond what the sequence needs.
    """
    a, b = primitive(p), primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(pseudo_divmod(a, b)[1])
    return a


def divide_ints(f: list[int], a: list[int]) -> tuple[list[int], int] | None:
    """(quot, content) with f == quot * (a / content) for integer lists,
    content the gcd of a, or None when a does not divide f.

    a is made primitive; by Gauss's lemma the quotient of an integer list by
    a primitive one is integral when exact, so the long division runs on
    ints and stops at the first leading coefficient that does not divide.
    f is consumed as the remainder.
    """
    c = content(a)
    a = [v // c for v in a]
    m = len(a) - 1
    lead = a[m]
    rem = f
    quot = [0] * max(len(f) - m, 0)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + m], lead)
        if r:
            return None
        if q:
            quot[k] = q
            rem[k : k + m] = [v - q * b for v, b in zip(rem[k : k + m], a)]
    if any(rem[:m]):
        return None
    return quot, c


def split_surd(p: list) -> tuple[int, list[int], list[int], int]:
    """(d, p0, p1, den) with p == (p0 + p1 * sqrt(d)) / den, for a list of
    rationals and QuadElems over one Q(sqrt(d)): p0 and p1 are integer lists
    as long as p, den > 0 is the lcm of the denominators, and d == 1 with p1
    all zero when p is rational.  Raises MixedExtensionError for two
    extensions."""
    d = 1
    rat, irr = [], []
    for c in p:
        if isinstance(c, QuadElem):
            if c.b and c.d != d:
                if d != 1:
                    raise MixedExtensionError(f"cannot combine sqrt({d}) with sqrt({c.d})")
                d = c.d
            rat.append(c.a)
            irr.append(c.b)
        else:
            rat.append(c)
            irr.append(0)
    ints, den = _integer_coeffs(rat + irr)
    return d, ints[: len(p)], ints[len(p) :], den


def surd_norm(p0: list[int], p1: list[int], d: int) -> list[int]:
    """p0^2 - d * p1^2: the product of p0 + p1 sqrt(d) and its conjugate."""
    return add(_convolve(p0, p0), [-d * v for v in _convolve(p1, p1)])


# -- Fraction lists ----------------------------------------------------------------


def mul(p: list, q: list) -> list:
    if is_zero(p) or is_zero(q):
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return trim(out)


def divmod_(p: list, q: list) -> tuple[list, list]:
    """Polynomial division with remainder; q must be nonzero."""
    dq = degree(q)
    if dq < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    trim(rem)
    quot = [Fraction(0)] * max(len(rem) - dq, 0)
    lead = q[dq]
    while degree(rem) >= dq:
        dr = degree(rem)
        c = rem[dr] / lead
        quot[dr - dq] = c
        for i in range(dq + 1):
            if q[i]:
                rem[dr - dq + i] = rem[dr - dq + i] - c * q[i]
        rem[dr] = Fraction(0)  # force exact cancellation of the leading term
        trim(rem)
    return trim(quot), rem


def div_exact(p: list, q: list) -> list | None:
    """Exact quotient p/q, or None when the division leaves a remainder."""
    quot, rem = divmod_(p, q)
    return quot if is_zero(rem) else None


def power_string(var: str, k: int, latex: bool = False) -> str:
    """The monomial var^k: empty for k = 0, var for k = 1, braced in LaTeX."""
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{{{k}}}" if latex else f"{var}^{k}"


def format_terms(terms, latex: bool = False) -> str:
    """Signed sum of (rational coefficient, monomial string) pairs in the given
    order, zero coefficients skipped; "0" when nothing is left.

    A coefficient of magnitude 1 is elided before a monomial.  Text mode joins
    coefficient and monomial with "*" and prints fractions as a/b; LaTeX mode
    juxtaposes them and prints non-integers as \\frac{a}{b}.
    """
    parts = []
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        if mono and mag == 1:
            term = mono
        elif not latex:
            term = f"{mag}*{mono}" if mono else str(mag)
        elif mag.denominator == 1:
            term = f"{mag}{mono}"
        else:
            term = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}{mono}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append(("-" if c < 0 else "") + term)
    return " ".join(parts) if parts else "0"


def to_string(p: list, var: str = "T") -> str:
    """Human-readable form, highest power first."""
    return format_terms((p[i], power_string(var, i)) for i in range(len(p) - 1, -1, -1))
