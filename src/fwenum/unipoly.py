"""Dense univariate polynomial helpers over an exact field.

Polynomials are plain lists of scalars (Fraction or QuadElem) in ascending
order of the exponent; the zero polynomial is [].  These are internal
building blocks shared by exact division, Molien series, zeta-polynomial
arithmetic and the products of HomPolys with irrational (QuadElem)
coefficients; all operations are exact.
"""

from __future__ import annotations

from fractions import Fraction


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


def scale(p: list, c) -> list:
    if not c:
        return []
    return [ci * c for ci in p]


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


def gcd(p: list, q: list) -> list:
    """Monic gcd via the Euclidean algorithm (scalars form a field)."""
    a, b = trim(list(p)), trim(list(q))
    while not is_zero(b):
        _, r = divmod_(a, b)
        a, b = b, r
    da = degree(a)
    if da < 0:
        return []
    lead = a[da]
    return [c / lead for c in a]


def series_mul(p: list, q: list, terms: int) -> list:
    """Product of two power-series prefixes, truncated to `terms` coefficients."""
    out = mul(p[:terms], q[:terms])[:terms]
    return out + [Fraction(0)] * (terms - len(out))


def series_div(num: list, den: list, terms: int) -> list:
    """Power-series prefix of num/den; requires den[0] != 0."""
    if not den or not den[0]:
        raise ZeroDivisionError("series division needs a unit constant term")
    inv0 = 1 / den[0]
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j]:
                acc = acc - den[j] * out[k - j]
        out.append(acc * inv0)
    return out


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
