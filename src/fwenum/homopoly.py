"""Homogeneous bivariate polynomial algebra over exact scalars.

A ``HomPoly`` of degree n has n+1 coefficients indexed by the exponent of y,
so ``coeffs[i]`` multiplies x^(n-i) y^i.  The zero polynomial keeps its
degree so that degree contracts of the differential operators stay total.
Coefficients read as Fractions, or as read-only QuadElem values when a square
root of q enters (odd-degree MacWilliams transforms, matrix actions over
Q(sqrt(D))); all arithmetic runs on the stored integers.

Every polynomial is stored on integers as f = (f0 + f1 sqrt(D)) / den, f0
and f1 integer tuples, D squarefree, den > 0 in lowest terms; a rational
polynomial has no f1.  `coeffs`, the tuple of Fractions and QuadElems, is
built on each read.  Sums work part by part, products and p(D) are
(f0 g0 + D f1 g1) + (f0 g1 + f1 g0) sqrt(D) on `unipoly._convolve` (one call
when both are rational), and exact division by an irrational a divides
f * conj(a) by the rational a * conj(a) with `unipoly.divide_ints`; each
result is normalised by one gcd.  A `Mat2` is stored the same way on its
four entries, M = (M0 + M1 sqrt(D)) / den.  A rational M, or a pure surd
M1 sqrt(D) / den such as sigma_q(q), acts on each part as the integer action
of M0 or M1 (times sqrt(D)^n); sigma_q, q^(-n/2) and inverses are built on
ints.  A matrix with both parts nonzero, which no caller builds (every
element of the named groups is rational or a pure surd), is rejected.

The integer action is Kronecker-packed: every polynomial of its Horner loop
is one int, its value at x = 1, y = 2^B, with B wide enough for a signed
coefficient of the result, so a step is a few C-level big-int operations
instead of several per coefficient, and the result is decoded once.  Slots
wider than 1024 bits, about where the packed loop stops winning, keep the
loop on coefficient lists.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, perm
from operator import mul

from . import unipoly
from .unipoly import _convolve
from .record import Record
from .scalar import (
    Fraction as Rational,
    MixedExtensionError,
    NotRationalError,
    QuadElem,
    simplify,
    squarefree_decompose,
)

__all__ = [
    "HomPoly",
    "Mat2",
    "WeightProfile",
    "act_matrix",
    "macwilliams",
    "transform_sign",
    "diff_op",
    "divide_exact",
    "weight_profile",
    "min_weight",
    "pochhammer",
    "parse_poly",
    "MixedExtensionError",
    "NotRationalError",
]


def _norm_scalar(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, QuadElem):
        return simplify(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class HomPoly(Record):
    """Homogeneous polynomial sum(coeffs[i] * x^(n-i) y^i, i = 0..n).

    Stored as (_nums + _surd * sqrt(_root)) / _den: `_nums` and `_surd` are
    integer tuples, `_root` is squarefree and `_den` > 0 with
    gcd(_den, *_nums, *_surd) == 1.  A rational polynomial has `_surd` None
    and `_root` 1, so equal polynomials store equal integers.
    """

    __slots__ = ("degree", "_nums", "_surd", "_root", "_den")

    def __init__(self, degree: int, coeffs):
        coeffs = [_norm_scalar(c) for c in coeffs]
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        # in lowest terms already; root is 1 exactly when every sqrt part is 0
        root, nums, surd, den = unipoly.split_surd(coeffs)
        _store(self, degree, nums, den, surd if root != 1 else None, root)

    @property
    def coeffs(self) -> tuple:
        return tuple([_coefficient(self, i) for i in range(self.degree + 1)])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return _poly(degree, [0] * (degree + 1), 1)

    @classmethod
    def from_terms(cls, degree: int, terms: dict) -> "HomPoly":
        """Build from a map {y_exponent: coefficient}."""
        coeffs = [Fraction(0)] * (degree + 1)
        for i, c in terms.items():
            coeffs[i] = c
        return cls(degree, coeffs)

    @classmethod
    def monomial(cls, x_exp: int, y_exp: int, coeff=1) -> "HomPoly":
        return cls.from_terms(x_exp + y_exp, {y_exp: coeff})

    @classmethod
    def one(cls) -> "HomPoly":
        return _poly(0, [1], 1)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self._surd is None and not any(self._nums)

    def is_rational(self) -> bool:
        return self._surd is None

    def support(self) -> list[int]:
        """y-exponents with a nonzero coefficient."""
        if self._surd is None:
            return [i for i, c in enumerate(self._nums) if c]
        return [i for i, (u, v) in enumerate(zip(self._nums, self._surd)) if u or v]

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (self.degree == other.degree and self._den == other._den
                and self._nums == other._nums and self._surd == other._surd
                and self._root == other._root)

    def __hash__(self):
        return hash((self.degree, self._den, self._nums, self._surd, self._root))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        den = lcm(self._den, other._den)
        ls, lo = den // self._den, den // other._den
        nums = [a * ls + b * lo for a, b in zip(self._nums, other._nums)]
        surd = None
        if self._surd is not None or other._surd is not None:
            zeros = (0,) * len(nums)
            surd = [a * ls + b * lo
                    for a, b in zip(self._surd or zeros, other._surd or zeros)]
        return _poly(self.degree, nums, den, surd, _common_root(self, other))

    def __sub__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _poly(0, [other.numerator], other.denominator)
        elif isinstance(other, QuadElem):
            other = HomPoly(0, [other])
        elif not isinstance(other, HomPoly):
            return NotImplemented
        # the product commutes, and _convolve loops over its left operand
        f, g = (self, other) if self.degree <= other.degree else (other, self)
        nums, surd, root = _bilinear(_convolve, f, g)
        return _poly(f.degree + g.degree, nums, f._den * g._den, surd, root)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadElem)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = HomPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- text / JSON ---------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        if self._surd is None:  # the text form prints rational polys only
            return f"HomPoly({format_poly(self)!r})"
        return f"HomPoly({self.degree}, {list(self.coeffs)!r})"

    def to_json(self) -> str:
        if not self.is_rational():
            raise NotRationalError("JSON form supports rational coefficients only")
        return json.dumps(
            {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "HomPoly":
        obj = json.loads(text)
        return cls(obj["degree"], [Fraction(c) for c in obj["coeffs"]])


def _store(f: HomPoly, degree: int, nums, den: int, surd, root: int) -> HomPoly:
    # tuples built from lists, not generators: a tuple made from a generator
    # starts with room for 10 items and is resized to fit, and the tuples hot
    # paths free that way pile up on CPython's per-size free lists (0.8 MiB
    # of peak memory on the verifier suites)
    object.__setattr__(f, "degree", degree)
    object.__setattr__(f, "_nums", tuple(nums))
    object.__setattr__(f, "_surd", None if surd is None else tuple(surd))
    object.__setattr__(f, "_root", root)
    object.__setattr__(f, "_den", den)
    return f


def _lowest(nums: list[int], den: int, surd: list[int] | None, root: int) -> tuple:
    """(nums, den, surd, root) for (nums + surd * sqrt(root)) / den (den != 0)
    in canonical form: one gcd over den and both parts, and no sqrt part
    (None, root 1) when surd is None or all zero."""
    if surd is not None and not any(surd):
        surd, root = None, 1
    g = gcd(den, *nums) if surd is None else gcd(den, *nums, *surd)
    if den < 0:
        g = -g
    if g != 1:
        nums = [v // g for v in nums]
        surd = None if surd is None else [v // g for v in surd]
        den //= g
    return nums, den, surd, root


def _poly(degree: int, nums: list[int], den: int, surd: list[int] | None = None,
          root: int = 1) -> HomPoly:
    """The HomPoly (nums + surd * sqrt(root)) / den in canonical form."""
    return _store(object.__new__(HomPoly), degree, *_lowest(nums, den, surd, root))


def _scalar(u: int, v: int, den: int, root: int):
    """(u + v sqrt(root)) / den: a Fraction, or a QuadElem when v != 0."""
    c = Fraction(u, den)
    return QuadElem(c, Fraction(v, den), root) if v else c


def _coefficient(f: HomPoly | Mat2, i: int):
    """f.coeffs[i], without building the tuple; entry i of a Mat2."""
    return _scalar(f._nums[i], 0 if f._surd is None else f._surd[i], f._den, f._root)


def _common_root(f: HomPoly | Mat2, g: HomPoly | Mat2) -> int:
    """The D of the field Q(sqrt(D)) that holds f and g."""
    if f._root == 1 or f._root == g._root:
        return g._root
    if g._root == 1:
        return f._root
    raise MixedExtensionError(f"cannot combine sqrt({f._root}) with sqrt({g._root})")


def _bilinear(op, f, g) -> tuple[list[int], list[int] | None, int]:
    """op, a bilinear map of integer lists, on f = f0 + f1 sqrt(D) and
    g = g0 + g1 sqrt(D), two HomPolys or two Mat2s: (f0 g0 + D f1 g1,
    f0 g1 + f1 g0, D) from the stored parts, with no sqrt part (None) and
    D = 1 when f and g are rational."""
    nums = op(f._nums, g._nums)
    if f._surd is None and g._surd is None:
        return nums, None, 1
    root = _common_root(f, g)
    surd = None if f._surd is None else op(f._surd, g._nums)
    if g._surd is not None:
        cross = op(f._nums, g._surd)
        surd = cross if surd is None else [a + b for a, b in zip(surd, cross)]
        if f._surd is not None:
            nums = [a + root * b for a, b in zip(nums, op(f._surd, g._surd))]
    return nums, surd, root


class Mat2(Record):
    """2x2 matrix (a, b; c, d) acting on (x, y); entries are exact scalars.

    Stored as a HomPoly is, on the entries (a, b, c, d): integer 4-tuples
    (_nums + _surd * sqrt(_root)) / _den in lowest terms, `_surd` None when
    rational; entries from two extensions raise MixedExtensionError.  Every
    operation runs on those ints, and `a` to `d` are built on read.  Matrices
    compare and hash by the ints, so group closure collects each element
    once; `MatrixGroup.sorted_elements` orders by the repr.
    """

    __slots__ = ("_nums", "_surd", "_root", "_den")

    def __init__(self, a, b, c, d):
        root, nums, surd, den = unipoly.split_surd([_norm_scalar(e) for e in (a, b, c, d)])
        super().__init__(tuple(nums), tuple(surd) if root != 1 else None, root, den)

    a = property(lambda self: _coefficient(self, 0))
    b = property(lambda self: _coefficient(self, 1))
    c = property(lambda self: _coefficient(self, 2))
    d = property(lambda self: _coefficient(self, 3))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self._den == other._den and self._nums == other._nums
                and self._surd == other._surd and self._root == other._root)

    def __hash__(self):
        return hash((self._den, self._nums, self._surd, self._root))

    def __repr__(self):
        return f"Mat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @classmethod
    def identity(cls) -> "Mat2":
        return _mat([1, 0, 0, 1], 1)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        nums, surd, root = _bilinear(_matmul_ints, self, o)
        return _mat(nums, self._den * o._den, surd, root)

    def _parts_map(self, op) -> "Mat2":
        """op, a linear map of integer 4-lists, on both stored parts."""
        surd = None if self._surd is None else op(self._surd)
        return _mat(op(self._nums), self._den, surd, self._root)

    def __neg__(self) -> "Mat2":
        return self._parts_map(lambda m: [-v for v in m])

    def _det_parts(self) -> tuple[int, int, int]:
        """(u, v, D) with det = (u + v sqrt(D)) / _den^2."""
        (u,), surd, root = _bilinear(lambda m, n: [m[0] * n[3] - m[1] * n[2]], self, self)
        return u, surd[0] if surd else 0, root

    def det(self):
        u, v, root = self._det_parts()
        return _scalar(u, v, self._den**2, root)

    def trace(self):
        v = 0 if self._surd is None else self._surd[0] + self._surd[3]
        return _scalar(self._nums[0] + self._nums[3], v, self._den, self._root)

    def transpose(self) -> "Mat2":
        return self._parts_map(lambda m: [m[0], m[2], m[1], m[3]])

    def inverse(self) -> "Mat2":
        """adj(M) / det, with 1/det = den^2 (u - v sqrt(D)) / (u^2 - D v^2)."""
        u, v, root = self._det_parts()
        if not (u or v):
            raise ZeroDivisionError("matrix is singular")
        c0, c1 = self._den**2 * u, -self._den**2 * v
        scale = _mat([c0, 0, 0, c0], u * u - root * v * v, [c1, 0, 0, c1], root)
        return self._parts_map(lambda m: [m[3], -m[1], -m[2], m[0]]) @ scale


def _matmul_ints(m: list[int], n: list[int]) -> list[int]:
    """The product of two integer matrices, each as (a, b, c, d)."""
    return [m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3]]


def _mat(nums: list[int], den: int, surd: list[int] | None = None, root: int = 1) -> Mat2:
    """The Mat2 (nums + surd * sqrt(root)) / den in canonical form."""
    nums, den, surd, root = _lowest(nums, den, surd, root)
    m = object.__new__(Mat2)
    Record.__init__(m, tuple(nums), None if surd is None else tuple(surd), root, den)
    return m


def _check_q(q: Rational) -> Fraction:
    """q as a Fraction; raises ValueError unless q > 0 and q != 1."""
    q = Fraction(q)
    if q <= 0 or q == 1:
        raise ValueError("q must be positive and != 1")
    return q


def _over_sqrt(q: Fraction, nums: list[int], den: int) -> tuple:
    """(nums, den, surd, root) of the values nums / den divided by sqrt(q):
    with q = a/b and ab = s^2 D, D squarefree, 1/sqrt(q) = s sqrt(D) / a."""
    s, root = squarefree_decompose(q.numerator * q.denominator)
    nums, den = [s * v for v in nums], den * q.numerator
    return (nums, den, None, 1) if root == 1 else ([0] * len(nums), den, nums, root)


def sigma_q(q: Rational) -> Mat2:
    """MacWilliams matrix (1/sqrt(q)) [[1, q-1], [1, -1]]."""
    q = _check_q(q)
    a, b = q.numerator, q.denominator
    return _mat(*_over_sqrt(q, [b, a - b, b, -b], b))


TAU = Mat2(1, 0, 0, -1)


# -- matrix action ------------------------------------------------------------


def _times_linear(p: list, a, b) -> list:
    """Coefficients of p * (a x + b y), both indexed by the y-exponent."""
    return [a * p[0], *[a * u + b * v for u, v in zip(p[1:], p)], b * p[-1]]


def _act_horner(coeffs: list[int], a, b, c, d) -> list[int]:
    """Coefficients of sum(coeffs[i] U^(n-i) V^i) with U = a x + b y and
    V = c x + d y, by Horner in V: acc_k = acc_(k-1) V + coeffs[n-k] U^k.

    O(n^2) operations on ints, for the integer action of `act_matrix` when it
    needs slots wider than `_PACKED_SLOT_BITS` and `_act_packed` would be
    slower.
    """
    n = len(coeffs) - 1
    acc = [coeffs[n]]
    upow = [1]
    for k in range(1, n + 1):
        upow = _times_linear(upow, a, b)
        acc = _times_linear(acc, c, d)
        ck = coeffs[n - k]
        if ck:
            acc = [s + ck * u for s, u in zip(acc, upow)]
    return acc


# The integer action runs packed while a slot is at most this wide.  Best-of
# timings of the MacWilliams images of extremal members (BENCH_21.json): the
# packed loop ran 1.05-2.5x as fast as the list loop at slots of 456-952 bits,
# 0.91-1.2x at 1144 bits and 0.5-0.76x at 1584-2288 bits.
_PACKED_SLOT_BITS = 1024


def _slot_bytes(nums, a, b, c, d) -> int:
    """Bytes per slot that hold every coefficient of the integer action of
    (a, b; c, d) on `nums`, with a sign bit.

    A coefficient of sum(nums[i] U^(n-i) V^i) is at most sum |nums[i]| times
    the l1 norm of U^(n-i) V^i, which is at most max(|a|+|b|, |c|+|d|)^n.
    """
    n = len(nums) - 1
    bound = sum(map(abs, nums)) * max(abs(a) + abs(b), abs(c) + abs(d)) ** n
    return (bound.bit_length() + 8) // 8


def _unpack(packed: int, count: int, width: int) -> list[int]:
    """The `count` signed digits r_i of packed = sum r_i 2^(8 width i), each
    |r_i| < 2^(8 width - 1): a bias of 2^(8 width - 1) per slot makes every
    digit nonnegative, and the bytes of the sum are read one slot at a time."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = (packed + bias).to_bytes(count * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half
            for i in range(0, count * width, width)]


def _act_packed(nums, a, b, c, d, width: int) -> list[int]:
    """`_act_horner` on ints by Kronecker substitution: each polynomial is
    the one int p(x = 1, y = 2^B), B = 8 `width`, so multiplying by
    a x + b y is a*p + (b*p << B), and each Horner step is a few big-int
    operations instead of several per coefficient.  Evaluation at y = 2^B is
    a ring homomorphism, so the result is decoded once, and it decodes
    exactly when `width` is at least `_slot_bytes(nums, a, b, c, d)`.
    """
    shift = 8 * width
    n = len(nums) - 1
    acc, upow = nums[n], 1
    for k in range(1, n + 1):
        upow = a * upow + ((b * upow) << shift)
        acc = c * acc + ((d * acc) << shift)
        ck = nums[n - k]
        if ck:
            acc += ck * upow
    return _unpack(acc, n + 1, width)


def _act_ints(nums, a, b, c, d) -> list[int]:
    """The integer action of (a, b; c, d) on nums: packed while a slot of the
    result is at most `_PACKED_SLOT_BITS` wide (the measured crossover)."""
    width = _slot_bytes(nums, a, b, c, d)
    if 8 * width <= _PACKED_SLOT_BITS:
        return _act_packed(nums, a, b, c, d, width)
    return _act_horner(nums, a, b, c, d)


def act_matrix(f: HomPoly, sigma: Mat2) -> HomPoly:
    """f^sigma(x, y) = f(a x + b y, c x + d y), expanded and collected.

    The split of sigma is read from its storage.  A rational sigma = M0 / den
    acts by its integers M0 on each stored part of f (`_act_ints`), over f's
    denominator times den^n.  A pure surd sigma = M1 sqrt(D) / den, such as
    sigma_q(q), acts by M1 the same way, and the image is multiplied by
    sqrt(D)^n = (1/D)^(-n/2).  A sigma with both parts nonzero raises
    ValueError.
    """
    n = f.degree
    ints = sigma._nums
    if sigma._surd is not None:
        if any(ints):
            raise ValueError("act_matrix needs a rational matrix or a pure surd "
                             "M1*sqrt(D)/den, not one with both parts nonzero")
        ints = sigma._surd
    nums = _act_ints(f._nums, *ints)
    surd = None if f._surd is None else _act_ints(f._surd, *ints)
    image = _poly(n, nums, f._den * sigma._den**n, surd, f._root)
    if sigma._surd is None:
        return image
    return image * _macwilliams_scale(n, Fraction(1, sigma._root))  # sqrt(D)^n


def _unscaled_macwilliams(f: HomPoly, q: Fraction) -> HomPoly:
    """f(x + (q-1)y, x - y): the MacWilliams transform without q^(-n/2).

    With q = a/b it is g(x, y/b) for g = f(x + (a-b)y, x - by), the action of
    the integer matrix (1, a-b; 1, -b), whose slots in `act_matrix` are
    narrower than those of (b, a-b; b, -b) / b; coefficient i of g is then
    divided by b^i.
    """
    a, b = q.numerator, q.denominator
    image = act_matrix(f, _mat([1, a - b, 1, -b], 1))
    if b == 1:
        return image
    n = image.degree
    scale = list(accumulate([b] * n, mul, initial=1))[::-1]  # b^(n-i) at i
    nums = [v * s for v, s in zip(image._nums, scale)]
    surd = None if image._surd is None else [v * s for v, s in zip(image._surd, scale)]
    return _poly(n, nums, image._den * scale[0], surd, image._root)


def _macwilliams_scale(n: int, q: Fraction) -> HomPoly:
    """q^(-n/2) as a polynomial of degree 0: the factor between the unscaled
    and the true transform, or sqrt(D)^n for q = 1/D."""
    k = n // 2
    parts = [q.denominator**k], q.numerator**k
    return _poly(0, *(_over_sqrt(q, *parts) if n % 2 else parts))


def macwilliams(f: HomPoly, q: Rational) -> HomPoly:
    """MacWilliams transform f^{sigma_q} = q^(-n/2) f(x + (q-1)y, x - y).

    Coefficients stay rational whenever q^(n/2) is rational; otherwise they
    live in the quadratic extension containing sqrt(q).
    """
    q = _check_q(q)
    return _unscaled_macwilliams(f, q) * _macwilliams_scale(f.degree, q)


def _image_sign(f: HomPoly, image: HomPoly, q: Fraction) -> int | None:
    """`transform_sign` of f read off its unscaled MacWilliams image."""
    g = image * _macwilliams_scale(f.degree, q)
    if g == f:
        return 1
    if g == -f:
        return -1
    return None


def transform_sign(f: HomPoly, q: Rational) -> int | None:
    """+1 / -1 when f^{sigma_q} equals +f / -f exactly, else None."""
    q = _check_q(q)
    return _image_sign(f, _unscaled_macwilliams(f, q), q)


# -- differential operators ----------------------------------------------------


def _diff_terms(pc: list[int], fc: list[int], n: int) -> list[int]:
    """Coefficients of p(D) f from those of p (degree m) and f (degree n), on
    ints: d^(m-j)/dx^(m-j) d^j/dy^j takes x^(n-i) y^i to
    perm(n-i, m-j) perm(i, j) x^(n-m-i+j) y^(i-j)."""
    m = len(pc) - 1
    out = [0] * (n - m + 1)
    for j, pj in enumerate(pc):
        if not pj:
            continue
        for i in range(j, n - m + j + 1):
            ci = fc[i]
            if ci:
                out[i - j] += pj * ci * (perm(n - i, m - j) * perm(i, j))
    return out


def diff_op(p: HomPoly, f: HomPoly) -> HomPoly:
    """Apply p(D), the operator with x -> d/dx and y -> d/dy, to f.

    p(D) is bilinear in p and f, so the terms accumulate on their stored
    integer parts (`_bilinear`), over the product of the two denominators.
    """
    m, n = p.degree, f.degree
    if m > n:
        raise ValueError(f"operator degree {m} exceeds polynomial degree {n}")
    nums, surd, root = _bilinear(lambda pc, fc: _diff_terms(pc, fc, n), p, f)
    return _poly(n - m, nums, p._den * f._den, surd, root)


def pochhammer(a: Rational, n: int) -> Rational:
    """Rising factorial a (a+1) ... (a+n-1); 1 when n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    a = Fraction(a)
    for j in range(n):
        out *= a + j
    return out


# -- exact division --------------------------------------------------------------


def _dehomogenize(f: HomPoly) -> tuple[int, int, list[int], list[int] | None]:
    """Split f = x^xpow y^ypow * core; returns (xpow, ypow, core0, core1),
    the slices of f's stored parts from its first to its last nonzero
    coefficient (core1 None when f is rational).  f must be nonzero."""
    idx = f.support()
    lo, hi = idx[0], idx[-1]
    surd = None if f._surd is None else list(f._surd[lo : hi + 1])
    return f.degree - hi, lo, list(f._nums[lo : hi + 1]), surd


def divide_exact(a: HomPoly, f: HomPoly) -> HomPoly | None:
    """Exact cofactor g with a*g == f, or None when a does not divide f.

    An irrational a is replaced by the rational a * conj(a), and f by
    f * conj(a).  Both are split off their powers of x and y, each part of
    f's core is divided by a's with `unipoly.divide_ints`, and g is the
    integer quotient times den_a / (den_f * content(core of a)).
    """
    if a.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.degree > f.degree:
        raise ValueError("divisor degree exceeds dividend degree")
    if f.is_zero():
        return HomPoly.zero(f.degree - a.degree)
    if a._surd is not None:
        conj = _poly(a.degree, a._nums, a._den, [-v for v in a._surd], a._root)
        return divide_exact(a * conj, f * conj)
    ax, ay, acore, _ = _dehomogenize(a)
    fx, fy, *fcore = _dehomogenize(f)
    if fx < ax or fy < ay:
        return None
    n = f.degree - a.degree
    dy = fy - ay
    parts = [None, None]
    for k, core in enumerate(fcore):
        if core is not None:
            divided = unipoly.divide_ints(core, acore)
            if divided is None:
                return None
            quot, content = divided
            parts[k] = [0] * (n + 1)
            parts[k][dy : dy + len(quot)] = [v * a._den for v in quot]
    return _poly(n, parts[0], f._den * content, parts[1], f._root)


# -- weight profile ---------------------------------------------------------------


class WeightProfile(Record):
    """Minimum weight, dual minimum weight and divisibility of an enumerator."""

    __slots__ = ("d", "d_perp", "divisibility")


def _min_positive_support(f: HomPoly) -> int:
    for i in f.support():
        if i:
            return i
    raise ValueError("polynomial has no positive-weight term")


def min_weight(f: HomPoly) -> int:
    """d of an enumerator f, the least positive weight; no MacWilliams transform.

    Raises ValueError when f is zero, not monic in x^n, or x^n alone.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no weight profile")
    if _coefficient(f, 0) != 1:
        raise ValueError("enumerator must be monic in x^n")
    if f.support() == [0]:
        raise ValueError("x^n alone is not a weight enumerator")
    return _min_positive_support(f)


def _profile_and_image(f: HomPoly, q: Rational) -> tuple[WeightProfile, HomPoly]:
    """`weight_profile(f, q)` and the unscaled MacWilliams image that d_perp is
    read from, so that `families.is_fwe` expands the image once."""
    d = min_weight(f)
    divisibility = 0
    for i in f.support():
        divisibility = gcd(divisibility, i)
    image = _unscaled_macwilliams(f, _check_q(q))
    return WeightProfile(d=d, d_perp=_min_positive_support(image),
                         divisibility=divisibility), image


def weight_profile(f: HomPoly, q: Rational) -> WeightProfile:
    """d, d_perp and the largest c dividing every nonzero weight of f; d_perp
    from the support of the MacWilliams image before its nonzero scale."""
    return _profile_and_image(f, q)[0]


# -- parsing / printing -----------------------------------------------------------


_TERM_RE = re.compile(
    r"(?P<coef>\d+(?:/\d+)?)?"
    r"(?:\*?x(?:\^(?P<xp>\d+))?)?"
    r"(?:\*?y(?:\^(?P<yp>\d+))?)?"
)


def parse_poly(text: str) -> HomPoly:
    """Parse a signed sum of terms ``c*x^a*y^b`` into a HomPoly.

    The grammar matches the printer: rational coefficients as ``num/den``,
    ``*`` and exponents of 1/0 elidable, e.g. ``x^12 - 33*x^8*y^4 + y^12``.
    Whitespace of any kind is ignored, except between two digits.
    """
    # "2 3*x" would read as 23*x once the whitespace is gone
    words = text.split()
    if any(a[-1].isdigit() and b[0].isdigit() for a, b in zip(words, words[1:])):
        raise ValueError(f"whitespace between digits in {text!r}")
    compact = "".join(words).replace("−", "-")
    if not compact:
        raise ValueError("empty polynomial text")
    # "x^2-y^2" splits into ["x^2", "-", "y^2"]; a leading sign leaves "" first
    first, *rest = re.split(r"([+-])", compact)
    pieces = [("+", first)] if first else []
    pieces += zip(rest[::2], rest[1::2])
    terms = []
    for sign_s, chunk in pieces:
        if not chunk:
            raise ValueError(f"sign {sign_s!r} with no term after it in {text!r}")
        sign = -1 if sign_s == "-" else 1
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coef_s, xp_s, yp_s = m.group("coef"), m.group("xp"), m.group("yp")
        has_x = "x" in chunk
        has_y = "y" in chunk
        if coef_s is None and not has_x and not has_y:
            raise ValueError(f"cannot parse term {chunk!r}")
        try:
            coef = Fraction(coef_s) if coef_s else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        xp = int(xp_s) if xp_s else (1 if has_x else 0)
        yp = int(yp_s) if yp_s else (1 if has_y else 0)
        terms.append((sign * coef, xp, yp))
    degrees = {xp + yp for _, xp, yp in terms}
    if len(degrees) != 1:
        raise ValueError(f"terms of mixed total degree {sorted(degrees)}")
    n = degrees.pop()
    coeffs = [Fraction(0)] * (n + 1)
    for coef, _, yp in terms:
        coeffs[yp] += coef
    return HomPoly(n, coeffs)


def _terms(f: HomPoly, latex: bool):
    n = f.degree
    sep = "" if latex else "*"
    for i, c in enumerate(f.coeffs):
        mono = (unipoly.power_string("x", n - i, latex), unipoly.power_string("y", i, latex))
        yield c, sep.join(m for m in mono if m)


def format_poly(f: HomPoly) -> str:
    """Inverse of parse_poly; round-trips exactly for rational coefficients."""
    if not f.is_rational():
        raise NotRationalError("text form supports rational coefficients only")
    return unipoly.format_terms(_terms(f, False))


def format_poly_latex(f: HomPoly) -> str:
    """LaTeX rendering with \\frac for non-integer coefficients."""
    if not f.is_rational():
        raise NotRationalError("LaTeX form supports rational coefficients only")
    return unipoly.format_terms(_terms(f, True), latex=True)
