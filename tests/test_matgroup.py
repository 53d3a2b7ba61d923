import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwenum import cli, families, homopoly, matgroup, unipoly, zeta
from fwenum.families import FAMILIES, ring_dimension
from fwenum.homopoly import HomPoly, Mat2, TAU, act_matrix, sigma_q
from fwenum.scalar import NotRationalError, QuadElem
from fwenum.matgroup import (
    GroupClosureError,
    MatrixGroup,
    RationalFunctionSeries,
    group_closure,
    molien_basis_mismatches,
    molien_series,
    named_group,
)
from fwenum.zeta import run_duursma_okuda_suite
from reference import Surd, lift, series_div
from test_unipoly import fraction_gcd

EXPECTED = {
    "g1minus": (8, [2, 4]),
    "g4minus": (6, [2, 3]),
    "g43minus": (12, [2, 6]),
    "g43": (24, [2, 12]),
}

GROUP_FOR_FAMILY = {
    "type1": "g1minus",
    "type4": "g4minus",
    "q43-odd": "g43minus",
    "q43": "g43",
}


# repr of every element of each named group in `sorted_elements()` order,
# captured from the entrywise Mat2 that the integer storage replaced
SORTED_REPRS = {
    "g1minus": [
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
        "Mat2(a=Fraction(0, 1), b=Fraction(-1, 1), c=Fraction(-1, 1), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=Fraction(-1, 1), c=Fraction(1, 1), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=Fraction(1, 1), c=Fraction(-1, 1), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=Fraction(1, 1), c=Fraction(1, 1), d=Fraction(0, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
    ],
    "g4minus": [
        "Mat2(a=Fraction(-1, 2), b=Fraction(-3, 2), c=Fraction(-1, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(-3, 2), c=Fraction(1, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(3, 2), c=Fraction(-1, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(3, 2), c=Fraction(1, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
    ],
    "g43minus": [
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(-1, 2), c=Fraction(-3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(-1, 2), c=Fraction(3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(1, 2), c=Fraction(-3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(1, 2), c=Fraction(3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
        "Mat2(a=Fraction(1, 2), b=Fraction(-1, 2), c=Fraction(-3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(-1, 2), c=Fraction(3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(-3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(3, 2), d=Fraction(-1, 2))",
    ],
    "g43": [
        "Mat2(a=-1/2*sqrt(3), b=-1/6*sqrt(3), c=-1/2*sqrt(3), d=1/2*sqrt(3))",
        "Mat2(a=-1/2*sqrt(3), b=-1/6*sqrt(3), c=1/2*sqrt(3), d=-1/2*sqrt(3))",
        "Mat2(a=-1/2*sqrt(3), b=1/6*sqrt(3), c=-1/2*sqrt(3), d=-1/2*sqrt(3))",
        "Mat2(a=-1/2*sqrt(3), b=1/6*sqrt(3), c=1/2*sqrt(3), d=1/2*sqrt(3))",
        "Mat2(a=1/2*sqrt(3), b=-1/6*sqrt(3), c=-1/2*sqrt(3), d=-1/2*sqrt(3))",
        "Mat2(a=1/2*sqrt(3), b=-1/6*sqrt(3), c=1/2*sqrt(3), d=1/2*sqrt(3))",
        "Mat2(a=1/2*sqrt(3), b=1/6*sqrt(3), c=-1/2*sqrt(3), d=1/2*sqrt(3))",
        "Mat2(a=1/2*sqrt(3), b=1/6*sqrt(3), c=1/2*sqrt(3), d=-1/2*sqrt(3))",
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(-1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(-1, 2), c=Fraction(-3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(-1, 2), c=Fraction(3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(1, 2), c=Fraction(-3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(-1, 2), b=Fraction(1, 2), c=Fraction(3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(0, 1), b=-1/3*sqrt(3), c=-sqrt(3), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=-1/3*sqrt(3), c=sqrt(3), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=1/3*sqrt(3), c=-sqrt(3), d=Fraction(0, 1))",
        "Mat2(a=Fraction(0, 1), b=1/3*sqrt(3), c=sqrt(3), d=Fraction(0, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(-1, 1))",
        "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1))",
        "Mat2(a=Fraction(1, 2), b=Fraction(-1, 2), c=Fraction(-3, 2), d=Fraction(-1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(-1, 2), c=Fraction(3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(-3, 2), d=Fraction(1, 2))",
        "Mat2(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(3, 2), d=Fraction(-1, 2))",
    ],
}


def fraction_molien(group: MatrixGroup) -> tuple[list, list]:
    """(num, den) of the Molien series by the sum on reference scalars: each
    class term added over a common denominator and reduced by the field
    Euclid gcd; the reference for `molien_series`."""
    counts = Counter(tuple(unipoly.trim([Surd(1), -Surd.of(m.trace()), Surd.of(m.det())]))
                     for m in group.sorted_elements())
    num, den = [], [Surd(1)]
    for d, k in counts.items():
        num = unipoly.add(unipoly.mul(num, list(d)), [c * k for c in den])
        den = unipoly.mul(den, list(d))
        g = fraction_gcd(num, den)
        if unipoly.degree(g) > 0:
            num = unipoly.div_exact(num, g)
            den = unipoly.div_exact(den, g)
    lead = Surd.of(den[0])
    num = [c / (lead * group.order) for c in lift(num)]
    den = [c / lead for c in lift(den)]
    assert not any(c.b for c in num + den)
    return [c.a for c in num], [c.a for c in den]


@pytest.fixture(scope="module")
def groups():
    return {name: named_group(name) for name in EXPECTED}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_printed_orders(groups, name):
    assert groups[name].order == EXPECTED[name][0]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_molien_closed_forms(groups, name):
    series = molien_series(groups[name])
    assert series == RationalFunctionSeries.one_over(EXPECTED[name][1])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_group_axioms_on_closure(groups, name):
    g = groups[name]
    elements = list(g.elements)
    assert Mat2.identity() in g
    for m in elements:
        assert m.inverse() in g
    for m in elements:
        for k in elements:
            assert (m @ k) in g


def test_involution_generator():
    assert group_closure([TAU]).order == 2


def test_trivial_group_molien():
    series = molien_series(group_closure([Mat2.identity()]))
    assert series == RationalFunctionSeries([1], [1, -2, 1])  # 1/(1-l)^2
    assert series.series(5) == [1, 2, 3, 4, 5]


def test_generators_fix_the_ring_generators(printed):
    # the q = 4/3 groups fix the degree-2 and degree-6/12 invariants
    w2 = printed["phi6"]  # reuse fixture access; proper polys below
    from fwenum.families import generator

    w2 = generator("w2", Fraction(4, 3))
    phi6 = generator("phi6")
    for m in named_group("g43minus").elements:
        assert act_matrix(w2, m) == w2
        assert act_matrix(phi6, m) == phi6
    sq = sigma_q(Fraction(4, 3))
    assert act_matrix(phi6 * phi6, sq) == phi6 * phi6


def test_noninvertible_generator_rejected():
    with pytest.raises(ValueError):
        group_closure([Mat2(1, 0, 0, 0)])


def test_closure_cap():
    shear = Mat2(1, 1, 0, 1)  # infinite order
    with pytest.raises(GroupClosureError):
        group_closure([shear], cap=64)


def test_irrational_residue_rejected():
    # not closed: the element sigma_2 TAU has trace sqrt(2) and no conjugate partner
    m = sigma_q(2) @ TAU
    group = MatrixGroup(elements=frozenset({Mat2.identity(), m}), generators=(m,))
    with pytest.raises(NotRationalError):
        molien_series(group)


def test_uncancelled_irrational_classes_rejected():
    # conjugate classes with unequal counts: rotations by 45 degrees (trace
    # sqrt(2)) once, by 135 and 225 degrees (trace -sqrt(2)) twice
    h = QuadElem(0, Fraction(1, 2), 2)  # sqrt(2) / 2
    minus_h = QuadElem(0, Fraction(-1, 2), 2)
    rotations = [Mat2(h, minus_h, h, h), Mat2(minus_h, minus_h, h, minus_h),
                 Mat2(minus_h, h, minus_h, minus_h)]
    assert [m.trace() for m in rotations] == [QuadElem(0, 1, 2), QuadElem(0, -1, 2),
                                              QuadElem(0, -1, 2)]
    group = MatrixGroup(elements=frozenset([Mat2.identity(), *rotations]),
                        generators=tuple(rotations))
    with pytest.raises(NotRationalError):
        molien_series(group)
    # with the partner of the single class added the residue cancels
    group = MatrixGroup(elements=group.elements | {Mat2(h, h, minus_h, h)},
                        generators=group.generators)
    assert molien_series(group).num


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cyclic_subgroups_match_the_fraction_reference(groups, name):
    # the cyclic groups have numerators other than 1 and their own
    # conjugate classes
    for g in groups[name].sorted_elements():
        cyclic = group_closure([g])
        series = molien_series(cyclic)
        num, den = fraction_molien(cyclic)
        assert (series.num, series.den) == (num, den)
        assert series.series(41) == series_div(num, den, 41)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_named_groups_match_the_fraction_reference(groups, name):
    series = molien_series(groups[name])
    assert (series.num, series.den) == fraction_molien(groups[name])


def test_series_prefix_of_g43():
    series = molien_series(named_group("g43"))
    assert series.series(15) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2]


@pytest.mark.parametrize("fam_name", sorted(GROUP_FOR_FAMILY))
def test_molien_matches_ring_dimension_to_40(fam_name):
    fam = FAMILIES[fam_name]
    series = molien_series(named_group(GROUP_FOR_FAMILY[fam_name]))
    coeffs = series.series(41)
    for n in range(41):
        assert coeffs[n] == ring_dimension(fam, n), (fam_name, n)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_sorted_elements_are_pinned(groups, name):
    reprs = [repr(m) for m in groups[name].sorted_elements()]
    assert reprs == SORTED_REPRS[name] and len(reprs) == EXPECTED[name][0]


def test_suites_run_no_scalar_matrix_arithmetic(monkeypatch):
    # every matrix of the Duursma-Okuda suite and of the four closures is
    # rational or a pure surd, so the action and the closure run on ints;
    # QuadElem has no arithmetic, so a scalar product would raise
    horner = []
    act_horner = homopoly._act_horner

    def spy_horner(coeffs, a, b, c, d):
        if not all(type(v) is int for v in (*coeffs, a, b, c, d)):
            horner.append((a, b, c, d))
        return act_horner(coeffs, a, b, c, d)

    monkeypatch.setattr(homopoly, "_act_horner", spy_horner)
    assert run_duursma_okuda_suite(150, 1).ok
    assert molien_basis_mismatches(40) == ([], 4)
    assert horner == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_element_is_rational_or_a_pure_surd(groups, name):
    # so act_matrix needs no branch for a matrix with both parts nonzero
    for m in groups[name].elements:
        assert m._surd is None or not any(m._nums), m


def test_a_matrix_with_both_parts_is_rejected():
    sigma = Mat2(QuadElem(1, 1, 2), 0, 0, 1)  # 1 + sqrt(2) in one entry
    assert sigma._surd is not None and any(sigma._nums)
    with pytest.raises(ValueError, match="both parts nonzero"):
        act_matrix(HomPoly(2, [1, 0, 1]), sigma)


QUAD_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
                   "conjugate", "norm")


def spy_stacks(monkeypatch, name, args=None):
    """Patch unipoly.<name>, and each module's import of it, with a spy; the
    list it returns holds, per call, the (module, function) of every frame
    on the stack.  A list passed as `args` collects each call's arguments."""
    fn, calls = getattr(unipoly, name), []

    def spy(*call_args, **kwargs):
        frame, stack = sys._getframe(1), []
        while frame is not None:
            stack.append((frame.f_globals.get("__name__"), frame.f_code.co_name))
            frame = frame.f_back
        calls.append(stack)
        if args is not None:
            args.append(call_args)
        return fn(*call_args, **kwargs)

    for module in (unipoly, homopoly, matgroup, families, zeta):
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_commands_run_on_integer_parts(monkeypatch, capsys):
    # sigma_q, the MacWilliams scale and matrix, and the Molien series prefix
    # are built from integer parts: QuadElem has no arithmetic to run, and
    # no Fraction / QuadElem list is split, no denominators cleared on each
    # series read
    assert not any(hasattr(QuadElem, name) for name in QUAD_ARITHMETIC)
    splits = spy_stacks(monkeypatch, "split_surd")
    clears = spy_stacks(monkeypatch, "_integer_coeffs")
    for argv in (["verify", "th-duursma-okuda", "--samples", "20"],
                 ["verify", "lemma-duursma", "--samples", "20"],
                 ["verify", "molien-basis"],
                 ["molien", "--group", "g43"],
                 ["scan", "--family", "q43-odd", "-n", "6..30"]):
        assert cli.main(argv) == 0, argv
    assert splits and clears  # the suites' random input is split at the edge
    kernels = {"sigma_q", "_unscaled_macwilliams", "_macwilliams_scale"}
    assert [s for s in splits if kernels & {name for _, name in s}] == []
    assert [s for s in clears if ("fwenum.matgroup", "series") in s] == []


def test_scalar_products_and_binomial_row_sums_are_not_split(monkeypatch, capsys):
    # a HomPoly times an int or a Fraction, and the weights and the shear of
    # `_binomial_row_sum`, are built from integer parts
    args = []
    splits = spy_stacks(monkeypatch, "split_surd", args)
    for argv in (["verify", "zeta-binomial", "--family", "type1", "-n", "60"],
                 ["verify", "zeta-binomial", "--family", "type4", "-n", "45"],
                 ["verify", "th-duursma-okuda", "--samples", "20", "--seed", "1"]):
        assert cli.main(argv) == 0, argv
    assert splits  # the suite's random input is split at the edge
    assert [s for s in splits if ("fwenum.zeta", "_binomial_row_sum") in s] == []
    scalar = [p for s, (p,) in zip(splits, args)
              if ("fwenum.homopoly", "__mul__") in s[:2] and not isinstance(p[0], QuadElem)]
    assert scalar == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=5),
       st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=5)
       .filter(lambda den: den[0]), st.integers(1, 30))
def test_series_on_ints_matches_fraction_division(num, den, terms):
    # den[0] other than 1 and fractional coefficients on both sides
    series = RationalFunctionSeries(num, den)
    want = series_div(series.num, series.den, terms)
    assert series.series(terms) == want
    assert all(type(c) is Fraction for c in series.series(terms))
