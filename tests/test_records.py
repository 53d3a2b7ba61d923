"""The contracts of the plain record classes: which are immutable, which
compare and hash by value, by identity or not at all, and the one repr that
an ordering depends on."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

import fwenum
from fwenum import zeta as zeta_mod
from fwenum.families import Bound, FamilySpec, bound, extremal, family, is_fwe, _gen_power
from fwenum.homopoly import HomPoly, Mat2, WeightProfile, parse_poly, weight_profile
from fwenum.matgroup import (
    MatrixGroup,
    RationalFunctionSeries,
    named_group,
)
from fwenum.pipeline import scan_degree, scan_family
from fwenum.record import Record
from fwenum.scalar import QuadElem
from fwenum.zeta import (
    DivisibilityCheck,
    DuursmaOkudaResult,
    RHReport,
    StarCheck,
    ZetaPoly,
    mds_enumerator,
    rh_check,
    run_duursma_okuda_suite,
    zeta_checked,
)

F = Fraction

# a factory of each immutable record, and one of its fields
FROZEN = {
    "Mat2": (lambda: Mat2(1, 2, 3, 4), "a"),
    "FamilySpec": (lambda: family("type1"), "q"),
    "Bound": (lambda: bound(family("type1"), 12), "d_max"),
    "WeightProfile": (lambda: weight_profile(parse_poly("x^2 + y^2"), 2), "d"),
    "ZetaPoly": (lambda: ZetaPoly((1, -2, 2), 2), "coeffs"),
    "RHReport": (lambda: rh_check(ZetaPoly((1, -2, 2), 2)), "passed"),
    "MDSEnumerator": (lambda: mds_enumerator(6, 3, 2), "poly"),
    "MatrixGroup": (lambda: named_group("g1minus"), "elements"),
    "FweResult": (lambda: is_fwe(parse_poly("x^2 + y^2"), 2, 2), "ok"),
    "StarCheck": (lambda: StarCheck(True, True, True), "ok"),
    "DivisibilityCheck": (lambda: DivisibilityCheck(False, False, False, None), "ok"),
    "DuursmaOkudaResult": (lambda: DuursmaOkudaResult(False, "no"), "part1_ok"),
    "ScanRow": (lambda: scan_degree(family("type1"), 8, 1e-9, 128), "status"),
    "ScanReport": (lambda: scan_family(family("type1"), 4, 6, 1e-9, 128), "rows"),
    "SuiteReport": (lambda: run_duursma_okuda_suite(1, seed=1), "failures"),
}


@pytest.mark.parametrize("make,field", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_records_reject_assignment(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


class TestMat2:
    def test_equal_entries_compare_and_hash_equal(self):
        left, right = Mat2(1, F(1, 2), 0, -1), Mat2(F(2, 2), F(1, 2), 0, -1)
        assert left is not right and left == right and hash(left) == hash(right)
        assert len({left, right}) == 1
        assert Mat2(1, 0, 0, 1) != Mat2(1, 0, 0, -1)

    def test_repr_lists_the_entries(self):
        assert repr(Mat2(1, 0, F(1, 2), -1)) == (
            "Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(1, 2), "
            "d=Fraction(-1, 1))")
        # sorted_elements orders by that repr
        group = named_group("g1minus")
        assert group.sorted_elements() == sorted(group.elements, key=repr)


class TestFamilySpec:
    def test_compares_and_hashes_by_identity(self):
        fam = family("type1")
        twin = FamilySpec(fam.name, fam.q, fam.c, fam.even_gen, fam.odd_gen, fam.parity)
        assert twin != fam and twin == twin
        assert hash(fam) == object.__hash__(fam)

    def test_is_a_cache_key_by_identity(self):
        fam = family("type1")
        twin = FamilySpec(fam.name, fam.q, fam.c, fam.even_gen, fam.odd_gen, fam.parity)
        assert _gen_power(twin, "even", 3) == _gen_power(fam, "even", 3)
        assert _gen_power(twin, "even", 3) is not _gen_power(fam, "even", 3)


class TestZetaPoly:
    def test_equal_polys_hash_equal(self):
        bare, full = ZetaPoly((1, -2, 2), 2), ZetaPoly((1, -2, 2), 2, n=4, d=2)
        assert bare == full and hash(bare) == hash(full)
        assert len({bare, full}) == 1
        assert ZetaPoly((1, -2, 2, 0), 2) == bare  # trailing zeros are trimmed
        assert ZetaPoly((1, -2, 2), 3) != bare
        # one zero poly, however it is given
        empty, zero = ZetaPoly([], 2), ZetaPoly([0], 2)
        assert empty == zero and hash(empty) == hash(zero)
        assert empty.to_json() == zero.to_json() and empty.degree == -1

    @pytest.mark.parametrize("q", [0, -2, 1])
    def test_bad_q_rejected_at_construction(self, q):
        with pytest.raises(ValueError, match=r"^q must be positive and != 1$"):
            ZetaPoly((1, -2, 2), q)

    @staticmethod
    def assert_same(built, extracted):
        assert built == extracted and hash(built) == hash(extracted)
        for read in (lambda p: p.coeffs, str, lambda p: p.to_latex(),
                     lambda p: p.to_json(), lambda p: p.sign):
            assert read(built) == read(extracted)
        assert all(type(c) is Fraction for c in built.coeffs)
        for p in (built, extracted):
            for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert twin == p and twin.to_json() == p.to_json()

    @given(st.lists(st.fractions(-50, 50, max_denominator=30), min_size=1, max_size=7),
           st.sampled_from([F(2), F(4), F(4, 3)]))
    def test_constructor_and_extraction_store_alike(self, coeffs, q):
        # _extract builds P from each route's (nums, den) in lowest terms; a
        # stub route returns P unreduced, over a negative denominator
        den = lcm(*[c.denominator for c in coeffs])
        nums = [int(c * den) * -6 for c in coeffs]
        w = HomPoly(2, [1, 0, q - 1])  # n = d = 2
        extracted = zeta_mod._extract(w, q, (lambda *args: (nums, -6 * den),))
        self.assert_same(ZetaPoly(coeffs, q, 2, 2), extracted)

    @pytest.mark.parametrize("fam_name,n", [("type1", 24), ("type4", 21),
                                            ("q43", 24), ("q43-odd", 18)])
    def test_constructor_matches_zeta_checked(self, fam_name, n):
        fam = family(fam_name)
        p = zeta_checked(extremal(fam, n), fam.q)
        self.assert_same(ZetaPoly(p.coeffs, p.q, p.n, p.d), p)

    def test_sign_is_computed_from_n_and_d_only(self):
        assert ZetaPoly((1, -2, 2), 2).sign is None
        assert ZetaPoly((1, -2, 2), 2, 4, 2).sign == 1
        assert ZetaPoly((1, -2, 2), 2, 4, 2, -1).sign == -1


class TestRationalFunctionSeries:
    def test_equal_by_cross_multiplication(self):
        # (1 + l) / (1 - l^2) is 1 / (1 - l)
        series = RationalFunctionSeries([1, 1], [1, 0, -1])
        assert series == RationalFunctionSeries([1], [1, -1])
        assert RationalFunctionSeries([1], [1, -1]) != RationalFunctionSeries([1], [1, 1])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(RationalFunctionSeries([1], [1, -1]))

    @pytest.mark.parametrize("terms", [0, -1])
    def test_series_needs_a_term(self, terms):
        with pytest.raises(ValueError, match="terms must be >= 1"):
            RationalFunctionSeries([1], [1, -1]).series(terms)

    def test_series_needs_a_nonzero_constant_term(self):
        with pytest.raises(ZeroDivisionError, match=r"den\(0\) != 0"):
            RationalFunctionSeries([1], [0, 1]).series(3)


def test_constructor_signatures():
    fam = family("type1")
    spec = FamilySpec("spec", fam.q, fam.c, fam.even_gen, fam.odd_gen, 1, has_star=True)
    assert (spec.has_star, spec.bound_proven_on_class_only, spec.group,
            spec.divisor_base, spec.diff_operator) == (True, False, None, None, None)
    m = Mat2.identity()
    group = MatrixGroup(elements=frozenset({m}), generators=(m,))
    assert group.order == 1 and m in group
    assert (Bound(4, True).d_max, Bound(d_max=4, proven=False).proven) == (4, False)
    profile = WeightProfile(d=2, d_perp=3, divisibility=1)
    assert (profile.d, profile.d_perp, profile.divisibility) == (2, 3, 1)
    report = RHReport((), 0.5, 0.0, 0.0, True, 1e-9, 128)
    assert (report.passed, report.precision_bits) == (True, 128)
    result = DuursmaOkudaResult(True, "", 1, 2, 3, True)
    assert (result.c3, result.part1_ok, result.part3_ok) == (3, True, False)


class Pair(Record):
    __slots__ = ("left", "right", "note")
    _defaults = {"note": "none"}


class TestRecord:
    @pytest.mark.parametrize("args,kwargs,message", [
        ((1, 2, 3, 4), {}, "Pair takes 3 fields"),
        ((1, 2), {"colour": 3}, "Pair has no field 'colour'"),
        ((1, 2), {"left": 3}, "Pair got field 'left' twice"),
        ((1,), {}, "Pair is missing field 'right'"),
        ((), {"left": 1, "note": 2}, "Pair is missing field 'right'"),
    ])
    def test_bad_call_shapes_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)

    def test_defaults_fill_only_the_fields_left_out(self):
        pair = Pair(1, 2)
        assert (pair.left, pair.right, pair.note) == (1, 2, "none")
        pair = Pair(right=2, left=1, note="given")
        assert (pair.left, pair.right, pair.note) == (1, 2, "given")
        assert Pair(1, 2, None).note is None
        assert Pair(1, right=2).note == "none"
        with pytest.raises(TypeError, match="'left'"):
            Pair(right=2)

    def test_immutable_and_compared_by_identity(self):
        pair = Pair(1, 2)
        with pytest.raises(AttributeError, match="Pair is immutable"):
            pair.left = 3
        assert pair != Pair(1, 2) and pair == pair
        assert hash(pair) == object.__hash__(pair)


def _package_classes():
    for info in pkgutil.iter_modules(fwenum.__path__):
        module = importlib.import_module(f"fwenum.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_slotted_class_is_a_record():
    classes = list(_package_classes())
    assert Record in classes
    for cls in classes:
        if cls is Record:
            continue
        if issubclass(cls, Record) or "__slots__" in vars(cls):
            assert issubclass(cls, Record) and "__slots__" in vars(cls), cls.__name__
        assert "__setattr__" not in vars(cls), cls.__name__


# one instance of every record class
INSTANCES = {name: make for name, (make, _) in FROZEN.items()} | {
    "HomPoly": lambda: parse_poly("x^3 - 1/2*x*y^2"),
    "QuadElem": lambda: QuadElem(F(1, 2), -3, 5),
    "RationalFunctionSeries": lambda: RationalFunctionSeries([F(1, 2), 3], [1, F(-2, 3)]),
}


def _value(x):
    """x with every record that compares by identity replaced by its class and
    the values of its fields, recursively."""
    if isinstance(x, Record) and type(x).__eq__ is object.__eq__:
        return type(x), tuple(_value(getattr(x, field)) for field in type(x).__slots__)
    if isinstance(x, (tuple, list)):
        return type(x)(_value(v) for v in x)
    return x


def test_instances_cover_every_record_class():
    records = {cls.__name__ for cls in _package_classes()
               if issubclass(cls, Record) and cls is not Record}
    assert set(INSTANCES) == records and HomPoly.__name__ in records


@pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())
def test_copy_deepcopy_and_pickle_give_equal_records(make):
    record = make()
    pickled = [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(record), copy.deepcopy(record), *pickled):
        assert type(twin) is type(record) and twin is not record
        assert _value(twin) == _value(record)
