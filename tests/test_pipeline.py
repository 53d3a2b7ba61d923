"""Every row shape of the per-degree scan, with its counts and renderings.

Each case replaces one step of `fwenum.pipeline` to force a failure at that
step, and checks the row's fields, the report's two counts, the nulls of the
JSON report and the dashes of the text report.
"""

import json

import pytest

from fwenum import pipeline
from fwenum.cli import main
from fwenum.families import ExtremalConstructionError, bound, extremal, family
from fwenum.pipeline import scan_family
from fwenum.zeta import RHConvergenceError, RHReport, ZetaPoly, rh_check, zeta_checked


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


def _zeta_with_sign(sign):
    def zeta(w, q):
        p = zeta_checked(w, q)
        return ZetaPoly(p.coeffs, p.q, p.n, p.d, sign)
    return zeta


def _raised_degree_zeta(w, q):
    p = zeta_checked(w, q)
    return ZetaPoly(p.coeffs + (1,), p.q, p.n, p.d, p.sign)


def _failed_rh(p, tolerance, precision_bits):
    r = rh_check(p, tolerance, precision_bits)
    return RHReport(r.roots, r.target_modulus, r.max_abs_deviation, r.max_residual,
                    False, r.tolerance, r.precision_bits)


# (id, family, n, replaced step, replacement, status, hard, the fields the row
# knows: "d", "zeta" for deg_p and fe_sign, "rh" for the three RH fields)
CASES = [
    ("ok", "type1", 8, None, None, "ok", False, {"d", "zeta", "rh"}),
    ("extremal-proven", "type1", 8, "extremal",
     _raise(ExtremalConstructionError("kernel has dimension 2")),
     "extremal: kernel has dimension 2", True, set()),
    ("extremal-conjectural", "q43-odd", 26, "extremal",
     _raise(ExtremalConstructionError("kernel has dimension 2")),
     "extremal: kernel has dimension 2", False, set()),
    ("zeta-value-error", "type4", 9, "zeta_checked",
     _raise(ValueError("zeta extraction needs d, d_perp >= 2")),
     "zeta: zeta extraction needs d, d_perp >= 2", True, {"d"}),
    ("zeta-disagreement", "q43", 12, "zeta_checked", _raise(AssertionError()),
     "zeta method disagreement", True, {"d"}),
    ("sign-mismatch", "type1", 16, "zeta_checked", _zeta_with_sign(1),
     "functional-equation sign 1 != -1", True, {"d", "zeta"}),
    ("degree-mismatch", "type4", 9, "zeta_checked", _raised_degree_zeta,
     "deg P = 4 != 2g = 3", True, {"d", "zeta"}),
    ("rh-not-converged", "ozeki", 12, "rh_check",
     _raise(RHConvergenceError("root set did not stabilise")),
     "rh: root set did not stabilise", True, {"d", "zeta"}),
    ("rh-fails", "q43-odd", 26, "rh_check", _failed_rh,
     "rh deviation exceeds tolerance", False, {"d", "zeta", "rh"}),
]


@pytest.mark.parametrize("fam_name,n,step,replacement,status,hard,known",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_row_shape(monkeypatch, fam_name, n, step, replacement, status, hard, known):
    fam = family(fam_name)
    b = bound(fam, n)
    if "zeta" in known:
        zeta = replacement if step == "zeta_checked" else zeta_checked
        p = zeta(extremal(fam, n), fam.q)
    if step is not None:
        monkeypatch.setattr(pipeline, step, replacement)
    rep = scan_family(fam, n, n, 1e-9, 128)
    (row,) = rep.rows

    assert (row.n, row.bound_proven, row.status, row.hard) == (n, b.proven, status, hard)
    assert row.d == (b.d_max if "d" in known else None)
    assert (row.deg_p, row.fe_sign) == ((p.degree, p.sign) if "zeta" in known
                                        else (None, None))
    if "rh" in known:
        assert row.rh_pass is (status == "ok")
        assert row.rh_deviation is not None and row.rh_residual is not None
    else:
        assert (row.rh_deviation, row.rh_residual, row.rh_pass) == (None, None, None)
    assert rep.hard_failures == int(hard)
    assert rep.conjecture_failures == int(not hard and status != "ok")

    obj = json.loads(rep.to_json())
    assert (obj["hard_failures"], obj["conjecture_failures"]) == (
        rep.hard_failures, rep.conjecture_failures)
    (jrow,) = obj["rows"]
    assert jrow == {
        "n": n, "d": row.d, "bound_proven": b.proven, "deg_p": row.deg_p,
        "fe_sign": row.fe_sign, "rh_pass": row.rh_pass, "status": status, "hard": hard,
        "rh_deviation": None if row.rh_deviation is None else repr(row.rh_deviation),
        "rh_residual": None if row.rh_residual is None else repr(row.rh_residual),
    }

    lines = rep.to_text().splitlines()
    assert lines[-1] == (f"hard_failures={rep.hard_failures} "
                         f"conjecture_failures={rep.conjecture_failures}")
    n_text, d_text, degp_text, sign_text, dev_text, note = lines[2].split(None, 5)
    assert n_text == str(n)
    assert d_text == ("-" if row.d is None else str(row.d))
    assert degp_text == ("-" if row.deg_p is None else str(row.deg_p))
    assert sign_text == ("-" if row.fe_sign is None else f"{row.fe_sign:+d}")
    assert dev_text == ("-" if row.rh_deviation is None else repr(row.rh_deviation))
    assert note == status + ("" if b.proven else " [conjectural bound]")


def test_rows_skip_degrees_without_members():
    rep = scan_family(family("type1"), -3, 9, 1e-9, 128)
    assert [r.n for r in rep.rows] == [4, 6, 8]


@pytest.mark.parametrize("strict", [False, True])
def test_scan_exit_codes(capsys, monkeypatch, strict):
    argv = ["scan", "--family", "type1", "-n", "8..12"] + (["--strict"] if strict else [])
    assert main(argv) == 0

    monkeypatch.setattr(pipeline, "rh_check", _failed_rh)
    # a failed conjecture exits nonzero only under --strict
    assert main(argv) == (1 if strict else 0)

    monkeypatch.setattr(pipeline, "extremal",
                        _raise(ExtremalConstructionError("kernel has dimension 2")))
    # a failed proven statement always exits nonzero
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.endswith("hard_failures=3 conjecture_failures=0\n")
