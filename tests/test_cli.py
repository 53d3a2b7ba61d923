import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fwenum
from fwenum import cli, matgroup
from fwenum.cli import main
from fwenum.pipeline import scan_family
from fwenum.families import FAMILIES, extremal, family
from fwenum.homopoly import parse_poly
from fwenum.zeta import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_extremal_roundtrip(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "type1", "--extremal", "-n", "12")
        assert code == 0
        assert parse_poly(out.strip()) == extremal(family("type1"), 12)

    def test_named_generator(self, capsys):
        code, out, _ = run(capsys, "gen", "--name", "phi6")
        assert code == 0
        assert out.strip() == "x^6 - 5*x^4*y^2 + 5/3*x^2*y^4 - 1/27*y^6"

    def test_w2_with_parameter(self, capsys):
        code, out, _ = run(capsys, "gen", "--name", "w2", "-q", "4/3")
        assert code == 0 and out.strip() == "x^2 + 1/3*y^2"

    def test_basis_listing(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "type4", "--basis", "-n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("l=1 m=1:")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "q43", "--extremal",
                           "-n", "12", "--format", "json")
        obj = json.loads(out)
        assert obj["degree"] == 12 and obj["coeffs"][4] == "55/9"

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "gen", "--name", "w12", "--format", "latex")
        assert "x^{12} - 33x^{8}y^{4}" in out

    def test_empty_basis_errors(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "type4", "--basis", "-n", "6")
        assert (code, err) == (2, "error: family type4 has no members of degree 6\n")


class TestZetaCommand:
    def test_family_extremal_with_rh(self, capsys):
        code, out, _ = run(capsys, "zeta", "--family", "q43", "--extremal",
                           "-n", "12", "--rh")
        assert code == 0
        assert "genus = 3" in out and "sign = 1" in out
        assert "methods agree" in out and "rh: pass = True" in out

    def test_poly_input(self, capsys):
        code, out, _ = run(capsys, "zeta", "--poly", "x^2+1/3*y^2", "-q", "4/3")
        assert code == 0 and out.startswith("P(T) = 1")

    def test_degree_fourteen_genus(self, capsys):
        code, out, _ = run(capsys, "zeta", "--family", "type1", "--extremal",
                           "-n", "14")
        assert code == 0 and "genus = 4" in out and "deg = 8" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "zeta", "--family", "type1", "--extremal",
                           "-n", "12", "--rh", "--format", "json")
        obj = json.loads(out)
        assert obj["methods_agree"] is True
        assert obj["zeta"]["sign"] == -1
        assert obj["rh"]["pass"] is True

    def test_latex_payload(self, capsys):
        code, out, _ = run(capsys, "zeta", "--family", "q43", "--extremal",
                           "-n", "12", "--format", "latex")
        assert code == 0 and out.startswith("P(T) = \\frac{64}{729}T^{6}")

    def test_latex_rh_verdict(self, capsys):
        code, out, _ = run(capsys, "zeta", "--family", "q43", "-n", "12", "--rh",
                           "--format", "latex")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[0].startswith("P(T) = \\frac{64}{729}T^{6}")
        assert lines[1].startswith("rh: pass = True  max modulus deviation = ")
        assert lines[1].endswith("precision = 256 bits")

    def test_constant_zeta_rh_passes(self, capsys):
        # deg P = 0: no roots, the same vacuous pass as a scan row
        code, out, err = run(capsys, "zeta", "--poly", "x^2+1/3*y^2", "-q", "4/3",
                             "--rh", "--format", "json")
        assert code == 0 and err == ""
        rh = json.loads(out)["rh"]
        assert rh["pass"] is True and rh["roots"] == []
        assert rh["max_abs_deviation"] == rh["max_residual"] == "0.0"

    def test_rh_convergence_error_reported(self, capsys, monkeypatch):
        def refuse(*args):
            raise cli.RHConvergenceError("root set did not stabilise")

        monkeypatch.setattr(cli, "rh_check", refuse)
        code, out, err = run(capsys, "zeta", "--family", "type1", "--extremal",
                             "-n", "8", "--rh")
        assert code == 1 and out == ""
        assert err == "error: rh: root set did not stabilise\n"


@pytest.mark.parametrize("argv,message", [
    (["--poly", "x^4 + y", "-q", "2"], "terms of mixed total degree [1, 4]"),
    (["--poly", "2*x^4 + y^4", "-q", "2"], "enumerator must be monic in x^n"),
    (["--poly", "x^4 + x^3*y", "-q", "2"],
     "zeta extraction needs d, d_perp >= 2; got d = 1, d_perp = 1"),
    (["--poly", "x^4 + 2*y^4", "-q", "2"],
     "zeta extraction needs d, d_perp >= 2; got d = 4, d_perp = 1"),
    (["--poly", "x^2 + x*y + y^2", "-q", "2"],
     "zeta extraction needs d, d_perp >= 2; got d = 1, d_perp = 2"),
    # (x + y)^2 maps to 4x^2 at q = 2: d_perp is undefined
    (["--poly", "x^2 + 2*x*y + y^2", "-q", "2"], "polynomial has no positive-weight term"),
    (["--family", "type1", "-n", "7"], "family type1 has no members of degree 7"),
], ids=["mixed-degree", "not-monic", "d-is-1", "d-perp-is-1", "d-is-1-d-perp-is-2",
        "image-is-a-power-of-x", "no-members"])
def test_zeta_bad_input_reported(capsys, argv, message):
    code, out, err = run(capsys, "zeta", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["zeta", "--family", "type1", "-n", "8", "--rh"],
    ["scan", "--family", "type1", "-n", "8"],
])
@pytest.mark.parametrize("bits", ["0", "-8", "52", "4097", "10000", "abc", "1e3"])
def test_precision_bits_validated(capsys, command, bits):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--precision-bits", bits])
    assert exc.value.code == 2
    assert "argument --precision-bits" in capsys.readouterr().err


def test_precision_bits_accepted(capsys):
    # the certified path works at twice the requested bits
    code, out, err = run(capsys, "zeta", "--family", "type1", "-n", "12", "--rh",
                         "--precision-bits", "64")
    assert (code, err) == (0, "")
    assert out.endswith("rh: pass = True  max modulus deviation = 0.0  residual <= "
                        "1.4693679385278594e-39  precision = 128 bits\n")


@pytest.mark.parametrize("argv,message", [
    (["gen", "--family", "type1", "--basis", "-n", "0"], "degree must be >= 1"),
    (["gen", "--family", "type1", "--extremal", "-n", "7"],
     "family type1 has no members of degree 7"),
    (["gen", "--name", "w2"], "generator 'w2' needs the parameter q"),
    (["verify", "star", "--family", "type1", "-n", "13"],
     "family type1 has no members of degree 13"),
    (["verify", "divisibility", "--family", "q43", "-n", "12"],
     "the divisibility statement covers type1 and type4 only"),
    (["molien", "--group", "g43", "--terms", "0"], "terms must be >= 1"),
    (["gen", "--family", "type1", "--basis"], "gen --basis needs -n"),
    (["gen", "--family", "type1", "--extremal"], "gen --extremal needs -n"),
    (["gen", "--family", "type1"], "gen needs --name, --extremal or --basis"),
    (["zeta", "--poly", "x^2+y^2"], "zeta --poly needs -q"),
    (["zeta", "--family", "type1", "--extremal"], "zeta --family needs -n"),
    (["verify", "star", "--family", "type1"], "verify star needs -n"),
    (["verify", "zeta-binomial", "--family", "type4"], "verify zeta-binomial needs -n"),
    (["verify", "th-duursma-okuda", "--samples", "0"], "samples must be >= 1, got 0"),
    (["verify", "lemma-duursma", "--samples", "0"], "samples must be >= 1, got 0"),
    (["verify", "lemma-duursma", "--samples", "-5"], "samples must be >= 1, got -5"),
    (["verify", "molien-basis", "--max-degree", "-1"], "max_degree must be >= 0, got -1"),
    (["verify", "star-q43-odd", "--max-k", "0"], "max_k must be >= 1, got 0"),
    (["verify", "star-q43-odd", "--max-k", "-1"], "max_k must be >= 1, got -1"),
    (["gen", "--name", "w2", "-q", "-3"], "q must be positive and != 1"),
    (["gen", "--name", "w2", "-q", "1"], "q must be positive and != 1"),
    (["gen", "--name", "w2", "-q", "0"], "q must be positive and != 1"),
    (["scan", "--family", "type1", "-n", "0..4"], "degree must be >= 1"),
    (["scan", "--family", "type1", "-n=-3..4"], "degree must be >= 1"),
], ids=["basis-degree-0", "extremal-no-members", "w2-without-q", "star-no-members",
        "divisibility-wrong-family", "molien-no-terms", "gen-basis-without-n",
        "gen-extremal-without-n", "gen-without-mode", "zeta-poly-without-q",
        "zeta-family-without-n", "verify-star-without-n",
        "verify-zeta-binomial-without-n", "okuda-no-samples", "lemma-no-samples",
        "lemma-negative-samples", "molien-basis-negative-degree", "star-scan-k-0",
        "star-scan-k-negative", "w2-negative-q", "w2-q-1", "w2-q-0", "scan-from-degree-0",
        "scan-from-negative-degree"])
def test_bad_input_reported_without_traceback(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["zeta", "--poly", "x^4 + x^2*y^2 + y^4", "-q", "2", "--rh"],
    ["scan", "--family", "type1", "-n", "8"],
])
@pytest.mark.parametrize("tolerance", ["inf", "0", "-0.5", "nan", "abc"])
def test_tolerance_validated(capsys, command, tolerance):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tolerance", tolerance])
    assert exc.value.code == 2
    assert "argument --tolerance" in capsys.readouterr().err


def test_reversed_degree_range_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "type1", "-n", "30..10"])
    assert exc.value.code == 2
    assert "empty degree range '30..10'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["4..x", "4..", "x"])
def test_malformed_degree_range_rejected(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "type1", "-n", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument -n: not a degree range: {text!r} "
                        "(expected N or MIN..MAX)\n")
    assert "_degree_range" not in err and "Traceback" not in err


class TestScan:
    def test_small_scan_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "scan", "--family", "type1", "-n", "8..20",
                             "--format", "json")
        code2, out2, _ = run(capsys, "scan", "--family", "type1", "-n", "8..20",
                             "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports
        obj = json.loads(out1)
        assert obj["hard_failures"] == 0
        assert all(r["rh_pass"] for r in obj["rows"])

    def test_ozeki_row(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "ozeki", "-n", "12..12")
        assert code == 0
        assert " 12 " in out and " 4 " in out.replace("   ", " ")

    def test_conjectural_bound_note(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "q43-odd", "-n", "26..28")
        assert code == 0 and "[conjectural bound]" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "scan", "--family", "type4", "-n", "3..9",
                           "--format", "json", "--output", str(target))
        assert code == 0 and out == ""
        obj = json.loads(target.read_text())
        assert obj["family"] == "type4"

    def test_unwritable_output_reported(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "scan", "--family", "type4", "-n", "3..5",
                             "--output", str(target))
        assert code == 2 and out == "" and not target.exists()
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run(capsys, "scan", "--family", "type4", "-n", "3..5",
                          "--timing")
        assert "elapsed" in err and "elapsed" not in out

    # the stdout of `scan --format json` at one high degree per family, on the
    # certified RH path; the rh_deviation and rh_residual digits depend on
    # every truncated Newton iterate, so any change to the integers that the
    # fold, the refinement or the lift produce shows here
    @pytest.mark.parametrize("fam_name,n,digest", [
        ("type1", 150, "b781e87e09deedd5d4c605973e55689af050fa4eb571dd7496a091ebd75d56f1"),
        ("type4", 151, "789f0c43b67d0792bbe4a9b0f55a74bc33d644ea05213da6e91546950f3ad860"),
        ("q43", 150, "b1fdcb76d0db9373ce4544c8210e6becaf06c9f055a4d95b48afaeb2cbbbc631"),
        ("q43-odd", 150, "e0851771f3bbcfbba04e9d3bf55fb214006228c0f681093fd6ad7bb7e0ed03fe"),
        ("ozeki", 156, "e73b3a313d2ce552ee44ab979d170afc2e39051cfad202b9bb32bb55ec0648d7"),
    ])
    def test_pinned_high_degree_report(self, capsys, fam_name, n, digest):
        code, out, _ = run(capsys, "scan", "--family", fam_name, "-n", f"{n}..{n}",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMolien:
    def test_g43(self, capsys):
        code, out, _ = run(capsys, "molien", "--group", "g43", "--terms", "15")
        assert code == 0
        assert "order 24" in out
        assert "series: 1, 0, 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "molien", "--group", "g1minus", "--format", "json")
        obj = json.loads(out)
        assert obj["order"] == 8
        # 1/((1-l^2)(1-l^4)) expanded
        assert obj["denominator"] == ["1", "0", "-1", "0", "-1", "0", "1"]

    @pytest.mark.parametrize("group, text, json_text", [
        pytest.param("g1minus",
             "group g1minus: order 8\nmolien: (1) / (λ^6 - λ^4 - λ^2 + 1)\n"
             "series: 1, 0, 1, 0, 2, 0, 2, 0, 3\n",
             '{"denominator": ["1", "0", "-1", "0", "-1", "0", "1"], "group": "g1minus", '
             '"numerator": ["1"], "order": 8, "series": '
             '["1", "0", "1", "0", "2", "0", "2", "0", "3"]}\n', id="g1minus"),
        pytest.param("g4minus",
             "group g4minus: order 6\nmolien: (1) / (λ^5 - λ^3 - λ^2 + 1)\n"
             "series: 1, 0, 1, 1, 1, 1, 2, 1, 2\n",
             '{"denominator": ["1", "0", "-1", "-1", "0", "1"], "group": "g4minus", '
             '"numerator": ["1"], "order": 6, "series": '
             '["1", "0", "1", "1", "1", "1", "2", "1", "2"]}\n', id="g4minus"),
        pytest.param("g43minus",
             "group g43minus: order 12\nmolien: (1) / (λ^8 - λ^6 - λ^2 + 1)\n"
             "series: 1, 0, 1, 0, 1, 0, 2, 0, 2\n",
             '{"denominator": ["1", "0", "-1", "0", "0", "0", "-1", "0", "1"], '
             '"group": "g43minus", "numerator": ["1"], "order": 12, "series": '
             '["1", "0", "1", "0", "1", "0", "2", "0", "2"]}\n', id="g43minus"),
        pytest.param("g43",
             "group g43: order 24\nmolien: (1) / (λ^14 - λ^12 - λ^2 + 1)\n"
             "series: 1, 0, 1, 0, 1, 0, 1, 0, 1\n",
             '{"denominator": ["1", "0", "-1", "0", "0", "0", "0", "0", "0", "0", "0", '
             '"0", "-1", "0", "1"], "group": "g43", "numerator": ["1"], "order": 24, '
             '"series": ["1", "0", "1", "0", "1", "0", "1", "0", "1"]}\n', id="g43"),
    ])
    def test_exact_output(self, capsys, group, text, json_text):
        for fmt, expected in (("text", text), ("json", json_text)):
            code, out, _ = run(capsys, "molien", "--group", group, "--terms", "9",
                               "--format", fmt)
            assert code == 0 and out == expected


class TestVerify:
    def test_duursma_okuda_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "th-duursma-okuda", "--samples", "20")
        assert code == 0
        assert "part (i):" in out and "pass" in out

    def test_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-duursma", "--samples", "15")
        assert code == 0 and "15/15 pass" in out

    # the exact reports at the benchmark's suite size: the instance counts move
    # with any change in the suites' random draws or in which parts apply
    @pytest.mark.parametrize("seed,seen", [(1, 190), (2, 188), (3, 205)])
    def test_suite_reports_pinned(self, capsys, seed, seen):
        args = ("--samples", "150", "--seed", str(seed))
        okuda = (f"part (i): {seen}/{seen} pass\npart (ii): {seen}/{seen} pass\n"
                 "part (iii): 150/150 pass\n")
        assert run(capsys, "verify", "th-duursma-okuda", *args)[:2] == (0, okuda)
        assert run(capsys, "verify", "lemma-duursma", *args)[:2] == (0, "150/150 pass\n")

    def test_star(self, capsys):
        code, out, _ = run(capsys, "verify", "star", "--family", "q43", "-n", "12")
        assert code == 0
        assert "4*T^2 - 6*T + 3 confirmed: True" in out

    def test_divisibility(self, capsys):
        code, out, _ = run(capsys, "verify", "divisibility", "--family", "type1",
                           "-n", "20")
        assert code == 0 and "divides: True" in out

    def test_diff_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "diff-identity", "--family", "type4",
                           "-n", "11")
        assert code == 0 and "holds" in out

    def test_zeta_binomial(self, capsys):
        code, out, _ = run(capsys, "verify", "zeta-binomial", "--family", "type1",
                           "-n", "12")
        assert code == 0 and "holds" in out

    def test_molien_basis(self, capsys):
        code, out, _ = run(capsys, "verify", "molien-basis", "--max-degree", "20")
        assert code == 0 and "agree" in out

    def test_molien_basis_covers_four_family_group_pairs(self, capsys, monkeypatch):
        named_group, ring_dimension = matgroup.named_group, matgroup.ring_dimension
        groups, pairs = [], set()
        monkeypatch.setattr(matgroup, "named_group",
                            lambda name: groups.append(name) or named_group(name))
        monkeypatch.setattr(matgroup, "ring_dimension", lambda fam, n: pairs.add(
            (fam.name, groups[-1])) or ring_dimension(fam, n))
        code, out, _ = run(capsys, "verify", "molien-basis", "--max-degree", "6")
        assert code == 0 and out.endswith("in 4 groups\n")
        assert pairs == {("type1", "g1minus"), ("type4", "g4minus"),
                         ("q43-odd", "g43minus"), ("q43", "g43")}

    def test_star_conjecture_scan_reports_without_asserting(self, capsys):
        code, out, _ = run(capsys, "verify", "star-q43-odd", "--max-k", "2")
        assert code == 0
        assert out.count("k=") == 2 and "degrees 30 -> 28" in out

    def test_star_conjecture_scan_exact_output(self, capsys):
        code, out, err = run(capsys, "verify", "star-q43-odd", "--max-k", "5")
        assert (code, err) == (0, "")
        assert out == "".join(
            f"k={k} (degrees {12 * k + 6} -> {12 * k + 4}): operator image "
            f"extremal: True; zeta factor 4*T^2 - 6*T + 3: True\n"
            for k in range(1, 6))

    @pytest.mark.parametrize("fam_name,n,message", [
        # the missing degree is reported before the missing operator
        ("ozeki", 24, "family ozeki has no members of degree 24"),
        ("q43-odd", 18, "no star operator for family q43-odd"),
    ])
    def test_star_errors(self, capsys, fam_name, n, message):
        code, out, err = run(capsys, "verify", "star", "--family", fam_name, "-n", str(n))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scan_report_counts():
    rep = scan_family(family("type1"), 8, 16, 1e-9, 128)
    assert rep.hard_failures == 0 and rep.conjecture_failures == 0
    assert [r.n for r in rep.rows] == [8, 10, 12, 14, 16]
    assert all(r.rh_residual is not None for r in rep.rows)


def test_parser_built_once(capsys):
    # a rejected command and later runs share each command's parser without
    # leaking state: the options set before the rejected -n do not carry over
    with pytest.raises(SystemExit):
        main(["scan", "--format", "json", "--strict", "--family", "type1", "-n", "30..10"])
    assert run(capsys, "gen", "--name", "phi6")[0] == 0
    before = cli.command_parser.cache_info()
    assert run(capsys, "gen", "--name", "phi4")[0] == 0
    code, out, err = run(capsys, "scan", "--family", "type1", "-n", "8..8")
    after = cli.command_parser.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2
    report = scan_family(family("type1"), 8, 8, 1e-9, DEFAULT_PRECISION_BITS)
    assert (code, out, err) == (0, report.to_text() + "\n", "")


# Runs in a fresh interpreter, because this one already holds mpmath.  It
# records the `fwenum/homopoly.py` functions that run during the import, and
# after each step whether mpmath is loaded; the RH command's stdout is
# returned for comparison with the in-process run.
_IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, json, os, sys

ran = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.endswith(os.path.join("fwenum", "homopoly.py")):
        ran.add(code.co_name)

sys.setprofile(profile)
import fwenum.cli
sys.setprofile(None)

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fwenum.cli.main(list(argv))
    return code, out.getvalue()

def modules():
    return [m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]

loaded = [modules()]
for argv in (["gen", "--name", "phi4"],
             ["zeta", "--family", "type1", "-n", "12", "--format", "json"],
             ["verify", "star", "--family", "type1", "-n", "12"]):
    assert call(*argv)[0] == 0, argv
    loaded.append(modules())
code, rh_out = call("zeta", "--family", "type1", "-n", "12", "--rh", "--format", "json")
loaded.append(modules())
print(json.dumps({"loaded": loaded, "code": code, "rh_out": rh_out,
                  "import_ran": sorted(ran)}))
"""


def test_mpmath_loaded_only_on_rh_path(capsys):
    src = os.path.dirname(os.path.dirname(fwenum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    fresh = json.loads(proc.stdout)
    # import, gen, exact zeta and verify star load none of mpmath, dataclasses
    # and inspect; zeta --rh loads mpmath only
    assert fresh["loaded"] == [[], [], [], [], ["mpmath"]]
    # the import builds the family table as data: it parses polynomials but
    # computes no MacWilliams image
    assert "parse_poly" in fresh["import_ran"]
    assert "act_matrix" not in fresh["import_ran"]
    code, out, err = run(capsys, "zeta", "--family", "type1", "-n", "12", "--rh",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert fresh["code"] == 0 and fresh["rh_out"] == out


# -- one command's parser and the full tree read one grammar -------------------------
#
# `main` parses a call that names a command with that command's own parser, and
# falls back to the full tree only when the call names none or leaves arguments
# over.  Both routes must give the same Namespace, the same help and the same
# usage errors.

def tree_route(argv):
    return cli.build_parser().parse_args(argv)


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_INTS = st.integers(-20, 200).map(str)
_FAMILIES = st.sampled_from(sorted(FAMILIES))
_FORMATS = st.sampled_from(["text", "json"])
_RH_OPTIONS = {
    "--tolerance": st.sampled_from(["1e-9", "0.5", "3", "2.5e-12"]),
    "--precision-bits": st.integers(MIN_PRECISION_BITS, MAX_PRECISION_BITS).map(str),
}
# command -> {option: strategy of its value, None for a flag}
_GRAMMAR = {
    "gen": {
        "--family": _FAMILIES,
        "--name": st.sampled_from(["phi4", "w2", "w12prime", "x"]),
        "--extremal": None,
        "--basis": None,
        "-n": _INTS,
        "-q": st.fractions(0, 50, max_denominator=50).map(str),
        "--format": st.sampled_from(["text", "json", "latex"]),
    },
    "zeta": {
        **_RH_OPTIONS,
        "--family": _FAMILIES,
        "--extremal": None,
        "--poly": st.sampled_from(["x^2+1/3*y^2", "x^4 + y^4"]),
        "-n": _INTS,
        "-q": st.sampled_from(["2", "4/3", "1/2"]),
        "--rh": None,
        "--format": st.sampled_from(["text", "json", "latex"]),
    },
    "scan": {
        **_RH_OPTIONS,
        "--family": _FAMILIES,
        "-n": st.one_of(_INTS, st.tuples(st.integers(-5, 300), st.integers(0, 40)).map(
            lambda t: f"{t[0]}..{t[0] + t[1]}")),
        "--strict": None,
        "--format": _FORMATS,
        "--output": st.sampled_from(["report.txt", "out/r.json"]),
        "--timing": None,
    },
    "molien": {
        "--group": st.sampled_from(matgroup.GROUP_NAMES),
        "--terms": _INTS,
        "--format": _FORMATS,
    },
    "verify": {
        "--family": _FAMILIES,
        "-n": _INTS,
        "--samples": _INTS,
        "--seed": _INTS,
        "--max-degree": _INTS,
        "--max-k": _INTS,
    },
}
_REQUIRED = {"scan": ("--family", "-n"), "molien": ("--group",)}
_THEOREMS = ("th-duursma-okuda", "lemma-duursma", "star", "star-q43-odd",
             "divisibility", "diff-identity", "zeta-binomial", "molien-basis")


def _spellings(command, option):
    """The option itself and, for a long option, each unambiguous abbreviation."""
    if not option.startswith("--"):
        return [option]
    others = [o for o in (*_GRAMMAR[command], "--help") if o != option]
    return [option[:k] for k in range(3, len(option) + 1)
            if not any(o.startswith(option[:k]) for o in others)]


@st.composite
def command_argvs(draw, command):
    grammar = _GRAMMAR[command]
    options = list(_REQUIRED.get(command, ()))
    options += draw(st.lists(st.sampled_from(sorted(grammar)), max_size=6))
    groups = []
    for option in draw(st.permutations(options)):
        spelled = draw(st.sampled_from(_spellings(command, option)))
        if grammar[option] is None:
            groups.append([spelled])
            continue
        value = draw(grammar[option])
        forms = [[spelled, value], [f"{spelled}={value}"]]
        if not option.startswith("--"):
            forms.append([spelled + value])  # -n12
        groups.append(draw(st.sampled_from(forms)))
    if command == "verify":
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(_THEOREMS))])
    return [command] + [token for group in groups for token in group]


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
def test_grammar_table_names_every_option(command):
    # the property below draws from every option the command's parser has
    parser = cli.command_parser(command)
    options = {o for action in parser._actions for o in action.option_strings}
    assert options - {"-h", "--help"} == set(_GRAMMAR[command])


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_command_parser_matches_tree(command, data):
    argv = data.draw(command_argvs(command))
    args = cli._parse(argv)
    assert args == tree_route(argv)
    assert args.command == command


_HELP_AND_USAGE_ERRORS = [
    [],                                                   # no command
    ["bogus"],                                            # unknown command
    ["-h"],
    ["--help"],
    ["-h", "zeta"],
    ["gen", "-h"],
    ["zeta", "-h"],
    ["scan", "-h"],
    ["molien", "-h"],
    ["verify", "-h"],
    ["zeta", "--family", "type9", "-n", "12"],            # invalid choice
    ["verify", "bogus"],
    ["zeta", "--family", "type1", "-n", "12", "--bogus"],  # unrecognized argument
    ["-x", "gen", "--name", "phi4"],
    ["--version"],
    ["gen", "--name", "phi4", "extra"],                   # leftover positional
    ["scan", "--family", "type1"],                        # missing scan -n
    ["verify"],
    ["molien"],
    ["zeta", "--fam", "type1", "-n", "12"],               # abbreviations
    ["zeta", "--family", "type1", "-n", "8", "--rh", "--tol", "1e-6"],
    ["zeta", "--he"],
    ["zeta", "--f", "type1"],                             # ambiguous abbreviation
    ["gen", "--family=type1", "-n12", "--extremal"],
    ["zeta", "--family", "type1", "-n", "8", "--rh", "--precision-bits", "abc"],
    ["scan", "--family", "type1", "-n", "8", "--tolerance", "0"],
    ["scan", "--family", "type1", "-n", "30..10"],
    ["molien", "--group", "g1minus", "--terms", "x"],
    ["gen", "--name"],                                    # option without its value
    ["zeta", "--bogus", "-h"],                            # help before the leftover
]


@pytest.mark.parametrize("argv", _HELP_AND_USAGE_ERRORS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_errors_match_tree(capsys, monkeypatch, argv):
    own = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", tree_route)
    assert outcome(capsys, argv) == own


# Runs in a fresh interpreter, whose parser caches are empty: a valid call of
# each command builds that command's parser and no full tree.
_PARSER_BUILD_SCRIPT = """
import contextlib, io, json
import fwenum.cli as cli

built = [(cli.command_parser.cache_info().currsize, cli.build_parser.cache_info().currsize)]
for argv in (["gen", "--name", "phi4"],
             ["zeta", "--family", "type1", "-n", "12", "--format", "json"],
             ["scan", "--family", "type1", "-n", "8..10"],
             ["molien", "--group", "g1minus", "--terms", "5"],
             ["verify", "star", "--family", "type1", "-n", "12"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    built.append((cli.command_parser.cache_info().currsize,
                  cli.build_parser.cache_info().currsize))
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        cli.main(["-h"])
    except SystemExit as exc:
        code = exc.code
built.append((cli.command_parser.cache_info().currsize, cli.build_parser.cache_info().currsize))
print(json.dumps({"built": built, "code": code, "help": out.getvalue()}))
"""


def test_valid_calls_build_no_tree(capsys):
    src = os.path.dirname(os.path.dirname(fwenum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _PARSER_BUILD_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    fresh = json.loads(proc.stdout)
    # import builds nothing; each command adds its own parser; -h builds the tree
    assert fresh["built"] == [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [5, 1]]
    assert fresh["code"] == 0 and fresh["help"].startswith("usage: fwenum [-h]")
