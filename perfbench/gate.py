"""Correctness gate: every item's output is checked before its time counts.

Three kinds of check, so that a fast wrong answer is an error:

* exact fields equal the golden record in golden.json, string for string:
  zeta coefficients; n, d, deg_p, fe_sign and status of every scan row;
  exit codes and verdict lines of the verifiers;
* facts recomputed here, independently of fwenum: d equals the family's
  bound formula, deg P = n + 2 - 2d, and the functional-equation sign equals
  the family sign;
* floating-point RH figures are checked against bounds, not digits: a row
  passes only with deviation < 1e-9 and residual < 1e-20 (acceptance
  criterion 8), never on `rh_pass` alone.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from workloads import EXACT_BANDS, RH_SCAN_RANGES, scan_item, zeta_item

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

RH_DEVIATION_MAX = 1e-9
RH_RESIDUAL_MAX = 1e-20
SCAN_EXACT_FIELDS = ("n", "d", "deg_p", "fe_sign", "status", "bound_proven", "hard")
FAMILY_SIGN = {"type1": -1, "type4": -1, "q43": 1, "q43-odd": -1}


def family_bound(fam: str, n: int) -> int:
    """The largest minimum weight d of a degree-n member (the paper's bounds)."""
    return {
        "type1": 2 * ((n - 4) // 8) + 2,
        "type4": 2 * ((n - 3) // 6) + 2,
        "q43": 2 * (n // 12) + 2,
        "q43-odd": 2 * ((n - 6) // 12) + 2,
    }[fam]


def exact_fields(item: dict, code, stdout: str) -> dict:
    """The part of an output that must match the golden record exactly."""
    if item["kind"] == "scan":
        report = json.loads(stdout)
        return {
            "code": code,
            "family": report["family"],
            "hard_failures": report["hard_failures"],
            "conjecture_failures": report["conjecture_failures"],
            "rows": [{k: row[k] for k in SCAN_EXACT_FIELDS} for row in report["rows"]],
        }
    if item["kind"] == "zeta":
        payload = json.loads(stdout)
        return {"code": code, "input": payload["input"],
                "methods_agree": payload["methods_agree"], "zeta": payload["zeta"]}
    if item["kind"] == "verify":
        return {"code": code, "stdout": stdout}
    raise ValueError(f"item kind {item['kind']!r} has no golden record")


def _check_scan(item: dict, stdout: str) -> list[str]:
    problems = []
    fam = item["family"]
    for row in json.loads(stdout)["rows"]:
        n, d = row["n"], row["d"]
        where = f"{fam} n={n}"
        if d != family_bound(fam, n):
            problems.append(f"{where}: d = {d}, bound is {family_bound(fam, n)}")
        elif row["deg_p"] != n + 2 - 2 * d:
            problems.append(f"{where}: deg P = {row['deg_p']} != {n + 2 - 2 * d}")
        if row["fe_sign"] != FAMILY_SIGN[fam]:
            problems.append(f"{where}: sign {row['fe_sign']} != {FAMILY_SIGN[fam]}")
        try:
            deviation = float(row["rh_deviation"])
            residual = float(row["rh_residual"])
        except (TypeError, ValueError):
            problems.append(f"{where}: no RH figures ({row['status']})")
            continue
        if not (row["rh_pass"] is True and row["status"] == "ok"
                and deviation < RH_DEVIATION_MAX and residual < RH_RESIDUAL_MAX):
            problems.append(f"{where}: RH row not proven: pass={row['rh_pass']} "
                            f"deviation={deviation!r} residual={residual!r}")
    return problems


def _check_zeta(item: dict, stdout: str) -> list[str]:
    zeta = json.loads(stdout)["zeta"]
    fam, n = item["family"], item["n"]
    d = family_bound(fam, n)
    problems = []
    if (zeta["n"], zeta["d"]) != (n, d):
        problems.append(f"(n, d) = ({zeta['n']}, {zeta['d']}), expected ({n}, {d})")
    coeffs = [Fraction(c) for c in zeta["coeffs"]]
    if len(coeffs) - 1 != n + 2 - 2 * d or not coeffs[-1]:
        problems.append(f"deg P = {len(coeffs) - 1} != {n + 2 - 2 * d}")
    if zeta["sign"] != FAMILY_SIGN[fam]:
        problems.append(f"sign {zeta['sign']} != {FAMILY_SIGN[fam]}")
    return problems


_SUITE_LINE = re.compile(r"^(?:part \((?:i|ii|iii)\): )?(\d+)/(\d+) pass$")


def _check_suite(item: dict, code, stdout: str) -> list[str]:
    """Randomized suites depend on the seed; every instance must pass."""
    lines = stdout.splitlines()
    expected_lines = 3 if item["theorem"] == "th-duursma-okuda" else 1
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(lines) != expected_lines:
        return problems + [f"{len(lines)} verdict lines, expected {expected_lines}"]
    for line in lines:
        m = _SUITE_LINE.match(line)
        if not m or m.group(1) != m.group(2) or int(m.group(2)) < 1:
            problems.append(f"verdict {line!r}")
    if item["theorem"] == "lemma-duursma" and lines[0] != (
            f"{item['samples']}/{item['samples']} pass"):
        problems.append(f"verdict {lines[0]!r} does not cover {item['samples']} samples")
    return problems


def check(item: dict, output: dict, golden: dict) -> list[str]:
    """Problems with one item's output; an empty list means correct."""
    if output["error"]:
        return [output["error"]]
    code, stdout = output["code"], output["stdout"]
    try:
        if item["kind"] == "suite":
            return _check_suite(item, code, stdout)
        problems = []
        if exact_fields(item, code, stdout) != golden[item["id"]]:
            problems.append("exact fields differ from the golden record")
        if item["kind"] == "scan":
            problems += _check_scan(item, stdout)
        elif item["kind"] == "zeta":
            problems += _check_zeta(item, stdout)
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["items"]


def self_test(golden: dict) -> list[str]:
    """Feed the gate answers it must accept and answers it must reject.

    Returns the gate's own failures; an empty list means it works.
    """
    failures = []

    def expect(label, item, stdout, ok):
        problems = check(item, {"code": 0, "stdout": stdout, "error": None}, golden)
        if bool(problems) == ok:
            failures.append(f"{label}: gate said {problems or 'correct'}")

    scan = scan_item(*RH_SCAN_RANGES[0])
    record = golden[scan["id"]]
    rows = [dict(row, rh_deviation="1e-30", rh_residual="1e-40", rh_pass=True)
            for row in record["rows"]]
    report = {k: record[k] for k in ("family", "hard_failures", "conjecture_failures")}
    expect("correct scan", scan, json.dumps(dict(report, rows=rows)), ok=True)
    # the false pass of rh_check on ZetaPoly((1, 3, 2), 2): pass, residual 0.11
    rows[-1] = dict(rows[-1], rh_residual="0.11")
    expect("false RH pass", scan, json.dumps(dict(report, rows=rows)), ok=False)

    fam = next(iter(EXACT_BANDS))
    zeta = zeta_item(fam, EXACT_BANDS[fam][0])
    record = golden[zeta["id"]]
    payload = {"input": record["input"], "methods_agree": True, "zeta": record["zeta"]}
    expect("correct zeta", zeta, json.dumps(payload), ok=True)
    coeffs = list(record["zeta"]["coeffs"])
    coeffs[1] = str(Fraction(coeffs[1]) + 1)
    payload["zeta"] = dict(record["zeta"], coeffs=coeffs)
    expect("changed zeta coefficient", zeta, json.dumps(payload), ok=False)
    return failures
