"""Self-test of the correctness gate and of the span wrappers.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

* the gate rejects a scan row with rh_pass true and residual 0.11 (the
  false pass of rh_check on ZetaPoly((1, 3, 2), 2)), both as a synthetic row
  and with the figures the program computes for that polynomial today;
* the gate rejects a zeta answer with one coefficient changed;
* a traced and an untraced pass print identical outputs, and the traced pass
  records spans in every layer, including calls made through re-exported
  bindings such as fwenum.cli.extremal.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import gate
import run
from spans import LAYERS
from workloads import RH_SCAN_RANGES, scan_item

SMALL_ITEMS = [
    ["scan", "--family", "type4", "-n", "3..15", "--format", "json"],
    ["zeta", "--family", "q43", "--extremal", "-n", "24", "--format", "json"],
    ["verify", "star", "--family", "type1", "-n", "12"],
    ["verify", "zeta-binomial", "--family", "type4", "-n", "15"],
    ["verify", "th-duursma-okuda", "--samples", "5", "--seed", "3"],
    ["verify", "molien-basis", "--max-degree", "12"],
]


def false_pass_today(golden: dict) -> list[str]:
    """Gate the program's own figures for ZetaPoly((1, 3, 2), 2)."""
    sys.path.insert(0, run.SRC)
    from fwenum.zeta import RHConvergenceError, ZetaPoly, rh_check

    try:
        rh = rh_check(ZetaPoly((1, 3, 2), 2), 1e-9)
    except RHConvergenceError:
        return []  # the program refuses the polynomial: no false pass to gate
    item = scan_item(*RH_SCAN_RANGES[0])
    record = golden[item["id"]]
    rows = [dict(row, rh_deviation="0.0", rh_residual="0.0", rh_pass=True)
            for row in record["rows"]]
    rows[-1].update(rh_deviation=repr(rh.max_abs_deviation),
                    rh_residual=repr(rh.max_residual), rh_pass=rh.passed)
    report = {k: record[k] for k in ("family", "hard_failures", "conjecture_failures")}
    out = {"code": 0, "stdout": json.dumps(dict(report, rows=rows)), "error": None}
    if gate.check(item, out, golden):
        return []
    return [f"gate accepted rh_check's figures for (1, 3, 2): {rh.max_abs_deviation!r}, "
            f"residual {rh.max_residual!r}"]


def traced_equals_untraced() -> list[str]:
    run.compile_bytecode()
    plain = run.run_pass(SMALL_ITEMS)
    traced = run.run_pass(SMALL_ITEMS, traced=True)
    failures = []
    for argv, a, b in zip(SMALL_ITEMS, plain["outputs"], traced["outputs"]):
        if (a["code"], a["stdout"], a["error"]) != (b["code"], b["stdout"], b["error"]):
            failures.append(f"traced output differs: {' '.join(argv)}")
    layers = traced["layers"]
    for layer in LAYERS:
        if not any(k.startswith(layer + ".") and k.endswith(".calls") and v
                   for k, v in layers.items()):
            failures.append(f"no spans recorded in layer {layer}")
    if not layers.get("families.extremal.calls"):
        failures.append("calls through fwenum.cli.extremal were not traced")
    return failures


def main() -> int:
    golden = gate.load_golden()
    failures = gate.self_test(golden) + false_pass_today(golden) + traced_equals_untraced()
    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
