"""Write golden.json: the exact outputs every correct fwenum must reproduce.

    python3 perfbench/make_golden.py

Run from the repository root, at a commit whose outputs are known to be
right (the acceptance suite passes).  Records the exact fields of every
item any seed can produce; the gate compares later runs against them.
"""

from __future__ import annotations

import json
import os
import sys

import gate
import run
import workloads


def main() -> int:
    run.compile_bytecode()
    items = workloads.every_golden_item()
    result = run.run_pass([i["argv"] for i in items])
    records = {}
    for item, out in zip(items, result["outputs"]):
        if out["error"] or out["code"] != 0:
            print(f"error: {item['id']}: {out['error'] or out['code']}", file=sys.stderr)
            return 1
        records[item["id"]] = gate.exact_fields(item, out["code"], out["stdout"])
    golden = {"env": result["env"], "items": records}
    with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {os.path.relpath(gate.GOLDEN_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
