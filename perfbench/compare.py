"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py --base .perfbench/results/A*.json \\
                                 --new  other/.perfbench/results/B*.json

Each side is one or more result files written by run.py for the same
workload and trace setting (one file per seed).  Prints, per metric, the
median and quartiles of each side and the change of the medians.  Refuses to
compare files whose mpmath backend differs: the pure-Python and gmpy2
backends change the cost of the RH step severalfold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    every = base + new

    for key in ("mpmath_backend", "python", "mpmath"):
        seen = sorted({r["env"][key] for r in every})
        if len(seen) > 1:
            if key == "mpmath_backend":
                print(f"error: mpmath backends differ ({', '.join(seen)}); "
                      "the results are not comparable", file=sys.stderr)
                return 2
            print(f"warning: {key} versions differ: {', '.join(seen)}", file=sys.stderr)
    for key in ("workload", "trace"):
        seen = {r[key] for r in every}
        if len(seen) > 1:
            print(f"error: files mix {key} values {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2

    print(f"{every[0]['workload']} trace={int(every[0]['trace'])}: "
          f"{len(base)} base files, {len(new)} new files")
    print(f"{'metric':44} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32} change")
    for name, spec in base[0]["metrics"].items():
        sides = []
        for records in (base, new):
            values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
            sides.append(quartiles(values) if values else None)
        if None in sides:
            continue
        (b1, b2, b3), (n1, n2, n3) = sides
        change = f"{(n2 - b2) / b2:+.1%}" if b2 else "-"
        print(f"{name:44} {b2:12.5g} [{b1:.5g}, {b3:.5g}] "
              f"{n2:12.5g} [{n1:.5g}, {n3:.5g}] {change} {spec['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
