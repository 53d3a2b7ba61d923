"""The benchmark's workloads: lists of `fwenum` command lines made from a seed.

Each item is a dict with the argv given to `fwenum.cli.main`, a stable `id`
(the key of its golden record) and a `kind` that tells the gate how to read
its output.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import random

# rh-scan: fixed inputs.  Contiguous scans from each acceptance range's lower
# end; the RH step (two Aberth passes per degree) dominates, as in the full
# acceptance scan.
RH_SCAN_RANGES = (("type1", 4, 28), ("type4", 3, 33), ("q43", 2, 30))

# exact-high: two neighbouring degrees at the top of each family's band; the
# seed picks one per family, so a new seed gives new inputs of the same size.
EXACT_BANDS = {
    "type1": (84, 86),
    "q43": (72, 74),
    "q43-odd": (66, 68),
    "type4": (75, 77),
}

VERIFY_SAMPLES = 150
STAR_DEGREES = {
    "type1": range(12, 45, 8),
    "type4": range(9, 40, 6),
    "q43": range(12, 37, 12),
}
IDENTITY_DEGREES = {
    "type1": range(20, 61, 8),
    "type4": range(15, 46, 6),
}
IDENTITIES = ("divisibility", "diff-identity", "zeta-binomial")

WORKLOADS = ("rh-scan", "exact-high", "verify-suite")


def scan_item(fam: str, lo: int, hi: int) -> dict:
    return {"id": f"scan {fam} {lo}..{hi}", "kind": "scan", "family": fam,
            "argv": ["scan", "--family", fam, "-n", f"{lo}..{hi}", "--format", "json"]}


def zeta_item(fam: str, n: int) -> dict:
    return {"id": f"zeta {fam} {n}", "kind": "zeta", "family": fam, "n": n,
            "argv": ["zeta", "--family", fam, "--extremal", "-n", str(n),
                     "--format", "json"]}


def verify_item(theorem: str, *args: str) -> dict:
    return {"id": " ".join(("verify", theorem) + args), "kind": "verify",
            "argv": ["verify", theorem, *args]}


def suite_item(theorem: str, seed: int) -> dict:
    return {"id": f"verify {theorem}", "kind": "suite", "theorem": theorem,
            "samples": VERIFY_SAMPLES,
            "argv": ["verify", theorem, "--samples", str(VERIFY_SAMPLES),
                     "--seed", str(seed)]}


def items(workload: str, seed: int) -> list[dict]:
    """The item list of one workload for one seed."""
    if workload == "rh-scan":
        return [scan_item(*r) for r in RH_SCAN_RANGES]
    if workload == "exact-high":
        rng = random.Random(seed)
        return [zeta_item(fam, rng.choice(band)) for fam, band in EXACT_BANDS.items()]
    if workload == "verify-suite":
        out = [suite_item("th-duursma-okuda", seed), suite_item("lemma-duursma", seed),
               verify_item("molien-basis")]
        for fam, degrees in STAR_DEGREES.items():
            out += [verify_item("star", "--family", fam, "-n", str(n)) for n in degrees]
        for theorem in IDENTITIES:
            for fam, degrees in IDENTITY_DEGREES.items():
                out += [verify_item(theorem, "--family", fam, "-n", str(n))
                        for n in degrees]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def every_golden_item() -> list[dict]:
    """Every item whose exact output is fixed, over all seeds."""
    out = [scan_item(*r) for r in RH_SCAN_RANGES]
    out += [zeta_item(fam, n) for fam, band in EXACT_BANDS.items() for n in band]
    out += [i for i in items("verify-suite", 0) if i["kind"] == "verify"]
    return out
