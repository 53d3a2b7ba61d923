"""The per-degree scan: extremal member, bound, zeta by both routes, RH.

A failure of a proven statement makes a row hard; an RH deviation, or a
failed construction where the bound is only conjectural, is a conjecture
failure.  Reports are byte-identical across runs; only `elapsed` varies.
"""

from __future__ import annotations

import json
import time

from .families import ExtremalConstructionError, basis_exponents, bound, extremal
from .record import Record
from .zeta import RHConvergenceError, rh_check, zeta_checked

__all__ = ["ScanRow", "ScanReport", "scan_degree", "scan_family"]


class ScanRow(Record):
    """One degree of a scan; a step that failed leaves the later fields None."""

    __slots__ = ("n", "d", "bound_proven", "status", "hard", "deg_p", "fe_sign",
                 "rh_deviation", "rh_residual", "rh_pass")
    _defaults = dict.fromkeys(__slots__[5:])


class ScanReport(Record):
    __slots__ = ("family", "n_min", "n_max", "tolerance", "precision_bits", "rows",
                 "elapsed")

    @property
    def hard_failures(self) -> int:
        return sum(1 for r in self.rows if r.hard)

    @property
    def conjecture_failures(self) -> int:
        return sum(1 for r in self.rows if not r.hard and r.status != "ok")

    def to_json(self) -> str:
        rows = []
        for r in self.rows:
            row = {name: getattr(r, name) for name in ScanRow.__slots__}
            for key in ("rh_deviation", "rh_residual"):
                if row[key] is not None:
                    row[key] = repr(row[key])
            rows.append(row)
        payload = {
            "family": self.family,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "tolerance": self.tolerance,
            "precision_bits": self.precision_bits,
            "rows": rows,
            "hard_failures": self.hard_failures,
            "conjecture_failures": self.conjecture_failures,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"scan family={self.family} degrees={self.n_min}..{self.n_max} "
            f"tolerance={self.tolerance:g} precision_bits={self.precision_bits}",
            f"{'n':>4} {'d':>4} {'degP':>5} {'sign':>5} {'rh_deviation':>24} status",
        ]
        for r in self.rows:
            dev = "-" if r.rh_deviation is None else repr(r.rh_deviation)
            sign = "-" if r.fe_sign is None else f"{r.fe_sign:+d}"
            degp = "-" if r.deg_p is None else str(r.deg_p)
            d = "-" if r.d is None else str(r.d)
            note = r.status if r.bound_proven else f"{r.status} [conjectural bound]"
            lines.append(f"{r.n:>4} {d:>4} {degp:>5} {sign:>5} {dev:>24} {note}")
        lines.append(
            f"hard_failures={self.hard_failures} "
            f"conjecture_failures={self.conjecture_failures}"
        )
        return "\n".join(lines)


def scan_degree(fam, n: int, tolerance: float, precision_bits: int) -> ScanRow:
    """Extremal construction, bound saturation, zeta and RH at degree n, where
    the family must have members (`bound` raises ValueError otherwise)."""
    b = bound(fam, n)
    try:
        w = extremal(fam, n)
    except ExtremalConstructionError as exc:
        return ScanRow(n, None, b.proven, f"extremal: {exc}", hard=b.proven)
    d = b.d_max  # extremal raises unless d(w) is the bound
    try:
        p1 = zeta_checked(w, fam.q)
    except ValueError as exc:
        return ScanRow(n, d, b.proven, f"zeta: {exc}", hard=True)
    except AssertionError:
        return ScanRow(n, d, b.proven, "zeta method disagreement", hard=True)
    hard_msgs = []
    if p1.sign != fam.sign:
        hard_msgs.append(f"functional-equation sign {p1.sign} != {fam.sign}")
    if p1.degree != n + 2 - 2 * d:
        hard_msgs.append(f"deg P = {p1.degree} != 2g = {n + 2 - 2 * d}")
    if hard_msgs:
        return ScanRow(n, d, b.proven, "; ".join(hard_msgs), True, p1.degree, p1.sign)
    try:
        rh = rh_check(p1, tolerance, precision_bits)
    except RHConvergenceError as exc:
        return ScanRow(n, d, b.proven, f"rh: {exc}", True, p1.degree, p1.sign)
    status = "ok" if rh.passed else "rh deviation exceeds tolerance"
    return ScanRow(n, d, b.proven, status, False, p1.degree, p1.sign,
                   rh.max_abs_deviation, rh.max_residual, rh.passed)


def scan_family(fam, n_min: int, n_max: int, tolerance: float,
                precision_bits: int) -> ScanReport:
    """`scan_degree` at every degree in n_min..n_max where the family has members."""
    start = time.monotonic()
    rows = [scan_degree(fam, n, tolerance, precision_bits)
            for n in range(max(n_min, 1), n_max + 1) if basis_exponents(fam, n)]
    return ScanReport(fam.name, n_min, n_max, tolerance, precision_bits, rows,
                      time.monotonic() - start)
