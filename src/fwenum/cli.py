"""Command-line front end: construct, transform, verify, scan, report.

Exit-code policy: proven invariants that fail (method disagreement, bound or
functional-equation violations) exit nonzero; failures of the numerically
scanned conjectures are reported in-band and exit zero unless --strict;
input the library rejects with ValueError, and an --output file that cannot
be written, print `error: <message>` to stderr and exit 2.
Reports are byte-identical across runs; timings go to stderr only when
requested.

Each call is parsed by its own command's parser (`command_parser`). The full
five-command tree (`build_parser`) is built from the same argument functions,
and only for top-level help and usage errors, so both print the same help and
messages.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from . import families as fam_mod
from . import matgroup, unipoly, zeta as zeta_mod
from .families import basis, basis_exponents, extremal, family, generator
from .homopoly import HomPoly, format_poly, format_poly_latex, parse_poly
from .pipeline import scan_family
from .zeta import (
    DEFAULT_PRECISION_BITS,
    RHConvergenceError,
    rh_check,
    run_duursma_lemma_suite,
    run_duursma_okuda_suite,
    verify_divisibility_prop,
    verify_extremal_diff_identity,
    verify_star,
    verify_zeta_binomial_identity,
    zeta_checked,
)

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return value


def _precision_bits(text: str) -> int:
    try:
        return zeta_mod.parse_precision_bits(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _degree_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a degree range: {text!r} (expected N or MIN..MAX)") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty degree range {text!r}: MIN > MAX")
    return lo, hi


def _render_poly(poly: HomPoly, fmt: str) -> str:
    if fmt == "json":
        return poly.to_json()
    if fmt == "latex":
        return format_poly_latex(poly)
    return format_poly(poly)


# -- subcommands ------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.name:
        poly = generator(args.name, q=args.q)
        print(_render_poly(poly, args.format))
        return 0
    fam = family(args.family)
    if args.basis:
        if args.n is None:
            raise ValueError("gen --basis needs -n")
        elems = basis(fam, args.n)
        if not elems:
            raise ValueError(f"family {fam.name} has no members of degree {args.n}")
        if args.format == "json":
            print(json.dumps(
                {"family": fam.name, "n": args.n,
                 "basis": [json.loads(b.to_json()) for b in elems]},
                sort_keys=True))
        else:
            for (l, m), b in zip(basis_exponents(fam, args.n), elems):
                print(f"l={l} m={m}: {_render_poly(b, args.format)}")
        return 0
    if args.extremal:
        if args.n is None:
            raise ValueError("gen --extremal needs -n")
        poly = extremal(fam, args.n)
        print(_render_poly(poly, args.format))
        return 0
    raise ValueError("gen needs --name, --extremal or --basis")


def _cmd_zeta(args) -> int:
    if args.poly:
        if args.q is None:
            raise ValueError("zeta --poly needs -q")
        w, q = parse_poly(args.poly), args.q
        label = "input"
    else:
        fam = family(args.family)
        if args.n is None:
            raise ValueError("zeta --family needs -n")
        w, q = extremal(fam, args.n), fam.q
        label = f"{fam.name} extremal n={args.n}"
    try:
        p1 = zeta_checked(w, q)
    except AssertionError:
        print("error: zeta method disagreement", file=sys.stderr)
        return 1
    rh = None
    if args.rh:
        try:
            rh = rh_check(p1, args.tolerance, args.precision_bits)
        except RHConvergenceError as exc:
            print(f"error: rh: {exc}", file=sys.stderr)
            return 1
    if args.format == "json":
        payload = {
            "input": label,
            "zeta": json.loads(p1.to_json()),
            "methods_agree": True,
        }
        if rh is not None:
            payload["rh"] = json.loads(rh.to_json())
        print(json.dumps(payload, sort_keys=True))
        return 0
    if args.format == "latex":
        print(f"P(T) = {p1.to_latex()}")
    else:
        print(f"P(T) = {p1}")
        print(f"q = {p1.q}  n = {p1.n}  d = {p1.d}  genus = {p1.genus}  "
              f"sign = {p1.sign}  deg = {p1.degree}")
        print("methods agree: generating-function == mds-expansion")
    if rh is not None:
        print(f"rh: pass = {rh.passed}  max modulus deviation = "
              f"{rh.max_abs_deviation!r}  residual <= {rh.max_residual!r}  "
              f"precision = {rh.precision_bits} bits")
    return 0


def _cmd_scan(args) -> int:
    fam = family(args.family)
    n_min, n_max = args.n
    if n_min < 1:
        raise ValueError("degree must be >= 1")
    report = scan_family(fam, n_min, n_max, args.tolerance, args.precision_bits)
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    if args.timing:
        print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    if report.hard_failures:
        return 1
    if args.strict and report.conjecture_failures:
        return 1
    return 0


def _cmd_molien(args) -> int:
    group = matgroup.named_group(args.group)
    series = matgroup.molien_series(group)
    prefix = [str(c) for c in series.series(args.terms)]  # before any output
    if args.format == "json":
        print(json.dumps({
            "group": args.group,
            "order": group.order,
            "numerator": [str(c) for c in series.num],
            "denominator": [str(c) for c in series.den],
            "series": prefix,
        }, sort_keys=True))
    else:
        print(f"group {args.group}: order {group.order}")
        print(f"molien: {series}")
        print(f"series: {', '.join(prefix)}")
    return 0


def _cmd_verify(args) -> int:
    theorem = args.theorem
    if theorem == "th-duursma-okuda":
        rep = run_duursma_okuda_suite(args.samples, args.seed)
        for label, (passed, seen) in (("i", rep.part1), ("ii", rep.part2),
                                      ("iii", rep.part3)):
            print(f"part ({label}): {passed}/{seen} pass")
        if rep.failures:
            print(f"failures: {rep.failures}")
        return 0 if rep.ok else 1
    if theorem == "lemma-duursma":
        passed, total = run_duursma_lemma_suite(args.samples, args.seed)
        print(f"{passed}/{total} pass")
        return 0 if passed == total else 1
    if theorem == "star-q43-odd":
        # conjecture scan: reported per k, never asserted, exit 0 regardless
        rows = zeta_mod.star_scan_q43_odd(args.max_k)
        for k, maps, zmatch in rows:
            print(f"k={k} (degrees {12 * k + 6} -> {12 * k + 4}): operator "
                  f"image extremal: {maps}; zeta factor 4*T^2 - 6*T + 3: {zmatch}")
        return 0
    if theorem == "molien-basis":
        mismatches, groups = matgroup.molien_basis_mismatches(args.max_degree)
        if mismatches:
            print(f"dimension mismatches: {mismatches}")
            return 1
        print(f"molien/basis dimensions agree for all n <= {args.max_degree} "
              f"in {groups} groups")
        return 0

    fam = family(args.family)
    if args.n is None:
        raise ValueError(f"verify {theorem} needs -n")
    n = args.n
    # built first, so that a missing degree is reported before a missing operator
    w = extremal(fam, n)
    if theorem == "star":
        check = verify_star(fam, n)
        factor = zeta_mod.star_zeta_factor(fam)
        print(f"maps to extremal: {check.maps_to_extremal}; zeta factor "
              f"{unipoly.to_string(factor, 'T')} confirmed: {check.zeta_factor_matches}")
        return 0 if check.ok else 1
    if theorem == "divisibility":
        check = verify_divisibility_prop(w, fam)
        print(f"divides: {check.divides}; cofactor divisible by the family "
              f"generator: {check.cofactor_divisible}")
        return 0 if check.ok else 1
    if theorem == "diff-identity":
        ok = verify_extremal_diff_identity(w, fam)
        print(f"differential identity at n={n}: {'holds' if ok else 'FAILS'}")
        return 0 if ok else 1
    ok = verify_zeta_binomial_identity(w, fam)  # zeta-binomial
    print(f"zeta binomial identity at n={n}: {'holds' if ok else 'FAILS'}")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------


def _rh_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=_tolerance, default=1e-9)
    parser.add_argument("--precision-bits", type=_precision_bits,
                        default=DEFAULT_PRECISION_BITS)


def _gen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=sorted(fam_mod.FAMILIES))
    parser.add_argument("--name",
                        help="generator name (phi4, phi3, phi6, wh8, w12, w12prime, w2)")
    parser.add_argument("--extremal", action="store_true")
    parser.add_argument("--basis", action="store_true")
    parser.add_argument("-n", type=int)
    parser.add_argument("-q", type=_fraction, help="parameter for --name w2")
    parser.add_argument("--format", choices=("text", "json", "latex"), default="text")
    parser.set_defaults(func=_cmd_gen)


def _zeta_args(parser: argparse.ArgumentParser) -> None:
    _rh_args(parser)
    parser.add_argument("--family", choices=sorted(fam_mod.FAMILIES))
    parser.add_argument("--extremal", action="store_true",
                        help="accepted and ignored: --family always uses the extremal member")
    parser.add_argument("--poly", help="polynomial text form")
    parser.add_argument("-n", type=int)
    parser.add_argument("-q", type=_fraction)
    parser.add_argument("--rh", action="store_true")
    parser.add_argument("--format", choices=("text", "json", "latex"), default="text")
    parser.set_defaults(func=_cmd_zeta)


def _scan_args(parser: argparse.ArgumentParser) -> None:
    _rh_args(parser)
    parser.add_argument("--family", choices=sorted(fam_mod.FAMILIES), required=True)
    parser.add_argument("-n", type=_degree_range, required=True, metavar="MIN..MAX")
    parser.add_argument("--strict", action="store_true",
                        help="conjecture failures also exit nonzero")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="print elapsed time to stderr")
    parser.set_defaults(func=_cmd_scan)


def _molien_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", choices=matgroup.GROUP_NAMES, required=True)
    parser.add_argument("--terms", type=int, default=41)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.set_defaults(func=_cmd_molien)


def _verify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("theorem", choices=(
        "th-duursma-okuda", "lemma-duursma", "star", "star-q43-odd",
        "divisibility", "diff-identity", "zeta-binomial", "molien-basis"))
    parser.add_argument("--family", choices=sorted(fam_mod.FAMILIES), default="type1")
    parser.add_argument("-n", type=int)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--max-degree", type=int, default=40)
    parser.add_argument("--max-k", type=int, default=4)
    parser.set_defaults(func=_cmd_verify)


# command -> (the function that adds its arguments, its line in top-level help)
_COMMANDS = {
    "gen": (_gen_args, "print generators, bases or extremal enumerators"),
    "zeta": (_zeta_args, "zeta polynomial by both methods, optional RH check"),
    "scan": (_scan_args, "extremal construction + zeta + RH over a degree range"),
    "molien": (_molien_args, "group order and exact Molien series"),
    "verify": (_verify_args, "run a theorem verifier"),
}


# parse_args leaves a parser unchanged, so one parser per command serves every
# `main` call
@lru_cache(maxsize=None)
def command_parser(name: str) -> argparse.ArgumentParser:
    """The standalone parser of one command, as its subparser in `build_parser`."""
    parser = argparse.ArgumentParser(prog=f"fwenum {name}")
    _COMMANDS[name][0](parser)
    return parser


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The full command tree, for top-level help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="fwenum",
        description="Exact computations with divisible formal weight enumerators "
                    "and their zeta polynomials (q = 2, 4, 4/3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (add_args, text) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    # a call that names a command and leaves nothing over parses as the tree
    # would; the tree itself reports the rest, so its messages stay as they are
    if argv and argv[0] in _COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
