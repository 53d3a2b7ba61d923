"""Byte-identity pins for the user-facing reports.

The sha256 of `scan` in JSON and in text over the acceptance ranges, of
`zeta --family F -n N --rh --format json` at three degrees per family, and
of the `rh_check(...).to_json()` of 300 seeded random folded P.  The RH
digits depend on every integer of the fold, the refinement and the lift, so
a speed-up that changes any of them shows here.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from fwenum import unipoly
from fwenum.cli import main
from fwenum.zeta import ZetaPoly, rh_check


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("fam_name,degrees,fmt,digest", [
    ("type1", "4..60", "json",
     "aa82a23242814500338157156b6845230fecc6c6952b09a6a76e06d7ac485c48"),
    ("type1", "4..60", "text",
     "35a396e7047196a74f252ddc48d61532cc6838ad98e290349def015b48643eb7"),
    ("type4", "3..45", "json",
     "a859bace164c89699af26b1f0194e35edbc16e3dacd7a831cd165c5c87818eda"),
    ("type4", "3..45", "text",
     "44032ffe5346c8810166edf1f08cc088cf56943e8615a05b71d7464cfd4a6ca2"),
    ("q43", "2..60", "json",
     "5667754e6b6643109777757abf92881b6baa5eb3bc5f14354a5a1fc8306d164b"),
    ("q43", "2..60", "text",
     "4ed533dac19c4ace3f672f39c680482831558a8cff53165f352b4b5df33dbb3f"),
    ("q43-odd", "6..66", "json",
     "6a34a10afe993cc612bfa5e14b3de53d7d8571bfa806bae554827c42733ab2fb"),
    ("q43-odd", "6..66", "text",
     "1f872aa3520683037b891c1e10c2e6d07edd6affe34b03060ccc9f855dc73ed9"),
    ("ozeki", "12..96", "json",
     "2c6b37d384695d59b76e4c80e67886a30eb0319d1a95f4fbf94cfcfd5d97e91e"),
    ("ozeki", "12..96", "text",
     "d72ba417cf31572fef346f6651143625032ef9f6bae2e2f2648f89fea10c71ba"),
])
def test_scan_report_bytes(capsys, fam_name, degrees, fmt, digest):
    out = _stdout(capsys, "scan", "--family", fam_name, "-n", degrees, "--format", fmt)
    assert _digest(out) == digest


@pytest.mark.parametrize("fam_name,n,digest", [
    ("type1", 24, "de6a1e806d15578d56daed84b9a589252c9504caf35f091dfc57e96baa6e1b3e"),
    ("type1", 60, "7346fbd503d6b5d40be10f297e598941b6c57f86dc44710bf24fa0ba3908ee38"),
    ("type1", 120, "34c4df35fc80040726d85cf31940d2b159ae730903b9b28292a578722a0571e4"),
    ("type4", 21, "2f9d6847c0de5280b953becc7c4ca18ae1b22837dda684d617af0fcb7b5f830d"),
    ("type4", 45, "0cec6811721f0bdea22c7dce431d4e2e35de5cce0a4ab2baa7d9fda439ba085a"),
    ("type4", 99, "e10ea59e0d6592bf4911a130db85030e312ba4ac50d41fa30a6e32aaa496dbdb"),
    ("q43", 12, "cdb738704b80b45432f00a768d943a54b636339991d25d3860a39b9474b61b66"),
    ("q43", 48, "b44669608556b2652feb6c8736f2acc5e04043719b6644dde5c4d7bac66bdf5d"),
    ("q43", 96, "314a7da22c7fdb0109094dbb631074d7b0375ccf75e85f059afbb822f69aa339"),
    ("q43-odd", 18, "b49f49e3676244e7fe424fdb834a2c6a3bb4883a3e9f530f07b438e3c56ef974"),
    ("q43-odd", 42, "da142c0b73fecbbf44f5b1eae7d7c51656c4899920fce3ba617fd5246318b9c6"),
    ("q43-odd", 66, "22fdd546c089a8fa702018da4dc2b9a3af2ff7d8cc97c6dde164ea0b8078ed17"),
    ("ozeki", 20, "3dc54d180e7b84ab7e414d29b248329fbba1fd689e7b66b12c6f83035c645ff1"),
    ("ozeki", 60, "13352e0d39a909496ec216c116d23137c7b1e7e7915b1f4a3c70760a6e99cad7"),
    ("ozeki", 92, "54c6fedc3ffc4f3868ecba2c44cc8f9122c2735e778e65d2086fcc449433d9c1"),
])
def test_zeta_rh_report_bytes(capsys, fam_name, n, digest):
    out = _stdout(capsys, "zeta", "--family", fam_name, "-n", str(n), "--rh",
                  "--format", "json")
    assert _digest(out) == digest


def _random_folded(rng: random.Random) -> ZetaPoly:
    """A product of 1 - sT + qT^2 for random rational s, mostly inside
    (-2 sqrt(q), 2 sqrt(q)), sometimes times 1 - qT^2 or, at q = 4, 1 +- 2T."""
    q = rng.choice([F(2), F(4), F(4, 3)])
    coeffs = [F(1)]
    for _ in range(rng.randint(1, 6)):
        wide = 5 if rng.random() < 0.1 else 2
        s = F(rng.randint(-wide * 12, wide * 12), 12)
        coeffs = unipoly.mul(coeffs, [F(1), -s, q])
    extras = [None, None, [F(1), F(0), -q]]
    if q == 4:
        extras += [[F(1), F(2)], [F(1), F(-2)]]
    extra = rng.choice(extras)
    if extra is not None:
        coeffs = unipoly.mul(coeffs, extra)
    return ZetaPoly(tuple(coeffs), q)


def test_random_folded_rh_report_bytes():
    rng = random.Random(2026)
    reports = [rh_check(_random_folded(rng)).to_json() for _ in range(300)]
    assert _digest("\n".join(reports)) == (
        "46094f3eb82918409314751b1adf42c19e817c2a5c2b767eff9fe4b1c2e9c126")
