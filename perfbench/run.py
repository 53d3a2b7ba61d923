"""Benchmark of fwenum, end to end and per layer.

    python3 perfbench/run.py --workload rh-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
run measures set-up in several fresh interpreters, then runs the workload's
item list in fresh interpreters, one after another ("passes"), for about
`--seconds` seconds, checks every output, and prints medians.  With
`--trace 1` untraced and traced passes alternate and the per-layer figures
of the traced passes are printed instead.  `--workload all` runs the three
workloads in turn.  The last line of stdout is one JSON object; the full
record goes to .perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import mean, median

import gate
import workloads
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# child.calibrate() time on an uncontended 2-vCPU x86-64 VM with Python
# 3.11; only a scale, so that wall_ref_s reads in seconds of that machine
REFERENCE_CALIBRATION_S = 0.008
SETUP_PROBES = 9  # import-only interpreters per run, besides one per pass
MIN_PASSES = 3  # untraced passes per run without tracing
PASS_LIMIT_S = 150.0  # no pass starts that could end the run after this
PASS_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # read by fwenum.zeta at import; it changes the work rh-scan does
    env.pop("FWENUM_PRECISION_BITS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(argvs: list, traced: bool = False, spans_path: str | None = None) -> dict:
    """Run the items in one fresh interpreter; returns the child's record."""
    job = {"items": argvs, "trace": traced, "spans_path": spans_path}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(job), capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    result["traced"] = traced
    return result


def compile_bytecode() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "fwenum")],
        capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def layer_value(name: str, layers: dict, wrapped: list, overhead_s: float) -> float:
    """A per-layer metric; a wrapped function that was never called reads 0."""
    if name == "trace.overhead_s":
        return overhead_s
    if name in layers:
        return layers[name]
    function = name.rsplit(".", 1)[0]
    if function in wrapped or function in LAYERS:
        return 0.0
    raise BenchError(f"per-layer metric {name!r} names no traced function")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict, specs: dict) -> dict:
    items = workloads.items(workload, seed)
    argvs = [i["argv"] for i in items]
    spans_path = os.path.join(OUT, "spans", f"{workload}-seed{seed}.jsonl")
    setups = [run_pass([]) for _ in range(SETUP_PROBES)]

    passes = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(argvs, traced, spans_path if traced else None))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if elapsed + longest > PASS_LIMIT_S or (enough and elapsed + longest > seconds):
            break
    if trace and len(passes) < 2:
        raise BenchError("a pass takes too long to leave time for a traced pass")

    # correctness: each item in each pass passes the gate, and every pass
    # (traced or not) prints exactly what the first pass printed
    attempted = failed = 0
    problems = []
    first = [(o["code"], o["stdout"]) for o in passes[0]["outputs"]]
    for k, p in enumerate(passes):
        for item, out, ref in zip(items, p["outputs"], first):
            attempted += 1
            found = gate.check(item, out, golden)
            if (out["code"], out["stdout"]) != ref:
                found.append("output differs from the first pass"
                             + (" (traced)" if p["traced"] else ""))
            if found:
                failed += 1
                problems.append(f"pass {k} {item['id']}: {'; '.join(found[:3])}")

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    for p in setups + passes:
        # times of the interpreter at the reference speed of the machine
        p["setup_ref_s"] = (p["setup_s"] * REFERENCE_CALIBRATION_S
                            / median(p["setup_calibration_s"]))
        p["speed"] = REFERENCE_CALIBRATION_S / mean(p["calibration_s"])
        p["wall_ref_s"] = p["wall_s"] * p["speed"]
    e2e = {
        "setup_s": median(p["setup_ref_s"] for p in setups + passes),
        "wall_ref_s": median(p["wall_ref_s"] for p in untraced),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
    }
    diagnostics = {
        "setup_wall_s": median(p["setup_s"] for p in setups + passes),
        "wall_s": median(p["wall_s"] for p in untraced),
        "cpu_s": median(p["cpu_s"] for p in untraced),
        "error_rate": failed / attempted,
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "item_seconds": [[o["seconds"] for o in p["outputs"]] for p in untraced],
        "pass_wall_ref_s": [p["wall_ref_s"] for p in untraced],
        "calibration_s": [p["calibration_s"] for p in untraced],
        "setup_samples_s": [p["setup_s"] for p in setups + passes],
        "setup_ref_samples_s": [p["setup_ref_s"] for p in setups + passes],
    }
    if trace:
        wrapped = traced_passes[0]["wrapped"]
        names = set().union(*(p["layers"] for p in traced_passes))
        layers = {n: median(p["layers"].get(n, 0.0) * (p["speed"] if n.endswith("_s") else 1)
                            for p in traced_passes)
                  for n in names}
        overhead = median(p["wall_ref_s"] for p in traced_passes) - e2e["wall_ref_s"]
        metrics = {m["name"]: {"value": layer_value(m["name"], layers, wrapped, overhead),
                               "unit": m["unit"]} for m in specs["per_layer"]}
        diagnostics["traced_wall_s"] = median(p["wall_s"] for p in traced_passes)
        diagnostics["traced_wall_ref_s"] = median(p["wall_ref_s"] for p in traced_passes)
        diagnostics["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in specs["end_to_end"]}
    env = dict(passes[0]["env"], nproc=os.cpu_count())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_fixed": workload == "rh-scan",
        "items": [i["id"] for i in items],
        "env": env, "end_to_end": e2e, "diagnostics": diagnostics,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems,
    }


def report_lines(record: dict) -> list[str]:
    e2e, diag = record["end_to_end"], record["diagnostics"]
    lines = [
        f"{record['workload']} seed={record['seed']} passes={diag['passes']}"
        f"+{diag['traced_passes']} traced: setup_s={e2e['setup_s']:.4f} s "
        f"setup_wall_s={diag['setup_wall_s']:.4f} s "
        f"wall_s={diag['wall_s']:.4f} s wall_ref_s={e2e['wall_ref_s']:.4f} s "
        f"peak_rss_mb={e2e['peak_rss_mb']:.2f} MiB "
        f"error_rate={diag['error_rate']:.4g} ratio cpu_s={diag['cpu_s']:.4f} s",
    ]
    if record["inputs_fixed"]:
        lines.append(f"{record['workload']}: inputs are fixed; the seed is "
                     "recorded but changes nothing")
    env = record["env"]
    lines.append(f"env: python {env['python']}, mpmath {env['mpmath']} "
                 f"backend {env['mpmath_backend']}, nproc {env['nproc']}")
    if record["trace"]:
        lines.append(f"tracing overhead: {record['metrics']['trace.overhead_s']['value']:.4f} s"
                     f" (traced wall_ref_s {diag['traced_wall_ref_s']:.4f} s, wall_s "
                     f"{diag['traced_wall_s']:.4f} s); spans in {diag['spans_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fwenum", "cli.py")):
        print("error: no fwenum sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    golden = gate.load_golden()
    gate_failures = gate.self_test(golden)
    if gate_failures:
        print("error: the correctness gate failed its self-test:", file=sys.stderr)
        for line in gate_failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    specs = load_metric_specs()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    compile_bytecode()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              golden, specs)
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        for line in report_lines(record) + record["problems"][:10]:
            print(line)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
