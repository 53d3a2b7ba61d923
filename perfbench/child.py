"""One benchmark pass in a fresh interpreter.

Reads a job from stdin: {"items": [[argv...], ...], "trace": bool,
"spans_path": str | null}.  Times the import of `fwenum.cli` (set-up), then
runs every item through `fwenum.cli.main(argv)` with stdout captured, and
writes one JSON object with the outputs, timings, the machine's speed during
the pass, peak memory, the environment and, when traced, the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.25


def calibrate() -> float:
    """Seconds taken by a fixed loop of int and Fraction arithmetic.

    It shares no code with fwenum, so a change to fwenum cannot change it;
    only the speed the machine gives this process can.
    """
    start = time.perf_counter()
    s, x = 0, Fraction(1, 7)
    for i in range(1, 20000):
        s += (i * i) ^ (s >> 3)
        if i % 50 == 0:
            x = x * Fraction(i + 1, i) - Fraction(1, i)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs `calibrate()` every PROBE_INTERVAL_S seconds during a pass.

    The samples say how fast the shared machine was while the items ran, at
    the same moments; `paused` is the time the probe itself took, which the
    item and pass times leave out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # at least one sample, also for short passes


def run_items(cli, items: list, tracer, probe: SpeedProbe) -> list[dict]:
    outputs = []
    for index, argv in enumerate(items):
        if tracer is not None:
            tracer.item = index
        buf = io.StringIO()
        code, error = None, None
        paused = probe.paused
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            error = f"SystemExit: {exc.code}"
        except Exception as exc:  # an item that raises is a failed item
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - (probe.paused - paused)
        outputs.append({"code": code, "stdout": buf.getvalue(), "error": error,
                        "seconds": seconds})
    return outputs


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import fwenum.cli
    setup_s = time.perf_counter() - t0
    setup_calibration_s = [calibrate() for _ in range(3)]

    import mpmath
    import mpmath.libmp

    probe = SpeedProbe()
    tracer = None
    if job["trace"]:
        from spans import Tracer

        # spans leave out the probe's time, as the pass and item times do
        tracer = Tracer(clock=lambda: time.perf_counter() - probe.paused)
        tracer.install()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    with probe:
        outputs = run_items(fwenum.cli, job["items"], tracer, probe)
        wall_s = time.perf_counter() - wall0 - probe.paused
        cpu_s = time.process_time() - cpu0 - probe.paused

    result = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": probe.samples,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "env": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "fwenum_file": os.path.relpath(fwenum.__file__),
            "precision_bits": fwenum.zeta.DEFAULT_PRECISION_BITS,
        },
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["wrapped"] = tracer.wrapped
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
