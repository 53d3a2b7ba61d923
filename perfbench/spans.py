"""Span tracing of fwenum's layers, installed from outside the package.

`Tracer.install()` replaces every binding of each layer's public functions
(module-level functions whose names do not start with "_") in every
`fwenum.*` namespace, including re-exports such as `fwenum.cli.extremal`, with
a wrapper that records one span per call:

    name      "<layer>.<function>"
    start/end seconds of the tracer's clock
    parent    index of the enclosing span, -1 at the top
    item      index of the benchmark item being run
    repeat    the arguments were already seen earlier in this process
    outer     no span of the same name encloses this one (recursion-safe)
    extra     per-function counters derived from arguments and results

Spans stay in memory until `write()`.  Nothing inside `src/` changes; calls
made through references captured before `install()` (tables built at import
time, lru_cache internals) are not seen.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "fwenum"
LAYERS = ("cli", "families", "homopoly", "linalg", "matgroup", "scalar",
          "unipoly", "zeta")
SPAN_FIELDS = ("name", "start", "end", "parent", "item", "repeat", "outer",
               "extra")


def _freeze(obj):
    """A hashable stand-in for an argument, so repeats can be recognised."""
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    try:
        hash(obj)
    except TypeError:
        return ("id", id(obj))
    return obj


def _coeff_bits(zeta_poly) -> dict:
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in zeta_poly.coeffs), default=0)
    return {"coeff_bits": bits}


def _make_observers() -> dict:
    """Counters that are read off a call's arguments and result."""
    zeta = sys.modules[f"{PACKAGE}.zeta"]
    rh_signature = inspect.signature(zeta.rh_check)
    solve_signature = inspect.signature(sys.modules[f"{PACKAGE}.linalg"].solve)

    def rh_check(args, kwargs, result):
        bound = rh_signature.bind(*args, **kwargs).arguments
        start_bits = bound.get("precision_bits") or zeta.DEFAULT_PRECISION_BITS
        # precision doubles once per Aberth pass after the first
        passes = round(math.log2(result.precision_bits / start_bits)) + 1
        return {"passes": passes,
                "bits_sum": start_bits * (2 ** passes - 1),
                "deg_sum": len(result.roots)}

    def solve(args, kwargs, result):
        rows = solve_signature.bind(*args, **kwargs).arguments["rows"]
        # cells of the augmented matrix [A | b] that rref reduces
        return {"cells": len(rows) * (len(rows[0]) + 1) if rows else 0}

    return {
        "zeta.rh_check": rh_check,
        "linalg.solve": solve,
        "zeta.zeta_from_genfunc": lambda a, k, r: _coeff_bits(r),
        "zeta.zeta_from_mds": lambda a, k, r: _coeff_bits(r),
        "zeta.zeta_checked": lambda a, k, r: _coeff_bits(r),
    }


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; may leave out time the benchmark spends
        self.spans: list[list] = []
        self.item: int | None = None
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._seen: set[int] = set()

    def install(self) -> None:
        """Wrap every binding of the layers' public functions."""
        observers = _make_observers()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    qualname = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(qualname, obj, observers.get(qualname))
                    self.wrapped.append(qualname)
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def _wrap(self, qualname, fn, observe):
        spans, stack, active, seen = self.spans, self._stack, self._active, self._seen
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = hash((qualname, _freeze(args), _freeze(kwargs)))
            repeat = key in seen
            seen.add(key)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                    repeat, active[qualname] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[qualname] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[7] = {"raised": type(exc).__name__}
                raise
            finally:
                active[qualname] -= 1
                stack.pop()
            span[2] = clock()
            if observe is not None:
                span[7] = observe(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer figures, keyed by metric name.

        calls          every call, nested ones included
        busy_s         inclusive time of the outermost spans of that name
        self_s         inclusive time minus the time of direct child spans
        repeat_calls   calls whose arguments were already seen
        repeat_s       inclusive time of the outermost repeated calls
        errors         calls that raised
        <counter>      sum of an observer counter (passes, bits_sum, ...)
        <layer>.self_s self time of every span of the layer
        scalar.coeff_bits_max  largest numerator or denominator bit length
                       of the exact zeta polynomials returned
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        bits_max = 0
        for (name, start, end, _parent, _item, repeat, outer, extra), child in zip(
                self.spans, child_time):
            duration = end - start
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child
            out[f"{layer}.self_s"] += duration - child
            if outer:
                out[f"{name}.busy_s"] += duration
            if repeat:
                out[f"{name}.repeat_calls"] += 1
                if outer:
                    out[f"{name}.repeat_s"] += duration
            for counter, value in (extra or {}).items():
                if counter == "raised":
                    out[f"{name}.errors"] += 1
                elif counter == "coeff_bits":
                    bits_max = max(bits_max, value)
                else:
                    out[f"{name}.{counter}"] += value
        out["scalar.coeff_bits_max"] = bits_max
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
