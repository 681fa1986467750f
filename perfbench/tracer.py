"""Span recording around the public entry points of each abconvex layer.

The traced run replaces each listed function, in every namespace that binds
it (the package, its defining module, modules that imported it, and dict
tables such as ``cli.RUNNERS``), with a wrapper that records a span.  Calls
the library makes to itself therefore show up as child spans.  Spans stay in
memory (name, parent span, workload item, start, end, extra counts) and are
written out as JSON lines when the run ends.

Each span records wall time; ``self_s`` is its duration minus the time its
direct traced children cover.  ``peak_mb`` is the tracemalloc peak inside the
span above the traced memory at its start.  The recorder is single-threaded,
like the library.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from types import ModuleType

#: span name -> stats reported for it, in BENCHMARK.json order
SPANS = {
    "cli.run_scenario": ("calls", "busy_s", "self_s", "peak_mb", "report_bytes"),
    "cli.validate_scenario": ("calls", "busy_s"),
    "core.build_metric_space": ("calls", "busy_s", "peak_mb", "triangle_cells"),
    "core.sub_up": ("calls", "busy_s", "cells"),
    "families.default_dual_grid": ("calls", "busy_s"),
    "families.conjugate_transform": ("calls", "busy_s", "self_s"),
    "families.biconjugate": ("calls", "busy_s", "self_s"),
    "families.peaking_witness": ("calls", "busy_s", "ok_ratio"),
    "families.urysohn_witness": ("calls", "busy_s", "ok_ratio"),
    "minimax.intersection_certificate": ("calls", "busy_s", "peak_mb", "found_ratio",
                                         "candidate_cells"),
    "lagrangian.duality_report": ("calls", "busy_s", "self_s", "peak_mb", "table_cells"),
    "lagrangian.build_lagrangian": ("calls", "busy_s"),
    "lagrangian.gap_certificate": ("calls", "busy_s", "found_ratio"),
    "constrained.verify_zero_gap_metric": ("calls", "busy_s", "self_s", "peak_mb"),
    "constrained.metric_dual_grid": ("calls", "busy_s"),
    "constrained.metric_grid_sup": ("calls", "busy_s"),
    "transport.solve_transport": ("calls", "busy_s", "peak_mb", "cells"),
    "transport.kantorovich_gap_report": ("calls", "busy_s", "self_s"),
}

#: tracing-overhead figures the traced run adds to the span stats
OVERHEAD = ("items_per_s_untraced", "items_per_s_traced", "overhead_items_per_s",
            "overhead_share")

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "peak_mb": "MB",
         "report_bytes": "bytes", "triangle_cells": "count", "cells": "count",
         "candidate_cells": "count", "table_cells": "count", "ok_ratio": "ratio",
         "found_ratio": "ratio", "items_per_s_untraced": "1/s",
         "items_per_s_traced": "1/s", "overhead_items_per_s": "1/s",
         "overhead_share": "ratio"}


def metric_names() -> list[str]:
    names = [f"{span}.{stat}" for span, stats in SPANS.items() for stat in stats]
    return names + [f"trace.{stat}" for stat in OVERHEAD]


# -- work counts computed from a call's arguments and result -----------------

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _report_bytes(args, kwargs, out):
    import os

    path = _arg(args, kwargs, 1, "out")
    if path in (None, "-") or not os.path.exists(path):
        return {}
    return {"report_bytes": os.path.getsize(path)}


def _triangle_cells(args, kwargs, out):
    full = _arg(args, kwargs, 2, "validate", "full") == "full"
    return {"triangle_cells": out.n ** 3 if full else 0}


def _cells(args, kwargs, out):
    return {"cells": int(out.size)}


def _found(args, kwargs, out):
    return {"found": out is not None}


def _candidate_cells(args, kwargs, out):
    # the pairwise crossings in (0, 1) plus both endpoints, each evaluated at
    # every grid point by an exhaustive envelope search
    import numpy as np

    v1, v2 = args[0].values, args[1].values
    s = v1 - v2
    i, j = np.triu_indices(v1.shape[0], k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = (v2[j] - v2[i]) / (s[i] - s[j])
    ts = ts[np.isfinite(ts) & (ts > 0.0) & (ts < 1.0)]
    return {"found": out is not None,
            "candidate_cells": int(v1.shape[0] * (np.unique(ts).size + 2))}


def _table_cells(args, kwargs, out):
    prob, grid = args[0], args[1]
    return {"table_cells": int(prob.p.shape[0] * grid.size * prob.p.shape[1])}


def _transport_cells(args, kwargs, out):
    n, m = args[0].cost.shape
    return {"cells": n * m}


COUNTERS = {
    "cli.run_scenario": _report_bytes,
    "core.build_metric_space": _triangle_cells,
    "core.sub_up": _cells,
    "minimax.intersection_certificate": _candidate_cells,
    "lagrangian.duality_report": _table_cells,
    "lagrangian.gap_certificate": _found,
    "transport.solve_transport": _transport_cells,
}

#: spans whose call counts as failed when it raises this exception name
OK_UNLESS = {"families.peaking_witness": "NoWitness",
             "families.urysohn_witness": "NoWitness"}


class Tracer:
    """In-memory span recorder; install() patches the library in place."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []        # [id, name, parent, item, start, end, extra]
        self._stack = []       # open spans: [id, base_bytes, hi_bytes, child_s]
        self._next_id = 0

    # -- memory bookkeeping: tracemalloc has one global peak, so each event
    # folds the peak since the last event into every open span, then resets it
    def _fold_peak(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            if peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()
        return cur

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        fail_exc = OK_UNLESS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            cur = tracer._fold_peak()
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, cur, cur, 0.0]
            tracer._stack.append(frame)
            extra = {}
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                t1 = time.perf_counter()
                if fail_exc is not None and type(e).__name__ == fail_exc:
                    extra["ok"] = False
                else:
                    extra["error"] = type(e).__name__
                tracer._close(frame, name, parent, t0, t1, extra)
                raise
            t1 = time.perf_counter()
            if fail_exc is not None:
                extra["ok"] = True
            tracer._close(frame, name, parent, t0, t1, extra)
            if counter is not None:
                extra.update(counter(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _close(self, frame, name, parent, t0, t1, extra):
        self._fold_peak()
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][3] += dur
        extra["peak_bytes"] = frame[2] - frame[1]
        extra["self_s"] = dur - frame[3]
        self.spans.append([frame[0], name, parent, self.item, t0, t1, extra])

    def install(self) -> None:
        """Replace every binding of each SPANS function in abconvex modules."""
        originals = {}
        for name in SPANS:
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"abconvex.{mod_name}")
            originals[id(getattr(mod, fn_name))] = (name, getattr(mod, fn_name))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "abconvex" or mod_name.startswith("abconvex.")):
                continue
            if not isinstance(mod, ModuleType):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is originals[id(val)][1]:
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers and v is originals[id(v)][1]:
                            val[k] = wrappers[id(v)]

    def start(self) -> None:
        tracemalloc.start()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        tracemalloc.stop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, item, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "item": item, "start": t0, "end": t1,
                                     **extra}) + "\n")

    def stats(self) -> dict:
        """Per-span aggregates named <module>.<function>.<stat>."""
        agg = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_bytes": 0,
                      "ok": 0, "found": 0, "sums": {}} for name in SPANS}
        for _, name, _, _, t0, t1, extra in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["busy_s"] += t1 - t0
            a["self_s"] += extra["self_s"]
            a["peak_bytes"] = max(a["peak_bytes"], extra["peak_bytes"])
            a["ok"] += bool(extra.get("ok"))
            a["found"] += bool(extra.get("found"))
            for k, v in extra.items():
                if k.endswith("_cells") or k == "cells" or k == "report_bytes":
                    a["sums"][k] = a["sums"].get(k, 0) + v
        out = {}
        for name, stats in SPANS.items():
            a = agg[name]
            calls = a["calls"]
            for stat in stats:
                if stat == "calls":
                    v = calls
                elif stat in ("busy_s", "self_s"):
                    v = a[stat]
                elif stat == "peak_mb":
                    v = a["peak_bytes"] / 1e6
                elif stat == "ok_ratio":
                    v = a["ok"] / calls if calls else 0.0
                elif stat == "found_ratio":
                    v = a["found"] / calls if calls else 0.0
                else:
                    v = a["sums"].get(stat, 0)
                out[f"{name}.{stat}"] = v
        return out


def coverage_errors(stats: dict, expected: tuple) -> list[str]:
    """Expected spans that the traced run never entered."""
    return [f"span {name} expected on this workload but never called"
            for name in expected if stats.get(f"{name}.calls", 0) <= 0]
