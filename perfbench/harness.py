"""Timed closed loop, output fingerprints, latency statistics, machine record.

One caller runs the items of a fixed batch one after another (a closed loop:
the next item starts only when the previous one returned).  Each workload
runs a fixed number of whole passes over the batch, so every run and every
commit measures the same items the same number of times.  Latency is taken
tightly around each call; the work between calls (fingerprinting, bookkeeping,
calibration) is outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import struct
import time
from statistics import median
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Optional

import numpy as np

#: percentiles the tail latency may report; the highest one with at least ten
#: samples beyond it is used.  Each workload runs a fixed number of passes, so
#: its sample count, and with it the percentile, is the same on every commit.
#: p99.9 is left out because its ten samples beyond would be timer and
#: scheduler noise on ms-long items
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Item:
    """One library call of a workload, with its output check.

    call     -- the timed work; returns the output
    check    -- independent reference check of an output; returns None when the
                output is correct, else a one-line reason
    corrupt  -- deliberate corruption of an output, used by the self-test to
                show that the check catches a wrong result
    observe  -- the part of an output that must repeat bit-for-bit across runs
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    corrupt: Callable[[Any], Any]
    observe: Callable[[Any], Any] = lambda out: out


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)   # seconds, one per attempt
    failed_attempts: list = field(default_factory=list)  # batch index per failed attempt
    errors: dict = field(default_factory=dict)      # batch index -> first error text
    digests: dict = field(default_factory=dict)     # batch index -> output fingerprint
    outputs: dict = field(default_factory=dict)     # batch index -> latest output
    speed: list = field(default_factory=list)       # machine_speed() samples
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def digest(obj) -> bytes:
    """Fingerprint of an output, exact to the bit for every float it holds."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(b"s" + struct.pack("<q", len(data)) + data)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a" + str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" + struct.pack("<q", len(obj)))
        for v in obj:
            _feed(h, v)
    elif is_dataclass(obj):
        h.update(b"c" + type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif hasattr(obj, "as_float"):  # ExtReal
        _feed(h, obj.as_float())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


# Other tenants of a shared machine slow every operation by up to ~50% for
# tens of seconds at a time: on the reference box a fixed kernel's median time
# moved between 22 and 35 ms across 10-second windows.  A whole run can sit in
# one such state, so no statistic taken within the run removes it.  The loop
# therefore times a fixed calibration kernel every CALIBRATE_EVERY_S, and
# at_reference_speed scales all latencies of the run by one factor derived
# from the median kernel speed, which reports the run at the speed of the
# reference box when no one else contends.  One factor per run, not one per
# item: the kernel follows the machine's level from run to run, but not the
# swings of single memory-bound items within a run (on large-grids the two do
# not correlate), so per-item factors would add noise.

#: calibration kernel time on the reference box (2-core Xeon, 2.1 GHz), idle
CALIBRATION_REF_S = 1.9e-3
CALIBRATE_EVERY_S = 0.2


def _calibration_kernel() -> None:
    # interpreter work (dict and float churn, like the simplex and the CLI),
    # small numpy reductions (like the small grids) and one tensor reduction
    # larger than the caches (like the triangle check and Lagrangian table)
    d = {}
    s = 0.0
    for i in range(7500):
        d[i & 255] = s
        s += i * 0.5
    x = np.arange(64.0)
    for _ in range(40):
        (x[:, None] - x[None, :]).max(axis=0)
    a = np.arange(80.0 * 80.0).reshape(80, 80)
    (a[:, :, None] + a[None, :, :]).min(axis=1)


def machine_speed() -> float:
    """Speed of the machine right now relative to the reference machine: the
    best of three runs of a fixed calibration kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_REF_S / best


def run_item(item: Item, corrupt: bool):
    """Call an item and return (output, error text, seconds)."""
    t0 = time.perf_counter()
    try:
        out = item.call()
    except Exception as e:  # an item that raises is a failed attempt
        return None, f"{type(e).__name__}: {e}", time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if corrupt:
        out = item.corrupt(out)
    return out, None, dt


def timed_loop(batch: list, passes: int, corrupt: bool, result: LoopResult,
               on_item: Optional[Callable[[int], None]] = None) -> LoopResult:
    """Run `passes` whole passes over the batch, calibrating the machine's
    speed as it goes.  Each output is fingerprinted outside the timed call and
    must match the first fingerprint of its item; the latest output of each
    item is kept for check_outputs."""
    calibrated_at = -math.inf
    for _ in range(passes):
        for idx, item in enumerate(batch):
            if on_item is not None:
                on_item(idx)
            if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
                result.speed.append(machine_speed())
                calibrated_at = time.perf_counter()
            out, err, dt = run_item(item, corrupt)
            result.latencies.append(dt)
            if err is None:
                try:
                    d = digest(item.observe(out))
                except Exception as e:
                    err = f"observe: {type(e).__name__}: {e}"
                else:
                    first = result.digests.setdefault(idx, d)
                    if first != d:
                        err = "output differs from an earlier run of the same input"
                    result.outputs[idx] = out
            if err is not None:
                result.failed_attempts.append(idx)
                result.errors.setdefault(idx, err)
        result.passes += 1
    return result


def check_outputs(batch: list, loop: LoopResult) -> dict:
    """Check the latest timed output of every item against the item's
    independent reference (every earlier output has the same fingerprint).
    Returns batch index -> reason for every item whose output is wrong."""
    bad = {}
    for idx, item in enumerate(batch):
        if idx not in loop.outputs:
            continue  # every attempt raised; counted by count_failed
        try:
            err = item.check(loop.outputs[idx])
        except Exception as e:
            err = f"check raised {type(e).__name__}: {e}"
        if err is not None:
            bad[idx] = f"{item.label}: {err}"
    return bad


def count_failed(loop: LoopResult, bad: dict) -> tuple[int, dict]:
    """Failed attempts: those that raised or changed output, plus every attempt
    of an item whose checked output is wrong (every item ran once per pass)."""
    failed = loop.passes * len(bad)
    failed += sum(1 for idx in loop.failed_attempts if idx not in bad)
    reasons = dict(bad)
    for idx, err in loop.errors.items():
        reasons.setdefault(idx, err)
    return failed, reasons


def tail(latencies: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile with at least TAIL_MIN_BEYOND samples beyond it (the lowest
    ladder percentile when none has)."""
    vals = sorted(latencies)
    n = len(vals)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if best is None or n - rank >= TAIL_MIN_BEYOND:
            best = (p, vals[rank - 1], n - rank)
    return best


def at_reference_speed(loop: LoopResult, sensitivity: float) -> list:
    """The run's latencies at the reference machine's speed: each times
    speed ** sensitivity, where speed is the run's median machine_speed().

    `sensitivity` is the slope of log latency over log kernel speed, fitted
    across runs on the reference box.  The interpreter-bound workloads (the
    simplex, schema validation, per-call overhead on small instances) follow
    the kernel fully (1.0); the dense numpy kernels of large-grids follow it
    about half (0.5).  Full scaling over-corrected large-grids: over ten seeds
    on the reference box its tail spread 0.15-0.22 of its median, against
    0.04-0.12 at 0.5."""
    factor = median(loop.speed) ** sensitivity
    return [t * factor for t in loop.latencies]


def items_per_s(latencies: list) -> float:
    """Items attempted over the wall time of the whole timed region."""
    return len(latencies) / sum(latencies)


def _read_first(path: str, prefix: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def machine() -> dict:
    """The machine and software stack a run measured."""
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        b = deps.get("blas", {})
        blas = f"{b.get('name', '?')} {b.get('version', '?')}"
    except Exception:  # older numpy has no dict mode
        pass
    mem = _read_first("/proc/meminfo", "MemTotal")
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total": mem,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
