"""abconvex benchmark: four seeded workloads against the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads (the reason for each sits in its module's docstring):

    cli-scenarios   wl_cli.py        scenario files through cli.run_scenario
    large-grids     wl_large.py      dense kernels at two or more sizes each
    transport       wl_transport.py  transportation simplex plus audit, 60..150
    small-corpus    wl_small.py      acceptance-shaped instances, <= 50 points

Each run generates its inputs from the seed (written to perfbench/.work and
read back), warms up, then runs one closed loop: one caller, one process,
a fixed number of whole passes over a fixed batch (see passes()).  BLAS/OpenMP
threads are pinned to 1.  After the timed region, each item's latest output
is checked against an independent reference; an item that raises, exits with
an unexpected code, changes its output between runs or fails its check counts
as failed in every attempt.

End-to-end metrics (--trace 0), tracing off:

    setup_s          s      lower   import abconvex + generate inputs + warm up;
                                    median over SETUP_REPEATS fresh processes
    items_per_s      1/s    higher  items attempted / wall time of the whole
                                    timed region (the summed item latencies)
    latency_p50_ms   ms     lower   median item latency
    latency_tail_ms  ms     lower   highest of p50/p75/p90/p99 with at least ten
                                    samples beyond it (printed with the count;
                                    fixed per workload by its pass count)
    peak_rss_mb      MB     lower   peak resident set of this fresh process,
                                    read before the output checks run
    failure_ratio    ratio  lower   failed / attempted; printed, and carried by
                                    the result's "failed" and "attempted"

Timings are reported at the reference box's uncontended speed: the loop times
a fixed calibration kernel every 0.2 s and scales the run's latencies by the
median of those speeds, raised to the workload's SPEED_SENSITIVITY (see
harness.machine_speed for why, harness.at_reference_speed for how).  Set-up,
which is interpreter work (imports, input generation), is scaled fully.  The
unscaled figures are printed too.

Per-layer metrics (--trace 1) come from a traced phase of exactly
TRACE_PASSES passes over the batch (a fixed amount of work, so counts and busy
times compare across commits), after an untraced phase of passes(seconds / 2);
the difference of their items_per_s is the tracing overhead.  Names are
<module>.<function>.<stat>; see tracer.SPANS.  Spans are written to
perfbench/.work/spans-<workload>-s<seed>.jsonl.  A span a workload is expected
to enter but never does fails the run (coverage check).

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  Exit code 0 on success; 1 when an output check or the coverage
check fails; 2 when the checkout lacks the abconvex sources.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_SCENARIOS = ROOT / "scenarios"
WORK = HERE / ".work"

WORKLOADS = {"cli-scenarios": "wl_cli", "large-grids": "wl_large",
             "transport": "wl_transport", "small-corpus": "wl_small"}
SETUP_REPEATS = 5
TRACE_PASSES = 1

END_TO_END = {"items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def sources_present() -> bool:
    return (SRC / "abconvex" / "__init__.py").is_file() and SHIPPED_SCENARIOS.is_dir()


def setup(workload: str, seed: int, tiny: bool, corrupt: bool):
    """Import abconvex, generate and load the inputs, warm up.
    Returns (module, items, workdir, seconds spent, machine speed)."""
    t0 = time.perf_counter()
    import abconvex  # noqa: F401  (timed: part of set-up)
    import numpy as np

    from harness import machine_speed, run_item

    mod = importlib.import_module(WORKLOADS[workload])
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if workload == "cli-scenarios":
        mod.generate(rng, workdir, tiny)
        items = mod.load(workdir, SHIPPED_SCENARIOS, tiny)
    else:
        np.savez(workdir / "inputs.npz", **mod.generate(rng, tiny))
        with np.load(workdir / "inputs.npz") as z:
            data = {k: z[k] for k in z.files}
        items = mod.load(data, tiny)
    # warm-up: the first item of each kind, so lazy imports and caches settle
    seen = set()
    with quiet():
        for item in items:
            if item.kind not in seen:
                seen.add(item.kind)
                run_item(item, corrupt)
    return mod, items, workdir, time.perf_counter() - t0, machine_speed()


@contextlib.contextmanager
def quiet():
    """Discard the library's stderr chatter (the CLI prints elapsed times)."""
    with open(os.devnull, "w", encoding="utf-8") as devnull, \
            contextlib.redirect_stderr(devnull):
        yield


def passes(mod, seconds: float) -> int:
    """Passes over the batch in a run of `seconds`: about `seconds` of work on
    the reference box at the commit that defined the benchmark.  The count
    depends on `seconds` only, not on the speed of the code under test, so
    every commit collects the same number of samples, and its tail latency is
    the same percentile."""
    return max(1, round(seconds / mod.PASS_SECONDS))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt: bool = False) -> dict:
    """One run of one workload; returns counts, metrics and diagnostics."""
    mod, items, workdir, setup_raw, speed = setup(workload, seed, tiny, corrupt)
    setup_s = (setup_raw, setup_raw * speed)
    import harness
    import tracer as tracing

    gc.collect()
    out = {"workload": workload, "batch": len(items), "setup_s": setup_s}
    try:
        loop = harness.LoopResult()
        with quiet():
            # a traced run spends half its budget untraced, for the overhead
            harness.timed_loop(items, passes(mod, seconds / 2 if trace else seconds),
                               corrupt, loop)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = [loop]
        if trace:
            tr = tracing.Tracer()
            tr.install()
            traced = harness.LoopResult(digests=loop.digests)
            tr.start()
            try:
                with quiet():
                    harness.timed_loop(items, TRACE_PASSES, corrupt, traced,
                                       on_item=lambda i: setattr(tr, "item", i))
            finally:
                tr.stop()
            loops.append(traced)
        with quiet():
            bad = harness.check_outputs(items, loops[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    reasons = {}
    for lp in loops:
        f, r = harness.count_failed(lp, bad)
        failed += f
        reasons.update(r)
    attempted = sum(lp.attempted for lp in loops)
    out.update(attempted=attempted, failed=failed, reasons=reasons,
               passes=loop.passes)
    lat = harness.at_reference_speed(loop, mod.SPEED_SENSITIVITY)
    out["items_per_s"] = harness.items_per_s(lat)
    out["latency_p50_ms"] = 1e3 * median(lat)
    p, v, beyond = harness.tail(lat)
    out["tail"] = (p, 1e3 * v, beyond, len(lat))
    out["latency_tail_ms"] = 1e3 * v
    out["unscaled"] = {"items_per_s": harness.items_per_s(loop.latencies),
                       "latency_p50_ms": 1e3 * median(loop.latencies),
                       "latency_tail_ms": 1e3 * harness.tail(loop.latencies)[1]}
    out["coverage_errors"] = []
    if trace:
        stats = tr.stats()
        # wall-clock rates of the two phases, neither scaled to reference speed
        ips_plain = harness.items_per_s(loop.latencies)
        ips_traced = harness.items_per_s(traced.latencies)
        stats["trace.items_per_s_untraced"] = ips_plain
        stats["trace.items_per_s_traced"] = ips_traced
        stats["trace.overhead_items_per_s"] = ips_plain - ips_traced
        stats["trace.overhead_share"] = 1.0 - ips_traced / ips_plain
        out["per_layer"] = stats
        out["coverage_errors"] = tracing.coverage_errors(stats, mod.EXPECTED_SPANS)
        spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
        tr.write(spans_path)
        out["spans_path"] = str(spans_path)
    return out


def setup_samples(workload: str, seed: int, first: tuple) -> list:
    """(unscaled, scaled) set-up times of this process plus SETUP_REPEATS - 1
    fresh processes."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at a tiny size, with and without "
                         "deliberately corrupted results")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not sources_present():
        print(f"error: no abconvex sources under {SRC} (or no {SHIPPED_SCENARIOS}); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # generated scenarios name their cost CSV files relative to the checkout
    # root, so that reports (and their byte counts) do not depend on where the
    # checkout lives
    os.chdir(ROOT)
    if args.self_test:
        import selftest

        return selftest.main(run_workload, WORKLOADS, END_TO_END, ROOT / "BENCHMARK.json")
    if args.workload is None:
        ap.error("--workload is required")

    if args.setup_only:
        *_, workdir, setup_raw, speed = setup(args.workload, args.seed, False, False)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": (setup_raw, setup_raw * speed)}))
        return 0

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    import harness

    mod = importlib.import_module(WORKLOADS[args.workload])
    print(f"workload {args.workload}: {mod.WHY}")
    print(f"machine {json.dumps(harness.machine(), sort_keys=True)}")
    print(f"closed loop, 1 caller: {res['passes']} passes x {res['batch']} items, "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for idx, reason in sorted(res["reasons"].items()):
        print(f"FAILED item {idx}: {reason}")
    failure_ratio = res["failed"] / res["attempted"]
    print(f"failure_ratio = {failure_ratio:.6g} ratio (lower is better)")
    correct = res["failed"] == 0 and not res["coverage_errors"]
    if args.trace:
        metrics = {k: {"value": v, "unit": tracer_unit(k)}
                   for k, v in res["per_layer"].items()}
        for err in res["coverage_errors"]:
            print(f"COVERAGE {err}")
        for k, v in res["per_layer"].items():
            print(f"{k} = {v:.6g} {tracer_unit(k)}")
        print(f"spans written to {res['spans_path']}")
    else:
        samples = setup_samples(args.workload, args.seed, res["setup_s"])
        res["setup_s"] = median(s[1] for s in samples)
        p, v, beyond, n = res["tail"]
        print(f"setup_s = {res['setup_s']:.6g} s (median of "
              f"{', '.join(f'{s[1]:.4f}' for s in samples)}; lower is better)")
        print(f"items_per_s = {res['items_per_s']:.6g} 1/s (higher is better)")
        print(f"latency_p50_ms = {res['latency_p50_ms']:.6g} ms (lower is better)")
        print(f"latency_tail_ms = {v:.6g} ms: p{p:g} of {n} samples, {beyond} beyond "
              f"(lower is better)")
        print(f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB (lower is better)")
        res["unscaled"]["setup_s"] = median(s[0] for s in samples)
        print("at this machine's speed, unscaled: " + json.dumps(res["unscaled"]))
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def tracer_unit(name: str) -> str:
    import tracer

    return tracer.UNITS[name.rsplit(".", 1)[1]]


if __name__ == "__main__":
    sys.exit(main())
