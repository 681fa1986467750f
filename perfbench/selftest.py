"""Self-test of the benchmark: every workload at a tiny size.

For each workload it shows that
  * a clean run has failure_ratio 0,
  * a run whose results are deliberately corrupted (a perturbed transport
    value, a flipped CLI exit code, a shifted dual value, ...) has
    failure_ratio > 0, so the output checks catch wrong results,
  * a traced run enters every span the workload is expected to enter,
and that BENCHMARK.json names exactly the metrics the runs emit.  It prints
the machine it ran on.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import json
import harness
import tracer

SEED = 1
SECONDS = 0.05


def main(run_workload, workloads, end_to_end, spec_path) -> int:
    print(f"machine {json.dumps(harness.machine(), sort_keys=True)}")
    problems = []
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [m["name"] for m in spec["end_to_end"]] != list(end_to_end):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != tracer.metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_names()")
    for m in spec["per_layer"]:
        if m["unit"] != tracer.UNITS[m["name"].rsplit(".", 1)[1]]:
            problems.append(f"unit of {m['name']} differs from tracer.UNITS")

    for workload in workloads:
        clean = run_workload(workload, SEED, SECONDS, trace=False, tiny=True)
        bad = run_workload(workload, SEED, SECONDS, trace=False, tiny=True, corrupt=True)
        traced = run_workload(workload, SEED, SECONDS, trace=True, tiny=True)
        ratio_clean = clean["failed"] / clean["attempted"]
        ratio_bad = bad["failed"] / bad["attempted"]
        print(f"{workload}: clean failure_ratio {ratio_clean:.3g} "
              f"({clean['attempted']} attempted), corrupted failure_ratio "
              f"{ratio_bad:.3g} ({bad['attempted']} attempted), traced spans "
              f"missing {len(traced['coverage_errors'])}, tracing overhead "
              f"{traced['per_layer']['trace.overhead_share']:.3g}")
        if clean["failed"]:
            problems.append(f"{workload}: clean run failed: {clean['reasons']}")
        if traced["failed"]:
            problems.append(f"{workload}: traced run failed: {traced['reasons']}")
        if bad["failed"] == 0:
            problems.append(f"{workload}: corrupted results went unnoticed")
        elif len(bad["reasons"]) < bad["batch"]:
            caught = sorted(bad["reasons"])
            problems.append(f"{workload}: corruption caught on items {caught} only, "
                            f"of {bad['batch']}")
        problems.extend(f"{workload}: {e}" for e in traced["coverage_errors"])
        names = set(traced["per_layer"])
        if names != set(tracer.metric_names()):
            problems.append(f"{workload}: traced metrics differ from tracer.metric_names()")
        if set(end_to_end) - set(clean):
            problems.append(f"{workload}: untraced run lacks an end-to-end metric")

    for p in problems:
        print(f"SELF-TEST PROBLEM {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit("run it as: python3 perfbench/run.py --self-test")
