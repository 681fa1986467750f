"""cli-scenarios: the paper-experiment entry point, scenario file to report file.

Why this workload: this is how a researcher runs the paper's experiments.  The
cli layer (schema validation, JSON in and out) dominates here and every heavy
kernel is bypassed: all grids are small.  The corpus is the shipped scenarios
plus seeded small variants of all seven kinds, each run in-process through
`abconvex.cli.run_scenario` with its report written to a file.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

import abconvex.cli as cli
import refs
import wl_large
import wl_transport
from harness import Item

WHY = ("shipped scenarios plus seeded small variants of all seven kinds through "
       "run_scenario; schema validation and JSON I/O dominate, kernels are tiny")

#: seconds one pass over the full batch took on the reference box when the
#: benchmark was defined; it fixes the pass count (see run.passes)
PASS_SECONDS = 2.2
#: how closely this workload's timing follows the calibration kernel's speed
#: (see harness.at_reference_speed)
SPEED_SENSITIVITY = 1.0

EXPECTED_SPANS = (
    "cli.run_scenario", "cli.validate_scenario", "core.build_metric_space",
    "core.sub_up", "families.default_dual_grid", "families.conjugate_transform",
    "families.biconjugate", "families.peaking_witness", "families.urysohn_witness",
    "lagrangian.duality_report", "lagrangian.build_lagrangian",
    "lagrangian.gap_certificate", "constrained.verify_zero_gap_metric",
    "constrained.metric_dual_grid", "transport.solve_transport",
    "transport.kantorovich_gap_report",
)

#: exit code of each shipped scenario, from the README's exit-code contract
SHIPPED = {
    "certify_vee_down_fail.json": 3, "certify_vee_up.json": 0, "conic_small.json": 0,
    "conjugate_abs.json": 0, "constrained_2x2.json": 0, "gap_refinement.json": 0,
    "gap_vee_down.json": 0, "gap_vee_up.json": 0, "peaking_demo.json": 0,
    "transport_2x2.json": 0,
}

# generated variants per kind (full run, tiny self-test run); the k-th variant
# of a kind has a fixed shape, and the seed draws its values.  With the 10
# shipped scenarios the batch is odd (45), so the median's rank falls inside
# one scenario's samples rather than on the edge between two scenarios
COUNTS = {"gap": 6, "certify": 6, "conjugate": 6, "constrained": 4, "transport": 6,
          "conic": 3, "peaking": 4}
TINY_COUNTS = {k: 1 for k in COUNTS}
CONJ_FAMILIES = ("affine", "quad_minus", "quad_plus", "metric", "gauge", "sigma_nu")


def _points(ys):
    return [[float(v)] for v in ys]


def _ext(v):
    return "+inf" if v == math.inf else float(v)


def _gap(rng, k):
    n_y = 5 + 7 * k          # 5 .. 40 points
    n_x = 1 + 2 * k
    ys = wl_large.spaced_line(rng, n_y)
    p = rng.normal(size=(n_x, n_y)) * 2.0
    fam = {"kind": "affine", "auto": {"slope_count": 7}} if k % 2 == 0 else \
        {"kind": "metric", "auto": {"curvature_levels": 3, "max_anchors": 6}}
    sc = {"kind": "gap", "domain": {"points": _points(ys)},
          "p": [[float(v) for v in row] for row in p], "y0": int(rng.integers(n_y)),
          "family": fam}
    if k % 3 == 0:
        sc["convexity_scope"] = "full"
    return sc, 0


def _certify(rng, k):
    """Affine multipliers listed explicitly, so that the expected outcome comes
    from an independent evaluation of the Lagrangian: a level between the dual
    and the primal value has no certificate (exit 3), one below the dual has."""
    n_y = 5 + 3 * k
    ys = wl_large.spaced_line(rng, n_y)
    y0 = int(rng.integers(n_y))
    if k % 2 == 0:   # vee-down rows: V = -|y - y0| has a duality gap at y0
        s = rng.uniform(0.5, 2.0)
        p = np.vstack([s * (ys - ys[y0]), -s * (ys - ys[y0])])
    else:
        p = rng.normal(size=(1 + k // 2, n_y))
    slopes = [float(v) for v in np.linspace(-4.0, 4.0, 9)]
    E = refs.member_values("affine", ys[:, None], None, [(0.0, [s], None) for s in slopes])
    primal, dual, _, _ = refs.duality_values(p, E, y0)
    if primal - dual > 1e-3:
        alpha, code = 0.5 * (primal + dual), 3
    else:
        alpha, code = dual - 0.5, 0
    sc = {"kind": "certify", "domain": {"points": _points(ys)},
          "p": [[float(v) for v in row] for row in p], "y0": y0,
          "family": {"kind": "affine", "params": [{"ell": [s]} for s in slopes]},
          "alpha": float(alpha)}
    return sc, code


def _conjugate(rng, k):
    n = 5 + 5 * k
    ys = wl_large.spaced_line(rng, n)
    f = rng.normal(size=n)
    f[3::7] = np.inf
    kind = CONJ_FAMILIES[k % len(CONJ_FAMILIES)]
    fam = {"kind": kind}
    if kind == "sigma_nu":
        sigma, nu = np.abs(rng.normal(size=n)), rng.normal(size=n)
        zero = np.flatnonzero(ys == 0.0)
        sigma[zero] = nu[zero] = 0.0
        fam.update(sigma=[float(v) for v in sigma], nu=[float(v) for v in nu])
    if kind == "metric":
        fam["auto"] = {"max_anchors": 8}
    sc = {"kind": "conjugate", "domain": {"points": _points(ys)},
          "function": [_ext(v) for v in f], "family": fam}
    return sc, 0


def _constrained(rng, k):
    n_x, n_y = 4 + 2 * k, 10 - 2 * k
    f, mask, y0 = wl_large.constrained_arrays(rng, n_x, n_y)
    sc = {"kind": "constrained",
          "domain": {"points": _points(wl_large.spaced_line(rng, n_y, min_gap=0.1))},
          "f": [float(v) for v in f],
          "A": [np.flatnonzero(mask[:, y]).tolist() for y in range(n_y)], "y0": y0,
          "ladder": [2.0 ** j for j in range(9)]}
    return sc, 0


def _transport(rng, k, csv_dir: Path):
    cost, mu, nu = wl_transport.instance(rng, 5 + 3 * k, 20 - 3 * k, degenerate=False)
    sc = {"kind": "transport", "mu": [float(v) for v in mu], "nu": [float(v) for v in nu]}
    if k % 2:
        path = csv_dir / f"cost{k}.csv"
        np.savetxt(path, cost, delimiter=",", fmt="%.17g")
        sc["cost_csv"] = os.path.relpath(path)
    else:
        sc["cost"] = [[float(v) for v in row] for row in cost]
    return sc, 0


def _conic(rng, k):
    n = 3 + 4 * k
    pi = rng.uniform(0.0, 3.0, n)
    if k % 2:
        pi[rng.integers(n)] = -1.0
    return {"kind": "conic", "pi": [float(v) for v in pi],
            "c": [float(v) for v in rng.normal(size=n)]}, 0


def _peaking(rng, k):
    """Metric cones always admit peaking and Urysohn witnesses (the cone shape
    is positive off the anchor), so every draw must verify: exit 0."""
    n = 5 + 5 * k
    sc = {"kind": "peaking", "domain": {"points": _points(wl_large.spaced_line(rng, n))},
          "y0": int(rng.integers(n)), "family": {"kind": "metric"},
          "eps": float(rng.uniform(0.05, 1.0)), "delta": float(rng.uniform(0.1, 1.5)),
          "K": float(rng.uniform(0.1, 5.0)),
          "g": {"a": float(rng.uniform(0.5, 4.0)), "anchor": int(rng.integers(n)),
                "c": float(rng.normal())},
          "urysohn": True, "draws": 5, "seed": int(rng.integers(2 ** 31))}
    return sc, 0


def generate(rng, workdir: Path, tiny: bool) -> None:
    """Write the generated scenarios and an index of expected exit codes."""
    scen_dir, csv_dir = workdir / "scenarios", workdir / "csv"
    scen_dir.mkdir(parents=True, exist_ok=True)
    csv_dir.mkdir(parents=True, exist_ok=True)
    makers = {"gap": _gap, "certify": _certify, "conjugate": _conjugate,
              "constrained": _constrained, "conic": _conic, "peaking": _peaking,
              "transport": lambda r, k: _transport(r, k, csv_dir)}
    index = {}
    for kind, count in (TINY_COUNTS if tiny else COUNTS).items():
        for k in range(count):
            sc, code = makers[kind](rng, k)
            path = scen_dir / f"{kind}_{k}.json"
            path.write_text(json.dumps(sc, indent=1), encoding="utf-8")
            index[str(path)] = code
    (workdir / "expected.json").write_text(json.dumps(index, indent=1), encoding="utf-8")


def load(workdir: Path, shipped_dir: Path, tiny: bool) -> list:
    expected = {str(shipped_dir / name): code for name, code in SHIPPED.items()}
    expected.update(json.loads((workdir / "expected.json").read_text(encoding="utf-8")))
    reports = workdir / "reports"
    reports.mkdir(exist_ok=True)
    items = [scenario_item(Path(path), code, reports) for path, code in expected.items()]
    # one item of each kind first, so that warm-up covers every runner
    first = {}
    for it in items:
        first.setdefault(it.kind, it)
    head = list(first.values())
    return head + [it for it in items if all(it is not h for h in head)]


def _ext_value(v):
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v["finite"]) if isinstance(v, dict) else float(v)


def check_report(sc: dict, report: dict):
    """Semantic checks of a report against its scenario."""
    r = report["results"]
    kind = sc["kind"]
    if kind == "gap" and "canonical" not in sc:
        primal, dual = _ext_value(r["primal"]), _ext_value(r["dual"])
        if not dual <= primal:
            return "report has dual > primal"
        if _ext_value(r["V_bidual_at_y0"]) != dual:
            return "report has dual != V**(y0)"
    elif kind == "conjugate":
        f = [_ext_value(v) for v in sc["function"]]
        if any(b > fv for b, fv in zip((_ext_value(v) for v in r["biconjugate"]), f)):
            return "report has biconjugate above the function"
    elif kind == "transport":
        if "cost_csv" in sc:
            cost = np.loadtxt(sc["cost_csv"], delimiter=",", ndmin=2)
        else:
            cost = np.asarray(sc["cost"], dtype=float)
        mu, nu = np.asarray(sc["mu"], dtype=float), np.asarray(sc["nu"], dtype=float)
        ref = refs.transport_optimum(cost, mu, nu)
        if abs(r["value"] - ref) > 1e-9 * max(1.0, abs(ref), float(cost.max() * mu.sum())):
            return f"report value {r['value']!r}, HiGHS {ref!r}"
        if not r["gap"] <= 1e-6 or r["slack_violations"] != 0:
            return "report fails its strong-duality audit"
    return None


def scenario_item(path: Path, expected: int, reports: Path) -> Item:
    sc = json.loads(path.read_text(encoding="utf-8"))
    out_path = reports / f"{path.parent.name}_{path.name}"
    again_path = reports / f"{path.parent.name}_again_{path.name}"

    def observe(code):
        return code, (out_path.read_bytes() if code in (0, 3) else None)

    def check(code):
        if code != expected:
            return f"exit code {code}, expected {expected}"
        first = out_path.read_bytes()
        if cli.run_scenario(str(path), out=str(again_path)) != code:
            return "a second run gave another exit code"
        if again_path.read_bytes() != first:
            return "two runs gave different report bytes"
        return check_report(sc, json.loads(first))

    return Item(kind=sc["kind"], label=f"scenario {path.name}",
                call=lambda: cli.run_scenario(str(path), out=str(out_path)),
                check=check, observe=observe,
                corrupt=lambda code: 3 if code == 0 else 0)
