"""large-grids: seeded library calls at two or more sizes per dense kernel.

Why this workload: here the O(n^3) and O(n_x * P * n_y) materializations of
core (triangle check), lagrangian (partial-conjugate table), minimax (pairwise
crossing candidates) and constrained set both the time and the peak memory.
It bypasses cli and transport.  Sizes are fixed; the seed draws the values.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import abconvex as ab
import refs
from harness import Item

WHY = ("dense kernels at two or more sizes: triangle check, Lagrangian table, "
       "envelope candidates, metric zero gap, conjugation; bypasses cli and transport")

#: seconds one pass over the full batch took on the reference box when the
#: benchmark was defined; it fixes the pass count (see run.passes)
PASS_SECONDS = 0.95
#: how closely this workload's timing follows the calibration kernel's speed
#: (see harness.at_reference_speed)
SPEED_SENSITIVITY = 0.5

EXPECTED_SPANS = (
    "core.build_metric_space", "core.sub_up", "families.conjugate_transform",
    "families.biconjugate", "minimax.intersection_certificate", "lagrangian.duality_report",
    "lagrangian.build_lagrangian", "lagrangian.gap_certificate",
    "constrained.verify_zero_gap_metric", "constrained.metric_dual_grid",
    "constrained.metric_grid_sup",
)

# (n points) for build_metric_space(validate="full"): n = 400 materializes the
# 512 MB triangle tensor, which sets the workload's peak memory
BMS_SIZES = (200, 300, 400)
# (n_x, anchors, n_y, convexity_scope); P = 4 rungs x anchors multipliers
DR_SIZES = ((100, 75, 200, "full"), (150, 100, 200, "anchor"), (200, 150, 200, "anchor"))
# (n_x, n_y) constrained instances on a 9-rung ladder
VZG_SIZES = ((30, 45), (40, 60))
IC_SIZES = (200, 300, 400)
# (n points in the plane, metric anchors); P = 4 rungs x anchors members
CONJ_SIZES = ((800, 50), (1000, 100))
LADDER = tuple(2.0 ** k for k in range(9))

TINY = dict(bms=(12, 16), dr=((6, 4, 10, "full"), (8, 5, 12, "anchor")),
            vzg=((5, 6), (6, 8)), ic=(10, 20), conj=((30, 5), (40, 6)))


def spaced_line(rng, n, min_gap=0.05, max_gap=1.0):
    pts = np.concatenate([[0.0], np.cumsum(rng.uniform(min_gap, max_gap, n - 1))])
    return pts - pts[rng.integers(n)]


def constrained_arrays(rng, n_x, n_y):
    """Objective, feasibility mask (every A(y) nonempty) and y0."""
    f = rng.uniform(-5.0, 5.0, n_x)
    mask = rng.random((n_x, n_y)) < 0.3
    for y in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_x), y] = True
    return f, mask, int(rng.integers(n_y))


def _sizes(tiny: bool) -> dict:
    return TINY if tiny else dict(bms=BMS_SIZES, dr=DR_SIZES, vzg=VZG_SIZES,
                                  ic=IC_SIZES, conj=CONJ_SIZES)


def generate(rng, tiny: bool) -> dict:
    sizes = _sizes(tiny)
    data = {}
    for k, n in enumerate(sizes["bms"]):
        data[f"bms{k}_pts"] = rng.uniform(-1.0, 1.0, (n, 2))
    for k, (n_x, _, n_y, _) in enumerate(sizes["dr"]):
        p = rng.normal(size=(n_x, n_y)) * float(rng.choice([0.5, 2.0, 10.0]))
        holes = rng.random(p.shape) < 0.1
        holes[rng.integers(n_x, size=n_y), np.arange(n_y)] = False
        data[f"dr{k}_y"] = spaced_line(rng, n_y)
        data[f"dr{k}_p"] = np.where(holes, np.inf, p)
        data[f"dr{k}_y0"] = np.int64(rng.integers(n_y))
    for k, (n_x, n_y) in enumerate(sizes["vzg"]):
        f, mask, y0 = constrained_arrays(rng, n_x, n_y)
        data[f"vzg{k}_y"] = spaced_line(rng, n_y, min_gap=0.1)
        data[f"vzg{k}_f"], data[f"vzg{k}_mask"], data[f"vzg{k}_y0"] = f, mask, np.int64(y0)
    for k, n in enumerate(sizes["ic"]):
        data[f"ic{k}_v"] = rng.normal(size=(2, n)) * float(rng.choice([0.5, 2.0]))
        data[f"ic{k}_alpha"] = np.float64(rng.uniform(-2.5, -0.5))
    for k, (n, _) in enumerate(sizes["conj"]):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        data[f"conj{k}_pts"] = pts
        data[f"conj{k}_f"] = (pts * pts).sum(axis=1) + rng.normal(size=n) * 0.1
    return data


def _metric_E(Y, grid):
    return refs.member_values("metric", Y.points, Y.dist,
                              [(p.a, None, p.anchor) for p in grid.params_list])


def load(data, tiny: bool) -> list:
    sizes = _sizes(tiny)
    items = []
    for k in range(len(sizes["bms"])):
        items.append(_bms_item(data[f"bms{k}_pts"]))
    for k, (_, anchors, _, scope) in enumerate(sizes["dr"]):
        items.append(_dr_item(data[f"dr{k}_y"], data[f"dr{k}_p"], int(data[f"dr{k}_y0"]),
                              anchors, scope))
    for k in range(len(sizes["vzg"])):
        items.append(_vzg_item(data[f"vzg{k}_y"], data[f"vzg{k}_f"], data[f"vzg{k}_mask"],
                               int(data[f"vzg{k}_y0"]), LADDER))
    for k in range(len(sizes["ic"])):
        items.append(_ic_item(data[f"ic{k}_v"], float(data[f"ic{k}_alpha"])))
    for k, (_, anchors) in enumerate(sizes["conj"]):
        items.append(_conj_item(data[f"conj{k}_pts"], data[f"conj{k}_f"], anchors))
    return items


def _bms_item(pts):
    from scipy.spatial.distance import cdist

    def check(space):
        ref = cdist(pts, pts)
        if space.dist.shape != ref.shape or np.abs(space.dist - ref).max() > 1e-12:
            return "distances differ from scipy's cdist"
        if not np.array_equal(space.points, pts):
            return "points changed"
        return None

    return Item(kind="build_metric_space", label=f"build_metric_space n={len(pts)}",
                call=lambda: ab.build_metric_space(pts, validate="full"),
                check=check, observe=lambda s: s.dist,
                corrupt=lambda s: dataclasses.replace(s, dist=s.dist * (1.0 + 1e-9)))


def corrupt_report(rep):
    """A duality report whose dual value is off by a small amount."""
    return dataclasses.replace(rep, dual=ab.ExtReal(rep.dual.as_float() - 1e-3))


def observe_report(rep):
    return (rep.primal, rep.dual, rep.gap, rep.V_star, rep.V_bidual_at_y0,
            rep.reconstruction_ok, rep.convexity_holds, rep.certificate)


def _dr_item(ys, p, y0, anchors, scope):
    Y = ab.build_metric_space(ys[:, None], validate="fast")
    prob = ab.PerturbationProblem(Y=Y, p=p, y0=y0)
    V = ab.GridFn(Y, p.min(axis=0))
    grid = ab.default_dual_grid(ab.ElemFamily.metric(Y), V, curvature_levels=3,
                                max_anchors=anchors)
    E = _metric_E(Y, grid)
    return Item(kind="duality_report",
                label=f"duality_report {p.shape[0]}x{grid.size}x{p.shape[1]} {scope}",
                call=lambda: ab.duality_report(prob, grid, convexity_scope=scope),
                check=lambda rep: refs.check_duality(rep, p, E, y0, scope == "full"),
                observe=observe_report, corrupt=corrupt_report)


def grid_sup_reference(dist, f, mask, y0, x, ladder):
    """max over anchors k of -a d(y0, k) + f(x) + a min_{y in G(x)} d(y, k)."""
    G = np.flatnonzero(mask[x])
    if G.size == 0:
        return np.full(len(ladder), np.inf)
    to_G = dist[G].min(axis=0)          # min_{y in G(x)} d(y, k), per anchor k
    return np.asarray([float(np.max(-a * dist[y0] + f[x] + a * to_G)) for a in ladder])


def check_constrained(rep, sups, xs, Y, f, mask, y0, ladder):
    p = np.where(mask, f[:, None], np.inf)
    E = refs.member_values("metric", Y.points, Y.dist,
                           [(a, None, k) for k in range(Y.n) for a in ladder])
    err = refs.check_duality(rep.duality, p, E, y0)
    if err:
        return err
    feas = f[mask[:, y0]]
    ref_value = float(feas.min()) if feas.size else np.inf
    if rep.constrained_value.as_float() != ref_value:
        return "constrained value is not min f over A(y0)"
    for x, got in zip(xs, sups):
        ref = grid_sup_reference(Y.dist, f, mask, y0, x, ladder)
        if not all(refs.close(a, b, 1e-9) for a, b in zip(got, ref)):
            return f"metric_grid_sup at x={x} differs from the closed form"
    return None


def _vzg_item(ys, f, mask, y0, ladder):
    Y = ab.build_metric_space(ys[:, None], validate="fast")
    n_x = f.shape[0]
    cmap = ab.ConstraintMap(
        feasible=tuple(frozenset(np.flatnonzero(mask[:, y]).tolist())
                       for y in range(mask.shape[1])), n_x=n_x)
    inst = ab.ConstrainedInstance(f=ab.GridFn(n_x, f), map=cmap, Y=Y, y0=y0)
    # one argument feasible at y0 and one infeasible (when the instance has both)
    xs = sorted({int(np.argmax(mask[:, y0])), int(np.argmin(mask[:, y0]))})

    def call():
        rep = ab.verify_zero_gap_metric(inst, ladder)
        return rep, [ab.metric_grid_sup(inst, x, ladder) for x in xs]

    return Item(kind="verify_zero_gap_metric",
                label=f"verify_zero_gap_metric {n_x}x{Y.n} ladder={len(ladder)}",
                call=call,
                check=lambda out: check_constrained(out[0], out[1], xs, Y, f, mask, y0,
                                                    sorted(ladder)),
                observe=lambda out: (observe_report(out[0].duality),
                                     out[0].constrained_value, out[0].minimal_rung,
                                     out[0].proof_bound, out[1]),
                corrupt=corrupt_constrained)


def corrupt_constrained(out):
    rep = out[0]
    return (dataclasses.replace(rep, duality=corrupt_report(rep.duality)),) + tuple(out[1:])


def ic_corrupt(alpha):
    def corrupt(cert):
        if cert is None:
            return ab.TCertificate(t0=0.0, level=alpha, lower_envelope_value=alpha)
        return dataclasses.replace(cert, lower_envelope_value=cert.lower_envelope_value
                                   + 1e-6)
    return corrupt


def _ic_item(v, alpha):
    phi1, phi2 = ab.GridFn(v.shape[1], v[0]), ab.GridFn(v.shape[1], v[1])
    return Item(kind="intersection_certificate",
                label=f"intersection_certificate n={v.shape[1]}",
                call=lambda: ab.intersection_certificate(phi1, phi2, alpha),
                check=lambda cert: refs.check_envelope(cert, v[0], v[1], alpha),
                corrupt=ic_corrupt(alpha))


def conj_rows(P, count=16):
    return sorted(set(np.linspace(0, P - 1, min(P, count)).round().astype(int).tolist()))


def corrupt_conjugation(out):
    star, bi = out
    star = star.copy()
    star[0] = np.nextafter(star[0], -np.inf)
    return star, bi


def conjugation_item(f, grid, label):
    """conjugate_transform then biconjugate of one function on one grid."""
    def check(out):
        star, bi = out
        bibi = ab.biconjugate(bi, grid)
        return refs.check_conjugation(star, bi.values, bibi.values, grid.matrix,
                                      f.values, conj_rows(grid.size))

    return Item(kind="conjugation", label=label,
                call=lambda: (ab.conjugate_transform(f, grid), ab.biconjugate(f, grid)),
                check=check, observe=lambda out: (out[0], out[1].values),
                corrupt=corrupt_conjugation)


def _conj_item(pts, fvals, anchors):
    Y = ab.build_metric_space(pts, validate="fast")
    f = ab.GridFn(Y, fvals)
    grid = ab.default_dual_grid(ab.ElemFamily.metric(Y), f, curvature_levels=3,
                                max_anchors=anchors)
    return conjugation_item(f, grid, f"conjugation n={Y.n} P={grid.size}")
