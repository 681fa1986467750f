"""small-corpus: a stream of acceptance-corpus-shaped instances, <= 50 points.

Why this workload: the kernels of large-grids run here at small n, where
per-call Python and validation overhead dominates and building the family's
DualGrid costs more than the report it feeds.  A change that helps large grids
by adding per-call work (blocking, a hull built in Python) shows up here as a
loss.  Every item builds its own metric space and DualGrid from raw arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import abconvex as ab
import refs
import wl_large
import wl_transport
from harness import Item

WHY = ("acceptance-shaped instances of <= 50 points, each building its own grid; "
       "per-call overhead and DualGrid construction dominate")

#: seconds one pass over the full batch took on the reference box when the
#: benchmark was defined; it fixes the pass count (see run.passes)
PASS_SECONDS = 0.2
#: how closely this workload's timing follows the calibration kernel's speed
#: (see harness.at_reference_speed)
SPEED_SENSITIVITY = 1.0

EXPECTED_SPANS = (
    "core.build_metric_space", "core.sub_up", "families.default_dual_grid",
    "families.conjugate_transform", "families.biconjugate", "families.peaking_witness",
    "families.urysohn_witness", "minimax.intersection_certificate",
    "lagrangian.duality_report", "lagrangian.build_lagrangian",
    "lagrangian.gap_certificate", "constrained.verify_zero_gap_metric",
    "constrained.metric_dual_grid", "constrained.metric_grid_sup",
    "transport.solve_transport", "transport.kantorovich_gap_report",
)

KINDS = ("duality", "conjugation", "envelope", "constrained", "witness", "transport")
PER_KIND = 20
TINY_PER_KIND = 2
FAMILIES = ("affine", "quad_minus", "quad_plus", "sigma_nu", "metric",
            "generalized_metric", "gauge")


def sizes(lo, hi, r, count):
    """The r-th of `count` sizes spread evenly over [lo, hi], and the size at
    the mirrored position: instance shapes are fixed, the seed draws values."""
    ladder = np.linspace(lo, hi, count).round().astype(int)
    return int(ladder[r]), int(ladder[count - 1 - r])


def generate(rng, tiny: bool) -> dict:
    data = {}
    count = TINY_PER_KIND if tiny else PER_KIND
    for i in range(count * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        r = i // len(KINDS)
        key = f"i{i}_"
        data[key + "kind"] = np.int64(KINDS.index(kind))
        if kind == "duality":
            n_x, n_y = sizes(2, 50, r, count)
            p = rng.normal(size=(n_x, n_y)) * float(rng.choice([0.5, 2.0, 10.0]))
            if r % 3 == 0:
                holes = rng.random(p.shape) < 0.25
                holes[rng.integers(n_x, size=n_y), np.arange(n_y)] = False
                p = np.where(holes, np.inf, p)
            data[key + "y"] = wl_large.spaced_line(rng, n_y)
            data[key + "p"] = p
            data[key + "y0"] = np.int64(rng.integers(n_y))
            data[key + "family"] = np.int64(r % 4)
            data[key + "signu"] = np.vstack([np.abs(rng.normal(size=n_y)),
                                             rng.normal(size=n_y)])
        elif kind == "conjugation":
            n = sizes(3, 50, r, count)[0]
            f = rng.normal(size=n) * float(rng.choice([0.5, 2.0]))
            if r % 3 == 0:
                f[rng.random(n) < 0.2] = np.inf
                f[rng.integers(n)] = rng.normal()
            data[key + "y"] = wl_large.spaced_line(rng, n)
            data[key + "f"] = f
            data[key + "family"] = np.int64(r % len(FAMILIES))
            data[key + "signu"] = np.vstack([np.abs(rng.normal(size=n)),
                                             rng.normal(size=n)])
            data[key + "shape"] = np.float64(rng.uniform(0.2, 1.0))
        elif kind == "envelope":
            n = sizes(2, 100, r, count)[0]
            data[key + "v"] = rng.normal(size=(2, n)) * float(rng.choice([0.5, 2.0]))
            data[key + "alpha"] = np.float64(rng.uniform(-2.0, 0.5))
        elif kind == "constrained":
            n_x, n_y = sizes(2, 20, r, count)
            f, mask, y0 = wl_large.constrained_arrays(rng, n_x, n_y)
            data[key + "y"] = wl_large.spaced_line(rng, n_y, min_gap=0.1)
            data[key + "f"], data[key + "mask"], data[key + "y0"] = f, mask, np.int64(y0)
        elif kind == "witness":
            n = sizes(2, 50, r, count)[0]
            data[key + "y"] = wl_large.spaced_line(rng, n)
            data[key + "y0"] = np.int64(rng.integers(n))
            data[key + "params"] = np.asarray([
                rng.uniform(0.01, 1.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 8.0),
                rng.uniform(0.2, 5.0), rng.integers(n), rng.normal(),
                rng.uniform(0.2, 1.0)])
        else:
            n, m = sizes(2, 20, r, count)
            cost, mu, nu = wl_transport.instance(rng, n, m, degenerate=False)
            data[key + "cost"], data[key + "mu"], data[key + "nu"] = cost, mu, nu
    return data


def load(data, tiny: bool) -> list:
    count = sum(1 for key in data if key.endswith("_kind"))
    makers = {"duality": _duality_item, "conjugation": _conj_item,
                "envelope": _envelope_item, "constrained": _constrained_item,
                "witness": _witness_item, "transport": _transport_item}
    items = []
    for i in range(count):
        key = f"i{i}_"
        kind = KINDS[int(data[key + "kind"])]
        items.append(makers[kind]({k[len(key):]: v for k, v in data.items()
                                     if k.startswith(key)}))
    return items


def _space(ys):
    return ab.build_metric_space(ys[:, None], validate="full")


def _sigma_nu(Y, signu):
    sigma, nu = signu[0].copy(), signu[1].copy()
    o = Y.origin_index()
    if o is not None:
        sigma[o] = nu[o] = 0.0
    return sigma, nu


def _family(name, Y, d):
    if name == "sigma_nu":
        sigma, nu = _sigma_nu(Y, d["signu"])
        return ab.ElemFamily.sigma_nu(Y, ab.GridFn(Y, sigma), ab.GridFn(Y, nu))
    if name == "generalized_metric":
        shape = ab.Sampled1D([0.0, 0.5, 2.0], [0.0, float(d["shape"]), 2.0])
        return ab.ElemFamily.generalized_metric(Y, shape, 2.0)
    if name == "gauge":
        return ab.ElemFamily.gauge(Y, "l2")
    return ab.ElemFamily(ab.FamilyKind(name), Y)


def _reference_E(fam, grid):
    """Member values from the family formulas, for the duality check."""
    Y = fam.domain
    params = [(p.a, p.ell, p.anchor) for p in grid.params_list]
    kw = {}
    if fam.kind == ab.FamilyKind.SIGMA_NU:
        kw = dict(sigma=fam.sigma.values, nu=fam.nu.values)
    return refs.member_values(fam.kind.value, Y.points, Y.dist, params, **kw)


def _duality_item(d):
    ys, p, y0 = d["y"], d["p"], int(d["y0"])
    name = ("affine", "quad_minus", "metric", "sigma_nu")[int(d["family"])]
    grid_kw = {"affine": dict(slope_count=7),
               "quad_minus": dict(slope_count=3, curvature_levels=3),
               "metric": dict(curvature_levels=3, max_anchors=6),
               "sigma_nu": dict(curvature_levels=4)}[name]

    def call():
        Y = _space(ys)
        prob = ab.PerturbationProblem(Y=Y, p=p, y0=y0)
        fam = _family(name, Y, d)
        V = None if name == "sigma_nu" else ab.GridFn(Y, p.min(axis=0))
        grid = ab.default_dual_grid(fam, V, **grid_kw)
        return ab.duality_report(prob, grid), fam, grid

    def check(out):
        rep, fam, grid = out
        return refs.check_duality(rep, p, _reference_E(fam, grid), y0)

    return Item(kind="duality", label=f"duality {name} {p.shape[0]}x{p.shape[1]}",
                call=call, check=check,
                observe=lambda out: wl_large.observe_report(out[0]),
                corrupt=lambda out: (wl_large.corrupt_report(out[0]),) + out[1:])


def _conj_item(d):
    ys, fvals = d["y"], d["f"]
    name = FAMILIES[int(d["family"])]

    def call():
        Y = _space(ys)
        f = ab.GridFn(Y, fvals)
        grid = ab.default_dual_grid(_family(name, Y, d), f)
        return ab.conjugate_transform(f, grid), ab.biconjugate(f, grid), grid

    def check(out):
        star, bi, grid = out
        bibi = ab.biconjugate(bi, grid)
        return refs.check_conjugation(star, bi.values, bibi.values, grid.matrix, fvals,
                                      list(range(grid.size)))

    return Item(kind="conjugation", label=f"conjugation {name} n={len(ys)}",
                call=call, check=check,
                observe=lambda out: (out[0], out[1].values),
                corrupt=lambda out: wl_large.corrupt_conjugation(out[:2]) + out[2:])


def _envelope_item(d):
    v, alpha = d["v"], float(d["alpha"])
    n = v.shape[1]
    return Item(kind="envelope", label=f"intersection_certificate n={n}",
                call=lambda: ab.intersection_certificate(ab.GridFn(n, v[0]),
                                                         ab.GridFn(n, v[1]), alpha),
                check=lambda cert: refs.check_envelope(cert, v[0], v[1], alpha),
                corrupt=wl_large.ic_corrupt(alpha))


def _constrained_item(d):
    ys, f, mask, y0 = d["y"], d["f"], d["mask"], int(d["y0"])
    ladder = wl_large.LADDER
    x = int(np.argmin(mask[:, y0]))

    def call():
        Y = _space(ys)
        cmap = ab.ConstraintMap(
            feasible=tuple(frozenset(np.flatnonzero(mask[:, y]).tolist())
                           for y in range(mask.shape[1])), n_x=f.shape[0])
        inst = ab.ConstrainedInstance(f=ab.GridFn(f.shape[0], f), map=cmap, Y=Y, y0=y0)
        return (ab.verify_zero_gap_metric(inst, ladder),
                [ab.metric_grid_sup(inst, x, ladder)], Y)

    return Item(kind="constrained", label=f"verify_zero_gap_metric {mask.shape[0]}x{mask.shape[1]}",
                call=call,
                check=lambda out: wl_large.check_constrained(out[0], out[1], [x], out[2], f,
                                                             mask, y0, list(ladder)),
                observe=lambda out: (wl_large.observe_report(out[0].duality),
                                     out[0].minimal_rung, out[1]),
                corrupt=wl_large.corrupt_constrained)


def _witness_item(d):
    ys, y0 = d["y"], int(d["y0"])
    eps, delta, K, g_a, g_anchor, g_c, shape = (float(v) for v in d["params"])
    generalized = len(ys) % 3 == 2
    g_ts, g_vs = np.array([0.0, 0.5, 2.0]), np.array([0.0, shape, 2.0])
    origin = int(np.flatnonzero(ys == 0.0)[0])

    def call():
        Y = _space(ys)
        if generalized:
            fam = ab.ElemFamily.generalized_metric(Y, ab.Sampled1D(g_ts, g_vs), 2.0)
        else:
            fam = ab.ElemFamily.metric(Y)
        g = ab.ElemParams(a=g_a, anchor=int(g_anchor), c=g_c)
        bar = ab.peaking_witness(fam, y0, eps, delta, K, g)
        ury_metric = ab.urysohn_witness(ab.ElemFamily.metric(Y), y0, eps, delta)
        ury_gauge = ab.urysohn_witness(ab.ElemFamily.gauge(Y), origin, eps, delta)
        return bar, ury_metric, ury_gauge, Y

    def check(out):
        bar, ury_m, ury_g, Y = out
        shape_fn = (lambda x: refs.shape_values(g_ts, g_vs, x)) if generalized \
            else (lambda x: x)
        g_vals = -g_a * shape_fn(Y.dist[int(g_anchor)]) + g_c
        err = refs.check_peaking(Y.dist, y0, eps, delta, K, g_vals, bar.a, bar.anchor,
                                 bar.c, shape_fn)
        if err:
            return err
        vals_m = -ury_m.a * Y.dist[ury_m.anchor] + ury_m.c
        err = refs.check_urysohn(vals_m, Y.dist, y0, eps, delta)
        if err:
            return "metric " + err
        ell = np.zeros(1) if ury_g.ell is None else ury_g.ell
        vals_g = -ury_g.a * refs.gauge(Y.points, "l2") + Y.points @ ell + ury_g.c
        err = refs.check_urysohn(vals_g, Y.dist, origin, eps, delta)
        return "gauge " + err if err else None

    def corrupt(out):
        bar = dataclasses.replace(out[0], c=out[0].c + 1.0)
        return (bar,) + out[1:]

    return Item(kind="witness", label=f"witnesses n={len(ys)}", call=call, check=check,
                observe=lambda out: tuple(dataclasses.astuple(w) for w in out[:3]),
                corrupt=corrupt)


def _transport_item(d):
    return wl_transport.transport_item(d["cost"], d["mu"], d["nu"])
