"""Independent references for the output checks.

Nothing here calls abconvex: member values are evaluated from their defining
formulas, duality values come from a plain per-row scan of the Lagrangian,
conjugates are recomputed in exact rational arithmetic, and the envelope and
transport optima come from scipy's HiGHS LP solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: the library's documented equality tolerance for duality identities
EQ_TOL = 1e-9


def member_values(kind, pts, dist, params, sigma=None, nu=None):
    """(len(params), n) values of family members at the grid points, from the
    family formulas; params are (a, ell, anchor) triples with offset 0."""
    rows = []
    sq = (pts * pts).sum(axis=1)
    for a, ell, anchor in params:
        if kind == "affine":
            v = pts @ np.asarray(ell)
        elif kind == "quad_minus":
            v = -a * sq + pts @ np.asarray(ell)
        elif kind == "sigma_nu":
            v = a * sigma + nu
        elif kind == "metric":
            v = -a * dist[anchor]
        else:
            raise ValueError(f"no reference formula for {kind}")
        rows.append(np.asarray(v, dtype=float))
    return np.vstack(rows)


def gauge(pts, norm):
    if norm == "l1":
        return np.abs(pts).sum(axis=1)
    if norm == "linf":
        return np.abs(pts).max(axis=1)
    return np.sqrt((pts * pts).sum(axis=1))


def shape_values(ts, vs, x):
    """Piecewise-linear shape through (ts, vs), extended by the last slope."""
    x = np.asarray(x, dtype=float)
    out = np.interp(x, ts, vs)
    slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
    return np.where(x > ts[-1], vs[-1] + slope * (x - ts[-1]), out)


def duality_values(p, E, y0):
    """(primal, dual, L, S) of L(x, j) = E[j, y0] - S[x, j] with the partial
    conjugate S[x, j] = max_y (E[j, y] - p[x, y]), one row x at a time."""
    n_x = p.shape[0]
    S = np.empty((n_x, E.shape[0]))
    with np.errstate(invalid="ignore"):
        for x in range(n_x):
            S[x] = (E - p[x][None, :]).max(axis=1)
        L = E[:, y0][None, :] - S
    return float(L.max(axis=1).min()), float(L.min(axis=0).max()), L, S


def close(a, b, rel=1e-12):
    """a == b for equal infinities, else |a - b| <= rel * max(1, |a|, |b|)."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_duality(rep, p, E, y0, full_scope=False):
    """Reasons the report is wrong, checked against a row-by-row recomputation."""
    primal, dual, L, S = duality_values(p, E, y0)
    rp, rd = rep.primal.as_float(), rep.dual.as_float()
    if not rd <= rp:
        return f"dual {rd!r} > primal {rp!r}"
    if rep.V_bidual_at_y0.as_float() != rd:
        return "dual != V**(y0) bit-for-bit"
    if not (close(rp, primal) and close(rd, dual)):
        return f"(primal, dual) = ({rp!r}, {rd!r}), reference ({primal!r}, {dual!r})"
    cert = rep.certificate
    if math.isfinite(primal) and rp - rd <= EQ_TOL:
        alpha = rp - 1e-6
        reachable = bool((L.min(axis=0) >= alpha).any())
        if reachable != (cert is not None):
            return f"certificate {'missing' if cert is None else 'spurious'}"
    elif cert is not None:
        return "certificate attached although the gap is open"
    if cert is not None and cert.t.lower_envelope_value < cert.t.level:
        return "certificate value below its level"
    if full_scope:
        holds = True
        with np.errstate(invalid="ignore"):
            for x in range(p.shape[0]):
                bid = (E - S[x][:, None]).max(axis=0)
                fin = np.isfinite(p[x])
                if (np.abs(bid[fin] - p[x][fin]) > EQ_TOL).any() or \
                        not np.isposinf(bid[~fin]).all():
                    holds = False
                    break
        if holds != rep.convexity_holds:
            return f"convexity_holds={rep.convexity_holds}, reference {holds}"
    return None


def _round_up(q: Fraction) -> float:
    """Smallest double >= q."""
    v = float(q)
    if Fraction(v) < q:
        v = math.nextafter(v, math.inf)
    return v


def exact_conjugate_rows(M, f, rows):
    """Upward-rounded max_x (M[j, x] - f[x]) for the given rows, exactly."""
    out = []
    fin = [Fraction(float(v)) if math.isfinite(v) else None for v in f]
    for j in rows:
        best = None
        for x, fx in enumerate(fin):
            if fx is None:       # f = +inf: the difference is -inf
                continue
            d = Fraction(float(M[j, x])) - fx
            if best is None or d > best:
                best = d
        out.append(-math.inf if best is None else _round_up(best))
    return np.asarray(out)


def check_conjugation(star, bi, bibi, M, f, rng_rows):
    """Biconjugate dominated by f, idempotent bit-for-bit, and conjugate rows
    equal to the exact upward-rounded values."""
    if not (bi <= f).all():
        return "biconjugate exceeds f"
    if not np.array_equal(bibi, bi):
        return "biconjugate is not idempotent bit-for-bit"
    ref = exact_conjugate_rows(M, f, rng_rows)
    if not np.array_equal(star[rng_rows], ref):
        return "conjugate differs from the exact upward-rounded value"
    return None


def envelope_max(v1, v2):
    """max over t in [0, 1] of min_x (v2 + t (v1 - v2)) by HiGHS, as (t, g)."""
    from scipy.optimize import linprog

    n = v1.shape[0]
    # variables (t, z); maximize z subject to z - t (v1 - v2) <= v2
    A = np.column_stack([-(v1 - v2), np.ones(n)])
    res = linprog(c=[0.0, -1.0], A_ub=A, b_ub=v2, bounds=[(0.0, 1.0), (None, None)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[0]), float(-res.fun)


def check_envelope(cert, v1, v2, alpha):
    _, best = envelope_max(v1, v2)
    scale = max(1.0, float(np.abs(v1).max()), float(np.abs(v2).max()))
    if cert is None:
        if best >= alpha + 1e-9 * scale:
            return f"no certificate, but the envelope reaches {best!r} >= {alpha!r}"
        return None
    t0 = cert.t0
    if not 0.0 <= t0 <= 1.0:
        return f"t0={t0!r} outside [0, 1]"
    lowest = min(float(b + t0 * (a - b)) for a, b in zip(v1.tolist(), v2.tolist()))
    if not close(lowest, cert.lower_envelope_value):
        return (f"lower_envelope_value {cert.lower_envelope_value!r}, plain min "
                f"over x at t0 gives {lowest!r}")
    if cert.lower_envelope_value < alpha:
        return "certificate below its level"
    if abs(cert.lower_envelope_value - best) > 1e-9 * scale:
        return f"envelope value {cert.lower_envelope_value!r}, LP optimum {best!r}"
    return None


def transport_optimum(cost, mu, nu):
    """Optimal coupling cost by HiGHS on the dense LP."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = cost.shape
    k = np.arange(n * m)
    rows = np.concatenate([k // m, n + k % m])
    A = coo_matrix((np.ones(2 * n * m), (rows, np.concatenate([k, k]))),
                   shape=(n + m, n * m)).tocsr()
    res = linprog(cost.ravel(), A_eq=A, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_transport(cost, mu, nu, value, q, psi, phi, audit):
    """The solve and audit of one instance, against HiGHS and the LP axioms."""
    ref = transport_optimum(cost, mu, nu)
    scale = max(1.0, abs(ref), float(np.abs(cost).max() * mu.sum()))
    if abs(value - ref) > 1e-9 * scale:
        return f"value {value!r}, HiGHS {ref!r}"
    mass = max(1.0, float(mu.sum()))
    if (q < 0).any() or np.abs(q.sum(axis=1) - mu).max() > 1e-9 * mass \
            or np.abs(q.sum(axis=0) - nu).max() > 1e-9 * mass:
        return "coupling is not a feasible plan"
    if abs(float((q * cost).sum()) - value) > 1e-9 * scale:
        return "value is not the coupling's cost"
    if (psi[:, None] + phi[None, :] - cost).max() > 1e-9 * max(1.0, np.abs(cost).max()):
        return "potentials are not dual feasible"
    if not audit.gap <= 1e-6:
        return f"audit gap {audit.gap!r} > 1e-6"
    if audit.slack_violations != 0:
        return f"{audit.slack_violations} slack violations"
    if abs(audit.dual - value) > 1e-9 * scale:
        return "audit and solve disagree on the optimal cost"
    return None


def check_peaking(dist, y0, eps, delta, K, g_vals, bar_a, bar_anchor, bar_c,
                  shape=lambda d: d):
    """bar_g <= eps everywhere and bar_g <= g - K where d(., y0) >= delta."""
    if bar_anchor != y0 or not bar_a > 0:
        return "peaking witness is not a cone anchored at y0"
    bar = -bar_a * shape(dist[y0]) + bar_c
    far = dist[y0] >= delta
    if not (bar <= eps).all():
        return "peaking witness exceeds eps"
    if (bar[far] > g_vals[far] - K).any():
        return "peaking witness not below g - K on the far set"
    return None


def check_urysohn(vals, dist, y0, eps, delta):
    near = dist[y0] < delta
    if not (vals[y0] > 1.0 - eps and (vals[near] <= 1.0).all()
            and (vals[~near] <= 0.0).all()):
        return "urysohn witness fails its three inequalities"
    return None
