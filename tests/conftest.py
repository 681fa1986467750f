"""Shared generators and independent brute-force oracles."""

import itertools

import numpy as np

from abconvex import (
    ConstrainedInstance,
    ConstraintMap,
    ElemFamily,
    ElemParams,
    ExtReal,
    GridFn,
    PerturbationProblem,
    TCertificate,
    TransportProblem,
    build_constrained_perturbation,
    build_metric_space,
    default_dual_grid,
    eval_on_domain,
    metric_dual_grid,
)
from abconvex.core import METRIC_TOL, sub_up
from abconvex.minimax import envelope_candidates


def same_bits(a, b):
    """Equal shapes and equal raw bytes: bit identity, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_certificate(a, b):
    """Both None, or certificates with bit-identical t0, level and value."""
    if a is None or b is None:
        return a is None and b is None
    return (same_bits(a.t0, b.t0) and same_bits(a.level, b.level)
            and same_bits(a.lower_envelope_value, b.lower_envelope_value))


def line_space(points, validate="full"):
    return build_metric_space(np.asarray(points, dtype=float)[:, None],
                              validate=validate)


def spaced_line(rng, n, min_gap=0.05, max_gap=1.0):
    """1-D metric space with a guaranteed minimum spacing."""
    gaps = rng.uniform(min_gap, max_gap, size=n - 1)
    pts = np.concatenate([[0.0], np.cumsum(gaps)])
    pts -= pts[rng.integers(n)]
    return build_metric_space(pts[:, None], validate="fast")


def random_dual_grid(rng, Y, V=None, kind=None):
    kinds = ["affine", "quad_minus", "metric", "sigma_nu"]
    kind = kind or kinds[rng.integers(len(kinds))]
    if kind == "affine":
        fam = ElemFamily.affine(Y)
        return default_dual_grid(fam, V, slope_count=7)
    if kind == "quad_minus":
        fam = ElemFamily.quad_minus(Y)
        return default_dual_grid(fam, V, slope_count=3, curvature_levels=3)
    if kind == "metric":
        fam = ElemFamily.metric(Y)
        return default_dual_grid(fam, V, curvature_levels=3, max_anchors=6)
    sigma, nu = random_sigma_nu(rng, Y)
    fam = ElemFamily.sigma_nu(Y, sigma, nu)
    return default_dual_grid(fam, curvature_levels=4)


def random_sigma_nu(rng, Y):
    """Random sigma/nu pair honoring the vanish-at-origin constraint."""
    sigma = np.abs(rng.normal(size=Y.n))
    nu = rng.normal(size=Y.n)
    o = Y.origin_index()
    if o is not None:
        sigma[o] = 0.0
        nu[o] = 0.0
    return GridFn(Y, sigma), GridFn(Y, nu)


def random_perturbation(rng, max_x=50, max_y=50, inf_prob=0.3):
    """A random proper perturbation table with a mixed-family multiplier grid."""
    n_x = int(rng.integers(1, max_x + 1))
    n_y = int(rng.integers(2, max_y + 1))
    Y = spaced_line(rng, n_y)
    scale = float(rng.choice([0.5, 2.0, 10.0]))
    p = rng.normal(size=(n_x, n_y)) * scale
    if rng.random() < inf_prob:
        mask = rng.random(size=p.shape) < 0.25
        p = np.where(mask, np.inf, p)
        for y in np.flatnonzero(~np.isfinite(p).any(axis=0)):
            p[rng.integers(n_x), y] = rng.normal() * scale
    y0 = int(rng.integers(n_y))
    prob = PerturbationProblem(Y=Y, p=p, y0=y0)
    V = GridFn(Y, p.min(axis=0))
    grid = random_dual_grid(rng, Y, V)
    return prob, grid


def random_constrained(rng, max_x=20, max_y=20):
    """Feasible, bounded constrained instance (y0 admits a finite objective)."""
    n_x = int(rng.integers(1, max_x + 1))
    n_y = int(rng.integers(2, max_y + 1))
    Y = spaced_line(rng, n_y, min_gap=0.1)
    f = rng.uniform(-5.0, 5.0, size=n_x)
    sets = []
    for y in range(n_y):
        size = int(rng.integers(1, n_x + 1))
        sets.append(frozenset(rng.choice(n_x, size=size, replace=False).tolist()))
    y0 = int(rng.integers(n_y))
    cmap = ConstraintMap(feasible=tuple(sets), n_x=n_x)
    return ConstrainedInstance(f=GridFn(n_x, f), map=cmap, Y=Y, y0=y0)


def random_transport(rng, max_n=50, max_m=50):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    return generic_transport(rng, n, m)


def generic_transport(rng, n, m):
    """Real costs and positive real marginals: no ties in practice."""
    cost = rng.uniform(0.0, 10.0, size=(n, m))
    mu = rng.uniform(0.1, 1.0, size=n)
    nu = rng.uniform(0.1, 1.0, size=m)
    mu *= nu.sum() / mu.sum()
    return TransportProblem(cost=cost, mu=mu, nu=nu)


def degenerate_transport(rng, n, m):
    """Small integer costs and integer marginals: ties and zero basics."""
    mu = rng.integers(0, 4, n).astype(float)
    mu[0] += 1.0
    nu = rng.multinomial(int(mu.sum()), np.full(m, 1.0 / m)).astype(float)
    return TransportProblem(cost=rng.integers(0, 10, (n, m)).astype(float),
                            mu=mu, nu=nu)


# ---------------------------------------------------------------------------
# independent oracles (plain loops, no shared code paths with the library)
# ---------------------------------------------------------------------------

def brute_conjugate(member_values, f_values):
    """sup_x (phi(x) - f(x)) by direct scan."""
    out = []
    for row in member_values:
        best = -np.inf
        for phi, fv in zip(row, f_values):
            best = max(best, phi - fv)
        out.append(best)
    return np.asarray(out)


def brute_biconjugate(member_values, f_values):
    star = brute_conjugate(member_values, f_values)
    out = []
    for x in range(len(f_values)):
        best = -np.inf
        for j in range(len(star)):
            best = max(best, member_values[j][x] - star[j])
        out.append(best)
    return np.asarray(out)


def brute_duality_values(p, member_values, y0):
    """(primal, dual) by direct triple loops over the tables."""
    n_x, n_y = p.shape
    P = len(member_values)
    L = np.empty((n_x, P))
    for x in range(n_x):
        for j in range(P):
            s = -np.inf
            for y in range(n_y):
                s = max(s, member_values[j][y] - p[x, y])
            L[x, j] = member_values[j][y0] - s
    primal = min(max(L[x, j] for j in range(P)) for x in range(n_x))
    dual = max(min(L[x, j] for x in range(n_x)) for j in range(P))
    return primal, dual


def lower_convex_envelope_1d(xs, fs):
    """Values at xs of the lower convex envelope of the sample points."""
    n = len(xs)
    out = np.full(n, np.inf)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                if xs[a] <= xs[i] <= xs[b] and xs[b] > xs[a]:
                    t = (xs[i] - xs[a]) / (xs[b] - xs[a])
                    out[i] = min(out[i], (1 - t) * fs[a] + t * fs[b])
        if not np.isfinite(out[i]):
            out[i] = fs[i]
    return out


def transport_vertex_oracle(cost, mu, nu, feas_tol=1e-9):
    """Exhaustive basic-feasible-solution enumeration of the transport polytope."""
    n, m = cost.shape
    cells = list(itertools.product(range(n), range(m)))
    k = n + m - 1
    best = np.inf
    rows = n + m
    for subset in itertools.combinations(cells, k):
        A = np.zeros((rows, k))
        for col, (i, j) in enumerate(subset):
            A[i, col] = 1.0
            A[n + j, col] = 1.0
        b = np.concatenate([mu, nu])
        A_red, b_red = A[:-1], b[:-1]
        if np.linalg.matrix_rank(A_red) < k:
            continue
        q, *_ = np.linalg.lstsq(A_red, b_red, rcond=None)
        if np.abs(A @ q - b).max() > 1e-7:
            continue
        if q.min() < -feas_tol:
            continue
        best = min(best, sum(qq * cost[i, j] for qq, (i, j) in zip(q, subset)))
    return best


# ---------------------------------------------------------------------------
# the Lagrangian reductions as written before they shared one partial-conjugate
# kernel, kept as oracles the kernel's callers must match bit for bit: copied
# as they were, except that duality_report and verify_zero_gap_metric keep only
# the values they derive from the table, and EQ_TOL is spelled out
# ---------------------------------------------------------------------------

def old_partial_conjugate_matrix(prob, psi_grid):
    """S[x, j] = sup_y (psi_j(y) - p(x, y)); -inf exactly on empty rows."""
    E = psi_grid.matrix  # (P, n_y)
    with np.errstate(invalid="ignore"):
        diff = E[None, :, :] - prob.p[:, None, :]
    return diff.max(axis=2)


def old_partial_conjugate(prob, x, family, params):
    """sup over the parameter grid of psi(y) - p(x, y) for one multiplier."""
    vals = eval_on_domain(family, params)
    with np.errstate(invalid="ignore"):
        out = (vals - prob.p[x]).max()
    return ExtReal(float(out))


def old_lagrangian(prob, psi_grid):
    """L(x, psi) = psi(y0) - p*_x(psi) for every multiplier on the grid."""
    S = old_partial_conjugate_matrix(prob, psi_grid)
    E0 = psi_grid.matrix[:, prob.y0]
    with np.errstate(invalid="ignore"):
        L = E0[None, :] - S
    return L


def old_full_convexity_holds(prob, psi_grid, S):
    """Whether every p(x, .) equals its grid biconjugate on all of Y (1e-9)."""
    E = psi_grid.matrix
    with np.errstate(invalid="ignore"):
        bidual = (E[None, :, :] - S[:, :, None]).max(axis=1)
    p = prob.p
    finite = np.isfinite(p)
    ok_fin = np.abs(bidual[finite] - p[finite]).max(initial=0.0) <= 1e-9
    inf_cells = ~finite
    ok_inf = np.isposinf(bidual[inf_cells]).all() if inf_cells.any() else True
    return bool(ok_fin and ok_inf)


def old_duality_fields(prob, psi_grid, convexity_scope="anchor"):
    """The values duality_report derived from its own partial-conjugate table,
    with the certificate as the index of its multiplier (None when absent)."""
    E = psi_grid.matrix
    S = old_partial_conjugate_matrix(prob, psi_grid)
    with np.errstate(invalid="ignore"):
        L = E[:, prob.y0][None, :] - S

    row_sup = L.max(axis=1)            # sup_psi L(x, .) = p_x**(y0)
    primal = float(row_sup.min())
    col_inf = L.min(axis=0)            # inf_x L(., psi)
    dual = float(col_inf.max())

    V = prob.p.min(axis=0)
    V_star = S.max(axis=0)
    with np.errstate(invalid="ignore"):
        V_bidual = float((E[:, prob.y0] - V_star).max())

    p0 = prob.p[:, prob.y0]
    both_inf = np.isposinf(row_sup) & np.isposinf(p0)
    with np.errstate(invalid="ignore"):
        finite_ok = (np.isfinite(row_sup) & np.isfinite(p0)
                     & (np.abs(row_sup - p0) <= 1e-9))
    reconstruction_ok = bool((both_inf | finite_ok).all())

    if convexity_scope == "anchor":
        convexity_holds = reconstruction_ok
    else:
        convexity_holds = old_full_convexity_holds(prob, psi_grid, S)

    if primal == dual:
        gap = ExtReal(0.0)
    else:
        gap = ExtReal(primal) - ExtReal(dual)

    certificate = None
    if np.isfinite(primal) and float(gap) <= 1e-9:
        hits = np.flatnonzero(col_inf >= primal - 1e-6)
        certificate = int(hits[0]) if hits.size else None
    return {"L": L, "S": S, "primal": primal, "dual": dual, "gap": gap, "V": V,
            "V_star": V_star, "V_bidual_at_y0": V_bidual,
            "reconstruction_ok": reconstruction_ok,
            "convexity_holds": convexity_holds, "certificate": certificate}


def old_concavity_probe(prob, family, psi_a, psi_b, t):
    """concavity_probe's verdict, with the three Lagrangian rows it compares."""
    Ea = eval_on_domain(family, psi_a)
    Eb = eval_on_domain(family, psi_b)
    Ec = t * Ea + (1.0 - t) * Eb

    def lag_row(E):
        with np.errstate(invalid="ignore"):
            S = (E[None, :] - prob.p).max(axis=1)
            return E[prob.y0] - S

    La, Lb, Lc = lag_row(Ea), lag_row(Eb), lag_row(Ec)
    if t == 0.0:
        rhs = Lb
    elif t == 1.0:
        rhs = La
    else:
        rhs = np.where(np.isposinf(La) | np.isposinf(Lb), np.inf,
                       t * np.where(np.isposinf(La), 0.0, La)
                       + (1.0 - t) * np.where(np.isposinf(Lb), 0.0, Lb))
    both_inf = np.isposinf(Lc) & np.isposinf(rhs)
    return bool((both_inf | (Lc >= rhs - 1e-9)).all()), (La, Lb, Lc)


def old_cone_lagrangian(inst, member_vals):
    """L(x) = psi(y0) - sup_{y in G(x)} (psi(y) - f(x)) for one multiplier,
    composed exactly as the generic Lagrangian table does."""
    with np.errstate(invalid="ignore"):
        diff = np.where(inst.map.mask, member_vals[None, :] - inst.f.values[:, None],
                        -np.inf)
        S = diff.max(axis=1)
        return member_vals[inst.y0] - S


def old_metric_grid_sup(inst, x, a_ladder):
    """sup over every anchor of the metric Lagrangian at x, one value per rung."""
    out = np.empty(len(a_ladder))
    fam = ElemFamily.metric(inst.Y)
    for k, a in enumerate(a_ladder):
        best = -np.inf
        for anchor in range(inst.Y.n):
            vals = eval_on_domain(fam, ElemParams(a=float(a), anchor=anchor, c=0.0))
            best = max(best, float(old_cone_lagrangian(inst, vals)[x]))
        out[k] = best
    return out


def old_rung_and_bound(inst, a_ladder, tol=1e-9):
    """(minimal_rung, proof_bound) of verify_zero_gap_metric, with the
    Lagrangian table rebuilt from the constrained perturbation."""
    ladder = tuple(sorted(float(a) for a in a_ladder))
    prob = build_constrained_perturbation(inst)
    grid = metric_dual_grid(inst, ladder)
    primal = old_duality_fields(prob, grid)["primal"]

    dist_to_G = np.full(inst.n_x, np.inf)
    for x in range(inst.n_x):
        row = inst.map.mask[x]
        if row.any():
            dist_to_G[x] = inst.Y.dist[inst.y0][row].min()
    infeasible = ~inst.map.mask[:, inst.y0] & np.isfinite(inst.f.values) \
        & np.isfinite(dist_to_G) & (dist_to_G > 0)
    if np.isfinite(primal) and infeasible.any():
        proof_bound = float(
            np.max((primal - inst.f.values[infeasible]) / dist_to_G[infeasible],
                   initial=0.0)
        )
    else:
        proof_bound = 0.0

    minimal_rung = None
    if np.isfinite(primal):
        col_min = old_lagrangian(prob, grid).min(axis=0)
        rung_of = np.asarray([p.a for p in grid.params_list])
        for a in ladder:
            best = col_min[rung_of <= a].max()
            if primal - best <= tol:
                minimal_rung = a
                break
    return minimal_rung, proof_bound


# ---------------------------------------------------------------------------
# the dense kernels as they were before they were reduced in row blocks of
# core.BLOCK_BYTES: each materializes its whole cubic (or n^2 x n) temporary
# and reduces it in one call; blocked results must match them bit for bit
# ---------------------------------------------------------------------------

def old_triangle_violated(dist):
    """build_metric_space's full sweep: some dist[i,k] > dist[i,j] + dist[j,k]
    beyond METRIC_TOL."""
    via = dist[:, :, None] + dist[None, :, :]
    return bool((via.min(axis=1) < dist - METRIC_TOL).any())


def old_partial_conjugate_kernel(E, p):
    """S[x, j] = max_k (E[j, k] - p[x, k]) in one n_x x P x n_y tensor."""
    with np.errstate(invalid="ignore"):
        return (E[None, :, :] - p[:, None, :]).max(axis=2)


def old_conjugate_transform(f, dual):
    """conjugate_transform with the differences of every member held at once."""
    return sub_up(dual.matrix, f.values[None, :]).max(axis=1)


def old_biconjugate(f, dual):
    """biconjugate's values from one P x n difference table."""
    star = old_conjugate_transform(f, dual)
    return sub_up(dual.matrix, star[:, None]).max(axis=0)


def old_intersection_certificate(phi1, phi2, alpha):
    """Smallest maximizer of min_x (t phi1 + (1-t) phi2) over the candidates,
    with every candidate's combination row held at once."""
    v1, v2 = phi1.values, phi2.values
    ts = envelope_candidates(v1, v2)
    env = (v2[None, :] + ts[:, None] * (v1 - v2)[None, :]).min(axis=1)
    best = env.max()
    if best < alpha:
        return None
    t0 = float(ts[np.flatnonzero(env == best)[0]])
    return TCertificate(t0=t0, level=float(alpha), lower_envelope_value=float(best))
