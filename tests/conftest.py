"""Shared generators and independent brute-force oracles."""

import itertools
import math

import numpy as np

from abconvex import (
    ConstrainedInstance,
    ConstraintMap,
    DualGrid,
    ElemFamily,
    ElemParams,
    ExtReal,
    FiniteMetricSpace,
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
from abconvex.constrained import MetricZeroGapReport
from abconvex.core import METRIC_TOL, sub_up
from abconvex.errors import BadParams, ImproperInput, UndefinedSum
from abconvex.families import (PEAKING_KINDS, SLOPE_KINDS, FamilyKind, _from_params,
                               _member_rules, _Members, members_on_domain, validate_members)
from abconvex.lagrangian import _lagrangian, _partial_conjugate, duality_report
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


def kernel_perturbation(rng, n_x, n_y, holes=True, empty_rows=False, kind=None):
    """Random proper table with +inf holes, and optionally rows that are
    identically +inf (empty dom p(x, .)), with a default multiplier grid."""
    Y = spaced_line(rng, n_y)
    p = rng.normal(size=(n_x, n_y)) * float(rng.choice([0.5, 2.0, 10.0]))
    if holes:
        p[rng.random(size=p.shape) < 0.3] = np.inf
    empty = int(rng.integers(n_x)) if empty_rows and n_x > 1 else -1
    if empty >= 0:
        p[empty] = np.inf
    for y in np.flatnonzero(~np.isfinite(p).any(axis=0)):
        p[(empty + 1) % n_x, y] = rng.normal()
    y0 = int(rng.integers(n_y))
    prob = PerturbationProblem(Y=Y, p=p, y0=y0)
    return prob, random_dual_grid(rng, Y, GridFn(Y, p.min(axis=0)), kind=kind)


def table_shapes(rng, count):
    """Random (n_x, n_y) shapes, always including one-row and one-column tables."""
    fixed = [(1, 1), (1, 7), (6, 1), (1, 2), (2, 1)]
    rand = [(int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(count)]
    return fixed + rand


def kernel_constrained(rng, n_x, n_y, allow_empty):
    """Constrained instance; with allow_empty some A(y), and so some G(x),
    may be empty (at least one x stays feasible at y0)."""
    Y = spaced_line(rng, n_y, min_gap=0.1)
    f = rng.uniform(-5.0, 5.0, size=n_x)
    lo = 0 if allow_empty else 1
    sets = [frozenset(rng.choice(n_x, size=int(rng.integers(lo, n_x + 1)),
                                 replace=False).tolist()) for _ in range(n_y)]
    y0 = int(rng.integers(n_y))
    sets[y0] = sets[y0] | {int(rng.integers(n_x))}
    cmap = ConstraintMap(feasible=tuple(sets), n_x=n_x, allow_empty=allow_empty)
    return ConstrainedInstance(f=GridFn(n_x, f), map=cmap, Y=Y, y0=y0)


#: rungs from near the smallest normal double to near the largest
EXTREME_RUNGS = (1e-300, 1e-120, 1e-8, 0.25, 1.0, 7.0, 1e12, 1e150, 1e250, 1e300, 1e308)
#: scales of the objective, up to the largest double
EXTREME_F = (1.0, 1e-300, 1e200, 1e300, 1e307, 8e307, 1.7e308)


def extreme_constrained(rng):
    """(instance, ladder) at extreme magnitudes: points scaled by 1e-100, 1 or
    1e100; f up to the largest double, with +inf and zeros of both signs;
    inverse-feasible sets that may be empty; a ladder that is the default
    one, of extreme rungs (unsorted and repeated), empty, one whose largest
    member lies near the largest double, or one with a zero, negative or
    infinite rung."""
    n_y, dim = int(rng.integers(2, 10)), int(rng.integers(1, 3))
    pts = rng.integers(-40, 41, (n_y, dim)).astype(float) if rng.random() < 0.3 \
        else rng.uniform(-2.0, 2.0, (n_y, dim))
    pts = np.unique(pts, axis=0) * float(rng.choice([1e-100, 1.0, 1e100]))
    Y = build_metric_space(pts, validate="fast")
    n_x = int(rng.integers(1, 7))
    f = rng.uniform(-1.0, 1.0, n_x) * float(rng.choice(EXTREME_F))
    f[rng.random(n_x) < 0.15] = np.inf
    f[rng.random(n_x) < 0.15] = float(rng.choice([0.0, -0.0]))
    if not np.isfinite(f).any():
        f[int(rng.integers(n_x))] = -0.0
    allow_empty = bool(rng.random() < 0.4)
    sets = [frozenset(rng.choice(n_x, int(rng.integers(0 if allow_empty else 1, n_x + 1)),
                                 replace=False).tolist()) for _ in range(Y.n)]
    inst = ConstrainedInstance(f=GridFn(n_x, f), Y=Y, y0=int(rng.integers(Y.n)),
                               map=ConstraintMap(tuple(sets), n_x, allow_empty))
    style = int(rng.integers(6))
    rungs = [float(a) for a in rng.choice(EXTREME_RUNGS, int(rng.integers(1, 5)))]
    if style == 0:
        ladder = tuple(2.0 ** k for k in range(7))
    elif style == 1:
        ladder = tuple(rungs + rungs[:int(rng.integers(0, 3))])
    elif style == 2:
        ladder = ()
    elif style == 5:
        ladder = tuple(rungs + [float(rng.choice([0.0, -1.0, np.inf]))])
    else:  # the largest member from about 1e307 to past the largest double
        top = 1e308 / float(Y.dist.max())
        ladder = tuple(min(1.7e308, c * top) for c in rng.uniform(0.1, 2.0, 3).tolist())
    return inst, ladder


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


#: conic LPs with pi >= 0 whose optimum <pi, c> overflows the doubles
CONIC_OVERFLOWS = [([1e308, 1e308], [-1e308, -1e308]), ([1e308, 2.0], [3.0, 4.0])]

#: transport problems (cost, mu, nu) that leave the doubles: a value of 8e308,
#: potentials 0 and 2e308 at two masses, a 3 x 3 whose first pricing round
#: meets inf - inf, and the dual objective 2e308 - 1e308 of potentials
#: (0, -1e308) and 1e308, whose exact value 1e308 is a double
TRANSPORT_OVERFLOWS = {
    "value": ([[1e308, 1e308], [1e308, 1e308]], [4.0, 4.0], [4.0, 4.0]),
    "potentials": ([[1e308, -1e308], [-1e308, 1e308]], [1.0, 1.0], [1.0, 1.0]),
    "potentials_half_mass": ([[1e308, -1e308], [-1e308, 1e308]], [0.5, 0.5], [0.5, 0.5]),
    "nan_pricing": ([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1e308]],
                    [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    "dual_objective": ([[1e308], [0.0]], [1.0, 1.0], [2.0]),
}


#: gap problems on the points 0 and 1 with two affine members whose partial
#: conjugate or Lagrangian leaves the doubles, though every input is a double:
#: case -> (y0, p, the members' slopes, the ImproperInput message)
LAGRANGIAN_OVERFLOWS = {
    "conjugate_plus": (0, [[0.0, -1e308]], (1e308, -1e308),
                       "the partial conjugate overflows the doubles"),
    "conjugate_minus": (0, [[math.inf, 1e308], [0.0, 0.0]], (-1e308, 1.0),
                        "the partial conjugate overflows the doubles"),
    "lagrangian_minus": (1, [[-1e308, 0.0]], (-1e308, 1.0),
                         "the Lagrangian overflows the doubles"),
    "lagrangian_plus": (1, [[1e308, math.inf], [0.0, 0.0]], (1e308, 1.0),
                        "the Lagrangian overflows the doubles"),
}


def lagrangian_overflow(case, pad_rows=0, wide=False):
    """The problem and multiplier grid of a LAGRANGIAN_OVERFLOWS case, after
    pad_rows rows of zeros; wide adds a member of slope zero, so that the grid
    has more members (P = 3) than parameters (n_y = 2)."""
    y0, p, slopes, _ = LAGRANGIAN_OVERFLOWS[case]
    Y = build_metric_space([[0.0], [1.0]])
    grid = DualGrid(ElemFamily.affine(Y),
                    tuple(ElemParams(ell=[s]) for s in slopes + (0.0,) * wide))
    return PerturbationProblem(Y=Y, p=[[0.0, 0.0]] * pad_rows + p, y0=y0), grid


def lagrangian_overflow_scenario(case):
    """The gap scenario of a LAGRANGIAN_OVERFLOWS case."""
    y0, p, slopes, _ = LAGRANGIAN_OVERFLOWS[case]
    return {"kind": "gap", "domain": {"points": [[0.0], [1.0]]}, "y0": y0,
            "p": [[v if math.isfinite(v) else "+inf" for v in row] for row in p],
            "family": {"kind": "affine", "params": [{"ell": [s]} for s in slopes]}}


def transport_overflow_message(case):
    """The ImproperInput message of a TRANSPORT_OVERFLOWS case."""
    if case == "dual_objective":
        return "the transport dual objective overflows the doubles"
    return "the transport value, potentials or reduced costs overflow the doubles"


def large_cost_transport(rng, n, m, scale):
    """Integer costs times scale / 7 (up to about 14 * scale) and integer
    marginals with positive rows."""
    mu = rng.integers(1, 10, n).astype(float)
    nu = rng.multinomial(int(mu.sum()), np.full(m, 1.0 / m)).astype(float)
    return TransportProblem(cost=rng.integers(0, 100, (n, m)) * scale / 7, mu=mu, nu=nu)


#: the special values of the sub_up grid: signed zeros and subnormals, the
#: smallest normal, +-1 and their neighbours, the top binade, the infinities,
#: NaN and 0.1
SUB_UP_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1022), 1.0, -1.0,
                   1.0 + 2.0 ** -52, -(1.0 + 2.0 ** -52), 2.0 ** 1023, -(2.0 ** 1023),
                   np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan, 0.1)

SUB_UP_STYLES = ("exponents", "near_equal", "powers_of_two", "huge", "mixed")


def sub_up_pairs(rng, style, n):
    """n finite pairs (a, b) for sub_up: random exponents over the whole range
    (subnormals included), b within a few ulps of a times 2**j for |j| <= 2
    (mostly exact differences, by Sterbenz's lemma, when |j| <= 1), powers of two against
    their neighbours, both operands at the 2**1023 scale (where a - b
    overflows), or magnitudes of about 1e300 and 1e-300 mixed."""
    sign = lambda: rng.choice([-1.0, 1.0], n)
    if style == "exponents":
        a, b = (sign() * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n))
                for _ in range(2))
    elif style == "near_equal":
        a = sign() * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n))
        with np.errstate(over="ignore"):  # an overflowed b is replaced by a
            b = np.ldexp(a, rng.integers(-2, 3, n))
            b = b + rng.integers(-4, 5, n) * np.spacing(np.abs(b))
        b = np.where(np.isfinite(b), b, a)
    elif style == "powers_of_two":
        k = rng.integers(-1074, 1024, n)
        a = sign() * np.ldexp(1.0, k)
        b = sign() * np.ldexp(1.0, np.clip(k + rng.integers(-60, 61, n), -1074, 1023))
        b = np.nextafter(b, rng.choice([-np.inf, np.inf], n))
        b = np.where(np.isfinite(b), b, a)
    elif style == "huge":
        a, b = (np.ldexp(rng.uniform(-2.0, 2.0, n), 1023) for _ in range(2))
    else:
        a, b = (sign() * rng.uniform(1.0, 10.0, n) * rng.choice([1e300, 1e-300, 1.0], n)
                for _ in range(2))
    return a, b


def rounding_scale(dim):
    """The scale unit of the Euclidean point sets of scaled_point_sets and the
    golden triangle/euclidean_scale corpus in dim dimensions:
    METRIC_TOL / (2 (dim + 10) 2**-53), about 409 in 1-D and 237 in 9-D.
    Below it, rounding cannot make Euclidean distances break the triangle
    inequality by more than METRIC_TOL; at 100 and 1000 times it, it can.
    Kept at these values so that no corpus input changes."""
    return METRIC_TOL / (2 * (dim + 10) * 2.0 ** -53)


#: multiples of rounding_scale(dim) for the largest distance of a point set
SCALE_MULTIPLES = (0.5, 1.0, 10.0, 100.0, 1000.0)


def scaled_point_sets(rng, dim, multiples=SCALE_MULTIPLES):
    """(multiple, points): a near-collinear and a random set of 2 to 12 points
    in dim dimensions for each multiple of rounding_scale(dim), whose largest
    distance is about that multiple of it, moved by a random offset whose
    coordinates are at most 0, 1e3 or 1e6; then both kinds with a largest
    distance of about 1e-165 (multiple None), offsets at most 0 or 1e-160,
    where squared differences underflow.  Near-collinear points lie
    on a line up to a relative offset of 0, 1e-9 or 1e-6 off it."""
    for mult in tuple(multiples) + (None,):
        for collinear in (True, False):
            n = int(rng.integers(2, 13))
            if collinear:
                v = rng.normal(size=dim)
                q = (np.sort(rng.uniform(0.0, 1.0, n))[:, None] * (v / np.linalg.norm(v))
                     + rng.normal(size=(n, dim)) * float(rng.choice([0.0, 1e-9, 1e-6])))
            else:
                q = rng.uniform(-1.0, 1.0, (n, dim))
            q = q / np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1)).max()
            if mult is None:
                scale, offset = 1e-165, float(rng.choice([0.0, 1e-160]))
            else:
                scale, offset = mult * rounding_scale(dim), float(rng.choice([0.0, 1e3, 1e6]))
            yield mult, rng.uniform(-1.0, 1.0, dim) * offset + q * scale


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


def old_generic_grid_sup(inst, x, a_ladder):
    """metric_grid_sup as the generic kernels computed it: every rung x anchor
    member checked and evaluated, in rung-major order, then row x of the
    generic Lagrangian table, from the generic partial conjugate and the one
    composition; its rejections are the oracle's too."""
    fam, n = ElemFamily.metric(inst.Y), inst.Y.n
    ladder = np.asarray(a_ladder, dtype=float).reshape(-1)
    a, anchor = np.repeat(ladder, n), np.tile(np.arange(n), ladder.size)
    validate_members(fam, a, anchor=anchor)
    E = members_on_domain(fam, a, anchor=anchor)
    p = np.where(inst.map.mask[x], inst.f.values[x], np.inf)[None, :]
    L = _lagrangian(E[:, inst.y0], _partial_conjugate(E, p))
    return L.reshape(ladder.size, n).max(axis=1) + 0.0


def old_generic_zero_gap(inst, a_ladder, tol=1e-9):
    """verify_zero_gap_metric as it was computed from the generic Lagrangian
    table that duality_report builds (its overflowing bound quotient made
    quiet), with its rejections."""
    ladder = tuple(sorted({float(a) for a in a_ladder}))
    if not ladder or any(a <= 0 for a in ladder):
        raise ValueError("the rung ladder must contain positive values only")
    if np.isnan(tol):
        raise ValueError("tol must not be NaN")
    prob = build_constrained_perturbation(inst)
    grid = metric_dual_grid(inst, ladder)
    report = duality_report(prob, grid)

    primal = report.primal.as_float()
    anchor_feasible = bool(np.isfinite(prob.p[:, inst.y0]).any())
    dist_to_G = np.where(inst.map.mask, inst.Y.dist[inst.y0], np.inf).min(axis=1)
    infeasible = ~inst.map.mask[:, inst.y0] & np.isfinite(inst.f.values) \
        & np.isfinite(dist_to_G) & (dist_to_G > 0)
    proof_bound = 0.0
    if np.isfinite(primal) and infeasible.any():
        with np.errstate(over="ignore"):
            proof_bound = float(np.max(
                (primal - inst.f.values[infeasible]) / dist_to_G[infeasible], initial=0.0))

    minimal_rung = None
    if np.isfinite(primal):
        for a in ladder:
            best = report.table.col_inf[grid.a <= a].max()
            with np.errstate(over="ignore"):
                closed = primal - best <= tol
            if closed:
                minimal_rung = a
                break

    if anchor_feasible and np.isfinite(primal) and ladder[-1] >= proof_bound:
        if not report.gap <= tol:
            raise AssertionError(
                "rung ladder dominates the sufficiency bound but the gap stayed open")
    return MetricZeroGapReport(
        duality=report, constrained_value=ExtReal(float(prob.p[:, inst.y0].min())),
        ladder=ladder, minimal_rung=minimal_rung, proof_bound=proof_bound,
        anchor_feasible=anchor_feasible,
        hypothesis="peaking metric cones (anchored-rung certificates)")


# ---------------------------------------------------------------------------
# the dense kernels as they were before they were reduced in row blocks of
# core.BLOCK_BYTES: each materializes its whole cubic (or n^2 x n, n^2 x dim
# or n^2) temporary and reduces it in one call; blocked results must match
# them bit for bit
# ---------------------------------------------------------------------------

def old_euclidean_dist(pts):
    """build_metric_space's Euclidean distances from one n x n x dim tensor
    of coordinate differences."""
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))


def old_rescaled_euclidean_dist(pts):
    """old_euclidean_dist with each zero redone from the same tensor as
    mx * sqrt(sum((diff / mx) ** 2)), mx the largest |diff|: the distances
    build_metric_space gives when squared differences underflow."""
    d = old_euclidean_dist(pts)
    zero = d == 0
    dz = (pts[:, None, :] - pts[None, :, :])[zero]
    mx = np.abs(dz).max(axis=-1, initial=0.0)[:, None]
    dz = np.divide(dz, mx, out=np.zeros_like(dz), where=mx > 0)
    d[zero] = mx[:, 0] * np.sqrt((dz * dz).sum(axis=-1))
    return d


def old_slope_bound(f, domain):
    """slope_bound from the n x n quotient arrays of the finite values,
    selected by a boolean mask."""
    idx = np.flatnonzero(np.isfinite(f.values))
    if idx.size < 2:
        return 1.0
    vals = f.values[idx]
    with np.errstate(over="ignore"):
        num = np.abs(vals[:, None] - vals[None, :])
        den = domain.dist[np.ix_(idx, idx)]
        mask = den > 0
        if not mask.any():
            return 1.0
        bound = 2.0 * float((num[mask] / den[mask]).max())
    if math.isinf(bound):
        raise ImproperInput("the slope bound of f overflows the doubles")
    return bound if bound > 0 else 1.0


def old_triangle_violated(dist):
    """build_metric_space's full sweep: some dist[i,k] > dist[i,j] + dist[j,k]
    beyond METRIC_TOL."""
    via = dist[:, :, None] + dist[None, :, :]
    return bool((via.min(axis=1) < dist - METRIC_TOL).any())


# The one-tensor oracles below add 0.0 to each maximum, as the kernels do: a
# zero maximum is +0 (see abconvex.core), whichever zero numpy's reduction kept.

def old_partial_conjugate_kernel(E, p):
    """S[x, j] = max_k (E[j, k] - p[x, k]) in one n_x x P x n_y tensor."""
    with np.errstate(invalid="ignore"):
        return (E[None, :, :] - p[:, None, :]).max(axis=2) + 0.0


def old_max_sub_up(a, b, axis):
    """core.max_sub_up's reference: every difference rounded up, then reduced."""
    return sub_up(a, b).max(axis) + 0.0


def old_conjugate_transform(f, dual):
    """conjugate_transform with the differences of every member held at once."""
    return sub_up(dual.matrix, f.values[None, :]).max(axis=1) + 0.0


def old_biconjugate(f, dual):
    """biconjugate's values from one P x n difference table."""
    star = old_conjugate_transform(f, dual)
    return sub_up(dual.matrix, star[:, None]).max(axis=0) + 0.0


def loop_reduce(cells, axis, pick=max):
    """The order-free reference of the zero rule: a plain Python loop over the
    lines of the 2-D array cells along axis, pick() (max or min) of each
    line's cells as floats, then + 0.0.  pick keeps whichever of two equal
    zeros it meets first, and + 0.0 makes either one +0."""
    lines = np.asarray(cells, dtype=float)
    if axis == 0:
        lines = lines.T
    return np.asarray([pick(float(v) for v in line) + 0.0 for line in lines])


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


def old_sub_up(a, b):
    """sub_up in four passes: twoSum's error, a step down when the error is the
    gap to the double below s, a clamp of -inf at the most negative double,
    and s again wherever b is infinite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nb = -b
    with np.errstate(invalid="ignore", over="ignore"):
        s = a + nb
        bv = s - a
        av = s - bv
        br = nb - bv
        ar = a - av
        err = ar + br
        up = np.nextafter(s, np.inf)
        down = np.nextafter(s, -np.inf)
        out = np.where(err > 0, up, s)
        out = np.where(err == down - s, down, out)
        out = np.where(np.isneginf(s) & np.isfinite(b), np.finfo(float).min, out)
        out = np.where(np.isinf(b), s, out)
    if np.isnan(out).any():
        raise UndefinedSum("(+inf) + (-inf) arose in an array subtraction")
    return out


# ---------------------------------------------------------------------------
# the lower-semicontinuity defect as written before lsc_profile, one masked
# minimum per radius, kept as the oracle lsc_defect and lsc_curve must match
# bit for bit
# ---------------------------------------------------------------------------

def old_lsc_defect(V, y0, radius):
    if not isinstance(V.domain, FiniteMetricSpace):
        raise ValueError("lsc_defect needs a metric domain")
    if radius <= 0:
        raise ValueError("radius must be positive")
    v0 = V.values[y0]
    if not np.isfinite(v0):
        raise ValueError("lsc_defect needs a finite value at y0")
    d = V.domain.dist[y0]
    ball = (d > 0) & (d <= radius)
    if not ball.any():
        return 0.0
    m = V.values[ball].min()
    return float(max(0.0, v0 - m))


def old_lsc_curve(rep):
    V, y0 = rep.V, rep.y0
    radii = np.unique(V.domain.dist[y0])
    radii = radii[radii > 0]
    return [{"radius": float(r), "defect": old_lsc_defect(V, y0, float(r))}
            for r in radii]


# ---------------------------------------------------------------------------
# DualGrid construction as written before its checks ran in one pass: the
# member-array conversion, the repeat search, the first-failure rule and the
# member matrix copied as they were, kept as the oracle every grid, member
# check and member matrix must match bit for bit
# ---------------------------------------------------------------------------

def old_raise_first(rules):
    fails = np.array([f for f, _, _ in rules]).reshape(len(rules), -1)
    bad = fails.any(axis=0)
    if bad.any():
        _, error, message = rules[int(fails[:, bad.argmax()].argmax())]
        raise error(message)


def old_arrays(a, ell=None, anchor=None):
    """Member arrays as _arrays made them; it truncated anchors."""
    a = np.array(a, dtype=float).reshape(-1)
    ell = np.zeros((a.size, 0)) if ell is None else np.array(ell, dtype=float).reshape(a.size, -1)
    ell_len = np.full(a.size, ell.shape[1] or -1)
    old_raise_first([(~np.isfinite(ell).all(axis=1), BadParams, "slope must be finite"),
                     (~np.isfinite(a), BadParams, "a must be finite")])
    anchors = np.zeros(a.size, np.int64) if anchor is None else np.array(anchor, np.int64)
    return _Members(a, ell, ell_len, anchors, np.full(a.size, anchor is None), np.zeros(a.size))


def old_repeats(m):
    floats = (np.column_stack([m.a, m.c, m.ell]) + 0.0).view(np.int64)
    keys = np.column_stack([floats, m.ell_len, m.anchor, m.no_anchor])
    repeats, order = np.zeros(m.a.size, bool), np.lexsort(keys.T)
    repeats[order[1:]] = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
    return repeats


def old_members_on_domain(family, a, ell=None, anchor=None, c=0.0):
    """members_on_domain with one pts @ slope product per member."""
    kind, domain, a = family.kind, family.domain, np.asarray(a, dtype=float)
    pts = domain.points
    with np.errstate(over="ignore", invalid="ignore"):
        if kind in PEAKING_KINDS:
            out = domain.dist[np.asarray(anchor)]
            if kind == FamilyKind.GENERALIZED_METRIC:
                out = family.g_shape(out)
            out *= (-a)[:, None]
        elif kind == FamilyKind.SIGMA_NU:
            out = np.multiply.outer(a, family.sigma.values)
            out += family.nu.values
        elif kind == FamilyKind.AFFINE:
            out = np.empty((a.size, domain.n))
            for row, slope in zip(out, ell):
                row[:] = pts @ slope
        else:
            base = family.gauge_values() if kind == FamilyKind.GAUGE else (pts * pts).sum(axis=1)
            out = np.multiply.outer(a if kind == FamilyKind.QUAD_PLUS else -a, base)
            for row, slope in zip(out, ell):
                row += pts @ slope
        out += np.asarray(c, dtype=float)[..., None]
    if not (math.isfinite(out.min(initial=0.0)) and math.isfinite(out.max(initial=0.0))):
        raise ImproperInput("member values overflow the doubles")
    return out


def old_dual_grid(family, params_list=None, *, a=None, ell=None, anchor=None):
    """(a, ell, anchor, matrix) of the grid DualGrid built, or its error."""
    params = tuple(params_list or ())
    m = _from_params(params) if params else old_arrays(() if a is None else a, ell, anchor)
    if not m.a.size:
        raise ValueError("DualGrid needs at least one parameter tuple")
    old_raise_first(_member_rules(family, m) + [
        (m.c != 0.0, ValueError, "DualGrid offsets are eliminated analytically; use c = 0"),
        (old_repeats(m), ValueError, "duplicate parameter tuple in DualGrid")])
    return (m.a, m.ell if family.kind in SLOPE_KINDS else None,
            m.anchor if family.kind in PEAKING_KINDS else None,
            old_members_on_domain(family, m.a, m.ell, m.anchor, m.c))
