"""Elementary function classes with conjugation, support tests, and peak witnesses.

Seven parameterized families play the role that affine functions play in
classical convex duality: plain affine, quadratic minorant/majorant shapes,
sigma-nu combinations, metric cones, generalized metric cones, and Minkowski
gauges.  A finite parameter sample (DualGrid) stands in for the full class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .core import FiniteMetricSpace, GridFn, by_row_blocks, sub_up
from .errors import BadParams, ImproperInput, InfiniteAtPoint, NoWitness

_NUDGE = 1.0 + 2.0 ** -46
_MAX_NUDGES = 64
_SUB_UP_BYTES = 80  # temporaries core.sub_up makes per output cell: ten doubles


class FamilyKind(str, Enum):
    AFFINE = "affine"
    QUAD_MINUS = "quad_minus"
    QUAD_PLUS = "quad_plus"
    SIGMA_NU = "sigma_nu"
    METRIC = "metric"
    GENERALIZED_METRIC = "generalized_metric"
    GAUGE = "gauge"


#: kinds whose parameter sets are closed under convex combination
CONVEX_KINDS = frozenset({
    FamilyKind.AFFINE,
    FamilyKind.QUAD_MINUS,
    FamilyKind.QUAD_PLUS,
    FamilyKind.SIGMA_NU,
    FamilyKind.GAUGE,
})

#: anchored cone kinds carrying the peaking property
PEAKING_KINDS = frozenset({FamilyKind.METRIC, FamilyKind.GENERALIZED_METRIC})


@dataclass(frozen=True)
class Sampled1D:
    """A piecewise-linear 1-D function given by samples; extended past the
    last abscissa with the final segment's slope."""

    ts: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
            raise ValueError("Sampled1D needs matching 1-D arrays of length >= 2")
        if (np.diff(ts) <= 0).any():
            raise ValueError("Sampled1D abscissae must be strictly increasing")
        if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
            raise ValueError("Sampled1D samples must be finite")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vs", vs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.ts, self.vs)
        tail_slope = (self.vs[-1] - self.vs[-2]) / (self.ts[-1] - self.ts[-2])
        beyond = x > self.ts[-1]
        out = np.where(beyond, self.vs[-1] + tail_slope * (x - self.ts[-1]), out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ElemFamily:
    """An elementary-function class over a finite metric domain."""

    kind: FamilyKind
    domain: FiniteMetricSpace
    sigma: Optional[GridFn] = None
    nu: Optional[GridFn] = None
    g_shape: Optional[Sampled1D] = None
    quasi_subadd_const: Optional[float] = None
    norm_kind: str = "l2"
    closed_under_constants: bool = True

    def __post_init__(self):
        if self.kind == FamilyKind.SIGMA_NU:
            if self.sigma is None or self.nu is None:
                raise ValueError("sigma_nu family needs sigma and nu grid functions")
            for g in (self.sigma, self.nu):
                if g.size != self.domain.n or not g.is_real_valued:
                    raise ValueError("sigma/nu must be real-valued on the domain")
            o = self.domain.origin_index()
            if o is not None:
                if self.sigma.values[o] != 0.0 or self.nu.values[o] != 0.0:
                    raise ValueError("sigma and nu must vanish at the origin point")
        if self.kind == FamilyKind.GENERALIZED_METRIC:
            if self.g_shape is None:
                raise ValueError("generalized_metric family needs a 1-D shape")
            if float(self.g_shape(0.0)) != 0.0:
                raise ValueError("generalized_metric shape must vanish at 0")
            if self.quasi_subadd_const is None or self.quasi_subadd_const <= 0:
                raise ValueError("record a positive quasi-subadditivity constant")
        if self.kind == FamilyKind.GAUGE and self.norm_kind not in ("l1", "l2", "linf"):
            raise ValueError(f"unsupported gauge norm {self.norm_kind!r}")

    # -- convenience constructors -------------------------------------------------
    @classmethod
    def affine(cls, domain):
        return cls(FamilyKind.AFFINE, domain)

    @classmethod
    def quad_minus(cls, domain):
        return cls(FamilyKind.QUAD_MINUS, domain)

    @classmethod
    def quad_plus(cls, domain):
        return cls(FamilyKind.QUAD_PLUS, domain)

    @classmethod
    def sigma_nu(cls, domain, sigma: GridFn, nu: GridFn):
        return cls(FamilyKind.SIGMA_NU, domain, sigma=sigma, nu=nu)

    @classmethod
    def metric(cls, domain):
        return cls(FamilyKind.METRIC, domain)

    @classmethod
    def generalized_metric(cls, domain, g_shape: Sampled1D, quasi_subadd_const: float):
        return cls(FamilyKind.GENERALIZED_METRIC, domain,
                   g_shape=g_shape, quasi_subadd_const=quasi_subadd_const)

    @classmethod
    def gauge(cls, domain, norm_kind: str = "l2"):
        return cls(FamilyKind.GAUGE, domain, norm_kind=norm_kind)

    def gauge_values(self) -> np.ndarray:
        pts = self.domain.points
        if self.norm_kind == "l1":
            return np.abs(pts).sum(axis=1)
        if self.norm_kind == "linf":
            return np.abs(pts).max(axis=1)
        return np.sqrt((pts * pts).sum(axis=1))


@dataclass(frozen=True)
class ElemParams:
    """Parameters of one family member: curvature a, slope ell, anchor, offset c."""

    a: float = 0.0
    ell: Optional[np.ndarray] = None
    anchor: Optional[int] = None
    c: float = 0.0

    def __post_init__(self):
        if self.ell is not None:
            ell = np.asarray(self.ell, dtype=float)
            if ell.ndim == 0:
                ell = ell[None]
            if not np.isfinite(ell).all():
                raise BadParams("slope must be finite")
            object.__setattr__(self, "ell", ell)
        for name in ("a", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise BadParams(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.anchor is not None:
            object.__setattr__(self, "anchor", int(self.anchor))

    def key(self) -> tuple:
        ell = None if self.ell is None else tuple(self.ell.tolist())
        return (self.a, ell, self.anchor, self.c)


def validate_params(family: ElemFamily, params: ElemParams) -> None:
    """Raise BadParams unless params are admissible for the family."""
    kind = family.kind
    if kind == FamilyKind.AFFINE:
        if params.a != 0.0:
            raise BadParams("affine members have no curvature term")
        _require_slope(family, params)
    elif kind in (FamilyKind.QUAD_MINUS, FamilyKind.QUAD_PLUS):
        if params.a < 0.0:
            raise BadParams("quadratic curvature must satisfy a >= 0")
        _require_slope(family, params)
    elif kind == FamilyKind.SIGMA_NU:
        if params.a < 0.0:
            raise BadParams("sigma coefficient must satisfy a >= 0")
    elif kind in (FamilyKind.METRIC, FamilyKind.GENERALIZED_METRIC):
        if params.a <= 0.0:
            raise BadParams("metric cones need a > 0")
        if params.anchor is None or not 0 <= params.anchor < family.domain.n:
            raise BadParams("metric cones need an in-range anchor")
        if params.ell is not None:
            raise BadParams("metric cones carry no slope")
    elif kind == FamilyKind.GAUGE:
        if params.a <= 0.0:
            raise BadParams("gauge members need a > 0")
        _require_slope(family, params)
    else:  # pragma: no cover
        raise BadParams(f"unknown family kind {kind}")


def _require_slope(family: ElemFamily, params: ElemParams) -> None:
    if params.ell is None:
        raise BadParams("this family needs a slope vector")
    if params.ell.shape[0] != family.domain.dim:
        raise BadParams("slope dimension does not match the domain")


def eval_on_domain(family: ElemFamily, params: ElemParams) -> np.ndarray:
    """Values of one family member at every domain point."""
    validate_params(family, params)
    kind = family.kind
    pts = family.domain.points
    if kind == FamilyKind.AFFINE:
        return pts @ params.ell + params.c
    if kind == FamilyKind.QUAD_MINUS:
        sq = (pts * pts).sum(axis=1)
        return (-params.a) * sq + pts @ params.ell + params.c
    if kind == FamilyKind.QUAD_PLUS:
        sq = (pts * pts).sum(axis=1)
        return params.a * sq + pts @ params.ell + params.c
    if kind == FamilyKind.SIGMA_NU:
        return params.a * family.sigma.values + family.nu.values + params.c
    if kind == FamilyKind.METRIC:
        return (-params.a) * family.domain.dist[params.anchor] + params.c
    if kind == FamilyKind.GENERALIZED_METRIC:
        shape_vals = family.g_shape(family.domain.dist[params.anchor])
        return (-params.a) * shape_vals + params.c
    # gauge
    return (-params.a) * family.gauge_values() + pts @ params.ell + params.c


def eval_elementary(family: ElemFamily, params: ElemParams, x: int) -> float:
    """The defining formula's value at one grid point."""
    return float(eval_on_domain(family, params)[x])


@dataclass(frozen=True)
class DualGrid:
    """A finite parameter sample of one family, offsets fixed to zero."""

    family: ElemFamily
    params_list: tuple[ElemParams, ...]
    _matrix: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        params = tuple(self.params_list)
        if not params:
            raise ValueError("DualGrid needs at least one parameter tuple")
        seen = set()
        for p in params:
            validate_params(self.family, p)
            if p.c != 0.0:
                raise ValueError("DualGrid offsets are eliminated analytically; use c = 0")
            k = p.key()
            if k in seen:
                raise ValueError("duplicate parameter tuple in DualGrid")
            seen.add(k)
        object.__setattr__(self, "params_list", params)
        mat = np.vstack([eval_on_domain(self.family, p) for p in params])
        mat.flags.writeable = False
        object.__setattr__(self, "_matrix", mat)

    @property
    def size(self) -> int:
        return len(self.params_list)

    @property
    def matrix(self) -> np.ndarray:
        """(n_params, n_points) member values at grid points."""
        return self._matrix


def _slope_ladder(bound: float, count: int) -> np.ndarray:
    count = max(3, int(count))
    if count % 2 == 0:
        count += 1
    return np.linspace(-bound, bound, count)


def _slope_vectors(dim: int, bound: float, count: int) -> list[np.ndarray]:
    ladder = _slope_ladder(bound, count)
    if dim == 1:
        return [np.array([s]) for s in ladder]
    vecs = [np.zeros(dim)]
    for k in range(dim):
        for s in ladder:
            if s != 0.0:
                v = np.zeros(dim)
                v[k] = s
                vecs.append(v)
    return vecs


def slope_bound(f: GridFn, domain: FiniteMetricSpace) -> float:
    """Twice the largest finite difference quotient of f over the grid."""
    finite = np.isfinite(f.values)
    idx = np.flatnonzero(finite)
    if idx.size < 2:
        return 1.0
    vals = f.values[idx]
    num = np.abs(vals[:, None] - vals[None, :])
    den = domain.dist[np.ix_(idx, idx)]
    mask = den > 0
    if not mask.any():
        return 1.0
    bound = 2.0 * float((num[mask] / den[mask]).max())
    return bound if bound > 0 else 1.0


def default_dual_grid(
    family: ElemFamily,
    f: Optional[GridFn] = None,
    slope_count: int = 9,
    curvature_levels: int = 5,
    max_anchors: Optional[int] = None,
) -> DualGrid:
    """Data-driven default parameter sample: slopes span the difference-quotient
    bound of f, curvatures ride a geometric ladder, metric anchors default to
    every domain point."""
    kind = family.kind
    domain = family.domain
    L = slope_bound(f, domain) if f is not None else 1.0
    rungs = [2.0 ** k for k in range(max(1, curvature_levels))]

    params: list[ElemParams] = []
    if kind == FamilyKind.AFFINE:
        params = [ElemParams(ell=v) for v in _slope_vectors(domain.dim, L, slope_count)]
    elif kind in (FamilyKind.QUAD_MINUS, FamilyKind.QUAD_PLUS):
        vecs = _slope_vectors(domain.dim, L, min(slope_count, 5))
        for a in [0.0] + rungs:
            params.extend(ElemParams(a=a, ell=v) for v in vecs)
    elif kind == FamilyKind.SIGMA_NU:
        params = [ElemParams(a=a) for a in [0.0] + rungs]
    elif kind in (FamilyKind.METRIC, FamilyKind.GENERALIZED_METRIC):
        anchors = np.arange(domain.n)
        if max_anchors is not None and anchors.size > max_anchors:
            anchors = anchors[np.linspace(0, anchors.size - 1, max_anchors).round().astype(int)]
        ladder = rungs if f is None else sorted(set(rungs) | {max(L, rungs[0])})
        for anchor in anchors:
            params.extend(ElemParams(a=a, anchor=int(anchor)) for a in ladder)
    elif kind == FamilyKind.GAUGE:
        vecs = _slope_vectors(domain.dim, L, min(slope_count, 5))
        for a in rungs:
            params.extend(ElemParams(a=a, ell=v) for v in vecs)
    return DualGrid(family, tuple(params))


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

def _check_aligned(f: GridFn, dual: DualGrid) -> None:
    if f.size != dual.family.domain.n:
        raise ValueError("grid function and dual grid live on different domains")


def conjugate_transform(f: GridFn, dual: DualGrid) -> np.ndarray:
    """Conjugate values sup_x (phi(x) - f(x)), one entry per parameter tuple.

    Entries are -inf exactly when f is identically +inf.  Subtractions round
    upward (see core.sub_up) so the conjugation pair is an exact Galois
    connection on floats.  Reduced in row blocks of the parameter grid.
    """
    _check_aligned(f, dual)
    if np.isneginf(f.values).any():
        raise ImproperInput("conjugate of a function taking -inf is +inf everywhere")
    M, v = dual.matrix, f.values
    return by_row_blocks(lambda rows: sub_up(M[rows], v[None, :]).max(axis=1),
                         M.shape[0], _SUB_UP_BYTES * M.shape[1])


def biconjugate(f: GridFn, dual: DualGrid) -> GridFn:
    """Largest minorant of f built from the dual grid's members.

    Dominates exactly: biconjugate(f) <= f at every point, and applying the
    map twice reproduces its output bit-for-bit.  Reduced in blocks of grid
    points (columns of the member matrix).
    """
    star = conjugate_transform(f, dual)
    M = dual.matrix

    def column_max(cols):
        # max(axis=0) folds the rows in order, which sets the sign of a zero
        # maximum; numpy would reduce a lone column as a vector, in another order
        d = sub_up(M[:, cols], star[:, None])
        if d.shape[1] == 1 < M.shape[1]:
            return np.repeat(d, 2, axis=1).max(axis=0)[:1]
        return d.max(axis=0)

    vals = by_row_blocks(column_max, M.shape[1], _SUB_UP_BYTES * M.shape[0])
    return GridFn(f.domain, vals)


def is_support(family: ElemFamily, params: ElemParams, f: GridFn, tol: float = 0.0) -> bool:
    """Whether the member minorizes f up to tol: max(phi - f) <= tol."""
    if np.isneginf(f.values).any():
        return False
    gap = sub_up(eval_on_domain(family, params), f.values).max()
    return bool(gap <= tol)


def convexity_defect(f: GridFn, x0: int, dual: DualGrid) -> float:
    """f(x0) - f**(x0) >= 0; zero iff f is family-convex at x0 on this grid."""
    if np.isposinf(f.values[x0]):
        raise InfiniteAtPoint(f"f is +inf at point {x0}")
    if not np.isfinite(f.values[x0]):
        raise ImproperInput("convexity defect needs a finite value at x0")
    second = biconjugate(f, dual)
    return float(f.values[x0] - second.values[x0])


# ---------------------------------------------------------------------------
# Peaking and Urysohn witnesses
# ---------------------------------------------------------------------------

def _cone_shape_values(family: ElemFamily, y0: int) -> np.ndarray:
    d = family.domain.dist[y0]
    if family.kind == FamilyKind.GENERALIZED_METRIC:
        return np.asarray(family.g_shape(d), dtype=float)
    return d


def peaking_witness(
    family: ElemFamily,
    y0: int,
    eps: float,
    delta: float,
    K: float,
    g: ElemParams,
) -> ElemParams:
    """A cone member bar_g with bar_g <= eps everywhere and
    bar_g <= g - K on {d(., y0) >= delta}, verified exactly on the grid."""
    if family.kind not in PEAKING_KINDS:
        raise BadParams("peaking witnesses exist for metric-cone families only")
    if delta <= 0:
        raise BadParams("delta must be positive")
    validate_params(family, g)

    d = family.domain.dist[y0]
    shape = _cone_shape_values(family, y0)
    far = d >= delta
    g_vals = eval_on_domain(family, g)

    if not far.any():
        a = 1.0
    else:
        if (shape[far] <= 0).any():
            raise NoWitness("cone shape vanishes on the far set; no decay possible")
        need = (eps + K - g_vals[far]) / shape[far]
        a = float(need.max())
        if a <= 0.0:
            a = 1.0

    for _ in range(_MAX_NUDGES):
        bar = ElemParams(a=a, anchor=y0, c=eps)
        bar_vals = eval_on_domain(family, bar)
        if (bar_vals <= eps).all() and not (bar_vals[far] > g_vals[far] - K).any():
            return bar
        a *= _NUDGE
    raise NoWitness("grid verification failed for every candidate scale")


def urysohn_witness(family: ElemFamily, y0: int, eps: float, delta: float) -> ElemParams:
    """A member peaking at y0: value > 1 - eps there, <= 1 on d < delta,
    <= 0 on d >= delta; all three checked exactly on the grid."""
    if eps <= 0 or delta <= 0:
        raise BadParams("eps and delta must be positive")
    if family.kind == FamilyKind.METRIC:
        return _urysohn_metric(family, y0, eps, delta)
    if family.kind == FamilyKind.GAUGE:
        return _urysohn_gauge(family, y0, eps, delta)
    raise BadParams("urysohn witnesses are constructed for Metric or Gauge families")


def _verify_urysohn(family: ElemFamily, params: ElemParams, y0: int,
                    eps: float, delta: float) -> bool:
    vals = eval_on_domain(family, params)
    d = family.domain.dist[y0]
    near = d < delta
    return bool(vals[y0] > 1.0 - eps
                and (vals[near] <= 1.0).all()
                and (vals[~near] <= 0.0).all())


def _urysohn_metric(family: ElemFamily, y0: int, eps: float, delta: float) -> ElemParams:
    a = 1.0 / delta
    for _ in range(_MAX_NUDGES):
        params = ElemParams(a=a, anchor=y0, c=1.0)
        if _verify_urysohn(family, params, y0, eps, delta):
            return params
        a *= _NUDGE
    raise NoWitness("metric urysohn construction failed grid verification")


def _urysohn_gauge(family: ElemFamily, y0: int, eps: float, delta: float) -> ElemParams:
    domain = family.domain
    mu = family.gauge_values()
    d = domain.dist[y0]

    if domain.origin_index() == y0:
        # gauge ball centered at the peak: a = 1/(kappa * delta) with kappa the
        # grid equivalence constant between the gauge and the domain metric
        pos = d > 0
        if not pos.any():
            return ElemParams(a=1.0, ell=np.zeros(domain.dim), c=1.0)
        if (mu[pos] <= 0).any():
            raise NoWitness("gauge vanishes away from the origin on this grid")
        kappa = float((mu[pos] / d[pos]).min())
        a = 1.0 / (kappa * delta)
        for _ in range(_MAX_NUDGES):
            params = ElemParams(a=a, ell=np.zeros(domain.dim), c=1.0)
            if _verify_urysohn(family, params, y0, eps, delta):
                return params
            a *= _NUDGE
        raise NoWitness("gauge urysohn construction failed grid verification")

    return _urysohn_gauge_lp(family, y0, eps, delta)


def _urysohn_gauge_lp(family: ElemFamily, y0: int, eps: float, delta: float) -> ElemParams:
    # Off-origin peaks have no closed form for a gauge anchored at the origin;
    # search (a, ell, c) by maximizing the worst slack of the three conditions.
    from scipy.optimize import linprog

    domain = family.domain
    mu = family.gauge_values()
    pts = domain.points
    d = domain.dist[y0]
    near = d < delta
    dim = domain.dim

    # variables: a, ell (dim), c, margin m; maximize m
    n_var = dim + 3
    rows, rhs = [], []

    def g_row(i, margin_coeff):
        row = np.zeros(n_var)
        row[0] = -mu[i]
        row[1:1 + dim] = pts[i]
        row[1 + dim] = 1.0
        row[2 + dim] = margin_coeff
        return row

    for i in range(domain.n):
        if near[i]:
            rows.append(g_row(i, 0.0))
            rhs.append(1.0)
        else:
            rows.append(g_row(i, 1.0))
            rhs.append(0.0)
    rows.append(-g_row(y0, -1.0))
    rhs.append(-(1.0 - eps))

    big = 1e6
    res = linprog(
        c=np.concatenate([np.zeros(n_var - 1), [-1.0]]),
        A_ub=np.vstack(rows),
        b_ub=np.asarray(rhs),
        bounds=[(1e-9, big)] + [(-big, big)] * dim + [(-big, big), (0.0, 1.0)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 1e-9:
        raise NoWitness("no gauge member satisfies the peak inequalities on this grid")
    a, ell, c = float(res.x[0]), res.x[1:1 + dim].copy(), float(res.x[1 + dim])
    for _ in range(_MAX_NUDGES):
        params = ElemParams(a=a, ell=ell, c=c)
        if _verify_urysohn(family, params, y0, eps, delta):
            return params
        c = np.nextafter(c, -np.inf)  # shave solver slack off the upper bounds
    raise NoWitness("gauge urysohn LP solution failed exact grid verification")
