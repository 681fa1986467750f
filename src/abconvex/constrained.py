"""Constrained problems through indicator perturbations.

A feasibility map A sends each parameter point to the set of admissible
arguments; perturbing the constraint set embeds the problem in the generic
Lagrangian machinery: metric-cone and quadratic multipliers are grids of
the generic Lagrangian table of the constrained perturbation.

The metric-cone tables of verify_zero_gap_metric and metric_grid_sup take
their partial conjugate from _cone_lagrangian, not the generic kernel: a
cone's value fl(-a * d) falls as d grows and rounding is monotone, so its
sup over the indicator row of G(x) is taken, bit for bit, at the point of
G(x) nearest the anchor, and one masked min per anchor serves every rung.
The Lagrangian is then composed by the generic lagrangian._lagrangian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ExtReal, FiniteMetricSpace, GridFn, PLUS_INF, _freeze, _is_index, by_row_blocks
from .errors import ImproperInput, ImproperObjective, NotSeparable
from .families import (DualGrid, ElemFamily, ElemParams, eval_on_domain, members_on_domain,
                       validate_members)
from .lagrangian import (
    DualityReport,
    EQ_TOL,
    LagTable,
    PerturbationProblem,
    _lagrangian,
    duality_report,
)

DEFAULT_LADDER = tuple(2.0 ** k for k in range(7))

_BOOLS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class ConstraintMap:
    """Feasible sets A(y) = feasible[y] and their (n_x, n_y) boolean mask:
    mask[x, y] iff x in A(y) iff y in G(x), G = A^(-1) the inverse map.  An
    index is an integer or an integral float, read as its integer; a bool or
    any other value raises ValueError."""

    feasible: tuple[frozenset, ...]  # A(y) per parameter index
    n_x: int
    allow_empty: bool = False

    def __post_init__(self):
        sets = []
        for y, s in enumerate(map(frozenset, self.feasible)):
            try:  # int(i) == i unless i is non-integral; a bool is told by its type
                ints = frozenset(map(int, s))
            except (OverflowError, TypeError, ValueError):  # inf, NaN or not a number
                ints = None
            if ints != s or not _BOOLS.isdisjoint(map(type, s)):
                raise ValueError(f"A(y={y}) holds an index that is not an integer")
            if ints and not 0 <= min(ints) <= max(ints) < self.n_x:
                raise ValueError(f"A(y={y}) references an out-of-range argument")
            if not ints and not self.allow_empty:
                raise ValueError(f"A(y={y}) is empty; pass allow_empty to permit this")
            sets.append(ints)
        mask = np.zeros((self.n_x, len(sets)), dtype=bool)
        mask[np.fromiter(itertools.chain.from_iterable(sets), np.intp),
             np.repeat(np.arange(len(sets)), list(map(len, sets)))] = True
        object.__setattr__(self, "feasible", tuple(sets))
        object.__setattr__(self, "_mask", _freeze(mask))

    @property
    def n_y(self) -> int:
        return len(self.feasible)

    @property
    def mask(self) -> np.ndarray:
        """(n_x, n_y) boolean: mask[x, y] iff x in A(y) iff y in G(x)."""
        return self._mask


@dataclass(frozen=True)
class ConstrainedInstance:
    """Minimize f over A(y0), with parameters ranging over a metric grid."""

    f: GridFn
    map: ConstraintMap
    Y: FiniteMetricSpace
    y0: int

    def __post_init__(self):
        if not self.f.proper:
            raise ImproperObjective("objective must be proper")
        if self.map.n_x != self.f.size:
            raise ValueError("constraint map and objective disagree on |X|")
        if self.map.n_y != self.Y.n:
            raise ValueError("constraint map and parameter grid disagree on |Y|")
        if not (_is_index(self.y0) and 0 <= self.y0 < self.Y.n):
            raise ValueError("y0 out of range")

    @property
    def n_x(self) -> int:
        return self.f.size


def build_constrained_perturbation(inst: ConstrainedInstance) -> PerturbationProblem:
    """p(x, y) = f(x) on A(y), +inf off it; columns with no finite feasible
    value are registered as explicitly-allowed improper parameters."""
    fvals = inst.f.values
    p = np.where(inst.map.mask, fvals[:, None], np.inf)
    finite_col = np.isfinite(p).any(axis=0)
    allow = frozenset(int(y) for y in np.flatnonzero(~finite_col))
    return PerturbationProblem(Y=inst.Y, p=p, y0=inst.y0, allow_improper_cols=allow)


def metric_primal_sup(inst: ConstrainedInstance, x: int) -> ExtReal:
    """Analytic sup over all metric multipliers: f(x) when y0 is feasible for
    x, +inf otherwise (the unbounded-rung divergence); an x that is not a
    Python or numpy integer in [0, n_x) raises ValueError."""
    if not (_is_index(x) and 0 <= x < inst.n_x):
        raise ValueError("x out of range")
    if inst.map.mask[x, inst.y0]:
        return ExtReal(float(inst.f.values[x]))
    return PLUS_INF


def _cone_lagrangian(inst: ConstrainedInstance, ladder: np.ndarray,
                     rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, S, D) of the constrained perturbation at the arguments rows, for
    every metric cone (a, i): anchor i of Y and rung a of ladder, whose
    values fl(-a * d) the caller has checked to be finite.  L and S have
    shape (rows, n, rungs) and D shape (rows, n).

    D[x, i] = min over k in G(x) of d(i, k), +inf when G(x) is empty.  It is
    reduced in row blocks, each held as (k, x, i) and reduced across its
    slabs (dist is exactly symmetric, so its row k is d(., k)).
    S[x, i, r] = fl(fl(fl(D[x, i] * -a) + 0.0) - f(x)) is the cell that
    _partial_conjugate gives, the max over k in G(x) of the same expression
    at d(i, k), + 0.0: rounding is monotone, so that max is taken at the
    argmin point, and its zero is +0 as well.
    L = _lagrangian(fl(-a * d(i, y0)) + 0.0, S), the generic composition.

    A cell of finite operands that overflows raises ImproperInput, as in the
    generic kernels.  Row x of the partial conjugate overflows if and only
    if its extreme cell does: the largest rung at the point of G(x) farthest
    from an anchor.
    """
    dist, f, mask = inst.Y.dist, inst.f.values[rows], inst.map.mask[rows]
    in_G = np.ascontiguousarray(mask.T)
    D = by_row_blocks(lambda b: np.where(in_G[:, b, None], dist[:, None, :], np.inf).min(axis=0),
                      mask.shape[0], dist.nbytes)
    neg = -ladder
    far = np.where(mask, dist.max(axis=0), 0.0).max(axis=1)  # 0 on an empty G(x)
    with np.errstate(over="raise"):  # an inf operand raises no overflow
        try:
            far * neg.min(initial=0.0) + 0.0 - f
        except FloatingPointError:
            raise ImproperInput("the partial conjugate overflows the doubles") from None
        S = D[:, :, None] * neg
        S += 0.0
        S -= f[:, None, None]
    return _lagrangian(dist[:, inst.y0, None] * neg + 0.0, S), S, D


def metric_grid_sup(inst: ConstrainedInstance, x: int,
                    a_ladder: Sequence[float]) -> np.ndarray:
    """sup over every anchor of the metric Lagrangian at x, one value per rung;
    the finite-ladder companion of metric_primal_sup.  Row x of the cone
    table comes from _cone_lagrangian, after the checks its members would
    get: the rung rules of validate_members, then the one extreme member
    (the largest rung at the largest distance), whose values overflow the
    doubles if any member's do.  x is checked as in metric_primal_sup."""
    if not (_is_index(x) and 0 <= x < inst.n_x):
        raise ValueError("x out of range")
    fam, ladder = ElemFamily.metric(inst.Y), np.asarray(a_ladder, dtype=float).reshape(-1)
    validate_members(fam, ladder, anchor=np.zeros(ladder.size, np.int64))
    if ladder.size:
        members_on_domain(fam, ladder.max(keepdims=True),
                          anchor=[inst.Y.dist.argmax() // inst.Y.n])
    return _cone_lagrangian(inst, ladder, [x])[0][0].max(axis=0) + 0.0


def metric_dual_grid(inst: ConstrainedInstance, a_ladder: Sequence[float]) -> DualGrid:
    """All parameter points as anchors crossed with the rung ladder."""
    ladder = np.asarray(a_ladder, dtype=float).reshape(-1)
    return DualGrid(ElemFamily.metric(inst.Y), a=np.tile(ladder, inst.Y.n),
                    anchor=np.repeat(np.arange(inst.Y.n), ladder.size))


@dataclass(frozen=True)
class MetricZeroGapReport:
    """Zero-gap verification for metric-cone multipliers on a rung ladder.

    constrained_value is the analytic value of the underlying problem (inf of
    the objective over the anchor's feasible set, +inf when empty); the grid
    Lagrangian primal in `duality` can only truncate a divergent sup, so an
    infeasible anchor is flagged rather than silently reported as finite.
    """

    duality: DualityReport
    constrained_value: ExtReal
    ladder: tuple[float, ...]  # the rungs sorted, each once
    minimal_rung: Optional[float]
    proof_bound: float
    anchor_feasible: bool
    hypothesis: str


def verify_zero_gap_metric(inst: ConstrainedInstance,
                           a_ladder: Sequence[float] = DEFAULT_LADDER,
                           tol: float = EQ_TOL) -> MetricZeroGapReport:
    """Run the generic duality report on the metric dual grid, record the
    smallest rung closing the gap, and check the anchored-rung sufficiency
    bound: once some rung dominates (primal - f(x)) / d(y0, G(x)) over the
    infeasible arguments, the gap must close.

    An instance with no feasible argument at y0 is reported with primal +inf
    and flagged instead of rejected.  A quotient of the bound that overflows
    to +inf makes proof_bound +inf, which no rung dominates, so the
    sufficiency check is skipped; one that overflows to -inf leaves it as is.
    """
    ladder = tuple(sorted({float(a) for a in a_ladder}))
    if not ladder or any(a <= 0 for a in ladder):  # a NaN leaves sorted() unordered
        raise ValueError("the rung ladder must contain positive values only")
    if np.isnan(tol):
        raise ValueError("tol must not be NaN")
    prob = build_constrained_perturbation(inst)
    grid = metric_dual_grid(inst, ladder)
    L, S, D = _cone_lagrangian(inst, np.asarray(ladder), slice(None))
    table = LagTable(L=L.reshape(inst.n_x, -1), S=S.reshape(inst.n_x, -1),
                     psi_grid=grid, y0=inst.y0)
    report = duality_report(prob, grid, _table=table)

    primal = report.primal.as_float()
    anchor_feasible = bool(np.isfinite(prob.p[:, inst.y0]).any())
    constrained_value = ExtReal(float(prob.p[:, inst.y0].min()))

    dist_to_G = D[:, inst.y0]
    infeasible = ~inst.map.mask[:, inst.y0] & np.isfinite(inst.f.values) \
        & np.isfinite(dist_to_G) & (dist_to_G > 0)
    if np.isfinite(primal) and infeasible.any():
        with np.errstate(over="ignore"):  # a bound past the largest double reads +inf
            proof_bound = float(
                np.max((primal - inst.f.values[infeasible]) / dist_to_G[infeasible],
                       initial=0.0)
            )
    else:
        proof_bound = 0.0

    minimal_rung = None
    if np.isfinite(primal):
        # the best multiplier of each rung or a lower one, as Python floats:
        # a difference past the largest double is +inf, and open
        best = np.maximum.accumulate(table.col_inf.reshape(-1, len(ladder)).max(axis=0))
        minimal_rung = next((a for a, b in zip(ladder, best.tolist()) if primal - b <= tol),
                            None)

    if anchor_feasible and np.isfinite(primal) and ladder[-1] >= proof_bound:
        if not report.gap <= tol:
            raise AssertionError(
                "rung ladder dominates the sufficiency bound but the gap stayed open"
            )

    return MetricZeroGapReport(
        duality=report, constrained_value=constrained_value, ladder=ladder,
        minimal_rung=minimal_rung, proof_bound=proof_bound,
        anchor_feasible=anchor_feasible,
        hypothesis="peaking metric cones (anchored-rung certificates)",
    )


def phi_lsc_set_separation(space: FiniteMetricSpace, C, p_out: int,
                           ladder: Sequence[float] = DEFAULT_LADDER) -> ElemParams:
    """A quadratic-minorant member positive at p_out and nonpositive on C.

    Tries the affine separator through the centroid first, then ball-shaped
    quadratics centered at the excluded point along the rung ladder; every
    candidate is re-verified exactly on the grid before being returned.
    Indices must be Python or numpy integers (not bools); anything else
    raises ValueError before any point is read.
    """
    C = list(C)
    if not all(map(_is_index, C)):
        raise ValueError("C must hold integer point indices")
    C = sorted(int(i) for i in C)
    if not C:
        raise ValueError("C must be nonempty")
    if not _is_index(p_out):
        raise ValueError("p_out must be an integer point index")
    if not 0 <= p_out < space.n:
        raise ValueError("p_out out of range")
    if C[0] < 0 or C[-1] >= space.n:
        raise ValueError("C references an out-of-range point")
    if p_out in C:
        raise ValueError("p_out must lie outside C")
    fam = ElemFamily.quad_minus(space)
    pts = space.points
    p_vec = pts[p_out]
    D2 = float(((pts[C] - p_vec[None, :]) ** 2).sum(axis=1).min())
    p_sq = float(p_vec @ p_vec)
    # affine first: direction from the centroid of C to the excluded point
    ell = p_vec - pts[C].mean(axis=0)
    candidates = itertools.chain(
        [ElemParams(a=0.0, ell=ell, c=-float((pts[C] @ ell).max()))],
        (ElemParams(a=float(a), ell=2.0 * a * p_vec, c=a * D2 / 2.0 - a * p_sq)
         for a in ladder))
    best = -np.inf
    for cand in candidates:
        vals = eval_on_domain(fam, cand)
        if vals[p_out] > 0.0 and (vals[C] <= 0.0).all():
            return cand
        best = max(best, min(float(vals[p_out]), float(-vals[C].max())))
    raise NotSeparable("no separator on the grid ladder", best)
