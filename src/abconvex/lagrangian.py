"""Perturbation-based Lagrangian duality on finite grids.

A problem instance is a table p(x, y) with a distinguished parameter y0.
Multipliers are drawn from a finite sample of an elementary family over the
parameter grid; the Lagrangian is L(x, psi) = psi(y0) - sup_y (psi(y) - p(x, y)).
The sup, the partial conjugate, and its composition into L each have one
kernel for every caller, the constrained module included.
Reports expose the primal/dual values, the optimal value function V and its
grid biconjugate at y0, and level certificates built from constant supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ExtReal, FiniteMetricSpace, GridFn, _freeze, by_row_blocks
from .errors import ImproperInput, ImproperProblem, LevelAbovePrimal, NotConvexCombinable
from .families import CONVEX_KINDS, DualGrid, ElemFamily, ElemParams, eval_on_domain
from .minimax import TCertificate

EQ_TOL = 1e-9
#: bytes of differences one step of a _partial_conjugate block holds.  Swept
#: on the large-grids tables (2 cores, 4 MiB L2 each; ROADMAP item 8): 256 kB
#: to 1 MiB were equally fast, 2 MiB as slow as unstepped blocks.
_STEP_BYTES = 1 << 20


@dataclass(frozen=True)
class PerturbationProblem:
    """p: X x Y -> (-inf, +inf] with p(., y) proper for every parameter y.

    Columns listed in allow_improper_cols may be identically +inf; that escape
    hatch exists for constrained instances whose feasible set is empty at some
    parameter, and such instances are flagged in reports rather than rejected.
    """

    Y: FiniteMetricSpace
    p: np.ndarray
    y0: int
    allow_improper_cols: frozenset = frozenset()

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1:
            raise ImproperProblem("p must be a nonempty |X| x |Y| table")
        if p.shape[1] != self.Y.n:
            raise ImproperProblem("p column count must match the parameter grid")
        if np.isnan(p).any():
            raise ImproperProblem("p cannot contain NaN")
        if np.isneginf(p).any():
            raise ImproperProblem("p takes -inf; every p(., y) must be proper")
        if not (0 <= self.y0 < self.Y.n):
            raise ImproperProblem("y0 out of range")
        finite_col = np.isfinite(p).any(axis=0)
        for y in np.flatnonzero(~finite_col):
            if int(y) not in self.allow_improper_cols:
                raise ImproperProblem(
                    f"p(., y={int(y)}) is identically +inf; properness fails"
                )
        object.__setattr__(self, "p", _freeze(p.copy()))
        object.__setattr__(self, "allow_improper_cols",
                           frozenset(int(y) for y in self.allow_improper_cols))

    @property
    def n_x(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class LagTable:
    """L(x, psi) over the multiplier grid; rows of +inf mark empty dom p(x, .).
    row_sup = sup_psi L(x, .) = p_x**(y0) and col_inf = inf_x L(., psi)."""

    L: np.ndarray
    S: np.ndarray  # the partial conjugate p*_x(psi) that L is composed from
    psi_grid: DualGrid
    y0: int
    row_sup: np.ndarray = field(init=False, repr=False, compare=False)
    col_inf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = _freeze(np.asarray(self.L, dtype=float))
        row_sup = L.max(axis=1)
        if (np.isposinf(row_sup) & (L.min(axis=1) < np.inf)).any():
            raise ImproperProblem("a Lagrangian row mixes +inf with finite values")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "row_sup", _freeze(row_sup))
        object.__setattr__(self, "col_inf", _freeze(L.min(axis=0)))
        _freeze(self.S)


@dataclass(frozen=True)
class SupportFn:
    """Descriptor of a support member used in certificates."""

    kind: str
    level: float = 0.0


@dataclass(frozen=True)
class Certificate:
    """Multipliers plus support members witnessing a level via a combination."""

    psi1: ElemParams
    psi2: ElemParams
    phi1: SupportFn
    phi2: SupportFn
    t: TCertificate


@dataclass(frozen=True)
class DualityReport:
    """Primal/dual values of the Lagrangian pair relative to a multiplier grid;
    `table` is the Lagrangian table they were reduced from."""

    primal: ExtReal
    dual: ExtReal
    gap: ExtReal
    V: GridFn
    V_star: np.ndarray
    V_bidual_at_y0: ExtReal
    reconstruction_ok: bool
    certificate: Optional[Certificate]
    psi_grid: DualGrid
    y0: int
    convexity_scope: str
    convexity_holds: bool
    table: LagTable = field(compare=False, repr=False)

    def anchor_gap(self) -> ExtReal:
        """V(y0) - dual: discrepancy between the original problem's value and
        the dual; nonzero whenever reconstruction fails or a gap exists."""
        v0 = float(self.V.values[self.y0])
        d = self.dual.as_float()
        return ExtReal(0.0) if v0 == d else ExtReal(v0) - self.dual


def _partial_conjugate(E: np.ndarray, p: np.ndarray) -> np.ndarray:
    """S[x, j] = max_k (E[j, k] - p[x, k]): the sup over the parameter grid of
    member j minus row x of the perturbation; -inf exactly on empty rows.

    The one reduction behind every Lagrangian in the package; reduced in row
    blocks of x, so the n_x x P x n_y differences are never held at once.  A
    block reduces its rows in steps of max(1, _STEP_BYTES // E.nbytes) rows,
    so each step's differences stay in a core's cache.  Each output line is
    one reduction over the last axis however the rows are stepped, so the
    steps move no bit, the sign of zero included.
    A difference of finite operands that overflows raises ImproperInput, even
    where a larger term of its row would mask it.
    """
    step = max(1, _STEP_BYTES // max(1, E.nbytes))

    def block(rows):
        p_rows = p[rows]
        out = np.empty((len(p_rows), E.shape[0]), dtype=np.result_type(E, p))
        for i in range(0, len(p_rows), step):
            (E[None, :, :] - p_rows[i:i + step, None, :]).max(axis=2, out=out[i:i + step])
        return out

    with np.errstate(over="raise", invalid="ignore"):
        try:
            return by_row_blocks(block, p.shape[0], E.nbytes)
        except FloatingPointError:
            raise ImproperInput("the partial conjugate overflows the doubles") from None


def partial_conjugate(prob: PerturbationProblem, x: int,
                      family: ElemFamily, params: ElemParams) -> ExtReal:
    """sup over the parameter grid of psi(y) - p(x, y) for one multiplier;
    ImproperInput when a difference overflows the doubles."""
    vals = eval_on_domain(family, params)
    return ExtReal(float(_partial_conjugate(vals[None, :], prob.p[x][None, :])[0, 0]))


def _lagrangian(E: np.ndarray, p: np.ndarray, y0: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, S) with S = _partial_conjugate(E, p) and L[x, j] = E[j, y0] - S[x, j]:
    the one composition of the Lagrangian (E finite, S finite or -inf, no NaN).
    An L that overflows the doubles raises ImproperInput."""
    S = _partial_conjugate(E, p)
    with np.errstate(over="raise"):
        try:
            return E[:, y0][None, :] - S, S
        except FloatingPointError:
            raise ImproperInput("the Lagrangian overflows the doubles") from None


def _reproduces(bidual: np.ndarray, p: np.ndarray) -> bool:
    """Whether a grid biconjugate reproduces p: within EQ_TOL where p is
    finite and +inf where p is +inf."""
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow is above EQ_TOL
        return bool(np.where(np.isfinite(p), np.abs(bidual - p) <= EQ_TOL,
                             np.isposinf(bidual)).all())


def build_lagrangian(prob: PerturbationProblem, psi_grid: DualGrid) -> LagTable:
    """L(x, psi) = psi(y0) - p*_x(psi) for every multiplier on the grid."""
    if psi_grid.family.domain.n != prob.Y.n:
        raise ImproperProblem("multiplier grid must live on the parameter domain")
    L, S = _lagrangian(psi_grid.matrix, prob.p, prob.y0)
    return LagTable(L=L, S=S, psi_grid=psi_grid, y0=prob.y0)


def duality_report(prob: PerturbationProblem, psi_grid: DualGrid,
                   convexity_scope: str = "anchor",
                   attach_certificate: bool = True) -> DualityReport:
    """Full primal/dual report.

    primal = min_x max_psi L, dual = max_psi min_x L.  The identity
    dual == V**(y0) holds bit-exactly because both sides reduce over the same
    partial-conjugate table.  gap is primal - dual (zero when they agree,
    including at shared infinities).

    With convexity_scope="full", convexity_holds asks whether every p(x, .)
    equals its grid biconjugate, a table of n_x x n_y partial conjugates.
    Its column y0 reduces the cells of table.row_sup, so when the anchor
    check fails the full check fails too: convexity_holds is then False and
    the table is never built, even where one of its cells would overflow.
    When it is built, an overflow raises ImproperInput as at every other
    partial conjugate.
    """
    if convexity_scope not in ("anchor", "full"):
        raise ValueError("convexity_scope must be 'anchor' or 'full'")
    table = build_lagrangian(prob, psi_grid)
    E, S = psi_grid.matrix, table.S
    primal = float(table.row_sup.min())
    dual = float(table.col_inf.max())

    V = GridFn(prob.Y, prob.p.min(axis=0))
    V_star = S.max(axis=0)
    V_bidual = float(_partial_conjugate(E[:, prob.y0][None, :], V_star[None, :])[0, 0])
    if V_bidual != dual:
        raise AssertionError("dual != V**(y0); internal reduction mismatch")

    reconstruction_ok = _reproduces(table.row_sup, prob.p[:, prob.y0])
    convexity_holds = reconstruction_ok and (
        convexity_scope == "anchor" or _reproduces(_partial_conjugate(E.T, S), prob.p))

    if primal == dual:
        gap = ExtReal(0.0)
    else:
        gap = ExtReal(primal) - ExtReal(dual)

    certificate = None
    if attach_certificate and np.isfinite(primal) and float(gap) <= EQ_TOL:
        # primal - 1e-6 rounds back to primal once |primal| is above about 1e10
        alpha = min(primal - 1e-6, math.nextafter(primal, -math.inf))
        certificate = gap_certificate(prob, psi_grid, alpha, _table=table)

    return DualityReport(
        primal=ExtReal(primal), dual=ExtReal(dual), gap=gap,
        V=V, V_star=V_star, V_bidual_at_y0=ExtReal(V_bidual),
        reconstruction_ok=reconstruction_ok, certificate=certificate,
        psi_grid=psi_grid, y0=prob.y0, convexity_scope=convexity_scope,
        convexity_holds=convexity_holds, table=table,
    )


def gap_certificate(prob: PerturbationProblem, psi_grid: DualGrid, alpha: float,
                    _table: Optional[LagTable] = None) -> Optional[Certificate]:
    """Search the grid for a multiplier whose Lagrangian row stays above alpha.

    On success the constant function at level alpha is a support member of
    L(., psi_bar), so the trivial combination certifies the level.  None means
    no grid multiplier reaches alpha (the dual value bounds all row minima).
    """
    table = _table if _table is not None else build_lagrangian(prob, psi_grid)
    primal = float(table.row_sup.min())
    if not alpha < primal:
        raise LevelAbovePrimal(f"alpha={alpha} is not strictly below primal={primal}")
    hits = np.flatnonzero(table.col_inf >= alpha)
    if hits.size == 0:
        return None
    psi_bar = psi_grid.member(int(hits[0]))
    const = SupportFn(kind="constant", level=float(alpha))
    return Certificate(
        psi1=psi_bar, psi2=psi_bar, phi1=const, phi2=const,
        t=TCertificate(t0=0.0, level=float(alpha), lower_envelope_value=float(alpha)),
    )


def alpha_sweep(prob: PerturbationProblem,
                psi_grid: DualGrid) -> list[tuple[float, Optional[Certificate]]]:
    """Geometric approach of the certificate level to the primal value:
    seven halvings of a unit offset, then the final step at primal - 1e-6,
    each level at least one double below primal."""
    table = build_lagrangian(prob, psi_grid)
    primal = float(table.row_sup.min())
    if not np.isfinite(primal):
        raise LevelAbovePrimal("alpha sweep needs a finite primal value")
    offsets = [2.0 ** -k for k in range(7)] + [1e-6]
    out = []
    for off in offsets:
        alpha = min(primal - off, math.nextafter(primal, -math.inf))
        out.append((alpha, gap_certificate(prob, psi_grid, alpha, _table=table)))
    return out


def concavity_probe(prob: PerturbationProblem, family: ElemFamily,
                    psi_a: ElemParams, psi_b: ElemParams, t: float) -> bool:
    """Verify L(x, t psi_a + (1-t) psi_b) >= t L(x, psi_a) + (1-t) L(x, psi_b)
    at every x (1e-9 slack for the parameter-combination rounding)."""
    if family.kind not in CONVEX_KINDS:
        raise NotConvexCombinable(
            f"{family.kind.value} members do not combine convexly"
        )
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    Ea = eval_on_domain(family, psi_a)
    Eb = eval_on_domain(family, psi_b)
    E = np.vstack([Ea, Eb, t * Ea + (1.0 - t) * Eb])
    La, Lb, Lc = _lagrangian(E, prob.p, prob.y0)[0].T
    if t == 0.0:
        rhs = Lb
    elif t == 1.0:
        rhs = La
    else:
        rhs = np.where(np.isposinf(La) | np.isposinf(Lb), np.inf,
                       t * np.where(np.isposinf(La), 0.0, La)
                       + (1.0 - t) * np.where(np.isposinf(Lb), 0.0, Lb))
    both_inf = np.isposinf(Lc) & np.isposinf(rhs)
    return bool((both_inf | (Lc >= rhs - EQ_TOL)).all())


def _lsc_defects(V: GridFn, y0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lsc_profile's (radii, defects), unchecked, and a mask of the defects
    whose V(y0) - min of finite operands overflowed to +inf."""
    d = V.domain.dist[y0]
    order = np.argsort(d, kind="stable")
    order = order[d[order] > 0]
    ds = d[order]
    if not ds.size:
        return ds, ds, ds > 0
    v0 = V.values[y0]
    if not np.isfinite(v0):
        raise ValueError("lsc_defect needs a finite value at y0")
    last = np.flatnonzero(np.append(ds[1:] != ds[:-1], True))  # each distance's last point
    low = np.minimum.accumulate(V.values[order])[last]
    with np.errstate(over="ignore"):
        excess = v0 - low
    return ds[last], np.where(excess > 0.0, excess, 0.0), np.isposinf(excess) & (low > -np.inf)


def lsc_profile(V: GridFn, y0: int) -> tuple[np.ndarray, np.ndarray]:
    """(radii, defects): each distinct positive distance r from y0, ascending,
    and lsc_defect(V, y0, r), from one stable sort of the distances and a
    prefix minimum of V along it.  With no radius, V(y0) goes unchecked.

    A defect V(y0) - min of finite operands that overflows raises
    ImproperInput: its exact value is then a real above the largest double.
    """
    radii, defects, overflow = _lsc_defects(V, y0)
    if overflow.any():
        raise ImproperInput("the lsc defect overflows the doubles")
    return radii, defects


def lsc_defect(V: GridFn, y0: int, radius: float) -> float:
    """max(0, V(y0) - min over the punctured ball of radius r); 0 on empty balls.

    A radius-indexed proxy: pointwise lower semicontinuity is vacuous on a
    finite grid, so callers watch the defect as the radius shrinks with the
    grid spacing.  A radius that is not positive (NaN included) raises
    ValueError, and a defect that overflows the doubles ImproperInput.
    """
    if not isinstance(V.domain, FiniteMetricSpace):
        raise ValueError("lsc_defect needs a metric domain")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(V.values[y0]):
        raise ValueError("lsc_defect needs a finite value at y0")
    radii, defects, overflow = _lsc_defects(V, y0)
    inside = np.count_nonzero(radii <= radius)
    if not inside:
        return 0.0
    if overflow[inside - 1]:
        raise ImproperInput("the lsc defect overflows the doubles")
    return float(defects[inside - 1])
