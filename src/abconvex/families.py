"""Elementary function classes with conjugation, support tests, and peak witnesses.

Seven parameterized families play the role that affine functions play in
classical convex duality: plain affine, quadratic minorant/majorant shapes,
sigma-nu combinations, metric cones, generalized metric cones, and Minkowski
gauges.  A finite parameter sample (DualGrid) stands in for the full class.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Optional

import numpy as np

from .core import FiniteMetricSpace, GridFn, _freeze, _is_index, by_row_blocks, max_sub_up
from .errors import BadParams, ImproperInput, NoWitness

_NUDGE = 1.0 + 2.0 ** -46
_MAX_NUDGES = 64
# an upper bound on the temporaries core.max_sub_up makes per cell of a
# block, which sizes the row blocks of the conjugation pair: they measure
# 9.2 B with one tie a line and 12.3 B when every cell ties (C- or F-ordered),
# but a block of a few thousand cells that all tie holds a chunk of 1024
# rounded ties beside them (24.5 B a cell at 4096 cells).  24 keeps blocks
# near their share of BLOCK_BYTES, and fewer blocks are faster: conjugate plus
# biconjugate of 400 members on 1000 points took 1.0-1.2 + 1.2-1.4 ms at 24,
# 1.3-1.4 + 1.5-1.6 at 40 and 2.5-3.4 + 2.6-3.7 at 80 (2-core box)
_SUB_UP_BYTES = 24


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

#: kinds whose members carry a slope vector ell
SLOPE_KINDS = CONVEX_KINDS - {FamilyKind.SIGMA_NU}

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
    """Parameters of one family member: curvature a, slope ell, anchor, offset c.
    An anchor is an integer or an integral float, not a bool (BadParams)."""

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
            if not _is_anchor(self.anchor):
                raise BadParams("anchor must be an integer")
            object.__setattr__(self, "anchor", int(self.anchor))


def _is_anchor(v) -> bool:
    """v is an integer or an integral float, not a bool."""
    return _is_index(v) or isinstance(v, (float, np.floating)) and v.is_integer()


# Members as arrays of shape (P,), or one member's scalars: a, ell (zero-
# padded to the longest slope in a batch), ell_len (-1 for no slope), anchor
# (0 where no_anchor) and c.  Beside arrays, a field held as a scalar has
# that value for every member.  A member list of any shape keeps all it says.
_Members = namedtuple("_Members", "a ell ell_len anchor no_anchor c")


def _one(p: ElemParams) -> _Members:
    return _Members(p.a, p.ell, -1 if p.ell is None else p.ell.size, p.anchor or 0,
                    p.anchor is None, p.c)


def _from_params(params) -> _Members:
    a, ells, ell_len, anchor, no_anchor, c = zip(*map(_one, params))
    ell = np.zeros((len(params), max(max(ell_len), 0)))
    for row, slope in zip(ell, ells):
        if slope is not None:
            row[:slope.size] = slope
    return _Members(np.array(a), ell, np.array(ell_len), np.array(anchor, np.int64),
                    np.array(no_anchor), np.array(c))


def _arrays(a, ell=None, anchor=None) -> _Members:
    """Parameter arrays as members, with ell_len, no_anchor and c (and the
    anchor when there is none) held as scalars.  A non-finite slope, a
    non-finite a, then an anchor that is a bool or not integral are rejected
    first, as making every ElemParams before checking any would; an integral
    float anchor reads as its integer.  An integer array holds neither kind
    of bad anchor; other anchors are checked one by one, as ElemParams
    checks its own.  Before any of that, an ell with other than a.size rows
    or an anchor with other than a.size entries is a ValueError naming both
    lengths."""
    a = np.array(a, dtype=float).reshape(-1)
    ell = np.zeros((a.size, 0)) if ell is None else np.array(ell, dtype=float, ndmin=1)
    if anchor is None or isinstance(anchor, np.ndarray) and anchor.dtype.kind in "iu":
        odd, n_anchor = [], a.size if anchor is None else anchor.size
    else:
        anchors = np.array(anchor, dtype=object)
        odd, n_anchor = [not _is_anchor(v) for v in anchors.ravel().tolist()], anchors.size
    for field, length in (("ell", len(ell)), ("anchor", n_anchor)):
        if length != a.size:
            raise ValueError(f"{field} has length {length}, a has length {a.size}")
    ell = ell.reshape(a.size, math.prod(ell.shape[1:]))
    if not ((not ell.size or np.isfinite(ell).all()) and np.isfinite(a).all()) or any(odd):
        _raise_first([(~np.isfinite(ell).all(axis=1), BadParams, "slope must be finite"),
                      (~np.isfinite(a), BadParams, "a must be finite"),
                      (np.array(odd or False), BadParams, "anchor must be an integer")])
    return _Members(a, ell, ell.shape[1] or -1,  # zero width: no slopes
                    0 if anchor is None else np.array(anchor, np.int64).reshape(a.size),
                    anchor is None, 0.0)


#: the curvature rule of each kind: members with test(a, 0.0) fail it
_CURVATURE_RULES = {
    FamilyKind.AFFINE: (operator.ne, "affine members have no curvature term"),
    FamilyKind.QUAD_MINUS: (operator.lt, "quadratic curvature must satisfy a >= 0"),
    FamilyKind.QUAD_PLUS: (operator.lt, "quadratic curvature must satisfy a >= 0"),
    FamilyKind.SIGMA_NU: (operator.lt, "sigma coefficient must satisfy a >= 0"),
    FamilyKind.METRIC: (operator.le, "metric cones need a > 0"),
    FamilyKind.GENERALIZED_METRIC: (operator.le, "metric cones need a > 0"),
    FamilyKind.GAUGE: (operator.le, "gauge members need a > 0"),
}


def _member_rules(family: ElemFamily, m: _Members) -> list:
    """(fails, BadParams, message) for each rule of the family, in the order
    a member is checked against them; fails has the shape of m.a."""
    test, message = _CURVATURE_RULES[family.kind]
    rules = [(test(m.a, 0.0), message)]
    if family.kind in PEAKING_KINDS:
        rules += [(m.no_anchor | (m.anchor < 0) | (m.anchor >= family.domain.n),
                   "metric cones need an in-range anchor"),
                  (m.ell_len >= 0, "metric cones carry no slope")]
    elif family.kind in SLOPE_KINDS:
        rules += [(m.ell_len < 0, "this family needs a slope vector"),
                  (m.ell_len != family.domain.dim, "slope dimension does not match the domain")]
    return [(fails, BadParams, message) for fails, message in rules]


def _raise_first(rules: list) -> None:
    """Raise (error, message) of the first member that breaks a rule, taking
    that member's rules in order.  A fails mask has the members' shape or is
    one value for them all; the masks are stacked only when one is set."""
    fails = [f for f, _, _ in rules]
    if not any(f.any() if isinstance(f, np.ndarray) else f for f in fails):
        return
    fails = np.array(np.broadcast_arrays(*fails)).reshape(len(rules), -1)
    _, error, message = rules[int(fails[:, fails.any(axis=0).argmax()].argmax())]
    raise error(message)


def validate_members(family: ElemFamily, a, ell=None, anchor=None) -> None:
    """Raise BadParams unless every member (a[j], ell[j], anchor[j]) is
    admissible for the family; a has shape (P,), ell (P, dim) or None and
    anchor (P,) or None, each anchor an integer or an integral float, not a
    bool.  The first failing member decides the error."""
    _raise_first(_member_rules(family, _arrays(a, ell, anchor)))


def members_on_domain(family: ElemFamily, a, ell=None, anchor=None, c=0.0) -> np.ndarray:
    """(P, n) values at every domain point of the members (a[j], ell[j],
    anchor[j]) plus c (a scalar or shape (P,)), not validated.  Each row is
    bit-identical to the member's formula evaluated alone: one (P, n) array
    updated in place, then a last + c, which keeps a -0.0 only where c is
    -0.0.  A slope term is the product pts @ ell[j], whose sum starts at +0.
    On a one-coordinate domain that is one product a cell, so the terms of
    all members are formed at once, plus 0.0 for that start.  With more
    coordinates the bits follow BLAS, which may fuse a multiply and an add,
    so each member keeps its own product (a product with the stacked slopes
    rounds differently).  Every matrix returned is finite: values that
    overflow the doubles raise ImproperInput."""
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
        else:
            ell = np.asarray(ell, dtype=float)
            if pts.shape[1] == 1 and ell.shape[1:] == (1,):
                out = np.multiply.outer(ell[:, 0], pts[:, 0])
                out += 0.0
            else:
                out = np.empty((a.size, domain.n))
                for row, slope in zip(out, ell):
                    row[:] = pts @ slope
            if kind != FamilyKind.AFFINE:
                base = (family.gauge_values() if kind == FamilyKind.GAUGE
                        else (pts * pts).sum(axis=1))
                out += np.multiply.outer(a if kind == FamilyKind.QUAD_PLUS else -a, base)
        out += np.asarray(c, dtype=float)[..., None]
        # a sum propagates inf and nan and makes no temporary the size of out;
        # only a sum that overflows on finite values needs the min and max
        total = out.sum()
    if not (math.isfinite(total) or math.isfinite(out.min()) and math.isfinite(out.max())):
        raise ImproperInput("member values overflow the doubles")
    return out


def eval_on_domain(family: ElemFamily, params: ElemParams) -> np.ndarray:
    """Values of one family member at every domain point: the one-member
    call of members_on_domain, after the rules of validate_members (BadParams
    when the member is not admissible for the family)."""
    _raise_first(_member_rules(family, _one(params)))
    return members_on_domain(family, [params.a], [params.ell], [params.anchor], params.c)[0]


def _repeats(m: _Members) -> np.ndarray:
    """Members equal to an earlier one as tuples of floats (+ 0.0 makes -0.0
    equal 0.0): after a stable lexsort of one (P, fields) int64 array of
    keys, the rows whose bytes equal the row's before them.  A field held as
    a scalar is the same for every member and is left out."""
    floats = [f for f in (m.a, m.c) if isinstance(f, np.ndarray)] + list(m.ell.T)
    ints = [f for f in (m.ell_len, m.anchor, m.no_anchor) if isinstance(f, np.ndarray)]
    keys = np.empty((m.a.size, len(floats) + len(ints)), np.int64)
    for j, f in enumerate(floats):
        np.add(f, 0.0, out=keys[:, j].view(np.float64))
    for j, f in enumerate(ints, len(floats)):
        keys[:, j] = f
    order = np.lexsort(keys.T)
    rows = keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel()[order]
    repeats = np.zeros(m.a.size, bool)
    repeats[order[1:]] = rows[1:] == rows[:-1]
    return repeats


class DualGrid:
    """A finite parameter sample of one family, offsets fixed to zero.

    Held as parameter arrays: a (P,), ell (P, dim) for the kinds with a
    slope and anchor (P,) for the cone kinds, else None.  DualGrid(family,
    params_list) converts a member list; DualGrid(family, a=..., ell=...,
    anchor=...) takes the arrays.  Members are checked as validate_members
    does, and an offset other than zero or a repeated member (0.0 == -0.0)
    is a ValueError; the first failing member decides the error.  Repeats
    are found by one stable lexsort of integer keys, in O(P log P): each run
    of equal keys keeps member order, so its first row is its earliest member
    and the rest repeat it.  matrix comes from one members_on_domain call,
    after those checks, and is finite (ImproperInput when member values
    overflow the doubles); params_list is made on first use.
    """

    def __init__(self, family: ElemFamily, params_list=None, *, a=None, ell=None,
                 anchor=None):
        params = tuple(params_list or ())
        m = _from_params(params) if params else _arrays(() if a is None else a, ell, anchor)
        if not m.a.size:
            raise ValueError("DualGrid needs at least one parameter tuple")
        _raise_first(_member_rules(family, m) + [
            (m.c != 0.0, ValueError, "DualGrid offsets are eliminated analytically; use c = 0"),
            (_repeats(m), ValueError, "duplicate parameter tuple in DualGrid")])
        self.family, self.a = family, m.a
        self.ell = m.ell if family.kind in SLOPE_KINDS else None
        self.anchor = m.anchor if family.kind in PEAKING_KINDS else None
        self.matrix = members_on_domain(family, m.a, m.ell, m.anchor, m.c)
        for arr in (self.a, self.ell, self.anchor, self.matrix):
            if arr is not None:
                _freeze(arr)
        self._members = dict(enumerate(params))

    @property
    def size(self) -> int:
        return self.a.size

    def member(self, j: int) -> ElemParams:
        """Member j as ElemParams, made alone and kept."""
        j = range(self.size)[j]
        if j not in self._members:
            self._members[j] = ElemParams(
                a=float(self.a[j]), ell=None if self.ell is None else self.ell[j].copy(),
                anchor=None if self.anchor is None else int(self.anchor[j]))
        return self._members[j]

    @cached_property
    def params_list(self) -> tuple[ElemParams, ...]:
        return tuple(self.member(j) for j in range(self.size))


def _slope_ladder(bound: float, count: int) -> np.ndarray:
    count = max(3, int(count))
    if count % 2 == 0:
        count += 1
    if math.isinf(bound + bound):  # linspace overflows exactly when stop - start does
        raise ImproperInput(f"the slope ladder over +-{bound!r} overflows the doubles")
    return np.linspace(-bound, bound, count)


def _slope_vectors(dim: int, bound: float, count: int) -> np.ndarray:
    """(k, dim) slopes: the ladder itself in 1-D; else zero and the ladder's
    nonzero steps along each axis."""
    ladder = _slope_ladder(bound, count)
    if dim == 1:
        return ladder[:, None]
    steps = ladder[ladder != 0.0]
    vecs = np.zeros((1 + dim * steps.size, dim))
    for k in range(dim):
        vecs[1 + k * steps.size:1 + (k + 1) * steps.size, k] = steps
    return vecs


def slope_bound(f: GridFn, domain: FiniteMetricSpace) -> float:
    """Twice the largest finite difference quotient of f over the grid, 1.0
    when there is none or it is 0, reduced in row blocks of BLOCK_BYTES (a
    maximum of quotients does not depend on the blocking).  Each block reads
    its rows of the distances in place when f is finite everywhere, else
    gathers the cells between finite points.  Raises ImproperInput when that
    bound overflows the doubles."""
    vals, dist, idx = f.values, domain.dist, None
    finite = np.isfinite(vals)
    if not finite.all():
        idx = np.flatnonzero(finite)
        vals = vals[idx]
    if vals.size < 2:
        return 1.0

    def steepest(rows):  # -inf for a row with no pair at a positive distance
        num = vals[rows, None] - vals
        np.abs(num, out=num)
        # f's points are the domain's first vals.size points
        den = dist[rows, :vals.size] if idx is None else dist[idx[rows, None], idx]
        return np.divide(num, den, out=np.full(num.shape, -np.inf), where=den > 0).max(axis=1)

    with np.errstate(over="ignore"):  # num, den, quotients and mask: under four doubles a cell
        bound = 2.0 * float(by_row_blocks(steepest, vals.size, 32 * vals.size).max())
    if bound == math.inf:
        raise ImproperInput("the slope bound of f overflows the doubles")
    return bound if bound > 0 else 1.0


def _curvature_rungs(levels: int) -> list[float]:
    """1, 2, 4, ... 2**(levels - 1), at least one rung."""
    if levels > 1024:
        raise ImproperInput(f"the curvature rungs 2**k, k < {levels}, overflow the doubles")
    return [2.0 ** k for k in range(max(1, levels))]


def default_dual_grid(
    family: ElemFamily,
    f: Optional[GridFn] = None,
    slope_count: int = 9,
    curvature_levels: int = 5,
    max_anchors: Optional[int] = None,
) -> DualGrid:
    """Data-driven default parameter sample: slopes span the difference-quotient
    bound of f, curvatures ride a geometric ladder, metric anchors default to
    every domain point.  Raises ImproperInput when the slope bound, the
    slope ladder, the curvature rungs or the members' values overflow the
    doubles, and ValueError when a slope bound is read from an f that does
    not live on the family's domain; every member matrix returned is finite."""
    kind = family.kind
    domain = family.domain
    if kind == FamilyKind.SIGMA_NU:
        return DualGrid(family, a=[0.0] + _curvature_rungs(curvature_levels))
    if f is not None and f.size != domain.n:
        raise ValueError("grid function and family live on different domains")
    L = slope_bound(f, domain) if f is not None else 1.0
    if kind == FamilyKind.AFFINE:
        vecs = _slope_vectors(domain.dim, L, slope_count)
        return DualGrid(family, a=np.zeros(len(vecs)), ell=vecs)

    rungs = _curvature_rungs(curvature_levels)
    if kind in PEAKING_KINDS:
        anchors = np.arange(domain.n)
        if max_anchors is not None and anchors.size > max_anchors:
            anchors = anchors[np.linspace(0, anchors.size - 1, max_anchors).round().astype(int)]
        ladder = rungs if f is None else sorted(set(rungs) | {max(L, rungs[0])})
        return DualGrid(family, a=np.repeat([ladder], anchors.size, axis=0).reshape(-1),
                        anchor=np.repeat(anchors, len(ladder)))
    vecs = _slope_vectors(domain.dim, L, min(slope_count, 5))
    curvatures = rungs if kind == FamilyKind.GAUGE else [0.0] + rungs
    return DualGrid(family, a=np.repeat(curvatures, len(vecs)),
                    ell=np.repeat(vecs[None], len(curvatures), axis=0).reshape(-1, domain.dim))


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

def conjugate_transform(f: GridFn, dual: DualGrid) -> np.ndarray:
    """Conjugate values sup_x (phi(x) - f(x)), one entry per parameter tuple.

    Entries are -inf exactly when f is identically +inf.  Subtractions round
    upward (see core.sub_up) so the conjugation pair is an exact Galois
    connection on floats.  Reduced in row blocks of the parameter grid.
    """
    if f.size != dual.family.domain.n:
        raise ValueError("grid function and dual grid live on different domains")
    if np.isneginf(f.values).any():
        raise ImproperInput("conjugate of a function taking -inf is +inf everywhere")
    M, v = dual.matrix, f.values
    return by_row_blocks(lambda rows: max_sub_up(M[rows], v[None, :], 1),
                         M.shape[0], _SUB_UP_BYTES * M.shape[1])


def biconjugate(f: GridFn, dual: DualGrid, star: Optional[np.ndarray] = None) -> GridFn:
    """Largest minorant of f built from the dual grid's members.

    Dominates exactly: biconjugate(f) <= f at every point, and applying the
    map twice reproduces its output bit-for-bit.  Reduced in blocks of grid
    points (columns of the member matrix).  star, when given, is
    conjugate_transform(f, dual), computed once by the caller.
    """
    if star is None:
        star = conjugate_transform(f, dual)
    M = dual.matrix
    vals = by_row_blocks(lambda cols: max_sub_up(M[:, cols], star[:, None], 0),
                         M.shape[1], _SUB_UP_BYTES * M.shape[0])
    return GridFn(f.domain, vals)


def is_support(family: ElemFamily, params: ElemParams, f: GridFn, tol: float = 0.0) -> bool:
    """Whether the member minorizes f up to tol: max(phi - f) <= tol."""
    if f.size != family.domain.n:
        raise ValueError("grid function and family live on different domains")
    if np.isneginf(f.values).any():
        return False
    gap = max_sub_up(eval_on_domain(family, params), f.values, 0)
    return bool(gap <= tol)


# ---------------------------------------------------------------------------
# Peaking and Urysohn witnesses
# ---------------------------------------------------------------------------

def _check_y0(family: ElemFamily, y0: int) -> None:
    if not (_is_index(y0) and 0 <= y0 < family.domain.n):
        raise BadParams(f"y0 must index a point of the {family.domain.n}-point domain")


def _first_verified(family: ElemFamily, member, scale: float, step, holds,
                    failure: str, doomed=lambda vals: False) -> ElemParams:
    """The first member(scale) whose values on the grid pass holds, stepping
    the scale after each failed check; NoWitness(failure) after _MAX_NUDGES
    tries or once a failed member's values are doomed; ImproperInput at inf."""
    for _ in range(_MAX_NUDGES):
        if not math.isfinite(scale):
            raise ImproperInput("the witness scale overflows the doubles")
        params = member(scale)
        vals = eval_on_domain(family, params)
        if holds(vals):
            return params
        if doomed(vals):
            break
        scale = step(scale)
    raise NoWitness(failure)


def peaking_witness(
    family: ElemFamily,
    y0: int,
    eps: float,
    delta: float,
    K: float,
    g: ElemParams,
) -> ElemParams:
    """A cone member bar_g with bar_g <= eps everywhere and
    bar_g <= g - K on {d(., y0) >= delta}, verified exactly on the grid.

    bar_g = eps - a * shape(d(., y0)) starts from the least a the far set
    needs (1 when it is empty) and is nudged up until both bounds hold.
    """
    if family.kind not in PEAKING_KINDS:
        raise BadParams("peaking witnesses exist for metric-cone families only")
    if delta <= 0:
        raise BadParams("delta must be positive")
    g_vals = eval_on_domain(family, g)
    _check_y0(family, y0)

    d = family.domain.dist[y0]
    shape = np.asarray(family.g_shape(d), dtype=float) \
        if family.kind == FamilyKind.GENERALIZED_METRIC else d
    far = d >= delta

    if not far.any():
        a = 1.0
    else:
        if (shape[far] <= 0).any():
            raise NoWitness("cone shape vanishes on the far set; no decay possible")
        with np.errstate(over="ignore"):  # an overflow leaves need at inf
            need = (eps + K - g_vals[far]) / shape[far]
        a = float(need.max())
        if a <= 0.0:
            a = 1.0

    # where the shape is negative, eps - a * shape only grows with a: once it
    # exceeds eps there, every later scale fails too
    return _first_verified(
        family, lambda a: ElemParams(a=a, anchor=y0, c=eps), a, lambda a: a * _NUDGE,
        lambda vals: (vals <= eps).all() and not (vals[far] > g_vals[far] - K).any(),
        "grid verification failed for every candidate scale",
        doomed=lambda vals: (vals[shape < 0] > eps).any())


def urysohn_witness(family: ElemFamily, y0: int, eps: float, delta: float) -> ElemParams:
    """A member peaking at y0: value > 1 - eps there, <= 1 on d < delta,
    <= 0 on d >= delta; all three checked exactly on the grid.

    A metric cone 1 - a d(., y0), or a gauge ball 1 - a mu when y0 is the
    origin, starts from the a that puts the far set at zero and is nudged
    up.  An off-origin gauge peak comes from an LP, and its offset c is
    shaved one ulp at a time.
    """
    if eps <= 0 or delta <= 0:
        raise BadParams("eps and delta must be positive")
    if family.kind not in (FamilyKind.METRIC, FamilyKind.GAUGE):
        raise BadParams("urysohn witnesses are constructed for Metric or Gauge families")
    _check_y0(family, y0)

    domain = family.domain
    d = domain.dist[y0]
    near = d < delta

    def peaks(vals):
        # 1.0 - vals[y0] is exact for vals[y0] in [0.5, 2] (Sterbenz), where
        # 1.0 - eps would round to 1.0 for eps below 2**-53
        return bool(1.0 - vals[y0] < eps
                    and (vals[near] <= 1.0).all()
                    and (vals[~near] <= 0.0).all())

    if family.kind == FamilyKind.METRIC:
        anchor, ell, width = y0, None, delta
    elif domain.origin_index() == y0:
        # gauge ball centered at the peak: a = 1/(kappa * delta) with kappa the
        # grid equivalence constant between the gauge and the domain metric
        pos = d > 0
        if not pos.any():
            return ElemParams(a=1.0, ell=np.zeros(domain.dim), c=1.0)
        mu = family.gauge_values()
        if (mu[pos] <= 0).any():
            raise NoWitness("gauge vanishes away from the origin on this grid")
        kappa = float((mu[pos] / d[pos]).min())
        anchor, ell, width = None, np.zeros(domain.dim), kappa * delta
    else:
        a, ell, c = _urysohn_gauge_lp(family, y0, eps, near)
        return _first_verified(
            family, lambda c: ElemParams(a=a, ell=ell, c=c), c,
            lambda c: np.nextafter(c, -np.inf),  # shave solver slack off the upper bounds
            peaks, "gauge urysohn LP solution failed exact grid verification")
    a = 1.0 / width if width else math.inf  # kappa * delta may underflow to 0
    return _first_verified(
        family, lambda a: ElemParams(a=a, ell=ell, anchor=anchor, c=1.0), a, lambda a: a * _NUDGE,
        peaks, f"{family.kind.value} urysohn construction failed grid verification")


def _urysohn_gauge_lp(family: ElemFamily, y0: int, eps: float, near: np.ndarray):
    # Off-origin peaks have no closed form for a gauge anchored at the origin;
    # search (a, ell, c) by maximizing the worst slack m of the three conditions
    # on g = -a mu + <ell, x> + c: g <= 1 on the near set, g + m <= 0 off it,
    # and g(y0) - m >= 1 - eps.
    from scipy.optimize import linprog

    pts = family.domain.points
    mu = family.gauge_values()
    n, dim = pts.shape
    A_ub = np.vstack([np.column_stack([-mu, pts, np.ones(n), np.where(near, 0.0, 1.0)]),
                      np.concatenate([[mu[y0]], -pts[y0], [-1.0, 1.0]])])
    b_ub = np.append(np.where(near, 1.0, 0.0), -(1.0 - eps))

    a_min, big = 1e-9, 1e6
    res = linprog(
        c=np.concatenate([np.zeros(dim + 2), [-1.0]]),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(a_min, big)] + [(-big, big)] * dim + [(-big, big), (0.0, 1.0)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 1e-9:
        raise NoWitness("no gauge member satisfies the peak inequalities on this grid")
    # HiGHS may return a below its bound within its feasibility tolerance
    # (-0.0 for 1e-9); the clamped member is verified exactly by the caller
    return max(float(res.x[0]), a_min), res.x[1:1 + dim].copy(), float(res.x[1 + dim])
