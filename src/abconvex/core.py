"""Extended-real arithmetic, finite metric domains, and grid-sampled functions.

Everything downstream computes on the types defined here.  Values are IEEE
doubles where +inf and -inf are legitimate citizens but NaN never is: NaN is
rejected at construction so that every later sup/inf stays total.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EmptyDomain, NonMetric, UndefinedSum

METRIC_TOL = 1e-12

#: bytes the temporaries of the blocks of a dense row-wise reduction may take
#: together while they are in flight (see by_row_blocks); a block never has
#: fewer than one row
BLOCK_BYTES = 4 << 20

#: threads that reduce the blocks of one call of by_row_blocks: the usable cores
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pools = {}  # WORKERS -> its ThreadPoolExecutor, made on the first parallel call
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool threads
    os.register_at_fork(after_in_child=_pools.clear)


class ExtReal:
    """An extended real: a finite double, +inf, or -inf.  Never NaN.

    Comparisons are total (-inf < finite < +inf).  Addition of opposite
    infinities raises :class:`UndefinedSum` instead of producing NaN; every
    duality formula in this package subtracts a real from an extended real,
    so reaching that case signals a bug, not a modelling choice.
    Scalar multiplication uses the convention 0 * (+-inf) = 0, needed only at
    the t in {0, 1} endpoints of convex combinations.
    """

    __slots__ = ("_v",)

    def __init__(self, value: Union[float, "ExtReal"]):
        if isinstance(value, ExtReal):
            v = value._v
        else:
            v = float(value)
        if math.isnan(v):
            raise ValueError("ExtReal cannot hold NaN")
        self._v = v

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._v)

    @property
    def is_plus_inf(self) -> bool:
        return self._v == math.inf

    @property
    def is_minus_inf(self) -> bool:
        return self._v == -math.inf

    def as_float(self) -> float:
        """Underlying double, +-inf included."""
        return self._v

    @property
    def finite(self) -> float:
        if not self.is_finite:
            raise ValueError(f"{self!r} is not finite")
        return self._v

    def __float__(self) -> float:
        return self._v

    @staticmethod
    def _coerce(other) -> float:
        if isinstance(other, ExtReal):
            return other._v
        if isinstance(other, numbers.Real):
            v = float(other)
            if math.isnan(v):
                raise ValueError("cannot compare/combine ExtReal with NaN")
            return v
        return NotImplemented

    def __eq__(self, other) -> bool:
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self._v == v

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._v < v

    def __le__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._v <= v

    def __gt__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._v > v

    def __ge__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._v >= v

    def __hash__(self):
        return hash(self._v)

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self._v)

    def _add(self, v: float) -> "ExtReal":
        if math.isinf(self._v) and math.isinf(v) and self._v != v:
            raise UndefinedSum("(+inf) + (-inf) is rejected")
        return ExtReal(self._v + v)

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._add(v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self._add(-v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ExtReal(v)._add(-self._v)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if math.isinf(v):
            raise TypeError("ExtReal multiplication takes a finite real scalar")
        if v == 0.0:
            return ExtReal(0.0)
        return ExtReal(v * self._v)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_plus_inf:
            return "ExtReal(+inf)"
        if self.is_minus_inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self._v!r})"


PLUS_INF = ExtReal(math.inf)
MINUS_INF = ExtReal(-math.inf)


def ext_sub_real(lhs: float, rhs: ExtReal) -> ExtReal:
    """lhs - rhs for a finite real lhs; total on this signature.

    Follows the arithmetic contract: real - (+inf) = -inf and
    real - (-inf) = +inf.
    """
    lhs = float(lhs)
    if not math.isfinite(lhs):
        raise ValueError("lhs of ext_sub_real must be a finite real")
    if not isinstance(rhs, ExtReal):
        rhs = ExtReal(rhs)
    return ExtReal(lhs - rhs.as_float())


# ---------------------------------------------------------------------------
# Array helpers.  Dense computations keep extended reals as float64 arrays
# (+-inf allowed, NaN forbidden) and fall back to ExtReal at API boundaries.
# ---------------------------------------------------------------------------

def as_ext_array(values, allow_minus_inf: bool = True) -> np.ndarray:
    """Coerce to a float64 array of extended reals, rejecting NaN."""
    arr = np.asarray(
        [v.as_float() if isinstance(v, ExtReal) else v for v in values]
        if not isinstance(values, np.ndarray) else values,
        dtype=float,
    )
    if np.isnan(arr).any():
        raise ValueError("extended-real array cannot contain NaN")
    if not allow_minus_inf and np.isneginf(arr).any():
        raise ValueError("-inf not allowed here")
    return arr


def is_proper(values: np.ndarray) -> bool:
    """No -inf anywhere and at least one finite value."""
    return not np.isneginf(values).any() and bool(np.isfinite(values).any())


def sub_up(a, b) -> np.ndarray:
    """Elementwise a - b rounded toward +inf (a finite, b extended real).

    Upward rounding makes the conjugate/biconjugate pair an exact Galois
    connection on the float lattice, so dominance and idempotence of the
    biconjugate hold bit-exactly rather than up to an ulp.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nb = -b
    with np.errstate(invalid="ignore", over="ignore"):
        s = a + nb
        # Knuth twoSum: a + nb = s + err exactly when both are finite.
        bv = s - a
        av = s - bv
        br = nb - bv
        ar = a - av
        err = ar + br
        up = np.nextafter(s, np.inf)
        down = np.nextafter(s, -np.inf)
        out = np.where(err > 0, up, s)
        out = np.where(err == down - s, down, out)
        # negative overflow of a finite difference: rounding toward +inf
        # clamps at the most negative double instead of -inf
        out = np.where(np.isneginf(s) & np.isfinite(b),
                       np.finfo(float).min, out)
        out = np.where(np.isinf(b), s, out)
    if np.isnan(out).any():
        raise UndefinedSum("(+inf) + (-inf) arose in an array subtraction")
    return out


def by_row_blocks(fn: Callable[[slice], np.ndarray], n_rows: int,
                  row_bytes: int) -> np.ndarray:
    """fn(rows) over consecutive row slices of n_rows rows, concatenated.

    fn makes row_bytes bytes of temporaries per row.  When all rows fit
    BLOCK_BYTES, fn(slice(None)) is called once and returned as is.  Otherwise
    WORKERS threads share the budget, BLOCK_BYTES // (WORKERS * row_bytes) rows
    a block; when that is no row, or WORKERS is 1, the calling thread takes
    blocks of the whole budget (at least one row) in turn.  fn must compute
    each output row from its own input row alone, so that blocking changes no
    bit of the result, and must not call by_row_blocks (a worker would wait on
    its own pool).  It runs in a copy of the caller's context, so an
    np.errstate around the call holds in the workers.
    """
    row_bytes = max(1, row_bytes)
    serial = max(1, BLOCK_BYTES // row_bytes)
    if serial >= n_rows:
        return fn(slice(None))
    step = BLOCK_BYTES // (WORKERS * row_bytes)
    if WORKERS == 1 or step < 1:
        return np.concatenate([fn(slice(i, i + serial)) for i in range(0, n_rows, serial)])
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, slice(i, i + step))
               for i in range(0, n_rows, step)]
    try:
        return np.concatenate([f.result() for f in futures])
    finally:
        for f in futures:  # after an error, blocks not yet started are dropped
            f.cancel()


def _executor():
    if WORKERS not in _pools:  # racing callers keep one pool; the other starts no thread
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="abconvex-rows")
        _pools.setdefault(WORKERS, pool)
    return _pools[WORKERS]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite set of coordinate points together with a validated metric."""

    points: np.ndarray  # (n, dim)
    dist: np.ndarray    # (n, n)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def origin_index(self):
        """Index of the all-zero coordinate point, or None."""
        hits = np.flatnonzero((self.points == 0.0).all(axis=1))
        return int(hits[0]) if hits.size else None


def build_metric_space(points, metric_kind="euclidean", validate: str = "full") -> FiniteMetricSpace:
    """Build a FiniteMetricSpace from coordinates, validating the metric axioms.

    metric_kind is either "euclidean" or an explicit square distance matrix
    (a nearly symmetric one, within METRIC_TOL, is symmetrized).
    validate="full" sweeps the triangle inequality over every triple in row
    blocks of BLOCK_BYTES, so O(n^2) memory.  The test for (i, k) is the test
    for (k, i), so a block starting at row k0 checks columns k >= k0 only:
    each unordered pair once (twice when both rows share a block), about
    n^3 / 2 sums instead of n^3 once the rows span many blocks.
    validate="fast" skips the sweep for large grids.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyDomain("need at least one point")
    if np.isnan(pts).any() or np.isinf(pts).any():
        raise ValueError("point coordinates must be finite")
    n = pts.shape[0]

    if isinstance(metric_kind, str):
        if metric_kind != "euclidean":
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
    else:
        dist = np.asarray(metric_kind, dtype=float)
        if dist.shape != (n, n):
            raise NonMetric(f"custom matrix shape {dist.shape} does not match {n} points")

    if np.isnan(dist).any() or np.isinf(dist).any():
        raise NonMetric("distances must be finite")
    if (dist < 0).any():
        raise NonMetric("negative distance")
    if not np.array_equal(dist, dist.T):
        if np.abs(dist - dist.T).max() > METRIC_TOL:
            raise NonMetric("asymmetry")
        dist = 0.5 * (dist + dist.T)
    if np.abs(np.diagonal(dist)).max() > 0:
        raise NonMetric("nonzero diagonal")
    off = dist + np.eye(n) * (1.0 + dist.max())
    if (off == 0).any():
        raise NonMetric("zero distance between distinct points")
    if validate == "full":
        # dist[i,k] <= dist[i,j] + dist[j,k] within METRIC_TOL.  dist is
        # exactly symmetric here (Euclidean differences negate exactly, and
        # custom matrices were symmetrized), so dist[k,j] stands in for
        # dist[j,k], the reduction runs over the contiguous last axis, and
        # columns k < k0 are left to the earlier block that holds row k.
        # Per-row flags then depend on the blocking; their any() does not.
        def violated(rows):
            k0 = rows.start or 0
            via = (dist[rows, None, :] + dist[None, k0:, :]).min(axis=2)
            return (via < dist[rows, k0:] - METRIC_TOL).any(axis=1)

        if by_row_blocks(violated, n, dist.nbytes).any():
            raise NonMetric("triangle inequality violated")
    elif validate != "fast":
        raise ValueError("validate must be 'full' or 'fast'")

    return FiniteMetricSpace(points=_freeze(pts.copy()), dist=_freeze(dist.copy()))


Domain = Union[FiniteMetricSpace, int]


def domain_size(domain: Domain) -> int:
    return domain if isinstance(domain, int) else domain.n


@dataclass(frozen=True)
class GridFn:
    """An extended-real-valued function sampled on a finite domain.

    `domain` is a FiniteMetricSpace or a plain point count.  Values may be
    +-inf but never NaN or all-infinite surprises: see `proper`.
    """

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        vals = as_ext_array(self.values)
        if vals.ndim != 1:
            raise ValueError("GridFn values must be one-dimensional")
        if vals.shape[0] != domain_size(self.domain):
            raise ValueError("GridFn length does not match its domain")
        object.__setattr__(self, "values", _freeze(vals.copy()))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def proper(self) -> bool:
        return is_proper(self.values)

    @property
    def is_real_valued(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def shifted(self, c: float) -> "GridFn":
        """The function plus a finite constant."""
        return GridFn(self.domain, self.values + float(c))
