"""Extended-real arithmetic, finite metric domains, and grid-sampled functions.

Everything downstream computes on the types defined here.  Values are IEEE
doubles where +inf and -inf are legitimate citizens but NaN never is: NaN is
rejected at construction so that every later sup/inf stays total.

A zero that a blocked max (or min) kernel returns is +0: the kernel adds 0.0
to its result, which turns -0 into +0 and leaves every other value as it is.
Max and min are exact, so only the sign of a zero could depend on the order
of the reduction, which numpy sets by the SIMD target; with the rule, no
kernel depends on how its rows are blocked, stepped or split, and every CPU
gives the same bits.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EmptyDomain, NonMetric, UndefinedSum

METRIC_TOL = 1e-12

#: bytes the temporaries of the blocks of a dense row-wise reduction may take
#: together while they are in flight (see by_row_blocks); a block never has
#: fewer than one row
BLOCK_BYTES = 4 << 20

#: threads that reduce the blocks of one call of by_row_blocks, the calling
#: thread among them: the usable cores
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pools = {}  # WORKERS -> its pool of WORKERS - 1 threads, made on the first parallel call
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool threads
    os.register_at_fork(after_in_child=_pools.clear)


class ExtReal(float):
    """An extended real: a float that is finite, +inf or -inf, never NaN.

    Comparisons and hashing are float's, total once NaN is excluded.
    Addition of opposite infinities raises :class:`UndefinedSum` instead of
    producing NaN; every duality formula in this package subtracts a real
    from an extended real, so reaching that case signals a bug, not a
    modelling choice.  Scalar multiplication uses the convention
    0 * (+-inf) = 0, needed only at the t in {0, 1} endpoints of convex
    combinations.  +, - and * with a real, and unary minus, return ExtReal.
    """

    __slots__ = ()
    __array_ufunc__ = None  # numpy scalars and arrays defer to the operators below

    def __new__(cls, value: float):
        self = float.__new__(cls, value)
        if math.isnan(self):
            raise ValueError("ExtReal cannot hold NaN")
        return self

    @property
    def is_plus_inf(self) -> bool:
        return self == math.inf

    @property
    def is_minus_inf(self) -> bool:
        return self == -math.inf

    def as_float(self) -> float:
        """Underlying double, +-inf included."""
        return float(self)

    def __neg__(self) -> "ExtReal":
        return ExtReal(float.__neg__(self))

    def __add__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        other = float(other)  # a NaN operand makes a NaN sum, which ExtReal rejects
        if math.isinf(self) and self == -other:
            raise UndefinedSum("(+inf) + (-inf) is rejected")
        return ExtReal(float(self) + other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return self + -float(other)

    def __rsub__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        other = float(other)
        if math.isinf(other):
            raise TypeError("ExtReal multiplication takes a finite real scalar")
        if other == 0.0:
            return ExtReal(0.0)
        return ExtReal(other * float(self))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_plus_inf:
            return "ExtReal(+inf)"
        if self.is_minus_inf:
            return "ExtReal(-inf)"
        return f"ExtReal({float.__repr__(self)})"


PLUS_INF = ExtReal(math.inf)
MINUS_INF = ExtReal(-math.inf)


# ---------------------------------------------------------------------------
# Array helpers.  Dense computations keep extended reals as float64 arrays
# (+-inf allowed, NaN forbidden) and fall back to ExtReal at API boundaries.
# ---------------------------------------------------------------------------

def as_ext_array(values) -> np.ndarray:
    """Coerce to a float64 array of extended reals, rejecting NaN."""
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("extended-real array cannot contain NaN")
    return arr


def is_proper(values: np.ndarray) -> bool:
    """No -inf anywhere and at least one finite value."""
    return not np.isneginf(values).any() and bool(np.isfinite(values).any())


def sub_up(a, b) -> np.ndarray:
    """Elementwise a - b rounded toward +inf (a finite, b extended real).

    Upward rounding makes the conjugate/biconjugate pair an exact Galois
    connection on the float lattice, so dominance and idempotence of the
    biconjugate hold bit-exactly rather than up to an ulp.  For finite
    s = fl(a - b), twoSum's error is exact (a - b = s + err) and s is nearest,
    so err > 0 alone decides; where s or b is infinite err is NaN and s stands,
    except that a finite difference overflowing to -inf rounds up to -max.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nb = -b
    with np.errstate(invalid="ignore", over="ignore"):
        s = a + nb
        bv = s - a
        err = (a - (s - bv)) + (nb - bv)
        up = (err > 0) | (np.isneginf(s) & np.isfinite(b))
        out = np.where(up, np.nextafter(s, np.inf), s)
    if np.isnan(out).any():
        raise UndefinedSum("(+inf) + (-inf) arose in an array subtraction")
    return out


#: max_sub_up on operands of fewer cells returns sub_up(a, b).max(axis),
#: which has less fixed cost: timed on a 2-core box, rounding every cell took
#: 15 us against 37 for the ties alone at 50 cells, 27 against 48 at 720,
#: 40-44 against 43-44 at 2000 and 145-159 against 64-66 at 8000
_DENSE_BELOW = 2048


def max_sub_up(a, b, axis: int) -> np.ndarray:
    """sub_up(a, b).max(axis) + 0.0, bit for bit, rounding only the cells
    that tie at the nearest maximum (every cell when the larger operand has
    fewer than _DENSE_BELOW cells); a zero maximum is +0.

    Rounding up is monotone: a cell whose nearest difference s = a - b lies
    below its line's maximum S rounds up to at most S, so the result is S, or
    the double above S when sub_up rounds some tie (s == S) up.  When there
    are more than max(1024, s.size // 8) ties, they are rounded in chunks of
    that many cells.  The temporaries measure 9.2 bytes a cell with few ties
    and 12.3 when every cell ties, plus at most about 60 kB for a chunk of
    1024 ties; below _DENSE_BELOW cells, sub_up's 41 bytes a cell stay below
    100 kB.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if max(a.size, b.size) < _DENSE_BELOW:
        return sub_up(a, b).max(axis) + 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        s = a - b
    out = s.max(axis, keepdims=True)
    if np.isnan(out).any():
        raise UndefinedSum("(+inf) + (-inf) arose in an array subtraction")
    shape = s.shape
    ties = (s == out).ravel()
    del s  # freed before the ties are rounded
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    step = max(1024, ties.size // 8)
    if np.count_nonzero(ties) <= step:
        step = max(1, ties.size)
    for i in range(0, ties.size, step):
        k = np.unravel_index(np.flatnonzero(ties[i:i + step]) + i, shape)
        up = sub_up(a[k], b[k])
        k[axis][:] = 0  # each tie's line in out
        hit = up > out[k]
        out[tuple(ix[hit] for ix in k)] = up[hit]
    out += 0.0
    return out.squeeze(axis)


def by_row_blocks(fn: Callable[[slice], np.ndarray], n_rows: int,
                  row_bytes: int) -> np.ndarray:
    """fn(rows) over consecutive row slices of n_rows rows, written into one
    output in row order.

    fn makes row_bytes bytes of temporaries per row.  When all rows fit
    BLOCK_BYTES, fn(slice(None)) is called once and returned as is.
    Otherwise the calling thread and workers - 1 pool threads run one loop:
    each takes the next block in row order and copies it into the output at
    once, so besides the output the call holds only the blocks in flight.
    workers is WORKERS, or 1 when a worker's share of the budget is under a
    row; a block has BLOCK_BYTES // (workers * row_bytes) rows, at least one.
    After a block raises, no thread takes another, and the exception of the
    first failing block in row order is raised with its type.  fn must
    compute each output row from its own input row alone, so that blocking
    changes no bit of the result, and must return one row per row of its
    slice, an empty block for slice(0, 0) included: that block sets the
    output's dtype and trailing shape, and every other block must have them
    too (ValueError otherwise).  fn must not call by_row_blocks (a pool
    thread would wait on its own pool).  Pool threads run it in a copy of
    the caller's context, so an np.errstate around the call holds in them.
    """
    row_bytes = max(1, row_bytes)
    if BLOCK_BYTES // row_bytes >= n_rows:
        return fn(slice(None))
    workers = WORKERS if BLOCK_BYTES // (WORKERS * row_bytes) else 1
    step = max(1, BLOCK_BYTES // (workers * row_bytes))
    # The output is made here, in the calling thread, from fn's empty block:
    # outputs made in a worker thread's malloc arena raised the large-grids
    # peak RSS from about 115 to 122 MB over a 15 s run.
    empty = fn(slice(0, 0))
    out = np.empty((n_rows,) + empty.shape[1:], empty.dtype)
    starts = iter(range(0, n_rows, step))
    lock = threading.Lock()
    failed = []  # (first row, exception) of each block that raised

    def work():  # takes the next block in row order until none is left or one raised
        while not failed:
            with lock:
                i = next(starts, None)
            if i is None:
                return
            rows = slice(i, i + step)
            try:
                part = fn(rows)
                if part.dtype != out.dtype or part.shape != out[rows].shape:
                    raise ValueError(f"rows {i}: a block of {part.dtype} {part.shape} "
                                     f"where {out.dtype} {out[rows].shape} was due")
                out[rows] = part
            except Exception as e:
                failed.append((i, e))

    helpers = [_executor().submit(contextvars.copy_context().run, work) for _ in range(workers - 1)]
    try:
        work()
        for h in helpers:
            h.result()
    finally:
        starts = iter(())  # an interrupted caller leaves no block to be started
    if failed:
        # every block before a failed one was taken first and ran to its end,
        # so this is the failure of the first failing block in row order
        raise min(failed, key=lambda f: f[0])[1]
    return out


def _executor():
    if WORKERS not in _pools:  # racing callers keep one pool; the other starts no thread
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="abconvex-rows")
        _pools.setdefault(WORKERS, pool)
    return _pools[WORKERS]


def _is_index(i) -> bool:
    """i is a Python or numpy integer, not a bool."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


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

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def origin_index(self):
        """Index of the all-zero coordinate point, or None."""
        hits = np.flatnonzero((self.points == 0.0).all(axis=1))
        return int(hits[0]) if hits.size else None


def _pairwise_sum(term, lo, n):
    """term(lo) + ... + term(lo + n - 1), n >= 1, for arrays term(c) of
    nonnegative doubles, added in the order of numpy's pairwise_sum over a
    contiguous axis of n values, so the result has the bits of np.sum over
    that axis.  term(c) returns a fresh array, which the sum may overwrite."""
    if n > 128:  # two halves, split at a multiple of eight
        n2 = n // 2 - n // 2 % 8
        total = _pairwise_sum(term, lo, n2)
        total += _pairwise_sum(term, lo + n2, n - n2)
        return total
    if n < 8:  # one running sum; numpy's starts at 0, and 0 + x is x for x >= 0
        total = term(lo)
        for c in range(lo + 1, lo + n):
            total += term(c)
        return total
    # eight running sums, each taking every eighth term, then the n % 8 left over
    r = [term(lo + k) for k in range(8)]
    end = lo + n - n % 8
    for c in range(lo + 8, end):
        r[(c - lo) % 8] += term(c)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for c in range(end, lo + n):
        r[0] += term(c)
    return r[0]


def build_metric_space(points, metric_kind="euclidean", validate: str = "full") -> FiniteMetricSpace:
    """Build a FiniteMetricSpace from coordinates, validating the metric axioms.

    metric_kind is either "euclidean" or an explicit square distance matrix
    (a nearly symmetric one, within METRIC_TOL, is symmetrized; the space
    keeps its own copy).  Euclidean distances are computed in row blocks of
    BLOCK_BYTES, written into one output in row order; each entry is
    sqrt(sum(diff * diff)) over its own coordinate differences, so the
    blocking changes no bit of it.  The squares are summed one coordinate at
    a time into (rows, n) arrays, in the order numpy's pairwise sum adds a
    contiguous axis (written out in _pairwise_sum), so no (rows, n, dim)
    tensor is formed, every entry has the bits of
    np.sqrt((diff * diff).sum(axis=-1)), and no entry depends on how numpy
    sums.  The blocks are sized at (2 min(dim, 8) + 2) 8 n bytes a row, the
    one-tensor figure up to dim 8 and an upper bound: the sum holds at most
    min(dim, 8) + 1 arrays of n doubles a row, plus one for each halving
    above 128 coordinates.  When distinct points come out at distance
    0 because their squared differences underflow (below about 1e-162), the
    block that holds them redoes its zeros as
    mx * sqrt(sum((diff / mx) ** 2)), mx the largest |diff|, summed over the
    zero cells alone in the same order.  A Euclidean matrix is then checked
    for overflow and for zeros between distinct points only; a custom one
    first for non-finite, negative, asymmetric and nonzero diagonal entries.
    validate="full" sweeps the triangle inequality over every triple in row
    blocks of BLOCK_BYTES, so O(n^2) memory.  The test for (i, k) is the test
    for (k, i), so a block starting at row k0 checks columns k >= k0 only:
    each unordered pair once (twice when both rows share a block), about
    n^3 / 2 sums instead of n^3 once the rows span many blocks.  Euclidean
    distances satisfy the triangle inequality exactly, so for them the sweep
    can only flag rounding error; it is skipped when
    (dim + 10) 2**-53 max(dist) + 4 sqrt(dim) 2**-537 < METRIC_TOL / 2, a
    bound under which no rounding can make it flag a triple (derived at the
    test; max(dist) below about 409 in 1-D, 375 in 2-D and 237 in 9-D).
    Custom matrices always run the sweep.
    validate="fast" skips the sweep for every grid, Euclidean or custom;
    the other checks still run.  Other values raise ValueError at once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyDomain("need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    if validate not in ("full", "fast"):
        raise ValueError("validate must be 'full' or 'fast'")
    n = pts.shape[0]

    if isinstance(metric_kind, str):
        if metric_kind != "euclidean":
            raise ValueError(f"unknown metric kind {metric_kind!r}")

        xs = pts if pts.shape[1] else np.zeros((n, 1))  # no coordinates: the origin of a line
        dim = xs.shape[1]

        def distances(rows):
            def square(c):
                diff = xs[rows, c, None] - xs[:, c]
                return np.multiply(diff, diff, out=diff)

            d = _pairwise_sum(square, 0, dim)
            np.sqrt(d, out=d)
            zero = d == 0
            if np.count_nonzero(zero) > len(d):  # underflowed squares besides the diagonal
                # mx is 0 only on the diagonal and for equal points, which stay at 0
                i, j = np.nonzero(zero)
                block = xs[rows]
                mx = np.zeros(i.size)
                for c in range(dim):
                    np.maximum(mx, np.abs(block[i, c] - xs[j, c]), out=mx)
                scaled = mx > 0

                def scaled_square(c):
                    q = np.divide(block[i, c] - xs[j, c], mx, out=np.zeros_like(mx), where=scaled)
                    return np.multiply(q, q, out=q)

                d[i, j] = mx * np.sqrt(_pairwise_sum(scaled_square, 0, dim))
            return d

        with np.errstate(over="ignore"):  # an overflow is rejected as non-finite below
            dist = by_row_blocks(distances, n, (2 * min(pts.shape[1], 8) + 2) * 8 * n)
        # fl(a - b) = -fl(b - a) and both sum alike (repaired cells: same mx), so dist
        # is its transpose bit for bit, with a +0 diagonal and no negative entry.
        if not np.isfinite(dist).all():
            raise NonMetric("distances must be finite")
    else:
        dist = np.array(metric_kind, dtype=float)  # a copy the caller cannot change
        if dist.shape != (n, n):
            raise NonMetric(f"custom matrix shape {dist.shape} does not match {n} points")
        if not np.isfinite(dist).all():
            raise NonMetric("distances must be finite")
        if (dist < 0).any():
            raise NonMetric("negative distance")
        if not np.array_equal(dist, dist.T):
            if np.abs(dist - dist.T).max() > METRIC_TOL:
                raise NonMetric("asymmetry")
            dist = 0.5 * (dist + dist.T)
        if np.abs(np.diagonal(dist)).max() > 0:
            raise NonMetric("nonzero diagonal")
    if np.count_nonzero(dist == 0) > n:  # the n diagonal entries are zero
        raise NonMetric("zero distance between distinct points")
    if validate == "full":
        # dist[i,k] <= dist[i,j] + dist[j,k] within METRIC_TOL.  dist is
        # exactly symmetric here, so dist[k,j] stands in for dist[j,k], the
        # reduction runs over the contiguous last axis, and columns k < k0
        # are left to the earlier block that holds row k.  Per-row flags
        # then depend on the blocking; their any() does not.
        def violated(rows):
            k0 = rows.start or 0
            via = (dist[rows, None, :] + dist[None, k0:, :]).min(axis=2)
            return (via < dist[rows, k0:] - METRIC_TOL).any(axis=1)

        # A Euclidean dist can break the triangle inequality by rounding alone.
        # With u = 2**-53 and m = dim, each entry is d^ = d (1 + r) + e with
        # |r| <= c = (m + 8) u / 2 and |e| < sqrt(m) 2**-537, to first order in u:
        # - differences, squares and sqrt are correctly rounded, and a sum of
        #   m nonnegative terms in any order is within gamma(m - 1), so the
        #   sum of squares is within gamma(m + 2) and d^ within (m + 4) u / 2;
        #   the rescaled entries mx * sqrt(sum((diff / mx) ** 2)) add a
        #   division inside the sqrt and a product outside, (m + 8) u / 2;
        # - a square that underflows is off by at most 2**-1075, which moves
        #   d^ by at most sqrt(m 2**-1075); subnormal sums and differences are
        #   exact.
        # (i, k) is flagged only if fl(d^ij + d^jk) < fl(d^ik - METRIC_TOL).
        # As d_ik <= d_ij + d_jk, the left side is at least
        # (1 - u)(1 - c) d_ik - 2|e|, and the right side is negative or at most
        # (1 + u)((1 + c) d_ik + |e| - METRIC_TOL), so nothing is flagged once
        # METRIC_TOL >= 2 (c + u) d_ik + (3 + u)|e|, that is once
        # (m + 10) u max(dist) + 3 sqrt(m) 2**-537 <= METRIC_TOL to first
        # order.  The test below asks for that with a factor 2 to spare.
        m = pts.shape[1]
        settled = isinstance(metric_kind, str) and (
            (m + 10) * 2.0 ** -53 * float(dist.max()) + 4 * math.sqrt(m) * 2.0 ** -537
            < METRIC_TOL / 2)
        if not settled and by_row_blocks(violated, n, dist.nbytes).any():
            raise NonMetric("triangle inequality violated")

    return FiniteMetricSpace(points=_freeze(pts.copy()), dist=_freeze(dist))


Domain = Union[FiniteMetricSpace, int]


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
        n = self.domain if isinstance(self.domain, numbers.Integral) else self.domain.n
        if vals.shape[0] != n:
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
