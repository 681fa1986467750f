"""Golden digests: SHA-256 of outputs that must not change by a single bit.

Entries cover the reports of the shipped scenarios, `intersection_certificate`
on a fixed seeded corpus (integer, one-decimal, flat-top, near-tied-slope and
scaled inputs, levels of +-inf included), the triangle verdicts of
`build_metric_space(validate="full")` on spaces with planted violations and on
Euclidean points whose largest distance spans 0.5 to 1000 times
`conftest.rounding_scale`, where rounding can break the triangle inequality
by more than METRIC_TOL but no Euclidean build is swept, the
peaking and Urysohn witnesses (searches that step and searches that fail
included), the conjugate/biconjugate pair of every family kind on grid
functions with +inf holes and signed zeros, the duality reports of every
family kind on perturbation tables with +inf holes (both convexity scopes,
default and explicit multiplier grids; the corpus of
`tests/test_lagrangian_kernel.py`: Lagrangian tables and partial conjugates,
reports with empty rows, concavity probes, cone Lagrangians, finite-ladder
sups and zero-gap reports; explicit grids whose members reach about +-1e300
and stay finite), and the constrained layer: zero-gap reports, finite-ladder
sups and the conic LP, and both at extreme magnitudes (f near +-1e300 and
+-1e308 with +inf and signed zeros, points scaled by 1e-100 and 1e100, rungs
up to the largest double, empty inverse-feasible sets, unsorted, repeated,
empty and invalid ladders; rejections included), and the transportation simplex: plans, potentials,
values and strong-duality audits of seeded generic and degenerate instances
(square, rectangular, 1 x m, n x 1 and 1 x 1), and the Euclidean distance
matrices of `build_metric_space` (dimensions 1, 2, 3 and 5, sizes that fit one
row block and sizes that fill several, on one worker and on two), its explicit
matrices (symmetric, symmetrized and rejected) and `slope_bound`, and
`core.sub_up` on seeded pairs of five styles (random exponents, near-equal
operands, powers of two against their neighbours, the 2**1023 scale, and 1e300
and 1e-300 mixed), elementwise and broadcast, and on every pair of 18 special
values (signed zeros, subnormals, +-max, +-inf and NaN), and `c_transform` on
integer and real potentials and costs with zeros of both signs and ties
(n x 1, 1 x m and columns of 20 to 40 rows), each cost passed both as a C
array and as a transposed view, as `solve_transport` passes it, and the
verdicts of `DualGrid` on members of every family kind, given as arrays and as
member lists: the accepted parameter arrays, or the error that rejected the
grid (planted repeats with zeros of either sign, members told apart only by
their anchor, by having one or by their slope length, and rule failures before
and after the first repeat, 1 to 600 members).
`tests/test_golden.py` recomputes every entry and compares it with
`digests.json`.  Run this script to see which entries changed:

    PYTHONPATH=src python3 tests/golden/regen.py            # report, exit 1 on change
    PYTHONPATH=src python3 tests/golden/regen.py --write    # rewrite digests.json

A digest is rewritten only in a change that says which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")

if __name__ == "__main__":  # a script sees the checkout's library and test helpers
    for _path in (ROOT / "src", ROOT / "tests"):
        if str(_path) not in sys.path:
            sys.path.insert(0, str(_path))

from abconvex import (  # noqa: E402
    ConicLP,
    ConstrainedInstance,
    ConstraintMap,
    DualGrid,
    ElemFamily,
    ElemParams,
    ExtReal,
    GridFn,
    Sampled1D,
    biconjugate,
    PerturbationProblem,
    build_constrained_perturbation,
    build_lagrangian,
    build_metric_space,
    c_transform,
    concavity_probe,
    conic_lp_dual,
    conjugate_transform,
    default_dual_grid,
    duality_report,
    eval_on_domain,
    intersection_certificate,
    kantorovich_gap_report,
    metric_grid_sup,
    peaking_witness,
    solve_transport,
    urysohn_witness,
    verify_zero_gap_metric,
)
from abconvex.cli import run_scenario  # noqa: E402
from abconvex.core import BLOCK_BYTES  # noqa: E402
from abconvex.constrained import DEFAULT_LADDER  # noqa: E402
from abconvex.errors import (  # noqa: E402
    AbconvexError, BadParams, NonMetric, NoWitness, UndefinedSum)
import abconvex.core as core  # noqa: E402
from abconvex.families import slope_bound  # noqa: E402
from abconvex.lagrangian import _partial_conjugate  # noqa: E402
from conftest import (  # noqa: E402
    degenerate_transport,
    generic_transport,
    kernel_constrained,
    kernel_perturbation,
    scaled_point_sets,
    sub_up_pairs,
    SUB_UP_SPECIALS,
    SUB_UP_STYLES,
    table_shapes,
)


def f64(x) -> bytes:
    return np.float64(x).tobytes()


def report_entries() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            dest = Path(tmp) / path.name
            run_scenario(str(path), out=str(dest))
            out[f"report/{path.name}"] = hashlib.sha256(dest.read_bytes()).hexdigest()
    return out


# -- envelope certificates -----------------------------------------------------

def _levels(rng, v):
    """A level in the pair's range, an integer one in its lower half (where
    certificates are common and ties with integer data exact), and +-inf."""
    lo, hi = float(v.min()), float(v.max())
    return [float(rng.uniform(lo, hi)), float(np.round(rng.uniform(lo, (lo + hi) / 2))),
            -np.inf, np.inf]


def _pairs(style, rng, n):
    if style == "normal":
        return rng.normal(size=(2, n)) * float(rng.choice([0.5, 2.0]))
    if style == "integer":
        return rng.integers(-5, 6, (2, n)).astype(float)
    if style == "decimal1":
        return np.round(rng.normal(size=(2, n)), 1)
    if style == "flat_top":
        # a point where phi1 == phi2 caps g(t) with a flat piece
        v = rng.integers(-5, 6, (2, n)).astype(float)
        v[:, 0] = float(rng.integers(-6, 0))
        return v
    if style == "near_tied":
        v2 = rng.normal(size=n)
        s = 1.0 + rng.integers(-3, 4, n) * 2.0 ** -50
        s[: n // 2] = -s[: n // 2]
        return np.stack([v2 + s, v2])
    if style == "scaled":
        return rng.normal(size=(2, n)) * float(rng.choice([1e6, 1e-6]))
    raise ValueError(style)


CERT_STYLES = ("normal", "integer", "decimal1", "flat_top", "near_tied", "scaled")


def certificate_entries() -> dict:
    out = {}
    for k, style in enumerate(CERT_STYLES):
        rng = np.random.default_rng(7100 + k)
        h = hashlib.sha256()
        for _ in range(40):
            n = int(rng.integers(1, 80))
            v = _pairs(style, rng, n)
            phi1, phi2 = GridFn(n, v[0]), GridFn(n, v[1])
            for alpha in _levels(rng, v):
                cert = intersection_certificate(phi1, phi2, alpha)
                h.update(b"N" if cert is None else b"C" + f64(cert.t0) + f64(cert.level)
                         + f64(cert.lower_envelope_value))
        out[f"certificate/{style}"] = h.hexdigest()
    return out


# -- triangle verdicts ---------------------------------------------------------

def _planted(rng, n, i, k, delta):
    """Euclidean distances with d(i, k) set delta above its shortest detour."""
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    others = [j for j in range(n) if j not in (i, k)]
    D[i, k] = D[k, i] = float((D[i, others] + D[others, k]).min()) + delta
    return D


DELTAS = (-1e-3, 0.0, 5e-13, 1e-12, 2e-12, 1e-9, 1e-3)


def _verdict(points, metric, validate="full") -> bytes:
    try:
        space = build_metric_space(points, metric, validate)
    except NonMetric as e:
        return b"X" + e.reason.encode()
    return b"A" + space.dist.tobytes()


def triangle_entries() -> dict:
    out = {}
    rng = np.random.default_rng(7200)
    h = hashlib.sha256()
    for _ in range(30):
        n = int(rng.integers(1, 40))
        h.update(_verdict(rng.uniform(-1.0, 1.0, (n, 2)), "euclidean"))
    out["triangle/euclidean"] = h.hexdigest()

    rng = np.random.default_rng(7201)
    h = hashlib.sha256()
    for _ in range(30):
        n = int(rng.integers(3, 30))
        i, k = (int(x) for x in rng.choice(n, 2, replace=False))
        for delta in DELTAS:
            h.update(_verdict(np.arange(n, dtype=float), _planted(rng, n, i, k, delta)))
    out["triangle/planted"] = h.hexdigest()

    rng = np.random.default_rng(7202)
    h = hashlib.sha256()
    for _ in range(30):
        n = int(rng.integers(3, 30))
        i, k = (int(x) for x in rng.choice(n, 2, replace=False))
        D = _planted(rng, n, i, k, float(rng.choice(DELTAS)))
        noise = rng.uniform(-1e-13, 1e-13, D.shape)
        np.fill_diagonal(noise, 0.0)
        h.update(_verdict(np.arange(n, dtype=float), D + noise))
    out["triangle/near_symmetric"] = h.hexdigest()

    # sizes large enough for several row blocks at the default budget, with
    # violations in the first rows, the last rows and at a block's first row
    rng = np.random.default_rng(7203)
    h = hashlib.sha256()
    for n in (100, 130):
        b = BLOCK_BYTES // (n * n * 8)
        for i, k in ((0, 1), (n - 2, n - 1), (0, n - 1), (b - 1, b), (b, b + 1), (0, b)):
            for delta in (-1e-3, 2e-12, 1e-3):
                h.update(_verdict(np.arange(n, dtype=float), _planted(rng, n, i, k, delta)))
    out["triangle/blocks"] = h.hexdigest()

    # Euclidean points in dimensions 1 to 9 whose largest distance is 0.5 to
    # 1000 times rounding_scale(dim), with large offsets, and in the range
    # where squared differences underflow; all are accepted
    rng = np.random.default_rng(7204)
    h = hashlib.sha256()
    for _ in range(3):
        for dim in range(1, 10):
            for _, pts in scaled_point_sets(rng, dim):
                h.update(_verdict(pts, "euclidean"))
    out["triangle/euclidean_scale"] = h.hexdigest()
    return out


# -- Euclidean distances and slope bounds ----------------------------------------

@contextlib.contextmanager
def _workers(n):
    real = core.WORKERS
    core.WORKERS = n
    try:
        yield
    finally:
        core.WORKERS = real


def _points(rng, n, dim, style):
    """Uniform, integer-valued (exact squared distances), or scaled so that
    squared differences reach about 1e300, or 1e-300 and below."""
    if style == "integer":
        return np.unique(rng.integers(-1000, 1001, (n, dim)).astype(float), axis=0)
    scale = {"uniform": 1.0, "huge": 1e150, "tiny": 1e-150}[style]
    return rng.uniform(-1.0, 1.0, (n, dim)) * scale


#: point counts: one and two points, sizes whose rows fit one block at the
#: default budget, and sizes whose rows fill several blocks (a ragged last
#: block included) on one worker and on two
METRIC_SIZES = (1, 2, 13, 150, 400, 731)
POINT_STYLES = ("uniform", "integer", "huge", "tiny")


def _euclidean(rng, dim) -> bytes:
    """The raw bytes of dist, or the reason the points were rejected
    (coordinates +-1e200 overflow, a repeated point is a zero distance)."""
    out = []
    for n in METRIC_SIZES:
        for style in POINT_STYLES:
            pts = _points(rng, n, dim, style)
            for w in (1, 2):
                with _workers(w):
                    out.append(_verdict(pts, "euclidean", "fast"))
    for bad in (np.array([[-1e200] * dim, [1e200] * dim]),
                np.repeat(rng.uniform(-1.0, 1.0, (1, dim)), 3, axis=0)):
        out.append(_verdict(bad, "euclidean", "fast"))
    return b"|".join(out)


def _custom(rng) -> bytes:
    """Explicit matrices: exactly symmetric, nearly symmetric (averaged),
    and asymmetric beyond METRIC_TOL (rejected)."""
    out = []
    for n in (1, 2, 13, 150, 400):
        D = _planted(rng, n, 0, n - 1, 1e-3) if n > 2 else np.zeros((n, n)) + (n == 2)
        np.fill_diagonal(D, 0.0)
        noise = rng.uniform(-1e-13, 1e-13, D.shape)
        np.fill_diagonal(noise, 0.0)
        for M in (D, D + noise, D + 1e3 * noise):
            for w in (1, 2):
                with _workers(w):
                    out.append(_verdict(np.arange(n, dtype=float), M, "fast"))
    return b"|".join(out)


def _slope_bounds(rng) -> bytes:
    """slope_bound on functions with +inf holes and signed zeros, all-equal
    values, a single finite point and differences that overflow."""
    out = []
    for n in (1, 2, 13, 150, 400, 600):
        for dim in (1, 2):
            space = build_metric_space(np.unique(np.round(rng.uniform(-3.0, 3.0, (n, dim)), 3),
                                                 axis=0), validate="fast")
            m = space.n
            single = np.full(m, np.inf)
            single[int(rng.integers(m))] = float(rng.normal())
            huge = rng.choice([-1e308, 1e308, 0.0], m)
            for v in (_values(rng, m), rng.normal(size=m), np.full(m, 2.5), single, huge):
                f = GridFn(space, v)
                for w in (1, 2):
                    with _workers(w):
                        out.append(_outcome(lambda: f64(slope_bound(f, space))))
    return b"|".join(out)


def metric_entries() -> dict:
    out = {}
    for k, dim in enumerate((1, 2, 3, 5)):
        out[f"metric/euclidean_dim{dim}"] = hashlib.sha256(
            _euclidean(np.random.default_rng(7800 + k), dim)).hexdigest()
    out["metric/custom"] = hashlib.sha256(_custom(np.random.default_rng(7810))).hexdigest()
    out["metric/slope_bound"] = hashlib.sha256(
        _slope_bounds(np.random.default_rng(7820))).hexdigest()
    return out


# -- peaking and Urysohn witnesses ---------------------------------------------

def _witness(search) -> bytes:
    """The raw bytes of a, ell, anchor and c, or the message of the failure
    (BadParams included, should a search make a member its family rejects)."""
    try:
        w = search()
    except NoWitness as e:
        return b"X" + str(e).encode()
    except BadParams as e:
        return b"B" + str(e).encode()
    return b"W" + _member(w)


def _member(w) -> bytes:
    ell = b"-" if w.ell is None else w.ell.tobytes()
    anchor = b"-" if w.anchor is None else np.int64(w.anchor).tobytes()
    return f64(w.a) + b"|" + ell + b"|" + anchor + b"|" + f64(w.c)


def _grid(rng, dim, origin, n_min=1):
    """1-D or 2-D points: uniform, or integer-valued (whose distances make
    1/delta * delta round below 1); the origin is a point when asked for."""
    n = int(rng.integers(n_min, 13))
    if rng.random() < 0.3:
        pts = rng.choice(np.arange(-60, 61), (n, dim), replace=False).astype(float) \
            if dim == 1 else rng.integers(-60, 61, (n, dim)).astype(float)
    else:
        pts = rng.uniform(-2.0, 2.0, (n, dim))
    if origin:
        pts[int(rng.integers(n))] = 0.0
    pts = np.unique(pts, axis=0)
    return build_metric_space(pts, validate="fast")


def _delta(rng, space, y0):
    """A positive distance of the grid from y0, or a uniform draw."""
    d = space.dist[y0]
    pos = d[d > 0]
    if pos.size and rng.random() < 0.4:
        return float(rng.choice(pos))
    return float(rng.uniform(0.05, 1.2)) * max(1.0, float(d.max()))


def _eps(rng):
    """Below 2**-53, 1 - eps rounds to 1: the peak check must not round."""
    return 1e-17 if rng.random() < 0.1 else float(rng.uniform(0.01, 0.95))


def _shape(rng):
    """A 1-D shape through 0: increasing, flat zero near 0 (no decay on a
    near far set), or dipping below zero (every scale fails the eps bound)."""
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, 3))])
    style = rng.integers(3)
    vs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, 3))])
    if style == 1:
        vs[1] = 0.0
    elif style == 2:
        vs[1] = -float(rng.uniform(0.1, 1.0))
    return Sampled1D(ts, vs)


def _peaking(rng, generalized, dim):
    space = _grid(rng, dim, origin=False)
    fam = ElemFamily.generalized_metric(space, _shape(rng), 2.0) if generalized \
        else ElemFamily.metric(space)
    y0 = int(rng.integers(space.n))
    eps = float(rng.choice([0.0, float(rng.uniform(0.01, 1.0))], p=[0.1, 0.9]))
    delta = _delta(rng, space, y0)
    K = float(rng.uniform(0.0, 10.0))
    g = ElemParams(a=float(rng.uniform(0.2, 5.0)), anchor=int(rng.integers(space.n)),
                   c=float(rng.normal()))
    return _witness(lambda: peaking_witness(fam, y0, eps, delta, K, g))


def _urysohn(rng, kind, dim):
    space = _grid(rng, dim, origin=kind != "metric", n_min=2 if kind == "gauge_lp" else 1)
    origin = space.origin_index()
    if kind == "metric":
        fam, y0 = ElemFamily.metric(space), int(rng.integers(space.n))
    else:
        fam = ElemFamily.gauge(space, str(rng.choice(["l1", "l2", "linf"])))
        if kind == "gauge_origin":
            y0 = origin
        else:
            y0 = int(rng.choice([i for i in range(space.n) if i != origin]))
    eps, delta = _eps(rng), _delta(rng, space, y0)
    return _witness(lambda: urysohn_witness(fam, y0, eps, delta))


WITNESS_CASES = {
    "peaking_metric": lambda rng, dim: _peaking(rng, False, dim),
    "peaking_generalized": lambda rng, dim: _peaking(rng, True, dim),
    "urysohn_metric": lambda rng, dim: _urysohn(rng, "metric", dim),
    "urysohn_gauge_origin": lambda rng, dim: _urysohn(rng, "gauge_origin", dim),
    "urysohn_gauge_lp": lambda rng, dim: _urysohn(rng, "gauge_lp", dim),
}


def witness_entries() -> dict:
    out = {}
    for k, (name, case) in enumerate(WITNESS_CASES.items()):
        rng = np.random.default_rng(7300 + k)
        h = hashlib.sha256()
        for i in range(120):
            h.update(case(rng, 1 + i % 2))
        out[f"witness/{name}"] = h.hexdigest()
    return out


# -- conjugate and biconjugate -------------------------------------------------

KINDS = ("affine", "quad_minus", "quad_plus", "sigma_nu", "metric",
         "generalized_metric", "gauge")


def _family(rng, kind, space):
    if kind == "sigma_nu":
        sigma, nu = np.abs(rng.normal(size=space.n)), rng.normal(size=space.n)
        o = space.origin_index()
        if o is not None:
            sigma[o] = nu[o] = 0.0
        return ElemFamily.sigma_nu(space, GridFn(space, sigma), GridFn(space, nu))
    if kind == "generalized_metric":
        return ElemFamily.generalized_metric(space, _shape(rng), 2.0)
    if kind == "gauge":
        return ElemFamily.gauge(space, str(rng.choice(["l1", "l2", "linf"])))
    return getattr(ElemFamily, kind)(space)


def _values(rng, n):
    """Integer or real values with +inf holes and zeros of both signs."""
    if rng.random() < 0.5:
        v = rng.integers(-3, 4, n).astype(float)
    else:
        v = rng.normal(size=n)
    v[rng.random(n) < 0.2] = 0.0
    v[rng.random(n) < 0.2] = -0.0
    v[rng.random(n) < 0.25] = np.inf
    if rng.random() < 0.05:
        v[:] = np.inf
    return v


def _pair(f, dual) -> bytes:
    return conjugate_transform(f, dual).tobytes() + biconjugate(f, dual).values.tobytes()


def conjugation_entries() -> dict:
    out = {}
    for k, kind in enumerate(KINDS):
        rng = np.random.default_rng(7400 + k)
        h = hashlib.sha256()
        for i in range(30):
            dim = 1 + i % 2
            pts = np.round(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 16)), dim)), 1)
            pts[0] = 0.0
            space = build_metric_space(np.unique(pts, axis=0), validate="fast")
            f = GridFn(space, _values(rng, space.n))
            h.update(_pair(f, default_dual_grid(_family(rng, kind, space), f)))
        out[f"conjugation/{kind}"] = h.hexdigest()

    # grids large enough for several row and column blocks at the default budget
    rng = np.random.default_rng(7410)
    h = hashlib.sha256()
    for n in (150, 210):
        space = build_metric_space(np.unique(np.round(rng.uniform(-2.0, 2.0, n), 2)),
                                   validate="fast")
        f = GridFn(space, _values(rng, space.n))
        h.update(_pair(f, default_dual_grid(ElemFamily.metric(space), f)))
    out["conjugation/blocks"] = h.hexdigest()
    return out


# -- duality reports -----------------------------------------------------------

def _ext(v) -> bytes:
    return f64(v.as_float())


def _report(rep) -> bytes:
    """Every DualityReport field, the Lagrangian table and its partial conjugate."""
    cert = rep.certificate
    cert = b"N" if cert is None else (b"C" + _member(cert.psi1) + _member(cert.psi2)
                                      + f64(cert.t.t0) + f64(cert.t.level)
                                      + f64(cert.t.lower_envelope_value))
    return b"|".join([
        _ext(rep.primal), _ext(rep.dual), _ext(rep.gap), _ext(rep.V_bidual_at_y0),
        rep.V.values.tobytes(), rep.V_star.tobytes(), rep.table.L.tobytes(),
        rep.table.S.tobytes(), bytes([rep.reconstruction_ok, rep.convexity_holds]),
        rep.convexity_scope.encode(), np.int64(rep.y0).tobytes(), cert])


def _outcome(run) -> bytes:
    """The result, or the type and message of the error that rejected the
    call.  verify_zero_gap_metric's sufficiency check raises AssertionError
    where rounding keeps the gap open at extreme magnitudes, and that counts
    as an outcome too."""
    try:
        return b"R" + run()
    except (AbconvexError, ValueError, AssertionError) as e:
        return b"X" + type(e).__name__.encode() + str(e).encode()


def _table(rng, n_x, n_y):
    """Values with zeros of both signs and +inf holes; every column keeps a
    finite cell, and now and then a whole row is +inf."""
    p = _values(rng, n_x * n_y).reshape(n_x, n_y)
    empty = ~np.isfinite(p).any(axis=0)
    p[rng.integers(n_x, size=int(empty.sum())), np.flatnonzero(empty)] = \
        rng.integers(-3, 4, int(empty.sum())).astype(float)
    if n_x > 1 and rng.random() < 0.1:
        p[int(rng.integers(n_x))] = np.inf
        p[:, ~np.isfinite(p).any(axis=0)] = 0.0
    return p


def _slope(rng, dim):
    return rng.choice([0.0, -0.0, 1.0, -2.0, float(rng.normal()), float(rng.normal())], dim)


def _explicit_grid(rng, fam):
    """A member list with signed-zero slopes.  Now and then a member comes
    back with its zeros' signs flipped, or breaks the family's rules; those
    lists are recorded with their error."""
    kind, dim = fam.kind.value, fam.domain.dim
    members = {}
    for _ in range(int(rng.integers(1, 9))):
        a = float(rng.choice([0.0, -0.0, 0.5, 1.0, 2.0]))
        if kind == "affine":
            w = ElemParams(a=a if rng.random() < 0.05 else 0.0, ell=_slope(rng, dim))
        elif kind in ("metric", "generalized_metric"):
            w = ElemParams(a=a or 1.0, anchor=int(rng.integers(fam.domain.n)))
        elif kind == "sigma_nu":
            w = ElemParams(a=float(rng.choice([a, 2.0 * rng.random()])))
        else:
            w = ElemParams(a=a if kind != "gauge" else a or 1.0, ell=_slope(rng, dim))
        ell = None if w.ell is None else tuple(w.ell.tolist())
        members.setdefault((w.a, ell, w.anchor, w.c), w)
    members = list(members.values())
    if rng.random() < 0.15:
        w = members[int(rng.integers(len(members)))]
        flipped = None if w.ell is None else np.where(w.ell == 0.0, -w.ell, w.ell)
        members.append(ElemParams(a=-w.a if w.a == 0.0 else w.a, anchor=w.anchor, ell=flipped))
    return DualGrid(fam, tuple(members))


def _duality_case(rng, kind, dim, explicit):
    space = _grid(rng, dim, origin=True)
    n_x = int(rng.integers(1, 8))
    prob = PerturbationProblem(Y=space, p=_table(rng, n_x, space.n),
                               y0=int(rng.integers(space.n)))
    fam = _family(rng, kind, space)
    scope = str(rng.choice(["anchor", "full"]))

    def run():
        if explicit:
            grid = _explicit_grid(rng, fam)
        else:
            grid = default_dual_grid(
                fam, GridFn(space, prob.p.min(axis=0)),
                slope_count=int(rng.integers(3, 10)),
                curvature_levels=int(rng.integers(1, 6)),
                max_anchors=None if rng.random() < 0.5 else int(rng.integers(1, 6)))
        return _report(duality_report(prob, grid, convexity_scope=scope))
    return _outcome(run)


def duality_entries() -> dict:
    out = {}
    for k, kind in enumerate(KINDS):
        for explicit in (False, True):
            rng = np.random.default_rng(7500 + 10 * explicit + k)
            h = hashlib.sha256()
            for i in range(30):
                h.update(_duality_case(rng, kind, 1 + i % 2, explicit))
            out[f"duality/{'explicit_' if explicit else ''}{kind}"] = h.hexdigest()
    out.update(kernel_entries())
    return out


# -- the partial-conjugate kernel: tables, probes, cone Lagrangians ----------------

KERNEL_KINDS = ("affine", "quad_minus", "metric", "sigma_nu")


def _lag_table(table) -> bytes:
    """Every LagTable field: L, S, the grid's member matrix and y0."""
    return b"|".join([table.L.tobytes(), table.S.tobytes(),
                      table.psi_grid.matrix.tobytes(), np.int64(table.y0).tobytes()])


def _kernel_table(rng, kind) -> bytes:
    """Lagrangian tables with +inf holes, with and without empty rows, and
    the partial conjugate of three (x, member) pairs of each, one cell at a time."""
    h = b""
    for n_x, n_y in table_shapes(rng, 25):
        for empty_rows in (False, True):
            prob, grid = kernel_perturbation(rng, n_x, n_y, empty_rows=empty_rows, kind=kind)
            h += _lag_table(build_lagrangian(prob, grid))
            for _ in range(3):
                x, j = int(rng.integers(n_x)), int(rng.integers(grid.size))
                vals = eval_on_domain(grid.family, grid.member(j))
                h += _ext(ExtReal(float(_partial_conjugate(vals[None, :], prob.p[x][None, :])[0, 0])))
    return h


def _kernel_report(rng, scope) -> bytes:
    h = b""
    for n_x, n_y in table_shapes(rng, 40):
        prob, grid = kernel_perturbation(rng, n_x, n_y, holes=bool(rng.random() < 0.6),
                                         empty_rows=bool(rng.random() < 0.3))
        h += _outcome(lambda: _report(duality_report(prob, grid, convexity_scope=scope)))
    return h


def _concavity(rng) -> bytes:
    """Verdicts on members of affine and quad_minus grids at t = 0, 1 and a draw."""
    h = b""
    for kind in ("affine", "quad_minus"):
        for n_x, n_y in table_shapes(rng, 30):
            prob, grid = kernel_perturbation(rng, n_x, n_y, kind=kind)
            pa, pb = (grid.member(int(i)) for i in rng.integers(grid.size, size=2))
            for t in (0.0, 1.0, float(rng.uniform())):
                h += bytes([concavity_probe(prob, grid.family, pa, pb, t)])
    return h


def _cone_column(inst, family, params) -> GridFn:
    """Column 0 of the Lagrangian table of the constrained perturbation on a
    one-member grid: one metric-cone or quadratic multiplier's Lagrangian."""
    grid = DualGrid(family, [params])
    return GridFn(inst.n_x, build_lagrangian(build_constrained_perturbation(inst), grid).L[:, 0])


def _cone_lagrangians(rng, which) -> bytes:
    h = b""
    for allow_empty in (False, True):
        for n_x, n_y in table_shapes(rng, 30):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            for _ in range(3):
                if which == "metric":
                    anchor, a = int(rng.integers(n_y)), float(rng.uniform(0.1, 4.0))
                    L = _cone_column(inst, ElemFamily.metric(inst.Y),
                                     ElemParams(a=a, anchor=anchor))
                else:
                    u, a = [float(rng.uniform(-2, 2))], float(rng.uniform(0.0, 3.0))
                    L = _cone_column(inst, ElemFamily.quad_minus(inst.Y),
                                     ElemParams(a=a, ell=np.asarray(u, dtype=float)))
                h += L.values.tobytes()
    return h


def _kernel_grid_sup(rng) -> bytes:
    """Ladders with repeated rungs, unsorted and empty, on instances with and
    without empty inverse-feasible sets."""
    ladders = [(1.0,), (4.0, 0.5, 2.0), (2.0, 2.0, 0.25, 2.0), (0.3, 0.3), ()]
    h = b""
    for allow_empty in (False, True):
        for n_x, n_y in table_shapes(rng, 20):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            ladder = ladders[int(rng.integers(len(ladders)))]
            if rng.random() < 0.5:
                ladder = tuple(rng.uniform(0.1, 5.0, size=int(rng.integers(1, 6))))
            h += b"".join(metric_grid_sup(inst, x, ladder).tobytes() for x in range(n_x))
    return h


def _kernel_zero_gap(rng) -> bytes:
    h = b""
    for allow_empty in (False, True):
        for n_x, n_y in table_shapes(rng, 25):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            draws = rng.uniform(-5.0, 2.0, size=int(rng.integers(1, 6)))
            ladder = tuple(math.exp(u) for u in draws)  # libm's exp, the same on every CPU
            rep = verify_zero_gap_metric(inst, ladder, tol=float(rng.choice([1e-9, 1e-3, 0.5])))
            rung = b"-" if rep.minimal_rung is None else f64(rep.minimal_rung)
            h += b"|".join([_report(rep.duality), _ext(rep.constrained_value),
                            np.asarray(rep.ladder).tobytes(), rung, f64(rep.proof_bound),
                            bytes([rep.anchor_feasible])])
    return h


def _huge_grid(rng, fam):
    """Explicit members scaled so that their values on the grid reach about
    +-1e300 and stay finite."""
    kind, space = fam.kind.value, fam.domain
    pts = space.points
    reach = 1e300 / float(rng.uniform(1.0, 10.0))
    if kind in ("metric", "generalized_metric"):
        shape = space.dist if kind == "metric" else fam.g_shape(space.dist)
        top = max(1.0, float(np.abs(shape).max()))
        return DualGrid(fam, a=reach / top * rng.uniform(0.5, 1.0, space.n),
                        anchor=np.arange(space.n))
    if kind == "sigma_nu":
        top = max(1.0, float(fam.sigma.values.max()))
        return DualGrid(fam, a=[0.0, reach / top, reach / (2 * top)])
    ell = rng.choice([-1.0, 1.0], (4, space.dim)) * rng.uniform(0.5, 1.0, (4, space.dim)) \
        * reach / (space.dim * max(1.0, float(np.abs(pts).max())))
    if kind == "affine":
        return DualGrid(fam, a=np.zeros(4), ell=ell)
    base = fam.gauge_values() if kind == "gauge" else (pts * pts).sum(axis=1)
    a = reach / max(1.0, float(base.max())) * rng.uniform(0.5, 1.0, 4)
    return DualGrid(fam, a=a, ell=ell)


def _huge(rng) -> bytes:
    """Duality reports of every kind on explicit grids of huge members, with
    no certificate and with one (primal - 1e-6 rounds to primal at this
    scale, so its level is the next double below primal)."""
    h = b""
    for i in range(42):
        kind = KINDS[i % len(KINDS)]
        space = _grid(rng, 1 + i // len(KINDS) % 2, origin=True)
        prob = PerturbationProblem(Y=space, p=_table(rng, int(rng.integers(1, 6)), space.n),
                                   y0=int(rng.integers(space.n)))
        grid = _huge_grid(rng, _family(rng, kind, space))
        scope = str(rng.choice(["anchor", "full"]))
        h += grid.matrix.tobytes()
        for attach in (False, True):
            h += _outcome(lambda: _report(duality_report(prob, grid, convexity_scope=scope,
                                                         attach_certificate=attach)))
    return h


#: the corpus of tests/test_lagrangian_kernel.py, and huge explicit members
KERNEL_CASES = {
    **{f"kernel_table_{kind}": (lambda kind: lambda rng: _kernel_table(rng, kind))(kind)
       for kind in KERNEL_KINDS},
    "kernel_report_anchor": lambda rng: _kernel_report(rng, "anchor"),
    "kernel_report_full": lambda rng: _kernel_report(rng, "full"),
    "concavity_probe": _concavity,
    "metric_lagrangian": lambda rng: _cone_lagrangians(rng, "metric"),
    "quad_lagrangian": lambda rng: _cone_lagrangians(rng, "quad"),
    "kernel_metric_grid_sup": _kernel_grid_sup,
    "kernel_verify_zero_gap_metric": _kernel_zero_gap,
    "explicit_huge_members": _huge,
}


def kernel_entries() -> dict:
    return {f"duality/{name}": hashlib.sha256(case(np.random.default_rng(7800 + k))).hexdigest()
            for k, (name, case) in enumerate(KERNEL_CASES.items())}


# -- constrained problems --------------------------------------------------------

def _constrained(rng, dim):
    """f with +inf holes (one finite value kept), feasible sets that may be
    empty, a 1-D or 2-D parameter grid."""
    Y = _grid(rng, dim, origin=False, n_min=2)
    n_x = int(rng.integers(1, 9))
    f = _values(rng, n_x)
    if not np.isfinite(f).any():
        f[int(rng.integers(n_x))] = float(rng.normal())
    allow_empty = rng.random() < 0.3
    sets = tuple(frozenset(rng.choice(n_x, int(rng.integers(0 if allow_empty else 1, n_x + 1)),
                                      replace=False).tolist()) for _ in range(Y.n))
    return ConstrainedInstance(f=GridFn(n_x, f), map=ConstraintMap(sets, n_x, allow_empty),
                               Y=Y, y0=int(rng.integers(Y.n)))


def _ladder(rng):
    style = rng.integers(3)
    if style == 0:
        return DEFAULT_LADDER
    if style == 1:
        rungs = rng.permutation([0.5, 1.0, 3.0, 8.0])
        return tuple(float(a) for a in rungs[:int(rng.integers(1, 5))])
    return tuple(float(a) for a in np.unique(np.round(rng.uniform(0.05, 20.0, 5), 2)))


def _zero_gap(rng, dim) -> bytes:
    inst, ladder = _constrained(rng, dim), _ladder(rng)

    def run():
        rep = verify_zero_gap_metric(inst, ladder)
        rung = b"-" if rep.minimal_rung is None else f64(rep.minimal_rung)
        return b"|".join([_report(rep.duality), _ext(rep.constrained_value),
                          np.asarray(rep.ladder).tobytes(), rung, f64(rep.proof_bound),
                          bytes([rep.anchor_feasible]), rep.hypothesis.encode()])
    return _outcome(run)


def _grid_sup(rng, dim) -> bytes:
    inst, ladder = _constrained(rng, dim), _ladder(rng)
    return b"".join(metric_grid_sup(inst, x, ladder).tobytes() for x in range(inst.n_x))


def _conic(rng, dim) -> bytes:
    n = int(rng.integers(1, 8))
    pi, c = _values(rng, n), _values(rng, n)
    pi[~np.isfinite(pi)], c[~np.isfinite(c)] = 1.5, -2.5
    if rng.random() < 0.6:
        pi = np.abs(pi)
    rep = conic_lp_dual(ConicLP(pi=pi, c_vec=c))
    q = b"-" if rep.q_star is None else rep.q_star.tobytes()
    return _ext(rep.primal) + _ext(rep.dual) + q


#: rungs from near the smallest normal double to near the largest
EXTREME_RUNGS = (1e-300, 1e-100, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e100, 1e200, 1e300, 1.7e308)


def _extreme_ladder(rng, inst):
    """The default ladder, extreme rungs (sorted, unsorted, repeated), rungs
    that take the members near the largest double, an empty ladder, or one
    with a zero, negative, infinite or NaN rung (NaN only among positive
    rungs: a set orders NaN by its object id)."""
    style = rng.integers(6)
    if style == 0:
        return DEFAULT_LADDER
    rungs = [float(a) for a in rng.choice(EXTREME_RUNGS, int(rng.integers(1, 6)))]
    if style == 1:
        return tuple(sorted(set(rungs)))
    if style == 2:
        return tuple(rungs + rungs[:int(rng.integers(0, 3))])
    if style == 3:
        return ()
    if style == 4:  # the largest member from about 2e307 to past the largest double
        top = 1e308 / float(inst.Y.dist.max())
        return tuple(min(1.7e308, float(c) * top) for c in rng.uniform(0.2, 2.0, 3))
    bad = float(rng.choice([0.0, -0.0, -1.0, math.inf, math.nan]))
    rungs.insert(int(rng.integers(len(rungs) + 1)), bad)
    return tuple(rungs)


def _extreme_instance(rng, dim):
    """Points scaled by 1e-100, 1 or 1e100; f scaled towards +-1e300 and
    +-1e308, with +inf and zeros of both signs (one finite value kept);
    feasible sets that may be empty."""
    pts = _grid(rng, dim, origin=False, n_min=2).points
    Y = build_metric_space(pts * float(rng.choice([1e-100, 1.0, 1e100])), validate="fast")
    n_x = int(rng.integers(1, 7))
    with np.errstate(over="ignore"):
        f = _values(rng, n_x) * float(rng.choice([1.0, 1e300, 1e307, 5e307]))
    f[f == -np.inf] = -1.7e308
    if not np.isfinite(f).any():
        f[int(rng.integers(n_x))] = float(rng.choice([-1e300, 1e300, -0.0]))
    allow_empty = rng.random() < 0.4
    sets = tuple(frozenset(rng.choice(n_x, int(rng.integers(0 if allow_empty else 1, n_x + 1)),
                                      replace=False).tolist()) for _ in range(Y.n))
    return ConstrainedInstance(f=GridFn(n_x, f), map=ConstraintMap(sets, n_x, allow_empty),
                               Y=Y, y0=int(rng.integers(Y.n)))


def _extremes(rng, dim) -> bytes:
    """verify_zero_gap_metric and metric_grid_sup outcomes, rejections
    included, at extreme magnitudes of f, of the points and of the rungs."""
    h = b""
    for _ in range(4):
        inst = _extreme_instance(rng, dim)
        ladder = _extreme_ladder(rng, inst)

        def run():
            rep = verify_zero_gap_metric(inst, ladder)
            rung = b"-" if rep.minimal_rung is None else f64(rep.minimal_rung)
            return b"|".join([_report(rep.duality), _ext(rep.constrained_value),
                              np.asarray(rep.ladder).tobytes(), rung, f64(rep.proof_bound),
                              bytes([rep.anchor_feasible])])
        h += _outcome(run)
        for x in range(inst.n_x):
            h += _outcome(lambda: metric_grid_sup(inst, x, ladder).tobytes())
    return h


CONSTRAINED_CASES = {"verify_zero_gap_metric": _zero_gap, "metric_grid_sup": _grid_sup,
                     "conic_lp_dual": _conic, "extremes": _extremes}


def constrained_entries() -> dict:
    out = {}
    for k, (name, case) in enumerate(CONSTRAINED_CASES.items()):
        rng = np.random.default_rng(7600 + k)
        h = hashlib.sha256()
        for i in range(40):
            h.update(case(rng, 1 + i % 2))
        out[f"constrained/{name}"] = h.hexdigest()
    return out


# -- transportation simplex ------------------------------------------------------

def _transport_shape(rng, k):
    """Square, rectangular, 1 x m, n x 1 and 1 x 1 in turn, up to 40 a side."""
    n, m = (int(v) for v in rng.integers(2, 41, 2))
    return ((n, n), (n, m), (1, m), (n, 1), (1, 1))[k % 5]


def _transport(prob) -> bytes:
    """The raw bytes of q, psi, phi and the value, and every KantorovichReport
    field."""
    coupling, pots, value = solved = solve_transport(prob)
    rep = kantorovich_gap_report(prob, solved)
    return b"|".join([
        np.int64(prob.shape).tobytes(), coupling.q.tobytes(), pots.psi.tobytes(),
        pots.phi.tobytes(), f64(value), f64(rep.primal), f64(rep.dual), f64(rep.gap),
        np.int64(rep.slack_violations).tobytes(), rep.orientation.encode()])


#: the makers of the transport/<kind> entries, in the order of their seeds
TRANSPORT_KINDS = {"generic": generic_transport, "degenerate": degenerate_transport}


def transport_corpus(kind) -> list:
    """The 40 seeded instances of the transport/<kind> entry."""
    rng = np.random.default_rng(7700 + list(TRANSPORT_KINDS).index(kind))
    return [TRANSPORT_KINDS[kind](rng, *_transport_shape(rng, i)) for i in range(40)]


def transport_entries() -> dict:
    out = {}
    for kind in TRANSPORT_KINDS:
        h = hashlib.sha256()
        for prob in transport_corpus(kind):
            h.update(_outcome(lambda: _transport(prob)))
        out[f"transport/{kind}"] = h.hexdigest()
    return out


# -- upward-rounded subtraction --------------------------------------------------

def sub_up_entries() -> dict:
    out = {}
    for k, style in enumerate(SUB_UP_STYLES):
        rng = np.random.default_rng(7800 + k)
        a, b = sub_up_pairs(rng, style, 20000)
        # elementwise, and broadcast as a column against a row (as conjugation calls it)
        out[f"sub_up/{style}"] = hashlib.sha256(
            core.sub_up(a, b).tobytes() + core.sub_up(a[:150, None], b[None, :150]).tobytes()
        ).hexdigest()
    h = hashlib.sha256()
    for x in SUB_UP_SPECIALS:
        for y in SUB_UP_SPECIALS:
            try:
                h.update(core.sub_up(np.asarray([x]), np.asarray([y])).tobytes())
            except UndefinedSum:
                h.update(b"U")
    out["sub_up/specials"] = h.hexdigest()
    return out


# -- c-transforms ----------------------------------------------------------------

def _c_transform_pair(rng, style, n, m):
    """psi and an n x m cost with cost >= psi along each row in nine cells of
    ten: integers in 1..3 or reals of one decimal, half of psi and 30% of the
    increments exact zeros, every value of random sign.  Many columns have
    their maximum psi - cost at zeros of both signs, where c_transform
    returns +0."""
    def draw(shape, zeros):
        if style == "integer":
            v = rng.integers(1, 4, shape).astype(float)
        else:
            v = np.abs(np.round(rng.normal(size=shape), 1))
        v[rng.random(shape) < zeros] = 0.0
        return np.where(rng.random(shape) < 0.5, -v, v)

    psi = draw(n, 0.5)
    inc = draw((n, m), 0.3)
    return psi, psi[:, None] + np.where(rng.random((n, m)) < 0.9, np.abs(inc), inc)


def c_transform_entries() -> dict:
    out = {}
    for k, style in enumerate(("integer", "real")):
        rng = np.random.default_rng(7900 + k)
        h = hashlib.sha256()
        for i in range(60):
            # 1 x m, a few rows, and columns of 20 to 39 rows; n x 1 in half
            n = (1, int(rng.integers(2, 8)), 20 + i // 3)[i % 3]
            m = 1 if n > 1 and i % 2 else int(rng.integers(2, 9))
            psi, cost = _c_transform_pair(rng, style, n, m)
            # the C array, and a transposed view of the same values
            for c in (cost, np.ascontiguousarray(cost.T).T):
                h.update(np.int64(c.shape).tobytes() + c_transform(psi, c).tobytes())
        out[f"c_transform/{style}"] = h.hexdigest()
    return out


# -- DualGrid construction -------------------------------------------------------

SLOPED = ("affine", "quad_minus", "quad_plus", "gauge")
CONES = ("metric", "generalized_metric")


def _grid_verdict(build) -> bytes:
    """The bytes of a, ell and anchor of an accepted grid, or the type and
    message of the error that rejected it.  The member matrix is left out:
    its sums follow the SIMD target, and the conjugation group pins it."""
    try:
        grid = build()
    except (ValueError, AbconvexError) as e:
        return b"E" + type(e).__name__.encode() + b"|" + str(e).encode()
    arrays = [b"-" if arr is None else np.int64(arr.shape).tobytes() + arr.tobytes()
              for arr in (grid.a, grid.ell, grid.anchor)]
    return b"G" + b"|".join(arrays)


def _signed(rng, v, zeros):
    """v with a share `zeros` of its entries set to zeros of either sign."""
    z = rng.random(v.shape) < zeros
    v[z] = np.where(rng.random(v.shape) < 0.5, 0.0, -0.0)[z]
    return v


def _draw(rng, shape, zeros):
    """Multiples of 1/8 in [-4, 4] (repeats are common) or uniform draws."""
    if rng.random() < 0.3:
        v = rng.integers(-32, 33, shape) / 8.0
    else:
        v = rng.uniform(-4.0, 4.0, shape)
    return _signed(rng, v, zeros)


def _curvatures(rng, kind, P, zeros):
    """Curvatures that pass the kind's rule: zeros for affine, a >= 0 for
    the quadratic and sigma_nu kinds, a > 0 for cones and gauges."""
    if kind == "affine":
        return _signed(rng, np.zeros(P), 1.0)
    a = np.abs(_draw(rng, P, 0.0))
    if kind in CONES + ("gauge",):
        return a + 0.5
    return _signed(rng, a, zeros)


def _flip_zeros(row):
    """row with the sign of each of its zeros flipped, where it has any."""
    row = np.array(row, dtype=float)
    zero = row == 0.0
    row[zero] = -row[zero]
    return row


def _plant(rng, P, count):
    """count (earlier, later) positions of planted repeats."""
    pairs = []
    for _ in range(count if P > 1 else 0):
        j = int(rng.integers(1, P))
        pairs.append((int(rng.integers(0, j)), j))
    return pairs


def _near(rng, P, pairs):
    """A position near the first planted repeat (between its two members,
    before them or after), else anywhere."""
    if not pairs or rng.random() < 0.2:
        return int(rng.integers(P))
    i, j = min(pairs, key=lambda p: p[1])
    return int(np.clip(rng.integers(i - 2, j + 3), 0, P - 1))


def _array_case(rng, fam, kind, P):
    """Arrays a, ell, anchor with planted repeats (zeros of either sign) and
    now and then a member that breaks a rule near the first of them."""
    dim, n, zeros = fam.domain.dim, fam.domain.n, float(rng.choice([0.0, 0.1, 0.5]))
    a = _curvatures(rng, kind, P, zeros)
    slopes, cone = kind in SLOPED, kind in CONES
    ell = _draw(rng, (P, dim), zeros) if slopes else None
    anchor = rng.integers(0, n, P) if cone else None
    if kind == "sigma_nu" and rng.random() < 0.3:
        anchor = rng.integers(-2, n + 2, P)  # read by no rule of sigma_nu
    if anchor is not None:
        for i, j in _plant(rng, P, int(rng.choice([0, 2]))):  # told apart by the anchor alone
            a[j], anchor[j] = a[i], (anchor[i] + 1) % n if cone else anchor[i] + 1
    pairs = _plant(rng, P, int(rng.choice([0, 1, 3])))
    for i, j in pairs:
        a[j] = _flip_zeros(a[i]) if rng.random() < 0.5 else a[i]
        if ell is not None:
            ell[j] = _flip_zeros(ell[i])
        if anchor is not None:
            anchor[j] = anchor[i]
    if rng.random() < 0.5:
        f = _near(rng, P, pairs)
        if cone and rng.random() < 0.5:
            anchor[f] = n
        else:
            a[f] = 1.0 if kind == "affine" else -1.0
    if slopes and rng.random() < 0.05:
        ell = _draw(rng, (P, dim + 1), zeros)  # a slope dimension that does not match
    return lambda: DualGrid(fam, a=a, ell=ell, anchor=anchor)


def _near_repeat(rng, m, kind, n):
    """m told apart from its copy by one field that no rule of the kind
    rejects: another anchor for a cone; else an anchor added or dropped, or,
    for sigma_nu, a zero appended to the slope (an empty slope for none)."""
    if kind in CONES:
        return ElemParams(a=m.a, anchor=(m.anchor + 1) % n)
    if kind == "sigma_nu" and rng.random() < 0.5:
        return ElemParams(a=m.a, anchor=m.anchor,
                          ell=np.zeros(0) if m.ell is None else np.append(m.ell, 0.0))
    return ElemParams(a=m.a, ell=m.ell, anchor=0 if m.anchor is None else None)


def _params_case(rng, fam, kind, P):
    """Member lists with planted repeats, zeros of either sign in a, ell and
    c, and members told apart only by their slope length or by having an
    anchor; now and then a member that breaks a rule near the first repeat."""
    dim, n, zeros = fam.domain.dim, fam.domain.n, float(rng.choice([0.0, 0.1, 0.5]))
    a = _curvatures(rng, kind, P, zeros)
    slopes, cone = kind in SLOPED, kind in CONES
    members = []
    for j in range(P):
        ell = _draw(rng, dim, zeros) if slopes else None
        anchor = int(rng.integers(n)) if cone else None
        if kind == "sigma_nu":  # no rule reads ell or anchor here
            width = int(rng.integers(-1, 3))
            ell = None if width < 0 else _draw(rng, width, zeros)
            anchor = int(rng.integers(-1, n + 1)) if rng.random() < 0.3 else None
        members.append(ElemParams(a=a[j], ell=ell, anchor=anchor,
                                  c=float(rng.choice([0.0, -0.0]))))
    for i, j in _plant(rng, P, int(rng.choice([0, 2]))):
        members[j] = _near_repeat(rng, members[i], kind, n)
    pairs = _plant(rng, P, int(rng.choice([0, 1, 3])))
    for i, j in pairs:
        m = members[i]
        members[j] = ElemParams(a=_flip_zeros(m.a)[()], anchor=m.anchor, c=-m.c,
                                ell=None if m.ell is None else _flip_zeros(m.ell))
    if rng.random() < 0.5:
        f = _near(rng, P, pairs)
        m = members[f]
        broken = {"c": dict(c=1.0), "a": dict(a=1.0 if kind == "affine" else -1.0),
                  "ell": dict(ell=None if slopes else np.ones(1)),
                  "anchor": dict(anchor=n if cone else m.anchor)}
        change = broken[str(rng.choice(list(broken)))]
        members[f] = ElemParams(**{**dict(a=m.a, ell=m.ell, anchor=m.anchor, c=m.c), **change})
    return lambda: DualGrid(fam, tuple(members))


def _grid_size(rng, i):
    """1, 2, 3, then a few, dozens and hundreds of members in turn."""
    if i % 6 < 3:
        return 1 + i % 6
    return int(rng.integers(*[(4, 40), (40, 200), (200, 601)][i % 6 - 3]))


def dual_grid_entries() -> dict:
    out = {}
    for k, kind in enumerate(KINDS):
        rng = np.random.default_rng(8000 + k)
        h = hashlib.sha256()
        for i in range(48):  # both paths at every size, in 1-D and in 2-D
            pts = rng.integers(-4, 5, (int(rng.integers(1, 7)), 1 + i // 12 % 2)).astype(float)
            space = build_metric_space(np.unique(pts, axis=0), validate="fast")
            fam = _family(rng, kind, space)
            case = _params_case if i % 2 else _array_case
            h.update(_grid_verdict(case(rng, fam, kind, _grid_size(rng, i // 2))))
        out[f"dual_grid/{kind}"] = h.hexdigest()
    return out


#: every group of entries, by the prefix of its names; `tests/test_golden.py`
#: checks each group as its own test
GROUPS = {"report": report_entries, "certificate": certificate_entries,
          "triangle": triangle_entries, "witness": witness_entries,
          "conjugation": conjugation_entries, "duality": duality_entries,
          "constrained": constrained_entries, "transport": transport_entries,
          "metric": metric_entries, "sub_up": sub_up_entries,
          "c_transform": c_transform_entries, "dual_grid": dual_grid_entries}


def compute() -> dict:
    return {name: d for entries in GROUPS.values() for name, d in entries().items()}


def changed(old: dict, new: dict) -> list[str]:
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main(argv) -> int:
    new = compute()
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    names = changed(old, new)
    for name in names:
        print(f"changed: {name}  {old.get(name)} -> {new.get(name)}")
    if "--write" in argv:
        DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(new)} digests to {DIGESTS}")
        return 0
    print(f"{len(new) - len(names)} of {len(new)} entries unchanged")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
