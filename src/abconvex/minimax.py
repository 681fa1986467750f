"""Intersection-property checks, exact combination certificates, saddle values.

Two real-valued grid functions have the intersection property at a level
exactly when some convex combination of them dominates the level everywhere;
the certificate search exploits that the combination's lower envelope is a
concave piecewise-linear function of the mixing weight, so its maximum is
attained at an endpoint or a pairwise line crossing.  Those candidates are
enumerated exactly; a convex-hull pass over the lines bounds the envelope at
every candidate from above, and only the candidates whose bound reaches the
envelope value of the most promising one are evaluated in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExtReal, GridFn, by_row_blocks
from .errors import EmptyDomain, ImproperInput


@dataclass(frozen=True)
class SaddleTable:
    """Extended-real payoff samples a(x, z) on finite X (rows) and Z (columns)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("SaddleTable needs a nonempty 2-D table")
        if np.isnan(vals).any():
            raise ValueError("SaddleTable cannot contain NaN")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class TCertificate:
    """A mixing weight t0 whose combination dominates the level everywhere."""

    t0: float
    level: float
    lower_envelope_value: float

    def __post_init__(self):
        if not 0.0 <= self.t0 <= 1.0:
            raise ValueError("t0 must lie in [0, 1]")
        if math.isnan(self.level):
            raise ValueError("level cannot be NaN")
        if self.lower_envelope_value < self.level:
            raise ValueError("certificate value must dominate its level")


def _real_pair(phi1: GridFn, phi2: GridFn) -> tuple[np.ndarray, np.ndarray]:
    if phi1.size != phi2.size:
        raise ValueError("functions must share a grid")
    if not (phi1.is_real_valued and phi2.is_real_valued):
        raise ImproperInput("intersection-property checks need real-valued functions")
    return phi1.values, phi2.values


def _slopes(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """phi1 - phi2, the slope in t of each combination line; an overflow would
    turn the combinations at t = 0 into NaN."""
    with np.errstate(over="ignore"):
        s = v1 - v2
    if not np.isfinite(s).all():
        raise ImproperInput("phi1 - phi2 overflows, so the combinations are undefined")
    return s


def _check_level(alpha: float) -> None:
    if math.isnan(alpha):
        raise ValueError("the level alpha cannot be NaN")


def _combination(v1: np.ndarray, v2: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(len(ts), n) matrix of t*phi1 + (1-t)*phi2 rows."""
    return v2[None, :] + ts[:, None] * (v1 - v2)[None, :]


def intersection_property_direct(
    phi1: GridFn, phi2: GridFn, alpha: float, t_samples: int
) -> bool:
    """Check the defining two-sublevel condition on a uniform t-grid
    (endpoints included): at each sampled t, the combination's strict sublevel
    set must miss at least one of the two functions' strict sublevel sets.

    Equal functions are accepted: the condition is well-defined for them even
    though the interesting cases need distinct inputs.  Raises ImproperInput
    when phi1 - phi2 overflows and ValueError for a NaN level.
    """
    if t_samples < 2:
        raise ValueError("t_samples must be at least 2")
    v1, v2 = _real_pair(phi1, phi2)
    _slopes(v1, v2)
    _check_level(alpha)
    ts = np.linspace(0.0, 1.0, int(t_samples))
    comb_low = _combination(v1, v2, ts) < alpha
    low1 = v1 < alpha
    low2 = v2 < alpha
    hit1 = (comb_low & low1[None, :]).any(axis=1)
    hit2 = (comb_low & low2[None, :]).any(axis=1)
    return bool(~(hit1 & hit2).any())


def disjoint_sublevel(phi1: GridFn, phi2: GridFn, alpha: float) -> bool:
    """The simplified one-line form: no grid point lies strictly below alpha
    under both functions.  Equivalent to the full condition for convex-type
    families, not for anchored cones."""
    v1, v2 = _real_pair(phi1, phi2)
    _check_level(alpha)
    return bool(~((v1 < alpha) & (v2 < alpha)).any())


def envelope_candidates(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Endpoints plus all pairwise crossing abscissae of the lines
    t -> t*phi1(x) + (1-t)*phi2(x) inside [0, 1], sorted ascending."""
    i, j = np.triu_indices(v1.shape[0], k=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes = v1 - v2
        ts = (v2[j] - v2[i]) / (slopes[i] - slopes[j])
    ts = ts[np.isfinite(ts)]
    ts = ts[(ts > 0.0) & (ts < 1.0)]
    return np.unique(np.concatenate([[0.0, 1.0], ts]))


def _hull_lines(v2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex-hull trick: the lines t -> v2[x] + t*s[x] of the lower envelope
    from left to right (slopes decreasing), and the abscissae where each hands
    over to the next.  Computed in floats, so rounding may misplace near-tied
    lines; any line still bounds the envelope from above."""
    b, m = v2.tolist(), s.tolist()
    lines, cuts = [], []
    for i in np.lexsort((v2, -s)).tolist():
        if lines and m[lines[-1]] == m[i]:
            continue  # a parallel line with an intercept no lower
        while lines:
            j = lines[-1]
            x = (b[i] - b[j]) / (m[j] - m[i])
            if cuts and x <= cuts[-1]:
                lines.pop()
                cuts.pop()
            else:
                cuts.append(x)
                break
        lines.append(i)
    return np.asarray(lines), np.asarray(cuts)


def _envelope(v1: np.ndarray, v2: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """min_x (t*phi1 + (1-t)*phi2) at each t, in row blocks."""
    return by_row_blocks(lambda rows: _combination(v1, v2, ts[rows]).min(axis=1),
                         ts.shape[0], v1.nbytes)


def intersection_certificate(phi1: GridFn, phi2: GridFn, alpha: float):
    """Exact maximizer of g(t) = min_x combination; returns the smallest
    maximizing t as a TCertificate when max g >= alpha, else None.

    The maximum lies among envelope_candidates (O(n^2) of them).  At each
    candidate t, upper(t) = v2[h] + t*s[h] for its hull line h is one entry of
    the combination row, so upper(t) >= g(t) bit for bit whatever rounding did
    to the hull.  With lo = g at the candidate of largest upper, every
    candidate attaining max g has upper >= lo; only those are evaluated, and
    the others are set to -inf, strictly below max g.  env.max() then meets
    the same maximal entries at the same positions, so the maximum (its sign of
    zero included) and the smallest maximizing t are those of evaluating every
    candidate, in O(n^2 log n) time plus O(n) per surviving candidate.  Raises
    EmptyDomain on an empty grid, ImproperInput when phi1 - phi2 overflows and
    ValueError for a NaN level.
    """
    v1, v2 = _real_pair(phi1, phi2)
    if v1.size == 0:
        raise EmptyDomain("a certificate needs at least one grid point")
    s = _slopes(v1, v2)
    _check_level(alpha)
    ts = envelope_candidates(v1, v2)
    lines, cuts = _hull_lines(v2, s)
    h = lines[np.searchsorted(cuts, ts)]
    upper = v2[h] + ts * s[h]
    lo = _envelope(v1, v2, ts[[np.argmax(upper)]])[0]
    keep = np.flatnonzero(upper >= lo)
    env = np.full(ts.shape, -np.inf)
    env[keep] = _envelope(v1, v2, ts[keep])
    best = env.max()
    if best < alpha:
        return None
    t0 = float(ts[np.flatnonzero(env == best)[0]])
    return TCertificate(t0=t0, level=float(alpha), lower_envelope_value=float(best))


def saddle_values(table: SaddleTable) -> tuple[ExtReal, ExtReal]:
    """(inf-sup, sup-inf) of the table; the weak inequality
    sup-inf <= inf-sup always holds, and no equality is claimed here."""
    vals = table.values
    infsup = float(vals.max(axis=1).min())
    supinf = float(vals.min(axis=0).max())
    return ExtReal(infsup), ExtReal(supinf)
