"""Intersection-property checks, exact combination certificates, saddle values.

Two real-valued grid functions have the intersection property at a level
exactly when some convex combination of them dominates the level everywhere;
the certificate search exploits that the combination's lower envelope is a
concave piecewise-linear function of the mixing weight, so its maximum is
attained at an endpoint or a pairwise line crossing and can be enumerated
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExtReal, GridFn, by_row_blocks
from .errors import ImproperInput


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
        if self.lower_envelope_value < self.level:
            raise ValueError("certificate value must dominate its level")


def _real_pair(phi1: GridFn, phi2: GridFn) -> tuple[np.ndarray, np.ndarray]:
    if phi1.size != phi2.size:
        raise ValueError("functions must share a grid")
    if not (phi1.is_real_valued and phi2.is_real_valued):
        raise ImproperInput("intersection-property checks need real-valued functions")
    return phi1.values, phi2.values


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
    though the interesting cases need distinct inputs.
    """
    if t_samples < 2:
        raise ValueError("t_samples must be at least 2")
    v1, v2 = _real_pair(phi1, phi2)
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
    return bool(~((v1 < alpha) & (v2 < alpha)).any())


def envelope_candidates(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Endpoints plus all pairwise crossing abscissae of the lines
    t -> t*phi1(x) + (1-t)*phi2(x) inside [0, 1], sorted ascending."""
    slopes = v1 - v2
    i, j = np.triu_indices(v1.shape[0], k=1)
    ds = slopes[i] - slopes[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = (v2[j] - v2[i]) / ds
    ts = ts[np.isfinite(ts)]
    ts = ts[(ts > 0.0) & (ts < 1.0)]
    return np.unique(np.concatenate([[0.0, 1.0], ts]))


def intersection_certificate(phi1: GridFn, phi2: GridFn, alpha: float):
    """Exact maximizer of g(t) = min_x combination; returns the smallest
    maximizing t as a TCertificate when max g >= alpha, else None."""
    v1, v2 = _real_pair(phi1, phi2)
    ts = envelope_candidates(v1, v2)
    env = by_row_blocks(lambda rows: _combination(v1, v2, ts[rows]).min(axis=1),
                        ts.shape[0], v1.nbytes)
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
