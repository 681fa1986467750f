"""Golden digests: SHA-256 of outputs that must not change by a single bit.

Entries cover the reports of the shipped scenarios, `intersection_certificate`
on a fixed seeded corpus (integer, one-decimal, flat-top, near-tied-slope and
scaled inputs, levels of +-inf included) and the triangle verdicts of
`build_metric_space(validate="full")` on spaces with planted violations.
`tests/test_golden.py` recomputes every entry and compares it with
`digests.json`.  Run this script to see which entries changed:

    PYTHONPATH=src python3 tests/golden/regen.py            # report, exit 1 on change
    PYTHONPATH=src python3 tests/golden/regen.py --write    # rewrite digests.json

A digest is rewritten only in a change that says which outputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from abconvex import GridFn, build_metric_space, intersection_certificate  # noqa: E402
from abconvex.cli import run_scenario  # noqa: E402
from abconvex.core import BLOCK_BYTES  # noqa: E402
from abconvex.errors import NonMetric  # noqa: E402


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


def _verdict(points, metric) -> bytes:
    try:
        space = build_metric_space(points, metric)
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
    return out


def compute() -> dict:
    return {**report_entries(), **certificate_entries(), **triangle_entries()}


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
