"""Metamorphic relations of build_metric_space on Euclidean points, which need
no oracle: scaling the points by 2**k keeps the verdict and scales every
distance by 2**k bit for bit, and permuting the points permutes the rows and
columns of dist bit for bit.

The point sets are those of conftest.scaled_point_sets (2 to 12 points in 1
to 9 dimensions, their largest distance up to 1000 times rounding_scale(dim),
and about 1e-165), sets of 200, 300 and 400 uniform points in the plane, the
shape of the large-grids workload's metric builds, and the 8 near-collinear
points of test_cli's _collinear(1e5), about 1 apart.  While Euclidean builds
above a rounding bound still ran the triangle sweep, the scaling relation
failed: those 8 points were accepted as given and at 2**10, and rejected at
2**17 and 2**20 with "triangle inequality violated".
"""

import math

import numpy as np

from abconvex import build_metric_space
from abconvex.errors import NonMetric
from conftest import same_bits, scaled_point_sets


def collinear():
    """The 8 near-collinear points in the plane of test_cli's _collinear(1e5),
    formed as it forms them."""
    return np.array([[(1e5 + 1e5 * 0.6 * k / 7) / 1e5, (1e5 + 1e5 * 0.8 * k / 7) / 1e5]
                     for k in range(8)])


def point_sets(rng):
    for _ in range(4):
        for dim in range(1, 10):
            for _, pts in scaled_point_sets(rng, dim):
                yield pts
    for n in (200, 300, 400):
        yield rng.uniform(-1.0, 1.0, (n, 2))
    yield collinear()


def outcome(pts):
    """dist, or the reason the points were rejected."""
    try:
        return build_metric_space(pts).dist
    except NonMetric as e:
        return e.reason


def exact_exponents(pts) -> range:
    """The k for which pts and pts * 2**k both form every coordinate, every
    nonzero coordinate difference and its square as a normal double, and
    overflow no sum of squares: on them, rounding commutes with the scaling.
    Empty when pts itself does not (squares that underflow)."""
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    coords, diffs = np.abs(pts[pts != 0]), diff[diff > 0]
    if not diffs.size:
        return range(0)
    # 2**(e - 1) <= x < 2**e for x with exponent e
    lo = max(-510 - math.frexp(diffs.min())[1],
             -1021 - math.frexp(coords.min())[1] if coords.size else -1021)
    hi = min((1023 - math.ceil(math.log2(pts.shape[1]))) // 2 - math.frexp(diffs.max())[1],
             1023 - math.frexp(coords.max())[1] if coords.size else 1023)
    return range(lo, hi + 1) if lo <= 0 <= hi else range(0)


class TestScaling:
    def test_power_of_two_scaling_keeps_verdict_and_bits(self):
        rng = np.random.default_rng(660)
        checked = 0
        for pts in point_sets(rng):
            ks = exact_exponents(pts)
            if not ks:
                continue
            want = outcome(pts)
            for k in {ks[0], ks[-1], int(rng.integers(ks[0], ks[-1] + 1)),
                      *(k for k in (-17, 10, 17, 20) if k in ks)}:
                got = outcome(np.ldexp(pts, k))
                if isinstance(want, str):
                    assert got == want, k
                else:
                    assert not isinstance(got, str), (got, k)
                    assert same_bits(got, np.ldexp(want, k)), k
                checked += 1
        assert checked >= 1000


class TestPermutation:
    def test_permuting_points_permutes_dist(self):
        rng = np.random.default_rng(670)
        checked = 0
        for pts in point_sets(rng):
            want = outcome(pts)
            perm = rng.permutation(len(pts))
            got = outcome(pts[perm])
            if isinstance(want, str):
                assert got == want
            else:
                assert not isinstance(got, str), got
                assert same_bits(got, want[np.ix_(perm, perm)])
            checked += 1
        assert checked >= 300
