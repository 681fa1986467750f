"""Intersection property and combination certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abconvex import (
    ElemFamily,
    ElemParams,
    GridFn,
    TCertificate,
    disjoint_sublevel,
    eval_on_domain,
    intersection_certificate,
    intersection_property_direct,
)
from abconvex import minimax
from abconvex.errors import EmptyDomain, ImproperInput
from abconvex.minimax import envelope_candidates

from conftest import line_space, old_intersection_certificate, same_certificate


def _pair(v1, v2):
    n = len(v1)
    return GridFn(n, np.asarray(v1, float)), GridFn(n, np.asarray(v2, float))


class TestDirectCheck:
    def setup_method(self):
        # phi1 = x, phi2 = -x on {-1, 0, 1}
        self.phi1, self.phi2 = _pair([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])

    def test_low_level_holds(self):
        assert intersection_property_direct(self.phi1, self.phi2, -0.5, 101)

    def test_midlevel_fails_at_half(self):
        assert not intersection_property_direct(self.phi1, self.phi2, 0.25, 101)

    def test_empty_sublevels(self):
        one = GridFn(3, np.ones(3))
        assert intersection_property_direct(one, one, 0.0, 11)

    def test_rejects_nonreal(self):
        f = GridFn(3, [1.0, np.inf, 0.0])
        with pytest.raises(ImproperInput):
            intersection_property_direct(f, f, 0.0, 11)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            intersection_property_direct(self.phi1, self.phi2, 0.0, 1)


class TestDisjointSublevel:
    def setup_method(self):
        self.phi1, self.phi2 = _pair([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])

    def test_disjoint(self):
        assert disjoint_sublevel(self.phi1, self.phi2, -0.5)

    def test_shared_point(self):
        assert not disjoint_sublevel(self.phi1, self.phi2, 0.5)

    def test_below_minima(self):
        assert disjoint_sublevel(self.phi1, self.phi2, -5.0)


class TestCertificate:
    def setup_method(self):
        self.phi1, self.phi2 = _pair([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])

    def test_symmetric_vee(self):
        # g(t) = -|2t - 1| in closed form; maximum 0 at t = 1/2
        cert = intersection_certificate(self.phi1, self.phi2, -0.5)
        assert cert is not None
        assert cert.t0 == 0.5 and cert.lower_envelope_value == 0.0

    def test_level_above_envelope(self):
        assert intersection_certificate(self.phi1, self.phi2, 0.25) is None

    def test_constant_functions(self):
        one = GridFn(3, np.ones(3))
        cert = intersection_certificate(one, one, 0.0)
        assert cert.t0 == 0.0 and cert.lower_envelope_value == 1.0

    def test_smallest_maximizer_reported(self):
        # flat envelope: every t is optimal, so t0 = 0 must be returned
        phi1, phi2 = _pair([2.0, 3.0], [2.0, 3.0])
        cert = intersection_certificate(phi1, phi2, 1.0)
        assert cert.t0 == 0.0

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            TCertificate(t0=1.5, level=0.0, lower_envelope_value=1.0)
        with pytest.raises(ValueError):
            TCertificate(t0=0.5, level=1.0, lower_envelope_value=0.0)
        with pytest.raises(ValueError, match="NaN"):
            TCertificate(t0=0.5, level=np.nan, lower_envelope_value=0.0)


class TestImproperInputs:
    def setup_method(self):
        # phi1 - phi2 = (2e308, -2e308) overflows to (+inf, -inf)
        self.phi1, self.phi2 = _pair([1e308, -1e308], [-1e308, 1e308])

    def test_overflowing_slopes_certificate(self):
        with pytest.raises(ImproperInput, match="overflows"):
            intersection_certificate(self.phi1, self.phi2, 0.0)

    def test_overflowing_slopes_direct(self):
        # at t = 1/2 both points lie strictly below 1e300: the answer is not True
        with pytest.raises(ImproperInput, match="overflows"):
            intersection_property_direct(self.phi1, self.phi2, 1e300, 11)

    def test_empty_grid(self):
        empty = GridFn(0, [])
        with pytest.raises(EmptyDomain):
            intersection_certificate(empty, empty, 0.0)

    def test_largest_finite_slopes_accepted(self):
        phi1, phi2 = _pair([1e308, -1e308], [0.0, 0.0])
        cert = intersection_certificate(phi1, phi2, -np.inf)
        assert same_certificate(cert, old_intersection_certificate(phi1, phi2, -np.inf))
        assert intersection_property_direct(phi1, phi2, -1e300, 11)

    @pytest.mark.parametrize("check", [
        lambda a, b: intersection_certificate(a, b, np.nan),
        lambda a, b: intersection_property_direct(a, b, np.nan, 11),
        lambda a, b: disjoint_sublevel(a, b, np.nan),
    ])
    def test_nan_level_rejected(self, check):
        phi1, phi2 = _pair([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="NaN"):
            check(phi1, phi2)


@st.composite
def line_pairs(draw):
    """(2, n) values, n <= 60: integer or one-decimal data (concurrent
    crossings, flat tops), near-tied slopes, or reals, with some lines
    repeated."""
    n = draw(st.integers(1, 40))
    style = draw(st.sampled_from(["integer", "one_decimal", "near_tied", "real"]))
    if style == "integer":
        v = draw(st.lists(st.integers(-4, 4), min_size=2 * n, max_size=2 * n))
        v = np.asarray(v, dtype=float).reshape(2, n)
    elif style == "one_decimal":
        v = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n, max_size=2 * n))
        v = np.round(np.asarray(v).reshape(2, n), 1)
    else:
        v2 = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        if style == "near_tied":
            k = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            sign = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
            s = np.asarray(sign) * (1.0 + np.asarray(k) * 2.0 ** -50)
        else:
            s = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        v = np.stack([v2 + s, v2])
    repeat = draw(st.lists(st.integers(0, n - 1), max_size=20))
    return np.concatenate([v, v[:, repeat]], axis=1)


class TestPrunedCertificateOracle:
    """The pruned search against evaluating every candidate (the enumerator
    in conftest), by raw bytes of t0, level and value, or both None."""

    @settings(max_examples=300, deadline=None)
    @given(line_pairs(), st.one_of(st.sampled_from([-np.inf, np.inf, "max"]),
                                   st.integers(-4, 4).map(float),
                                   st.floats(-1e3, 1e3)))
    def test_matches_enumerator(self, v, alpha):
        phi1, phi2 = _pair(v[0], v[1])
        if alpha == "max":
            # exactly the envelope maximum: the boundary of best >= alpha
            alpha = old_intersection_certificate(phi1, phi2, -np.inf).lower_envelope_value
        want = old_intersection_certificate(phi1, phi2, alpha)
        assert same_certificate(intersection_certificate(phi1, phi2, alpha), want)

    def test_few_rows_evaluated_at_n_400(self, monkeypatch):
        # the full combination rows are the cubic part: on random data only
        # a handful of candidates may reach them
        rows = []
        real = minimax._combination

        def spy(v1, v2, ts):
            rows.append(ts.shape[0])
            return real(v1, v2, ts)

        monkeypatch.setattr(minimax, "_combination", spy)
        rng = np.random.default_rng(27)
        for _ in range(5):
            v = rng.normal(size=(2, 400))
            rows.clear()
            cert = intersection_certificate(*_pair(v[0], v[1]), -np.inf)
            assert sum(rows) <= 40
            # every candidate evaluated, a thousand rows at a time
            ts = envelope_candidates(v[0], v[1])
            assert ts.size > 10_000
            env = np.concatenate([real(v[0], v[1], ts[i:i + 1000]).min(axis=1)
                                  for i in range(0, ts.size, 1000)])
            best = env.max()
            assert cert.lower_envelope_value == best
            assert cert.t0 == ts[np.flatnonzero(env == best)[0]]


class TestKeyLemmaRoundTrip:
    def test_forward_exact(self):
        # certificate exists => the direct check holds at every sampling rate
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            v1 = rng.normal(size=n) * 2
            v2 = rng.normal(size=n) * 2
            phi1, phi2 = _pair(v1, v2)
            cand = envelope_candidates(v1, v2)
            env = (v2[None, :] + cand[:, None] * (v1 - v2)[None, :]).min(axis=1)
            alpha = float(env.max() - abs(rng.normal()) * 0.5 - 1e-6)
            cert = intersection_certificate(phi1, phi2, alpha)
            if cert is None:
                continue
            found += 1
            for samples in (2, 7, 101):
                assert intersection_property_direct(phi1, phi2, alpha, samples)
        assert found > 100

    def test_dense_converse(self):
        # direct check true on a dense grid => certificate exists, whenever the
        # envelope maximum clears the level by more than 1e-9
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            v1 = rng.normal(size=n)
            v2 = rng.normal(size=n)
            phi1, phi2 = _pair(v1, v2)
            alpha = float(rng.normal())
            cert = intersection_certificate(phi1, phi2, alpha)
            cand = envelope_candidates(v1, v2)
            env = (v2[None, :] + cand[:, None] * (v1 - v2)[None, :]).min(axis=1)
            if abs(env.max() - alpha) <= 1e-9:
                continue
            direct = intersection_property_direct(phi1, phi2, alpha, 10_000)
            assert direct == (cert is not None)


class TestSimplifiedFormEquivalence:
    @staticmethod
    def _sublevel_intervals(kind, a, l, c, alpha):
        """Open intervals of the real line where the member lies below alpha."""
        if kind == "affine" or a == 0.0:
            if l > 0:
                return [(-np.inf, (alpha - c) / l)]
            if l < 0:
                return [((alpha - c) / l, np.inf)]
            return [(-np.inf, np.inf)] if c < alpha else []
        if kind == "quad_minus":
            # -a x^2 + l x + c < alpha outside the root interval
            disc = l * l - 4 * a * (alpha - c)
            if disc < 0:
                return [(-np.inf, np.inf)]
            r1 = (l - np.sqrt(disc)) / (2 * a)
            r2 = (l + np.sqrt(disc)) / (2 * a)
            return [(-np.inf, r1), (r2, np.inf)]
        # quad_plus: a x^2 + l x + c < alpha between the roots
        disc = l * l - 4 * a * (c - alpha)
        if disc <= 0:
            return []
        r1 = (-l - np.sqrt(disc)) / (2 * a)
        r2 = (-l + np.sqrt(disc)) / (2 * a)
        return [(r1, r2)]

    def test_convex_type_families_agree(self):
        # affine / quadratic members: certificate <=> disjoint sublevels.
        # The equivalence concerns the members as functions of a real variable,
        # so an exact interval oracle on the whole line decides each instance;
        # grids that miss the sublevel overlap (a pure discretization artifact)
        # are skipped, as are margin-thin boundary cases.
        rng = np.random.default_rng(23)
        space = line_space(np.linspace(-2, 2, 41))
        pts = space.points[:, 0]
        margin = 1e-6
        checked_pos = checked_neg = 0
        for _ in range(600):
            kind = str(rng.choice(["affine", "quad_minus", "quad_plus"]))
            a1, a2 = rng.uniform(0, 1.5, size=2)
            l1, l2 = rng.uniform(-2, 2, size=2)
            c1, c2 = rng.normal(size=2)
            if kind == "affine":
                a1 = a2 = 0.0
                p1, p2 = ElemParams(ell=[l1], c=c1), ElemParams(ell=[l2], c=c2)
                fam = ElemFamily.affine(space)
            elif kind == "quad_minus":
                p1 = ElemParams(a=a1, ell=[l1], c=c1)
                p2 = ElemParams(a=a2, ell=[l2], c=c2)
                fam = ElemFamily.quad_minus(space)
            else:
                p1 = ElemParams(a=a1, ell=[l1], c=c1)
                p2 = ElemParams(a=a2, ell=[l2], c=c2)
                fam = ElemFamily.quad_plus(space)
            alpha = float(rng.normal())

            iv1 = self._sublevel_intervals(kind, a1, l1, c1, alpha)
            iv2 = self._sublevel_intervals(kind, a2, l2, c2, alpha)
            overlap = [(max(lo1, lo2), min(hi1, hi2))
                       for lo1, hi1 in iv1 for lo2, hi2 in iv2
                       if max(lo1, lo2) < min(hi1, hi2)]

            phi1 = GridFn(space, eval_on_domain(fam, p1))
            phi2 = GridFn(space, eval_on_domain(fam, p2))
            cert = intersection_certificate(phi1, phi2, alpha)
            disjoint = disjoint_sublevel(phi1, phi2, alpha)

            if not overlap:
                # line-disjoint with clearance: certificate and grid
                # disjointness must both hold
                if any(hi - lo > -margin for (lo, hi) in
                       ((max(x1, x2), min(y1, y2))
                        for x1, y1 in iv1 for x2, y2 in iv2)):
                    continue
                checked_pos += 1
                assert disjoint
                assert cert is not None
            else:
                # overlap resolved by some grid point with clearance: both fail
                inside = [p for lo, hi in overlap for p in pts
                          if lo + margin < p < hi - margin]
                if not inside:
                    continue
                checked_neg += 1
                assert not disjoint
                assert cert is None
        assert checked_pos > 50 and checked_neg > 50

    def test_metric_family_counterexample(self):
        # two opposed cones on a two-point space: sublevels disjoint yet no
        # convex combination dominates the level
        space = line_space([0.0, 1.0])
        fam = ElemFamily.metric(space)
        phi1 = GridFn(space, eval_on_domain(fam, ElemParams(a=4.0, anchor=0, c=1.0)))
        phi2 = GridFn(space, eval_on_domain(fam, ElemParams(a=4.0, anchor=1, c=1.0)))
        assert np.array_equal(phi1.values, [1.0, -3.0])
        assert np.array_equal(phi2.values, [-3.0, 1.0])
        assert disjoint_sublevel(phi1, phi2, 0.0)
        assert intersection_certificate(phi1, phi2, 0.0) is None
        assert not intersection_property_direct(phi1, phi2, 0.0, 101)

    def test_certificate_always_implies_disjoint(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            phi1, phi2 = _pair(rng.normal(size=n), rng.normal(size=n))
            alpha = float(rng.normal())
            cert = intersection_certificate(phi1, phi2, alpha)
            if cert is not None:
                assert disjoint_sublevel(phi1, phi2, alpha)


class TestEnvelopeExactness:
    def test_maximizer_dominates_dense_grid(self):
        rng = np.random.default_rng(25)
        ts = np.linspace(0.0, 1.0, 100_000)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            v1 = rng.normal(size=n) * 3
            v2 = rng.normal(size=n) * 3
            phi1, phi2 = _pair(v1, v2)
            cert = intersection_certificate(phi1, phi2, -1e9)
            dense = (v2[None, :] + ts[:, None] * (v1 - v2)[None, :]).min(axis=1)
            assert cert.lower_envelope_value >= dense.max()
