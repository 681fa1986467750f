"""The dense kernels reduced in row blocks of core.BLOCK_BYTES: the triangle
check, the partial conjugate and the envelope candidates.  Each is compared
bit for bit with its one-tensor form (the oracles in conftest) under forced
one-row blocks, ragged last blocks and the default budget, and each keeps its
peak allocation within a few budgets plus its O(n^2) inputs and outputs."""

import tracemalloc

import numpy as np
import pytest

from abconvex import GridFn, build_metric_space, duality_report, intersection_certificate
from abconvex import core, lagrangian
from abconvex.errors import NonMetric
from conftest import (
    old_duality_fields,
    old_intersection_certificate,
    old_partial_conjugate_kernel,
    old_triangle_violated,
    random_perturbation,
    same_bits,
    same_certificate,
)


def budgets(row_bytes):
    """BLOCK_BYTES values giving one-row blocks, three-row blocks (a ragged
    last block whenever 3 does not divide the row count) and the default."""
    return {"one_row": 1, "ragged": 3 * row_bytes, "default": core.BLOCK_BYTES}


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestByRowBlocks:
    def test_single_block_is_one_call_returned_as_is(self):
        calls = []
        out = np.arange(6.0)

        def fn(rows):
            calls.append(rows)
            return out

        assert core.by_row_blocks(fn, 6, 8) is out
        assert calls == [slice(None)]

    @pytest.mark.parametrize("budget, want", [
        (1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
        (23, [(0, 2), (2, 4), (4, 6), (6, 7)]),
        (24, [(0, 3), (3, 6), (6, 7)]),
        (56, None),
    ])
    def test_slices_cover_rows_in_order(self, budget, want, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
        seen = []

        def fn(rows):
            seen.append(rows)
            return np.arange(7)[rows]

        assert np.array_equal(core.by_row_blocks(fn, 7, 8), np.arange(7))
        if want is None:
            assert seen == [slice(None)]
        else:
            assert [s.indices(7)[:2] for s in seen] == want


def metric_with_violation(rng, n, i, k, delta):
    """Euclidean distances with d(i, k) raised to delta above its shortest
    detour: only rows i and k can break the triangle inequality."""
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    others = [j for j in range(n) if j not in (i, k)]
    D[i, k] = D[k, i] = float((D[i, others] + D[others, k]).min()) + delta
    return D


def violating_rows(D):
    via = D[:, :, None] + D[None, :, :]
    return np.flatnonzero((via.min(axis=1) < D - core.METRIC_TOL).any(axis=1))


class TestTriangleCheck:
    """A block starting at row k0 checks columns k >= k0 only, so "edge"
    plants the violation at k == k0 (rows 3 and 4 share the block 3-5), and
    "across" pairs a block's first row with an earlier block's row."""

    N = 11  # three-row blocks 0-2, 3-5, 6-8, 9-10

    @pytest.mark.parametrize("where", ["first", "last", "both", "edge", "across", "none"])
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_verdict_matches_one_tensor_sweep(self, where, budget, monkeypatch):
        n = self.N
        pair = {"first": (0, 1), "last": (n - 2, n - 1), "both": (0, n - 1),
                "edge": (3, 4), "across": (1, 6), "none": (4, 5)}[where]
        monkeypatch.setattr(core, "BLOCK_BYTES", budgets(n * n * 8)[budget])
        rng = np.random.default_rng(600 + len(where))
        outcomes = set()
        for delta in (-1e-3, 0.0, 5e-13, 1e-12, 2e-12, 1e-9, 1e-3):
            D = metric_with_violation(rng, n, *pair, 0.0 if where == "none" else delta)
            want = old_triangle_violated(D)
            assert set(violating_rows(D)) <= set(pair)
            if want:
                with pytest.raises(NonMetric, match="triangle"):
                    build_metric_space(np.arange(n, dtype=float), D)
            else:
                space = build_metric_space(np.arange(n, dtype=float), D)
                assert same_bits(space.dist, D)
            outcomes.add(want)
        assert outcomes == ({False} if where == "none" else {True, False})

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_nearly_symmetric_matrices(self, budget, monkeypatch):
        # asymmetry within METRIC_TOL is averaged away before the sweep
        n = self.N
        monkeypatch.setattr(core, "BLOCK_BYTES", budgets(n * n * 8)[budget])
        rng = np.random.default_rng(615)
        outcomes = set()
        for _ in range(30):
            i, k = (int(x) for x in rng.choice(n, 2, replace=False))
            D = metric_with_violation(rng, n, i, k, float(rng.choice([-1e-3, 2e-12, 1e-3])))
            noise = rng.uniform(-1e-13, 1e-13, D.shape)
            np.fill_diagonal(noise, 0.0)
            D = D + noise
            sym = 0.5 * (D + D.T)
            want = old_triangle_violated(sym)
            try:
                space = build_metric_space(np.arange(n, dtype=float), D)
                assert same_bits(space.dist, sym)
                got = False
            except NonMetric as e:
                assert e.reason == "triangle inequality violated"
                got = True
            assert got == want
            outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_random_spaces(self, budget, monkeypatch):
        rng = np.random.default_rng(610)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(3, 25))
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(n * n * 8)[budget])
            D = metric_with_violation(rng, n, *rng.choice(n, 2, replace=False),
                                      float(rng.uniform(-1e-3, 1e-3)))
            try:
                build_metric_space(np.arange(n, dtype=float), D)
                got = False
            except NonMetric:
                got = True
            assert got == old_triangle_violated(D)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_peak_memory_is_budget_plus_quadratic(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 20)
        n = 200
        assert n ** 3 * 8 > 50 * core.BLOCK_BYTES
        rng = np.random.default_rng(620)
        D = metric_with_violation(rng, n, 0, 1, -1e-3)
        xs = np.arange(n, dtype=float)
        assert traced_peak(lambda: old_triangle_violated(D)) > 50 * core.BLOCK_BYTES
        peak = traced_peak(lambda: build_metric_space(xs, D))
        assert peak <= 2 * core.BLOCK_BYTES + 8 * D.nbytes


def random_table(rng, n_x, P, n_y):
    """Members with signed zeros; p with +inf holes, zeros and one empty row."""
    E = rng.normal(size=(P, n_y))
    E[rng.random(E.shape) < 0.05] = -0.0
    p = rng.normal(size=(n_x, n_y))
    p[rng.random(p.shape) < 0.3] = np.inf
    p[rng.random(p.shape) < 0.05] = 0.0
    if n_x > 1:
        p[int(rng.integers(n_x))] = np.inf
    return E, p


class TestPartialConjugate:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_kernel(self, budget, monkeypatch):
        rng = np.random.default_rng(630)
        for n_x, P, n_y in [(1, 1, 1), (1, 5, 3), (7, 1, 4), (10, 6, 5), (12, 9, 1)] + [
                tuple(int(v) for v in rng.integers(1, 30, 3)) for _ in range(40)]:
            E, p = random_table(rng, n_x, P, n_y)
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(E.nbytes)[budget])
            got = lagrangian._partial_conjugate(E, p)
            want = old_partial_conjugate_kernel(E, p)
            assert same_bits(got, want)
            if n_x > 1:
                assert np.isneginf(got).all(axis=1).any()
            # the transposed call of the grid biconjugate
            assert same_bits(lagrangian._partial_conjugate(E.T, got),
                             old_partial_conjugate_kernel(E.T, got))

    def test_duality_report_in_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 1)
        rng = np.random.default_rng(640)
        for k in range(30):
            prob, grid = random_perturbation(rng, max_x=20, max_y=20)
            scope = "full" if k % 2 else "anchor"
            rep = duality_report(prob, grid, convexity_scope=scope)
            want = old_duality_fields(prob, grid, scope)
            assert same_bits(rep.table.S, want["S"])
            assert same_bits(rep.table.L, want["L"])
            assert same_bits(rep.V_star, want["V_star"])
            for name in ("primal", "dual", "gap", "V_bidual_at_y0"):
                assert same_bits(getattr(rep, name).as_float(), float(want[name]))
            assert rep.convexity_holds == want["convexity_holds"]

    def test_peak_memory_is_budget_plus_tables(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
        rng = np.random.default_rng(650)
        E, p = rng.normal(size=(100, 100)), rng.normal(size=(200, 100))
        tables = E.nbytes + p.nbytes + p.shape[0] * E.shape[0] * 8
        assert p.shape[0] * E.size * 8 > 50 * core.BLOCK_BYTES
        assert traced_peak(lambda: old_partial_conjugate_kernel(E, p)) \
            > 50 * core.BLOCK_BYTES
        peak = traced_peak(lambda: lagrangian._partial_conjugate(E, p))
        assert peak <= 2 * core.BLOCK_BYTES + 2 * tables


class TestEnvelope:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_certificate(self, budget, monkeypatch):
        rng = np.random.default_rng(660)
        found = 0
        for _ in range(120):
            n = int(rng.integers(1, 40))
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(n * 8)[budget])
            v = np.round(rng.normal(size=(2, n)), int(rng.integers(0, 3)))
            phi1, phi2 = GridFn(n, v[0]), GridFn(n, v[1])
            alpha = float(rng.uniform(-3.0, 1.0))
            want = old_intersection_certificate(phi1, phi2, alpha)
            assert same_certificate(intersection_certificate(phi1, phi2, alpha), want)
            found += want is not None
        assert 0 < found < 120

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    @pytest.mark.parametrize("v1, v2, t0", [
        # g(t) = min(1, 3t, 3 - 3t) is flat on [1/3, 2/3]: smallest t wins
        ([1.0, 3.0, 0.0], [1.0, 0.0, 3.0], 1.0 / 3.0),
        # equal functions: every candidate ties, t = 0 wins
        ([0.5, -1.0, 2.0], [0.5, -1.0, 2.0], 0.0),
        # g(t) = min(1, 2) is constant: both endpoints tie
        ([1.0, 2.0], [1.0, 2.0], 0.0),
    ])
    def test_ties_take_the_smallest_t(self, v1, v2, t0, budget, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", budgets(len(v1) * 8)[budget])
        phi1, phi2 = GridFn(len(v1), v1), GridFn(len(v2), v2)
        got = intersection_certificate(phi1, phi2, -10.0)
        assert same_certificate(got, old_intersection_certificate(phi1, phi2, -10.0))
        assert got.t0 == pytest.approx(t0, abs=1e-15)

    def test_peak_memory_is_budget_plus_quadratic(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
        n = 200
        rng = np.random.default_rng(670)
        v = rng.normal(size=(2, n))
        phi1, phi2 = GridFn(n, v[0]), GridFn(n, v[1])
        assert n * (n - 1) // 2 * n * 8 > 50 * core.BLOCK_BYTES
        assert traced_peak(lambda: old_intersection_certificate(phi1, phi2, -9.0)) \
            > 50 * core.BLOCK_BYTES
        peak = traced_peak(lambda: intersection_certificate(phi1, phi2, -9.0))
        assert peak <= 2 * core.BLOCK_BYTES + 8 * n * n * 8
