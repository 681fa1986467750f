"""The dense kernels reduced in row blocks of core.BLOCK_BYTES: the triangle
check, the partial conjugate, the envelope candidates and the conjugation
pair.  Each is compared bit for bit with its one-tensor form (the oracles in
conftest) on one, two and three worker threads, under one-row blocks, ragged
last blocks and the default budget, and each keeps its peak allocation within
a few budgets plus its O(n^2) inputs and outputs."""

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from abconvex import GridFn, biconjugate, build_metric_space, conjugate_transform
from abconvex import duality_report, intersection_certificate
from abconvex import core, lagrangian, minimax
from abconvex.errors import NonMetric, UndefinedSum
from conftest import (
    old_biconjugate,
    old_conjugate_transform,
    old_duality_fields,
    old_intersection_certificate,
    old_partial_conjugate_kernel,
    old_triangle_violated,
    random_dual_grid,
    random_perturbation,
    same_bits,
    same_certificate,
    spaced_line,
)


def budgets(row_bytes):
    """BLOCK_BYTES values giving one-row blocks, three-row blocks (a ragged
    last block whenever 3 does not divide the row count) and the default, at
    the current core.WORKERS."""
    w = core.WORKERS
    return {"one_row": w * row_bytes, "ragged": 3 * w * row_bytes,
            "default": core.BLOCK_BYTES}


def worker_counts(monkeypatch, counts=(1, 2, 3)):
    """Sets core.WORKERS to each count in turn.  Yields, for each, the list of
    the names of the threads that ran a block on the pool, for the test to
    check that the pool really ran."""
    pool = core._executor
    for n in counts:
        ran = []

        class Spy:
            def submit(self, fn, *args, ran=ran):
                def run(*a):
                    ran.append(threading.current_thread().name)
                    return fn(*a)
                return pool().submit(run, *args)

        monkeypatch.setattr(core, "WORKERS", n)
        monkeypatch.setattr(core, "_executor", Spy)
        yield ran


def check_pool_ran(ran, blocked=True):
    """Blocks ran on worker threads exactly when WORKERS > 1 and the call was
    split into blocks."""
    if core.WORKERS > 1 and blocked:
        assert ran and all(name.startswith("abconvex-rows") for name in ran)
    else:
        assert ran == []


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
        monkeypatch.setattr(core, "WORKERS", 1)
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

    ONE_ROW = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]

    @pytest.mark.parametrize("n_workers, budget, want, on_pool", [
        # a worker's share below one row: serial blocks of the whole budget
        (2, 1, ONE_ROW, False),
        (3, 23, [(0, 2), (2, 4), (4, 6), (6, 7)], False),
        # BLOCK_BYTES // (WORKERS * 8) rows per block on the pool
        (2, 16, ONE_ROW, True),
        (2, 47, [(0, 2), (2, 4), (4, 6), (6, 7)], True),
        (2, 48, [(0, 3), (3, 6), (6, 7)], True),
        (3, 24, ONE_ROW, True),
        (3, 48, [(0, 2), (2, 4), (4, 6), (6, 7)], True),
        (3, 55, [(0, 2), (2, 4), (4, 6), (6, 7)], True),
        # all seven rows fit one budget: one inline call
        (2, 56, None, False),
        (3, 56, None, False),
    ])
    def test_slices_on_the_pool(self, n_workers, budget, want, on_pool, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", n_workers)
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
        seen = []

        def fn(rows):
            seen.append((rows, threading.current_thread()))
            return np.arange(7)[rows]

        assert np.array_equal(core.by_row_blocks(fn, 7, 8), np.arange(7))
        if want is None:
            assert seen == [(slice(None), threading.main_thread())]
            return
        assert sorted(rows.indices(7)[:2] for rows, _ in seen) == want
        threads = {t for _, t in seen}
        if on_pool:
            assert threading.main_thread() not in threads
            assert len(threads) <= n_workers
        else:
            assert [rows.indices(7)[:2] for rows, _ in seen] == want
            assert threads == {threading.main_thread()}

    def test_one_budget_call_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "_pools", {})
        monkeypatch.setattr(core, "BLOCK_BYTES", 56)
        core.by_row_blocks(lambda rows: np.arange(7)[rows], 7, 8)
        assert core._pools == {}
        core.by_row_blocks(lambda rows: np.arange(8)[rows], 8, 8)
        assert list(core._pools) == [2]
        core._pools[2].shutdown()

    def test_callers_on_many_threads_share_one_pool(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 4)
        monkeypatch.setattr(core, "_pools", {})
        monkeypatch.setattr(core, "BLOCK_BYTES", 4 * 8)
        rows = np.arange(50.0)
        results, interval = [], sys.getswitchinterval()

        def caller():
            for _ in range(20):
                results.append(core.by_row_blocks(lambda r: rows[r] * 3.0, 50, 8))

        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 120 and all(same_bits(r, rows * 3.0) for r in results)
        assert list(core._pools) == [4]
        core._pools[4].shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        # the child inherits the pool object but none of its threads
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "BLOCK_BYTES", 16)
        rows = np.arange(6)
        assert np.array_equal(core.by_row_blocks(lambda r: rows[r], 6, 8), rows)
        assert 2 in core._pools
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(not np.array_equal(core.by_row_blocks(lambda r: rows[r], 6, 8), rows))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's blocked call did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_rows_come_back_in_order_however_blocks_finish(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 3)
        monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 8)
        finished = []

        def fn(rows):
            if rows.start == 0:
                time.sleep(0.2)
            finished.append(rows.start)
            return np.arange(9)[rows] * 2

        assert np.array_equal(core.by_row_blocks(fn, 9, 8), np.arange(9) * 2)
        assert sorted(finished) == list(range(9)) and finished[0] != 0

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_errors_from_the_last_block_keep_their_type(self, n_workers, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", n_workers)
        monkeypatch.setattr(core, "BLOCK_BYTES", n_workers * 8)
        a = np.zeros(9)
        a[8] = np.inf
        b = np.zeros(9)
        b[8] = np.inf
        with pytest.raises(UndefinedSum):
            core.by_row_blocks(lambda rows: core.sub_up(a[rows], b[rows]), 9, 8)

        def fn(rows):
            if rows.start == 8:
                raise NonMetric("triangle inequality violated")
            return np.zeros(1)

        with pytest.raises(NonMetric, match="triangle"):
            core.by_row_blocks(fn, 9, 8)

    def test_errstate_of_the_caller_holds_in_the_workers(self, monkeypatch):
        # a pool thread starts from numpy's default errstate, which warns
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "BLOCK_BYTES", 16)
        inf = np.full(6, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                got = core.by_row_blocks(lambda rows: inf[rows] - inf[rows], 6, 8)
        assert np.isnan(got).all() and got.shape == (6,)


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
        for ran in worker_counts(monkeypatch):
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
            check_pool_ran(ran, budget != "default")

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_nearly_symmetric_matrices(self, budget, monkeypatch):
        # asymmetry within METRIC_TOL is averaged away before the sweep
        n = self.N
        for ran in worker_counts(monkeypatch):
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(n * n * 8)[budget])
            rng = np.random.default_rng(615)
            outcomes = set()
            for _ in range(30):
                i, k = (int(x) for x in rng.choice(n, 2, replace=False))
                D = metric_with_violation(rng, n, i, k,
                                          float(rng.choice([-1e-3, 2e-12, 1e-3])))
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
            check_pool_ran(ran, budget != "default")

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_random_spaces(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
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
            check_pool_ran(ran, budget != "default")

    def test_peak_memory_is_budget_plus_quadratic(self, monkeypatch):
        n = 200
        rng = np.random.default_rng(620)
        D = metric_with_violation(rng, n, 0, 1, -1e-3)
        xs = np.arange(n, dtype=float)
        for ran in worker_counts(monkeypatch, (2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 20)
            assert n ** 3 * 8 > 50 * core.BLOCK_BYTES
            assert traced_peak(lambda: old_triangle_violated(D)) > 50 * core.BLOCK_BYTES
            peak = traced_peak(lambda: build_metric_space(xs, D))
            assert peak <= 2 * core.BLOCK_BYTES + 8 * D.nbytes
            # on four workers a share is below one row: serial budget blocks
            check_pool_ran(ran, core.WORKERS == 2)


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
        for ran in worker_counts(monkeypatch):
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
            check_pool_ran(ran, budget != "default")

    def test_holes_warn_nowhere_on_the_pool(self, monkeypatch):
        # a +inf member value against a +inf hole is inf - inf, silent only
        # under the kernel's errstate, which the workers must share
        rng = np.random.default_rng(635)
        E, p = random_table(rng, 40, 8, 6)
        E[:, 0] = np.inf
        assert np.isposinf(p[:, 0]).any()
        for ran in worker_counts(monkeypatch):
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(E.nbytes)["ragged"])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = lagrangian._partial_conjugate(E, p)
                again = lagrangian._partial_conjugate(E.T, got)
            assert same_bits(got, old_partial_conjugate_kernel(E, p))
            assert same_bits(again, old_partial_conjugate_kernel(E.T, got))
            check_pool_ran(ran)

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
        rng = np.random.default_rng(650)
        E, p = rng.normal(size=(100, 100)), rng.normal(size=(200, 100))
        tables = E.nbytes + p.nbytes + p.shape[0] * E.shape[0] * 8
        for ran in worker_counts(monkeypatch, (2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
            assert p.shape[0] * E.size * 8 > 50 * core.BLOCK_BYTES
            assert traced_peak(lambda: old_partial_conjugate_kernel(E, p)) \
                > 50 * core.BLOCK_BYTES
            peak = traced_peak(lambda: lagrangian._partial_conjugate(E, p))
            assert peak <= 2 * core.BLOCK_BYTES + 2 * tables
            check_pool_ran(ran, core.WORKERS == 2)  # as for the triangle check


class TestEnvelope:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_certificate(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
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
                # every candidate's g, the pruned ones included
                ts = minimax.envelope_candidates(v[0], v[1])
                assert same_bits(minimax._envelope(v[0], v[1], ts),
                                 (v[1][None, :] + ts[:, None] * (v[0] - v[1])[None, :])
                                 .min(axis=1))
                found += want is not None
            assert 0 < found < 120
            check_pool_ran(ran, budget != "default")

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
        n = 200
        rng = np.random.default_rng(670)
        v = rng.normal(size=(2, n))
        phi1, phi2 = GridFn(n, v[0]), GridFn(n, v[1])
        # the pruned certificate evaluates a few candidates: one block
        for _ in worker_counts(monkeypatch, (2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
            assert n * (n - 1) // 2 * n * 8 > 50 * core.BLOCK_BYTES
            assert traced_peak(lambda: old_intersection_certificate(phi1, phi2, -9.0)) \
                > 50 * core.BLOCK_BYTES
            peak = traced_peak(lambda: intersection_certificate(phi1, phi2, -9.0))
            assert peak <= 2 * core.BLOCK_BYTES + 8 * n * n * 8


def stub_dual(M):
    """The parts of a DualGrid the conjugation pair reads, for member values
    no family produces."""
    return SimpleNamespace(matrix=M, family=SimpleNamespace(domain=SimpleNamespace(n=M.shape[1])))


def random_conjugation(rng, P, n):
    """Members and a function drawn from few values, zeros of both signs
    among them, so that the sign of a zero maximum shows the order of the
    reduction; +inf holes in f, now and then f identically +inf, and members
    at +-the largest double (sub_up's clamped overflow)."""
    M = rng.choice([0.0, -0.0, -1.0, 0.5], size=(P, n), p=[0.35, 0.35, 0.2, 0.1])
    big = rng.random(M.shape) < 0.02
    M[big] = np.finfo(float).max * rng.choice([-1.0, 1.0], size=int(big.sum()))
    v = rng.choice([0.0, -0.0, 1.0, np.inf], size=n)
    if rng.random() < 0.1:
        v[:] = np.inf
    return M, GridFn(n, v)


class TestConjugation:
    SHAPES = [(1, 1), (1, 7), (7, 1), (5, 4), (3, 10), (10, 3), (9, 13), (33, 7), (40, 10)]

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_forms(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
            rng = np.random.default_rng(680)
            zero_signs = set()
            for P, n in self.SHAPES + [tuple(int(v) for v in rng.integers(1, 40, 2))
                                      for _ in range(60)]:
                M, f = random_conjugation(rng, P, n)
                dual = stub_dual(M)
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(10 * n * 8)[budget])
                assert same_bits(conjugate_transform(f, dual), old_conjugate_transform(f, dual))
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(10 * P * 8)[budget])
                got = biconjugate(f, dual).values
                assert same_bits(got, old_biconjugate(f, dual))
                zero_signs.update(np.signbit(got[got == 0.0]).tolist())
            assert zero_signs == {True, False}
            check_pool_ran(ran, budget != "default")

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_family_grids(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
            rng = np.random.default_rng(690)
            for _ in range(12):
                space = spaced_line(rng, int(rng.integers(2, 30)))
                dual = random_dual_grid(rng, space)
                f = GridFn(space, np.round(rng.normal(size=space.n), 1))
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(10 * dual.size * 8)[budget])
                assert same_bits(conjugate_transform(f, dual), old_conjugate_transform(f, dual))
                assert same_bits(biconjugate(f, dual).values, old_biconjugate(f, dual))
            check_pool_ran(ran, budget != "default")

    def test_undefined_sum_from_a_worker(self, monkeypatch):
        # +inf - +inf only in the last member row
        M = np.zeros((9, 4))
        M[8, 2] = np.inf
        f = GridFn(4, [0.0, 1.0, np.inf, 2.0])
        for ran in worker_counts(monkeypatch):
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets(10 * 4 * 8)["one_row"])
            with pytest.raises(UndefinedSum):
                conjugate_transform(f, stub_dual(M))
            check_pool_ran(ran)

    def test_peak_memory_is_budget_plus_members(self, monkeypatch):
        rng = np.random.default_rng(700)
        M = rng.normal(size=(400, 1000))
        f = GridFn(1000, rng.normal(size=1000))
        dual = stub_dual(M)
        for ran in worker_counts(monkeypatch, (2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
            for new, old in [(conjugate_transform, old_conjugate_transform),
                             (biconjugate, old_biconjugate)]:
                assert traced_peak(lambda: old(f, dual)) > 50 * core.BLOCK_BYTES
                peak = traced_peak(lambda: new(f, dual))
                assert peak <= 2 * core.BLOCK_BYTES + M.nbytes
            check_pool_ran(ran)
