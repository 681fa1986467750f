"""The dense kernels reduced in row blocks of core.BLOCK_BYTES: the triangle
check, the partial conjugate, the envelope candidates, the conjugation pair,
the Euclidean distances and the slope bound.  Each is compared bit for bit
with its one-tensor form (the oracles in conftest) on one, two and three
worker threads, under one-row blocks, ragged last blocks and the default
budget, and each keeps its peak allocation within a few budgets plus its
O(n^2) inputs and outputs."""

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

from abconvex import ElemFamily, GridFn, biconjugate, build_metric_space, conjugate_transform
from abconvex import default_dual_grid, duality_report, intersection_certificate
from abconvex import c_transform, core, families, lagrangian, minimax
from abconvex.errors import ImproperInput, NonMetric, UndefinedSum
from abconvex.families import slope_bound
from conftest import (
    LAGRANGIAN_OVERFLOWS,
    lagrangian_overflow,
    loop_reduce,
    old_biconjugate,
    old_conjugate_transform,
    old_duality_fields,
    old_euclidean_dist,
    old_intersection_certificate,
    old_max_sub_up,
    old_partial_conjugate_kernel,
    old_slope_bound,
    old_triangle_violated,
    random_dual_grid,
    random_perturbation,
    same_bits,
    same_certificate,
    scaled_point_sets,
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
    """Sets core.WORKERS to each count in turn and starts its pool, so that a
    traced call does not count the pool's first import.  Yields, for each,
    the list of the names of the threads that ran a block on the pool, for
    the test to check that the pool really ran."""
    pool = core._executor
    for n in counts:
        ran = []
        monkeypatch.setattr(core, "WORKERS", n)
        if n > 1:
            pool()

        class Spy:
            def submit(self, fn, *args, ran=ran):
                def run(*a):
                    ran.append(threading.current_thread().name)
                    return fn(*a)
                return pool().submit(run, *args)

        monkeypatch.setattr(core, "_executor", Spy)
        yield ran


def check_pool_ran(ran, blocked=True):
    """Blocks ran on worker threads exactly when WORKERS > 1 and the call was
    split into blocks."""
    if core.WORKERS > 1 and blocked:
        assert ran and all(name.startswith("abconvex-rows") for name in ran)
    else:
        assert ran == []


def row_block_calls(monkeypatch):
    """The list of the names of the functions handed to core.by_row_blocks
    from now on: "distances" for Euclidean distances, "violated" for the
    triangle sweep."""
    names = []
    real = core.by_row_blocks

    def spy(fn, n_rows, row_bytes):
        names.append(fn.__name__)
        return real(fn, n_rows, row_bytes)

    monkeypatch.setattr(core, "by_row_blocks", spy)
    return names


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
        else:  # first the empty block that sets the output's dtype and shape
            assert seen[0] == slice(0, 0)
            assert [s.indices(7)[:2] for s in seen[1:]] == want

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
        # the empty block that sets the output's dtype and shape runs first, here
        assert seen[0] == (slice(0, 0), threading.main_thread())
        seen = seen[1:]
        assert sorted(rows.indices(7)[:2] for rows, _ in seen) == want
        threads = {t for _, t in seen}
        if on_pool:  # the calling thread and pool threads, at most n_workers
            assert len(threads) <= n_workers
            assert all(t is threading.main_thread() or t.name.startswith("abconvex-rows")
                       for t in threads)
        else:
            assert [rows.indices(7)[:2] for rows, _ in seen] == want
            assert threads == {threading.main_thread()}

    @pytest.mark.parametrize("n_workers, budget, helpers", [
        # a worker's share of one row or more: the calling thread and n - 1 helpers
        (2, 16, 1), (3, 24, 2), (4, 32, 3), (2, 64, 1),
        # one worker, or a share below one row: the calling thread alone
        (1, 8, 0), (1, 64, 0), (2, 8, 0), (4, 31, 0),
    ])
    def test_calling_thread_works_beside_n_minus_1_helpers(self, n_workers, budget, helpers,
                                                           monkeypatch):
        for ran in worker_counts(monkeypatch, (n_workers,)):
            monkeypatch.setattr(core, "BLOCK_BYTES", budget)
            rows = np.arange(9.0)
            assert same_bits(core.by_row_blocks(lambda r: rows[r] * 2.0, 9, 8), rows * 2.0)
            assert len(ran) == helpers
            assert all(name.startswith("abconvex-rows") for name in ran)
            if helpers:
                assert core._pools[n_workers]._max_workers == n_workers - 1

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
            if rows == slice(0, 1):
                time.sleep(0.2)
            if rows.stop:  # not the empty block that sets the output's dtype
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

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_the_first_failing_block_in_row_order_decides(self, n_workers, monkeypatch):
        # row 2 fails last in time, row 6 first: row 2's error is raised
        monkeypatch.setattr(core, "WORKERS", n_workers)
        monkeypatch.setattr(core, "BLOCK_BYTES", n_workers * 8)

        def fn(rows):
            if rows.start == 2:
                time.sleep(0.1)
                raise NonMetric("row 2")
            if rows.start == 6:
                raise UndefinedSum("row 6")
            return np.zeros(1)

        with pytest.raises(NonMetric, match="row 2"):
            core.by_row_blocks(fn, 9, 8)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_no_block_starts_after_a_failure(self, n_workers, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", n_workers)
        monkeypatch.setattr(core, "BLOCK_BYTES", n_workers * 8)
        started = []

        def fn(rows):
            if not rows.stop:  # the empty block that sets the output's dtype
                return np.zeros(0)
            started.append(rows.start)
            if rows.start == 0:
                raise NonMetric("row 0")
            time.sleep(0.01)
            return np.zeros(1)

        with pytest.raises(NonMetric, match="row 0"):
            core.by_row_blocks(fn, 200, 8)
        time.sleep(0.05)  # blocks already taken finish; no other starts
        assert len(started) <= 2 * n_workers

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

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("bad", ["dtype", "trailing", "rows"])
    def test_every_block_is_shaped_like_the_first(self, bad, n_workers, monkeypatch):
        # np.concatenate upcast a float32 block and joined a narrower one;
        # assigned into one output, either would pass silently
        monkeypatch.setattr(core, "WORKERS", n_workers)
        monkeypatch.setattr(core, "BLOCK_BYTES", n_workers * 8)

        def fn(rows):
            block = np.zeros((1, 2))
            if rows.start == 4:
                return {"dtype": block.astype(np.float32), "trailing": block[:, :1],
                        "rows": block[:0]}[bad]
            return block

        with pytest.raises(ValueError, match="rows 4: a block of"):
            core.by_row_blocks(fn, 9, 8)

    def test_peak_memory_is_output_plus_budget(self, monkeypatch):
        rng = np.random.default_rng(705)
        src = rng.normal(size=(400, 1000))

        def fn(rows):  # two temporaries the size of the block
            return np.sqrt(np.abs(src[rows]) * 2.0)

        def concatenated():
            return np.concatenate([fn(slice(i, i + 8)) for i in range(0, 400, 8)])

        for ran in worker_counts(monkeypatch, (1, 2)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 17)
            bound = src.nbytes + 4 * core.BLOCK_BYTES
            assert traced_peak(concatenated) > bound
            # untraced first: the pool and its threads are made outside the trace
            assert same_bits(core.by_row_blocks(fn, 400, 2 * 1000 * 8), fn(slice(None)))
            peak = traced_peak(lambda: core.by_row_blocks(fn, 400, 2 * 1000 * 8))
            assert peak <= bound
            check_pool_ran(ran)


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

    def test_rounding_bound_settles_only_what_the_sweep_passes(self, monkeypatch):
        # Euclidean points skip the sweep exactly when their largest distance
        # is below rounding_scale(dim), and there the one-tensor sweep passes
        calls = row_block_calls(monkeypatch)
        rng = np.random.default_rng(630)
        seen = {}
        for _ in range(16):
            for dim in range(1, 10):
                for mult, pts in scaled_point_sets(rng, dim, (0.5, 0.99, 1.01, 10.0, 100.0, 1e3)):
                    dist = build_metric_space(pts, validate="fast").dist
                    want = old_triangle_violated(dist)
                    calls.clear()
                    try:
                        space = build_metric_space(pts)
                        assert same_bits(space.dist, dist)
                        got = False
                    except NonMetric as e:
                        assert e.reason == "triangle inequality violated"
                        got = True
                    swept = "violated" in calls
                    assert swept == (mult is not None and mult > 1), (dim, mult)
                    assert swept or not want, (dim, mult)
                    assert got == want, (dim, mult)
                    seen[swept, got] = seen.get((swept, got), 0) + 1
        assert sum(seen.values()) >= 2000
        assert seen[False, False] and seen[True, False] and seen[True, True]

    def test_rounding_above_the_bound_is_flagged(self, monkeypatch):
        # 8 near-collinear points in the plane about 1e5 apart: rounding alone
        # breaks the triangle inequality by more than METRIC_TOL; shrunk by
        # 1e5 they fall under the bound
        calls = row_block_calls(monkeypatch)
        rng = np.random.default_rng(640)
        for _ in range(40):
            v = rng.normal(size=2)
            pts = 1e5 + np.sort(rng.uniform(0.0, 1.0, 8))[:, None] * (v / np.linalg.norm(v)) * 1e5
            assert old_triangle_violated(build_metric_space(pts, validate="fast").dist)
            calls.clear()
            with pytest.raises(NonMetric, match="^triangle inequality violated$"):
                build_metric_space(pts)
            assert calls == ["distances", "violated"]
            calls.clear()
            build_metric_space(pts / 1e5)
            assert calls == ["distances"]

    @pytest.mark.parametrize("scale", [1e-165, 1e-3, 1.0])
    def test_custom_matrices_are_always_swept(self, scale, monkeypatch):
        # even entries as small as Euclidean distances the bound settles
        calls = row_block_calls(monkeypatch)
        pts = np.random.default_rng(650).uniform(-1.0, 1.0, (12, 2)) * scale
        D = build_metric_space(pts, validate="fast").dist
        calls.clear()
        space = build_metric_space(pts)
        assert calls == ["distances"]
        calls.clear()
        assert same_bits(build_metric_space(pts, D).dist, space.dist)
        assert calls == ["violated"]

    def test_validate_values(self, monkeypatch):
        # the bound settles only validate="full": any other value but "fast"
        # is rejected before a distance is computed, ahead of a bad custom
        # matrix too, and "fast" still skips the sweep above the bound
        calls = row_block_calls(monkeypatch)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for bad in ("bogus", "FULL", None):
            for metric in ("euclidean", [[1.0]]):
                with pytest.raises(ValueError, match="validate must be 'full' or 'fast'"):
                    build_metric_space(pts, metric, validate=bad)
            assert calls == []
        assert same_bits(build_metric_space(pts, validate="fast").dist,
                         build_metric_space(pts).dist)
        assert calls == ["distances", "distances"]
        far = 1e5 + np.arange(8.0)[:, None] * np.array([0.6, 0.8]) * (1e5 / 7)
        with pytest.raises(NonMetric, match="triangle"):
            build_metric_space(far)
        calls.clear()
        space = build_metric_space(far, validate="fast")
        assert same_bits(space.dist, old_euclidean_dist(far))
        assert calls == ["distances"]


def point_sets(rng):
    """Points of dimension 0 to 20, 127, 128, 129 and 200, on both sides of
    the 8 and 128 coordinates where numpy's pairwise sum changes its order:
    uniform, integer-valued (exact squared distances) and scaled so that
    squared differences reach about 1e300 or 1e-300, one and two points among
    them, each set of three or more points also with its first point
    repeated."""
    for dim in (*range(21), 127, 128, 129, 200):
        for n in (1, 2, 3, 7, int(rng.integers(8, 40))):
            style = rng.integers(4)
            if style == 0:
                pts = np.unique(rng.integers(-1000, 1001, (n, dim)), axis=0).astype(float)
            else:
                pts = rng.uniform(-1.0, 1.0, (n, dim)) * (1.0, 1e150, 1e-150)[style - 1]
            yield pts
            if n >= 3:
                yield np.concatenate([pts, pts[:1]])


class TestEuclideanDistances:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_form(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
            rng = np.random.default_rng(710)
            for pts in point_sets(rng):
                n, dim = pts.shape
                monkeypatch.setattr(core, "BLOCK_BYTES",
                                    budgets((2 * min(dim, 8) + 2) * 8 * n)[budget])
                want = old_euclidean_dist(pts)
                if np.count_nonzero(want == 0) > n:  # repeated points, or no coordinates
                    with pytest.raises(NonMetric, match="zero distance between distinct points"):
                        build_metric_space(pts, validate="fast")
                else:
                    dist = build_metric_space(pts, validate="fast").dist
                    assert same_bits(dist, want)
                    # the axioms build_metric_space leaves unchecked for Euclidean
                    # points: symmetric bits, a +0 diagonal, no sign bit set
                    assert same_bits(dist, dist.T)
                    assert not np.diagonal(dist).any() and not np.signbit(dist).any()
            check_pool_ran(ran, budget != "default")

    def test_pairwise_sum_matches_numpy_sum(self):
        # squares spread over 40 binades, so that the order of the additions
        # shows in the last bits
        rng = np.random.default_rng(715)
        for n in (*range(1, 40), 64, 127, 128, 129, 136, 200, 255, 256, 257, 300, 520):
            scale = 2.0 ** rng.integers(-20, 20, (n, 1, 1))
            terms = np.square(rng.uniform(-1.0, 1.0, (n, 5, 3)) * scale)
            got = core._pairwise_sum(lambda c: terms[c].copy(), 0, n)
            assert same_bits(got, np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1))

    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 130])
    def test_overflow_rejected_on_the_pool_without_warning(self, dim, monkeypatch):
        # the kernel's errstate must reach the workers
        pts = np.repeat([[-1e200], [0.0], [1.0], [2.0], [1e200]], dim, axis=1)
        for ran in worker_counts(monkeypatch):
            monkeypatch.setattr(core, "BLOCK_BYTES", budgets((2 * min(dim, 8) + 2) * 8 * 5)["one_row"])
            with pytest.raises(NonMetric, match="finite"):
                build_metric_space(pts, validate="fast")
            check_pool_ran(ran)

    def test_peak_memory_is_budget_plus_distances(self, monkeypatch):
        # at dim 130 the coordinates are summed in halves; at 1e-170 every
        # square underflows and each block repairs its own zeros
        for n, dim, scale in ((600, 3, 1.0), (150, 130, 1.0), (600, 1, 1e-170), (600, 3, 1e-170)):
            pts = np.random.default_rng(720).uniform(-1.0, 1.0, (n, dim)) * scale
            for ran in worker_counts(monkeypatch, (1, 2, 4)):
                monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
                bound = n * n * 8 + 4 * core.BLOCK_BYTES
                assert traced_peak(lambda: old_euclidean_dist(pts)) > bound
                peak = traced_peak(lambda: build_metric_space(pts, validate="fast"))
                assert peak <= bound
                check_pool_ran(ran)


def slope_cases(rng):
    """Functions on 1-D and 2-D grids: +inf holes and signed zeros, real
    values, all values equal, one finite value, and values whose differences
    or quotients overflow."""
    for k in range(30):
        n = int(rng.integers(1, 40))
        pts = np.unique(np.round(rng.uniform(-3.0, 3.0, (n, 1 + k % 2)), 2), axis=0)
        space = build_metric_space(pts, validate="fast")
        m = space.n
        holes = rng.choice([0.0, -0.0, 1.0, -2.5, np.inf], m)
        single = np.full(m, np.inf)
        single[int(rng.integers(m))] = -1.0
        huge = rng.choice([-1e308, 1e308, 1e306, 0.0], m)
        for v in (holes, rng.normal(size=m), np.full(m, 2.5), single, huge):
            yield space, GridFn(space, v)


class TestSlopeBound:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_mask_form(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
            rng = np.random.default_rng(730)
            outcomes = set()
            for space, f in slope_cases(rng):
                m = int(np.isfinite(f.values).sum())
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(32 * m)[budget])
                try:
                    want = old_slope_bound(f, space)
                except ImproperInput:
                    with pytest.raises(ImproperInput, match="slope bound of f overflows"):
                        slope_bound(f, space)
                    outcomes.add("overflow")
                    continue
                assert same_bits(slope_bound(f, space), want)
                outcomes.add("one" if want == 1.0 else "bound")
            assert outcomes == {"overflow", "one", "bound"}
            check_pool_ran(ran, budget != "default")

    def test_peak_memory_is_budget_plus_members(self, monkeypatch):
        rng = np.random.default_rng(740)
        space = spaced_line(rng, 600)
        f = GridFn(space, rng.normal(size=600))
        fam = ElemFamily.metric(space)

        def grid():
            return default_dual_grid(fam, f, curvature_levels=3, max_anchors=50)

        members = grid().matrix.nbytes
        for ran in worker_counts(monkeypatch, (1, 2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
            bound = 4 * core.BLOCK_BYTES
            assert traced_peak(lambda: old_slope_bound(f, space)) > bound + members
            assert traced_peak(lambda: slope_bound(f, space)) <= bound
            assert traced_peak(grid) <= bound + members
            check_pool_ran(ran)


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


#: (n_x, P, n_y) with fewer, as many and more members than parameters, at
#: a constrained table's shape (9 rungs x 45 anchors), with one row of p,
#: one member and one parameter
SWITCH_SHAPES = [(9, 5, 6), (9, 6, 6), (9, 7, 6), (30, 405, 45), (1, 12, 4), (1, 4, 12),
                 (7, 1, 4), (7, 1, 9), (12, 9, 1), (5, 1, 1)]


class TestPartialConjugate:
    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_kernel(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch):
            rng = np.random.default_rng(630)
            blocked = budget != "default"
            for n_x, P, n_y in [(1, 1, 1), (1, 5, 3), (7, 1, 4), (10, 6, 5), (12, 9, 1)] + [
                    tuple(int(v) for v in rng.integers(1, 30, 3)) for _ in range(40)] + SWITCH_SHAPES:
                E, p = random_table(rng, n_x, P, n_y)
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(E.nbytes)[budget])
                blocked |= n_x * E.nbytes > core.BLOCK_BYTES  # (30, 405, 45) splits at the default
                got = lagrangian._partial_conjugate(E, p)
                want = old_partial_conjugate_kernel(E, p)
                assert same_bits(got, want)
                if n_x > 1:
                    assert np.isneginf(got).all(axis=1).any()
                # the transposed call of the grid biconjugate
                assert same_bits(lagrangian._partial_conjugate(E.T, got),
                                 old_partial_conjugate_kernel(E.T, got))
            check_pool_ran(ran, blocked)

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

    def test_undefined_cells_keep_the_last_axis_nan(self, monkeypatch):
        # inf - inf at each parameter in turn, in tables with more members than
        # parameters: the sign of the NaN a reduction returns follows its loop
        # order, and the kernel's blocks and steps keep the one-tensor order
        rng = np.random.default_rng(636)
        for ran in worker_counts(monkeypatch, (1, 2)):
            for n_y in (1, 2, 7, 9, 17):
                for k in range(n_y):
                    E, p = random_table(rng, 12, n_y + 3, n_y)
                    E[:, k] = np.inf
                    p[:, k] = np.inf
                    monkeypatch.setattr(core, "BLOCK_BYTES", budgets(E.nbytes)["ragged"])
                    got = lagrangian._partial_conjugate(E, p)
                    assert np.isnan(got).any()
                    assert same_bits(got, old_partial_conjugate_kernel(E, p))
            check_pool_ran(ran)

    @pytest.mark.parametrize("case", sorted(LAGRANGIAN_OVERFLOWS))
    def test_overflow_raises_on_the_pool(self, case, monkeypatch):
        # the overflowing row is the last of five, in a worker's block; a wide
        # grid has more members than parameters
        for wide in (False, True):
            prob, grid = lagrangian_overflow(case, pad_rows=4, wide=wide)
            for ran in worker_counts(monkeypatch, (2,)):
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(grid.matrix.nbytes)["one_row"])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ImproperInput) as err:
                        lagrangian.build_lagrangian(prob, grid)
                assert str(err.value) == LAGRANGIAN_OVERFLOWS[case][3]
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
        # the second table has more members than parameters
        rng = np.random.default_rng(650)
        for P, n_y in ((100, 100), (400, 30)):
            E, p = rng.normal(size=(P, n_y)), rng.normal(size=(200, n_y))
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
    among them, so that many maxima tie at zeros of both signs; +inf holes in
    f, now and then f identically +inf, and members at +-the largest double
    (sub_up's clamped overflow)."""
    M = rng.choice([0.0, -0.0, -1.0, 0.5], size=(P, n), p=[0.35, 0.35, 0.2, 0.1])
    big = rng.random(M.shape) < 0.02
    M[big] = np.finfo(float).max * rng.choice([-1.0, 1.0], size=int(big.sum()))
    v = rng.choice([0.0, -0.0, 1.0, np.inf], size=n)
    if rng.random() < 0.1:
        v[:] = np.inf
    return M, GridFn(n, v)


def max_sub_up_forms(monkeypatch):
    """Sets core._DENSE_BELOW so that core.max_sub_up rounds only the ties at
    every size, then back to its default, which rounds every cell of blocks
    as small as these."""
    for dense_below in (0, core._DENSE_BELOW):
        monkeypatch.setattr(core, "_DENSE_BELOW", dense_below)
        yield dense_below


class TestConjugation:
    SHAPES = [(1, 1), (1, 7), (7, 1), (5, 4), (3, 10), (10, 3), (9, 13), (33, 7), (40, 10)]

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_matches_one_tensor_forms(self, budget, monkeypatch):
        for _ in max_sub_up_forms(monkeypatch):
            for ran in worker_counts(monkeypatch):
                rng = np.random.default_rng(680)
                zero_signs = set()
                for P, n in self.SHAPES + [tuple(int(v) for v in rng.integers(1, 40, 2))
                                          for _ in range(60)]:
                    M, f = random_conjugation(rng, P, n)
                    dual = stub_dual(M)
                    monkeypatch.setattr(core, "BLOCK_BYTES",
                                        budgets(families._SUB_UP_BYTES * n)[budget])
                    assert same_bits(conjugate_transform(f, dual), old_conjugate_transform(f, dual))
                    monkeypatch.setattr(core, "BLOCK_BYTES",
                                        budgets(families._SUB_UP_BYTES * P)[budget])
                    got = biconjugate(f, dual).values
                    assert same_bits(got, old_biconjugate(f, dual))
                    zero_signs.update(np.signbit(got[got == 0.0]).tolist())
                assert zero_signs == {False}
                check_pool_ran(ran, budget != "default")

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_family_grids(self, budget, monkeypatch):
        for _ in max_sub_up_forms(monkeypatch):
            for ran in worker_counts(monkeypatch):
                rng = np.random.default_rng(690)
                for _ in range(12):
                    space = spaced_line(rng, int(rng.integers(2, 30)))
                    dual = random_dual_grid(rng, space)
                    f = GridFn(space, np.round(rng.normal(size=space.n), 1))
                    monkeypatch.setattr(core, "BLOCK_BYTES",
                                        budgets(families._SUB_UP_BYTES * space.n)[budget])
                    assert same_bits(conjugate_transform(f, dual), old_conjugate_transform(f, dual))
                    monkeypatch.setattr(core, "BLOCK_BYTES",
                                        budgets(families._SUB_UP_BYTES * dual.size)[budget])
                    assert same_bits(biconjugate(f, dual).values, old_biconjugate(f, dual))
                check_pool_ran(ran, budget != "default")

    def test_undefined_sum_from_a_worker(self, monkeypatch):
        # +inf - +inf only in the last member row
        M = np.zeros((9, 4))
        M[8, 2] = np.inf
        f = GridFn(4, [0.0, 1.0, np.inf, 2.0])
        for _ in max_sub_up_forms(monkeypatch):
            for ran in worker_counts(monkeypatch):
                monkeypatch.setattr(core, "BLOCK_BYTES",
                                    budgets(families._SUB_UP_BYTES * 4)["one_row"])
                with pytest.raises(UndefinedSum):
                    conjugate_transform(f, stub_dual(M))
                check_pool_ran(ran)

    def test_undefined_sum_from_a_kernel_worker(self, monkeypatch):
        # +inf - +inf only in the last row and column, in blocks of rows
        # reduced along rows and in blocks of columns reduced along columns
        a, b = np.zeros((9, 9)), np.ones((9, 9))
        a[8, 8] = b[8, 8] = np.inf
        for _ in max_sub_up_forms(monkeypatch):
            for ran in worker_counts(monkeypatch):
                monkeypatch.setattr(core, "BLOCK_BYTES",
                                    budgets(families._SUB_UP_BYTES * 9)["one_row"])
                for fn in (lambda rows: core.max_sub_up(a[rows], b[rows], 1),
                           lambda cols: core.max_sub_up(a[:, cols], b[:, cols], 0)):
                    with pytest.raises(UndefinedSum):
                        core.by_row_blocks(fn, 9, families._SUB_UP_BYTES * 9)
                check_pool_ran(ran)

    def test_kernel_peak_memory_when_every_cell_ties(self):
        # every difference ties at its line's maximum; a few round up, and
        # every third line ties at zeros of both signs
        rng = np.random.default_rng(710)
        A = np.ones((400, 1000))
        B = rng.choice([2.0 ** -60, -(2.0 ** -60)], A.shape, p=[0.999, 0.001])
        A[::3], B[::3] = 0.0, rng.choice([0.0, -0.0], B[::3].shape)
        budget = families._SUB_UP_BYTES * A.size
        for x, y, axis in [(A, B, 1), (A, B, 0), (np.asfortranarray(A), B, 1),
                           (A[:, :1], B, 0), (A, np.ones(A.shape[1]), 1)]:
            assert traced_peak(lambda: old_max_sub_up(x, y, axis)) > 1.5 * budget
            assert traced_peak(lambda: core.max_sub_up(x, y, axis)) <= budget

    def test_peak_memory_is_budget_plus_members(self, monkeypatch):
        rng = np.random.default_rng(700)
        M = rng.normal(size=(400, 1000))
        f = GridFn(1000, rng.normal(size=1000))
        # every cell ties: constant members and f, whose biconjugate is all zeros
        ties = (stub_dual(np.ones(M.shape)), GridFn(1000, np.zeros(1000)))
        for ran in worker_counts(monkeypatch, (2, 4)):
            monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 18)
            for dual, f in [(stub_dual(M), f), ties]:
                for new, old in [(conjugate_transform, old_conjugate_transform),
                                 (biconjugate, old_biconjugate)]:
                    assert traced_peak(lambda: old(f, dual)) > 50 * core.BLOCK_BYTES
                    peak = traced_peak(lambda: new(f, dual))
                    assert peak <= 2 * core.BLOCK_BYTES + M.nbytes
            check_pool_ran(ran)


class TestZeroRule:
    """A zero that a blocked max kernel returns is +0: max_sub_up in both
    forms, _partial_conjugate (also on E.T) in one-row, ragged
    and default blocks reduced in steps of two rows, and c_transform, each
    against loop_reduce, a plain loop over the cells, on inputs whose lines
    tie at zeros of both signs."""

    SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (33, 7), (7, 33), (40, 40)]

    def test_max_sub_up(self, monkeypatch):
        rng = np.random.default_rng(720)
        for _ in max_sub_up_forms(monkeypatch):
            for shape in self.SHAPES:
                A = rng.choice([0.0, -0.0, -1.0, -0.5], shape, p=[0.35, 0.35, 0.2, 0.1])
                B = rng.choice([0.0, -0.0, 0.5], shape, p=[0.45, 0.45, 0.1])
                for axis in (0, 1):
                    assert same_bits(core.max_sub_up(A, B, axis),
                                     loop_reduce(core.sub_up(A, B), axis))

    @pytest.mark.parametrize("budget", ["one_row", "ragged", "default"])
    def test_partial_conjugate(self, budget, monkeypatch):
        for ran in worker_counts(monkeypatch, (1, 2)):
            rng = np.random.default_rng(730)
            blocked = budget != "default"
            for n_x, P, n_y in [(n_x, P, int(rng.integers(1, 12)))
                                for n_x, P in self.SHAPES] + SWITCH_SHAPES:
                E = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(P, n_y))
                p = rng.choice([0.0, -0.0, 1.0, 0.5, np.inf], size=(n_x, n_y))
                monkeypatch.setattr(core, "BLOCK_BYTES", budgets(E.nbytes)[budget])
                blocked |= n_x * E.nbytes > core.BLOCK_BYTES
                monkeypatch.setattr(lagrangian, "_STEP_BYTES", 2 * E.nbytes)
                S = lagrangian._partial_conjugate(E, p)
                assert same_bits(S, [loop_reduce(E - p[x], 1) for x in range(n_x)])
                # E.T, a view that is not C-contiguous, as in the full-scope call
                assert same_bits(lagrangian._partial_conjugate(E.T, S),
                                 [loop_reduce(E.T - S[x], 1) for x in range(n_x)])
            check_pool_ran(ran, blocked)

    def test_c_transform(self):
        rng = np.random.default_rng(740)
        for n, m in self.SHAPES:
            psi = rng.choice([0.0, -0.0, 1.0, -1.0, -np.inf], n, p=[0.3, 0.3, 0.15, 0.15, 0.1])
            cost = psi[:, None] + rng.choice([0.0, -0.0, 1.0], (n, m), p=[0.4, 0.4, 0.2])
            cost[~np.isfinite(cost)] = 2.0
            for c in (cost, np.ascontiguousarray(cost.T).T):
                # the downward-rounded cost - psi is -sub_up(psi, cost)
                assert same_bits(c_transform(psi, c),
                                 loop_reduce(-core.sub_up(psi[:, None], c), 0, min))
