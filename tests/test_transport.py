"""Transportation simplex, potentials, conic LP closed form."""

from collections import deque

import numpy as np
import pytest
from scipy.optimize import linprog

from abconvex import (
    ConicLP,
    SolverLimit,
    TransportProblem,
    c_transform,
    conic_lp_dual,
    coupling_check,
    kantorovich_gap_report,
    solve_transport,
)
import abconvex.transport as transport
from abconvex.errors import ImproperInput, Unbalanced
from abconvex.transport import _northwest_start, dual_objective

from golden import regen
from conftest import (
    CONIC_OVERFLOWS,
    TRANSPORT_OVERFLOWS,
    degenerate_transport,
    generic_transport,
    large_cost_transport,
    random_transport,
    same_bits,
    transport_overflow_message,
    transport_vertex_oracle,
)


class TestProblemValidation:
    def test_unbalanced_rejected(self):
        with pytest.raises(Unbalanced):
            TransportProblem(cost=[[1.0]], mu=[1.0], nu=[2.0])

    def test_negative_marginal_rejected(self):
        with pytest.raises(ValueError):
            TransportProblem(cost=[[1.0, 1.0]], mu=[1.0], nu=[2.0, -1.0])

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValueError):
            TransportProblem(cost=[[np.inf]], mu=[1.0], nu=[1.0])


class TestSolveTransport:
    def test_zero_cost_matching(self):
        prob = TransportProblem(cost=[[0.0, 1.0], [1.0, 0.0]],
                                mu=[0.5, 0.5], nu=[0.5, 0.5])
        coupling, pots, value = solve_transport(prob)
        assert value == 0.0
        assert np.allclose(coupling.q, np.diag([0.5, 0.5]))
        assert dual_objective(pots.psi, pots.phi, prob.mu, prob.nu) == 0.0

    def test_forced_off_diagonal(self):
        prob = TransportProblem(cost=[[0.0, 1.0], [1.0, 0.0]],
                                mu=[1.0, 0.0], nu=[0.0, 1.0])
        coupling, pots, value = solve_transport(prob)
        assert value == 1.0
        assert coupling.q[0, 1] == 1.0
        assert pots.psi[0] + pots.phi[1] == 1.0

    def test_equal_marginals_on_a_line(self):
        xs = np.array([0.0, 1.0, 2.0])
        cost = np.abs(xs[:, None] - xs[None, :])
        prob = TransportProblem(cost=cost, mu=np.ones(3) / 3, nu=np.ones(3) / 3)
        _, _, value = solve_transport(prob)
        assert abs(value) <= 1e-12

    def test_single_cell(self):
        prob = TransportProblem(cost=[[7.0]], mu=[2.0], nu=[2.0])
        coupling, pots, value = solve_transport(prob)
        assert value == 14.0 and coupling.q[0, 0] == 2.0

    def test_feasibility_and_duality_random(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            prob = random_transport(rng, max_n=12, max_m=12)
            coupling, pots, value = solve_transport(prob)
            assert coupling_check(coupling.q, prob.mu, prob.nu)
            slack = prob.cost - pots.psi[:, None] - pots.phi[None, :]
            assert slack.min() >= -1e-9
            assert abs(dual_objective(pots.psi, pots.phi, prob.mu, prob.nu)
                       - value) <= 1e-6

    def test_degenerate_marginals(self):
        # many zero masses force degenerate pivots
        prob = TransportProblem(
            cost=[[3.0, 1.0, 4.0], [1.0, 5.0, 9.0], [2.0, 6.0, 5.0]],
            mu=[1.0, 0.0, 0.0], nu=[0.0, 1.0, 0.0])
        coupling, pots, value = solve_transport(prob)
        assert value == 1.0 and coupling.q[0, 1] == 1.0

    def test_matches_vertex_oracle_small(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            prob = random_transport(rng, max_n=3, max_m=3)
            _, _, value = solve_transport(prob)
            oracle = transport_vertex_oracle(prob.cost, prob.mu, prob.nu)
            assert abs(value - oracle) <= 1e-9


# ---------------------------------------------------------------------------
# the breadth-first pivot loop the rooted-tree kernel replaced, kept as an
# oracle.  Its leaving rule is the kernel's in its own terms (the apex is the
# path node nearest row 0 by breadth-first depth), and it asserts strong
# feasibility in every round.  _build_adj and _duals_from_basis (which also
# returns the breadth-first depths) are the library's former helpers
# ---------------------------------------------------------------------------

def _build_adj(n: int, m: int, basis) -> dict[int, set]:
    adj: dict[int, set] = {k: set() for k in range(n + m)}
    for (i, j) in basis:
        adj[i].add(n + j)
        adj[n + j].add(i)
    return adj


def _duals_from_basis(cost: np.ndarray, basis, adj):
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m)
    depth = np.full(n + m, -1)
    depth[0] = 0
    dq = deque([0])
    while dq:
        node = dq.popleft()
        for nb in adj[node]:
            if depth[nb] >= 0:
                continue
            if node < n:  # row -> column
                v[nb - n] = cost[node, nb - n] - u[node]
            else:         # column -> row
                u[nb] = cost[nb, node - n] - v[node - n]
            depth[nb] = depth[node] + 1
            dq.append(nb)
    if (depth < 0).any():
        raise AssertionError("basis graph is not a spanning tree")
    return u, v, depth


def _tree_path(adj, start: int, goal: int) -> list[int]:
    parent = {start: None}
    dq = deque([start])
    while dq:
        node = dq.popleft()
        if node == goal:
            break
        for nb in adj[node]:
            if nb not in parent:
                parent[nb] = node
                dq.append(nb)
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _bfs_simplex_pivots(cost, mu, nu, max_pivots: int):
    """Run the pivot loop on the given marginals; returns the final basis and
    its potentials by breadth-first search (rows first, then columns)."""
    n, m = cost.shape
    cscale = max(1.0, float(np.abs(cost).max()))
    enter_tol = 1e-12 * cscale
    start = _northwest_start(mu, nu)
    alloc = np.zeros((n, m))
    basis = [(i, j) for i, j, _ in start]
    for i, j, q in start:
        alloc[i, j] = q
    basis_set = set(basis)
    adj = _build_adj(n, m, basis)

    for _ in range(max_pivots):
        u, v, depth = _duals_from_basis(cost, basis, adj)
        # strongly feasible: each zero-flow cell's row lies below its column
        assert all(depth[i] > depth[n + j] for (i, j) in basis_set
                   if alloc[i, j] == 0.0), "not strongly feasible"
        red = cost - u[:, None] - v[None, :]
        for (i, j) in basis_set:
            red[i, j] = 0.0
        flat = int(red.argmin())
        if red.ravel()[flat] >= -enter_tol:
            return list(basis_set), np.concatenate([u, v])
        ei, ej = divmod(flat, m)

        # cells[k] joins path[k] and path[k + 1]; the even ones lose theta.
        # Walked from the apex in the entering cell's direction, the cycle
        # runs down the path to row ei, over the entering cell, and back up
        # from column ej: the path cells in reverse order, from the apex
        path = _tree_path(adj, ei, n + ej)
        cells = [(a, b - n) if a < n else (b, a - n) for a, b in zip(path, path[1:])]
        apex = min(range(len(path)), key=lambda k: depth[path[k]])
        walk = [*range(apex - 1, -1, -1), *range(len(cells) - 1, apex - 1, -1)]
        theta = min(alloc[c] for c in cells[0::2])
        leaving = [cells[k] for k in walk if k % 2 == 0 and alloc[cells[k]] == theta][-1]

        for c in [(ei, ej)] + cells[1::2]:
            alloc[c] += theta
        for c in cells[0::2]:
            alloc[c] -= theta

        basis_set.discard(leaving)
        basis_set.add((ei, ej))
        adj[leaving[0]].discard(n + leaving[1])
        adj[n + leaving[1]].discard(leaving[0])
        adj[ei].add(n + ej)
        adj[n + ej].add(ei)
    raise SolverLimit


def _oracle_shapes(rng):
    """Square, 1 x m, n x 1 and rectangular shapes, up to 60 x 60."""
    shapes = [(60, 60), (1, 60), (60, 1), (1, 1), (45, 60), (60, 17)]
    for _ in range(10):
        n, m = (int(v) for v in rng.integers(1, 31, 2))
        shapes += [(n, n), (1, m), (n, 1), (n, m)]
    return shapes


def sparse_transport(rng, n, m):
    """degenerate_transport with its row masses rotated, so that any row,
    row 0 too, can have none."""
    prob = degenerate_transport(rng, n, m)
    return TransportProblem(cost=prob.cost, mu=np.roll(prob.mu, rng.integers(n)), nu=prob.nu)


def _positive_part(prob):
    """The cost and marginals of the rows and columns with positive mass,
    which is what solve_transport pivots on."""
    rows, cols = prob.mu > 0, prob.nu > 0
    return prob.cost[np.ix_(rows, cols)], prob.mu[rows], prob.nu[cols]


MAKERS = {"generic": generic_transport, "degenerate": degenerate_transport,
          "sparse": sparse_transport}


class TestRootedTreeKernel:
    """The rooted-tree pivot loop against the breadth-first one it replaced:
    same pivots, so bit-identical bases, potentials, plans and values."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_solve_matches_bfs_kernel(self, kind, monkeypatch):
        rng = np.random.default_rng({"generic": 71, "degenerate": 72, "sparse": 81}[kind])
        for n, m in _oracle_shapes(rng):
            prob = MAKERS[kind](rng, n, m)
            coupling, pots, value = solve_transport(prob)
            with monkeypatch.context() as mp:
                mp.setattr(transport, "_simplex_pivots", _bfs_simplex_pivots)
                ref_coupling, ref_pots, ref_value = solve_transport(prob)
            assert np.array_equal(coupling.q, ref_coupling.q)
            assert np.array_equal(pots.psi, ref_pots.psi)
            assert np.array_equal(pots.phi, ref_pots.phi)
            assert value == ref_value

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_pivot_loop_matches_bfs_kernel(self, kind):
        rng = np.random.default_rng({"generic": 73, "degenerate": 74, "sparse": 82}[kind])
        for n, m in _oracle_shapes(rng):
            args = (*_positive_part(MAKERS[kind](rng, n, m)), 400 * (n + m) + 200)
            basis, pot = transport._simplex_pivots(*args)
            ref_basis, ref_pot = _bfs_simplex_pivots(*args)
            assert sorted(basis) == sorted(ref_basis)
            assert len(basis) == sum(args[0].shape) - 1
            assert same_bits(pot, ref_pot)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_pivot_count_matches_bfs_kernel(self, kind, monkeypatch):
        """The budget counts pricing rounds: one per pivot, and the one that
        finds the basis optimal.  Take the oracle's count k from its
        potential recomputations, one per round; both loops then run out of
        pivots at a budget of k - 1 and finish at k.  The instances are
        those of the test above, and one more of the benchmark's sizes."""
        rng = np.random.default_rng({"generic": 73, "degenerate": 74, "sparse": 82}[kind])
        shapes = _oracle_shapes(rng) + [(150, 60) if kind == "generic" else (60, 150)]
        for n, m in shapes:
            args = _positive_part(MAKERS[kind](rng, n, m))
            calls = []
            with monkeypatch.context() as mp:
                mp.setitem(globals(), "_duals_from_basis",
                           lambda *a, real=_duals_from_basis: calls.append(1) or real(*a))
                _bfs_simplex_pivots(*args, 400 * (n + m) + 200)
            k = len(calls)
            for kernel in (transport._simplex_pivots, _bfs_simplex_pivots):
                with pytest.raises(SolverLimit):
                    kernel(*args, k - 1)
                basis, _ = kernel(*args, k)
                assert len(basis) == sum(args[0].shape) - 1


class TestSolverLimit:
    def test_out_of_pivots_raises(self, monkeypatch):
        real = transport._simplex_pivots
        monkeypatch.setattr(transport, "_simplex_pivots",
                            lambda cost, mu, nu, max_pivots: real(cost, mu, nu, 0))
        prob = random_transport(np.random.default_rng(75), max_n=6, max_m=6)
        with pytest.raises(SolverLimit, match="pivots"):
            solve_transport(prob)

    def test_infeasible_plan_fails_the_invariant(self, monkeypatch):
        monkeypatch.setattr(transport, "_solve_tree_alloc",
                            lambda n, m, *_: np.full((n, m), -1.0))
        prob = random_transport(np.random.default_rng(76), max_n=6, max_m=6)
        with pytest.raises(AssertionError, match="final plan is infeasible"):
            solve_transport(prob)

    def test_infeasible_potentials_fail_the_invariant(self, monkeypatch):
        # the zero-mass column's potential is raised above its c-transform
        real = transport.c_transform
        monkeypatch.setattr(transport, "c_transform", lambda psi, cost: real(psi, cost) + 1.0)
        prob = TransportProblem(cost=[[0.0, 1.0]], mu=[1.0], nu=[1.0, 0.0])
        with pytest.raises(AssertionError, match="final basis is not dual feasible"):
            solve_transport(prob)


def _insert_zeros(rng, prob, at_row_0):
    """prob with zero-mass rows and columns of new costs inserted at random
    places (row 0 among them when at_row_0), and the old rows and columns."""
    (n, m), (k, l) = prob.shape, rng.integers(1, 4, 2)
    rows = np.sort(rng.choice(np.arange(int(at_row_0), n + k), n, replace=False))
    cols = np.sort(rng.choice(m + l, m, replace=False))
    cost = rng.integers(0, 10, (n + k, m + l)).astype(float)
    cost[np.ix_(rows, cols)] = prob.cost
    mu, nu = np.zeros(n + k), np.zeros(m + l)
    mu[rows], nu[cols] = prob.mu, prob.nu
    return TransportProblem(cost=cost, mu=mu, nu=nu), rows, cols


def _exactly_feasible(prob, pots, rows, cols):
    """psi_i + phi_j <= cost_ij as doubles on the given rows and columns, and
    none of their potentials is -0.0."""
    pair, new = pots.psi[:, None] + pots.phi, np.r_[pots.psi[rows], pots.phi[cols]]
    return ((pair[rows] <= prob.cost[rows]).all() and (pair[:, cols] <= prob.cost[:, cols]).all()
            and not np.signbit(new[new == 0.0]).any())


class TestOverflow:
    @pytest.mark.parametrize("case", sorted(TRANSPORT_OVERFLOWS))
    def test_rejected_without_warning(self, case):
        # a RuntimeWarning is an error under pytest; before the pricing test
        # was NaN-aware, nan_pricing pivoted on NaN until it ran out of pivots
        cost, mu, nu = TRANSPORT_OVERFLOWS[case]
        prob = TransportProblem(cost=cost, mu=mu, nu=nu)
        if case == "dual_objective":
            assert solve_transport(prob)[2] == 1e308
        else:
            with pytest.raises(ImproperInput) as solve_error:
                solve_transport(prob)
            assert str(solve_error.value) == transport_overflow_message(case)
        with pytest.raises(ImproperInput) as audit_error:
            kantorovich_gap_report(prob)
        assert str(audit_error.value) == transport_overflow_message(case)


class TestZeroMass:
    """Rows and columns of zero mass take no part in the pivots: inserting
    them leaves every old output bit-identical, and their potentials are
    c-transforms, feasible without tolerance."""

    @pytest.mark.parametrize("kind", ["generic", "degenerate"])
    def test_inserted_zero_mass_changes_nothing(self, kind):
        rng = np.random.default_rng(83 if kind == "generic" else 84)
        for t in range(60):
            base = TransportProblem(*_positive_part(MAKERS[kind](rng, *rng.integers(1, 16, 2))))
            prob, rows, cols = _insert_zeros(rng, base, at_row_0=t % 2 == 0)
            (coupling, pots, value), want = solve_transport(prob), solve_transport(base)
            assert same_bits(value, want[2]) and same_bits(coupling.q[np.ix_(rows, cols)], want[0].q)
            assert same_bits(pots.psi[rows], want[1].psi)
            assert same_bits(pots.phi[cols], want[1].phi)
            new_rows = np.setdiff1d(np.arange(prob.shape[0]), rows)
            new_cols = np.setdiff1d(np.arange(prob.shape[1]), cols)
            assert not coupling.q[new_rows].any() and not coupling.q[:, new_cols].any()
            assert _exactly_feasible(prob, pots, new_rows, new_cols)

    @pytest.mark.parametrize("nu", [[0.0, 0.0, 0.0], [0.0, 1e-13, 0.0]], ids=["zero", "tiny"])
    def test_no_mass(self, nu):
        prob = TransportProblem(cost=np.random.default_rng(85).uniform(-5.0, 5.0, (4, 3)),
                                mu=np.zeros(4), nu=nu)
        coupling, pots, value = solve_transport(prob)
        assert value == 0.0 and not coupling.q.any()
        assert _exactly_feasible(prob, pots, np.arange(1, 4), np.arange(3))


def _highs_transport_value(prob):
    """Optimal coupling cost of the dense LP by HiGHS: an oracle that shares
    no code with the simplex."""
    n, m = prob.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    res = linprog(prob.cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([prob.mu, prob.nu]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(res.fun)


class TestHighsOracle:
    @pytest.mark.parametrize("kind", ["generic", "degenerate"])
    def test_value_matches_highs_50x50(self, kind):
        rng = np.random.default_rng(77 if kind == "generic" else 78)
        for _ in range(6):
            prob = MAKERS[kind](rng, 50, 50)
            _, _, value = solve_transport(prob)
            assert abs(value - _highs_transport_value(prob)) <= 1e-9 * max(1.0, abs(value))

    @pytest.mark.parametrize("kind", sorted(regen.TRANSPORT_KINDS))
    def test_golden_corpus_matches_highs(self, kind):
        for prob in regen.transport_corpus(kind):
            _, _, value = solve_transport(prob)
            assert abs(value - _highs_transport_value(prob)) <= 1e-9 * max(1.0, abs(value))


class TestCTransform:
    def test_identity_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(c_transform(np.zeros(2), cost), np.zeros(2))

    def test_shifted(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(c_transform(np.array([1.0, 0.0]), cost),
                              np.array([-1.0, 0.0]))

    def test_minus_inf_rows_bound_nothing(self):
        # cost - (-inf) = +inf: such a row drops out of the minimum
        assert np.array_equal(c_transform(np.array([-np.inf]), np.array([[1.0, 2.0]])),
                              [np.inf, np.inf])
        cost = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 5.0]])
        got = c_transform(np.array([-np.inf, 1.0, -np.inf]), cost)
        assert np.array_equal(got, c_transform(np.array([1.0]), cost[1:2]))
        assert np.array_equal(got, [2.0, -2.0])
        # as solve_transport passes it: a transposed view
        got = c_transform(np.array([0.5, -np.inf]), np.ascontiguousarray(cost[:, :2]).T)
        assert np.array_equal(got, [0.5, 2.5, -0.5])

    def test_never_decreases_dual_objective(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            prob = random_transport(rng, max_n=10, max_m=10)
            psi = rng.normal(size=prob.shape[0])
            phi0 = c_transform(psi, prob.cost)          # feasible by construction
            obj0 = dual_objective(psi, phi0, prob.mu, prob.nu)
            # any feasible phi is dominated by the transform
            phi_feas = phi0 - np.abs(rng.normal(size=prob.shape[1]))
            obj_feas = dual_objective(psi, phi_feas, prob.mu, prob.nu)
            assert obj_feas <= obj0 + 1e-12

    def test_two_sweeps_reach_fixed_point(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            prob = random_transport(rng, max_n=10, max_m=10)
            psi = rng.normal(size=prob.shape[0])
            phi1 = c_transform(psi, prob.cost)
            psi1 = c_transform(phi1, prob.cost.T)
            phi2 = c_transform(psi1, prob.cost)
            psi2 = c_transform(phi2, prob.cost.T)
            assert np.array_equal(phi2, phi1)
            assert np.array_equal(psi2, psi1)

    def test_transform_output_feasible_exactly(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            prob = random_transport(rng, max_n=10, max_m=10)
            psi = rng.normal(size=prob.shape[0])
            phi = c_transform(psi, prob.cost)
            assert (psi[:, None] + phi[None, :] <= prob.cost).all()

    def test_optimal_potentials_already_tight(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            prob = random_transport(rng, max_n=8, max_m=8)
            _, pots, _ = solve_transport(prob)
            phi_t = c_transform(pots.psi, prob.cost)
            obj = dual_objective(pots.psi, pots.phi, prob.mu, prob.nu)
            obj_t = dual_objective(pots.psi, phi_t, prob.mu, prob.nu)
            assert obj <= obj_t + 1e-12
            assert abs(obj_t - obj) <= 1e-6


class TestWeakDuality:
    def test_feasible_pairs_random(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            prob = random_transport(rng, max_n=8, max_m=8)
            psi = rng.normal(size=prob.shape[0])
            phi = c_transform(psi, prob.cost)
            total = prob.mu.sum()
            q = np.outer(prob.mu, prob.nu) / total   # independent coupling
            assert coupling_check(q, prob.mu, prob.nu)
            assert (dual_objective(psi, phi, prob.mu, prob.nu)
                    <= float((q * prob.cost).sum()) + 1e-9)


class TestMonotoneMatching:
    def test_sorted_line_closed_form(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            xs = np.sort(rng.normal(size=n))
            ys = np.sort(rng.normal(size=n))
            cost = np.abs(xs[:, None] - ys[None, :])
            prob = TransportProblem(cost=cost, mu=np.ones(n) / n, nu=np.ones(n) / n)
            _, _, value = solve_transport(prob)
            expect = float(np.abs(xs - ys).sum() / n)
            assert abs(value - expect) <= 1e-9


class TestKantorovichReport:
    def test_small_instances(self):
        rng = np.random.default_rng(58)
        for _ in range(40):
            prob = random_transport(rng, max_n=10, max_m=10)
            rep = kantorovich_gap_report(prob)
            assert rep.gap <= 1e-6
            assert rep.slack_violations == 0

    def test_forced_instance_values(self):
        rep = kantorovich_gap_report(
            TransportProblem(cost=[[0.0, 1.0], [1.0, 0.0]],
                             mu=[1.0, 0.0], nu=[0.0, 1.0]))
        assert rep.primal == 1.0 and rep.dual == 1.0

    def test_single_cell_report(self):
        rep = kantorovich_gap_report(
            TransportProblem(cost=[[7.0]], mu=[2.0], nu=[2.0]))
        assert rep.gap == 0.0 and rep.dual == 14.0  # mu_1 * c_11

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    @pytest.mark.parametrize("zero_value", [False, True], ids=["generic", "zero-value"])
    def test_large_costs(self, scale, zero_value):
        """The audit's tolerances scale with the costs, as the pivot loop's
        stopping test does."""
        rng = np.random.default_rng(3)
        for _ in range(40):
            prob = large_cost_transport(rng, *rng.integers(2, 30, 2), scale)
            if zero_value:  # zero cost on the north-west corner plan's cells
                cost = prob.cost.copy()
                for i, j, q in _northwest_start(prob.mu, prob.nu):
                    if q > 0:
                        cost[i, j] = 0.0
                prob = TransportProblem(cost=cost, mu=prob.mu, nu=prob.nu)
            rep = kantorovich_gap_report(prob)
            assert rep.slack_violations == 0
            assert rep.dual == 0.0 if zero_value else rep.dual > 0.0


class TestCouplingCheck:
    def setup_method(self):
        self.mu = np.array([0.5, 0.5])
        self.nu = np.array([0.5, 0.5])

    def test_identity_ok(self):
        q = np.diag([0.5, 0.5])
        psi, phi = np.array([1.0, -1.0]), np.array([0.0, 2.0])
        # marginal pairing identity for feasible couplings
        assert coupling_check(q, self.mu, self.nu, [(psi, phi)])

    def test_negative_entry(self):
        q = np.array([[0.6, -0.1], [-0.1, 0.6]])
        assert not coupling_check(q, self.mu, self.nu)

    def test_mass_right_rows_wrong(self):
        q = np.array([[0.25, 0.5], [0.25, 0.0]])
        assert not coupling_check(q, self.mu, self.nu)

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
    def test_accepts_solver_plans_at_large_mass(self, scale):
        # marginals and pairings are audited relative to the mass, like the
        # balance check of TransportProblem, so a plan off by 1e-6 of it fails
        rng = np.random.default_rng(0)
        for _ in range(30):
            base = generic_transport(rng, int(rng.integers(2, 40)), int(rng.integers(2, 40)))
            prob = TransportProblem(cost=base.cost, mu=base.mu * scale, nu=base.nu * scale)
            coupling, pots, _ = solve_transport(prob)
            assert coupling_check(coupling.q, prob.mu, prob.nu, [(pots.psi, pots.phi)])
            off = coupling.q + 1e-6 * scale * np.eye(*coupling.q.shape)
            assert not coupling_check(off, prob.mu, prob.nu)

    def test_submarginal_inequality(self):
        # nonnegative q with sub-marginals pairs below the marginal pairing
        # for nonnegative test functions
        rng = np.random.default_rng(59)
        for _ in range(50):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            mu = rng.uniform(0.1, 1.0, n)
            nu = rng.uniform(0.1, 1.0, m)
            nu *= mu.sum() / nu.sum()
            q = np.outer(mu, nu) / mu.sum()
            q = q * rng.uniform(0.0, 1.0)    # scale down: sub-marginal
            psi = rng.uniform(0.0, 2.0, n)
            phi = rng.uniform(0.0, 2.0, m)
            lhs = float(psi @ mu + phi @ nu)
            rhs = float((q * (psi[:, None] + phi[None, :])).sum())
            assert lhs >= rhs - 1e-12


class TestConicLP:
    def test_worked_example(self):
        rep = conic_lp_dual(ConicLP(pi=[1.0, 2.0], c_vec=[3.0, 4.0]))
        assert rep.primal == 11.0 and rep.dual == 11.0
        assert np.array_equal(rep.q_star, [1.0, 2.0])

    def test_negative_component_unbounded(self):
        rep = conic_lp_dual(ConicLP(pi=[1.0, -0.5], c_vec=[0.0, 0.0]))
        assert rep.primal.is_minus_inf and rep.dual.is_minus_inf
        assert rep.q_star is None

    def test_zero_pi(self):
        rep = conic_lp_dual(ConicLP(pi=[0.0, 0.0], c_vec=[5.0, -5.0]))
        assert rep.primal == 0.0 and np.array_equal(rep.q_star, [0.0, 0.0])

    @pytest.mark.parametrize("pi, c", CONIC_OVERFLOWS, ids=["minus_inf", "plus_inf"])
    def test_optimum_overflow_rejected(self, pi, c):
        # the optima are -2e616 and 3e308 + 8, outside the doubles
        with pytest.raises(ImproperInput, match="overflows the doubles"):
            conic_lp_dual(ConicLP(pi=pi, c_vec=c))

    def test_exact_zero_optimum(self):
        # pi @ c overflows to inf, but the exact optimum 1e616 - 1e616 is 0
        rep = conic_lp_dual(ConicLP(pi=[1e308, 1e308], c_vec=[1e308, -1e308]))
        assert same_bits(rep.primal, 0.0) and same_bits(rep.dual, 0.0)

    def test_optimum_rounded_once(self):
        # the doubles 0.1 * 3 - 0.3 make about 2.78e-17 exactly; rounding
        # the product first, as pi @ c does, gives 5.55e-17
        rep = conic_lp_dual(ConicLP(pi=[0.1, 1.0], c_vec=[3.0, -0.3]))
        assert rep.primal == 2.7755575615628914e-17

    def test_against_lp_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            pi = rng.normal(size=n)
            if rng.random() < 0.5:
                pi = np.abs(pi)
            c = rng.normal(size=n)
            rep = conic_lp_dual(ConicLP(pi=pi, c_vec=c))
            res = linprog(c=pi, bounds=[(ci, None) for ci in c], method="highs")
            if (pi >= 0).all():
                assert res.status == 0
                assert abs(rep.primal.as_float() - res.fun) <= 1e-9
            else:
                assert res.status == 3  # unbounded
                assert rep.primal.is_minus_inf
