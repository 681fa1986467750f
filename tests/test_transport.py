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

from conftest import (
    CONIC_OVERFLOWS,
    degenerate_transport,
    generic_transport,
    large_cost_transport,
    random_transport,
    same_bits,
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
# oracle: verbatim, except that its budget exception is now the public
# SolverLimit and that it returns its final potentials, not its allocation.
# _build_adj and _duals_from_basis are the library's former helpers, which
# recomputed the potentials of the final basis by a breadth-first search
# ---------------------------------------------------------------------------

def _build_adj(n: int, m: int, basis) -> dict[int, set]:
    adj: dict[int, set] = {k: set() for k in range(n + m)}
    for (i, j) in basis:
        adj[i].add(n + j)
        adj[n + j].add(i)
    return adj


def _duals_from_basis(cost: np.ndarray, basis, adj) -> tuple[np.ndarray, np.ndarray]:
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m)
    seen = np.zeros(n + m, dtype=bool)
    seen[0] = True
    dq = deque([0])
    while dq:
        node = dq.popleft()
        for nb in adj[node]:
            if seen[nb]:
                continue
            if node < n:  # row -> column
                v[nb - n] = cost[node, nb - n] - u[node]
            else:         # column -> row
                u[nb] = cost[nb, node - n] - v[node - n]
            seen[nb] = True
            dq.append(nb)
    if not seen.all():
        raise AssertionError("basis graph is not a spanning tree")
    return u, v


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


def _bfs_simplex_pivots(cost, mu, nu, bland: bool, max_pivots: int):
    """Run the pivot loop on the given marginals; returns the final basis and
    its potentials by breadth-first search (rows first, then columns)."""
    n, m = cost.shape
    cscale = max(1.0, float(np.abs(cost).max()))
    enter_tol = 1e-12 * cscale
    alloc, basis = _northwest_start(mu, nu)
    basis_set = set(basis)
    adj = _build_adj(n, m, basis)

    for _ in range(max_pivots):
        u, v = _duals_from_basis(cost, basis, adj)
        red = cost - u[:, None] - v[None, :]
        for (i, j) in basis_set:
            red[i, j] = 0.0
        if bland:
            cand = np.flatnonzero(red.ravel() < -enter_tol)
            if cand.size == 0:
                return list(basis_set), np.concatenate([u, v])
            flat = int(cand[0])
        else:
            flat = int(red.argmin())
            if red.ravel()[flat] >= -enter_tol:
                return list(basis_set), np.concatenate([u, v])
        ei, ej = divmod(flat, m)

        path = _tree_path(adj, ei, n + ej)
        # cells along the closed cycle: entering gets +theta, then alternate
        minus_cells = []
        plus_cells = [(ei, ej)]
        for k in range(len(path) - 1):
            a, b = path[k], path[k + 1]
            cell = (a, b - n) if a < n else (b, a - n)
            (minus_cells if k % 2 == 0 else plus_cells).append(cell)
        theta = min(alloc[c] for c in minus_cells)
        leaving = min(c for c in minus_cells if alloc[c] == theta)

        for c in plus_cells:
            alloc[c] += theta
        for c in minus_cells:
            alloc[c] -= theta
        alloc[alloc < 0] = 0.0
        alloc[leaving] = 0.0

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


MAKERS = {"generic": generic_transport, "degenerate": degenerate_transport}


class TestRootedTreeKernel:
    """The rooted-tree pivot loop against the breadth-first one it replaced:
    same pivots, so bit-identical bases, potentials, plans and values."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_solve_matches_bfs_kernel(self, kind, monkeypatch):
        rng = np.random.default_rng(71 if kind == "generic" else 72)
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
    @pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
    def test_pivot_loop_matches_bfs_kernel(self, kind, bland):
        rng = np.random.default_rng(73 if kind == "generic" else 74)
        for n, m in _oracle_shapes(rng):
            prob = MAKERS[kind](rng, n, m)
            args = (prob.cost, prob.mu, prob.nu, bland, 400 * (n + m) + 200)
            basis, pot = transport._simplex_pivots(*args)
            ref_basis, ref_pot = _bfs_simplex_pivots(*args)
            assert sorted(basis) == sorted(ref_basis)
            assert len(basis) == n + m - 1
            assert same_bits(pot, ref_pot)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
    def test_pivot_count_matches_bfs_kernel(self, kind, bland, monkeypatch):
        """The budget counts pricing rounds: one per pivot, and the one that
        finds the basis optimal.  Take the oracle's count k from its
        potential recomputations, one per round; both loops then run out of
        pivots at a budget of k - 1 and finish at k.  The instances are
        those of the test above, and for the Dantzig rule one more of the
        benchmark's sizes."""
        rng = np.random.default_rng(73 if kind == "generic" else 74)
        shapes = _oracle_shapes(rng)
        if not bland:
            shapes.append((150, 60) if kind == "generic" else (60, 150))
        for n, m in shapes:
            prob = MAKERS[kind](rng, n, m)
            args = (prob.cost, prob.mu, prob.nu, bland)
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
                assert len(basis) == n + m - 1


class TestSolverLimit:
    def test_bland_rerun_out_of_pivots_raises(self, monkeypatch):
        real = transport._simplex_pivots
        monkeypatch.setattr(
            transport, "_simplex_pivots",
            lambda cost, mu, nu, bland, max_pivots: real(cost, mu, nu, bland, 0))
        prob = random_transport(np.random.default_rng(75), max_n=6, max_m=6)
        with pytest.raises(SolverLimit, match="pivots"):
            solve_transport(prob)

    def test_first_run_out_of_pivots_falls_back_to_bland(self, monkeypatch):
        real = transport._simplex_pivots
        rng = np.random.default_rng(76)
        for _ in range(20):
            prob = random_transport(rng, max_n=12, max_m=12)
            _, _, value = solve_transport(prob)
            with monkeypatch.context() as mp:
                mp.setattr(transport, "_simplex_pivots",
                           lambda cost, mu, nu, bland, max_pivots:
                           real(cost, mu, nu, bland, max_pivots if bland else 0))
                _, _, bland_value = solve_transport(prob)
            assert abs(bland_value - value) <= 1e-9 * max(1.0, abs(value))


class TestBlandFallback:
    def test_infeasible_plan_runs_bland_once(self, monkeypatch):
        """A first plan with a negative entry sends the solve to the Bland
        run, once, and the result is the one of a solve whose Dantzig run
        had no pivots at all."""
        real_pivots, real_alloc = transport._simplex_pivots, transport._solve_tree_alloc
        rng = np.random.default_rng(79)
        for kind in sorted(MAKERS):
            for _ in range(10):
                prob = MAKERS[kind](rng, *(int(v) for v in rng.integers(1, 13, 2)))
                with monkeypatch.context() as mp:
                    mp.setattr(transport, "_simplex_pivots",
                               lambda cost, mu, nu, bland, max_pivots:
                               real_pivots(cost, mu, nu, bland, max_pivots if bland else 0))
                    want = solve_transport(prob)

                runs, plans = [], []

                def pivots(cost, mu, nu, bland, max_pivots):
                    runs.append(bland)
                    return real_pivots(cost, mu, nu, bland, max_pivots)

                def first_plan_negative(*args):
                    q = real_alloc(*args)
                    if not plans:
                        q[0, 0] = -1.0
                    plans.append(q)
                    return q

                with monkeypatch.context() as mp:
                    mp.setattr(transport, "_simplex_pivots", pivots)
                    mp.setattr(transport, "_solve_tree_alloc", first_plan_negative)
                    got = solve_transport(prob)
                assert runs == [False, True] and len(plans) == 2
                assert same_bits(got[0].q, want[0].q)
                assert same_bits(got[1].psi, want[1].psi)
                assert same_bits(got[1].phi, want[1].phi)
                assert same_bits(got[2], want[2])


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
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_value_matches_highs_50x50(self, kind):
        rng = np.random.default_rng(77 if kind == "generic" else 78)
        for _ in range(6):
            prob = MAKERS[kind](rng, 50, 50)
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
                cost[_northwest_start(prob.mu, prob.nu)[0] > 0] = 0.0
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

    @pytest.mark.parametrize("pi, c", CONIC_OVERFLOWS, ids=["minus_inf", "zero", "plus_inf"])
    def test_optimum_overflow_rejected(self, pi, c):
        # the optima are -2e616, 0 and 3e308 + 8: pi @ c overflows in each,
        # also where the optimum (0) is a double
        with pytest.raises(ImproperInput, match="overflows the doubles"):
            conic_lp_dual(ConicLP(pi=pi, c_vec=c))

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
