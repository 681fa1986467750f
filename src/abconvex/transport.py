"""Discrete Kantorovich duality and finite conic LP duality.

The coupling problem (minimize total cost over nonnegative matrices with
prescribed marginals) is solved by a transportation simplex on the bipartite
flow network: north-west-corner start, row/column potentials read off the
spanning-tree basis, epsilon-perturbed marginals against degeneracy with
Bland's rule as the anti-cycling backstop.  The optimal basis certifies the
feasible-potentials maximum simultaneously, which is the discrete strong
duality statement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ExtReal, MINUS_INF, sub_up
from .errors import Unbalanced

MARGINAL_TOL = 1e-9
GAP_TOL = 1e-6
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TransportProblem:
    """Finite cost matrix with balanced nonnegative marginals."""

    cost: np.ndarray  # (n, m)
    mu: np.ndarray    # (n,)
    nu: np.ndarray    # (m,)

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
            raise ValueError("cost must be a nonempty matrix")
        if cost.shape != (mu.shape[0], nu.shape[0]):
            raise ValueError("marginal lengths must match the cost matrix")
        if not np.isfinite(cost).all():
            raise ValueError("cost entries must be finite")
        if not (np.isfinite(mu).all() and np.isfinite(nu).all()):
            raise ValueError("marginals must be finite")
        if (mu < 0).any() or (nu < 0).any():
            raise ValueError("marginals must be nonnegative")
        total_mu, total_nu = float(mu.sum()), float(nu.sum())
        if abs(total_mu - total_nu) > 1e-12 * max(1.0, abs(total_mu)):
            raise Unbalanced(f"sum(mu)={total_mu} != sum(nu)={total_nu}")
        for name, arr in (("cost", cost), ("mu", mu), ("nu", nu)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cost.shape


@dataclass(frozen=True)
class Coupling:
    """A feasible transport plan (nonnegative, prescribed marginals)."""

    q: np.ndarray


@dataclass(frozen=True)
class Potentials:
    """A dual-feasible pair: psi_i + phi_j <= cost_ij (within 1e-9)."""

    psi: np.ndarray
    phi: np.ndarray


class _PivotLimit(Exception):
    pass


def _northwest_start(mu: np.ndarray, nu: np.ndarray):
    """Initial spanning-tree basis: exactly n + m - 1 cells."""
    n, m = mu.shape[0], nu.shape[0]
    alloc = np.zeros((n, m))
    basis = []
    supply = mu.copy()
    demand = nu.copy()
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        alloc[i, j] = q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if (supply[i] <= demand[j] and i < n - 1) or j == m - 1:
            i += 1
        else:
            j += 1
    return alloc, basis


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


def _solve_tree_alloc(n: int, m: int, basis, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Unique allocation on a spanning-tree basis, by leaf elimination."""
    alloc = np.zeros((n, m))
    rem = np.concatenate([mu.astype(float), nu.astype(float)])
    adj = _build_adj(n, m, basis)
    degree = {k: len(adj[k]) for k in adj}
    leaves = deque(k for k in adj if degree[k] == 1)
    removed = set()
    while leaves:
        node = leaves.popleft()
        if node in removed or degree[node] == 0:
            continue
        nb = next(iter(adj[node]))
        q = rem[node]
        if node < n:
            alloc[node, nb - n] = q
        else:
            alloc[nb, node - n] = q
        rem[nb] -= q
        rem[node] = 0.0
        adj[node].discard(nb)
        adj[nb].discard(node)
        degree[node] -= 1
        degree[nb] -= 1
        removed.add(node)
        if degree[nb] == 1:
            leaves.append(nb)
    return alloc


def _simplex_pivots(cost, mu, nu, bland: bool, max_pivots: int):
    """Run the pivot loop; returns (basis, alloc) on the given marginals."""
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
                return list(basis_set), alloc
            flat = int(cand[0])
        else:
            flat = int(red.argmin())
            if red.ravel()[flat] >= -enter_tol:
                return list(basis_set), alloc
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
    raise _PivotLimit


def solve_transport(prob: TransportProblem):
    """Optimal coupling, dual-feasible potentials from the final basis, and the
    shared optimal value.

    Degeneracy is handled by a deterministic epsilon-perturbation of the
    supplies during pivoting; reported allocations are re-solved on the true
    marginals so the perturbation never leaks into results.
    """
    cost, mu, nu = prob.cost, prob.mu, prob.nu
    n, m = cost.shape
    scale = max(1.0, float(mu.sum()))
    eps0 = scale * 1e-10 / (n + m)
    mu_p = mu + eps0 * (np.arange(n) + 1.0)
    nu_p = nu.copy()
    nu_p[-1] += eps0 * (n * (n + 1) / 2.0)
    max_pivots = 400 * (n + m) + 200

    try:
        basis, _ = _simplex_pivots(cost, mu_p, nu_p, bland=False,
                                   max_pivots=max_pivots)
    except _PivotLimit:
        basis, _ = _simplex_pivots(cost, mu, nu, bland=True,
                                   max_pivots=20 * max_pivots)

    q = _solve_tree_alloc(n, m, basis, mu, nu)
    tiny = 1e-7 * scale
    if q.min() < -tiny:
        # perturbed-optimal basis infeasible for the true marginals: rare;
        # rerun with Bland's rule on the unperturbed data
        basis, _ = _simplex_pivots(cost, mu, nu, bland=True,
                                   max_pivots=20 * max_pivots)
        q = _solve_tree_alloc(n, m, basis, mu, nu)
    q[q < 0] = 0.0

    adj = _build_adj(n, m, basis)
    u, v = _duals_from_basis(cost, basis, adj)
    red_min = float((cost - u[:, None] - v[None, :]).min())
    if red_min < -SLACK_TOL:
        raise AssertionError("final basis is not dual feasible")

    value = float((q * cost).sum())
    return Coupling(q=q), Potentials(psi=u, phi=v), value


def c_transform(psi: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Tightest feasible column potentials for fixed row potentials:
    phi_j = min_i (cost_ij - psi_i).  Never lowers the dual objective.

    The subtraction rounds downward (fl_down(x) = -fl_up(-x)), which keeps
    feasibility exact and makes two alternating sweeps a bit-exact fixed point.
    """
    psi = np.asarray(psi, dtype=float)
    cost = np.asarray(cost, dtype=float)
    return -(sub_up(psi[:, None], cost).max(axis=0))


def dual_objective(psi, phi, mu, nu) -> float:
    return float(np.asarray(psi) @ np.asarray(mu) + np.asarray(phi) @ np.asarray(nu))


@dataclass(frozen=True)
class KantorovichReport:
    """Strong-duality audit: potentials maximum vs coupling minimum."""

    primal: float            # best feasible-potentials pairing (maximization)
    dual: float              # optimal coupling cost (minimization)
    gap: float
    slack_violations: int
    orientation: str = "potentials maximized, coupling minimized"


def kantorovich_gap_report(prob: TransportProblem, solved=None) -> KantorovichReport:
    """Solve the instance and assert the two optima agree to 1e-6, counting
    complementary-slackness breaches (there must be none).

    ``solved`` is the ``(coupling, potentials, value)`` triple that
    ``solve_transport(prob)`` returned, for callers that already have it; the
    solver is deterministic, so the audit is the same either way."""
    coupling, pots, value = solve_transport(prob) if solved is None else solved
    primal = dual_objective(pots.psi, pots.phi, prob.mu, prob.nu)
    gap = abs(primal - value)
    if not gap <= GAP_TOL:
        raise AssertionError(f"strong duality failed: |{primal} - {value}| > {GAP_TOL}")
    support = coupling.q > 1e-12 * max(1.0, float(prob.mu.sum()))
    slack = prob.cost - pots.psi[:, None] - pots.phi[None, :]
    violations = int((np.abs(slack[support]) > SLACK_TOL).sum())
    return KantorovichReport(primal=primal, dual=value, gap=gap,
                             slack_violations=violations)


def coupling_check(q, mu, nu, pairing_tests: Sequence[tuple] = ()) -> bool:
    """Nonnegativity, marginal, and pairing-identity audit of a proposed plan."""
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if q.shape != (mu.shape[0], nu.shape[0]):
        raise ValueError("coupling shape must match the marginals")
    if (q < 0).any():
        return False
    if np.abs(q.sum(axis=1) - mu).max() > MARGINAL_TOL:
        return False
    if np.abs(q.sum(axis=0) - nu).max() > MARGINAL_TOL:
        return False
    for psi, phi in pairing_tests:
        psi = np.asarray(psi, dtype=float)
        phi = np.asarray(phi, dtype=float)
        lhs = float(psi @ mu + phi @ nu)
        rhs = float((q * (psi[:, None] + phi[None, :])).sum())
        if abs(lhs - rhs) > MARGINAL_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Finite conic LP duality (nonnegative-orthant cone)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicLP:
    """Minimize <pi, f> over f - c in the nonnegative orthant."""

    pi: np.ndarray
    c_vec: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        c = np.asarray(self.c_vec, dtype=float)
        if pi.shape != c.shape or pi.ndim != 1:
            raise ValueError("pi and c_vec must be 1-D of equal length")
        if not (np.isfinite(pi).all() and np.isfinite(c).all()):
            raise ValueError("conic LP data must be finite")
        for name, arr in (("pi", pi), ("c_vec", c)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ConicReport:
    primal: ExtReal
    dual: ExtReal
    q_star: Optional[np.ndarray]


def conic_lp_dual(lp: ConicLP) -> ConicReport:
    """Closed-form primal and dual of the orthant-cone LP.

    With pi >= 0 the optimum sits at f = c with multiplier q* = pi; any
    negative component of pi gives an unbounded descent direction, so both
    values are -inf and no multiplier exists.
    """
    pi, c = lp.pi, lp.c_vec
    if (pi >= 0).all():
        val = ExtReal(float(pi @ c))
        report = ConicReport(primal=val, dual=val, q_star=pi.copy())
    else:
        report = ConicReport(primal=MINUS_INF, dual=MINUS_INF, q_star=None)
    if report.primal != report.dual:  # pragma: no cover - structural identity
        raise AssertionError("conic primal/dual mismatch")
    return report
