"""Discrete Kantorovich duality and finite conic LP duality.

The coupling problem (minimize total cost over nonnegative matrices with
prescribed marginals) is solved by a transportation simplex on the rows and
columns with positive mass: north-west-corner start, row/column potentials
read off the spanning-tree basis, and one pivot loop on the true marginals
that Cunningham's leaving rule keeps strongly feasible, so degenerate pivots
cannot cycle.  The basis is a spanning tree rooted at row 0 in flat per-node
lists (parent, depth, potential, children, and the cost and flow of the basic
cell to the parent); each pivot takes its cycle from the tree paths up to the
lowest common ancestor, reverses the path from the entering to the leaving
arc, and recomputes potentials top-down on the subtree this re-hangs.  The
optimal basis certifies the feasible-potentials maximum simultaneously, which
is the discrete strong duality statement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import ExtReal, MINUS_INF, _freeze, max_sub_up
from .errors import ImproperInput, SolverLimit, Unbalanced

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
            object.__setattr__(self, name, _freeze(arr.copy()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.cost.shape


@dataclass(frozen=True)
class Coupling:
    """A feasible transport plan (nonnegative, prescribed marginals)."""

    q: np.ndarray


@dataclass(frozen=True)
class Potentials:
    """A dual-feasible pair: psi_i + phi_j <= cost_ij, within
    SLACK_TOL * max(1, max|cost|)."""

    psi: np.ndarray
    phi: np.ndarray


def _northwest_start(mu: np.ndarray, nu: np.ndarray) -> list[tuple[int, int, float]]:
    """Initial spanning-tree basis: exactly n + m - 1 cells (i, j, flow), in
    staircase order from (0, 0)."""
    n, m = mu.shape[0], nu.shape[0]
    basis = []
    supply = mu.tolist()
    demand = nu.tolist()
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        basis.append((i, j, q))
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if (supply[i] <= demand[j] and i < n - 1) or j == m - 1:
            i += 1
        else:
            j += 1
    return basis


def _solve_tree_alloc(n: int, m: int, basis, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Unique allocation on a spanning-tree basis, by leaf elimination."""
    alloc = np.zeros((n, m))
    rem = np.concatenate([mu.astype(float), nu.astype(float)])
    adj = [set() for _ in range(n + m)]
    for (i, j) in basis:
        adj[i].add(n + j)
        adj[n + j].add(i)
    leaves = deque(k for k in range(n + m) if len(adj[k]) == 1)
    while leaves:
        node = leaves.popleft()
        if not adj[node]:  # the last node of its tree, or already removed
            continue
        nb = adj[node].pop()
        q = rem[node]
        if node < n:
            alloc[node, nb - n] = q
        else:
            alloc[nb, node - n] = q
        rem[nb] -= q
        rem[node] = 0.0
        adj[nb].discard(node)
        if len(adj[nb]) == 1:
            leaves.append(nb)
    return alloc


def _simplex_pivots(cost, mu, nu, max_pivots: int):
    """Pivot loop on positive marginals; returns the final tree's basic cells
    (i, j) and its potentials (rows first, then columns).  max_pivots counts
    pricing rounds, one more than the pivots.

    The basis is a spanning tree on rows 0..n-1 and columns n..n+m-1, rooted
    at row 0; per node it keeps the parent, the depth, the potential, a
    children list, and the flat index i*m + j, cost and flow of the basic
    cell to its parent.  A pivot walks both ends of the entering arc up to
    their lowest common ancestor, the apex, cuts the leaving arc and reverses
    the tree path from the entering end on the cut-off side up to it, which
    hangs the cut-off subtree from the entering arc; that subtree's depths
    and potentials are recomputed top-down as ``pot[child] = cost -
    pot[parent]``.  The last blocking arc on the cycle walked from the apex in
    the entering arc's direction leaves (Cunningham's rule), so the tree
    stays strongly feasible, each zero-flow cell's row below its column, as
    the north-west start on positive marginals is, and the loop cannot cycle
    (Ahuja, Magnanti & Orlin 1993, Network Flows, section 11.5)."""
    n, m = cost.shape
    enter_tol = 1e-12 * max(1.0, float(np.abs(cost).max()))
    size = n + m
    parent, depth, pot, cell = [-1] * size, [0] * size, [0.0] * size, [-1] * size
    pc, flow, children = [0.0] * size, [0.0] * size, [[] for _ in range(size)]
    # the north-west basis is a staircase from row 0: each cell adds the row
    # or the column that the corner has just moved to, below the other end
    prev = 0
    for (i, j, q) in _northwest_start(mu, nu):
        x, up = (n + j, i) if i == prev else (i, n + j)
        prev, parent[x], depth[x], cell[x] = i, up, depth[up] + 1, i * m + j
        pc[x], flow[x] = cost.item(i, j), q
        pot[x] = pc[x] - pot[up]
        children[up].append(x)
    # numpy mirrors of the potentials and of the basic cells for the reduced
    # costs; a pivot swaps one basic cell, in its slot
    pot_np, basic = np.array(pot), cell[1:]
    basic_np = np.array(basic)
    u, v = pot_np[:n, None], pot_np[None, n:]
    red = np.empty((n, m))
    flat_red = red.ravel()

    for _ in range(max_pivots):
        np.subtract(cost, u, out=red)
        red -= v
        flat_red[basic_np] = 0.0
        flat = int(red.argmin())
        if not -np.inf < flat_red[flat] < -enter_tol:
            break  # optimal, or a reduced cost outside the doubles (NaN or -inf)
        ei, ej = divmod(flat, m)

        # the nodes below the apex on each side, bottom-up; their parent arcs
        # make the tree path from row ei to column ej
        a, b, side_a, side_b = ei, n + ej, [], []
        while a != b:
            if depth[a] > depth[b]:
                side_a.append(a)
                a = parent[a]
            else:
                side_b.append(b)
                b = parent[b]
        # the cycle from the apex down side_a, over the entering arc (+theta)
        # and up side_b: the arcs next to either end of the entering arc lose
        # theta, and the signs alternate from there.  Theta is the least flow
        # on a minus arc; the last such arc in walk order leaves
        minus = side_a[0::2][::-1] + side_b[0::2]
        s = min(minus[::-1], key=flow.__getitem__)
        theta = flow[s]
        for x in side_a[1::2] + side_b[1::2]:
            flow[x] += theta
        for x in minus:
            flow[x] -= theta  # >= 0: theta is their minimum
        slot = basic.index(cell[s])
        basic[slot] = basic_np[slot] = flat

        # s is the lower end of the leaving arc; the entering end on its
        # side becomes the top of the cut-off subtree, hung from the other
        if s in side_a:
            chain, up = side_a[:side_a.index(s) + 1], n + ej
        else:
            chain, up = side_b[:side_b.index(s) + 1], ei
        p, k, c, f = up, flat, cost.item(ei, ej), 0.0 + theta
        for x in chain:
            children[parent[x]].remove(x)
            children[p].append(x)
            parent[x], p = p, x
            cell[x], k = k, cell[x]
            pc[x], c = c, pc[x]
            flow[x], f = f, flow[x]
        top = chain[0]
        depth[top], pot[top] = depth[up] + 1, pc[top] - pot[up]
        order = [top]
        for x in order:
            d, px = depth[x] + 1, pot[x]
            for y in children[x]:
                depth[y], pot[y] = d, pc[y] - px
            order += children[x]
        pot_np[:] = pot
    else:
        raise SolverLimit(f"transportation simplex: no optimal basis within "
                          f"{max_pivots} pivots")
    return [divmod(k, m) for k in basic], pot_np


def solve_transport(prob: TransportProblem):
    """Optimal coupling, dual-feasible potentials from the final basis, and the
    shared optimal value.

    One pivot loop runs on the true marginals of the rows and columns with
    positive mass (row or column 0 when a side has none), as a zero-mass
    column never sits in a strongly feasible tree; its final basis is
    re-solved on them for the plan, and the value is summed over their cells.
    The rows and then the columns left out get zero mass and their
    c-transforms, which are exactly feasible.  Raises ``SolverLimit`` after
    400(n + m) + 200 pricing rounds (one more than the pivots), and
    ``ImproperInput`` when the value, a potential or a reduced cost below zero
    leaves the doubles.  Potentials are dual feasible within SLACK_TOL *
    max(1, max|cost|), the loop's scale.
    """
    cost, mu, nu = prob.cost, prob.mu, prob.nu
    n, m = cost.shape
    rows, cols = (np.flatnonzero(w) if w.any() else np.zeros(1, dtype=np.intp) for w in (mu, nu))
    k = rows.size
    # potentials are alternating sums of costs along tree paths and the value
    # sums mass times cost, so either may leave the doubles; a NaN or -inf
    # reduced cost stops the pivot loop, and the instance is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        basis, pot = _simplex_pivots(cost[rows[:, None], cols], mu[rows], nu[cols],
                                     400 * (n + m) + 200)
        r, c = rows.tolist(), cols.tolist()
        q = _solve_tree_alloc(n, m, [(r[i], c[j]) for i, j in basis], mu, nu)
        if q.min() < -1e-7 * max(1.0, float(mu.sum())):
            raise AssertionError("final plan is infeasible")
        q[q < 0] = 0.0

        psi, phi = np.zeros(n), np.zeros(m)
        psi[rows], phi[cols] = pot[:k], pot[k:]
        if k < n:
            out = np.delete(np.arange(n), rows)
            psi[out] = c_transform(phi[cols], cost[out[:, None], cols].T) + 0.0
        if cols.size < m:
            out = np.delete(np.arange(m), cols)
            phi[out] = c_transform(psi, cost[:, out]) + 0.0
        red_min = float((cost - psi[:, None] - phi[None, :]).min())
        value = float((q * cost)[rows[:, None], cols].sum())
    # a reduced cost of +inf is positive beyond the doubles, and harmless
    if not (math.isfinite(value) and np.isfinite(psi).all() and np.isfinite(phi).all()
            and red_min > -np.inf):
        raise ImproperInput("the transport value, potentials or reduced costs overflow "
                            "the doubles")
    if not red_min >= -SLACK_TOL * max(1.0, float(np.abs(cost).max())):
        raise AssertionError("final basis is not dual feasible")
    return Coupling(q=q), Potentials(psi=psi, phi=phi), value


def c_transform(psi: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Tightest feasible column potentials for fixed row potentials:
    phi_j = min_i (cost_ij - psi_i).  Never lowers the dual objective.

    The subtraction rounds downward (fl_down(x) = -fl_up(-x)), which keeps
    feasibility exact and makes two alternating sweeps a bit-exact fixed point.
    A row with psi_i = -inf bounds no column (cost_ij - psi_i = +inf), so a
    psi of -inf alone gives +inf everywhere.
    """
    psi = np.asarray(psi, dtype=float)
    cost = np.asarray(cost, dtype=float)
    live = ~np.isneginf(psi)
    if not live.all():
        if not live.any():
            return np.full(cost.shape[1], np.inf)
        psi, cost = psi[live], cost[live]
    return -max_sub_up(psi[:, None], cost, 0)


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
    """Solve the instance and assert the two optima agree to GAP_TOL *
    max(1, max|cost| * sum(mu)), counting complementary-slackness breaches
    beyond SLACK_TOL * max(1, max|cost|) (there must be none).  A dual
    objective psi . mu + phi . nu outside the doubles raises ImproperInput.

    ``solved`` is the ``(coupling, potentials, value)`` triple that
    ``solve_transport(prob)`` returned, for callers that already have it; the
    solver is deterministic, so the audit is the same either way."""
    coupling, pots, value = solve_transport(prob) if solved is None else solved
    with np.errstate(over="ignore", invalid="ignore"):
        primal = dual_objective(pots.psi, pots.phi, prob.mu, prob.nu)
        slack = prob.cost - pots.psi[:, None] - pots.phi[None, :]
    if not math.isfinite(primal):
        raise ImproperInput("the transport dual objective overflows the doubles")
    gap = abs(primal - value)
    cmax = float(np.abs(prob.cost).max())
    gap_tol = GAP_TOL * max(1.0, cmax * float(prob.mu.sum()))
    if not gap <= gap_tol:
        raise AssertionError(f"strong duality failed: |{primal} - {value}| > {gap_tol}")
    support = coupling.q > 1e-12 * max(1.0, float(prob.mu.sum()))
    violations = int((np.abs(slack[support]) > SLACK_TOL * max(1.0, cmax)).sum())
    return KantorovichReport(primal=primal, dual=value, gap=gap,
                             slack_violations=violations)


def coupling_check(q, mu, nu, pairing_tests: Sequence[tuple] = ()) -> bool:
    """Nonnegativity, marginal, and pairing-identity audit of a proposed plan,
    to MARGINAL_TOL relative to the mass and to (max|psi| + max|phi|) * mass."""
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if q.shape != (mu.shape[0], nu.shape[0]):
        raise ValueError("coupling shape must match the marginals")
    if (q < 0).any():
        return False
    mass = float(mu.sum())
    tol = MARGINAL_TOL * max(1.0, mass)
    if np.abs(q.sum(axis=1) - mu).max() > tol or np.abs(q.sum(axis=0) - nu).max() > tol:
        return False
    for psi, phi in pairing_tests:
        psi = np.asarray(psi, dtype=float)
        phi = np.asarray(phi, dtype=float)
        lhs = float(psi @ mu + phi @ nu)
        rhs = float((q * (psi[:, None] + phi[None, :])).sum())
        size = (float(np.abs(psi).max()) + float(np.abs(phi).max())) * mass
        if abs(lhs - rhs) > MARGINAL_TOL * max(1.0, size):
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
            object.__setattr__(self, name, _freeze(arr.copy()))


@dataclass(frozen=True)
class ConicReport:
    primal: ExtReal
    dual: ExtReal
    q_star: Optional[np.ndarray]


def _exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> summed exactly in rationals and rounded once to the nearest
    double; OverflowError when that lies outside the doubles."""
    return float(sum(Fraction(x) * Fraction(y) for x, y in zip(a.tolist(), b.tolist())))


def conic_lp_dual(lp: ConicLP) -> ConicReport:
    """Closed-form primal and dual of the orthant-cone LP.

    With pi >= 0 the optimum sits at f = c with multiplier q* = pi; any
    negative component of pi gives an unbounded descent direction, so both
    values are -inf and no multiplier exists.  The optimum <pi, c> is the
    exact sum rounded once; one outside the doubles raises ImproperInput.
    """
    pi, c = lp.pi, lp.c_vec
    if (pi >= 0).all():
        try:
            val = _exact_dot(pi, c)
        except OverflowError:
            raise ImproperInput("the optimum <pi, c> overflows the doubles") from None
        return ConicReport(primal=ExtReal(val), dual=ExtReal(val), q_star=pi.copy())
    return ConicReport(primal=MINUS_INF, dual=MINUS_INF, q_star=None)
