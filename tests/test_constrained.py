"""Indicator perturbations, cone/quadratic Lagrangians, zero-gap ladders."""

import math
import warnings

import numpy as np
import pytest

from abconvex import (
    ConstrainedInstance,
    ConstraintMap,
    DualGrid,
    ElemFamily,
    ElemParams,
    GridFn,
    build_constrained_perturbation,
    build_lagrangian,
    eval_on_domain,
    metric_grid_sup,
    metric_dual_grid,
    metric_primal_sup,
    phi_lsc_set_separation,
    verify_zero_gap_metric,
)
from abconvex.errors import BadParams, ImproperInput, ImproperObjective, NotSeparable

from conftest import line_space, old_lagrangian, random_constrained, same_bits


def worked_2x2():
    """X = {x1, x2}, Y = {y1, y2} at distance 1, y0 = y1, A(y1) = {x1},
    A(y2) = {x1, x2}, f = (2, 0)."""
    Y = line_space([0.0, 1.0])
    cmap = ConstraintMap(feasible=(frozenset({0}), frozenset({0, 1})), n_x=2)
    return ConstrainedInstance(f=GridFn(2, [2.0, 0.0]), map=cmap, Y=Y, y0=0)


def empty_anchor():
    """One argument, feasible at y2 only: the anchor y0 = y1 has none."""
    Y = line_space([0.0, 1.0])
    cmap = ConstraintMap(feasible=(frozenset(), frozenset({0})), n_x=1,
                         allow_empty=True)
    return ConstrainedInstance(f=GridFn(1, [1.0]), map=cmap, Y=Y, y0=0)


def lagrangian_columns(inst, family, params):
    """L[:, j]: the Lagrangian of the constrained perturbation for params[j]."""
    grid = DualGrid(family, tuple(params))
    return build_lagrangian(build_constrained_perturbation(inst), grid).L


class TestConstraintMap:
    def test_bidirectional_consistency(self):
        cmap = ConstraintMap(feasible=(frozenset({0, 2}), frozenset({1})), n_x=3)
        for x in range(3):
            for y in range(2):
                assert (x in cmap.feasible[y]) == cmap.mask[x, y]

    def test_empty_needs_flag(self):
        with pytest.raises(ValueError):
            ConstraintMap(feasible=(frozenset(), frozenset({0})), n_x=1)
        cmap = ConstraintMap(feasible=(frozenset(), frozenset({0})), n_x=1,
                             allow_empty=True)
        assert cmap.feasible[0] == frozenset()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConstraintMap(feasible=(frozenset({5}),), n_x=2)


class TestBuildPerturbation:
    def test_unconstrained_constant(self):
        Y = line_space([0.0, 1.0])
        cmap = ConstraintMap(feasible=(frozenset({0, 1}), frozenset({0, 1})), n_x=2)
        inst = ConstrainedInstance(f=GridFn(2, [0.0, 0.0]), map=cmap, Y=Y, y0=0)
        prob = build_constrained_perturbation(inst)
        assert np.array_equal(prob.p, np.zeros((2, 2)))

    def test_infeasible_cell_is_plus_inf(self):
        inst = worked_2x2()
        prob = build_constrained_perturbation(inst)
        assert np.array_equal(prob.p, np.array([[2.0, 2.0], [np.inf, 0.0]]))

    def test_improper_objective_rejected(self):
        Y = line_space([0.0, 1.0])
        cmap = ConstraintMap(feasible=(frozenset({0}), frozenset({0})), n_x=1)
        with pytest.raises(ImproperObjective):
            ConstrainedInstance(f=GridFn(1, [-np.inf]), map=cmap, Y=Y, y0=0)


class TestMetricLagrangian:
    def test_worked_values(self):
        inst = worked_2x2()
        L = lagrangian_columns(inst, ElemFamily.metric(inst.Y),
                               [ElemParams(a=2.0, anchor=0), ElemParams(a=1.0, anchor=0)])
        assert np.array_equal(L[:, 0], [2.0, 2.0])
        assert np.array_equal(L[:, 1], [2.0, 1.0])

    def test_anchor_at_y0_feasible_gives_f(self):
        inst = worked_2x2()
        L = lagrangian_columns(inst, ElemFamily.metric(inst.Y),
                               [ElemParams(a=a, anchor=0) for a in (0.5, 1.0, 3.0, 10.0)])
        assert (L[0] == 2.0).all()  # x1 feasible at y0

    def test_empty_inverse_set_gives_inf(self):
        Y = line_space([0.0, 1.0])
        cmap = ConstraintMap(feasible=(frozenset({0}), frozenset({0})), n_x=2)
        inst = ConstrainedInstance(f=GridFn(2, [1.0, 1.0]), map=cmap, Y=Y, y0=0)
        L = lagrangian_columns(inst, ElemFamily.metric(inst.Y), [ElemParams(a=1.0, anchor=0)])
        assert np.isposinf(L[1, 0]) and np.isfinite(L[0, 0])


class TestQuadLagrangian:
    def test_singleton_inverse_is_objective(self):
        Y = line_space([0.0, 1.0])
        cmap = ConstraintMap(feasible=(frozenset({0}), frozenset()), n_x=1,
                             allow_empty=True)
        inst = ConstrainedInstance(f=GridFn(1, [3.0]), map=cmap, Y=Y, y0=0)
        # G(x) = {y0}: the envelope collapses there
        L = lagrangian_columns(inst, ElemFamily.quad_minus(Y), [ElemParams(a=1.0, ell=[0.0])])
        assert L[0, 0] == 3.0

    def test_zero_curvature_matches_affine_multiplier(self):
        rng = np.random.default_rng(42)
        inst = random_constrained(rng, max_x=6, max_y=6)
        prob = build_constrained_perturbation(inst)
        u = [0.7]
        grid = DualGrid(ElemFamily.affine(inst.Y), (ElemParams(ell=u),))
        table = build_lagrangian(prob, grid)
        quad = lagrangian_columns(inst, ElemFamily.quad_minus(inst.Y), [ElemParams(a=0.0, ell=u)])
        assert np.array_equal(quad[:, 0], table.L[:, 0])
        assert np.array_equal(quad[:, 0], old_lagrangian(prob, grid)[:, 0])

    def test_worked_one_dim(self):
        Y = line_space([-1.0, 0.0, 1.0])
        cmap = ConstraintMap(
            feasible=(frozenset({0}), frozenset(), frozenset({0})), n_x=1,
            allow_empty=True)
        inst = ConstrainedInstance(f=GridFn(1, [0.0]), map=cmap, Y=Y, y0=1)
        # sup over {-1, 1} of -y^2 is -1, so L = 0 - (-1) = 1
        L = lagrangian_columns(inst, ElemFamily.quad_minus(Y), [ElemParams(a=1.0, ell=[0.0])])
        assert L[0, 0] == 1.0


class TestMetricPrimalSup:
    def test_feasible_exact(self):
        inst = worked_2x2()
        assert metric_primal_sup(inst, 0) == 2.0

    def test_infeasible_plus_inf(self):
        inst = worked_2x2()
        assert metric_primal_sup(inst, 1).is_plus_inf

    def test_grid_sup_monotone_and_anchored(self):
        inst = worked_2x2()
        ladder = [1.0, 2.0, 4.0, 8.0]
        sup0 = metric_grid_sup(inst, 0, ladder)
        assert np.array_equal(sup0, np.full(4, 2.0))
        sup1 = metric_grid_sup(inst, 1, ladder)
        assert (np.diff(sup1) > 0).all()

    def test_divergence_slope_matches_distance(self):
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(60):
            inst = random_constrained(rng, max_x=6, max_y=6)
            ladder = [1.0, 2.0]
            for x in range(inst.n_x):
                if inst.map.mask[x, inst.y0]:
                    assert metric_primal_sup(inst, x) == float(inst.f.values[x])
                    continue
                row = inst.map.mask[x]
                if not row.any():
                    assert metric_primal_sup(inst, x).is_plus_inf
                    continue
                dist = inst.Y.dist[inst.y0][row].min()
                sup = metric_grid_sup(inst, x, ladder)
                slope = (sup[1] - sup[0]) / (ladder[1] - ladder[0])
                assert abs(slope - dist) <= 1e-9 * max(1.0, dist)
                checked += 1
        assert checked > 20


class TestRungOverflow:
    """A rung of 1e308 at distance 2 overflows the doubles: the metric
    dual grid and the finite-ladder sup name the overflow, with no
    RuntimeWarning."""

    def setup_method(self):
        cmap = ConstraintMap(feasible=(frozenset({0}), frozenset({0, 1})), n_x=2)
        self.inst = ConstrainedInstance(f=GridFn(2, [2.0, 0.0]), map=cmap,
                                        Y=line_space([0.0, 2.0]), y0=0)

    @pytest.mark.parametrize("make", [
        lambda inst: metric_dual_grid(inst, (1.0, 1e308)),
        lambda inst: metric_grid_sup(inst, 1, (1.0, 1e308)),
        lambda inst: verify_zero_gap_metric(inst, (1.0, 1e308)),
    ], ids=["metric_dual_grid", "metric_grid_sup", "verify_zero_gap_metric"])
    def test_names_the_overflow(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImproperInput, match="^member values overflow the doubles$"):
                make(self.inst)


class TestVerifyZeroGap:
    def test_worked_instance(self):
        rep = verify_zero_gap_metric(worked_2x2(), (1.0, 2.0, 4.0))
        assert rep.duality.primal == 2.0 and rep.duality.dual == 2.0
        assert rep.minimal_rung == 2.0
        assert rep.proof_bound == 2.0
        assert rep.anchor_feasible

    def test_unconstrained_closes_at_first_rung(self):
        Y = line_space([0.0, 1.0, 2.0])
        full = frozenset({0, 1})
        cmap = ConstraintMap(feasible=(full, full, full), n_x=2)
        inst = ConstrainedInstance(f=GridFn(2, [1.0, -1.0]), map=cmap, Y=Y, y0=0)
        rep = verify_zero_gap_metric(inst, (1.0, 2.0))
        assert rep.minimal_rung == 1.0 and rep.proof_bound == 0.0
        assert rep.duality.gap == 0.0

    def test_empty_anchor_flagged_not_rejected(self):
        rep = verify_zero_gap_metric(empty_anchor(), (1.0, 2.0))
        assert not rep.anchor_feasible
        assert rep.constrained_value.is_plus_inf
        # the grid primal merely truncates the divergent multiplier sup
        assert math.isfinite(rep.duality.primal)

    def test_randomized_gap_closes(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            inst = random_constrained(rng, max_x=10, max_y=10)
            rep = verify_zero_gap_metric(inst, tuple(2.0 ** k for k in range(9)))
            assert rep.ladder[-1] >= rep.proof_bound
            assert rep.duality.gap <= 1e-9
            assert rep.minimal_rung is not None

    def test_repeated_rungs_listed_once(self):
        # a ladder with repeated, unsorted rungs reports as its sorted set
        rng = np.random.default_rng(46)
        for inst in [worked_2x2()] + [random_constrained(rng, max_x=8, max_y=8) for _ in range(20)]:
            rep = verify_zero_gap_metric(inst, (4.0, 1.0, 2.0, 2.0, 1.0))
            want = verify_zero_gap_metric(inst, (1.0, 2.0, 4.0))
            assert rep.ladder == want.ladder == (1.0, 2.0, 4.0)
            for name in ("constrained_value", "minimal_rung", "proof_bound", "anchor_feasible"):
                assert getattr(rep, name) == getattr(want, name)
            got, exp = rep.duality, want.duality
            for name in ("primal", "dual", "gap", "V_bidual_at_y0", "reconstruction_ok",
                         "convexity_holds"):
                assert getattr(got, name) == getattr(exp, name)
            assert same_bits(got.V_star, exp.V_star) and same_bits(got.table.L, exp.table.L)

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            verify_zero_gap_metric(worked_2x2(), (0.0, 1.0))

    def test_nonpositive_rung_beside_nan_rejected(self):
        # a set of distinct NaN objects iterates in an order set by their ids,
        # which sorted() cannot repair; the rejection must not follow it
        nans = [float("nan") for _ in range(50)]
        for bad in (0.0, -0.0, -1.0, -np.inf):
            for nan in nans:
                with pytest.raises(ValueError, match="^the rung ladder must contain positive"):
                    verify_zero_gap_metric(worked_2x2(), (nan, bad, 1.0))
        with pytest.raises(BadParams, match="^a must be finite$"):
            verify_zero_gap_metric(worked_2x2(), (nans[0], 1.0))

    def test_overflowing_bound_quotient_warns_nothing(self):
        # (primal - f(x)) / d(y0, G(x)) = (-2e300 - 2e300) / 1e-100 overflows
        # to -inf, which leaves the bound at 0.0
        Y = line_space([0.0, 1e-100, 2e-100])
        cmap = ConstraintMap(feasible=(frozenset(), frozenset({0}), frozenset({1})), n_x=2,
                             allow_empty=True)
        inst = ConstrainedInstance(f=GridFn(2, [2e300, -2e300]), map=cmap, Y=Y, y0=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_zero_gap_metric(inst, (1.0,))
        assert same_bits(rep.duality.primal.as_float(), -2e300)
        assert same_bits(rep.proof_bound, 0.0)

    @pytest.mark.parametrize("make", [worked_2x2, empty_anchor])
    def test_rejects_nan_tol(self, make):
        with pytest.raises(ValueError, match="tol"):
            verify_zero_gap_metric(make(), (1.0, 2.0), tol=float("nan"))


class TestSeparation:
    def test_affine_case(self):
        space = line_space([-1.0, 0.0, 1.0, 2.0])
        params = phi_lsc_set_separation(space, {0, 1, 2}, 3)
        assert params.a == 0.0
        assert params.ell[0] == 2.0 and params.c == -2.0
        fam = ElemFamily.quad_minus(space)
        vals = eval_on_domain(fam, params)
        assert vals[3] == 2.0 and (vals[:3] <= 0.0).all()

    def test_nonconvex_needs_curvature(self):
        space = line_space([-1.0, 0.0, 1.0])
        params = phi_lsc_set_separation(space, {0, 2}, 1)
        assert (params.a, params.ell[0], params.c) == (1.0, 0.0, 0.5)
        fam = ElemFamily.quad_minus(space)
        vals = eval_on_domain(fam, params)
        assert vals[1] == 0.5 and vals[0] == -0.5 and vals[2] == -0.5

    def test_singleton_far_point(self):
        space = line_space([0.0, 5.0])
        params = phi_lsc_set_separation(space, {0}, 1)
        assert params.a == 0.0  # affinely separable
        fam = ElemFamily.quad_minus(space)
        vals = eval_on_domain(fam, params)
        assert vals[1] > 0.0 and vals[0] <= 0.0

    def test_soundness_randomized(self):
        rng = np.random.default_rng(46)
        for _ in range(150):
            n = int(rng.integers(2, 15))
            pts = rng.normal(size=(n, int(rng.integers(1, 3)))) * 2
            space = None
            try:
                from abconvex import build_metric_space
                space = build_metric_space(pts)
            except Exception:
                continue
            p_out = int(rng.integers(n))
            others = [i for i in range(n) if i != p_out]
            size = int(rng.integers(1, len(others) + 1))
            C = rng.choice(others, size=size, replace=False).tolist()
            params = phi_lsc_set_separation(space, C, p_out)
            fam = ElemFamily.quad_minus(space)
            vals = eval_on_domain(fam, params)
            assert vals[p_out] > 0.0
            assert (vals[sorted(C)] <= 0.0).all()

    def test_not_separable_inside_the_hull(self):
        # with no rungs only the affine candidate is tried: through the
        # centroid 2.5 of C its values are -1.5 x, so p_out = 1 gets -1.5
        space = line_space([0.0, 1.0, 2.0, 5.0])
        with pytest.raises(NotSeparable, match=r"best margin -1\.5\)$") as err:
            phi_lsc_set_separation(space, {0, 3}, 1, ladder=())
        assert err.value.best_margin == -1.5

    def test_validation(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(ValueError):
            phi_lsc_set_separation(space, set(), 0)
        with pytest.raises(ValueError):
            phi_lsc_set_separation(space, {0}, 0)

    def test_numpy_integer_indices_accepted(self):
        space = line_space([0.0, 1.0, 2.0])
        want = phi_lsc_set_separation(space, {1, 2}, 0)
        got = phi_lsc_set_separation(space, np.array([2, 1]), np.int32(0))
        assert (got.a, got.c) == (want.a, want.c) and same_bits(got.ell, want.ell)
        with pytest.raises(ValueError, match="integer point indices"):
            phi_lsc_set_separation(space, {True}, 0)
