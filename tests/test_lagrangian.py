"""Perturbation problems, Lagrangian tables, duality reports, certificates."""

import warnings

import numpy as np
import pytest

from abconvex import (
    DualGrid,
    ElemFamily,
    ElemParams,
    GridFn,
    PerturbationProblem,
    biconjugate,
    build_lagrangian,
    concavity_probe,
    duality_report,
    gap_certificate,
    lsc_defect,
)
from abconvex.errors import (
    ImproperInput,
    ImproperProblem,
    LevelAbovePrimal,
    NotConvexCombinable,
)

from conftest import (
    LAGRANGIAN_OVERFLOWS,
    brute_duality_values,
    lagrangian_overflow,
    line_space,
    random_perturbation,
    spaced_line,
)


def five_grid():
    return line_space([-1.0, -0.5, 0.0, 0.5, 1.0])


def affine_grid(space, slopes):
    return DualGrid(ElemFamily.affine(space),
                    tuple(ElemParams(ell=[s]) for s in slopes))


def vee_down_problem():
    """V(y) = -|y| realized as the minimum of two affine perturbation rows."""
    Y = five_grid()
    ys = Y.points[:, 0]
    return PerturbationProblem(Y=Y, p=np.vstack([ys, -ys]), y0=2)


def vee_up_problem():
    Y = five_grid()
    return PerturbationProblem(Y=Y, p=np.abs(Y.points[:, 0])[None, :], y0=2)


class TestPerturbationProblem:
    def test_minus_inf_rejected(self):
        Y = line_space([0.0, 1.0])
        with pytest.raises(ImproperProblem):
            PerturbationProblem(Y=Y, p=[[0.0, -np.inf]], y0=0)

    def test_improper_column_rejected(self):
        Y = line_space([0.0, 1.0])
        with pytest.raises(ImproperProblem):
            PerturbationProblem(Y=Y, p=[[0.0, np.inf]], y0=0)

    def test_improper_column_allowed_explicitly(self):
        Y = line_space([0.0, 1.0])
        prob = PerturbationProblem(Y=Y, p=[[0.0, np.inf]], y0=0,
                                   allow_improper_cols=frozenset({1}))
        assert not np.isfinite(prob.p[:, 1]).any()

    def test_y0_range(self):
        Y = line_space([0.0, 1.0])
        with pytest.raises(ImproperProblem):
            PerturbationProblem(Y=Y, p=[[0.0, 0.0]], y0=7)


class TestPartialConjugate:
    def test_abs_zero_slope(self):
        Y = line_space([-1.0, 0.0, 1.0])
        prob = PerturbationProblem(Y=Y, p=np.abs(Y.points[:, 0])[None, :], y0=1)
        assert build_lagrangian(prob, affine_grid(Y, [0.0])).S[0, 0] == 0.0

    def test_neg_abs_zero_slope(self):
        Y = line_space([-1.0, 0.0, 1.0])
        prob = PerturbationProblem(Y=Y, p=-np.abs(Y.points[:, 0])[None, :], y0=1)
        assert build_lagrangian(prob, affine_grid(Y, [0.0])).S[0, 0] == 1.0

    def test_empty_row_gives_minus_inf_and_inf_lagrangian(self):
        Y = line_space([0.0, 1.0])
        p = np.array([[np.inf, np.inf], [0.0, 0.0]])
        prob = PerturbationProblem(Y=Y, p=p, y0=0)
        table = build_lagrangian(prob, affine_grid(Y, [-1.0, 0.0, 1.0]))
        assert np.isneginf(table.S[0]).all()
        assert np.isposinf(table.L[0]).all()
        assert np.isfinite(table.L[1]).all()


class TestBuildLagrangian:
    def test_constant_five(self):
        Y = five_grid()
        prob = PerturbationProblem(Y=Y, p=np.full((3, 5), 5.0), y0=2)
        table = build_lagrangian(prob, affine_grid(Y, [0.0]))
        assert np.array_equal(table.L, np.full((3, 1), 5.0))

    def test_neg_abs_row(self):
        Y = five_grid()
        prob = PerturbationProblem(Y=Y, p=-np.abs(Y.points[:, 0])[None, :], y0=2)
        table = build_lagrangian(prob, affine_grid(Y, [0.0]))
        assert table.L[0, 0] == -1.0


class TestOverflow:
    """A partial conjugate or Lagrangian value beyond the doubles, from
    operands that are doubles, raises ImproperInput and warns nowhere."""

    @pytest.mark.parametrize("scope", ["anchor", "full"])
    @pytest.mark.parametrize("case", sorted(LAGRANGIAN_OVERFLOWS))
    def test_report_rejects(self, case, scope):
        prob, grid = lagrangian_overflow(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImproperInput) as err:
                duality_report(prob, grid, convexity_scope=scope)
        assert str(err.value) == LAGRANGIAN_OVERFLOWS[case][3]

    def test_one_multiplier(self):
        prob, grid = lagrangian_overflow("conjugate_plus")
        with pytest.raises(ImproperInput) as err:
            build_lagrangian(prob, DualGrid(grid.family, (grid.member(0),)))
        assert str(err.value) == "the partial conjugate overflows the doubles"

    def test_masked_overflow_rejected(self):
        # -1e308 - 1e308 overflows below the row's other difference, 0
        Y = line_space([0.0, 1.0])
        prob = PerturbationProblem(Y=Y, p=[[0.0, 1e308]], y0=0)
        with pytest.raises(ImproperInput) as err:
            build_lagrangian(prob, affine_grid(Y, [-1e308]))
        assert str(err.value) == "the partial conjugate overflows the doubles"

    def test_infinite_operands_raise_nothing(self):
        # an empty row meets -inf in S, also in the full-scope biconjugate
        Y = line_space([0.0, 1.0])
        prob = PerturbationProblem(Y=Y, p=[[np.inf, np.inf], [0.0, 1e308]], y0=0)
        rep = duality_report(prob, affine_grid(Y, [-1.0, 1e308]), convexity_scope="full")
        assert np.isposinf(rep.table.L[0]).all() and rep.convexity_holds


class TestDualityReport:
    def test_constant_problem(self):
        Y = five_grid()
        prob = PerturbationProblem(Y=Y, p=np.full((2, 5), 5.0), y0=2)
        rep = duality_report(prob, affine_grid(Y, [-1.0, 0.0, 1.0]))
        assert rep.primal == 5.0 and rep.dual == 5.0 and rep.gap == 0.0
        assert rep.certificate is not None

    def test_single_row_neg_abs(self):
        # p(0, y) = -|y| is not representable by affine minorants at 0, so the
        # Lagrangian pair collapses to -1 and reconstruction fails; the
        # discrepancy V(0) - dual = 1 is the anchor gap
        Y = five_grid()
        prob = PerturbationProblem(Y=Y, p=-np.abs(Y.points[:, 0])[None, :], y0=2)
        rep = duality_report(prob, affine_grid(Y, [-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert np.array_equal(rep.V.values, -np.abs(Y.points[:, 0]))
        assert rep.V_bidual_at_y0 == -1.0
        assert rep.primal == -1.0 and rep.dual == -1.0 and rep.gap == 0.0
        assert not rep.reconstruction_ok
        assert rep.anchor_gap() == 1.0

    def test_vee_down_gap_one(self):
        # independent oracle: direct loops over the same tables
        prob = vee_down_problem()
        grid = affine_grid(prob.Y, [-2.0, -1.0, 0.0, 1.0, 2.0])
        oracle_primal, oracle_dual = brute_duality_values(prob.p, grid.matrix, 2)
        assert (oracle_primal, oracle_dual) == (0.0, -1.0)
        rep = duality_report(prob, grid)
        assert rep.primal == 0.0 and rep.dual == -1.0 and rep.gap == 1.0
        assert rep.reconstruction_ok
        assert rep.V_bidual_at_y0 == -1.0
        assert rep.certificate is None

    def test_vee_up_zero_gap(self):
        prob = vee_up_problem()
        grid = affine_grid(prob.Y, [-2.0, -1.0, 0.0, 1.0, 2.0])
        rep = duality_report(prob, grid)
        assert rep.primal == 0.0 and rep.dual == 0.0 and rep.gap == 0.0
        cert = rep.certificate
        assert cert is not None
        # the returned multiplier genuinely dominates the level everywhere
        table = build_lagrangian(prob, grid)

        def key(p):
            return p.a, None if p.ell is None else tuple(p.ell.tolist()), p.anchor, p.c

        j = [key(p) for p in grid.params_list].index(key(cert.psi1))
        assert table.L[:, j].min() >= cert.t.level
        # slope 0 is among the valid certificates for this instance
        assert gap_certificate(prob, grid, -1e-6) is not None

    def test_full_scope_convexity(self):
        Y = five_grid()
        # affine rows are affinely convex on all of Y
        prob = vee_down_problem()
        grid = affine_grid(Y, [-2.0, -1.0, 0.0, 1.0, 2.0])
        rep = duality_report(prob, grid, convexity_scope="full")
        assert rep.convexity_scope == "full" and rep.convexity_holds
        # a strictly concave row is not
        prob2 = PerturbationProblem(Y=Y, p=-np.abs(Y.points[:, 0])[None, :], y0=2)
        rep2 = duality_report(prob2, grid, convexity_scope="full")
        assert not rep2.convexity_holds


class TestRandomizedLaws:
    def test_weak_duality_and_bidual_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            prob, grid = random_perturbation(rng, max_x=12, max_y=12)
            rep = duality_report(prob, grid)
            assert rep.dual <= rep.primal
            assert rep.dual == rep.V_bidual_at_y0
            assert rep.gap >= 0.0

    def test_matches_brute_oracle_small(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            prob, grid = random_perturbation(rng, max_x=5, max_y=5, inf_prob=0.2)
            primal, dual = brute_duality_values(prob.p, grid.matrix, prob.y0)
            rep = duality_report(prob, grid)
            assert rep.primal.as_float() == primal
            assert rep.dual.as_float() == dual

    def test_reconstruction_iff_anchor_defects_vanish(self):
        rng = np.random.default_rng(33)
        hits = {True: 0, False: 0}
        for _ in range(150):
            prob, grid = random_perturbation(rng, max_x=8, max_y=8, inf_prob=0.0)
            rep = duality_report(prob, grid)
            defects = [
                prob.p[x, prob.y0] - biconjugate(GridFn(prob.Y, prob.p[x]), grid).values[prob.y0]
                for x in range(prob.p.shape[0])
            ]
            all_zero = max(defects) <= 1e-9
            assert rep.reconstruction_ok == all_zero
            if all_zero:
                assert abs(rep.primal.as_float()
                           - rep.V.values[prob.y0]) <= 1e-9
            hits[all_zero] += 1
        assert hits[True] > 5 and hits[False] > 5

    def test_remark_dual_attains_anchor_value(self):
        # dual == V(y0) forces primal == dual == V(y0)
        rng = np.random.default_rng(34)
        for _ in range(200):
            prob, grid = random_perturbation(rng, max_x=8, max_y=8)
            rep = duality_report(prob, grid)
            v0 = rep.V.values[prob.y0]
            if np.isfinite(v0) and rep.dual == v0:
                assert abs(rep.primal.as_float() - rep.dual.as_float()) <= 1e-9

    def test_zero_gap_iff_anchor_convexity_of_V(self):
        # when every row is a multiplier-family member (hence grid-convex on
        # all of Y), the Lagrangian pair closes exactly when V equals its
        # biconjugate at the anchor
        rng = np.random.default_rng(38)
        hits = {True: 0, False: 0}
        for _ in range(200):
            Y = spaced_line(rng, int(rng.integers(3, 9)))
            ys = Y.points[:, 0]
            n_x = int(rng.integers(1, 5))
            if rng.random() < 0.3:
                slopes = np.full(n_x, rng.uniform(-2, 2))   # common slope: V affine
            else:
                slopes = rng.uniform(-2, 2, size=n_x)
            offsets = rng.normal(size=n_x)
            p = slopes[:, None] * ys[None, :] + offsets[:, None]
            prob = PerturbationProblem(Y=Y, p=p, y0=int(rng.integers(Y.n)))
            grid = DualGrid(
                ElemFamily.affine(Y),
                tuple(ElemParams(ell=[s]) for s in sorted(set(slopes))))
            rep = duality_report(prob, grid, convexity_scope="full")
            assert rep.convexity_holds
            zero_gap = abs(rep.gap.as_float()) <= 1e-9
            v_convex_at_anchor = abs(rep.V.values[prob.y0]
                                     - rep.V_bidual_at_y0.as_float()) <= 1e-9
            assert zero_gap == v_convex_at_anchor
            hits[zero_gap] += 1
        assert hits[True] > 10 and hits[False] > 10


class TestGapCertificate:
    def test_constant_instance(self):
        Y = five_grid()
        prob = PerturbationProblem(Y=Y, p=np.full((2, 5), 5.0), y0=2)
        grid = affine_grid(Y, [0.0, 1.0])
        cert = gap_certificate(prob, grid, 4.0)
        assert cert is not None
        assert cert.phi1.kind == "constant" and cert.phi1.level == 4.0
        assert cert.t.lower_envelope_value >= cert.t.level

    def test_gap_instance_has_none_between(self):
        prob = vee_down_problem()
        grid = affine_grid(prob.Y, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert gap_certificate(prob, grid, -0.5) is None

    def test_zero_gap_instance_certifies(self):
        prob = vee_up_problem()
        grid = affine_grid(prob.Y, [-2.0, -1.0, 0.0, 1.0, 2.0])
        cert = gap_certificate(prob, grid, -0.1)
        assert cert is not None
        # slope 0 validates the level too: min_x L(., 0) = 0 >= -0.1
        table = build_lagrangian(prob, grid)
        assert table.L[:, 2].min() >= -0.1
        assert abs(cert.psi1.ell[0]) <= 1.0

    def test_level_above_primal_rejected(self):
        prob = vee_up_problem()
        grid = affine_grid(prob.Y, [0.0])
        with pytest.raises(LevelAbovePrimal):
            gap_certificate(prob, grid, 0.0)

    def test_soundness_and_completeness_at_grid_scale(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            prob, grid = random_perturbation(rng, max_x=8, max_y=8)
            rep = duality_report(prob, grid)
            primal, dual = rep.primal.as_float(), rep.dual.as_float()
            if not np.isfinite(primal):
                continue
            alpha = primal - abs(rng.normal()) - 1e-9
            cert = gap_certificate(prob, grid, alpha)
            if cert is not None:
                assert dual >= alpha          # soundness
            if dual >= alpha:                 # completeness at grid scale
                assert cert is not None

    def test_levels_stay_below_a_huge_primal(self):
        # primal - 1e-6 rounds back to primal at 1e12
        prob = PerturbationProblem(Y=line_space([0.0, 1.0, 2.0]), p=[[1e12] * 3], y0=0)
        grid = affine_grid(prob.Y, [0.0])
        rep = duality_report(prob, grid)
        assert rep.primal == 1e12 and rep.certificate.t.level < 1e12


class TestConcavityProbe:
    def test_identical_multipliers(self):
        prob = vee_up_problem()
        fam = ElemFamily.affine(prob.Y)
        psi = ElemParams(ell=[1.0], c=0.5)
        assert concavity_probe(prob, fam, psi, psi, 0.3)

    def test_random_affine_pairs(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            prob, _ = random_perturbation(rng, max_x=6, max_y=6)
            fam = ElemFamily.affine(prob.Y)
            pa = ElemParams(ell=[rng.uniform(-2, 2)], c=rng.normal())
            pb = ElemParams(ell=[rng.uniform(-2, 2)], c=rng.normal())
            assert concavity_probe(prob, fam, pa, pb, float(rng.uniform(0, 1)))

    def test_quad_minus_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            prob, _ = random_perturbation(rng, max_x=5, max_y=5)
            fam = ElemFamily.quad_minus(prob.Y)
            pa = ElemParams(a=rng.uniform(0, 2), ell=[rng.uniform(-2, 2)])
            pb = ElemParams(a=rng.uniform(0, 2), ell=[rng.uniform(-2, 2)])
            assert concavity_probe(prob, fam, pa, pb, float(rng.uniform(0, 1)))

    def test_metric_rejected(self):
        prob = vee_up_problem()
        fam = ElemFamily.metric(prob.Y)
        pa = ElemParams(a=1.0, anchor=0)
        with pytest.raises(NotConvexCombinable):
            concavity_probe(prob, fam, pa, pa, 0.5)


class TestLscDefect:
    def test_constant(self):
        Y = five_grid()
        assert lsc_defect(GridFn(Y, np.full(5, 3.0)), 2, 0.5) == 0.0

    def test_neg_abs(self):
        Y = five_grid()
        V = GridFn(Y, -np.abs(Y.points[:, 0]))
        assert lsc_defect(V, 2, 0.5) == 0.5
        assert lsc_defect(V, 2, 1.0) == 1.0

    def test_abs_zero_everywhere(self):
        Y = five_grid()
        V = GridFn(Y, np.abs(Y.points[:, 0]))
        for r in (0.25, 0.5, 1.0, 2.0):
            assert lsc_defect(V, 2, r) == 0.0

    def test_empty_ball(self):
        Y = five_grid()
        V = GridFn(Y, -np.abs(Y.points[:, 0]))
        assert lsc_defect(V, 2, 0.1) == 0.0

    def test_infinite_ball_values_ignored(self):
        Y = five_grid()
        V = GridFn(Y, [np.inf, np.inf, 0.0, np.inf, np.inf])
        assert lsc_defect(V, 2, 1.0) == 0.0


class TestGapLscCorrelation:
    def test_metric_multipliers_both_vanish(self):
        # with cone multipliers both canonical shapes close the gap, and the
        # spacing-radius defect tracks it to zero
        for shape in ("vee_down", "vee_up"):
            gaps, defects = [], []
            for n_points in (5, 9, 17, 33):
                ys = np.linspace(-1, 1, n_points)
                Y = line_space(ys)
                y0 = int(np.flatnonzero(ys == 0.0)[0])
                p = np.vstack([ys, -ys]) if shape == "vee_down" else np.abs(ys)[None, :]
                prob = PerturbationProblem(Y=Y, p=p, y0=y0)
                fam = ElemFamily.metric(Y)
                grid = DualGrid(fam, tuple(
                    ElemParams(a=a, anchor=anchor)
                    for anchor in range(Y.n) for a in (1.0, 2.0, 4.0)))
                rep = duality_report(prob, grid)
                spacing = 2.0 / (n_points - 1)
                gaps.append(rep.gap.as_float())
                defects.append(lsc_defect(rep.V, y0, spacing))
            assert max(gaps) <= 1e-9
            assert defects == [2.0 / (n - 1) for n in (5, 9, 17, 33)] \
                if shape == "vee_down" else max(defects) == 0.0
