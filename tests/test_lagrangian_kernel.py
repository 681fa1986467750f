"""Every caller of the partial-conjugate kernel against the reduction it used
to write out by hand (the oracles in conftest), compared bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

import abconvex.core as core
import abconvex.lagrangian as lag
from abconvex import (
    DualGrid,
    ElemFamily,
    ElemParams,
    PerturbationProblem,
    build_constrained_perturbation,
    build_lagrangian,
    build_metric_space,
    concavity_probe,
    duality_report,
    metric_dual_grid,
    metric_grid_sup,
    metric_lagrangian,
    partial_conjugate,
    quad_lagrangian,
    verify_zero_gap_metric,
)
from abconvex.errors import BadParams, ImproperInput, ImproperProblem
from abconvex.families import eval_on_domain
from abconvex.lagrangian import DualityReport, LagTable
from conftest import (
    LAGRANGIAN_OVERFLOWS,
    kernel_constrained,
    kernel_perturbation,
    lagrangian_overflow,
    old_concavity_probe,
    old_cone_lagrangian,
    old_duality_fields,
    old_full_convexity_holds,
    old_lagrangian,
    old_metric_grid_sup,
    old_partial_conjugate,
    old_partial_conjugate_kernel,
    old_partial_conjugate_matrix,
    old_rung_and_bound,
    same_bits,
    table_shapes,
)

KINDS = ["affine", "quad_minus", "metric", "sigma_nu"]


class TestLagrangianTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_table_and_partial_conjugate(self, kind):
        rng = np.random.default_rng(500 + KINDS.index(kind))
        for n_x, n_y in table_shapes(rng, 25):
            for empty_rows in (False, True):
                prob, grid = kernel_perturbation(rng, n_x, n_y, empty_rows=empty_rows,
                                          kind=kind)
                table = build_lagrangian(prob, grid)
                assert same_bits(table.S, old_partial_conjugate_matrix(prob, grid))
                assert same_bits(table.L, old_lagrangian(prob, grid))
                assert same_bits(table.row_sup, table.L.max(axis=1))
                assert same_bits(table.col_inf, table.L.min(axis=0))
                assert not (table.row_sup.flags.writeable or table.col_inf.flags.writeable)
                for _ in range(3):
                    x = int(rng.integers(n_x))
                    params = grid.params_list[int(rng.integers(grid.size))]
                    got = partial_conjugate(prob, x, grid.family, params)
                    want = old_partial_conjugate(prob, x, grid.family, params)
                    assert same_bits(got.as_float(), want.as_float())

    def test_row_mixing_inf_with_finite_rejected(self):
        prob, grid = kernel_perturbation(np.random.default_rng(501), 3, 4)
        S = np.zeros((3, grid.size))
        L = np.ones((3, grid.size))
        L[1] = np.inf                       # an all-+inf row: an empty dom p(x, .)
        table = LagTable(L=L, S=S, psi_grid=grid, y0=prob.y0)
        assert same_bits(table.row_sup, np.array([1.0, np.inf, 1.0]))
        assert same_bits(table.col_inf, np.ones(grid.size))
        L = np.ones((3, grid.size))
        L[2, -1] = np.inf
        with pytest.raises(ImproperProblem, match="mixes"):
            LagTable(L=L, S=S, psi_grid=grid, y0=prob.y0)


class TestDualityReport:
    @pytest.mark.parametrize("scope", ["anchor", "full"])
    def test_fields_match_oracle(self, scope):
        rng = np.random.default_rng(510 if scope == "anchor" else 511)
        for n_x, n_y in table_shapes(rng, 40):
            prob, grid = kernel_perturbation(rng, n_x, n_y, holes=bool(rng.random() < 0.6))
            rep = duality_report(prob, grid, convexity_scope=scope)
            want = old_duality_fields(prob, grid, scope)
            assert same_bits(rep.table.L, want["L"])
            assert same_bits(rep.table.S, want["S"])
            for name in ("primal", "dual", "gap", "V_bidual_at_y0"):
                assert same_bits(getattr(rep, name).as_float(),
                                 float(want[name])), name
            assert same_bits(rep.V.values, want["V"])
            assert same_bits(rep.V_star, want["V_star"])
            assert rep.reconstruction_ok == want["reconstruction_ok"]
            assert rep.convexity_holds == want["convexity_holds"]
            if want["certificate"] is None:
                assert rep.certificate is None
            else:
                assert rep.certificate.psi1 is grid.params_list[want["certificate"]]

    def test_full_convexity_both_outcomes(self):
        rng = np.random.default_rng(512)
        seen = set()
        for n_x, n_y in table_shapes(rng, 60):
            prob, grid = kernel_perturbation(rng, n_x, n_y, holes=bool(rng.random() < 0.5))
            S = old_partial_conjugate_matrix(prob, grid)
            got = duality_report(prob, grid, convexity_scope="full").convexity_holds
            assert got == old_full_convexity_holds(prob, grid, S)
            seen.add(got)
        assert seen == {True, False}

    def test_table_is_carried_but_not_compared_or_shown(self):
        fields = {f.name: f for f in dataclasses.fields(DualityReport)}
        assert not fields["table"].compare and not fields["table"].repr
        rng = np.random.default_rng(513)
        prob, grid = kernel_perturbation(rng, 4, 5)
        rep = duality_report(prob, grid)
        assert "table" not in repr(rep)
        assert rep.table.psi_grid is grid and rep.table.y0 == prob.y0
        assert not rep.table.L.flags.writeable and not rep.table.S.flags.writeable


class TestConcavityProbe:
    @pytest.mark.parametrize("kind", ["affine", "quad_minus"])
    def test_rows_and_verdict_match_oracle(self, kind, monkeypatch):
        import abconvex.lagrangian as lag

        rng = np.random.default_rng(520 if kind == "affine" else 521)
        rows = []
        real = lag._partial_conjugate

        def spy(E, p):
            S = real(E, p)
            rows.append(E[:, prob.y0][None, :] - S)
            return S

        monkeypatch.setattr(lag, "_partial_conjugate", spy)
        for n_x, n_y in table_shapes(rng, 30):
            prob, grid = kernel_perturbation(rng, n_x, n_y, kind=kind)
            fam = grid.family
            pa, pb = (grid.params_list[int(i)] for i in rng.integers(grid.size, size=2))
            for t in (0.0, 1.0, float(rng.uniform())):
                rows.clear()
                got = concavity_probe(prob, fam, pa, pb, t)
                want, want_rows = old_concavity_probe(prob, fam, pa, pb, t)
                assert got == want
                (L,) = rows
                assert same_bits(np.ascontiguousarray(L.T), np.vstack(want_rows))


class TestConstrainedKernels:
    @pytest.mark.parametrize("allow_empty", [False, True])
    def test_cone_lagrangians_match_oracle(self, allow_empty):
        rng = np.random.default_rng(530 + allow_empty)
        for n_x, n_y in table_shapes(rng, 30):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            for _ in range(3):
                anchor, a = int(rng.integers(n_y)), float(rng.uniform(0.1, 4.0))
                vals = eval_on_domain(ElemFamily.metric(inst.Y),
                                      ElemParams(a=a, anchor=anchor, c=0.0))
                assert same_bits(metric_lagrangian(inst, anchor, a).values,
                                 old_cone_lagrangian(inst, vals))
                u, a = [float(rng.uniform(-2, 2))], float(rng.uniform(0.0, 3.0))
                vals = eval_on_domain(ElemFamily.quad_minus(inst.Y),
                                      ElemParams(a=a, ell=u, c=0.0))
                assert same_bits(quad_lagrangian(inst, u, a).values,
                                 old_cone_lagrangian(inst, vals))

    @pytest.mark.parametrize("allow_empty", [False, True])
    def test_metric_grid_sup_matches_oracle(self, allow_empty):
        rng = np.random.default_rng(540 + allow_empty)
        ladders = [(1.0,), (4.0, 0.5, 2.0), (2.0, 2.0, 0.25, 2.0), (0.3, 0.3), ()]
        empty_G = False
        for n_x, n_y in table_shapes(rng, 20):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            ladder = ladders[int(rng.integers(len(ladders)))]
            if rng.random() < 0.5:
                ladder = tuple(rng.uniform(0.1, 5.0, size=int(rng.integers(1, 6))))
            for x in range(n_x):
                got = metric_grid_sup(inst, x, ladder)
                assert same_bits(got, old_metric_grid_sup(inst, x, ladder))
                empty_G |= not inst.map.mask[x].any()
        assert empty_G or not allow_empty

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_metric_grid_sup_rejects_nonpositive_rung(self, bad):
        inst = kernel_constrained(np.random.default_rng(550), 3, 4, False)
        with pytest.raises(BadParams):
            metric_grid_sup(inst, 0, (1.0, bad))

    @pytest.mark.parametrize("allow_empty", [False, True])
    def test_zero_gap_report_matches_oracle(self, allow_empty):
        rng = np.random.default_rng(560 + allow_empty)
        rungs, bounds = set(), set()
        for n_x, n_y in table_shapes(rng, 25):
            inst = kernel_constrained(rng, n_x, n_y, allow_empty)
            ladder = tuple(np.exp(rng.uniform(-5.0, 2.0, size=int(rng.integers(1, 6)))))
            tol = float(rng.choice([1e-9, 1e-3, 0.5]))
            rep = verify_zero_gap_metric(inst, ladder, tol=tol)
            rung, bound = old_rung_and_bound(inst, ladder, tol)
            assert rep.minimal_rung == rung
            assert same_bits(rep.proof_bound, bound)
            want = old_duality_fields(build_constrained_perturbation(inst),
                                      metric_dual_grid(inst, rep.ladder))
            assert same_bits(rep.duality.primal.as_float(), want["primal"])
            assert same_bits(rep.duality.dual.as_float(), want["dual"])
            assert same_bits(rep.duality.V_star, want["V_star"])
            rungs.add(rung == min(ladder))
            bounds.add(bound > 0.0)
        assert rungs == bounds == {True, False}


STEPS = ["one_row", "multi_row", "ragged", "single"]


def step_bytes(mode, row_bytes, n_x):
    """_STEP_BYTES giving steps of one row, of three rows, of five rows (a
    ragged last step unless 5 divides the rows) and one step for all n_x."""
    return {"one_row": 1, "multi_row": 3 * row_bytes, "ragged": 5 * row_bytes,
            "single": n_x * row_bytes}[mode]


def signed_zero_table(rng, n_x, P, n_y):
    """Members and rows drawn from {+-0, +-1, 0.5}, so that many maxima are
    zeros of either sign; p has +inf holes and, when n_x > 1, an empty row."""
    E = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(P, n_y))
    p = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, math.inf], size=(n_x, n_y))
    if n_x > 1:
        p[rng.integers(n_x)] = np.inf
    return E, p


class TestSteppedKernel:
    """_partial_conjugate's blocks reduced in steps of _STEP_BYTES // E.nbytes
    rows, against the one-tensor reductions, bit for bit."""

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("mode", STEPS)
    def test_tables_match_one_tensor(self, mode, blocked, monkeypatch):
        rng = np.random.default_rng(570 + STEPS.index(mode))
        signs = set()
        shapes = [(12, 4, 3), (13, 1, 1), (1, 5, 2), (15, 7, 6)] + [
            tuple(int(v) for v in rng.integers(1, 25, 3)) for _ in range(30)]
        for n_x, P, n_y in shapes:
            E, p = signed_zero_table(rng, n_x, P, n_y)
            monkeypatch.setattr(lag, "_STEP_BYTES", step_bytes(mode, E.nbytes, n_x))
            if blocked:  # row blocks of 7 rows, each reduced in steps
                monkeypatch.setattr(core, "BLOCK_BYTES", 7 * core.WORKERS * E.nbytes)
            got = lag._partial_conjugate(E, p)
            assert same_bits(got, old_partial_conjugate_kernel(E, p))
            signs |= set(np.signbit(got[got == 0]).tolist())
            if n_x > 1:
                assert np.isneginf(got).all(axis=1).any()

            prob, grid = kernel_perturbation(rng, n_x, n_y, empty_rows=True)
            monkeypatch.setattr(lag, "_STEP_BYTES", step_bytes(mode, grid.matrix.nbytes, n_x))
            if blocked:
                monkeypatch.setattr(core, "BLOCK_BYTES", 7 * core.WORKERS * grid.matrix.nbytes)
            assert same_bits(build_lagrangian(prob, grid).S,
                             old_partial_conjugate_matrix(prob, grid))
        assert signs == {True, False}

    @pytest.mark.parametrize("mode", STEPS)
    @pytest.mark.parametrize("case", sorted(LAGRANGIAN_OVERFLOWS))
    def test_overflow_raises_from_any_step(self, case, mode, monkeypatch):
        prob, grid = lagrangian_overflow(case, pad_rows=11)  # the overflowing row last
        monkeypatch.setattr(lag, "_STEP_BYTES", step_bytes(mode, grid.matrix.nbytes, prob.n_x))
        with pytest.raises(ImproperInput) as err:
            build_lagrangian(prob, grid)
        assert str(err.value) == LAGRANGIAN_OVERFLOWS[case][3]


def member_rows(rng, prob, grid):
    """prob with each row p(x, .) a random member's values: every row equals
    its grid biconjugate, up to rounding."""
    p = grid.matrix[rng.integers(grid.size, size=prob.n_x)]
    return PerturbationProblem(Y=prob.Y, p=p, y0=prob.y0)


class TestFullScope:
    """convexity_scope="full" skips the n_x x n_y biconjugate table once the
    anchor check has failed."""

    def test_verdicts_match_oracle(self):
        rng = np.random.default_rng(580)
        seen = set()
        for n_x, n_y in table_shapes(rng, 60):
            base, grid = kernel_perturbation(rng, n_x, n_y, holes=bool(rng.random() < 0.5))
            member = member_rows(rng, base, grid)
            probs = [base, member]
            if n_x > 1 and n_y > 1:  # +inf off y0 in one row: the anchor still reproduces
                bumped = member.p.copy()
                bumped[rng.integers(n_x), (base.y0 + 1 + rng.integers(n_y - 1)) % n_y] = np.inf
                probs.append(PerturbationProblem(Y=base.Y, p=bumped, y0=base.y0))
            for prob in probs:
                rep = duality_report(prob, grid, convexity_scope="full")
                want = old_full_convexity_holds(prob, grid,
                                                old_partial_conjugate_matrix(prob, grid))
                assert rep.convexity_holds == want
                seen.add((rep.reconstruction_ok, want))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_column_y0_is_row_sup(self):
        rng = np.random.default_rng(581)
        for n_x, n_y in table_shapes(rng, 40):
            prob, grid = kernel_perturbation(rng, n_x, n_y, empty_rows=bool(rng.random() < 0.5))
            table = build_lagrangian(prob, grid)
            full = lag._partial_conjugate(grid.matrix.T, table.S)
            assert np.array_equal(full[:, prob.y0], table.row_sup)

    def test_table_skipped_after_failed_anchor_check(self, monkeypatch):
        seen = []
        real = lag._partial_conjugate

        def spy(E, p):
            seen.append(p)
            return real(E, p)

        monkeypatch.setattr(lag, "_partial_conjugate", spy)
        rng = np.random.default_rng(582)
        built = set()
        for n_x, n_y in table_shapes(rng, 40):
            base, grid = kernel_perturbation(rng, n_x, n_y)
            for prob in (base, member_rows(rng, base, grid)):
                seen.clear()
                rep = duality_report(prob, grid, convexity_scope="full")
                full = any(p is rep.table.S for p in seen)
                assert full == rep.reconstruction_ok
                built.add(full)
        assert built == {True, False}

    def test_overflowing_table_is_not_built(self, monkeypatch):
        # S = (-1e308, 1e308) and L = (1e308, -1e308): the anchor check fails
        # at x = 1, and the full table's cell 1e308 - S[0] would overflow
        Y = build_metric_space([[0.0], [1.0]])
        grid = DualGrid(ElemFamily.affine(Y), (ElemParams(ell=[1e308]),))
        prob = PerturbationProblem(Y=Y, p=[[1e308, math.inf], [0.0, 0.0]], y0=0)
        with pytest.raises(ImproperInput, match="^the partial conjugate overflows the doubles$"):
            lag._partial_conjugate(grid.matrix.T, build_lagrangian(prob, grid).S)
        seen = []
        real = lag._partial_conjugate
        monkeypatch.setattr(lag, "_partial_conjugate", lambda E, p: seen.append(p) or real(E, p))
        rep = duality_report(prob, grid, convexity_scope="full")
        assert not rep.reconstruction_ok and not rep.convexity_holds
        assert not any(p is rep.table.S for p in seen)
