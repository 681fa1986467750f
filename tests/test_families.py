"""Elementary families: evaluation, conjugation laws, support tests, witnesses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abconvex import (
    DualGrid,
    ElemFamily,
    ElemParams,
    GridFn,
    Sampled1D,
    biconjugate,
    build_metric_space,
    conjugate_transform,
    default_dual_grid,
    eval_on_domain,
    is_support,
    peaking_witness,
    urysohn_witness,
    validate_members,
)
from abconvex.errors import AbconvexError, BadParams, ImproperInput, NoWitness
from abconvex import families
from abconvex.families import _NUDGE, members_on_domain

from conftest import (
    brute_biconjugate,
    brute_conjugate,
    line_space,
    lower_convex_envelope_1d,
    old_arrays,
    old_dual_grid,
    old_members_on_domain,
    old_raise_first,
    random_sigma_nu,
    same_bits,
    spaced_line,
)


def affine_grid(space, slopes):
    fam = ElemFamily.affine(space)
    return DualGrid(fam, tuple(ElemParams(ell=[s]) for s in slopes))


class TestEval:
    def test_affine_example(self):
        space = line_space([3.0])
        fam = ElemFamily.affine(space)
        assert float(eval_on_domain(fam, ElemParams(ell=[2.0], c=1.0))[0]) == 7.0

    def test_quad_minus_example(self):
        space = line_space([2.0])
        fam = ElemFamily.quad_minus(space)
        assert float(eval_on_domain(fam, ElemParams(a=1.0, ell=[0.0]))[0]) == -4.0

    def test_metric_example(self):
        space = line_space([0.0, 1.0, 2.0])
        fam = ElemFamily.metric(space)
        assert float(eval_on_domain(fam, ElemParams(a=3.0, anchor=0, c=1.0))[2]) == -5.0

    def test_bad_params(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(BadParams):
            float(eval_on_domain(ElemFamily.metric(space), ElemParams(a=0.0, anchor=0))[0])
        with pytest.raises(BadParams):
            float(eval_on_domain(ElemFamily.metric(space), ElemParams(a=1.0, anchor=5))[0])
        with pytest.raises(BadParams):
            float(eval_on_domain(ElemFamily.quad_minus(space), ElemParams(a=-1.0, ell=[0.0]))[0])
        with pytest.raises(BadParams):
            float(eval_on_domain(ElemFamily.affine(space), ElemParams(a=1.0, ell=[0.0]))[0])

    def test_gauge_and_quad_plus(self):
        space = line_space([-2.0, 2.0])
        gauge = ElemFamily.gauge(space, "l2")
        vals = eval_on_domain(gauge, ElemParams(a=1.0, ell=[0.5], c=0.0))
        assert np.allclose(vals, [-2.0 - 1.0, -2.0 + 1.0])
        qp = ElemFamily.quad_plus(space)
        assert float(eval_on_domain(qp, ElemParams(a=1.0, ell=[0.0], c=0.0))[1]) == 4.0

    def test_generalized_metric(self):
        space = line_space([0.0, 1.0, 3.0])
        shape = Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
        fam = ElemFamily.generalized_metric(space, shape, quasi_subadd_const=2.0)
        vals = eval_on_domain(fam, ElemParams(a=2.0, anchor=0, c=1.0))
        # g(1)=1, g(3) extends the last segment: 1.5 + 0.5 * 1 = 2.0
        assert np.allclose(vals, [1.0, -1.0, -3.0])

    def test_sigma_nu_origin_validation(self):
        space = line_space([0.0, 1.0])
        ok_sigma = GridFn(space, [0.0, 1.0])
        ok_nu = GridFn(space, [0.0, -1.0])
        fam = ElemFamily.sigma_nu(space, ok_sigma, ok_nu)
        assert float(eval_on_domain(fam, ElemParams(a=2.0, c=0.5))[1]) == 2.0 - 1.0 + 0.5
        with pytest.raises(ValueError):
            ElemFamily.sigma_nu(space, GridFn(space, [0.5, 1.0]), ok_nu)


class TestDualGrid:
    def test_offset_must_be_zero(self):
        space = line_space([0.0, 1.0])
        fam = ElemFamily.affine(space)
        with pytest.raises(ValueError):
            DualGrid(fam, (ElemParams(ell=[1.0], c=2.0),))

    def test_duplicates_rejected(self):
        space = line_space([0.0, 1.0])
        fam = ElemFamily.affine(space)
        with pytest.raises(ValueError):
            DualGrid(fam, (ElemParams(ell=[1.0]), ElemParams(ell=[1.0])))

    def test_nonempty(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(ValueError):
            DualGrid(ElemFamily.affine(space), ())

    @pytest.mark.parametrize("kind, first, second", [
        ("affine", ElemParams(ell=[0.0, 1.0]), ElemParams(ell=[-0.0, 1.0])),
        ("quad_minus", ElemParams(a=0.0, ell=[1.0, 2.0]), ElemParams(a=-0.0, ell=[1.0, 2.0])),
        ("gauge", ElemParams(a=1.0, ell=[-0.0, -0.0]), ElemParams(a=1.0, ell=[0.0, 0.0])),
        ("sigma_nu", ElemParams(a=-0.0), ElemParams(a=0.0)),
    ])
    def test_signed_zeros_are_duplicates(self, kind, first, second):
        # members are compared as tuples of floats, where 0.0 == -0.0
        space = build_metric_space(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        fam = ElemFamily.sigma_nu(space, GridFn(space, [0.0, 1.0, 1.0]),
                                  GridFn(space, [0.0, -1.0, 2.0])) \
            if kind == "sigma_nu" else getattr(ElemFamily, kind)(space)
        other = ElemParams(a=2.0, ell=None if kind == "sigma_nu" else [1.0, 1.0])
        if kind == "affine":
            other = ElemParams(ell=[1.0, 1.0])
        with pytest.raises(ValueError, match="^duplicate parameter tuple in DualGrid$"):
            DualGrid(fam, (first, other, second))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 700), st.integers(0, 2 ** 32 - 1))
    def test_repeats_match_a_pairwise_loop(self, P, seed):
        """_repeats marks exactly the members equal to an earlier one, on
        arrays and on member lists drawn from a small pool with both zeros."""
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])

        def draw(*shape):
            return pool[rng.integers(pool.size, size=shape)]

        def earlier(tuples):  # the O(P^2) reference
            return [any(t == s for s in tuples[:j]) for j, t in enumerate(tuples)]

        width = int(rng.integers(3))
        a, ell = draw(P), draw(P, width) if width else None
        anchor = rng.integers(3, size=P) if rng.random() < 0.5 else None
        want = earlier([(a[j] + 0.0, 0.0, () if ell is None else tuple(ell[j] + 0.0),
                         width or -1, 0 if anchor is None else anchor[j], anchor is None)
                        for j in range(P)])
        assert families._repeats(families._arrays(a, ell, anchor)).tolist() == want

        params = [ElemParams(a=draw(), c=draw() if rng.random() < 0.2 else 0.0,
                             ell=None if rng.random() < 0.2 else draw(int(rng.integers(3))),
                             anchor=None if rng.random() < 0.5 else int(rng.integers(3)))
                  for _ in range(P)]
        want = earlier([(p.a + 0.0, p.c + 0.0, () if p.ell is None else tuple(p.ell + 0.0),
                         -1 if p.ell is None else p.ell.size, p.anchor or 0, p.anchor is None)
                        for p in params])
        assert families._repeats(families._from_params(params)).tolist() == want

    @pytest.mark.parametrize("kind, members, error, message", [
        # the first failing member wins, whatever the kind of its failure
        ("metric", [ElemParams(a=1.0, anchor=0), ElemParams(a=1.0, anchor=1, c=1.0),
                    ElemParams(a=0.0, anchor=1)],
         ValueError, "DualGrid offsets are eliminated analytically; use c = 0"),
        ("metric", [ElemParams(a=1.0, anchor=0), ElemParams(a=0.0, anchor=1),
                    ElemParams(a=1.0, anchor=1, c=1.0)],
         BadParams, "metric cones need a > 0"),
        ("metric", [ElemParams(a=1.0, anchor=0), ElemParams(a=1.0, anchor=0),
                    ElemParams(a=1.0, anchor=7)],
         ValueError, "duplicate parameter tuple in DualGrid"),
        # within one member, the checks run in a fixed order
        ("metric", [ElemParams(a=0.0, anchor=9, ell=[1.0], c=1.0)],
         BadParams, "metric cones need a > 0"),
        ("metric", [ElemParams(a=1.0, anchor=9, ell=[1.0], c=1.0)],
         BadParams, "metric cones need an in-range anchor"),
        ("metric", [ElemParams(a=1.0), ElemParams(a=1.0, anchor=0, ell=[1.0])],
         BadParams, "metric cones need an in-range anchor"),
        ("generalized_metric",
         [ElemParams(a=1.0, anchor=1), ElemParams(a=1.0, anchor=0, ell=[1.0])],
         BadParams, "metric cones carry no slope"),
        ("metric", [ElemParams(a=1.0, anchor=-1)],
         BadParams, "metric cones need an in-range anchor"),
        ("affine", [ElemParams(ell=[1.0]), ElemParams(a=1.0), ElemParams()],
         BadParams, "affine members have no curvature term"),
        ("affine", [ElemParams(ell=[1.0]), ElemParams(ell=[1.0, 2.0]), ElemParams()],
         BadParams, "slope dimension does not match the domain"),
        ("affine", [ElemParams(ell=[1.0], c=-1.0), ElemParams(ell=[1.0, 2.0])],
         ValueError, "DualGrid offsets are eliminated analytically; use c = 0"),
        ("quad_plus", [ElemParams(a=1.0, ell=[1.0]), ElemParams(a=1.0), ElemParams(a=-1.0)],
         BadParams, "this family needs a slope vector"),
        ("quad_minus", [ElemParams(a=-1.0, ell=[1.0, 2.0])],
         BadParams, "quadratic curvature must satisfy a >= 0"),
        ("gauge", [ElemParams(a=1.0, ell=[0.0]), ElemParams(a=0.0, ell=[0.0], c=1.0)],
         BadParams, "gauge members need a > 0"),
        ("sigma_nu", [ElemParams(a=1.0, ell=[5.0, 6.0]), ElemParams(a=-1.0, anchor=9)],
         BadParams, "sigma coefficient must satisfy a >= 0"),
    ])
    def test_first_error_in_member_order(self, kind, members, error, message):
        space = line_space([0.0, 1.0, 2.0])
        fam = ElemFamily.sigma_nu(space, GridFn(space, [0.0, 1.0, 1.0]),
                                  GridFn(space, [0.0, -1.0, 2.0])) \
            if kind == "sigma_nu" else ElemFamily.generalized_metric(
                space, Sampled1D([0.0, 1.0], [0.0, 1.0]), 2.0) \
            if kind == "generalized_metric" else getattr(ElemFamily, kind)(space)
        with pytest.raises(error) as caught:
            DualGrid(fam, tuple(members))
        assert type(caught.value) is error and str(caught.value) == message

    def test_ignored_fields_still_tell_members_apart(self):
        # an anchor or a slope the family does not read is part of the member
        space = line_space([0.0, 1.0, 2.0])
        grid = DualGrid(ElemFamily.affine(space), (ElemParams(ell=[1.0], anchor=0),
                                                   ElemParams(ell=[1.0])))
        assert grid.size == 2 and grid.params_list[0].anchor == 0
        assert same_bits(grid.matrix[0], grid.matrix[1])
        sig = ElemFamily.sigma_nu(space, GridFn(space, [0.0, 1.0, 1.0]),
                                  GridFn(space, [0.0, -1.0, 2.0]))
        grid = DualGrid(sig, (ElemParams(a=1.0), ElemParams(a=1.0, ell=[1.0, 2.0]),
                              ElemParams(a=1.0, ell=[]), ElemParams(a=1.0, anchor=-3)))
        assert grid.size == 4 and grid.params_list[2].ell.shape == (0,)

    @pytest.mark.parametrize("kind", ["affine", "quad_minus", "quad_plus", "sigma_nu",
                                      "metric", "generalized_metric", "gauge"])
    def test_arrays_and_member_list_agree(self, kind):
        # the default grid is built from arrays; its lazy member list, the
        # arrays again and each member alone give the same bits
        _, grid = _random_family_and_grid(np.random.default_rng(11), kind)
        fam = grid.family
        again = DualGrid(fam, a=grid.a, ell=grid.ell, anchor=grid.anchor)
        listed = DualGrid(fam, grid.params_list)
        assert same_bits(again.matrix, grid.matrix) and same_bits(listed.matrix, grid.matrix)
        for j, p in enumerate(grid.params_list):
            assert grid.member(j) is p and same_bits(eval_on_domain(fam, p), grid.matrix[j])
        assert not grid.matrix.flags.writeable and not grid.a.flags.writeable

    def test_member_alone_is_kept(self):
        grid = default_dual_grid(ElemFamily.metric(line_space([0.0, 1.0, 3.0])))
        first = grid.member(-1)
        assert first is grid.member(grid.size - 1) is grid.params_list[-1]
        assert (first.a, first.anchor, first.ell, first.c) == (16.0, 2, None, 0.0)

    @pytest.mark.parametrize("a, ell, anchor, message", [
        ([1.0, 0.0, 1.0], None, [0, 5, 1], "metric cones need a > 0"),
        ([1.0, 1.0], None, [0, 3], "metric cones need an in-range anchor"),
        ([1.0, 1.0], [[1.0], [2.0]], [0, 1], "metric cones carry no slope"),
        ([1.0, 0.0], None, None, "metric cones need an in-range anchor"),
        # non-finite values come first, as making each ElemParams would
        ([0.0, np.inf], None, [9, 0], "a must be finite"),
    ])
    def test_validate_members(self, a, ell, anchor, message):
        fam = ElemFamily.metric(line_space([0.0, 1.0, 3.0]))
        with pytest.raises(BadParams, match=f"^{message}$"):
            validate_members(fam, a, ell, anchor)
        with pytest.raises(BadParams, match=f"^{message}$"):
            DualGrid(fam, a=a, ell=ell, anchor=anchor)

    def test_integral_float_anchors_read_as_integers(self):
        fam = ElemFamily.metric(line_space([0.0, 1.0, 3.0]))
        for anchor in ([2.0, np.float64(1.0)], np.array([2.0, 1.0]), [np.int32(2), 1]):
            validate_members(fam, [1.0, 1.0], anchor=anchor)
            grid = DualGrid(fam, a=[1.0, 1.0], anchor=anchor)
            assert grid.anchor.dtype == np.int64 and grid.anchor.tolist() == [2, 1]

    def test_anchor_count_must_match_members(self):
        fam = ElemFamily.metric(line_space([0.0, 1.0, 3.0]))
        for anchor in ([0, 1, 2], [0]):
            with pytest.raises(ValueError):
                validate_members(fam, [1.0, 2.0], anchor=anchor)
            with pytest.raises(ValueError):
                DualGrid(fam, a=[1.0, 2.0], anchor=anchor)

    def test_subnormal_slope_ladder_collides(self):
        # a slope bound of 1e-323 spaces a 9-rung ladder below the least
        # subnormal, so np.linspace rounds its steps onto each other
        space = line_space([0.0, 1.0])
        f = GridFn(space, [0.0, 5e-324])
        with pytest.raises(ValueError, match="^duplicate parameter tuple in DualGrid$"):
            default_dual_grid(ElemFamily.affine(space), f)

    def test_default_grid_covers_slope_bound(self):
        space = line_space([-1.0, 0.0, 1.0])
        f = GridFn(space, [3.0, 0.0, 3.0])  # difference quotient 3, bound 6
        grid = default_dual_grid(ElemFamily.affine(space), f)
        slopes = sorted(p.ell[0] for p in grid.params_list)
        assert slopes[0] == -6.0 and slopes[-1] == 6.0 and 0.0 in slopes


#: entries that collide once +0.0 is added, sit an ulp apart, underflow or
#: overflow against the points
_POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.nextafter(0.5, 1.0), 2.0, -3.0,
                  5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.5e308])
_KINDS = ("affine", "quad_minus", "quad_plus", "sigma_nu", "metric",
          "generalized_metric", "gauge")


def _oracle_family(rng, kind, dim):
    """A family on 1 to 7 distinct points in dim coordinates, some of them
    zeros of either sign, now and then scaled down to 1e-300."""
    pts = np.unique(rng.integers(-3, 4, (int(rng.integers(1, 8)), dim)), axis=0).astype(float)
    pts *= float(rng.choice([1.0, 1.0, 0.25, 1e-300]))
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    space = build_metric_space(pts, validate="fast")
    if kind == "sigma_nu":
        sigma, nu = random_sigma_nu(rng, space)
        return ElemFamily.sigma_nu(space, sigma, nu)
    if kind == "generalized_metric":
        return ElemFamily.generalized_metric(
            space, Sampled1D([0.0, 0.5, 2.0], [0.0, float(rng.uniform(0.2, 1.0)), 2.0]), 2.0)
    if kind == "gauge":
        return ElemFamily.gauge(space, str(rng.choice(["l1", "l2", "linf"])))
    return getattr(ElemFamily, kind)(space)


def _oracle_draw(rng, shape):
    """Pool entries, uniform draws or multiples of 1/4 (repeats are common)."""
    style = rng.integers(3)
    if style == 0:
        return _POOL[rng.integers(_POOL.size, size=shape)]
    if style == 1:
        return rng.uniform(-4.0, 4.0, shape)
    return rng.integers(-8, 9, shape) / 4.0


def _oracle_members(rng, fam):
    """Arrays a, ell, anchor for fam: mostly admissible, with near-repeats
    (copies with flipped zero signs, an ulp apart), subnormal slope ladders,
    and now and then non-finite entries and broken rules at random
    positions; anchors as integer arrays, lists or integral floats."""
    kind, n, dim = fam.kind.value, fam.domain.n, fam.domain.dim
    P = int(rng.choice([1, 2, 3, int(rng.integers(4, 40)), int(rng.integers(40, 200))]))
    a = np.abs(_oracle_draw(rng, P))
    if kind in ("metric", "generalized_metric", "gauge"):
        a[a == 0.0] = 1.0
    if kind == "affine":
        a[:] = np.where(rng.random(P) < 0.5, 0.0, -0.0)
    ell = None
    if kind in ("affine", "quad_minus", "quad_plus", "gauge") and rng.random() < 0.97 \
            or rng.random() < 0.1:
        ell = _oracle_draw(rng, (P, dim))
        if rng.random() < 0.3:  # a subnormal ladder: its steps collide
            ell[:, 0] = np.linspace(-1.0, 1.0, P) * 5e-324 * int(rng.integers(1, 9))
    anchor = None
    if kind in ("metric", "generalized_metric") or rng.random() < 0.1:
        anchor = rng.integers(0, n, P)
    for _ in range(int(rng.choice([0, 1, 3]))):  # near-repeats
        i, j = sorted(rng.integers(0, P, 2))
        a[j] = a[i] if rng.random() < 0.5 else np.nextafter(a[i], np.inf)
        if ell is not None:
            ell[j] = np.where(ell[i] == 0.0, -ell[i], ell[i])
        if anchor is not None:
            anchor[j] = anchor[i]
    if rng.random() < 0.3:  # a broken rule
        j = int(rng.integers(P))
        if anchor is not None and rng.random() < 0.5:
            anchor[j] = n if rng.random() < 0.5 else -1
        else:
            a[j] = -1.0 if kind != "affine" else 1.0
    if rng.random() < 0.15:  # a non-finite entry
        arr = ell if ell is not None and rng.random() < 0.5 else a
        arr.flat[int(rng.integers(arr.size))] = rng.choice([np.inf, -np.inf, np.nan])
    if ell is not None and rng.random() < 0.05:
        ell = _oracle_draw(rng, (P, dim + 1))
    if anchor is not None:
        form = rng.integers(4)
        if form == 1:
            anchor = anchor.tolist()
        elif form >= 2:
            anchor = anchor.astype(float)
            if form == 3:  # an anchor ElemParams rejects
                bad = anchor.tolist()
                bad[int(rng.integers(P))] = [0.5, True, np.nan, -np.inf][int(rng.integers(4))]
                anchor = bad
    return a, ell, anchor


def _made_alone(a, ell, anchor):
    """The first error making each member's ElemParams in turn raises."""
    for j in range(len(a)):
        try:
            ElemParams(a=a[j], ell=None if ell is None else ell[j],
                       anchor=None if anchor is None else anchor[j])
        except BadParams as e:
            return BadParams, str(e)
    return None


def _outcome(build):
    """build()'s arrays, or the type and message of the error it raised."""
    try:
        return build()
    except (ValueError, AbconvexError) as e:
        return type(e), str(e)


def _failed(outcome):
    return len(outcome) == 2 and isinstance(outcome[0], type)


def _grid_arrays(grid):
    return grid.a, grid.ell, grid.anchor, grid.matrix


def _same_outcome(got, want):
    """The same error, or arrays with the same bits and zero signs."""
    if _failed(got) or _failed(want):
        return got == want
    return len(got) == len(want) and all(
        g is None if w is None else g is not None and same_bits(g, w)
        and np.array_equal(np.signbit(g), np.signbit(w)) for g, w in zip(got, want))


class TestConstructionOracle:
    """DualGrid, validate_members and members_on_domain against the
    construction they replaced (conftest.old_dual_grid): the same a, ell,
    anchor and member-matrix bits, or the same error type and message."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_KINDS), st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
    def test_arrays_match_the_old_construction(self, kind, dim, seed):
        rng = np.random.default_rng(seed)
        fam = _oracle_family(rng, kind, dim)
        a, ell, anchor = _oracle_members(rng, fam)
        first = _made_alone(a, ell, anchor)
        want = first or _outcome(lambda: old_dual_grid(fam, a=a, ell=ell, anchor=anchor))
        got = _outcome(lambda: _grid_arrays(DualGrid(fam, a=a, ell=ell, anchor=anchor)))
        assert _same_outcome(got, want), (got, want)
        want = first or _outcome(lambda: (old_raise_first(
            families._member_rules(fam, old_arrays(a, ell, anchor))),))
        got = _outcome(lambda: (validate_members(fam, a, ell, anchor),))
        assert got == want, (got, want)
        if got == (None,):  # admissible, repeats allowed: the matrix plus offsets c
            ints = None if anchor is None else np.array(anchor, np.int64)
            c = _oracle_draw(rng, len(a) if rng.random() < 0.5 else ())
            want = _outcome(lambda: (old_members_on_domain(fam, a, ell, ints, c),))
            got = _outcome(lambda: (members_on_domain(fam, a, ell, ints, c),))
            assert _same_outcome(got, want), (got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_KINDS), st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
    def test_member_lists_match_the_old_construction(self, kind, dim, seed):
        rng = np.random.default_rng(seed)
        fam = _oracle_family(rng, kind, dim)
        a, ell, anchor = _oracle_members(rng, fam)
        if _made_alone(a, ell, anchor) is not None:
            return
        members = []
        for j in range(len(a)):  # offsets of either zero sign, now and then another
            c = float(rng.choice([0.0, -0.0])) if rng.random() < 0.97 else 1.0
            keep_ell, keep_anchor = rng.random(2) < 0.95
            members.append(ElemParams(
                a=a[j], c=c, ell=None if ell is None or not keep_ell else ell[j],
                anchor=None if anchor is None or not keep_anchor else anchor[j]))
        for _ in range(int(rng.choice([0, 1, 2]))):  # told apart by one field only
            i, j = sorted(rng.integers(0, len(a), 2))
            m = members[i]
            members[j] = [
                ElemParams(a=m.a, ell=m.ell, anchor=0 if m.anchor is None else None),
                ElemParams(a=m.a, anchor=m.anchor,
                           ell=np.zeros(0) if m.ell is None else np.append(m.ell, -0.0)),
                ElemParams(a=m.a, anchor=m.anchor, ell=m.ell, c=-m.c)][int(rng.integers(3))]
        got = _outcome(lambda: _grid_arrays(DualGrid(fam, members)))
        assert _same_outcome(got, _outcome(lambda: old_dual_grid(fam, members))), got
        for p in members[:5]:  # each member alone, its offset's zero sign included
            want = _outcome(lambda: (old_raise_first(families._member_rules(
                fam, families._one(p))) or old_members_on_domain(
                fam, [p.a], [p.ell], [p.anchor], p.c)[0],))
            assert _same_outcome(_outcome(lambda: (eval_on_domain(fam, p),)), want)


class TestConjugate:
    def setup_method(self):
        self.space = line_space([-1.0, 0.0, 1.0])
        self.f = GridFn(self.space, [1.0, 0.0, 1.0])  # |x|

    def test_slope_inside_cap(self):
        grid = affine_grid(self.space, [1.0])
        assert conjugate_transform(self.f, grid)[0] == 0.0

    def test_slope_outside_cap(self):
        # brute-force oracle over the 3 grid points
        grid = affine_grid(self.space, [2.0])
        oracle = brute_conjugate(grid.matrix, self.f.values)
        assert oracle[0] == 1.0
        assert conjugate_transform(self.f, grid)[0] == 1.0

    def test_identically_plus_inf(self):
        grid = affine_grid(self.space, [-1.0, 0.0, 1.0])
        f = GridFn(self.space, [np.inf] * 3)
        star = conjugate_transform(f, grid)
        assert np.isneginf(star).all()
        # and the biconjugate returns +inf everywhere, matching f
        assert np.isposinf(biconjugate(f, grid).values).all()

    def test_minus_inf_rejected(self):
        grid = affine_grid(self.space, [0.0])
        with pytest.raises(ImproperInput):
            conjugate_transform(GridFn(self.space, [0.0, -np.inf, 0.0]), grid)

    def test_minus_inf_only_when_all_inf(self):
        grid = affine_grid(self.space, [-1.0, 0.0, 1.0])
        f = GridFn(self.space, [np.inf, 2.0, np.inf])
        assert np.isfinite(conjugate_transform(f, grid)).all()


class TestBiconjugate:
    def test_member_reproduced_exactly(self):
        space = line_space([-1.0, -0.5, 0.0, 0.5, 1.0])
        fam = ElemFamily.quad_minus(space)
        grid = DualGrid(fam, (ElemParams(a=1.0, ell=[0.0]),
                              ElemParams(a=2.0, ell=[0.0]),
                              ElemParams(a=1.0, ell=[1.0])))
        f = GridFn(space, -space.points[:, 0] ** 2)
        assert np.array_equal(biconjugate(f, grid).values, f.values)

    def test_concave_cap_flattens(self):
        space = line_space([-1.0, -0.5, 0.0, 0.5, 1.0])
        grid = affine_grid(space, [-2.0, -1.0, 0.0, 1.0, 2.0])
        f = GridFn(space, -np.abs(space.points[:, 0]))
        oracle = brute_biconjugate(grid.matrix, f.values)
        assert np.array_equal(oracle, np.full(5, -1.0))
        assert np.array_equal(biconjugate(f, grid).values, np.full(5, -1.0))

    def test_convex_pwl_recovered(self):
        # kinks at grid points, all subgradient slopes present in the grid
        xs = np.array([-1.0, 0.0, 0.5, 1.0])
        space = line_space(xs)
        fs = np.array([2.0, 0.0, 0.5, 1.5])   # slopes -2, 1, 2
        envelope = lower_convex_envelope_1d(xs, fs)
        assert np.allclose(envelope, fs)       # data already convex
        grid = affine_grid(space, [-2.0, 1.0, 2.0])
        out = biconjugate(GridFn(space, fs), grid)
        assert np.array_equal(out.values, fs)


class TestIsSupport:
    def setup_method(self):
        self.space = line_space([-1.0, 0.0, 1.0])
        self.fam = ElemFamily.affine(self.space)
        self.f = GridFn(self.space, [1.0, 0.0, 1.0])

    def test_constant_below(self):
        assert is_support(self.fam, ElemParams(ell=[0.0], c=-5.0), self.f, 0.0)

    def test_slope_one(self):
        assert is_support(self.fam, ElemParams(ell=[1.0], c=0.0), self.f, 0.0)

    def test_slope_two_fails(self):
        assert not is_support(self.fam, ElemParams(ell=[2.0], c=0.0), self.f, 0.0)

    def test_matches_conjugate_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            slopes = rng.uniform(-3, 3, size=4)
            grid = affine_grid(self.space, slopes)
            f = GridFn(self.space, rng.normal(size=3))
            star = conjugate_transform(f, grid)
            for j, p in enumerate(grid.params_list):
                assert is_support(self.fam, p, f, 0.0) == (star[j] <= 0.0)


class TestConvexityDefect:
    def test_family_member_zero_defect(self):
        space = line_space([-1.0, -0.5, 0.0, 0.5, 1.0])
        fam = ElemFamily.quad_minus(space)
        grid = DualGrid(fam, (ElemParams(a=1.0, ell=[0.0]),))
        f = GridFn(space, -space.points[:, 0] ** 2)
        assert np.array_equal(f.values - biconjugate(f, grid).values, np.zeros(5))

    def test_neg_abs_defects(self):
        space = line_space([-1.0, -0.5, 0.0, 0.5, 1.0])
        grid = affine_grid(space, [-2.0, -1.0, 0.0, 1.0, 2.0])
        f = GridFn(space, -np.abs(space.points[:, 0]))
        defect = f.values - biconjugate(f, grid).values
        assert (defect[2], defect[0], defect[4]) == (1.0, 0.0, 0.0)


def _random_family_and_grid(rng, kind):
    n = int(rng.integers(4, 30))
    space = spaced_line(rng, n)
    scale = float(rng.choice([0.5, 2.0, 10.0]))
    f = rng.normal(size=n) * scale
    if rng.random() < 0.25:
        f[rng.random(n) < 0.3] = np.inf
        if not np.isfinite(f).any():
            f[0] = 0.0
    fgrid = GridFn(space, f)
    if kind == "affine":
        grid = default_dual_grid(ElemFamily.affine(space), fgrid, slope_count=7)
    elif kind == "quad_minus":
        grid = default_dual_grid(ElemFamily.quad_minus(space), fgrid,
                                 slope_count=5, curvature_levels=3)
    elif kind == "quad_plus":
        grid = default_dual_grid(ElemFamily.quad_plus(space), fgrid,
                                 slope_count=5, curvature_levels=3)
    elif kind == "metric":
        grid = default_dual_grid(ElemFamily.metric(space), fgrid,
                                 curvature_levels=3, max_anchors=8)
    elif kind == "generalized_metric":
        shape = Sampled1D([0.0, 0.5, 2.0], [0.0, float(rng.uniform(0.2, 1.0)), 2.0])
        fam = ElemFamily.generalized_metric(space, shape, 2.0)
        grid = default_dual_grid(fam, fgrid, curvature_levels=3, max_anchors=6)
    elif kind == "gauge":
        fam = ElemFamily.gauge(space, str(rng.choice(["l1", "l2", "linf"])))
        grid = default_dual_grid(fam, fgrid, slope_count=3, curvature_levels=3)
    else:
        sigma, nu = random_sigma_nu(rng, space)
        grid = default_dual_grid(ElemFamily.sigma_nu(space, sigma, nu))
    return fgrid, grid


ALL_KINDS = ["affine", "quad_minus", "quad_plus", "sigma_nu", "metric",
             "generalized_metric", "gauge"]


class TestConjugationLaws:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_laws_per_family(self, kind):
        rng = np.random.default_rng(hash(kind) % 2 ** 32)
        for _ in range(60):
            f, grid = _random_family_and_grid(rng, kind)
            star = conjugate_transform(f, grid)
            second = biconjugate(f, grid)
            # the conjugate passed in is the one it would compute
            assert biconjugate(f, grid, star).values.tobytes() == second.values.tobytes()
            # pointwise dominance, exact
            assert (second.values <= f.values).all()
            # idempotence, exact
            third = biconjugate(second, grid)
            assert np.array_equal(third.values, second.values)
            # conjugate of the biconjugate equals the conjugate, exact
            assert np.array_equal(conjugate_transform(second, grid), star)
            # Fenchel-Young, exact
            with np.errstate(invalid="ignore"):
                gaps = grid.matrix - f.values[None, :]
            assert (star[:, None] >= gaps).all()

    def test_order_reversal(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f, grid = _random_family_and_grid(rng, ALL_KINDS[rng.integers(7)])
            bump = np.where(np.isfinite(f.values), np.abs(rng.normal(size=f.size)), 0.0)
            g = GridFn(f.domain, f.values + bump)
            assert (conjugate_transform(f, grid)
                    >= conjugate_transform(g, grid)).all()

    def test_offset_covariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            f, grid = _random_family_and_grid(rng, ALL_KINDS[rng.integers(7)])
            c = float(rng.normal())
            star = conjugate_transform(f, grid)
            star_shift = conjugate_transform(GridFn(f.domain, f.values + c), grid)
            finite = np.isfinite(star)
            assert np.allclose(star_shift[finite], star[finite] - c, atol=1e-9)
            second = biconjugate(f, grid)
            second_shift = biconjugate(GridFn(f.domain, f.values + c), grid)
            fin2 = np.isfinite(second.values)
            assert np.allclose(second_shift.values[fin2], second.values[fin2] + c,
                               atol=1e-9)


def _family_on_three_points(kind, space):
    if kind == "sigma_nu":
        return ElemFamily.sigma_nu(space, GridFn(space, [0.0, 1.0, 2.0]),
                                   GridFn(space, [0.0, 0.5, -1.0]))
    if kind == "generalized_metric":
        return ElemFamily.generalized_metric(space, Sampled1D([0.0, 1.0], [0.0, 1.0]), 2.0)
    return getattr(ElemFamily, kind)(space)


# (values of f on {0, 1, 2}, its slope bound or None when that overflows,
# whether the default grids of the kinds that use the bound overflow)
OVERFLOW_CASES = [([-1e308, 1e308, 0.0], None, True),
                  ([-4e307, 4e307, 0.0], 1.6e308, True),
                  ([-1e307, 1e307, 0.0], 4e307, False)]


class TestDefaultGridOverflow:
    """Values whose differences near the largest double: the slope bound, the
    ladders and the members' values hold as finite doubles, or ImproperInput
    names the overflow; no RuntimeWarning either way."""

    @pytest.mark.parametrize("values, bound, _", OVERFLOW_CASES)
    def test_slope_bound(self, values, bound, _):
        space = line_space([0.0, 1.0, 2.0])
        f = GridFn(space, values)
        if bound is None:
            with pytest.raises(ImproperInput, match="slope bound of f overflows"):
                families.slope_bound(f, space)
        else:
            assert families.slope_bound(f, space) == bound

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("values, _, overflows", OVERFLOW_CASES)
    def test_default_dual_grid(self, kind, values, _, overflows):
        space = line_space([0.0, 1.0, 2.0])
        fam, f = _family_on_three_points(kind, space), GridFn(space, values)
        if overflows and kind != "sigma_nu":  # sigma_nu never uses the bound
            with pytest.raises(ImproperInput, match="overflow"):
                default_dual_grid(fam, f)
        else:
            assert np.isfinite(default_dual_grid(fam, f).matrix).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_curvature_rungs(self, kind):
        space = line_space([0.0, 1.0, 2.0])
        fam = _family_on_three_points(kind, space)
        if kind == "affine":  # no curvature
            assert np.isfinite(default_dual_grid(fam, curvature_levels=1025).matrix).all()
        else:
            with pytest.raises(ImproperInput, match="curvature rungs"):
                default_dual_grid(fam, curvature_levels=1025)
            # the rungs up to 2**1023 hold, but not every member's values do
            with pytest.raises(ImproperInput, match="^member values overflow the doubles$"):
                default_dual_grid(fam, curvature_levels=1024)


# (values of f on {0, 1e-170, 3e-170}, whether its slope bound overflows)
TINY_SPACE_CASES = [([0.0, 1.0, 2.0], False), ([0.0, 1e-300, 2e-300], False),
                    ([0.0, 1e137, 0.0], False), ([0.0, 1e300, -1e300], True)]


class TestTinyDistances:
    """Points whose distances square to 0 in doubles, reaching the slope
    bound and the default grids: a finite grid, or ImproperInput naming the
    overflow; no warning either way."""

    def test_slope_bound(self):
        space = line_space([0.0, 1e-170, 3e-170])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = families.slope_bound(GridFn(space, [0.0, 1.0, 2.0]), space)
        assert bound == 2.0 * (1.0 / 1e-170)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("values, overflows", TINY_SPACE_CASES)
    def test_default_dual_grid(self, kind, values, overflows):
        space = line_space([0.0, 1e-170, 3e-170])
        fam, f = _family_on_three_points(kind, space), GridFn(space, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflows and kind != "sigma_nu":  # sigma_nu never uses the bound
                with pytest.raises(ImproperInput, match="slope bound of f overflows"):
                    default_dual_grid(fam, f)
            else:
                assert np.isfinite(default_dual_grid(fam, f).matrix).all()


# one member of each kind, as arrays, whose values on {0, 1, 2} overflow
OVERFLOWING_MEMBERS = {
    "affine": dict(a=[0.0], ell=[[1e308]]),
    "quad_minus": dict(a=[1e308], ell=[[0.0]]),
    "quad_plus": dict(a=[1e308], ell=[[0.0]]),
    "sigma_nu": dict(a=[1e308]),
    "metric": dict(a=[1e308], anchor=[0]),
    "generalized_metric": dict(a=[1e308], anchor=[0]),
    "gauge": dict(a=[1e308], ell=[[0.0]]),
}


def _params(a, ell=None, anchor=None):
    return ElemParams(a=a[0], ell=None if ell is None else ell[0],
                      anchor=None if anchor is None else anchor[0])


class TestMemberOverflow:
    """Members whose values overflow the doubles raise ImproperInput naming
    the overflow wherever members are made, with no RuntimeWarning."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_path(self, kind):
        fam = _family_on_three_points(kind, line_space([0.0, 1.0, 2.0]))
        arrays = OVERFLOWING_MEMBERS[kind]
        for make in (lambda: DualGrid(fam, **arrays),
                     lambda: DualGrid(fam, [_params(**arrays)]),
                     lambda: eval_on_domain(fam, _params(**arrays))):
            with pytest.raises(ImproperInput, match="^member values overflow the doubles$"):
                make()

    def test_infinities_of_both_signs(self):
        # -1e308 * 4 + 1e308 * 2 is -inf + inf at the point 2
        fam = ElemFamily.quad_minus(line_space([0.0, 1.0, 2.0]))
        with pytest.raises(ImproperInput, match="overflow"):
            DualGrid(fam, a=[1e308], ell=[[1e308]])

    def test_largest_double_is_kept(self):
        fam = ElemFamily.metric(line_space([0.0, 1.0, 2.0]))
        top = np.finfo(float).max
        grid = DualGrid(fam, a=[top / 2], anchor=[0])
        assert grid.matrix[0, 2] == -top


class TestPeakingWitness:
    def setup_method(self):
        self.space = line_space([0.0, 1.0, 2.0])
        self.fam = ElemFamily.metric(self.space)

    def test_worked_example(self):
        g = ElemParams(a=1.0, anchor=0, c=0.0)
        bar = peaking_witness(self.fam, 0, eps=0.5, delta=1.0, K=3.0, g=g)
        assert bar.a == 4.5 and bar.c == 0.5 and bar.anchor == 0

    def test_vacuous_far_set(self):
        g = ElemParams(a=1.0, anchor=0, c=0.0)
        bar = peaking_witness(self.fam, 0, eps=0.25, delta=10.0, K=3.0, g=g)
        assert bar.a == 1.0 and bar.c == 0.25

    def test_zero_eps_K_specialization(self):
        g = ElemParams(a=2.0, anchor=1, c=-1.0)
        bar = peaking_witness(self.fam, 0, eps=0.0, delta=1.0, K=0.0, g=g)
        gv = eval_on_domain(self.fam, g)
        d = self.space.dist[0]
        far = d >= 1.0
        expect = max((-gv[far]) / d[far])
        assert bar.a == expect

    def test_random_draws_verified(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            space = spaced_line(rng, int(rng.integers(3, 12)))
            fam = ElemFamily.metric(space)
            y0 = int(rng.integers(space.n))
            eps = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(0.05, 2.0))
            K = float(rng.uniform(0.1, 10.0))
            g = ElemParams(a=float(rng.uniform(0.2, 5.0)),
                           anchor=int(rng.integers(space.n)),
                           c=float(rng.normal()))
            bar = peaking_witness(fam, y0, eps, delta, K, g)
            vals = eval_on_domain(fam, bar)
            gv = eval_on_domain(fam, g)
            far = space.dist[y0] >= delta
            assert (vals <= eps).all()
            assert (vals[far] <= gv[far] - K).all()

    def test_generalized_metric_witness(self):
        shape = Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 1.2])
        fam = ElemFamily.generalized_metric(self.space, shape, 2.0)
        g = ElemParams(a=1.0, anchor=0, c=0.0)
        bar = peaking_witness(fam, 0, eps=0.5, delta=1.0, K=2.0, g=g)
        vals = eval_on_domain(fam, bar)
        gv = eval_on_domain(fam, g)
        far = self.space.dist[0] >= 1.0
        assert (vals <= 0.5).all() and (vals[far] <= gv[far] - 2.0).all()

    def test_negative_near_shape_fails_at_once(self, monkeypatch):
        # the shape dips below zero at the near point 1, where eps - a * shape
        # exceeds eps for the first scale and for every larger one
        shape = Sampled1D([0.0, 1.0, 2.0], [0.0, -0.5, 1.0])
        fam = ElemFamily.generalized_metric(line_space([0.0, 1.0, 3.0]), shape, 2.0)
        tried = []

        def spy(family, params):
            tried.append(params)
            return eval_on_domain(family, params)

        monkeypatch.setattr(families, "eval_on_domain", spy)
        message = "^grid verification failed for every candidate scale$"
        with pytest.raises(NoWitness, match=message):
            peaking_witness(fam, 0, eps=0.5, delta=2.0, K=1.0, g=ElemParams(a=1.0, anchor=2))
        assert len([p for p in tried if p.anchor == 0]) <= 1

    def test_wrong_family_rejected(self):
        with pytest.raises(BadParams):
            peaking_witness(ElemFamily.affine(self.space), 0, 0.1, 1.0, 1.0,
                            ElemParams(ell=[0.0]))

    @pytest.mark.parametrize("y0", [-1, 3])
    @pytest.mark.parametrize("generalized", [False, True])
    def test_y0_outside_domain_rejected(self, generalized, y0):
        fam = ElemFamily.generalized_metric(
            self.space, Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 1.2]), 2.0) \
            if generalized else self.fam
        with pytest.raises(BadParams, match="y0"):
            peaking_witness(fam, y0, eps=0.5, delta=1.0, K=1.0,
                            g=ElemParams(a=1.0, anchor=0))


class TestUrysohnWitness:
    def test_metric_example(self):
        space = line_space([0.0, 1.0, 2.0])
        fam = ElemFamily.metric(space)
        w = urysohn_witness(fam, 0, eps=0.1, delta=1.0)
        assert (w.a, w.c, w.anchor) == (1.0, 1.0, 0)
        assert np.array_equal(eval_on_domain(fam, w), [1.0, 0.0, -1.0])

    def test_delta_beyond_diameter(self):
        space = line_space([0.0, 1.0, 2.0])
        fam = ElemFamily.metric(space)
        w = urysohn_witness(fam, 0, eps=0.3, delta=10.0)
        vals = eval_on_domain(fam, w)
        assert vals[0] > 0.7 and (vals <= 1.0).all()

    def test_two_point_example(self):
        space = line_space([0.0, 1.0])
        fam = ElemFamily.metric(space)
        w = urysohn_witness(fam, 0, eps=0.5, delta=0.5)
        assert (w.a, w.c) == (2.0, 1.0)
        assert np.array_equal(eval_on_domain(fam, w), [1.0, -1.0])

    @pytest.mark.parametrize("family", [ElemFamily.metric, ElemFamily.gauge])
    def test_first_scale_steps_once(self, family):
        # (1/49) * 49 rounds to 0.9999999999999999, so the first scale leaves
        # the far point above zero and the search steps once
        fam = family(line_space([0.0, 49.0]))
        w = urysohn_witness(fam, 0, eps=0.5, delta=49.0)
        assert w.a == (1.0 / 49.0) * _NUDGE and w.c == 1.0
        assert (1.0 / 49.0) * 49.0 < 1.0

    @pytest.mark.parametrize("family", [ElemFamily.metric, ElemFamily.gauge])
    def test_eps_below_half_ulp_of_one(self, family):
        # 1.0 - 1e-17 rounds to 1.0; the peak value 1.0 is still within eps
        fam = family(line_space([0.0, 1.0, 2.0]))
        w = urysohn_witness(fam, 0, eps=1e-17, delta=1.0)
        vals = eval_on_domain(fam, w)
        assert vals[0] == 1.0 and (vals[1:] <= 0.0).all()

    def test_gauge_origin(self):
        space = line_space([-1.0, 0.0, 1.0, 2.0])
        fam = ElemFamily.gauge(space, "l2")
        w = urysohn_witness(fam, 1, eps=0.2, delta=1.5)
        vals = eval_on_domain(fam, w)
        d = space.dist[1]
        assert vals[1] > 0.8
        assert (vals[d < 1.5] <= 1.0).all() and (vals[d >= 1.5] <= 0.0).all()

    def test_gauge_off_origin_lp(self):
        # peak at 1.0 with a far point beyond it on the same ray: feasible only
        # for a generous eps (gauge members are linear along rays)
        space = line_space([-1.0, 0.0, 1.0, 2.0])
        fam = ElemFamily.gauge(space, "l2")
        w = urysohn_witness(fam, 2, eps=0.9, delta=1.2)
        vals = eval_on_domain(fam, w)
        d = space.dist[2]
        assert vals[2] > 0.1
        assert (vals[d < 1.2] <= 1.0).all() and (vals[d >= 1.2] <= 0.0).all()

    def test_gauge_lp_slope_below_its_bound(self):
        # HiGHS returns a = -0.0 under the LP's bound a >= 1e-9 here; the
        # member is clamped to the bound and verified, not rejected
        pts = [[-1.4091833781793275, 0.2314762773737753],
               [-1.1123512614527176, -0.8295003263520901],
               [-1.0555214915037645, -0.9763425063835993],
               [-0.3652987489085153, -0.6674162173244773],
               [0.0, 0.0], [0.4363030861966686, -0.3925675883941464],
               [0.5178676426122792, 0.19282211701795093], [0.5877152216314196, 0.7216746797059277],
               [1.3222877373687218, 0.560998385010683], [1.3390772040565655, -0.19017461280094228],
               [1.3528716988595129, 1.4982537588172482], [1.5368184739797193, 1.5436365403388224]]
        fam = ElemFamily.gauge(build_metric_space(np.array(pts), validate="fast"), "l2")
        eps, delta = 0.3828464811218787, 2.993464901103726
        w = urysohn_witness(fam, 8, eps, delta)
        vals, d = eval_on_domain(fam, w), fam.domain.dist[8]
        assert w.a >= 1e-9 and 1.0 - vals[8] < eps
        assert (vals[d < delta] <= 1.0).all() and (vals[d >= delta] <= 0.0).all()

    def test_gauge_ray_limitation_flagged(self):
        # a sharp peak against a same-ray far point has no gauge witness on a
        # finite grid; the search reports failure instead of faking one
        space = line_space([-1.0, 0.0, 1.0, 2.0])
        fam = ElemFamily.gauge(space, "l2")
        with pytest.raises(NoWitness):
            urysohn_witness(fam, 2, eps=0.3, delta=0.9)

    def test_random_metric_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            space = spaced_line(rng, int(rng.integers(2, 12)))
            fam = ElemFamily.metric(space)
            y0 = int(rng.integers(space.n))
            eps = float(rng.uniform(0.01, 0.9))
            delta = float(rng.uniform(0.05, 2.0))
            w = urysohn_witness(fam, y0, eps, delta)
            vals = eval_on_domain(fam, w)
            d = space.dist[y0]
            assert vals[y0] > 1 - eps
            assert (vals[d < delta] <= 1.0).all()
            assert (vals[d >= delta] <= 0.0).all()

    @pytest.mark.parametrize("y0", [-1, 4])
    @pytest.mark.parametrize("family", [ElemFamily.metric, ElemFamily.gauge])
    def test_y0_outside_domain_rejected(self, family, y0):
        fam = family(line_space([-1.0, 0.0, 1.0, 2.0]))
        with pytest.raises(BadParams, match="y0"):
            urysohn_witness(fam, y0, eps=0.5, delta=0.5)

    def test_rejects_bad_inputs(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(BadParams):
            urysohn_witness(ElemFamily.metric(space), 0, eps=0.0, delta=1.0)
        with pytest.raises(BadParams):
            urysohn_witness(ElemFamily.affine(space), 0, eps=0.1, delta=1.0)


class TestWitnessScaleOverflow:
    """A witness scale outside the doubles is ImproperInput, reached with no
    warning; every finite scale keeps its bits."""

    GAUGE_POINTS = [[0.0] * 5, [1.0] * 5, [2.0, 0.0, 0.0, 0.0, 0.0]]

    @staticmethod
    def overflows(witness):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImproperInput, match="^the witness scale overflows the doubles$"):
                witness()

    def test_gauge_origin_width_underflows(self):
        # kappa * delta underflows to 0, where 1 / 0 raised ZeroDivisionError
        fam = ElemFamily.gauge(build_metric_space(np.array(self.GAUGE_POINTS)), "linf")
        self.overflows(lambda: urysohn_witness(fam, 0, eps=0.5, delta=5e-324))

    def test_metric_scale_overflows(self):
        # 1 / 5e-324 is inf, which was rejected as "a must be finite"
        fam = ElemFamily.metric(line_space([0.0, 1.0, 2.0]))
        self.overflows(lambda: urysohn_witness(fam, 0, eps=0.5, delta=5e-324))

    def test_peaking_need_overflows(self):
        # eps + K - g reaches 1.8e308 on the far set
        fam = ElemFamily.metric(line_space([0.0, 1.0, 2.0]))
        g = ElemParams(a=8e307, anchor=0)
        self.overflows(lambda: peaking_witness(fam, 0, eps=1e308, delta=1.0, K=0.0, g=g))

    def test_a_nudge_to_inf(self):
        fam = ElemFamily.metric(line_space([0.0, 0.5]))
        tried = []

        def member(a):
            tried.append(a)
            return ElemParams(a=a, anchor=0, c=1.0)

        top = float(np.finfo(float).max)
        self.overflows(lambda: families._first_verified(
            fam, member, top, lambda a: a * _NUDGE, lambda vals: False, "never"))
        assert tried == [top]

    def test_finite_scales_keep_their_bits(self):
        fam = ElemFamily.metric(line_space([0.0, 1.0, 2.0]))
        assert urysohn_witness(fam, 0, eps=0.5, delta=1e-300).a == 1.0 / 1e-300
        fam = ElemFamily.gauge(build_metric_space(np.array(self.GAUGE_POINTS)), "linf")
        d = fam.domain.dist[0]
        kappa = float((fam.gauge_values()[1:] / d[1:]).min())
        assert urysohn_witness(fam, 0, eps=0.5, delta=1e-300).a == 1.0 / (kappa * 1e-300)
