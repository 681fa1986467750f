"""Extended reals, metric-space construction, grid functions."""

import copy
import math
import operator
import pickle
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abconvex import (
    ConstrainedInstance,
    ConstraintMap,
    ExtReal,
    GridFn,
    MINUS_INF,
    PLUS_INF,
    build_metric_space,
    verify_zero_gap_metric,
)
from abconvex import core
from abconvex.core import as_ext_array, is_proper, max_sub_up, sub_up
from abconvex.errors import EmptyDomain, NonMetric, UndefinedSum

from conftest import (SUB_UP_SPECIALS, SUB_UP_STYLES, old_euclidean_dist, old_max_sub_up,
                      old_rescaled_euclidean_dist, old_sub_up, same_bits, sub_up_pairs)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
anyext = st.floats(allow_nan=False, allow_infinity=True, width=64)


class TestExtReal:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ExtReal(float("nan"))

    def test_total_order_examples(self):
        assert MINUS_INF < ExtReal(-1e300) < ExtReal(0.0) < ExtReal(1e300) < PLUS_INF
        assert PLUS_INF == ExtReal(math.inf)
        assert ExtReal(2.0) == 2.0 and ExtReal(2.0) <= 2.5

    @given(st.lists(anyext, min_size=1, max_size=20))
    def test_max_min_well_defined(self, vals):
        xs = [ExtReal(v) for v in vals]
        assert max(xs).as_float() == max(vals)
        assert min(xs).as_float() == min(vals)

    @given(anyext, anyext)
    def test_comparison_matches_floats(self, a, b):
        assert (ExtReal(a) < ExtReal(b)) == (a < b)
        assert (ExtReal(a) == ExtReal(b)) == (a == b)

    def test_arithmetic_contract(self):
        # real -/+ infinities
        assert ExtReal(3.0) + PLUS_INF == PLUS_INF
        assert ExtReal(3.0) + MINUS_INF == MINUS_INF
        assert ExtReal(3.0) - PLUS_INF == MINUS_INF
        assert ExtReal(3.0) - MINUS_INF == PLUS_INF
        # scalar multiplication
        assert 2.0 * PLUS_INF == PLUS_INF
        assert -2.0 * PLUS_INF == MINUS_INF
        assert 0.0 * PLUS_INF == ExtReal(0.0)
        assert 0.0 * MINUS_INF == ExtReal(0.0)

    def test_opposite_infinities_rejected(self):
        with pytest.raises(UndefinedSum):
            PLUS_INF + MINUS_INF
        with pytest.raises(UndefinedSum):
            PLUS_INF - PLUS_INF
        with pytest.raises(UndefinedSum):
            MINUS_INF - MINUS_INF

    @given(finite, finite)
    def test_finite_add_matches_ieee(self, a, b):
        assert (ExtReal(a) + ExtReal(b)).as_float() == a + b

    def test_numpy_scalar_on_the_left_defers(self):
        out = np.float64(3.0) - ExtReal(1.0)
        assert type(out) is ExtReal and out == ExtReal(2.0)
        with pytest.raises(UndefinedSum):
            np.float64(np.inf) - PLUS_INF

    @pytest.mark.parametrize("expr", [lambda: 1 - PLUS_INF, lambda: 3.0 - PLUS_INF,
                                      lambda: 2 * PLUS_INF, lambda: -ExtReal(2.0)])
    def test_mixed_operands_return_extreal(self, expr):
        assert type(expr()) is ExtReal

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize("nan", [math.nan, np.float64(np.nan)])
    def test_nan_operand_rejected(self, op, nan):
        with pytest.raises(ValueError):
            op(ExtReal(1.0), nan)
        with pytest.raises(ValueError):
            op(nan, ExtReal(1.0))

    def test_infinite_scalar_factor_rejected(self):
        with pytest.raises(TypeError):
            ExtReal(2.0) * math.inf

    @given(anyext)
    def test_hash_matches_float(self, x):
        assert hash(ExtReal(x)) == hash(x)

    @pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy])
    @pytest.mark.parametrize("x", [-0.0, 1.5, math.inf, -math.inf])
    def test_copies_keep_type_and_sign(self, copier, x):
        out = copier(ExtReal(x))
        assert type(out) is ExtReal and out == x
        assert math.copysign(1.0, out.as_float()) == math.copysign(1.0, x)

    def test_repr_and_rewrap(self):
        assert repr(PLUS_INF) == "ExtReal(+inf)" and repr(MINUS_INF) == "ExtReal(-inf)"
        assert repr(ExtReal(1.5)) == "ExtReal(1.5)"
        assert ExtReal(ExtReal(2.0)) == ExtReal(2.0)


class TestExtSubReal:
    def test_examples(self):  # a real minus an extended real is an ExtReal
        for lhs, rhs, want in [(3.0, ExtReal(1.0), ExtReal(2.0)), (3.0, PLUS_INF, MINUS_INF),
                               (3.0, MINUS_INF, PLUS_INF)]:
            out = lhs - rhs
            assert type(out) is ExtReal and out == want


MAX = sys.float_info.max


def rounds_up(a, b):
    """sub_up(a, b) for finite a and b, checked through rationals to be the
    smallest double >= the exact difference (+inf above the largest double)."""
    out = float(sub_up(np.asarray([a]), np.asarray([b]))[0])
    exact = Fraction(a) - Fraction(b)
    if out == math.inf:
        assert exact > Fraction(MAX)
        return out
    assert Fraction(out) >= exact
    below = math.nextafter(out, -math.inf)
    assert below == -math.inf or Fraction(below) < exact
    return out


def _edges():
    """Powers of two (subnormal, smallest normal, 1, top binade) and their
    neighbours, +-max, 3 and 0.1, with both signs."""
    powers = [math.ldexp(1.0, k) for k in (-1074, -1073, -1023, -1022, -1, 0, 1, 52, 53, 1023)]
    mags = {x for p in powers for x in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))}
    mags |= {MAX, 3.0, 0.1}
    return sorted(m * sign for m in mags for sign in (1.0, -1.0))


class TestSubUp:
    @given(finite, finite)
    def test_exact_upward_rounding(self, a, b):
        rounds_up(a, b)

    def test_edges_against_rationals(self):
        edges = _edges()
        for a in edges:
            for b in edges:
                rounds_up(a, b)

    def test_overflow(self):
        # above the largest double rounds up to +inf, below the most
        # negative one up to exactly -max
        for a, b in [(MAX, -MAX), (2.0 ** 1023, -(2.0 ** 1023)), (MAX, -5e-324), (MAX, -1.0)]:
            assert rounds_up(a, b) == math.inf
        for a, b in [(-MAX, MAX), (-(2.0 ** 1023), 2.0 ** 1023), (-MAX, 5e-324), (-MAX, 1.0)]:
            assert rounds_up(a, b) == -MAX

    def test_signed_zeros(self):
        # an exact zero difference is -0.0 only for -0.0 - (+0.0), as in IEEE
        for a, b, sign in [(0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-0.0, 0.0, -1.0),
                           (-0.0, -0.0, 1.0), (1.5, 1.5, 1.0), (-MAX, -MAX, 1.0),
                           (5e-324, 5e-324, 1.0)]:
            out = rounds_up(a, b)
            assert out == 0.0 and math.copysign(1.0, out) == sign
        assert rounds_up(0.0, 5e-324) == -5e-324 and rounds_up(-0.0, -5e-324) == 5e-324

    def test_infinite_rhs(self):
        a = np.asarray(_edges() + [0.0, -0.0])
        assert (sub_up(a, np.full(a.size, np.inf)) == -np.inf).all()
        assert (sub_up(a, np.full(a.size, -np.inf)) == np.inf).all()
        assert (sub_up(a[:, None], np.asarray([[np.inf, -np.inf]])) == [-np.inf, np.inf]).all()

    def test_bit_identical_to_old_kernel(self):
        # the four-pass kernel that sub_up replaced, on the golden pair styles
        for k, style in enumerate(SUB_UP_STYLES):
            rng = np.random.default_rng(100 + k)
            a, b = sub_up_pairs(rng, style, 200_000)
            assert same_bits(sub_up(a, b), old_sub_up(a, b))
            assert same_bits(sub_up(a[:300, None], b[None, :300]),
                             old_sub_up(a[:300, None], b[None, :300]))

    def test_special_values_match_old_kernel(self):
        for a in SUB_UP_SPECIALS:
            for b in SUB_UP_SPECIALS:
                outs = []
                for kernel in (sub_up, old_sub_up):
                    try:
                        outs.append(kernel(np.asarray([a]), np.asarray([b])).tobytes())
                    except UndefinedSum:
                        outs.append(b"U")
                assert outs[0] == outs[1], (a, b)


def layouts(A, B):
    """(a, b) pairs that broadcast to A's shape with A's and B's values: C
    arrays, F-ordered arrays, transposed views, reversed strides on both
    sides or on b's alone, and a lone row or column of either side broadcast
    against the other."""
    T = lambda X: np.ascontiguousarray(X.T).T
    yield from [(A, B), (np.asfortranarray(A), B), (A, np.asfortranarray(B)), (T(A), T(B)),
                (A[::-1, ::-1], B[::-1, ::-1]), (A, B[::-1, ::-1]), (A, B[:1]), (A, B[:, :1]),
                (A[:1], B), (A[:, :1], B), (T(A), B[:1]), (A[:, :1], T(B))]


def matches_reference(a, b, axis):
    """max_sub_up(a, b, axis) and sub_up(a, b).max(axis) agree bit for bit, or
    both raise UndefinedSum."""
    outs = []
    for kernel in (max_sub_up, old_max_sub_up):
        try:
            outs.append(np.asarray(kernel(a, b, axis)))
        except UndefinedSum:
            outs.append(None)
    if outs[0] is None or outs[1] is None:
        return outs[0] is outs[1]
    return same_bits(*outs)


def round_up(exact):
    """The smallest double >= the rational exact, +inf above the largest
    double and -max below the most negative one."""
    if exact > Fraction(MAX):
        return math.inf
    if exact < -Fraction(MAX):
        return -MAX
    x = float(exact)
    return math.nextafter(x, math.inf) if Fraction(x) < exact else x


class TestMaxSubUp:
    SHAPES = [(1, 40), (40, 1), (33, 17), (17, 33), (64, 65), (150, 200)]

    @pytest.fixture(autouse=True)
    def tie_form(self, monkeypatch):
        """Blocks of every size take the form that rounds only the ties (the
        other form is the reference)."""
        monkeypatch.setattr(core, "_DENSE_BELOW", 0)

    def test_form_chosen_by_cell_count(self, monkeypatch):
        # below core._DENSE_BELOW cells every cell is rounded, from there on
        # only the ties: one a line for distinct differences
        monkeypatch.undo()
        cells = []
        real = core.sub_up
        monkeypatch.setattr(core, "sub_up", lambda a, b: cells.append(np.size(a)) or real(a, b))
        rng = np.random.default_rng(160)
        for shape, want in [((1, core._DENSE_BELOW - 1), core._DENSE_BELOW - 1),
                            ((1, core._DENSE_BELOW), 1), ((50, 100), 50)]:
            a, b = rng.normal(size=(2,) + shape)
            cells.clear()
            assert same_bits(max_sub_up(a, b, 1), old_max_sub_up(a, b, 1))
            assert cells == [want]

    def test_pair_styles(self):
        for k, style in enumerate(SUB_UP_STYLES):
            rng = np.random.default_rng(110 + k)
            for shape in self.SHAPES:
                a, b = sub_up_pairs(rng, style, shape[0] * shape[1])
                for x, y in layouts(a.reshape(shape), b.reshape(shape)):
                    for axis in (0, 1):
                        assert matches_reference(x, y, axis), (style, shape, axis)

    def test_special_pairs(self):
        specials = np.asarray(SUB_UP_SPECIALS)
        for x in specials:
            for y in specials:
                assert matches_reference(np.asarray([x]), np.asarray([y]), 0), (x, y)
        finite_b = specials[np.isfinite(specials)]
        for A, B in [np.meshgrid(specials, specials), np.meshgrid(specials, finite_b),
                     np.meshgrid(finite_b, specials[~np.isnan(specials)])]:
            for x, y in layouts(A, B):
                for axis in (0, 1):
                    assert matches_reference(x, y, axis)

    def test_few_values_tie_and_round_up(self):
        # differences from few values tie often, and many ties round up
        rng = np.random.default_rng(120)
        vals = [1.0, 1.0 + 2.0 ** -52, 3.0, 0.1, -0.2, 0.3, 2.0 ** 60]
        hits = 0
        for _ in range(40):
            shape = tuple(int(v) for v in rng.integers(1, 70, 2))
            A, B = (rng.choice(vals, shape) for _ in range(2))
            for x, y in layouts(A, B):
                for axis in (0, 1):
                    assert matches_reference(x, y, axis)
            hits += int((old_max_sub_up(A, B, 1) > (A - B).max(1)).sum())
        assert hits > 100

    def test_zero_maxima_of_long_lines(self):
        # lines of 32 and more whose cells tie at zeros of both signs: every
        # zero maximum is +0, in every layout and either form
        rng = np.random.default_rng(130)
        signs = set()
        for _ in range(60):
            shape = tuple(int(v) for v in rng.choice([1, 2, 17, 32, 33, 40, 64, 65, 129], 2))
            A = rng.choice([0.0, -0.0, -1.0, -0.5], shape, p=[0.35, 0.35, 0.2, 0.1])
            B = rng.choice([0.0, -0.0, 0.5], shape, p=[0.45, 0.45, 0.1])
            for x, y in layouts(A, B):
                for axis in (0, 1):
                    assert matches_reference(x, y, axis)
                    got = max_sub_up(x, y, axis)
                    signs.update(np.signbit(got[got == 0.0]).tolist())
        assert signs == {False}

    def test_many_ties_in_chunks(self):
        # every cell of a line ties at 1.0 or at a zero; a tie rounds up where
        # b is -2**-60, in some lines only; past an eighth of the cells the
        # ties are rounded in chunks
        rng = np.random.default_rng(150)
        A = np.ones((300, 400))
        B = rng.choice([2.0 ** -60, -(2.0 ** -60)], A.shape, p=[0.999, 0.001])
        for zeros in (np.s_[::7], np.s_[:, ::13]):  # rows and columns of zeros
            A[zeros], B[zeros] = (rng.choice([0.0, -0.0], A[zeros].shape) for _ in range(2))
        for axis in (0, 1):
            assert set(max_sub_up(A, B, axis).tolist()) == {0.0, 1.0, 1.0 + 2.0 ** -52}
        for x, y in layouts(A, B):
            for axis in (0, 1):
                assert same_bits(max_sub_up(x, y, axis), old_max_sub_up(x, y, axis))

    def test_largest_double_steps_up_without_warning(self):
        a = np.asarray([[MAX, 1.0, MAX], [0.0, MAX, 2.0]])
        b = np.asarray([[-5e-324, 0.0, 0.0], [1.0, -1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(max_sub_up(a, b, 1), [math.inf, math.inf])
            assert same_bits(max_sub_up(a, b, 0), [math.inf, math.inf, MAX])

    def test_overflow_to_minus_inf(self):
        # every difference of a line is -inf, and a finite one rounds up to -max
        a = np.asarray([[-MAX, -(2.0 ** 1023), -MAX], [-MAX, 1.0, -np.inf]])
        b = np.asarray([[MAX, 2.0 ** 1023, 1e308], [np.inf, np.inf, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(max_sub_up(a, b, 1), [-MAX, -MAX])
            assert same_bits(max_sub_up(a[1:, :2], b[1:, :2], 1), [-np.inf])
        for x, y in layouts(a, b):
            for axis in (0, 1):
                assert matches_reference(x, y, axis)

    def test_undefined_sum(self):
        with pytest.raises(UndefinedSum):
            max_sub_up(np.asarray([[0.0, np.inf]]), np.asarray([[1.0, np.inf]]), 0)

    def test_exact_maximum_rounded_up(self):
        # an oracle of its own: the exact maximum of each line in rationals
        rng = np.random.default_rng(140)
        edges = np.asarray(_edges())
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 8, 2))
            pool = rng.choice(edges, 6)
            A, B = (rng.choice(pool, shape) for _ in range(2))
            for axis in (0, 1):
                exact = (np.vectorize(Fraction, otypes=[object])(A)
                         - np.vectorize(Fraction, otypes=[object])(B)).max(axis)
                got = max_sub_up(A, B, axis)
                assert got.tolist() == [round_up(e) for e in exact]


class TestMetricSpace:
    def test_line_example(self):
        space = build_metric_space([[0.0], [1.0], [2.0]])
        assert space.dist[0][2] == 2.0

    def test_single_point(self):
        space = build_metric_space([[5.0]])
        assert space.dist.shape == (1, 1) and space.dist[0][0] == 0.0

    def test_asymmetric_custom_rejected(self):
        with pytest.raises(NonMetric):
            build_metric_space([[0.0], [1.0]], metric_kind=[[0.0, 1.0], [2.0, 0.0]])

    def test_triangle_violation_rejected(self):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(NonMetric):
            build_metric_space([[0.0], [1.0], [2.0]], metric_kind=bad)
        # but accepted when triangle checking is skipped
        space = build_metric_space([[0.0], [1.0], [2.0]], metric_kind=bad,
                                   validate="fast")
        assert space.dist[0][2] == 5.0

    def test_zero_distance_between_distinct_rejected(self):
        with pytest.raises(NonMetric):
            build_metric_space([[0.0], [0.0]])

    def test_distances_whose_squares_underflow(self):
        # (1e-170) ** 2 is 0 in doubles; such entries are redone by scaling
        space = build_metric_space([0.0, 1e-170, 3e-170])
        assert space.dist[0, 1] == 1e-170 and space.dist[0, 2] == 3e-170
        # the rounded difference of the points, the double just above 2e-170
        assert space.dist[1, 2] == 3e-170 - 1e-170 == 2.0000000000000003e-170
        assert np.array_equal(space.dist, space.dist.T)
        with pytest.raises(NonMetric, match="zero distance between distinct points"):
            build_metric_space([0.0, 1e-170, 1e-170])

    def test_underflowing_distances_match_the_scaled_points(self, monkeypatch):
        # scaling by a power of two is exact, and at 2**600 nothing underflows;
        # dims 3, 9, 17 and 130 sum their squares by a running sum, by eight
        # running sums with and without a remainder, and by halves
        for dim in (3, 9, 17, 130):
            pts = np.random.default_rng(3).uniform(-1.0, 1.0, (12, dim)) * 1e-165
            tiny = build_metric_space(pts).dist
            assert (tiny * 2.0 ** 600 > 0).sum() == 12 * 11
            np.testing.assert_allclose(tiny * 2.0 ** 600,
                                       build_metric_space(pts * 2.0 ** 600).dist,
                                       rtol=4e-16, atol=0.0)
            assert same_bits(tiny, old_rescaled_euclidean_dist(pts))
            # two-row blocks on two workers give the same bits
            with monkeypatch.context() as m:
                m.setattr(core, "WORKERS", 2)
                m.setattr(core, "BLOCK_BYTES", 2 * 2 * (2 * min(dim, 8) + 2) * 8 * 12)
                assert same_bits(build_metric_space(pts).dist, tiny)
                # 12 ordinary points, then 12 distinct points within 2e-170
                # of each other: of the two-row blocks, only the cluster's
                # hold zeros besides their diagonal and repair them
                mixed = np.concatenate([pts * 1e165, pts * 1e-5])
                m.setattr(core, "BLOCK_BYTES", 2 * 2 * (2 * min(dim, 8) + 2) * 8 * 24)
                zero = old_euclidean_dist(mixed) == 0
                assert zero[:12].sum() == 12 and zero[12:, 12:].all() and not zero[12:, :12].any()
                dist = build_metric_space(mixed).dist
                assert (dist[12:, 12:] > 0).sum() == 12 * 11
                assert same_bits(dist, old_rescaled_euclidean_dist(mixed))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NonMetric):
            build_metric_space([[0.0], [1.0]], metric_kind=[[0.5, 1.0], [1.0, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyDomain):
            build_metric_space(np.zeros((0, 1)))

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_overflowing_distances_rejected_without_warning(self, big):
        with pytest.raises(NonMetric, match="finite"):
            build_metric_space([[-big], [big]])

    @pytest.mark.parametrize("noise", [0.0, 1e-13], ids=["symmetric", "symmetrized"])
    def test_custom_matrix_stays_the_callers(self, noise):
        # the space keeps its own read-only copy: changing the caller's array
        # afterwards changes nothing in it
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0 + noise, 0.0]])
        space = build_metric_space([[0.0], [1.0], [2.0]], metric_kind=D)
        want = space.dist.copy()
        D[...] = 7.0
        assert np.array_equal(space.dist, want) and not space.dist.flags.writeable
        with pytest.raises(ValueError):
            space.dist[0, 1] = 3.0

    def test_euclidean_consistency_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pts = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 4)))
            space = build_metric_space(pts)
            i, j = rng.integers(len(pts)), rng.integers(len(pts))
            assert abs(space.dist[i][j] - np.linalg.norm(pts[i] - pts[j])) <= 1e-12


class TestGridFn:
    def test_length_checked(self):
        space = build_metric_space([[0.0], [1.0]])
        with pytest.raises(ValueError):
            GridFn(space, [1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GridFn(2, [1.0, float("nan")])

    def test_proper_predicate(self):
        assert GridFn(2, [1.0, np.inf]).proper
        assert not GridFn(2, [np.inf, np.inf]).proper
        assert not GridFn(2, [1.0, -np.inf]).proper

    def test_numpy_integer_point_count(self):
        # a seeded draw is a numpy integer, not an int: it is still a point count
        rng = np.random.default_rng(7)
        Y = build_metric_space([[0.0], [1.0]])
        for _ in range(10):
            n_x = rng.integers(1, 8)
            f = GridFn(n_x, rng.uniform(-1.0, 1.0, size=n_x))
            assert f.size == n_x
            with pytest.raises(ValueError, match="length"):
                GridFn(n_x, np.zeros(n_x + 1))
            cmap = ConstraintMap(feasible=(frozenset(range(n_x)), frozenset({0})), n_x=n_x)
            inst = ConstrainedInstance(f=f, map=cmap, Y=Y, y0=0)
            assert inst.n_x == n_x
            assert verify_zero_gap_metric(inst).constrained_value == f.values.min()

    def test_values_frozen(self):
        f = GridFn(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_sup_of_differences_total_when_proper(self):
        # phi real-valued, f proper: the sup never meets (+inf) + (-inf)
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = np.where(rng.random(6) < 0.3, np.inf, rng.normal(size=6))
            if not is_proper(f):
                continue
            phi = rng.normal(size=6)
            with np.errstate(invalid="ignore"):
                diff = phi - f
            assert not np.isnan(diff).any()
            assert np.max(diff) < np.inf

    def test_ext_array_roundtrip(self):
        arr = as_ext_array([ExtReal(1.0), 2.0, PLUS_INF])
        assert arr[2] == np.inf and arr[0] == 1.0
