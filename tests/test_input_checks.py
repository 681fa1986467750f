"""The input checks of the library's constructors and entry points, one case
per check: each drives one raise to its exception type and exact message."""

import numpy as np
import pytest

from abconvex import (
    ConicLP,
    ConstrainedInstance,
    ConstraintMap,
    DualGrid,
    ElemFamily,
    ElemParams,
    FamilyKind,
    GridFn,
    PerturbationProblem,
    Sampled1D,
    TransportProblem,
    build_lagrangian,
    build_metric_space,
    concavity_probe,
    conjugate_transform,
    coupling_check,
    disjoint_sublevel,
    duality_report,
    is_support,
    lsc_defect,
    metric_grid_sup,
    metric_primal_sup,
    peaking_witness,
    phi_lsc_set_separation,
    urysohn_witness,
)
from abconvex.errors import BadParams, ImproperProblem, NonMetric, NoWitness
from abconvex.lagrangian import lsc_profile

INF, NAN = np.inf, np.nan
Y2 = build_metric_space([[0.0], [1.0]])
Y3 = build_metric_space([[0.0], [1.0], [2.0]])
AFFINE2 = ElemFamily.affine(Y2)
GRID2 = DualGrid(AFFINE2, (ElemParams(ell=[0.0]), ElemParams(ell=[1.0])))
GRID3 = DualGrid(ElemFamily.affine(Y3), (ElemParams(ell=[0.0]),))
PROB2 = PerturbationProblem(Y=Y2, p=[[0.0, 1.0]], y0=0)
# two copies of the origin a custom metric keeps apart: the gauge vanishes at
# a point at distance 1 from the origin
ORIGIN_TWICE = build_metric_space([[0.0], [0.0]], metric_kind=[[0.0, 1.0], [1.0, 0.0]])


def _instance(f_size=2, sets=2, y0=0):
    cmap = ConstraintMap(feasible=tuple(frozenset({0}) for _ in range(sets)), n_x=3)
    return ConstrainedInstance(f=GridFn(f_size, np.zeros(f_size)), map=cmap, Y=Y2, y0=y0)


#: case id -> (call, exception type, message)
CHECKS = {
    # core
    "points_not_finite": (lambda: build_metric_space([[0.0], [INF]]),
                          ValueError, "point coordinates must be finite"),
    "unknown_metric": (lambda: build_metric_space([[0.0]], metric_kind="manhattan"),
                       ValueError, "unknown metric kind 'manhattan'"),
    "custom_shape": (lambda: build_metric_space([[0.0], [1.0]], metric_kind=[[0.0]]),
                     NonMetric, "custom matrix shape (1, 1) does not match 2 points"),
    "negative_distance": (lambda: build_metric_space([[0.0], [1.0]],
                                                     metric_kind=[[0.0, -1.0], [-1.0, 0.0]]),
                          NonMetric, "negative distance"),
    "gridfn_2d": (lambda: GridFn(2, [[0.0, 1.0]]),
                  ValueError, "GridFn values must be one-dimensional"),
    # families
    "sampled_too_short": (lambda: Sampled1D([0.0], [0.0]), ValueError,
                          "Sampled1D needs matching 1-D arrays of length >= 2"),
    "sampled_not_increasing": (lambda: Sampled1D([0.0, 0.0], [0.0, 0.0]), ValueError,
                               "Sampled1D abscissae must be strictly increasing"),
    "sampled_not_finite": (lambda: Sampled1D([0.0, 1.0], [0.0, INF]), ValueError,
                           "Sampled1D samples must be finite"),
    "sigma_nu_missing": (lambda: ElemFamily(FamilyKind.SIGMA_NU, Y2), ValueError,
                         "sigma_nu family needs sigma and nu grid functions"),
    "sigma_nu_not_real": (lambda: ElemFamily.sigma_nu(Y2, GridFn(Y2, [0.0, INF]),
                                                      GridFn(Y2, [0.0, 0.0])),
                          ValueError, "sigma/nu must be real-valued on the domain"),
    "shape_missing": (lambda: ElemFamily(FamilyKind.GENERALIZED_METRIC, Y2), ValueError,
                      "generalized_metric family needs a 1-D shape"),
    "shape_not_zero_at_0": (lambda: ElemFamily.generalized_metric(
                                Y2, Sampled1D([0.0, 1.0], [1.0, 2.0]), 1.0),
                            ValueError, "generalized_metric shape must vanish at 0"),
    "quasi_subadd_not_positive": (lambda: ElemFamily.generalized_metric(
                                      Y2, Sampled1D([0.0, 1.0], [0.0, 1.0]), 0.0),
                                  ValueError,
                                  "record a positive quasi-subadditivity constant"),
    "gauge_norm": (lambda: ElemFamily.gauge(Y2, "l3"), ValueError,
                   "unsupported gauge norm 'l3'"),
    "slope_not_finite": (lambda: ElemParams(ell=[INF]), BadParams, "slope must be finite"),
    "a_not_finite": (lambda: ElemParams(a=INF), BadParams, "a must be finite"),
    "anchor_float": (lambda: ElemParams(anchor=1.7), BadParams, "anchor must be an integer"),
    "anchor_bool": (lambda: ElemParams(anchor=True), BadParams, "anchor must be an integer"),
    "conjugate_domains": (lambda: conjugate_transform(GridFn(Y3, [0.0, 1.0, 2.0]), GRID2),
                          ValueError, "grid function and dual grid live on different domains"),
    "support_domains": (lambda: is_support(ElemFamily.affine(Y3), ElemParams(ell=[0.0]),
                                           GridFn(1, [0.0])),
                        ValueError, "grid function and family live on different domains"),
    "peaking_delta": (lambda: peaking_witness(ElemFamily.metric(Y2), 0, 0.5, 0.0, 1.0,
                                              ElemParams(a=1.0, anchor=0)),
                      BadParams, "delta must be positive"),
    "peaking_y0_float": (lambda: peaking_witness(ElemFamily.metric(Y2), 1.0, 0.5, 0.5, 1.0,
                                                 ElemParams(a=1.0, anchor=0)),
                         BadParams, "y0 must index a point of the 2-point domain"),
    "urysohn_y0_bool": (lambda: urysohn_witness(ElemFamily.metric(Y2), True, 0.5, 0.5),
                        BadParams, "y0 must index a point of the 2-point domain"),
    "gauge_vanishes": (lambda: urysohn_witness(ElemFamily.gauge(ORIGIN_TWICE), 0, 0.5, 0.5),
                       NoWitness, "gauge vanishes away from the origin on this grid"),
    # lagrangian
    "p_not_a_table": (lambda: PerturbationProblem(Y=Y2, p=[0.0, 1.0], y0=0),
                      ImproperProblem, "p must be a nonempty |X| x |Y| table"),
    "p_columns": (lambda: PerturbationProblem(Y=Y2, p=[[0.0, 1.0, 2.0]], y0=0),
                  ImproperProblem, "p column count must match the parameter grid"),
    "p_nan": (lambda: PerturbationProblem(Y=Y2, p=[[NAN, 1.0]], y0=0),
              ImproperProblem, "p cannot contain NaN"),
    "p_y0_float": (lambda: PerturbationProblem(Y=Y2, p=[[0.0, 1.0]], y0=1.0),
                   ImproperProblem, "y0 out of range"),
    "p_y0_bool": (lambda: PerturbationProblem(Y=Y2, p=[[0.0, 1.0]], y0=True),
                  ImproperProblem, "y0 out of range"),
    "grid_domain": (lambda: build_lagrangian(PROB2, GRID3), ImproperProblem,
                    "multiplier grid must live on the parameter domain"),
    "convexity_scope": (lambda: duality_report(PROB2, GRID2, convexity_scope="none"),
                        ValueError, "convexity_scope must be 'anchor' or 'full'"),
    "probe_t": (lambda: concavity_probe(PROB2, AFFINE2, ElemParams(ell=[0.0]),
                                        ElemParams(ell=[1.0]), 1.5),
                ValueError, "t must lie in [0, 1]"),
    "lsc_point_count": (lambda: lsc_defect(GridFn(2, [0.0, 1.0]), 0, 1.0), ValueError,
                        "lsc_defect needs a metric domain"),
    "lsc_radius": (lambda: lsc_defect(GridFn(Y2, [0.0, 1.0]), 0, 0.0), ValueError,
                   "radius must be positive"),
    "lsc_infinite_at_y0": (lambda: lsc_defect(GridFn(Y2, [INF, 1.0]), 0, 1.0), ValueError,
                           "lsc_defect needs a finite value at y0"),
    "lsc_y0_range": (lambda: lsc_defect(GridFn(Y3, [0.0, 1.0, 5.0]), -1, 1.0), ValueError,
                     "y0 out of range"),
    "lsc_profile_y0_range": (lambda: lsc_profile(GridFn(Y3, [0.0, 1.0, 5.0]), 3), ValueError,
                             "y0 out of range"),
    "lsc_y0_float": (lambda: lsc_defect(GridFn(Y3, [0.0, 1.0, 5.0]), 1.0, 1.0), ValueError,
                     "y0 out of range"),
    "lsc_profile_y0_bool": (lambda: lsc_profile(GridFn(Y3, [0.0, 1.0, 5.0]), True), ValueError,
                            "y0 out of range"),
    "lsc_profile_point_count": (lambda: lsc_profile(GridFn(2, [0.0, 1.0]), 0), ValueError,
                                "lsc_defect needs a metric domain"),
    # constrained
    "map_objective": (lambda: _instance(f_size=2), ValueError,
                      "constraint map and objective disagree on |X|"),
    "map_grid": (lambda: _instance(f_size=3, sets=3), ValueError,
                 "constraint map and parameter grid disagree on |Y|"),
    "y0_range": (lambda: _instance(f_size=3, y0=2), ValueError, "y0 out of range"),
    "y0_float": (lambda: _instance(f_size=3, y0=1.0), ValueError, "y0 out of range"),
    "y0_bool": (lambda: _instance(f_size=3, y0=True), ValueError, "y0 out of range"),
    "map_float": (lambda: ConstraintMap(({1.7}, {0}, {2}), 3), ValueError,
                  "A(y=0) holds an index that is not an integer"),
    "map_bool": (lambda: ConstraintMap(({0}, {True}), 3), ValueError,
                 "A(y=1) holds an index that is not an integer"),
    "primal_sup_x_negative": (lambda: metric_primal_sup(_instance(f_size=3), -1), ValueError,
                              "x out of range"),
    "primal_sup_x_n_x": (lambda: metric_primal_sup(_instance(f_size=3), 3), ValueError,
                         "x out of range"),
    "primal_sup_x_half": (lambda: metric_primal_sup(_instance(f_size=3), 0.5), ValueError,
                          "x out of range"),
    "grid_sup_x_negative": (lambda: metric_grid_sup(_instance(f_size=3), -1, (1.0,)),
                            ValueError, "x out of range"),
    "grid_sup_x_n_x": (lambda: metric_grid_sup(_instance(f_size=3), 3, (1.0,)), ValueError,
                       "x out of range"),
    "grid_sup_x_half": (lambda: metric_grid_sup(_instance(f_size=3), 0.5, (1.0,)),
                        ValueError, "x out of range"),
    "separation_p_out": (lambda: phi_lsc_set_separation(Y3, {0}, -1), ValueError,
                         "p_out out of range"),
    "separation_set": (lambda: phi_lsc_set_separation(Y3, {1, 3}, 0), ValueError,
                       "C references an out-of-range point"),
    "separation_set_float": (lambda: phi_lsc_set_separation(Y3, {1.7}, 0), ValueError,
                             "C must hold integer point indices"),
    "separation_p_out_half": (lambda: phi_lsc_set_separation(Y3, {1}, 0.5), ValueError,
                              "p_out must be an integer point index"),
    "separation_p_out_float": (lambda: phi_lsc_set_separation(Y3, {1}, 0.0), ValueError,
                               "p_out must be an integer point index"),
    # minimax
    "pair_grids": (lambda: disjoint_sublevel(GridFn(2, [0.0, 1.0]),
                                             GridFn(3, [0.0, 1.0, 2.0]), 0.0),
                   ValueError, "functions must share a grid"),
    # transport
    "cost_not_matrix": (lambda: TransportProblem(cost=[1.0], mu=[1.0], nu=[1.0]),
                        ValueError, "cost must be a nonempty matrix"),
    "marginal_lengths": (lambda: TransportProblem(cost=[[1.0]], mu=[1.0, 0.0], nu=[1.0]),
                         ValueError, "marginal lengths must match the cost matrix"),
    "marginals_not_finite": (lambda: TransportProblem(cost=[[1.0]], mu=[INF], nu=[1.0]),
                             ValueError, "marginals must be finite"),
    "coupling_shape": (lambda: coupling_check([[1.0]], [1.0, 0.0], [1.0]), ValueError,
                       "coupling shape must match the marginals"),
    "conic_shapes": (lambda: ConicLP(pi=[1.0, 2.0], c_vec=[1.0]), ValueError,
                     "pi and c_vec must be 1-D of equal length"),
    "conic_not_finite": (lambda: ConicLP(pi=[INF], c_vec=[1.0]), ValueError,
                         "conic LP data must be finite"),
}


@pytest.mark.parametrize("case", list(CHECKS))
def test_input_check(case):
    call, exc, message = CHECKS[case]
    with pytest.raises(Exception) as err:
        call()
    assert (type(err.value), str(err.value)) == (exc, message)
