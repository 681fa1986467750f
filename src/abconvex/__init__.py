"""Generalized conjugate duality on finite grids.

Conjugation over elementary function classes, intersection-property
certificates, perturbation-based Lagrangian duality with zero-gap reports,
constrained metric/quadratic Lagrangians, and discrete Kantorovich transport.
"""

from .core import (
    ExtReal,
    FiniteMetricSpace,
    GridFn,
    MINUS_INF,
    PLUS_INF,
    build_metric_space,
)
from .errors import SolverLimit
from .families import (
    DualGrid,
    ElemFamily,
    ElemParams,
    FamilyKind,
    Sampled1D,
    biconjugate,
    conjugate_transform,
    default_dual_grid,
    eval_on_domain,
    is_support,
    members_on_domain,
    peaking_witness,
    urysohn_witness,
    validate_members,
)
from .minimax import (
    TCertificate,
    disjoint_sublevel,
    intersection_certificate,
    intersection_property_direct,
)
from .lagrangian import (
    Certificate,
    DualityReport,
    LagTable,
    PerturbationProblem,
    SupportFn,
    build_lagrangian,
    concavity_probe,
    duality_report,
    gap_certificate,
    lsc_defect,
)
from .constrained import (
    ConstrainedInstance,
    ConstraintMap,
    MetricZeroGapReport,
    build_constrained_perturbation,
    metric_dual_grid,
    metric_grid_sup,
    metric_primal_sup,
    phi_lsc_set_separation,
    verify_zero_gap_metric,
)
from .transport import (
    ConicLP,
    ConicReport,
    Coupling,
    KantorovichReport,
    Potentials,
    TransportProblem,
    c_transform,
    conic_lp_dual,
    coupling_check,
    kantorovich_gap_report,
    solve_transport,
)

__version__ = "0.1.0"
