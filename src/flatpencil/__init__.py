"""Numerical toolkit for pencils of pseudo-Riemannian metrics.

Metrics are given as closed-form coordinate expressions; tensor objects are
evaluated pointwise with exact derivative jets, and compatibility-style
properties of metric pairs are decided by sampling.
"""

__version__ = "0.1.0"

from .errors import (
    ArityError,
    DegenerateMetric,
    DomainError,
    FlatPencilError,
    ParseError,
    SingularOperator,
    TruncationWarning,
)
from .expr import ScalarField, constant, cos, embed, exp, ln, parse, sin, sqrt, variable
from .geometry import (
    CONTRAVARIANT,
    Affinor,
    GeometryJet,
    MetricField,
    PencilMembers,
    affinor_at,
    geometry_jet,
    linear_combination,
    nijenhuis,
    pencil_eigenvalues,
    tensor_M,
)
from .compat import (
    CheckResult,
    CompatReport,
    MetricPair,
    associativity_residual,
    check_almost_compatible,
    check_compatible,
    check_constant_curvature,
    check_flat_pencil,
    default_lambda_samples,
    dubrovin_construct_and_check,
    full_report,
    grid_points,
    mokhov_bracket_metric,
    sample_points,
)
from .lame import (
    LameData,
    RotationCoeffs,
    assemble_pair,
    diagonal_pair,
    lame_residuals,
    read_beta_grid,
    reduction_residual,
    rotation_from_H,
    scaled_rotation,
    write_beta_grid,
)
from .twocomp import (
    TwoCompModel,
    assemble_two_metrics,
    check_lequa,
    check_sys,
    constant_curvature_pencil,
    harmonic_flatness,
    liouville_check,
)
from .zakharov import (
    DressingProblem,
    KernelGrid,
    SolutionGrid,
    build_kernel,
    check_phi_pdes,
    check_reduction_relation,
    dressing_rotation,
    extract_beta,
    neumann_solution,
    reduce_kernel,
    reduction_ratio,
    solve_integral_equation,
)
