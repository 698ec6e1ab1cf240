"""Numerical tensor calculus for pairs of singular distributions.

Charts with explicit metrics, forward-mode differentiation, structural
tensors of an adapted endomorphism pair, pointwise identity checks, and
quadrature-based integral checks.
"""

from .chart_geometry import (
    Chart,
    MetricError,
    christoffel,
    cov_at,
    div_endo,
    div_vector,
    lie_bracket,
    point_columns,
)
from .dist_tensors import (
    codazzi_residual,
    contact_identity_residual,
    contact_structure_residuals,
    curvature_term,
    dist_invariants_batch,
    div_p,
    collapse_residual,
    div_equivalence_residuals,
    trace_identity_residuals,
    tsr_tensors,
    walczak_residual_batch,
)
from .endo_fields import (
    EndoPair,
    adjoint_field,
    allowed_forms,
    check_pair,
)
from .quadrature import (
    Axis,
    QuadratureGrid,
    integral_formula_check,
    integrate,
    refine_counts,
    stokes_check,
    volume,
)
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioManifold,
    build_scenario,
    conformal_hopf,
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    non_allowed_rotated,
    probe_pair,
    scaled_identity,
    warped_torus,
)

__all__ = [
    "Axis",
    "Chart",
    "EndoPair",
    "MetricError",
    "QuadratureGrid",
    "SCENARIO_NAMES",
    "ScenarioManifold",
    "adjoint_field",
    "allowed_forms",
    "build_scenario",
    "check_pair",
    "christoffel",
    "codazzi_residual",
    "collapse_residual",
    "conformal_hopf",
    "contact_identity_residual",
    "contact_structure_residuals",
    "cov_at",
    "curvature_term",
    "dist_invariants_batch",
    "div_endo",
    "div_equivalence_residuals",
    "div_p",
    "div_vector",
    "einstein_s3xt2",
    "flat_torus_projectors",
    "hopf_contact_s3",
    "integral_formula_check",
    "integrate",
    "lie_bracket",
    "non_allowed_rotated",
    "point_columns",
    "probe_pair",
    "refine_counts",
    "scaled_identity",
    "stokes_check",
    "trace_identity_residuals",
    "tsr_tensors",
    "volume",
    "walczak_residual_batch",
    "warped_torus",
]

__version__ = "0.1.0"
