"""Spherical conical metrics from third-kind Abelian differentials.

Build the two reducible families (the heart shape and the glued
three-football sphere), evaluate their metrics, verify curvature and cone
angles numerically, and measure the geodesic data of the football
decomposition.
"""

from . import families, forms, geodesics, metric
from .errors import ConeMetricError
from .families import (
    AngleTriple,
    Branch,
    HeartParams,
    ThreeFootballParams,
    constraint_residual,
    heart_apex_image,
    heart_form,
    heart_metric,
    make_three_football,
    solve_pole_positions,
    special_case_angles,
    special_case_poles,
    three_football_form,
    three_football_metric,
)
from .forms import (
    INFINITY,
    CharacterForm,
    PoleSpec,
    coefficient_at,
    coefficient_derivative_at,
    finite_zeros,
    make_form,
    potential_at,
    residue_at_infinity,
)
from .geodesics import (
    GeodesicPath,
    TriangleReport,
    decomposition_report,
    path_length,
    radial_length,
    three_football_lengths,
    trace_radial_preimage,
)
from .metric import (
    DensityField,
    MetricParams,
    cone_angle_estimate,
    density_at,
    density_via_developing,
    developing_modulus,
    gauss_curvature_fd,
    phi_at,
    phi_gradient_check,
)

__version__ = "0.1.0"

__all__ = [
    "AngleTriple", "Branch", "CharacterForm", "ConeMetricError", "DensityField",
    "GeodesicPath", "HeartParams", "INFINITY", "MetricParams", "PoleSpec",
    "ThreeFootballParams", "TriangleReport", "coefficient_at",
    "coefficient_derivative_at", "cone_angle_estimate", "constraint_residual",
    "decomposition_report", "density_at", "density_via_developing",
    "developing_modulus", "families", "finite_zeros", "forms",
    "gauss_curvature_fd", "geodesics", "heart_apex_image",
    "heart_form", "heart_metric", "make_form", "make_three_football", "metric",
    "path_length", "phi_at", "phi_gradient_check", "potential_at",
    "radial_length", "residue_at_infinity", "solve_pole_positions",
    "special_case_angles", "special_case_poles",
    "three_football_form", "three_football_lengths", "three_football_metric",
    "trace_radial_preimage",
]
