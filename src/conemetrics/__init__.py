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
    three_football_form,
    three_football_metric,
)
from .forms import (
    INFINITY,
    CharacterForm,
    PoleSpec,
    coefficient_derivative_at,
    finite_zeros,
    make_form,
    residue_at_infinity,
)
from .geodesics import (
    GeodesicPath,
    TriangleReport,
    decomposition_report,
    radial_length,
    three_football_lengths,
    trace_radial_preimage,
)
from .metric import (
    MetricParams,
    cone_angle_estimate,
    developing_modulus,
)

__version__ = "0.1.0"

__all__ = [
    "AngleTriple", "Branch", "CharacterForm", "ConeMetricError",
    "GeodesicPath", "HeartParams", "INFINITY", "MetricParams", "PoleSpec",
    "ThreeFootballParams", "TriangleReport",
    "coefficient_derivative_at", "cone_angle_estimate", "constraint_residual",
    "decomposition_report",
    "developing_modulus", "families", "finite_zeros", "forms",
    "geodesics", "heart_apex_image",
    "heart_form", "heart_metric", "make_form", "make_three_football", "metric",
    "radial_length", "residue_at_infinity", "solve_pole_positions",
    "special_case_angles",
    "three_football_form", "three_football_lengths", "three_football_metric",
    "trace_radial_preimage",
]
