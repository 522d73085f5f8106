"""Evaluation codes from projective varieties over small finite fields.

Build the classical point sets (projective spaces, quadrics, Hermitian
hypersurfaces, Grassmannians and their Schubert subvarieties, point-
hyperplane flags, blow-ups of the plane, torus point sets, complete
intersections), evaluate form bases on them, measure exact code parameters
by budgeted exhaustive enumeration, and compare against closed-form
predictions and classical bounds.
"""

from .bounds import BoundReport, gaussian_binomial, sigma
from .codes import (
    DEFAULT_BUDGET,
    LinearCode,
    WeightEnumerator,
    build_evaluation_code,
    code_from_descriptor,
    eckardt_detect,
    ghw,
    min_distance,
    weight_distribution,
)
from .families import (
    Prediction,
    applicable_bounds,
    build_point_set,
    lower_bound_value,
    predict,
)
from .gf import GF, field
from .linalg import Matrix, maximal_minors, rank, rank_and_kernel, rref
from .projgeom import (
    Form,
    enumerate_monomials,
    enumerate_projective_points,
)
from .varieties import (
    PointSet,
    VarietyDescriptor,
    classify_quadric,
    complete_intersection_points,
    delpezzo_points,
    flag_points,
    grassmann_points,
    hermitian_form,
    hypersurface_points,
    product_p1p1_points,
    quadric_normal_form,
    schubert_points,
    toric_basis,
    toric_points,
)

__all__ = [
    "BoundReport",
    "DEFAULT_BUDGET",
    "Form",
    "GF",
    "LinearCode",
    "Matrix",
    "PointSet",
    "Prediction",
    "VarietyDescriptor",
    "WeightEnumerator",
    "applicable_bounds",
    "build_evaluation_code",
    "build_point_set",
    "classify_quadric",
    "code_from_descriptor",
    "complete_intersection_points",
    "delpezzo_points",
    "eckardt_detect",
    "enumerate_monomials",
    "enumerate_projective_points",
    "field",
    "flag_points",
    "gaussian_binomial",
    "ghw",
    "grassmann_points",
    "hermitian_form",
    "hypersurface_points",
    "lower_bound_value",
    "maximal_minors",
    "min_distance",
    "predict",
    "product_p1p1_points",
    "quadric_normal_form",
    "rank",
    "rank_and_kernel",
    "rref",
    "schubert_points",
    "sigma",
    "toric_basis",
    "toric_points",
    "weight_distribution",
]
