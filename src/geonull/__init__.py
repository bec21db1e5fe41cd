"""geonull: curvature, nullity, and splitting-tensor numerics for coordinate metrics.

The package computes Riemann curvature, the nullity distribution ker R and its
codimension (conullity), the splitting tensor of a unit nullity field, and the
Riccati evolution of that tensor along nullity geodesics, for metrics given in
coordinates, including a small catalog of example families driven by a
user-supplied warping function p.
"""

from .exprcalc import DomainError, Expression, Jet2, ParseError, eval_jet2, parse, to_source
from .numcore import (
    KernelResult,
    SingularMatrixError,
    eigenvalues,
    invert,
    kernel,
)
from .metricspace import (
    CatalogEntry,
    ChartDomainError,
    MetricField,
    CATALOG,
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from .curvature import (
    CurvatureData,
    DegeneratePlaneError,
    NullityResult,
    bianchi2_residual,
    christoffel,
    covariant_riemann,
    curvature_data,
    nullity,
    riemann,
    scalar_curvature,
    sectional,
)
from .flows import (
    FlatnessReport,
    GeodesicPath,
    IncompletenessReport,
    LaunchError,
    NullityGeodesicReport,
    flatness_probe,
    geodesic,
    incompleteness_probe,
    nullity_geodesic_check,
    sampled_path,
)
from .splitting import (
    AlignmentError,
    BlockInvariants,
    EvolutionReport,
    KernelDimensionError,
    KernelFieldError,
    RiccatiBlowupError,
    classify,
    evolve_along_nullity_geodesic,
    kernel_section,
    riccati_closed_form,
    riccati_ode,
    trace_det_evolution,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BlockInvariants",
    "CATALOG",
    "CatalogEntry",
    "ChartDomainError",
    "CurvatureData",
    "DegeneratePlaneError",
    "DomainError",
    "EvolutionReport",
    "Expression",
    "FlatnessReport",
    "GeodesicPath",
    "IncompletenessReport",
    "Jet2",
    "KernelDimensionError",
    "KernelFieldError",
    "KernelResult",
    "LaunchError",
    "MetricField",
    "NullityGeodesicReport",
    "NullityResult",
    "ParseError",
    "RiccatiBlowupError",
    "SingularMatrixError",
    "bianchi2_residual",
    "catalog_conullity3",
    "catalog_euclidean",
    "catalog_polar",
    "catalog_product",
    "catalog_sekigawa",
    "catalog_sphere",
    "christoffel",
    "classify",
    "covariant_riemann",
    "curvature_data",
    "eigenvalues",
    "eval_jet2",
    "evolve_along_nullity_geodesic",
    "flatness_probe",
    "geodesic",
    "incompleteness_probe",
    "invert",
    "kernel",
    "kernel_section",
    "nullity",
    "nullity_geodesic_check",
    "parse",
    "riccati_closed_form",
    "riccati_ode",
    "riemann",
    "sampled_path",
    "scalar_curvature",
    "sectional",
    "to_source",
    "trace_det_evolution",
]
