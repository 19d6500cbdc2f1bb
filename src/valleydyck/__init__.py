"""Exact arithmetic for valley-uniform weighted Dyck paths.

The package provides sparse multivariate polynomials over the rationals,
truncated formal power series with a checked fixed-point solver, lattice
path enumeration and statistics, the valley weight system with its registry
of specializations, six constructive weight-preserving bijections, and
closed-form sequence oracles used to cross-check everything at desk scale.
"""

from .polynomials import Polynomial, binomial
from .series import (
    TruncatedSeries,
    named_series,
    solve_fixed_point,
    valley_series,
    valley_series_ab,
)
from .paths import (
    Path,
    PathStats,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    analyze,
    concat,
    elevate,
    enumerate_family,
    is_valley_uniform,
    parse_path,
    primitive_factors,
    render_ascii,
    valley_structures,
)
from .weights import (
    WeightSpec,
    path_weight,
    registry_get,
    spec_from_series,
    structure_weight,
    target_weight,
    target_weight_sum,
    valley_weight_sum,
)
from .bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    TauDecorated,
    TauFactor,
    decorated_weight,
    decorations,
    enumerate_decorated,
    enumerate_tau,
    forward,
    inverse,
    tau_apply,
    tau_value,
)
from .oracles import delannoy_hstep_count, formula_vn, oracle

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "binomial",
    "TruncatedSeries",
    "named_series",
    "solve_fixed_point",
    "valley_series",
    "valley_series_ab",
    "Path",
    "PathStats",
    "Pyramid",
    "ValleyBlock",
    "ValleyStructure",
    "analyze",
    "concat",
    "elevate",
    "enumerate_family",
    "is_valley_uniform",
    "parse_path",
    "primitive_factors",
    "render_ascii",
    "valley_structures",
    "WeightSpec",
    "path_weight",
    "registry_get",
    "spec_from_series",
    "structure_weight",
    "target_weight",
    "target_weight_sum",
    "valley_weight_sum",
    "MAPS",
    "DecoratedStructure",
    "PartDecoration",
    "TauDecorated",
    "TauFactor",
    "decorated_weight",
    "decorations",
    "enumerate_decorated",
    "enumerate_tau",
    "forward",
    "inverse",
    "tau_apply",
    "tau_value",
    "delannoy_hstep_count",
    "formula_vn",
    "oracle",
    "__version__",
]
