"""Exact arithmetic for valley-uniform weighted Dyck paths.

The package provides sparse multivariate polynomials over the rationals,
truncated formal power series with a checked equation solver, lattice
path enumeration and statistics, the valley weight system with its registry
of specializations, six constructive weight-preserving bijections, and
closed-form sequence oracles used to cross-check everything at desk scale.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it, in ``__all__`` order;
# a name is imported on first use, so ``import valleydyck`` loads no submodule
_EXPORTS = {
    name: module
    for module, names in (
        ("polynomials", ("Polynomial", "binomial")),
        ("series", ("TruncatedSeries", "named_series", "valley_series", "valley_series_ab")),
        ("paths", ("Path", "Pyramid", "ValleyBlock", "ValleyStructure", "enumerate_family",
                   "is_valley_uniform", "render_ascii", "valley_structures")),
        ("weights", ("WeightSpec", "path_weight", "registry_get", "spec_from_series",
                     "structure_weight", "target_weight", "target_weight_sum",
                     "valley_weight_sum")),
        ("bijections", ("MAPS", "DecoratedStructure", "PartDecoration", "TauDecorated",
                        "TauFactor", "decorated_weight", "decorations", "enumerate_decorated",
                        "enumerate_tau", "forward", "inverse", "tau_apply", "tau_value")),
        ("oracles", ("delannoy_hstep_count", "formula_vn", "oracle")),
    )
    for name in names
}
_SUBMODULES = ("bijections", "cli", "errors", "oracles", "params", "paths", "polynomials",
               "series", "verify", "weights")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
