"""Linear-time attention-score normalization estimates and the
norm-constrained embedding optimizer built on them.

Submodules are imported lazily so the command-line entry point can cap
BLAS thread pools before any numerical library loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "errors",
    "evaluate",
    "graphs",
    "io",
    "matstore",
    "mixture",
    "optimizer",
    "znorm",
)

_EXPORTS = {
    "EdrepError": "errors",
    "ValidationError": "errors",
    "DimensionError": "errors",
    "NumericError": "errors",
    "ProductChain": "matstore",
    "row_normalize": "matstore",
    "unit_rows": "matstore",
    "uniform_weights": "matstore",
    "LabelVector": "mixture",
    "MixtureParams": "mixture",
    "kmeans_label": "mixture",
    "estimate_mixture": "mixture",
    "singleton_mixture": "mixture",
    "ZEstimate": "znorm",
    "KernelFeatureMap": "znorm",
    "exact_z": "znorm",
    "approx_z": "znorm",
    "kernel_z": "znorm",
    "error_cdf": "znorm",
    "concentration_probe": "znorm",
    "zeta_matrix": "znorm",
    "OptimizerConfig": "optimizer",
    "FitResult": "optimizer",
    "exact_loss": "optimizer",
    "mixture_loss": "optimizer",
    "approx_gradient": "optimizer",
    "unit_tangential": "optimizer",
    "sphere_step": "optimizer",
    "fit": "optimizer",
    "fit_exact": "optimizer",
    "DcsbmParams": "graphs",
    "DcsbmInstance": "graphs",
    "dcsbm_sample": "graphs",
    "walk_operator": "graphs",
    "negative_binomial_graph": "graphs",
    "TemporalEdgeList": "graphs",
    "SupraGraph": "graphs",
    "supra_adjacency": "graphs",
    "nmi": "evaluate",
    "deviation_ct": "evaluate",
    "community_pipeline": "evaluate",
    "dcsbm_benchmark": "evaluate",
}

__all__ = sorted(_EXPORTS) + list(_SUBMODULES)


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
