"""Taguchi orthogonal-array experiment design and analysis.

Lay out fractional-factorial experiments on standard orthogonal arrays,
compute signal-to-noise ratios and main effects from measured results,
rank factor influence, and predict the optimum response with an additive
model, with evaluators that replay recorded results or extend a
screening to untried level combinations.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it. Each submodule is imported on
# first use (PEP 562), so a CLI command loads only the modules it reaches.
_EXPORTS = {
    "AnalysisReport": "analysis",
    "CATALOG_NAMES": "arrays",
    "Design": "design",
    "Factor": "design",
    "Objective": "analysis",
    "OrthogonalArray": "arrays",
    "Prediction": "analysis",
    "ResponseAnalysis": "analysis",
    "ResponseSpec": "analysis",
    "Run": "design",
    "RunResult": "analysis",
    "SurrogateEvaluator": "evaluators",
    "TableEvaluator": "evaluators",
    "TaguchiKitError": "errors",
    "VerificationReport": "arrays",
    "analyze": "analysis",
    "bind": "design",
    "error_percent": "analysis",
    "export_run_sheet": "design",
    "fit_surrogate": "evaluators",
    "get_array": "arrays",
    "optimal_levels": "analysis",
    "predict_optimum": "analysis",
    "rank_factors": "analysis",
    "read_results_csv": "analysis",
    "select_array": "arrays",
    "snr": "analysis",
    "validate": "analysis",
    "verify_orthogonality": "arrays",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
