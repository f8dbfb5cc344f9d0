"""Taguchi orthogonal-array experiment design and analysis.

Lay out fractional-factorial experiments on standard orthogonal arrays,
compute signal-to-noise ratios and main effects from measured results,
rank factor influence, and predict the optimum response with an additive
model, with evaluators that replay recorded results or extend a
screening to untried level combinations.
"""

from taguchikit.analysis import (
    AnalysisReport,
    Objective,
    Prediction,
    ResponseAnalysis,
    ResponseSpec,
    RunResult,
    analyze,
    error_percent,
    level_means,
    optimal_levels,
    predict_optimum,
    rank_factors,
    read_results_csv,
    snr,
    validate,
)
from taguchikit.arrays import (
    CATALOG_NAMES,
    OrthogonalArray,
    VerificationReport,
    get_array,
    select_array,
    verify_orthogonality,
)
from taguchikit.design import Design, Factor, Run, bind, export_run_sheet, read_run_sheet
from taguchikit.errors import TaguchiKitError
from taguchikit.evaluators import SurrogateEvaluator, TableEvaluator, fit_surrogate

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CATALOG_NAMES",
    "Design",
    "Factor",
    "Objective",
    "OrthogonalArray",
    "Prediction",
    "ResponseAnalysis",
    "ResponseSpec",
    "Run",
    "RunResult",
    "SurrogateEvaluator",
    "TableEvaluator",
    "TaguchiKitError",
    "VerificationReport",
    "analyze",
    "bind",
    "error_percent",
    "export_run_sheet",
    "fit_surrogate",
    "get_array",
    "level_means",
    "optimal_levels",
    "predict_optimum",
    "rank_factors",
    "read_results_csv",
    "read_run_sheet",
    "select_array",
    "snr",
    "validate",
    "verify_orthogonality",
]
