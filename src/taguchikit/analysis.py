"""Signal-to-noise ratios, main-effects screening, and additive optimum prediction.

All operations are pure functions over immutable inputs. Screening
(deltas, ranks, optimal levels) works on raw-response level means; S/N
level means are computed alongside for reference but do not drive the
ranking.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

# perfbench's workload and tests read RunResult and read_results_csv here; design defines them.
from taguchikit.design import Design, RunResult, read_results_csv, repeated_names  # noqa: F401
from taguchikit.errors import (
    ConfigError,
    ConfirmationError,
    IncompleteResultsError,
    InvalidLevelError,
    SingularityError,
    UnknownResponseError,
)


class Objective(enum.Enum):
    """Direction in which a response is optimized."""

    SMALLER_IS_BETTER = "smaller-the-better"
    LARGER_IS_BETTER = "larger-the-better"
    NOMINAL_IS_BEST = "nominal-the-best"


@dataclass(frozen=True)
class ResponseSpec:
    """What is measured per run and which direction is better."""

    name: str
    unit: str
    objective: Objective
    target: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("response name must be non-empty")
        if self.objective is Objective.NOMINAL_IS_BEST:
            if self.target is None or not math.isfinite(self.target):
                raise ConfigError(f"response {self.name!r}: nominal-the-best needs a finite target")
            object.__setattr__(self, "target", float(self.target))
        elif self.target is not None:
            raise ConfigError(f"response {self.name!r}: target only applies to nominal-the-best")


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean, to the bit what ``statistics.fmean`` gives for a sized input."""
    return math.fsum(values) / len(values)


def snr(
    values: Sequence[float],
    objective: Objective = Objective.SMALLER_IS_BETTER,
    *,
    target: float | None = None,
) -> float:
    """Signal-to-noise ratio in dB for one run's replicate values.

    smaller-the-better: ``-10 log10(sum(y_i^2) / n)``. The companion
    conventions follow the same mean-square-deviation shape:
    larger-the-better uses ``1/y_i^2`` and nominal-the-best uses
    ``(y_i - target)^2``. Higher is always better.

    Raises :class:`SingularityError` when the log argument degenerates to
    zero (all-zero values, a zero value under larger-the-better, or every
    value exactly on target), or leaves the floating-point range.
    """
    if not values:
        raise SingularityError("S/N ratio needs at least one value")
    try:
        if objective is Objective.SMALLER_IS_BETTER:
            msd = _mean([y * y for y in values])
            if msd == 0.0:
                raise SingularityError("smaller-the-better S/N undefined for all-zero values")
        elif objective is Objective.LARGER_IS_BETTER:
            if 0.0 in values:
                raise SingularityError("larger-the-better S/N undefined when any value is zero")
            msd = _mean([1.0 / (y * y) for y in values])
        else:  # nominal-the-best
            if target is None:
                raise SingularityError("nominal-the-best S/N needs a target")
            msd = _mean([(y - target) ** 2 for y in values])
            if msd == 0.0:
                raise SingularityError(
                    "nominal-the-best S/N undefined when every value equals the target"
                )
    except (OverflowError, ZeroDivisionError):
        msd = math.inf
    if not 0.0 < msd < math.inf:
        raise SingularityError(f"{objective.value} S/N is out of the floating-point range")
    return -10.0 * math.log10(msd)


def _row_replicates(design: Design, results: Iterable[RunResult]) -> list[dict[str, list[float]]]:
    """Each design row's replicates per response, ``[{response: [y, ...]}, ...]``, in row order.

    A run's replicates may arrive split across any number of results; they are
    appended in input order. Run means, S/N ratios and table replay share this
    one pass, which refuses run numbers the design lacks. It allocates a dict
    or list only for a run or response it has not seen yet, and it reads each
    result by key, which avoids building an ``items()`` view per result.
    """
    rows: dict[int, dict[str, list[float]]] = {run.number: {} for run in design.runs}
    for result in results:
        bucket = rows.get(result.run_number)
        if bucket is None:
            bucket = rows[result.run_number] = {}
        values = result.values
        for name in values:
            got = bucket.get(name)
            if got is None:
                bucket[name] = list(values[name])
            else:
                got += values[name]
    unknown = sorted(rows.keys() - {run.number for run in design.runs})
    if unknown:
        raise IncompleteResultsError(
            f"results reference run number(s) not in the design: {', '.join(map(str, unknown))}"
        )
    return [rows[run.number] for run in design.runs]


def _run_statistics(
    design: Design, rows: Sequence[dict[str, list[float]]], spec: ResponseSpec
) -> tuple[list[float], tuple[float, ...]]:
    """Mean and S/N ratio of each run's replicates, in design row order; refuses incomplete data.

    A run mean must lie within ``max_float / (2 * (runs + factors))``, so that
    level means, deltas, the grand mean and every additive prediction built
    from the means stay finite.
    """
    missing = [run.number for run, row in zip(design.runs, rows) if spec.name not in row]
    if missing:
        raise IncompleteResultsError(
            f"missing {spec.name!r} results for run(s): {', '.join(map(str, missing))}"
        )
    limit = sys.float_info.max / (2 * (len(design.runs) + len(design.factors)))
    means, ratios = [], []
    for run, row in zip(design.runs, rows):
        ys = row[spec.name]
        where = f"run {run.number}: response {spec.name!r}"
        try:
            mean = _mean(ys)
        except OverflowError:  # the replicates' sum is beyond the double range
            mean = math.inf
        if not abs(mean) <= limit:
            raise SingularityError(f"{where}: mean is beyond the additive model's limit of {limit:.3g}")
        try:
            ratios.append(snr(ys, spec.objective, target=spec.target))
        except SingularityError as exc:
            raise SingularityError(f"{where}: {exc}") from None
        means.append(mean)
    return means, tuple(ratios)


def _level_matrix(design: Design, per_run: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Mean of a per-run statistic at every (factor, level) cell."""
    matrix = []
    for j, factor in enumerate(design.factors):
        buckets: list[list[float]] = [[] for _ in factor.levels]
        for row, value in zip(design.array.cells, per_run):
            buckets[row[j]].append(value)
        for level, bucket in enumerate(buckets):
            if not bucket:
                raise IncompleteResultsError(
                    f"level {level + 1} of factor {factor.name!r} is never exercised"
                )
        matrix.append(tuple(map(_mean, buckets)))
    return tuple(matrix)


def rank_factors(
    level_means_matrix: Sequence[Sequence[float]],
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Deltas (max - min of each factor's level means) and 1..k influence ranks.

    Rank 1 is the largest delta; ties go to the earlier column.
    """
    deltas = tuple(max(row) - min(row) for row in level_means_matrix)
    order = sorted(range(len(deltas)), key=lambda f: (-deltas[f], f))
    ranks = [0] * len(deltas)
    for position, f in enumerate(order):
        ranks[f] = position + 1
    return deltas, tuple(ranks)


def optimal_levels(
    level_means_matrix: Sequence[Sequence[float]],
    objective: Objective,
    *,
    target: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best level index per factor, plus which factors were decided by a tie.

    smaller-the-better takes the argmin of each factor's level means,
    larger-the-better the argmax, nominal-the-best the level closest to
    the target. Ties break toward the lower level index and the factor is
    reported in the second tuple.
    """
    if objective is Objective.SMALLER_IS_BETTER:
        score = lambda m: m
    elif objective is Objective.LARGER_IS_BETTER:
        score = lambda m: -m
    else:
        if target is None:
            raise InvalidLevelError("nominal-the-best optimal levels need a target")
        score = lambda m: abs(m - target)
    choices: list[int] = []
    tied: list[int] = []
    for f, row in enumerate(level_means_matrix):
        scores = [score(m) for m in row]
        best = min(scores)
        winners = [i for i, s in enumerate(scores) if s == best]
        choices.append(winners[0])
        if len(winners) > 1:
            tied.append(f)
    return tuple(choices), tuple(tied)


@dataclass(frozen=True)
class ResponseAnalysis:
    """Everything the screening derives for one response."""

    spec: ResponseSpec
    grand_mean: float
    run_means: tuple[float, ...]
    snr_per_run: tuple[float, ...]
    level_means: tuple[tuple[float, ...], ...]
    snr_level_means: tuple[tuple[float, ...], ...]
    deltas: tuple[float, ...]
    ranks: tuple[int, ...]
    optimal_levels: tuple[int, ...]
    ties: tuple[int, ...]


@dataclass(frozen=True)
class AnalysisReport:
    design: Design
    responses: tuple[ResponseAnalysis, ...]

    def response(self, name: str) -> ResponseAnalysis:
        names = tuple(r.spec.name for r in self.responses)
        if name not in names:
            raise UnknownResponseError(f"no response named {name!r}; available: " + ", ".join(names))
        return self.responses[names.index(name)]

    def optimal_settings(self, name: str) -> dict[str, float]:
        return predict_optimum(self, name).settings


def analyze(
    design: Design,
    results: Sequence[RunResult],
    specs: Sequence[ResponseSpec],
) -> AnalysisReport:
    """Full screening for every response: S/N, level means, deltas, ranks, optima."""
    if not specs:
        raise UnknownResponseError("at least one response spec is required")
    dupes = repeated_names(spec.name for spec in specs)
    if dupes:
        raise ConfigError(f"duplicate response name(s): {dupes}")
    rows = _row_replicates(design, results)
    analyses = []
    for spec in specs:
        run_means, snr_per_run = _run_statistics(design, rows, spec)
        means = _level_matrix(design, run_means)
        deltas, ranks = rank_factors(means)
        best, tied = optimal_levels(means, spec.objective, target=spec.target)
        analyses.append(
            ResponseAnalysis(
                spec=spec,
                grand_mean=_mean(run_means),
                run_means=tuple(run_means),
                snr_per_run=snr_per_run,
                level_means=means,
                snr_level_means=_level_matrix(design, snr_per_run),
                deltas=deltas,
                ranks=ranks,
                optimal_levels=best,
                ties=tied,
            )
        )
    return AnalysisReport(design=design, responses=tuple(analyses))


@dataclass(frozen=True)
class Prediction:
    """Additive estimate of a response at a chosen level combination."""

    response: str
    unit: str
    level_indices: tuple[int, ...]
    settings: dict[str, float]
    predicted: float
    confirmation: float | None = None
    error_percent: float | None = None


def _additive_sum(grand: float, means: Sequence[Sequence[float]], levels: Iterable[int]) -> float:
    """``g + sum_f (m[f][L_f] - g)``, summed in factor order: the one additive model."""
    return grand + sum([row[level] - grand for row, level in zip(means, levels)])


def predict_optimum(
    report: AnalysisReport,
    response: str,
    levels: Sequence[int] | None = None,
) -> Prediction:
    """Additive optimum prediction: grand mean plus each factor's level mean minus the grand mean.

    With level means ``m[f][l]`` and grand mean ``g`` the estimate at a
    combination ``L`` is ``g + sum_f (m[f][L_f] - g)``. By default ``L``
    is the response's optimal level per factor; any valid combination may
    be supplied instead.
    """
    analysis = report.response(response)
    if levels is None:
        chosen = analysis.optimal_levels
    else:
        chosen = tuple(levels)
        if len(chosen) != len(report.design.factors):
            raise InvalidLevelError(
                f"expected {len(report.design.factors)} level choices, got {len(chosen)}"
            )
        for factor, level in zip(report.design.factors, chosen):
            if not 0 <= level < len(factor.levels):
                raise InvalidLevelError(
                    f"level index {level} out of range for factor {factor.name!r} "
                    f"(0..{len(factor.levels) - 1})"
                )
    settings = {
        factor.name: factor.levels[level]
        for factor, level in zip(report.design.factors, chosen)
    }
    return Prediction(
        response=analysis.spec.name,
        unit=analysis.spec.unit,
        level_indices=chosen,
        settings=settings,
        predicted=_additive_sum(analysis.grand_mean, analysis.level_means, chosen),
    )


def error_percent(predicted: float, confirmed: float) -> float:
    """Relative deviation of the prediction from the confirmation value.

    ``|confirmed - predicted| / confirmed * 100``; the confirmation run is
    the denominator.
    """
    try:
        value = float(confirmed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfirmationError(f"confirmation value must be a positive number: {exc}") from None
    if not math.isfinite(value) or value <= 0:
        raise ConfirmationError(f"confirmation value must be positive, got {confirmed!r}")
    error = abs(value - predicted) / value * 100.0
    if not math.isfinite(error):
        raise ConfirmationError(f"error percentage is out of the floating-point range: {error!r}")
    return error


def validate(prediction: Prediction, confirmation_value: float) -> Prediction:
    """Attach a confirmation measurement and its error percentage to a prediction."""
    error = error_percent(prediction.predicted, confirmation_value)
    return replace(prediction, confirmation=float(confirmation_value), error_percent=error)
