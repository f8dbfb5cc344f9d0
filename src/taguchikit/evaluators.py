"""Response backends standing in for the external process.

:class:`SurrogateEvaluator` answers what a press or a finite-element run
would normally answer: it extends a balanced screening to every level
combination through the same additive model, by
:func:`~taguchikit.analysis.predict_optimum`'s sum at
:meth:`Factor.level_index`'s levels, and is immutable and thread-safe.
:class:`TableEvaluator` replays recorded results; it is not exported and
remains only for the benchmark's split_replicates workload.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from taguchikit.analysis import AnalysisReport, _additive_sum, _mean
from taguchikit.analysis import _row_replicates, _response_index
from taguchikit.arrays import verify_orthogonality
from taguchikit.design import Design, Factor, RunResult, number_label
from taguchikit.errors import CombinationNotCoveredError, InvalidLevelError, SingularityError
from taguchikit.errors import UnbalancedDesignError

__all__ = ["SurrogateEvaluator", "fit_surrogate"]


def _settings_key(
    settings: Mapping[str, float], factor_names: Sequence[str]
) -> tuple[float, ...]:
    try:
        return tuple(float(settings[name]) for name in factor_names)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        missing = [name for name in factor_names if name not in settings]
        if missing:
            raise InvalidLevelError(f"settings lack factor(s): {', '.join(missing)}") from None
        raise InvalidLevelError(f"settings hold a value that is not a number: {exc}") from None


def _format_key(key: tuple[float, ...]) -> str:
    return "(" + ", ".join(number_label(v) for v in key) + ")"


@dataclass(frozen=True)
class TableEvaluator:
    """Replays recorded run results by exact level combination, for the benchmark only.

    Keys use the declared level values verbatim (levels are enumerated
    constants, not continuous inputs), so a miss is a miss; the error
    lists the nearest recorded combinations to help diagnose the query.
    """

    factor_names: tuple[str, ...]
    response_names: tuple[str, ...]
    _index: dict[tuple[float, ...], dict[str, list[float]]]

    @classmethod
    def from_results(cls, design: Design, results: Sequence[RunResult]) -> "TableEvaluator":
        """One entry per run, its replicates grouped across however many results carried them."""
        rows = _row_replicates(design, results)
        index = {
            _settings_key(run.settings, design.factor_names): row
            for run, row in zip(design.runs, rows)
            if row
        }
        response_names = tuple(dict.fromkeys(name for row in rows for name in row))
        return cls(factor_names=design.factor_names, response_names=response_names, _index=index)

    def evaluate(self, settings: Mapping[str, float], response: str) -> float:
        if not self.response_names:
            raise CombinationNotCoveredError("table holds no results")
        _response_index(self.response_names, response)
        key = _settings_key(settings, self.factor_names)
        hit = self._index.get(key)
        if hit is None or not hit.get(response):
            nearest = self._nearest(key)
            raise CombinationNotCoveredError(
                f"no recorded result at {_format_key(key)}; nearest recorded: "
                + "; ".join(_format_key(k) for k in nearest)
            )
        try:
            return _mean(hit[response])
        except OverflowError:
            where = f"response {response!r} at {_format_key(key)}"
            raise SingularityError(f"{where}: the replicates' sum is beyond the double range") from None

    def _nearest(self, key: tuple[float, ...]) -> list[tuple[float, ...]]:
        def distance(recorded: tuple[float, ...]) -> int:
            return sum(1 for a, b in zip(recorded, key) if a != b)

        return sorted(self._index, key=distance)[:3]


@dataclass(frozen=True)
class SurrogateEvaluator:
    """Additive stand-in fitted from a balanced screening.

    Evaluation at a level combination is the grand mean plus, per factor,
    the level mean minus the grand mean: exactly the additive
    optimum-prediction formula extended to every combination. Purely
    additive by construction: factor interactions are not modeled.
    """

    response: str
    grand_mean: float
    factors: tuple[Factor, ...]
    level_means: tuple[tuple[float, ...], ...]

    def evaluate(self, settings: Mapping[str, float]) -> float:
        """``g + sum_f (m[f][L_f] - g)`` by :func:`taguchikit.analysis._additive_sum`, at each level."""
        try:
            levels = [factor.level_index(float(settings[factor.name])) for factor in self.factors]
        except (KeyError, TypeError, ValueError, OverflowError):  # InvalidLevelError is a ValueError
            # A missing factor is named first, then a value float() refuses, then a non-level.
            _settings_key(settings, [factor.name for factor in self.factors])
            raise
        return _additive_sum(self.grand_mean, self.level_means, levels)


def fit_surrogate(report: AnalysisReport, response: str) -> SurrogateEvaluator:
    """The report's additive model (grand mean and level means) for one response.

    The fitted surrogate agrees with the optimum-prediction operation at
    every level combination of the source design. Requires a balanced
    design, though pair violations alone do not stop the fit; level means
    from unbalanced level counts would not be comparable.
    """
    analysis = report.response(response)
    violations = verify_orthogonality(report.design.array)  # () if valid; balance ones first
    broken = violations and dict.fromkeys(v.columns[0] + 1 for v in violations if len(v.columns) == 1)
    if broken:
        raise UnbalancedDesignError(
            "surrogate requires a balanced design; unbalanced column(s): "
            + ", ".join(map(str, broken))
        )
    return SurrogateEvaluator(
        response=analysis.spec.name,
        grand_mean=analysis.grand_mean,
        factors=report.design.factors,
        level_means=analysis.level_means,
    )
