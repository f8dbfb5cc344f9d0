"""Response backends standing in for the external process.

Two desk-scale evaluators cover what a press or a finite-element run
would normally answer: :class:`TableEvaluator` replays recorded results
for exactly the combinations that were run, and :class:`SurrogateEvaluator`
extends a balanced screening to every level combination through the same
additive model, evaluated by :func:`~taguchikit.analysis.predict_optimum`'s
sum at :meth:`Factor.level_index`'s levels. Both evaluators are immutable
and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from taguchikit.analysis import AnalysisReport, _additive_sum, _mean
from taguchikit.analysis import _row_replicates, _response_index
from taguchikit.arrays import verify_orthogonality
from taguchikit.design import Design, Factor, RunResult, number_label
from taguchikit.errors import CombinationNotCoveredError, InvalidLevelError, UnbalancedDesignError

__all__ = ["TableEvaluator", "SurrogateEvaluator", "fit_surrogate"]


def _settings_key(
    settings: Mapping[str, float], factor_names: Sequence[str]
) -> tuple[float, ...]:
    try:
        return tuple(float(settings[name]) for name in factor_names)
    except KeyError:
        missing = [name for name in factor_names if name not in settings]
        raise InvalidLevelError(f"settings lack factor(s): {', '.join(missing)}") from None


def _format_key(key: tuple[float, ...]) -> str:
    return "(" + ", ".join(number_label(v) for v in key) + ")"


@dataclass(frozen=True)
class TableEvaluator:
    """Replays recorded run results, keyed by the exact level combination.

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
        return _mean(hit[response])

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
        except (KeyError, InvalidLevelError):  # a missing factor is named before a non-level value
            _settings_key(settings, [factor.name for factor in self.factors])
            raise
        return _additive_sum(self.grand_mean, self.level_means, levels)


def fit_surrogate(report: AnalysisReport, response: str) -> SurrogateEvaluator:
    """The report's additive model (grand mean and level means) for one response.

    The fitted surrogate agrees with the optimum-prediction operation at
    every level combination of the source design. Requires a balanced
    design; level means from unbalanced level counts would not be comparable.
    """
    analysis = report.response(response)
    violations = verify_orthogonality(report.design.array).balance_violations
    if violations:
        broken = sorted({v.columns[0] + 1 for v in violations})
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
