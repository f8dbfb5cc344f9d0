"""Response backends standing in for the external process.

Two desk-scale evaluators cover what a press or a finite-element run
would normally answer: :class:`TableEvaluator` replays recorded results
for exactly the combinations that were run, and :class:`SurrogateEvaluator`
extends a balanced screening to every level combination through the same
additive model used for optimum prediction. Both are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Mapping, Sequence

from taguchikit.analysis import AnalysisReport, RunResult, group_replicates
from taguchikit.arrays import verify_orthogonality
from taguchikit.design import Design
from taguchikit.errors import (
    CombinationNotCoveredError,
    InvalidLevelError,
    UnbalancedDesignError,
    UnknownResponseError,
)
from taguchikit.formatting import number_label

__all__ = ["TableEvaluator", "SurrogateEvaluator", "fit_surrogate"]


def _settings_key(
    settings: Mapping[str, float], factor_names: Sequence[str]
) -> tuple[float, ...]:
    missing = [name for name in factor_names if name not in settings]
    if missing:
        raise InvalidLevelError(f"settings lack factor(s): {', '.join(missing)}")
    return tuple(float(settings[name]) for name in factor_names)


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
    _index: dict[tuple[float, ...], dict[str, tuple[float, ...]]]

    @classmethod
    def from_results(cls, design: Design, results: Sequence[RunResult]) -> "TableEvaluator":
        """One entry per run, its replicates grouped across however many results carried them."""
        response_names = tuple(dict.fromkeys(name for result in results for name in result.values))
        by_number = {run.number: run for run in design.runs}
        index = {}
        for number, values in sorted(group_replicates(results).items()):
            if number not in by_number:
                raise CombinationNotCoveredError(f"run {number} is not part of the design")
            key = _settings_key(by_number[number].settings, design.factor_names)
            index[key] = {name: tuple(ys) for name, ys in values.items()}
        return cls(factor_names=design.factor_names, response_names=response_names, _index=index)

    def evaluate(self, settings: Mapping[str, float], response: str | None = None) -> float:
        if response is None:
            if len(self.response_names) != 1:
                raise UnknownResponseError(
                    "table records several responses; name one of: "
                    + ", ".join(self.response_names)
                )
            response = self.response_names[0]
        if response not in self.response_names:
            raise UnknownResponseError(
                f"no response named {response!r}; available: " + ", ".join(self.response_names)
            )
        key = _settings_key(settings, self.factor_names)
        hit = self._index.get(key)
        if hit is None or not hit.get(response):
            nearest = self._nearest(key)
            raise CombinationNotCoveredError(
                f"no recorded result at {_format_key(key)}; nearest recorded: "
                + "; ".join(_format_key(k) for k in nearest)
            )
        return fmean(hit[response])

    def _nearest(self, key: tuple[float, ...], count: int = 3) -> list[tuple[float, ...]]:
        def distance(recorded: tuple[float, ...]) -> int:
            return sum(1 for a, b in zip(recorded, key) if a != b)

        return sorted(self._index, key=distance)[:count]


@dataclass(frozen=True)
class SurrogateEvaluator:
    """Additive stand-in fitted from a balanced screening.

    Evaluation at a level combination is the grand mean plus one offset
    (level mean minus grand mean) per factor, i.e. exactly the additive
    optimum-prediction formula extended to every combination. Purely
    additive by construction: factor interactions are not modeled.
    """

    response: str
    grand_mean: float
    factor_names: tuple[str, ...]
    offsets: tuple[dict[float, float], ...]

    def evaluate(self, settings: Mapping[str, float], response: str | None = None) -> float:
        if response is not None and response != self.response:
            raise UnknownResponseError(
                f"surrogate answers {self.response!r}, not {response!r}"
            )
        key = _settings_key(settings, self.factor_names)
        offsets = []
        for name, value, table in zip(self.factor_names, key, self.offsets):
            if value not in table:
                choices = ", ".join(number_label(v) for v in table)
                raise InvalidLevelError(
                    f"{number_label(value)} is not a fitted level of {name!r} (levels: {choices})"
                )
            offsets.append(table[value])
        return self.grand_mean + sum(offsets)


def fit_surrogate(report: AnalysisReport, response: str | None = None) -> SurrogateEvaluator:
    """Extract the additive model (grand mean + level-mean offsets) from a report.

    The fitted surrogate agrees with the optimum-prediction operation at
    every level combination of the source design. Requires a balanced
    design; offsets from unbalanced level counts would not be comparable.
    """
    analysis = report.response(response)
    check = verify_orthogonality(report.design.array)
    if not check.balanced:
        broken = sorted({v.column + 1 for v in check.balance_violations})
        raise UnbalancedDesignError(
            "surrogate requires a balanced design; unbalanced column(s): "
            + ", ".join(map(str, broken))
        )
    offsets = tuple(
        {
            factor.levels[l]: analysis.level_means[f][l] - analysis.grand_mean
            for l in range(len(factor.levels))
        }
        for f, factor in enumerate(report.design.factors)
    )
    return SurrogateEvaluator(
        response=analysis.spec.name,
        grand_mean=analysis.grand_mean,
        factor_names=report.design.factor_names,
        offsets=offsets,
    )
