"""Response backends standing in for the external process.

Two desk-scale evaluators cover what a press or a finite-element run
would normally answer: :class:`TableEvaluator` replays recorded results
for exactly the combinations that were run, and :class:`SurrogateEvaluator`
extends a balanced screening to every level combination through the same
additive model used for optimum prediction. Both are immutable and safe
to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from statistics import fmean
from typing import Mapping, Sequence

from taguchikit.analysis import AnalysisReport, RunResult, group_replicates
from taguchikit.arrays import verify_orthogonality
from taguchikit.design import Design
from taguchikit.errors import (
    CombinationNotCoveredError,
    InvalidLevelError,
    ResultsFormatError,
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
    rows: tuple[tuple[int, tuple[float, ...], dict[str, tuple[float, ...]]], ...]
    _index: dict[tuple[float, ...], dict[str, tuple[float, ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {key: values for _, key, values in self.rows})

    @classmethod
    def from_results(cls, design: Design, results: Sequence[RunResult]) -> "TableEvaluator":
        """One row per run, its replicates grouped across however many results carried them."""
        response_names = tuple(dict.fromkeys(name for result in results for name in result.values))
        by_number = {run.number: run for run in design.runs}
        rows = []
        for number, values in sorted(group_replicates(results).items()):
            if number not in by_number:
                raise CombinationNotCoveredError(f"run {number} is not part of the design")
            key = _settings_key(by_number[number].settings, design.factor_names)
            rows.append((number, key, {name: tuple(ys) for name, ys in values.items()}))
        return cls(
            factor_names=design.factor_names, response_names=response_names, rows=tuple(rows)
        )

    def covers(self, settings: Mapping[str, float]) -> bool:
        return _settings_key(settings, self.factor_names) in self._index

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

    def to_results_csv(self) -> str:
        """Re-emit the recorded table in the results CSV format, values verbatim."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["run"] + list(self.response_names))
        for number, _, values in self.rows:
            depths = {len(values.get(name, ())) for name in self.response_names}
            if len(depths) != 1:
                raise ResultsFormatError(
                    f"run {number}: responses have unequal replicate counts, "
                    "which the results CSV format cannot represent"
                )
            for i in range(depths.pop()):
                writer.writerow(
                    [number]
                    + [number_label(values[name][i]) for name in self.response_names]
                )
        return buf.getvalue()


@dataclass(frozen=True)
class SurrogateEvaluator:
    """Additive stand-in fitted from a balanced screening.

    Evaluation at a level combination is the grand mean plus one offset
    (level mean minus grand mean) per factor, i.e. exactly the additive
    optimum-prediction formula extended to every combination. Purely
    additive by construction: factor interactions are not modeled.
    """

    response: str
    unit: str
    grand_mean: float
    factor_names: tuple[str, ...]
    offsets: tuple[dict[float, float], ...]

    @property
    def responses(self) -> tuple[str, ...]:
        return (self.response,)

    def covers(self, settings: Mapping[str, float]) -> bool:
        try:
            key = _settings_key(settings, self.factor_names)
        except InvalidLevelError:
            return False
        return all(value in table for value, table in zip(key, self.offsets))

    def evaluate(self, settings: Mapping[str, float], response: str | None = None) -> float:
        if response is not None and response != self.response:
            raise UnknownResponseError(
                f"surrogate answers {self.response!r}, not {response!r}"
            )
        key = _settings_key(settings, self.factor_names)
        total = self.grand_mean
        for name, value, table in zip(self.factor_names, key, self.offsets):
            if value not in table:
                choices = ", ".join(number_label(v) for v in table)
                raise InvalidLevelError(
                    f"{number_label(value)} is not a fitted level of {name!r} (levels: {choices})"
                )
            total += table[value]
        return total

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "response": self.response,
            "unit": self.unit,
            "grand_mean": self.grand_mean,
            "factors": [
                {
                    "name": name,
                    "offsets": {number_label(value): offset for value, offset in table.items()},
                }
                for name, table in zip(self.factor_names, self.offsets)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False, allow_nan=False) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "SurrogateEvaluator":
        factors = data["factors"]
        return cls(
            response=data["response"],
            unit=data.get("unit", ""),
            grand_mean=float(data["grand_mean"]),
            factor_names=tuple(f["name"] for f in factors),
            offsets=tuple(
                {float(value): float(offset) for value, offset in f["offsets"].items()}
                for f in factors
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "SurrogateEvaluator":
        return cls.from_json_dict(json.loads(text))


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
        unit=analysis.spec.unit,
        grand_mean=analysis.grand_mean,
        factor_names=report.design.factor_names,
        offsets=offsets,
    )
