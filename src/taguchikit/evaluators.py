"""Response backends standing in for the external process.

:class:`SurrogateEvaluator` answers what a press or a finite-element run
would normally answer: it extends a balanced screening to every level
combination through the same additive model, by
:func:`~taguchikit.analysis.predict_optimum`'s sum at
:meth:`Factor.level_index`'s levels, and is immutable and thread-safe.
:class:`TableEvaluator` replays recorded results and raises a plain
``KeyError`` for anything else; it is not exported and remains only for
the benchmark's split_replicates workload.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from taguchikit.analysis import AnalysisReport, _additive_sum, _mean, _row_replicates
from taguchikit.arrays import verify_orthogonality
from taguchikit.design import Design, Factor, RunResult
from taguchikit.errors import InvalidLevelError, UnbalancedDesignError


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


@dataclass(frozen=True)
class TableEvaluator:
    """Replays recorded run results by exact level combination, for the benchmark only.

    Keys use the declared level values verbatim. A combination or response not
    recorded raises a plain :class:`KeyError`, outside the package's error contract.
    """

    factor_names: tuple[str, ...]
    _index: dict[tuple[float, ...], dict[str, list[float]]]

    @classmethod
    def from_results(cls, design: Design, results: Sequence[RunResult]) -> "TableEvaluator":
        """One entry per run, its replicates grouped across however many results carried them."""
        rows = _row_replicates(design, results)
        keys = (_settings_key(run.settings, design.factor_names) for run in design.runs)
        return cls(factor_names=design.factor_names, _index=dict(zip(keys, rows)))

    def evaluate(self, settings: Mapping[str, float], response: str) -> float:
        return _mean(self._index[_settings_key(settings, self.factor_names)][response])


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
