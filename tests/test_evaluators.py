"""Table replay and additive surrogate evaluators."""

from __future__ import annotations

import sys
import threading
from itertools import product
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from taguchikit.analysis import Objective, ResponseSpec, analyze, predict_optimum
from taguchikit.arrays import OrthogonalArray, get_array, select_array, verify_orthogonality
from taguchikit.design import Factor, RunResult, bind
from taguchikit.errors import (
    CombinationNotCoveredError,
    IncompleteResultsError,
    InvalidLevelError,
    SingularityError,
    UnbalancedDesignError,
    UnknownResponseError,
)
from taguchikit.evaluators import TableEvaluator, fit_surrogate

CYCLE = (49.4161, 51.0519, 54.4495, 29.3798, 30.4038, 32.3585, 22.925, 23.4541, 24.4298)


@pytest.fixture(scope="module")
def table(clip_design, clip_results):
    return TableEvaluator.from_results(clip_design, clip_results)


class TestTableEvaluator:
    def test_replays_recorded_run5(self, table):
        settings = {
            "mould_temperature": 80,
            "melt_temperature": 220,
            "injection_pressure": 58,
            "holding_time": 3.5,
        }
        assert table.evaluate(settings, "cycle_time") == 30.4038

    def test_miss_lists_nearest_recorded(self, table):
        probe = {
            "mould_temperature": 85,
            "melt_temperature": 215,
            "injection_pressure": 53,
            "holding_time": 3.5,
        }
        with pytest.raises(CombinationNotCoveredError) as exc:
            table.evaluate(probe, "cycle_time")
        message = str(exc.value)
        assert "no recorded result at (85, 215, 53, 3.5)" in message
        # run 9 differs in two positions; something at distance <= 2 must show up
        assert "(85, 230, 53, 3.5)" in message

    def test_unknown_response_rejected(self, table, clip_design):
        with pytest.raises(UnknownResponseError, match="warpage"):
            table.evaluate(clip_design.runs[0].settings, "warpage")

    def test_missing_factor_in_query(self, clip_report, table):
        query = {"mould_temperature": 80, "melt_temperature": 220, "injection_pressure": 58}
        surrogate = fit_surrogate(clip_report, "cycle_time")
        for evaluate in (lambda: table.evaluate(query, "cycle_time"), lambda: surrogate.evaluate(query)):
            with pytest.raises(InvalidLevelError) as caught:
                evaluate()
            assert str(caught.value) == "settings lack factor(s): holding_time"

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("abc", "could not convert string to float: 'abc'"),
            (None, "float() argument must be a string or a real number, not 'NoneType'"),
            ([1], "float() argument must be a string or a real number, not 'list'"),
            (10**400, "int too large to convert to float"),
        ],
        ids=["text", "none", "list", "int-beyond-double"],
    )
    def test_setting_float_cannot_read_is_an_invalid_level(self, clip_report, table, value, reason):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        probe = {"mould_temperature": value, "melt_temperature": 215, "injection_pressure": 53}
        cases = [  # a missing factor is named first
            (probe, "settings lack factor(s): holding_time"),
            ({**probe, "holding_time": 3.5}, f"settings hold a value that is not a number: {reason}"),
        ]
        for settings, message in cases:
            evaluations = (lambda: table.evaluate(settings, "cycle_time"), lambda: surrogate.evaluate(settings))
            for evaluate in evaluations:
                with pytest.raises(InvalidLevelError) as caught:
                    evaluate()
                assert str(caught.value) == message

    def test_empty_table_says_it_holds_no_results(self, clip_design):
        empty = TableEvaluator.from_results(clip_design, [])
        with pytest.raises(CombinationNotCoveredError, match="^table holds no results$"):
            empty.evaluate(clip_design.runs[0].settings, "cycle_time")

    def test_run_outside_the_design_is_refused(self, clip_design, clip_results):
        extra = [*clip_results, RunResult(12, {"cycle_time": (1.0,)}), RunResult(10, {"y": (2.0,)})]
        message = r"^results reference run number\(s\) not in the design: 10, 12$"
        with pytest.raises(IncompleteResultsError, match=message):
            TableEvaluator.from_results(clip_design, extra)

    def test_replicates_average_on_evaluate(self):
        array = OrthogonalArray("pair", (2,), ((0,), (1,)))
        design = bind(array, (Factor("x", "", (1.0, 2.0)),))
        results = [RunResult(1, {"y": (10.0, 14.0)}), RunResult(2, {"y": (20.0,)})]
        evaluator = TableEvaluator.from_results(design, results)
        assert evaluator.evaluate({"x": 1.0}, "y") == 12.0

    def test_replicates_summing_beyond_the_double_range_are_refused(self):
        array = OrthogonalArray("pair", (2,), ((0,), (1,)))
        design = bind(array, (Factor("x", "", (1.0, 2.0)),))
        results = [RunResult(1, {"y": (1e308, 1e308)}), RunResult(2, {"y": (20.0,)})]
        evaluator = TableEvaluator.from_results(design, results)
        message = r"^response 'y' at \(1\): the replicates' sum is beyond the double range$"
        with pytest.raises(SingularityError, match=message):
            evaluator.evaluate({"x": 1.0}, "y")
        assert evaluator.evaluate({"x": 2.0}, "y") == 20.0


class TestSurrogate:
    def test_grand_mean_from_fit(self, clip_report):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        assert surrogate.grand_mean == pytest.approx(sum(CYCLE) / 9, rel=1e-12)
        assert abs(surrogate.grand_mean - 35.3187) <= 0.0001
        assert surrogate.level_means == clip_report.response("cycle_time").level_means
        assert surrogate.factors == clip_report.design.factors

    @pytest.mark.parametrize("response", ["cycle_time", "shrinkage"])
    def test_matches_prediction_on_every_combination(self, clip_report, response):
        surrogate = fit_surrogate(clip_report, response)
        factors = clip_report.design.factors
        for combo in product(range(3), repeat=4):
            predicted = predict_optimum(clip_report, response, levels=combo).predicted
            settings = {f.name: f.levels[l] for f, l in zip(factors, combo)}
            evaluated = surrogate.evaluate(settings)
            assert abs(evaluated - predicted) <= 1e-9 * max(1.0, abs(predicted))

    def test_exhaustive_minimum_sits_at_per_factor_argmin(self, clip_report):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        factors = clip_report.design.factors
        values = {
            combo: surrogate.evaluate(
                {f.name: f.levels[l] for f, l in zip(factors, combo)}
            )
            for combo in product(range(3), repeat=4)
        }
        best_combo = min(values, key=values.get)
        assert best_combo == clip_report.response("cycle_time").optimal_levels

    def test_design_run_average_recovers_grand_mean(self, clip_report):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        per_run = [surrogate.evaluate(run.settings) for run in clip_report.design.runs]
        assert fmean(per_run) == pytest.approx(sum(CYCLE) / 9, rel=1e-9)
        assert abs(fmean(per_run) - 35.3187) <= 0.0001

    def test_constant_response_has_zero_offsets(self, clip_design):
        results = [RunResult(n, {"flat": (3.25,)}) for n in range(1, 10)]
        report = analyze(
            clip_design, results, (ResponseSpec("flat", "", Objective.SMALLER_IS_BETTER),)
        )
        surrogate = fit_surrogate(report, "flat")
        assert all(m == 3.25 for row in surrogate.level_means for m in row)
        for combo in product(*(f.levels for f in clip_design.factors)):
            assert surrogate.evaluate(dict(zip(clip_design.factor_names, combo))) == 3.25

    def test_unbalanced_design_rejected(self):
        lopsided = OrthogonalArray("lopsided", (2,), ((0,), (0,), (1,)))
        design = bind(lopsided, (Factor("x", "", (1.0, 2.0)),))
        results = [RunResult(n, {"y": (float(n),)}) for n in (1, 2, 3)]
        report = analyze(design, results, (ResponseSpec("y", "", Objective.SMALLER_IS_BETTER),))
        messages = []
        for _ in range(2):  # the second fit reads the array's kept report
            with pytest.raises(UnbalancedDesignError) as raised:
                fit_surrogate(report, "y")
            messages.append(str(raised.value))
        assert messages == ["surrogate requires a balanced design; unbalanced column(s): 1"] * 2

    def test_unfitted_level_value_rejected(self, clip_report):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        message = r"^82 is not a level of 'mould_temperature' \(levels: 75, 80, 85\)$"
        with pytest.raises(InvalidLevelError, match=message):
            surrogate.evaluate(
                {
                    "mould_temperature": 82,
                    "melt_temperature": 215,
                    "injection_pressure": 53,
                    "holding_time": 3.5,
                }
            )

    def test_missing_factor_is_named_before_a_non_level_value(self, clip_report, table):
        probe = {"mould_temperature": 82, "melt_temperature": 215, "injection_pressure": 53}
        message = r"^settings lack factor\(s\): holding_time$"
        with pytest.raises(InvalidLevelError, match=message):
            fit_surrogate(clip_report, "cycle_time").evaluate(probe)
        with pytest.raises(InvalidLevelError, match=message):
            table.evaluate(probe, "cycle_time")

    @pytest.mark.parametrize(
        ("point", "levels"),
        [
            ({"z": -0.0, "w": 48.0}, (0, 1)),
            ({"z": 1.0, "w": 47}, (1, 0)),
            ({"z": 0.5, "w": 47.0}, r"^0\.5 is not a level of 'z' \(levels: 0, 1\)$"),
        ],
        ids=["negative_zero", "int_for_float", "between_levels"],
    )
    def test_level_lookup_matches_level_index(self, point, levels):
        """The surrogate evaluates at ``Factor.level_index``'s level, and misses what it misses."""
        factors = (Factor("z", "", (0.0, 1.0)), Factor("w", "", (47.0, 48.0)))
        design = bind(select_array(2, 2), factors)
        results = [RunResult(n, {"y": (float(n) ** 2,)}) for n in range(1, 5)]
        report = analyze(design, results, (ResponseSpec("y", "", Objective.SMALLER_IS_BETTER),))
        surrogate = fit_surrogate(report, "y")
        if isinstance(levels, str):
            with pytest.raises(InvalidLevelError, match=levels):
                factors[0].level_index(point["z"])
            with pytest.raises(InvalidLevelError, match=levels):
                surrogate.evaluate(point)
        else:
            assert tuple(map(Factor.level_index, factors, point.values())) == levels
            assert surrogate.evaluate(point) == predict_optimum(report, "y", levels).predicted

    def test_threads_share_a_surrogate_and_an_unverified_array(
        self, clip_design, clip_results, clip_config, clip_report
    ):
        """Threads racing to the first count of an array's report, and sweeping one shared surrogate, agree."""
        design = bind(get_array("L9"), clip_design.factors)  # a new array: its report is not counted yet
        report = analyze(design, clip_results, clip_config.responses)
        shared = fit_surrogate(clip_report, "cycle_time")
        combos = [
            dict(zip(design.factor_names, levels))
            for levels in product(*(f.levels for f in design.factors))
        ]
        expected = [shared.evaluate(combo) for combo in combos]
        reports, sweeps = [], []

        def work():
            reports.append(verify_orthogonality(design.array))
            fitted = fit_surrogate(report, "cycle_time")
            sweeps.append([fitted.evaluate(combo) for combo in combos])
            sweeps.append([shared.evaluate(combo) for combo in combos])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sweeps == [expected] * 16
        assert len(reports) == 8 and all(r == reports[0] for r in reports) and reports[0].passed


class TestSurrogateAgreesWithPrediction:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(values=st.lists(st.floats(1e-3, 1e3), min_size=9, max_size=9))
    def test_evaluate_equals_predict_optimum_exactly(self, clip_design, values):
        """The same additive sum, in the same order, so equal to the last bit."""
        results = [RunResult(n, {"y": (y,)}) for n, y in enumerate(values, start=1)]
        report = analyze(clip_design, results, (ResponseSpec("y", "", Objective.SMALLER_IS_BETTER),))
        surrogate = fit_surrogate(report, "y")
        factors = clip_design.factors
        for combo in product(range(3), repeat=4):
            point = {f.name: f.levels[l] for f, l in zip(factors, combo)}
            assert surrogate.evaluate(point) == predict_optimum(report, "y", combo).predicted
