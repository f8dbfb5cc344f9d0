"""The additive surrogate evaluator, and the table replay that only the benchmark still calls:
it replays the runs and responses it recorded and raises a plain KeyError for anything else."""

from __future__ import annotations

import sys
import threading
from itertools import product
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from _grouping import insert_strays, naive_grouping, naive_means, scattered_results, split_and_shuffled

from taguchikit.analysis import Objective, ResponseSpec, analyze, predict_optimum
from taguchikit.arrays import OrthogonalArray, get_array, select_array, verify_orthogonality
from taguchikit.design import Factor, RunResult, bind
from taguchikit.errors import IncompleteResultsError, InvalidLevelError, UnbalancedDesignError
from taguchikit.evaluators import TableEvaluator
from taguchikit.evaluators import fit_surrogate

CYCLE = (49.4161, 51.0519, 54.4495, 29.3798, 30.4038, 32.3585, 22.925, 23.4541, 24.4298)

UNREADABLE_SETTING = pytest.mark.parametrize(
    "value, reason",
    [
        ("abc", "could not convert string to float: 'abc'"),
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
        ([1], "float() argument must be a string or a real number, not 'list'"),
        (10**400, "int too large to convert to float"),
    ],
    ids=["text", "none", "list", "int-beyond-double"],
)


def unreadable_setting_cases(value, reason):
    """Settings with ``value`` for a factor, without and then with the missing one, and the
    message each must raise: a missing factor is named first."""
    probe = {"mould_temperature": value, "melt_temperature": 215, "injection_pressure": 53}
    return [
        (probe, "settings lack factor(s): holding_time"),
        ({**probe, "holding_time": 3.5}, f"settings hold a value that is not a number: {reason}"),
    ]


class TestTableEvaluator:
    """The benchmark's table replay: it replays recorded runs and responses, and anything
    else is a plain KeyError. Each test here builds a table and nothing else, so the class
    goes whole when the benchmark stops calling it."""

    @pytest.fixture(scope="class")
    def table(self, clip_design, clip_results):
        return TableEvaluator.from_results(clip_design, clip_results)

    def test_replays_recorded_run5(self, table):
        settings = {
            "mould_temperature": 80,
            "melt_temperature": 220,
            "injection_pressure": 58,
            "holding_time": 3.5,
        }
        assert table.evaluate(settings, "cycle_time") == 30.4038

    @pytest.mark.parametrize(
        "recorded, levels, response, missing",
        [
            (True, (85, 215, 53, 3.5), "cycle_time", (85.0, 215.0, 53.0, 3.5)),
            (True, (75, 215, 47, 3.5), "warpage", "warpage"),
            (False, (75, 215, 47, 3.5), "cycle_time", "cycle_time"),
        ],
        ids=["unrecorded-combination", "unknown-response", "empty-table"],
    )
    def test_what_was_not_recorded_is_a_plain_key_error(
        self, clip_design, clip_results, recorded, levels, response, missing
    ):
        table = TableEvaluator.from_results(clip_design, clip_results if recorded else [])
        with pytest.raises(KeyError) as caught:
            table.evaluate(dict(zip(clip_design.factor_names, levels)), response)
        assert type(caught.value) is KeyError and caught.value.args == (missing,)

    def test_missing_factor_in_query(self, table):
        query = {"mould_temperature": 80, "melt_temperature": 220, "injection_pressure": 58}
        with pytest.raises(InvalidLevelError) as caught:
            table.evaluate(query, "cycle_time")
        assert str(caught.value) == "settings lack factor(s): holding_time"

    def test_missing_factor_is_named_before_a_non_level_value(self, table):
        probe = {"mould_temperature": 82, "melt_temperature": 215, "injection_pressure": 53}
        with pytest.raises(InvalidLevelError, match=r"^settings lack factor\(s\): holding_time$"):
            table.evaluate(probe, "cycle_time")

    @UNREADABLE_SETTING
    def test_setting_float_cannot_read_is_an_invalid_level(self, table, value, reason):
        for settings, message in unreadable_setting_cases(value, reason):
            with pytest.raises(InvalidLevelError) as caught:
                table.evaluate(settings, "cycle_time")
            assert str(caught.value) == message

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
        with pytest.raises(OverflowError):
            evaluator.evaluate({"x": 1.0}, "y")
        assert evaluator.evaluate({"x": 2.0}, "y") == 20.0

    @given(data=st.data())
    def test_split_input_replays_each_runs_mean(self, clip_design, clip_results, clip_config, data):
        split = data.draw(split_and_shuffled(clip_results))
        table = TableEvaluator.from_results(clip_design, split)
        grouped = naive_grouping(clip_design, split)
        for spec in clip_config.responses:
            replayed = [table.evaluate(run.settings, spec.name) for run in clip_design.runs]
            assert replayed == naive_means(grouped, spec.name)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_table_groups_as_a_naive_scan_does(self, clip_design, clip_config, data):
        names = [spec.name for spec in clip_config.responses]
        results = data.draw(scattered_results(clip_design, names))
        grouped = naive_grouping(clip_design, results)
        table = TableEvaluator.from_results(clip_design, results)
        for name in names:
            replayed = [table.evaluate(run.settings, name) for run in clip_design.runs]
            assert replayed == naive_means(grouped, name)
        with pytest.raises(KeyError):
            table.evaluate(clip_design.runs[0].settings, "warpage")
        message = insert_strays(data, results, names[0])
        with pytest.raises(IncompleteResultsError) as caught:
            TableEvaluator.from_results(clip_design, results)
        assert str(caught.value) == message


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

    def test_pair_violations_alone_do_not_stop_the_fit(self):
        # Balanced, but the columns alias each other: four pair violations, no one-column one.
        aliased = OrthogonalArray("aliased", (2, 2), ((0, 0), (0, 0), (1, 1), (1, 1)))
        factors = (Factor("a", "", (1.0, 2.0)), Factor("b", "", (1.0, 2.0)))
        results = [RunResult(n, {"y": (y,)}) for n, y in zip(range(1, 5), (5.0, 6.0, 8.0, 9.0))]
        spec = ResponseSpec("y", "", Objective.SMALLER_IS_BETTER)
        report = analyze(bind(aliased, factors), results, (spec,))
        surrogate = fit_surrogate(report, "y")
        combos = list(product(range(2), repeat=2))
        predicted = [predict_optimum(report, "y", combo).predicted for combo in combos]
        assert predicted == [4.0, 7.0, 7.0, 10.0]
        assert [surrogate.evaluate({"a": 1.0 + a, "b": 1.0 + b}) for a, b in combos] == predicted

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

    def test_missing_factor_in_query(self, clip_report):
        query = {"mould_temperature": 80, "melt_temperature": 220, "injection_pressure": 58}
        with pytest.raises(InvalidLevelError) as caught:
            fit_surrogate(clip_report, "cycle_time").evaluate(query)
        assert str(caught.value) == "settings lack factor(s): holding_time"

    def test_missing_factor_is_named_before_a_non_level_value(self, clip_report):
        probe = {"mould_temperature": 82, "melt_temperature": 215, "injection_pressure": 53}
        with pytest.raises(InvalidLevelError, match=r"^settings lack factor\(s\): holding_time$"):
            fit_surrogate(clip_report, "cycle_time").evaluate(probe)

    @UNREADABLE_SETTING
    def test_setting_float_cannot_read_is_an_invalid_level(self, clip_report, value, reason):
        surrogate = fit_surrogate(clip_report, "cycle_time")
        for settings, message in unreadable_setting_cases(value, reason):
            with pytest.raises(InvalidLevelError) as caught:
                surrogate.evaluate(settings)
            assert str(caught.value) == message

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
        assert len(reports) == 8 and all(r == reports[0] for r in reports) and reports[0] == ()


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
