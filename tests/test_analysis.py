"""S/N ratios, level means, ranking, optimum prediction, validation."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from pathlib import Path
from statistics import fmean

import pytest
from hypothesis import assume, given, settings, strategies as st

from _grouping import insert_strays, naive_grouping, naive_means, scattered_results, split_and_shuffled

from taguchikit.analysis import (
    Objective,
    Prediction,
    ResponseSpec,
    analyze,
    error_percent,
    optimal_levels,
    predict_optimum,
    rank_factors,
    snr,
    validate,
)
from taguchikit.arrays import OrthogonalArray, get_array
from taguchikit.design import Factor, RunResult, bind, read_results_csv
from taguchikit.errors import (
    ConfigError,
    ConfirmationError,
    IncompleteResultsError,
    InvalidLevelError,
    ResultsFormatError,
    SingularityError,
    UnknownResponseError,
)
from taguchikit.reporting import (
    fixed,
    prediction_from_json_dict,
    prediction_to_json,
    prediction_to_text,
    report_to_json,
    report_to_text,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Recorded simulation responses for the clip study, in run order. Typed
# here independently of the fixture CSV so oracle sums do not share a
# parsing path with the code under test.
CYCLE = (49.4161, 51.0519, 54.4495, 29.3798, 30.4038, 32.3585, 22.925, 23.4541, 24.4298)
SHRINK = (2.2, 2.183, 2.571, 1.992, 2.093, 2.062, 1.972, 1.961, 2.144)
L9_PATTERN = (
    (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2),
    (1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1),
    (2, 0, 2, 1), (2, 1, 0, 2), (2, 2, 1, 0),
)


def level_means(design, results, response):
    """Raw-response level means of one response, as the analysis report gives them."""
    spec = ResponseSpec(response, "", Objective.SMALLER_IS_BETTER)
    return analyze(design, results, [spec]).response(response).level_means


def brute_level_means(values, factor, level):
    """Oracle: average the typed responses over the pattern rows directly."""
    picked = [values[r] for r in range(9) if L9_PATTERN[r][factor] == level]
    assert len(picked) == 3
    return sum(picked) / 3


class TestSnr:
    def test_recorded_run1_cycle_time(self):
        value = snr([49.4161])
        assert value == pytest.approx(-10 * math.log10(49.4161**2), rel=1e-12)
        # two-decimal convention of the recorded tables chops toward zero
        assert abs(float(fixed(value, 2, truncate=True)) - (-33.87)) <= 0.005

    def test_recorded_run1_shrinkage(self):
        value = snr([2.2])
        assert abs(float(fixed(value, 2, truncate=True)) - (-6.84)) <= 0.005

    def test_recorded_run7_cycle_time(self):
        assert snr([22.925]) == pytest.approx(-27.2, abs=0.05)

    @pytest.mark.parametrize(
        "objective, target",
        [(Objective.SMALLER_IS_BETTER, None), (Objective.LARGER_IS_BETTER, None),
         (Objective.NOMINAL_IS_BEST, 0.0)],
    )
    def test_unit_value_gives_positive_zero(self, objective, target):
        value = snr([1.0], objective, target=target)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_unit_mean_square_prints_as_zero_in_both_reports(self):
        design = bind(OrthogonalArray("pair", (2,), ((0,), (1,))), [Factor("p", "", (1, 2))])
        results = [RunResult(1, {"y": (1,)}), RunResult(2, {"y": (2,)})]
        report = analyze(design, results, [ResponseSpec("y", "", Objective.SMALLER_IS_BETTER)])
        assert "  1    1.0000   0.00\n" in report_to_text(report)
        assert '"snr": 0.0\n' in report_to_json(report)

    def test_multiple_replicates_use_mean_square(self):
        assert snr([2.0, 4.0]) == pytest.approx(-10 * math.log10((4 + 16) / 2), rel=1e-12)

    def test_larger_the_better(self):
        assert snr([2.0], Objective.LARGER_IS_BETTER) == pytest.approx(
            -10 * math.log10(1 / 4), rel=1e-12
        )

    def test_larger_the_better_zero_is_singular(self):
        with pytest.raises(SingularityError, match="zero"):
            snr([3.0, 0.0], Objective.LARGER_IS_BETTER)

    def test_nominal_uses_target_distance(self):
        assert snr([3.0, 5.0], Objective.NOMINAL_IS_BEST, target=4.0) == pytest.approx(
            -10 * math.log10(1.0), rel=1e-12
        )

    def test_nominal_on_target_is_singular(self):
        message = "^nominal-the-best S/N undefined when every value equals the target$"
        with pytest.raises(SingularityError, match=message):
            snr([4.0, 4.0], Objective.NOMINAL_IS_BEST, target=4.0)

    def test_nominal_needs_target(self):
        with pytest.raises(SingularityError, match="target"):
            snr([4.0], Objective.NOMINAL_IS_BEST)

    def test_empty_input_rejected(self):
        with pytest.raises(SingularityError, match="at least one"):
            snr([])

    def test_all_zero_smaller_is_singular(self):
        with pytest.raises(SingularityError, match="all-zero"):
            snr([0.0, 0.0])

    @given(
        y1=st.floats(min_value=1e-6, max_value=1e6),
        scale=st.floats(min_value=1.000001, max_value=1e3),
    )
    def test_monotone_decreasing_for_single_replicate(self, y1, scale):
        y2 = y1 * scale
        assert snr([y1]) > snr([y2])

    def test_larger_the_better_negative_zero_is_singular(self):
        with pytest.raises(SingularityError, match="zero"):
            snr([-0.0, 1.0], Objective.LARGER_IS_BETTER)

    @settings(max_examples=200, derandomize=True)
    @given(
        ys=st.lists(
            st.floats(min_value=1e-3, max_value=1e3) | st.floats(min_value=-1e3, max_value=-1e-3),
            min_size=1,
            max_size=40,
        ),
        target=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_bits_equal_statistics_fmean(self, ys, target):
        assume(any(y != target for y in ys))
        assert snr(ys) == -10 * math.log10(fmean(y * y for y in ys))
        assert snr(ys, Objective.LARGER_IS_BETTER) == -10 * math.log10(
            fmean(1.0 / (y * y) for y in ys)
        )
        assert snr(ys, Objective.NOMINAL_IS_BEST, target=target) == -10 * math.log10(
            fmean((y - target) ** 2 for y in ys)
        )


class TestLevelMeans:
    def test_cycle_time_at_mould_85(self, clip_design, clip_results):
        means = level_means(clip_design, clip_results, "cycle_time")
        assert means[0][2] == pytest.approx((22.925 + 23.4541 + 24.4298) / 3, rel=1e-12)

    def test_shrinkage_at_holding_45(self, clip_design, clip_results):
        means = level_means(clip_design, clip_results, "shrinkage")
        assert means[3][1] == pytest.approx((2.183 + 2.062 + 1.972) / 3, rel=1e-12)

    @pytest.mark.parametrize("response,values", [("cycle_time", CYCLE), ("shrinkage", SHRINK)])
    def test_full_matrix_against_brute_force(self, clip_design, clip_results, response, values):
        means = level_means(clip_design, clip_results, response)
        for f in range(4):
            for l in range(3):
                assert means[f][l] == pytest.approx(
                    brute_level_means(values, f, l), rel=1e-12
                )

    def test_constant_response_fills_every_cell(self, clip_design):
        results = [RunResult(n, {"flat": (7.5,)}) for n in range(1, 10)]
        means = level_means(clip_design, results, "flat")
        assert all(cell == 7.5 for row in means for cell in row)

    def test_missing_runs_are_named(self, clip_design, clip_results):
        with pytest.raises(IncompleteResultsError, match=r"run\(s\): 3, 7"):
            level_means(
                clip_design,
                [r for r in clip_results if r.run_number not in (3, 7)],
                "cycle_time",
            )

    def test_unknown_run_number_rejected(self, clip_design, clip_results):
        extra = list(clip_results) + [RunResult(12, {"cycle_time": (1.0,)})]
        with pytest.raises(IncompleteResultsError, match="12"):
            level_means(clip_design, extra, "cycle_time")

    def test_level_never_exercised_is_named(self):
        lopsided = OrthogonalArray("lopsided", (3,), ((0,), (1,), (0,)))
        design = bind(lopsided, (Factor("x", "", (1.0, 2.0, 3.0)),))
        results = [RunResult(n, {"y": (float(n),)}) for n in (1, 2, 3)]
        message = "^level 3 of factor 'x' is never exercised$"
        with pytest.raises(IncompleteResultsError, match=message):
            level_means(design, results, "y")

    def test_replicates_merge_into_run_means(self, clip_design):
        single = [RunResult(n, {"y": (float(n),)}) for n in range(1, 10)]
        doubled = [RunResult(n, {"y": (float(n) - 1, float(n) + 1)}) for n in range(1, 10)]
        assert level_means(clip_design, single, "y") == level_means(clip_design, doubled, "y")

    def test_run_split_across_result_objects_keeps_both_responses(self, clip_design):
        split = []
        for n in range(1, 10):
            split.append(RunResult(n, {"a": (float(n),)}))
            split.append(RunResult(n, {"b": (float(2 * n),)}))
        combined = [RunResult(n, {"a": (float(n),), "b": (float(2 * n),)}) for n in range(1, 10)]
        assert level_means(clip_design, split, "a") == level_means(clip_design, combined, "a")
        assert level_means(clip_design, split, "b") == level_means(clip_design, combined, "b")


class TestSplitReplicates:
    @given(data=st.data())
    def test_split_input_reproduces_the_frozen_report(
        self, clip_design, clip_results, clip_config, fixtures_dir, data
    ):
        split = data.draw(split_and_shuffled(clip_results))
        report = analyze(clip_design, split, clip_config.responses)
        expected = (fixtures_dir / "expected_report.json").read_text(encoding="utf-8")
        assert report_to_json(report) == expected
        grouped = naive_grouping(clip_design, split)
        for analysis in report.responses:
            assert list(analysis.run_means) == naive_means(grouped, analysis.spec.name)


class TestGroupingProperty:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_analysis_groups_as_a_naive_scan_does(self, clip_design, clip_config, data):
        names = [spec.name for spec in clip_config.responses]
        results = data.draw(scattered_results(clip_design, names))
        grouped = naive_grouping(clip_design, results)
        merged = [RunResult(run.number, values) for run, values in zip(clip_design.runs, grouped)]
        report = analyze(clip_design, results, clip_config.responses)
        assert report_to_json(report) == report_to_json(
            analyze(clip_design, merged, clip_config.responses)
        )
        for name in names:
            assert list(report.response(name).run_means) == naive_means(grouped, name)
        message = insert_strays(data, results, names[0])
        with pytest.raises(IncompleteResultsError) as caught:
            analyze(clip_design, results, clip_config.responses)
        assert str(caught.value) == message


class TestRanking:
    def test_cycle_time_ranks(self, clip_report):
        assert clip_report.response("cycle_time").ranks == (1, 2, 4, 3)

    def test_shrinkage_ranks(self, clip_report):
        assert clip_report.response("shrinkage").ranks == (1, 2, 3, 4)

    def test_cycle_time_deltas(self, clip_report):
        deltas = clip_report.response("cycle_time").deltas
        oracle = [
            max(brute_level_means(CYCLE, f, l) for l in range(3))
            - min(brute_level_means(CYCLE, f, l) for l in range(3))
            for f in range(4)
        ]
        assert deltas == pytest.approx(oracle, rel=1e-12)
        assert [round(d, 2) for d in deltas] == [28.04, 3.17, 0.97, 1.01]

    def test_rank_ties_break_toward_earlier_column(self):
        deltas, ranks = rank_factors([(0.0, 2.0), (1.0, 3.0), (0.0, 1.0)])
        assert deltas == (2.0, 2.0, 1.0)
        assert ranks == (1, 2, 3)


class TestOptimalLevels:
    def test_cycle_time_optimum(self, clip_report):
        assert clip_report.optimal_settings("cycle_time") == {
            "mould_temperature": 85,
            "melt_temperature": 215,
            "injection_pressure": 53,
            "holding_time": 3.5,
        }

    def test_shrinkage_optimum(self, clip_report):
        assert clip_report.optimal_settings("shrinkage") == {
            "mould_temperature": 85,
            "melt_temperature": 215,
            "injection_pressure": 47,
            "holding_time": 4.5,
        }

    def test_larger_the_better_takes_argmax(self):
        choices, ties = optimal_levels([(1.0, 3.0, 2.0)], Objective.LARGER_IS_BETTER)
        assert choices == (1,) and ties == ()

    def test_constant_response_ties_at_lowest_level(self):
        matrix = [(5.0, 5.0, 5.0), (5.0, 5.0, 5.0)]
        choices, ties = optimal_levels(matrix, Objective.SMALLER_IS_BETTER)
        assert choices == (0, 0)
        assert ties == (0, 1)

    def test_nominal_needs_a_target(self):
        with pytest.raises(InvalidLevelError, match="^nominal-the-best optimal levels need a target$"):
            optimal_levels([[1.0, 2.0]], Objective.NOMINAL_IS_BEST)


class TestPredict:
    def test_cycle_time_optimum_value(self, clip_report):
        prediction = predict_optimum(clip_report, "cycle_time")
        assert abs(prediction.predicted - 21.2575) <= 0.001

    def test_shrinkage_optimum_value(self, clip_report):
        prediction = predict_optimum(clip_report, "shrinkage")
        grand = sum(SHRINK) / 9
        oracle = grand + sum(
            brute_level_means(SHRINK, f, l) - grand for f, l in enumerate((2, 0, 0, 1))
        )
        assert prediction.predicted == pytest.approx(oracle, rel=1e-12)
        assert abs(prediction.predicted - 1.83) <= 0.005

    def test_override_at_run1_levels(self, clip_report):
        prediction = predict_optimum(clip_report, "cycle_time", levels=(0, 0, 0, 0))
        grand = sum(CYCLE) / 9
        oracle = grand + sum(brute_level_means(CYCLE, f, 0) - grand for f in range(4))
        assert prediction.predicted == pytest.approx(oracle, rel=1e-12)
        assert prediction.settings == {
            "mould_temperature": 75,
            "melt_temperature": 215,
            "injection_pressure": 47,
            "holding_time": 3.5,
        }

    def test_single_factor_prediction_is_the_level_mean(self):
        array = OrthogonalArray("pair", (2,), ((0,), (1,)))
        design = bind(array, (Factor("x", "", (1.0, 2.0)),))
        results = [RunResult(1, {"y": (10.0,)}), RunResult(2, {"y": (20.0,)})]
        report = analyze(design, results, (ResponseSpec("y", "", Objective.SMALLER_IS_BETTER),))
        assert predict_optimum(report, "y", levels=(1,)).predicted == pytest.approx(20.0)

    def test_mean_prediction_over_all_runs_is_grand_mean(self, clip_report):
        analysis = clip_report.response("cycle_time")
        predictions = [
            predict_optimum(clip_report, "cycle_time", levels=row).predicted
            for row in clip_report.design.array.cells
        ]
        assert fmean(predictions) == pytest.approx(analysis.grand_mean, rel=1e-9)

    def test_invalid_level_index(self, clip_report):
        with pytest.raises(InvalidLevelError, match="out of range"):
            predict_optimum(clip_report, "cycle_time", levels=(0, 0, 0, 5))

    def test_wrong_level_count(self, clip_report):
        with pytest.raises(InvalidLevelError, match="expected 4"):
            predict_optimum(clip_report, "cycle_time", levels=(0, 0))

    def test_unknown_response(self, clip_report):
        message = r"^no response named 'warpage'; available: cycle_time, shrinkage$"
        with pytest.raises(UnknownResponseError, match=message):
            predict_optimum(clip_report, "warpage")

    def test_repeated_response_name_is_refused(self, clip_design, clip_results):
        # report.response(name) finds the first of two same-named responses, so
        # the second one's prediction would be made at the first one's optimum.
        specs = [
            ResponseSpec("cycle_time", "s", Objective.SMALLER_IS_BETTER),
            ResponseSpec("shrinkage", "%", Objective.SMALLER_IS_BETTER),
            ResponseSpec("cycle_time", "s", Objective.LARGER_IS_BETTER),
        ]
        with pytest.raises(ConfigError, match=r"^duplicate response name\(s\): cycle_time$"):
            analyze(clip_design, clip_results, specs)


class TestValidate:
    def test_cycle_time_confirmation(self, clip_report):
        prediction = predict_optimum(clip_report, "cycle_time")
        confirmed = validate(prediction, 22.92)
        assert confirmed.error_percent == pytest.approx(
            abs(22.92 - prediction.predicted) / 22.92 * 100, rel=1e-12
        )
        assert confirmed.error_percent == pytest.approx(7.25, abs=0.05)

    def test_shrinkage_confirmation_of_rounded_prediction(self):
        assert error_percent(1.83, 1.98) == pytest.approx(7.58, abs=0.05)

    def test_exact_confirmation_gives_zero(self):
        assert error_percent(21.2575, 21.2575) == 0.0

    def test_non_positive_confirmation_rejected(self):
        with pytest.raises(ConfirmationError, match="positive"):
            error_percent(1.0, 0.0)
        with pytest.raises(ConfirmationError):
            error_percent(1.0, -2.0)

    def test_validate_fills_prediction_fields(self):
        prediction = Prediction("y", "s", (0,), {"x": 1.0}, predicted=10.0)
        confirmed = validate(prediction, 12.5)
        assert confirmed.confirmation == 12.5
        assert confirmed.error_percent == pytest.approx(20.0)

    def test_integer_confirmation_is_held_as_a_float(self):
        confirmed = validate(Prediction("y", "s", (0,), {"x": 1.0}, predicted=10.0), 20)
        assert type(confirmed.confirmation) is float
        assert '"confirmation": 20.0,' in prediction_to_json(confirmed)

    @pytest.mark.parametrize(
        "confirmation, reason",
        [
            ("x", "could not convert string to float: 'x'"),
            (None, "float() argument must be a string or a real number, not 'NoneType'"),
            (10**400, "int too large to convert to float"),
        ],
        ids=["text", "none", "int-beyond-double"],
    )
    def test_confirmation_float_cannot_read_is_refused(self, confirmation, reason):
        prediction = Prediction("y", "s", (0,), {"x": 1.0}, predicted=10.0)
        confirms = (lambda: validate(prediction, confirmation), lambda: error_percent(10.0, confirmation))
        for confirm in confirms:
            with pytest.raises(ConfirmationError) as caught:
                confirm()
            assert str(caught.value) == f"confirmation value must be a positive number: {reason}"

    @pytest.mark.parametrize("derived", [{"error_percent": math.nan}, {"confirmation": "x"}])
    def test_prediction_document_fields_that_validate_derives_are_not_read(
        self, clip_report, derived
    ):
        prediction = predict_optimum(clip_report, "cycle_time")
        document = {**json.loads(prediction_to_json(validate(prediction, 22.92))), **derived}
        read = prediction_from_json_dict(document)
        assert prediction_to_json(read) == prediction_to_json(prediction)
        assert prediction_to_text(read) == prediction_to_text(prediction)
        assert read == prediction


class TestGrandMean:
    @pytest.mark.parametrize("response", ["cycle_time", "shrinkage"])
    def test_equals_mean_of_each_factors_level_means(self, clip_report, response):
        analysis = clip_report.response(response)
        for row in analysis.level_means:
            assert fmean(row) == pytest.approx(analysis.grand_mean, rel=1e-9)

    def test_matches_typed_oracle(self, clip_report):
        assert clip_report.response("cycle_time").grand_mean == pytest.approx(
            sum(CYCLE) / 9, rel=1e-12
        )


class TestAffineInvariance:
    @given(
        a=st.floats(min_value=0.1, max_value=1000.0),
        b=st.floats(min_value=-1000.0, max_value=1000.0),
    )
    def test_ranks_and_optima_survive_affine_transforms(self, clip_design, a, b):
        base = [RunResult(n + 1, {"y": (CYCLE[n],)}) for n in range(9)]
        shifted = [RunResult(n + 1, {"y": (a * CYCLE[n] + b,)}) for n in range(9)]
        lm0 = level_means(clip_design, base, "y")
        lm1 = level_means(clip_design, shifted, "y")
        deltas0, ranks0 = rank_factors(lm0)
        deltas1, ranks1 = rank_factors(lm1)
        assert ranks1 == ranks0
        for d0, d1 in zip(deltas0, deltas1):
            assert d1 == pytest.approx(a * d0, rel=1e-9, abs=1e-9)
        best0, _ = optimal_levels(lm0, Objective.SMALLER_IS_BETTER)
        best1, _ = optimal_levels(lm1, Objective.SMALLER_IS_BETTER)
        assert best1 == best0


class TestResultsCsv:
    def test_replicate_rows_accumulate(self):
        results = read_results_csv("run,y\n1,2.0\n1,4.0\n2,6.0\n")
        assert results[0].values["y"] == (2.0, 4.0)
        assert results[1].values["y"] == (6.0,)

    def test_run_number_forms_name_one_run_on_every_path(self):
        # 1,100 rows: the forms recur within the first batch of 1,024 lines and after it.
        forms = ["1", "01", "+1", " 1 "]
        rows = [f"{forms[i % 4].replace('1', str(1 + i % 3))},{i}" for i in range(1100)]
        expected = tuple(
            RunResult(run, {"a": tuple(float(i) for i in range(run - 1, 1100, 3))})
            for run in (1, 2, 3)
        )
        plain = "run,a\n" + "".join(row + "\n" for row in rows)
        # A comment line sends the batch that holds it through the line-by-line read.
        first_noted = plain.replace("run,a\n", "run,a\n# note\n")
        for text in (plain, plain + "# note\n", first_noted):
            assert read_results_csv(text) == expected
        # A bad run cell in either batch is named by its line, on either path.
        for i in (1002, 1062):
            for text, line in ((plain, i + 2), (plain + "# note\n", i + 2), (first_noted, i + 3)):
                with pytest.raises(ResultsFormatError) as caught:
                    read_results_csv(text.replace(f"\n+1,{i}\n", f"\n+1x,{i}\n"))
                assert str(caught.value) == f"row {line}, column 'run': not an integer: '+1x'"

    def test_non_numeric_cell_names_row_and_column(self):
        with pytest.raises(ResultsFormatError, match="row 3, column 'y'"):
            read_results_csv("run,y\n1,2.0\nrun2,oops\n".replace("run2", "2"))

    def test_missing_expected_response(self):
        with pytest.raises(ResultsFormatError, match="shrinkage"):
            read_results_csv("run,cycle_time\n1,2.0\n", expected_responses=["shrinkage"])

    def test_bad_run_number(self):
        with pytest.raises(ResultsFormatError, match="column 'run'"):
            read_results_csv("run,y\nfirst,2.0\n")

    def test_empty_table(self):
        with pytest.raises(ResultsFormatError, match="empty"):
            read_results_csv("")

    def test_repeated_column_is_rejected(self):
        with pytest.raises(ResultsFormatError, match=r"repeats column\(s\): y$"):
            read_results_csv("run,y,z,y\n1,1.0,2.0,100.0\n")
        with pytest.raises(ResultsFormatError, match=r"repeats column\(s\): x, y, z$"):
            read_results_csv("run,z,y,x,z,y,x\n1,1,2,3,4,5,6\n")

    def test_rows_are_numbered_by_file_line(self):
        text = "run,cycle_time,shrinkage\n# note\n\n1,49.4,2.2\n2,oops,2.1\n"
        with pytest.raises(ResultsFormatError, match=r"^row 5, column 'cycle_time'"):
            read_results_csv(text)
        with pytest.raises(ResultsFormatError, match=r"^row 3: expected 2 cells, got 3$"):
            read_results_csv("run,y\n\n1,2.0,3.0\n")

    def test_rows_of_other_widths_are_refused_though_their_cells_add_up(self):
        # Six integer cells would split into two rows of three: runs 1 and 4.
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a,b\n1,2\n3,4,5,6\n")
        assert str(caught.value) == "row 2: expected 3 cells, got 2"

    def test_earlier_row_fault_is_named_before_a_later_width_error(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a,b\n1,2.0,3.0\n2,oops,3.0\n3,1.0\n")
        assert str(caught.value) == "row 3, column 'a': not a number: 'oops'"

    def test_earlier_non_finite_cell_is_named_before_a_non_numeric_one(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a,b\n1,2.0,3.0\n2,nan,abc\n")
        assert str(caught.value) == "row 3, column 'a': not a finite number: 'nan'"

    # Each line is one row: a quoted cell that does not close on its line is an
    # error named by the line it opens on, whatever the following lines hold.
    _SPANNING = "row 2: a quoted cell may not span lines"

    def test_quoted_cell_keeps_its_line_break(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv('run,a,b\n1,"2\n3",4\n')
        assert str(caught.value) == self._SPANNING

    @pytest.mark.parametrize("cell", ["2\n#x\n", "x\n  \n"])
    def test_line_inside_a_quoted_cell_is_part_of_the_cell(self, cell):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(f'run,a,b\n1,"{cell}",4\n')
        assert str(caught.value) == self._SPANNING

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_line_inside_a_quoted_cell_stays_in_the_cell(self, newline):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(f'run,a,b{newline}1,"x{newline}{newline}y",4{newline}')
        assert str(caught.value) == self._SPANNING

    @pytest.mark.parametrize("text", ['run,a\n1,"2\n"\n', 'run,a\n1,"\n2"\n'])
    def test_number_split_by_a_quoted_line_break_is_refused(self, text):
        # float() would strip the break at either end of the cell and read 2.0.
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(text)
        assert str(caught.value) == self._SPANNING

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028", "\r"])
    def test_every_line_break_ends_a_quoted_cell_left_open(self, separator):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(f'# "note\nrun,a\n1,2\n\n2,"3{separator}",4\n')
        assert str(caught.value) == "row 5: a quoted cell may not span lines"

    def test_quoted_header_cell_reads_as_csv_reads_it(self):
        results = read_results_csv('run,"a"b,"c,d"\n1,2,3\n')
        assert results == (RunResult(1, {"ab": (2.0,), "c,d": (3.0,)}),)
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv('\n# x\nrun,"a\nb"\n1,2\n')
        assert str(caught.value) == "row 3: a quoted cell may not span lines"

    def test_closed_quoted_cells_read_as_their_text(self):
        results = read_results_csv('run,a,b\n"1","2.5",3\n1,4,"5"\n')
        assert results == (RunResult(1, {"a": (2.5, 4.0), "b": (3.0, 5.0)}),)

    def test_whitespace_line_is_skipped_and_a_quoted_blank_cell_is_not(self):
        assert read_results_csv("run,a\n1,2\n  \n2,3\n") == (
            RunResult(1, {"a": (2.0,)}),
            RunResult(2, {"a": (3.0,)}),
        )
        with pytest.raises(ResultsFormatError, match=r"^row 3: expected 2 cells, got 1$"):
            read_results_csv('run,a\n1,2\n"  "\n')
        message = r"^row 3, column 'run': not an integer: '  '$"
        with pytest.raises(ResultsFormatError, match=message):
            read_results_csv('run,a\n1,2\n"  ",3\n')

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_line_ending_numbers_rows_alike(self, newline):
        text = newline.join(["run,a,b", "1,2,3", "", "  ", "2,x,3", ""])
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(text)
        assert str(caught.value) == "row 5, column 'a': not a number: 'x'"

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_form_feed_and_line_separator_end_a_row(self, separator):
        results = read_results_csv(f"run,a\n1,2{separator}1,4\n")
        assert results == (RunResult(1, {"a": (2.0, 4.0)}),)
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(f"run,a,b\n1,2,3{separator}2,x,3\n")
        assert str(caught.value) == "row 3, column 'a': not a number: 'x'"

    def test_whitespace_lines_and_blank_lines_before_the_header_are_skipped(self):
        text = "\n \t\nrun,a,b\n1,2,3\n   \n\n1,4,5\n"
        assert read_results_csv(text) == (RunResult(1, {"a": (2.0, 4.0), "b": (3.0, 5.0)}),)
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(text + " \n2,x,1\n")
        assert str(caught.value) == "row 9, column 'a': not a number: 'x'"
        # Comment lines too, and enough of them to fill several slices of the text.
        lead = "# a note, with commas\n \t\n\n" * 20000
        assert read_results_csv(lead + text) == read_results_csv(text)
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(lead + text + "#x\n2,x,1\n")
        assert str(caught.value) == "row 60009, column 'a': not a number: 'x'"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_a_long_table_reads_alike_on_every_path(self, newline):
        # 3,000 rows span several batches of rows and several chunks of decoded text.
        rows = [f"{1 + i % 9},{i}.25,{i % 7}" for i in range(3000)]
        plain = newline.join(["run,a,b", *rows]) + newline
        spaced = plain.replace(newline + "2,1000.25,", newline + "  " + newline + "2,1000.25,")
        results = read_results_csv(plain)
        assert [len(result.values["a"]) for result in results] == [334] * 3 + [333] * 6
        assert read_results_csv(spaced) == read_results_csv(plain + "# note" + newline) == results
        for text, line in ((plain, 2804), (plain + "# note" + newline, 2804), (spaced, 2805)):
            with pytest.raises(ResultsFormatError) as caught:
                read_results_csv(text.replace(newline + "4,2802.25,", newline + "4,x,"))
            assert str(caught.value) == f"row {line}, column 'a': not a number: 'x'"

    @pytest.mark.parametrize("split", [False, True])
    def test_read_results_equal_constructed_ones(self, fixtures_dir, split):
        text = (fixtures_dir / "clip_moulding_results.csv").read_text(encoding="utf-8")
        if split:  # every run a second time, with other values, in reverse order
            header, *rows = text.splitlines()
            text = "\n".join([header, *rows, *(row + "5" for row in reversed(rows))])
        results = read_results_csv(text)
        assert len(results) == 9
        for result in results:
            built = RunResult(result.run_number, dict(result.values))
            assert result == built and repr(result) == repr(built)
            assert all(len(ys) == 1 + split for ys in result.values.values())
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.run_number = 0

    def test_header_without_response_columns(self):
        with pytest.raises(ResultsFormatError, match="^results table has no response columns$"):
            read_results_csv("run\n1\n")

    def test_cell_beyond_the_csv_field_limit(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a\n1," + "1" * 131073 + "\n")
        assert str(caught.value) == "row 2: field larger than field limit (131072)"
        # A cell of zeros is a finite number, so only the limit refuses it.
        for cell in ["0" * 131073, '"' + "1" * 131073 + '"']:
            with pytest.raises(ResultsFormatError) as caught:
                read_results_csv(f"run,a\n1,2\n{cell},3\n")
            assert str(caught.value) == "row 3: field larger than field limit (131072)"
        cell = "0" * 131072
        assert read_results_csv(f"run,a\n1,{cell}\n") == (RunResult(1, {"a": (0.0,)}),)

    def test_a_long_line_of_short_cells_reads(self):
        header = ",".join(["run", *(f"r{j}" for j in range(30000))])
        row = ",".join(["1", *("2.25" for _ in range(30000))])
        assert len(row) > 131072
        (result,) = read_results_csv(f"{header}\n{row}\n")
        assert len(result.values) == 30000 and result.values["r29999"] == (2.25,)


_RESULT_CELLS = st.sampled_from(["x", "", "  ", "nan", "-inf", "1e999", " 2.5 ", '"3.5"', "4,5"])
_RESULT_LINES = st.sampled_from(["", "   ", "\t", "1,49.4161,2.2", "10,1,1", "run", "2,3"])


@st.composite
def _results_text(draw):
    """The fixture results with cells replaced and lines inserted, in one line ending."""
    text = (FIXTURES / "clip_moulding_results.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = draw(_RESULT_CELLS)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_RESULT_LINES))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _read_or_error(text: str):
    try:
        return read_results_csv(text)
    except ResultsFormatError as exc:
        return str(exc)


class TestReadRoutesProperty:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=_results_text())
    def test_a_trailing_comment_or_whitespace_line_changes_nothing(self, text):
        # Either line sends the last batch of lines through the line-by-line read.
        expected = _read_or_error(text)
        assert _read_or_error(text + "\n# note\n") == expected
        assert _read_or_error(text + "\n \t\n") == expected


# Cells and lines a results text is edited with: quotes that close on their line and
# quotes that do not, bad numbers, a cell beyond csv's field limit, and lines to skip.
_EDIT_CELLS = st.sampled_from(
    ['"2.5"', '" 3 "', '"2.5', '2"5', '"2,5"', '""', '"  "', '"1"x', '"', "nan", "-inf",
     "1e999", "", "  ", " 2.5 ", "x", "0" * 131073]
)
_EDIT_LINES = st.sampled_from(["", "  ", "\t", "# note", ' # "x', "#,,", '"', '"3,4', "1,2,3"])
_LINE_BREAKS = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


@st.composite
def _edited_text(draw):
    """The fixture results, its rows maybe repeated past one batch of lines, with cells
    replaced, quotes and lines inserted, and any line break between the lines."""
    text = (FIXTURES / "clip_moulding_results.csv").read_text(encoding="utf-8")
    header, *rows = text.splitlines()
    lines = [header, *rows * draw(st.sampled_from([1, 2, 130]))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_EDIT_CELLS)
        lines[i] = ",".join(cells)
    for _ in range(draw(st.integers(0, 1))):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + '"' + lines[i][at:]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_EDIT_LINES))
    breaks = [draw(_LINE_BREAKS)] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        breaks[draw(st.integers(0, len(lines) - 1))] = draw(_LINE_BREAKS)
    return "".join(line + end for line, end in zip(lines, breaks))


def _naive_read(text: str):
    """A results table read line by line with ``csv``: each run's values by response,
    or the number of the first line at fault (``None`` for a fault of the header)."""
    header = None
    runs: dict = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            (cells,) = csv.reader([line + "\n"])
        except csv.Error:
            return number
        if any("\n" in cell for cell in cells):  # a quoted cell took the line's end
            return number
        if header is None:
            header = [cell.strip() for cell in cells]
            if header[0] != "run" or len(header) < 2 or len(set(header)) < len(header):
                return None
            continue
        if len(cells) != len(header):
            return number
        try:
            run = int(cells[0])
            values = [float(cell) for cell in cells[1:]]
        except ValueError:
            return number
        if not all(map(math.isfinite, values)):
            return number
        by_name = runs.setdefault(run, {})
        for name, value in zip(header[1:], values):
            by_name[name] = by_name.get(name, ()) + (value,)
    return None if header is None else runs


def _read_or_line(text: str):
    try:
        results = read_results_csv(text)
    except ResultsFormatError as exc:
        row = re.match(r"row (\d+)", str(exc))
        return int(row.group(1)) if row else None
    return {result.run_number: result.values for result in results}


@st.composite
def _integer_table(draw):
    """A table of integer cells whose rows may hold more or fewer cells than its header.

    A float cell shifted into the run column fails ``int()``, so only integer
    cells show a reader that splits the cells of rows of other widths evenly.
    """
    width = draw(st.integers(2, 4))
    cells = st.integers(0, 99).map(str)
    row = st.one_of(st.just(width), st.integers(1, width + 2)).flatmap(
        lambda n: st.lists(cells, min_size=n, max_size=n)
    )
    lines = [["run", *"abc"[: width - 1]], *draw(st.lists(row, min_size=1, max_size=8))]
    return "".join(",".join(line) + "\n" for line in lines)


class TestReaderDifferentialProperty:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=_edited_text())
    def test_reader_agrees_with_a_naive_line_by_line_csv_read(self, text):
        assert _read_or_line(text) == _naive_read(text)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=_integer_table())
    def test_integer_rows_of_any_width_read_as_the_naive_read_does(self, text):
        assert _read_or_line(text) == _naive_read(text)


class TestInputs:
    def test_run_result_needs_replicates(self):
        message = "^run 3: response 'y' has no replicate values$"
        with pytest.raises(ResultsFormatError, match=message):
            RunResult(3, {"y": ()})
        # Responses are checked in order, each before the next is converted.
        with pytest.raises(ResultsFormatError, match="^run 1: response 'a' has no replicate values$"):
            RunResult(1, {"a": (), "b": ("x",)})

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"y": "12"}, "response 'y' needs a sequence of numbers: got str"),
            (
                {"y": ("x",)},
                "response 'y' needs a sequence of numbers: could not convert string to float: 'x'",
            ),
            ({"y": 5.0}, "response 'y' needs a sequence of numbers: 'float' object is not iterable"),
            (
                {"y": (10**400,)},
                "response 'y' needs a sequence of numbers: int too large to convert to float",
            ),
            ([("y", (1.0,))], "expected a mapping of response name to replicate values, got list"),
        ],
        ids=["str", "text-item", "scalar", "int-beyond-double", "pairs"],
    )
    def test_run_result_refuses_values_float_cannot_read(self, values, message):
        with pytest.raises(ResultsFormatError) as caught:
            RunResult(4, values)
        assert str(caught.value) == f"run 4: {message}"

    @pytest.mark.parametrize(
        "number, kind", [("1", "str"), (1.0, "float"), (None, "NoneType"), (True, "bool")]
    )
    def test_run_number_must_be_an_integer(self, number, kind):
        # 1.0 and True are not counted as run 1, and "1" never reaches a sort among int run numbers.
        with pytest.raises(ResultsFormatError, match=f"^run number must be an integer, got {kind}$"):
            RunResult(number, {"y": (1.0,)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_result_rejects_non_finite_values(self, bad):
        message = f"^run 3: response 'y' has a non-finite value: {bad!r}$"
        # The first two values of the second input sum to inf, yet are finite.
        for values in [(1.0, bad), (1e308, 1e308, bad)]:
            with pytest.raises(ResultsFormatError, match=message):
                RunResult(3, {"y": values})

    def test_analyze_needs_a_spec(self, clip_design, clip_results):
        with pytest.raises(UnknownResponseError, match="^at least one response spec is required$"):
            analyze(clip_design, clip_results, [])


class TestSpecs:
    def test_nominal_needs_finite_target(self):
        with pytest.raises(ValueError, match="target"):
            ResponseSpec("y", "", Objective.NOMINAL_IS_BEST)

    def test_target_only_for_nominal(self):
        with pytest.raises(ValueError, match="target"):
            ResponseSpec("y", "", Objective.SMALLER_IS_BETTER, target=1.0)

    def test_spec_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ResponseSpec("", "", Objective.SMALLER_IS_BETTER)
        with pytest.raises(ConfigError, match="target"):
            ResponseSpec("y", "", Objective.NOMINAL_IS_BEST, target=math.inf)


class TestFloatingPointRange:
    """Finite inputs whose statistics leave the double range fail with the run and response named."""

    def test_snr_out_of_range_is_singular(self):
        with pytest.raises(SingularityError, match="out of the floating-point range"):
            snr([1e200])
        with pytest.raises(SingularityError, match="out of the floating-point range"):
            snr([1e200], Objective.LARGER_IS_BETTER)
        with pytest.raises(SingularityError, match="out of the floating-point range"):
            snr([1e-200], Objective.LARGER_IS_BETTER)
        with pytest.raises(SingularityError, match="out of the floating-point range"):
            snr([1e200], Objective.NOMINAL_IS_BEST, target=-1e200)

    @pytest.mark.parametrize(
        "values, objective",
        [
            ((1e200,), Objective.SMALLER_IS_BETTER),
            ((1e200,), Objective.LARGER_IS_BETTER),
            ((1e308, 1e308), Objective.SMALLER_IS_BETTER),
            ((1.7e308, 1.0), Objective.LARGER_IS_BETTER),
        ],
    )
    def test_analyze_names_run_and_response(self, values, objective):
        design = bind(get_array("L4"), tuple(Factor(f"f{j}", "", (0, 1)) for j in range(3)))
        results = [RunResult(n, {"y": (1.0,)}) for n in (1, 2, 4)] + [RunResult(3, {"y": values})]
        with pytest.raises(SingularityError, match=r"^run 3: response 'y': "):
            analyze(design, results, [ResponseSpec("y", "", objective)])

    def test_error_percent_out_of_range(self):
        with pytest.raises(ConfirmationError, match="floating-point range"):
            error_percent(1.0, 5e-324)
