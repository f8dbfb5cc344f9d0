"""S/N ratios, level means, ranking, optimum prediction, validation."""

from __future__ import annotations

import math
from statistics import fmean

import pytest
from hypothesis import assume, given, settings, strategies as st

from taguchikit.analysis import (
    Objective,
    Prediction,
    ResponseSpec,
    RunResult,
    analyze,
    error_percent,
    optimal_levels,
    predict_optimum,
    rank_factors,
    read_results_csv,
    snr,
    validate,
)
from taguchikit.arrays import OrthogonalArray, get_array
from taguchikit.design import Factor, bind
from taguchikit.errors import (
    ConfigError,
    ConfirmationError,
    IncompleteResultsError,
    InvalidLevelError,
    ResultsFormatError,
    SingularityError,
    UnknownResponseError,
)
from taguchikit.evaluators import TableEvaluator
from taguchikit.formatting import fixed_value
from taguchikit.reporting import report_to_json

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
        assert abs(fixed_value(value, 2, truncate=True) - (-33.87)) <= 0.005

    def test_recorded_run1_shrinkage(self):
        value = snr([2.2])
        assert abs(fixed_value(value, 2, truncate=True) - (-6.84)) <= 0.005

    def test_recorded_run7_cycle_time(self):
        assert snr([22.925]) == pytest.approx(-27.2, abs=0.05)

    def test_unit_value_gives_zero(self):
        assert snr([1.0]) == 0.0

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
        with pytest.raises(SingularityError):
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


@st.composite
def split_and_shuffled(draw, recorded):
    """The recorded replicates spread over up to three results per run, in random order."""
    parts: dict[tuple[int, int], dict[str, list[float]]] = {}
    for result in recorded:
        for name, ys in result.values.items():
            for y in ys:
                part = draw(st.integers(0, 2))
                parts.setdefault((result.run_number, part), {}).setdefault(name, []).append(y)
    results = [RunResult(run, values) for (run, _), values in parts.items()]
    return draw(st.permutations(results))


class TestSplitReplicates:
    @given(data=st.data())
    def test_split_input_reproduces_the_frozen_report(
        self, clip_design, clip_results, clip_config, fixtures_dir, data
    ):
        split = data.draw(split_and_shuffled(clip_results))
        report = analyze(clip_design, split, clip_config.responses)
        expected = (fixtures_dir / "expected_report.json").read_text(encoding="utf-8")
        assert report_to_json(report) == expected
        table = TableEvaluator.from_results(clip_design, split)
        for analysis in report.responses:
            replayed = [table.evaluate(run.settings, analysis.spec.name) for run in clip_design.runs]
            assert replayed == list(analysis.run_means)


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
        with pytest.raises(UnknownResponseError, match="warpage"):
            predict_optimum(clip_report, "warpage")


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

    def test_rows_are_numbered_by_file_line(self):
        text = "run,cycle_time,shrinkage\n# note\n\n1,49.4,2.2\n2,oops,2.1\n"
        with pytest.raises(ResultsFormatError, match=r"^row 5, column 'cycle_time'"):
            read_results_csv(text)
        with pytest.raises(ResultsFormatError, match=r"^row 3: expected 2 cells, got 3$"):
            read_results_csv("run,y\n\n1,2.0,3.0\n")

    def test_earlier_row_fault_is_named_before_a_later_width_error(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a,b\n1,2.0,3.0\n2,oops,3.0\n3,1.0\n")
        assert str(caught.value) == "row 3, column 'a': not a number: 'oops'"

    def test_earlier_non_finite_cell_is_named_before_a_non_numeric_one(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv("run,a,b\n1,2.0,3.0\n2,nan,abc\n")
        assert str(caught.value) == "row 3, column 'a': not a finite number: 'nan'"


class TestInputs:
    def test_run_result_needs_replicates(self):
        message = "^run 3: response 'y' has no replicate values$"
        with pytest.raises(ResultsFormatError, match=message):
            RunResult(3, {"y": ()})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_result_rejects_non_finite_values(self, bad):
        message = f"^run 3: response 'y' has a non-finite value: {bad!r}$"
        with pytest.raises(ResultsFormatError, match=message):
            RunResult(3, {"y": (1.0, bad)})

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

    def test_objective_parsing(self):
        assert Objective.from_string("smaller-the-better") is Objective.SMALLER_IS_BETTER
        with pytest.raises(ValueError, match="unknown objective"):
            Objective.from_string("smallest")

    def test_spec_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="unknown objective"):
            Objective.from_string("smallest")
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
