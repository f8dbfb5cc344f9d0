"""Factor binding, run-sheet export, and the run sheet read back as a run table."""

from __future__ import annotations

import pytest

from taguchikit.arrays import get_array
from taguchikit.design import Factor, Run, RunResult, bind, export_run_sheet, read_results_csv
from taguchikit.errors import BindError, InvalidLevelError, ResultsFormatError

# As originally published the pressure column is in bar; the analysis
# fixture declares MPa because the recorded result tables use MPa.
BAR_FACTORS = (
    Factor("mould_temperature", "°C", (75, 80, 85)),
    Factor("melt_temperature", "°C", (215, 220, 230)),
    Factor("injection_pressure", "bar", (470, 530, 580)),
    Factor("holding_time", "s", (3.5, 4.5, 5.5)),
)


class TestBind:
    def test_run_sheet_row_4(self):
        design = bind(get_array("L9"), BAR_FACTORS)
        assert design.runs[3].settings == {
            "mould_temperature": 80,
            "melt_temperature": 215,
            "injection_pressure": 530,
            "holding_time": 5.5,
        }

    def test_run_sheet_row_9(self):
        design = bind(get_array("L9"), BAR_FACTORS)
        assert design.runs[8].settings == {
            "mould_temperature": 85,
            "melt_temperature": 230,
            "injection_pressure": 530,
            "holding_time": 3.5,
        }

    def test_identity_binding_on_l4(self):
        factors = tuple(Factor(f"f{j}", "", (0, 1)) for j in range(3))
        design = bind(get_array("L4"), factors)
        for run, row in zip(design.runs, get_array("L4").cells):
            assert tuple(run.settings[f.name] for f in factors) == row

    def test_mpa_fixture_matches_recorded_rows(self, clip_design):
        values = [
            tuple(run.settings[name] for name in clip_design.factor_names)
            for run in clip_design.runs
        ]
        assert values[0] == (75, 215, 47, 3.5)
        assert values[6] == (85, 215, 58, 4.5)

    def test_factor_count_mismatch(self):
        with pytest.raises(BindError, match="4 columns but 3 factors"):
            bind(get_array("L9"), BAR_FACTORS[:3])

    def test_level_cardinality_mismatch(self):
        factors = BAR_FACTORS[:3] + (Factor("holding_time", "s", (3.5, 5.5)),)
        with pytest.raises(BindError, match="holding_time"):
            bind(get_array("L9"), factors)

    def test_duplicate_factor_names(self):
        factors = BAR_FACTORS[:3] + (Factor("mould_temperature", "s", (3.5, 4.5, 5.5)),)
        with pytest.raises(BindError, match="duplicate"):
            bind(get_array("L9"), factors)
        # Names repeated out of order are each listed once, sorted.
        factors = [Factor(name, "", (1, 2)) for name in "cbacbad"]
        with pytest.raises(BindError, match=r"^duplicate factor names: a, b, c$"):
            bind(get_array("L8"), factors)

    def test_bind_is_deterministic(self):
        assert bind(get_array("L9"), BAR_FACTORS) == bind(get_array("L9"), BAR_FACTORS)

    @pytest.mark.parametrize("name", ["L4", "L8", "L9", "L16", "L27"])
    def test_run_sheet_inherits_balance(self, name):
        array = get_array(name)
        factors = tuple(
            Factor(f"f{j}", "", tuple(range(10, 10 + q)))
            for j, q in enumerate(array.levels_per_column)
        )
        design = bind(array, factors)
        for factor in factors:
            column = [run.settings[factor.name] for run in design.runs]
            for value in factor.levels:
                assert column.count(value) == array.runs // len(factor.levels)


class TestFactorValidation:
    def test_needs_a_name(self):
        with pytest.raises(BindError, match="^factor name must be non-empty$"):
            Factor("", "", (1.0, 2.0))

    def test_needs_two_levels(self):
        with pytest.raises(BindError, match=">= 2 levels"):
            Factor("x", "", (1.0,))

    def test_levels_strictly_increasing(self):
        with pytest.raises(BindError, match="strictly increasing"):
            Factor("x", "", (1.0, 1.0, 2.0))

    def test_levels_finite(self):
        with pytest.raises(BindError, match="non-finite"):
            Factor("x", "", (1.0, float("nan")))

    def test_level_index_exact_match(self):
        factor = Factor("x", "s", (3.5, 4.5, 5.5))
        assert factor.level_index(4.5) == 1
        message = r"^4 is not a level of 'x' \(levels: 3.5, 4.5, 5.5\)$"
        with pytest.raises(InvalidLevelError, match=message):
            factor.level_index(4.0)


class TestRunSheetCsv:
    def test_export_reproduces_published_rows(self):
        sheet = export_run_sheet(bind(get_array("L9"), BAR_FACTORS))
        lines = sheet.splitlines()
        assert lines[0] == (
            "run,mould_temperature(°C),melt_temperature(°C),"
            "injection_pressure(bar),holding_time(s)"
        )
        assert lines[1] == "1,75,215,470,3.5"
        assert lines[7] == "7,85,215,580,4.5"
        assert len(lines) == 10

    def test_values_keep_declared_text_form(self):
        sheet = export_run_sheet(bind(get_array("L9"), BAR_FACTORS))
        assert "3.5" in sheet and "75" in sheet
        assert "75.0" not in sheet  # integer-valued levels stay integral

    def test_round_trip(self):
        design = bind(get_array("L9"), BAR_FACTORS)
        assert _read_back(export_run_sheet(design)) == _by_label(design)

    def test_round_trip_skips_comment_lines(self):
        design = bind(get_array("L4"), tuple(Factor(f"f{j}", "", (0, 1)) for j in range(3)))
        annotated = "# array: L4 (auto-selected)\n" + export_run_sheet(design)
        assert _read_back(annotated) == _by_label(design)

    def test_rejects_missing_run_column(self):
        with pytest.raises(ResultsFormatError, match="'run' column"):
            read_results_csv("a,b\n1,2\n")

    def test_rejects_non_numeric_cell(self):
        with pytest.raises(ResultsFormatError, match=r"^row 2, column 'a': not a number: 'oops'$"):
            read_results_csv("run,a\n1,oops\n")

    # int() and float() take these too: digits of other scripts, and "_" between digits.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("run,a\n1,1_0\n1,\uff11\uff12\n", "row 2, column 'a': not a number: '1_0'"),
            ("run,a\n1,\uff11\uff12\n", "row 2, column 'a': not a number: '\uff11\uff12'"),
            ("run,a\n1_0,1\n", "row 2, column 'run': not an integer: '1_0'"),
            ("run,a\n\u0661,1\n", "row 2, column 'run': not an integer: '\u0661'"),
            ("run,a\n" + "1,1\n" * 1500 + "2,1_5\n", "row 1502, column 'a': not a number: '1_5'"),
        ],
        ids=["underscore", "fullwidth", "run-underscore", "run-arabic-indic", "deep-in-a-batch"],
    )
    def test_number_only_in_the_form_a_spreadsheet_writes(self, text, message):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_rejects_non_finite_setting(self, cell):
        message = rf"^row 3, column 'b \(s\)': not a finite number: '{cell}'$"
        with pytest.raises(ResultsFormatError, match=message):
            read_results_csv(f"run,a,b (s)\n1,2,3\n2,4,{cell}\n")

    def test_rows_are_numbered_by_file_line(self):
        with pytest.raises(ResultsFormatError, match=r"^row 4, column 'a': not a number: 'oops'$"):
            read_results_csv("run,a\n# note\n\n1,oops\n")

    def test_quoted_cell_keeps_its_line_break(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv('run,a,b\n1,"2\n3",4\n')
        assert str(caught.value) == "row 2: a quoted cell may not span lines"

    def test_comment_line_inside_a_quoted_cell_is_part_of_the_cell(self):
        with pytest.raises(ResultsFormatError) as caught:
            read_results_csv('run,a,b\n1,"2\n#x\n",4\n')
        assert str(caught.value) == "row 2: a quoted cell may not span lines"

    def test_quote_inside_an_unquoted_cell_opens_no_quoted_cell(self):
        assert read_results_csv('run,a"\n# note\n1,2\n') == (RunResult(1, {'a"': (2.0,)}),)


def _read_back(sheet: str) -> tuple[Run, ...]:
    """A run sheet read with the results-table reader: each run's settings by column label."""
    return tuple(
        Run(result.run_number, {label: value for label, (value,) in result.values.items()})
        for result in read_results_csv(sheet)
    )


def _by_label(design) -> tuple[Run, ...]:
    return tuple(
        Run(run.number, {f.label(): run.settings[f.name] for f in design.factors})
        for run in design.runs
    )
