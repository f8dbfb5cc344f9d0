"""Command-line workflows over the shipped case-study files."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taguchikit.cli import load_config, main
from taguchikit.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]

AUTO_CONFIG = """\
array: auto
factors:
  - {name: a, unit: "", levels: [1, 2, 3]}
  - {name: b, unit: "", levels: [1, 2, 3]}
  - {name: c, unit: "", levels: [1, 2, 3]}
  - {name: d, unit: "", levels: [1, 2, 3]}
responses:
  - {name: y, unit: "", objective: smaller-the-better}
"""


def single_error(capsys) -> str:
    """The one ``error:`` line a failed command printed; nothing may go to stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.fixture
def fixture_paths(fixtures_dir):
    return str(fixtures_dir / "clip_moulding.yaml"), str(fixtures_dir / "clip_moulding_results.csv")


class TestDesignCommand:
    def test_emits_nine_recorded_rows(self, fixture_paths, capsys):
        config, _ = fixture_paths
        assert main(["design", config]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[1] == "1,75,215,47,3.5"
        assert lines[4] == "4,80,215,53,5.5"
        assert lines[9] == "9,85,230,53,3.5"

    def test_auto_array_noted_in_header(self, tmp_path, capsys):
        config = tmp_path / "auto.yaml"
        config.write_text(AUTO_CONFIG, encoding="utf-8")
        assert main(["design", str(config)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# array: L9 (auto-selected for 4 factors x 3 levels)"

    def test_auto_flag_overrides_configured_array(self, fixture_paths, capsys):
        config, _ = fixture_paths
        assert main(["design", config, "--array", "auto"]) == 0
        assert "auto-selected" in capsys.readouterr().out.splitlines()[0]

    def test_capacity_error_exits_nonzero(self, tmp_path, capsys):
        config = tmp_path / "big.yaml"
        config.write_text(
            AUTO_CONFIG.replace("array: auto", "array: L9").replace(
                "responses:",
                "  - {name: e, unit: \"\", levels: [1, 2, 3]}\nresponses:",
            ),
            encoding="utf-8",
        )
        assert main(["design", str(config)]) == 2
        err = capsys.readouterr().err
        assert "4 columns but 5 factors" in err

    def test_out_file_written(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        target = tmp_path / "runsheet.csv"
        assert main(["design", config, "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8").splitlines()[1] == "1,75,215,47,3.5"
        assert capsys.readouterr().out == ""


class TestAnalyzeCommand:
    def test_json_report_is_deterministic_and_frozen(self, fixture_paths, fixtures_dir, capsys):
        config, results = fixture_paths
        assert main(["analyze", config, results, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", config, results, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        expected = (fixtures_dir / "expected_report.json").read_text(encoding="utf-8")
        assert first == expected

    def test_json_report_contents(self, fixture_paths, capsys):
        config, results = fixture_paths
        main(["analyze", config, results, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        cycle = next(r for r in report["responses"] if r["name"] == "cycle_time")
        assert [f["rank"] for f in cycle["factors"]] == [1, 2, 4, 3]
        assert cycle["optimal_settings"]["injection_pressure"] == 53.0

    def test_text_report_shows_ranks_and_snr(self, fixture_paths, capsys):
        config, results = fixture_paths
        assert main(["analyze", config, results]) == 0
        out = capsys.readouterr().out
        assert "-33.87" in out  # chopped, matching the recorded tables
        assert "grand mean: 35.3187" in out

    def test_plot_data_has_twelve_points_per_response(self, fixture_paths, tmp_path, capsys):
        config, results = fixture_paths
        target = tmp_path / "effects.csv"
        assert main(["analyze", config, results, "--plot-data", str(target)]) == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "response,factor,level,mean"
        assert len(lines) == 1 + 12 * 2

    def test_incomplete_results_fail_without_partial_output(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        broken = tmp_path / "partial.csv"
        broken.write_text("run,cycle_time,shrinkage\n1,49.4161,2.2\n", encoding="utf-8")
        target = tmp_path / "report.json"
        code = main(["analyze", config, str(broken), "--format", "json", "--out", str(target)])
        assert code == 2
        assert "missing" in capsys.readouterr().err
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_non_numeric_cell_reports_row_and_column(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        broken = tmp_path / "bad.csv"
        broken.write_text("run,cycle_time,shrinkage\n1,banana,2.2\n", encoding="utf-8")
        assert main(["analyze", config, str(broken)]) == 2
        assert "row 2, column 'cycle_time'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_is_rejected(self, fixture_paths, tmp_path, capsys, cell):
        config, results = fixture_paths
        text = Path(results).read_text(encoding="utf-8").replace("49.4161", cell)
        broken = tmp_path / "non_finite.csv"
        broken.write_text(text, encoding="utf-8")
        assert main(["analyze", config, str(broken), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: row 2, column 'cycle_time': not a finite number: {cell!r}\n"
        )

    def test_byte_order_mark_is_ignored(self, fixture_paths, fixtures_dir, tmp_path, capsys):
        config, results = fixture_paths
        exported = tmp_path / "excel.csv"
        exported.write_text("\ufeff" + Path(results).read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["analyze", config, str(exported), "--format", "json"]) == 0
        expected = (fixtures_dir / "expected_report.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


class TestPredictCommand:
    def test_default_levels_are_the_optimum(self, fixture_paths, capsys):
        config, results = fixture_paths
        assert main(["predict", config, results, "--response", "cycle_time"]) == 0
        prediction = json.loads(capsys.readouterr().out)
        assert abs(prediction["predicted"] - 21.2575) <= 0.001
        assert prediction["settings"]["mould_temperature"] == 85.0
        assert prediction["levels"] == [3, 1, 2, 1]

    def test_shrinkage_prediction(self, fixture_paths, capsys):
        config, results = fixture_paths
        assert main(["predict", config, results, "--response", "shrinkage"]) == 0
        prediction = json.loads(capsys.readouterr().out)
        assert abs(prediction["predicted"] - 1.83) <= 0.005

    def test_levels_override(self, fixture_paths, capsys):
        config, results = fixture_paths
        code = main(
            ["predict", config, results, "--response", "cycle_time", "--levels", "75,215,47,3.5"]
        )
        assert code == 0
        prediction = json.loads(capsys.readouterr().out)
        assert prediction["settings"]["mould_temperature"] == 75.0
        # Four 3-level factors saturate a 9-run array, so the additive model
        # interpolates the design points: run 1's levels give run 1's value.
        assert prediction["predicted"] == pytest.approx(49.4161, abs=1e-9)

    def test_unknown_response_fails(self, fixture_paths, capsys):
        config, results = fixture_paths
        assert main(["predict", config, results, "--response", "warpage"]) == 2
        assert "warpage" in capsys.readouterr().err

    def test_bad_level_value_fails(self, fixture_paths, capsys):
        config, results = fixture_paths
        code = main(
            ["predict", config, results, "--response", "cycle_time", "--levels", "75,215,47,4.0"]
        )
        assert code == 2
        assert "not a level" in capsys.readouterr().err

    def test_wrong_level_count_fails(self, fixture_paths, capsys):
        config, results = fixture_paths
        code = main(["predict", config, results, "--response", "cycle_time", "--levels", "75,215"])
        assert code == 2
        assert "4 comma-separated values" in capsys.readouterr().err


class TestValidateCommand:
    @pytest.fixture
    def prediction_file(self, fixture_paths, tmp_path):
        config, results = fixture_paths
        target = tmp_path / "prediction.json"
        assert (
            main(["predict", config, results, "--response", "cycle_time", "--out", str(target)])
            == 0
        )
        return target

    def test_text_report(self, prediction_file, capsys):
        assert main(["validate", str(prediction_file), "--confirmed", "22.92"]) == 0
        out = capsys.readouterr().out
        assert "predicted: 21.2575 s" in out
        assert "confirmed: 22.92 s" in out
        assert "error: 7.25 %" in out

    def test_json_report(self, prediction_file, capsys):
        code = main(["validate", str(prediction_file), "--confirmed", "22.92", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["confirmation"] == 22.92
        assert data["error_percent"] == pytest.approx(7.2535, abs=0.001)

    def test_non_positive_confirmation_fails(self, prediction_file, capsys):
        assert main(["validate", str(prediction_file), "--confirmed", "-1"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_identity_confirmation_is_zero_error(self, prediction_file, capsys):
        predicted = json.loads(prediction_file.read_text(encoding="utf-8"))["predicted"]
        assert main(["validate", str(prediction_file), "--confirmed", str(predicted)]) == 0
        assert "error: 0.00 %" in capsys.readouterr().out

    def test_rejects_non_prediction_file(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_prediction.json"
        bogus.write_text('{"schema_version": 1}', encoding="utf-8")
        assert main(["validate", str(bogus), "--confirmed", "1.0"]) == 2
        assert "not a prediction document" in capsys.readouterr().err


class TestConfigParsing:
    def test_yaml_syntax_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("array: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line"):
            load_config(bad)

    def test_missing_levels_reports_field_path(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n  - {name: a, unit: ''}\nresponses:\n"
            "  - {name: y, unit: '', objective: smaller-the-better}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=r"factors\[0\]\.levels"):
            load_config(bad)

    def test_duplicate_response_names_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n"
            "  - {name: a, unit: '', levels: [1, 2]}\n"
            "  - {name: b, unit: '', levels: [1, 2]}\n"
            "  - {name: c, unit: '', levels: [1, 2]}\n"
            "responses:\n"
            "  - {name: y, unit: '', objective: smaller-the-better}\n"
            "  - {name: y, unit: '', objective: larger-the-better}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="duplicate response"):
            load_config(bad)

    def test_unknown_objective_reports_field(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n"
            "  - {name: a, unit: '', levels: [1, 2]}\n"
            "  - {name: b, unit: '', levels: [1, 2]}\n"
            "  - {name: c, unit: '', levels: [1, 2]}\n"
            "responses:\n  - {name: y, unit: '', objective: tiny-the-better}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=r"responses\[0\]\.objective"):
            load_config(bad)

    def test_precision_override_applies_to_text_report(self, fixtures_dir, tmp_path, capsys):
        config_text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        config = tmp_path / "precise.yaml"
        config.write_text(config_text + "precision:\n  mean: 2\n", encoding="utf-8")
        results = str(fixtures_dir / "clip_moulding_results.csv")
        assert main(["analyze", str(config), results]) == 0
        assert "grand mean: 35.32" in capsys.readouterr().out

    def test_unknown_precision_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n"
            "  - {name: a, unit: '', levels: [1, 2]}\n"
            "  - {name: b, unit: '', levels: [1, 2]}\n"
            "  - {name: c, unit: '', levels: [1, 2]}\n"
            "responses:\n  - {name: y, unit: '', objective: smaller-the-better}\n"
            "precision:\n  wavelength: 3\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="wavelength"):
            load_config(bad)

    @pytest.mark.parametrize("decimals", [-2, 16, 100000])
    def test_precision_out_of_range_rejected(self, fixtures_dir, tmp_path, capsys, decimals):
        config_text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        config = tmp_path / "precise.yaml"
        config.write_text(config_text + f"precision:\n  mean: {decimals}\n", encoding="utf-8")
        results = str(fixtures_dir / "clip_moulding_results.csv")
        assert main(["analyze", str(config), results]) == 2
        assert single_error(capsys).endswith(
            f"precision.mean: expected 0 to 15 decimals, got {decimals}"
        )

    def test_level_beyond_float_range_reports_field_path(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n  - {name: a, levels: [1, 1" + "0" * 400 + "]}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=r"factors\[0\]: int too large"):
            load_config(bad)


class TestTotality:
    """Every failure is exit 2 with one ``error:`` line, no traceback and no --out file."""

    @pytest.mark.parametrize("which", ["config", "results", "prediction"])
    def test_non_utf8_input(self, fixture_paths, tmp_path, capsys, which):
        config, results = fixture_paths
        bad = tmp_path / "latin"
        bad.write_bytes(b"\xff\xfe\x00r\x00u\x00n")
        argv = {
            "config": ["analyze", str(bad), results],
            "results": ["analyze", config, str(bad)],
            "prediction": ["validate", str(bad), "--confirmed", "1"],
        }[which]
        target = tmp_path / "out"
        assert main(argv + ["--out", str(target)]) == 2
        assert single_error(capsys).startswith(f"error: cannot read {which} {bad}: ")
        assert not target.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_levels_override(self, fixture_paths, capsys, value):
        config, results = fixture_paths
        argv = ["predict", config, results, "--response", "cycle_time"]
        assert main(argv + ["--levels", f"{value},215,47,3.5"]) == 2
        assert single_error(capsys) == (
            f"error: {value} is not a level of 'mould_temperature' (levels: 75, 80, 85)"
        )

    def test_comment_lines_do_not_shift_row_numbers(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        broken = tmp_path / "commented.csv"
        broken.write_text(
            "run,cycle_time,shrinkage\n# note\n\n1,49.4,2.2\n2,oops,2.1\n", encoding="utf-8"
        )
        assert main(["analyze", config, str(broken)]) == 2
        assert single_error(capsys) == "error: row 5, column 'cycle_time': not a number: 'oops'"

    @pytest.mark.parametrize(
        "objective, rows",
        [
            ("smaller-the-better", ["1,1e200,2.2"]),
            ("larger-the-better", ["1,1e200,2.2"]),
            ("smaller-the-better", ["1,1e308,2.2", "1,1e308,2.2"]),
        ],
    )
    def test_overflowing_statistics(self, fixture_paths, tmp_path, capsys, objective, rows):
        config, results = fixture_paths
        custom = tmp_path / "config.yaml"
        custom.write_text(
            Path(config).read_text(encoding="utf-8").replace(
                "objective: smaller-the-better", f"objective: {objective}", 1
            ),
            encoding="utf-8",
        )
        lines = Path(results).read_text(encoding="utf-8").splitlines()
        table = tmp_path / "results.csv"
        table.write_text("\n".join([lines[0], *rows, *lines[2:]]) + "\n", encoding="utf-8")
        target = tmp_path / "report.json"
        code = main(["analyze", str(custom), str(table), "--format", "json", "--out", str(target)])
        assert code == 2
        assert single_error(capsys).startswith("error: run 1: response 'cycle_time': ")
        assert not target.exists()

    def test_huge_finite_values_render_as_text(self, fixture_paths, tmp_path, capsys):
        config, results = fixture_paths
        table = tmp_path / "results.csv"
        table.write_text(
            Path(results).read_text(encoding="utf-8").replace("49.4161", "1e24"), encoding="utf-8"
        )
        assert main(["analyze", config, str(table)]) == 0
        assert re.search(r"grand mean: 1\d{23}\.\d{4}\n", capsys.readouterr().out)

    @pytest.mark.parametrize(
        "edit",
        [
            {"settings": [1]},
            {"predicted": "1e999"},
            {"predicted": float("nan")},
            {"predicted": 10**400},
            {"levels": [3, 1, 2]},
            {"levels": [1e999, 1, 2, 1]},
        ],
    )
    def test_malformed_prediction_document(self, fixture_paths, tmp_path, capsys, edit):
        config, results = fixture_paths
        document = tmp_path / "prediction.json"
        predict = ["predict", config, results, "--response", "cycle_time"]
        assert main(predict + ["--out", str(document)]) == 0
        data = {**json.loads(document.read_text(encoding="utf-8")), **edit}
        document.write_text(json.dumps(data), encoding="utf-8")
        target = tmp_path / "validated.json"
        validate = ["validate", str(document), "--confirmed", "22.92", "--format", "json"]
        assert main(validate + ["--out", str(target)]) == 2
        assert "not a prediction document" in single_error(capsys)
        assert not target.exists()

    def test_deeply_nested_prediction(self, tmp_path, capsys):
        document = tmp_path / "prediction.json"
        document.write_text("[" * 100000, encoding="utf-8")
        assert main(["validate", str(document), "--confirmed", "22.92"]) == 2
        assert single_error(capsys).startswith(f"error: {document}: maximum recursion depth")

    def test_deeply_nested_config(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("a: " + "[" * 5000, encoding="utf-8")
        assert main(["design", str(config)]) == 2
        assert single_error(capsys).startswith(f"error: {config}: maximum recursion depth")

    def test_error_percent_beyond_float_range(self, fixture_paths, tmp_path, capsys):
        config, results = fixture_paths
        document = tmp_path / "prediction.json"
        predict = ["predict", config, results, "--response", "cycle_time"]
        assert main(predict + ["--out", str(document)]) == 0
        assert main(["validate", str(document), "--confirmed", "5e-324"]) == 2
        assert "floating-point range" in single_error(capsys)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e200", "1e308", "-1e308", "1e-320", "0", "nan", "-inf", "", "x", '"1"']),
    st.text(max_size=6),
)


@st.composite
def _results_bytes(draw):
    """Results-CSV bytes: the fixture table with cells, rows and lines edited, or raw bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    fixture = REPO / "fixtures" / "clip_moulding_results.csv"
    rows = [line.split(",") for line in fixture.read_text(encoding="utf-8").splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, 2))
        rows[row][column] = draw(_CELLS)
    text = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.integers(0, len(text)))
        text.insert(where, draw(st.sampled_from(["", "# note", "1,49.4161,2.2", "10,1,1", "run"])))
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16"]))
    return "\n".join(text).encode(encoding)


class TestTotalityProperty:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=_results_bytes())
    def test_analyze_is_total(self, data):
        config = str(REPO / "fixtures" / "clip_moulding.yaml")
        with tempfile.TemporaryDirectory() as scratch:
            results = Path(scratch) / "results.csv"
            results.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", config, str(results), "--format", "json"])
        if code == 0:
            assert err.getvalue() == ""
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert code == 2 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


class TestLayoutInvariance:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_and_column_order_leave_the_report_unchanged(self, data):
        config = str(REPO / "fixtures" / "clip_moulding.yaml")
        fixture = REPO / "fixtures" / "clip_moulding_results.csv"
        header, *rows = [line.split(",") for line in fixture.read_text(encoding="utf-8").splitlines()]
        columns = [0, *data.draw(st.permutations(range(1, len(header))))]
        table = [header, *data.draw(st.permutations(rows))]
        with tempfile.TemporaryDirectory() as scratch:
            results = Path(scratch) / "results.csv"
            results.write_text(
                "".join(",".join(row[c] for c in columns) + "\n" for row in table), encoding="utf-8"
            )
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["analyze", config, str(results), "--format", "json"]) == 0
        expected = (REPO / "fixtures" / "expected_report.json").read_text(encoding="utf-8")
        assert out.getvalue() == expected


def test_case_study_script_runs(tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    completed = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_case_study.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "21.2575" in completed.stdout and "7.25" in completed.stdout
