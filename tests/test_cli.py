"""Command-line workflows over the shipped case-study files."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import re
import shlex
import shutil
import stat
import sys
import tempfile
import threading
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from taguchikit import Factor, Objective, OrthogonalArray, ResponseSpec, RunResult, analyze, bind
from taguchikit import get_array, predict_optimum, validate
from taguchikit.cli import _parse_config, load_config, main
from taguchikit.errors import ConfigError
from taguchikit.reporting import prediction_to_json, report_to_json, report_to_text

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


L4_STUDY = """\
array: L4
factors:
  - {name: a, unit: "", levels: [1, 2]}
  - {name: b, unit: "", levels: [10, 20]}
  - {name: c, unit: "", levels: [0.5, 1.5]}
responses:
  - {name: thickness, unit: mm, objective: nominal-the-best, target: 10}
  - {name: strength, unit: N, objective: larger-the-better}
"""


def single_error(capsys) -> str:
    """The one ``error:`` line a failed command printed; nothing may go to stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def single_os_error(completed, code: int) -> None:
    """A spawned command failed with exit 2 and one ``error:`` line naming ``code``."""
    assert completed.returncode == 2
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: [Errno {code}] "), completed.stderr


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

    def test_auto_cuts_l9_to_three_factors(self, tmp_path, capsys):
        config = tmp_path / "auto.yaml"
        text = AUTO_CONFIG.replace('  - {name: d, unit: "", levels: [1, 2, 3]}\n', "")
        config.write_text(text, encoding="utf-8")
        assert main(["design", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# array: L9 (auto-selected for 3 factors x 3 levels)"
        assert lines[1:3] == ["run,a,b,c", "1,1,1,1"] and lines[-1] == "9,3,3,2"
        assert len(lines) == 11
        results = tmp_path / "results.csv"
        rows = "".join(f"{n},{n}\n" for n in range(1, 10))
        results.write_text("run,y\n" + rows, encoding="utf-8")
        assert main(["analyze", str(config), str(results)]) == 0
        assert capsys.readouterr().out.startswith("Design: L9 (9 runs x 3 factors)\n")

    def test_auto_needs_one_level_count(self, tmp_path, capsys):
        config = tmp_path / "auto.yaml"
        text = AUTO_CONFIG.replace("levels: [1, 2, 3]}\nresponses", "levels: [1, 2]}\nresponses")
        config.write_text(text, encoding="utf-8")
        assert main(["design", str(config)]) == 2
        assert single_error(capsys) == (
            "error: auto array selection needs all factors at the same level count; got 2, 3"
        )

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

    def test_out_file_gets_the_mode_of_a_plain_write(self, fixture_paths, tmp_path):
        config, _ = fixture_paths
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_text("old\n", encoding="utf-8")
        existing.chmod(0o640)
        previous = os.umask(0o022)
        try:
            assert main(["design", config, "--out", str(fresh)]) == 0
            assert main(["design", config, "--out", str(existing)]) == 0
        finally:
            os.umask(previous)
        assert fresh.stat().st_mode & 0o777 == 0o644
        assert existing.stat().st_mode & 0o777 == 0o640
        assert existing.read_text(encoding="utf-8") == fresh.read_text(encoding="utf-8")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_out_naming_a_directory_fails_and_cleans_up(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        target = tmp_path / "taken"
        target.mkdir()
        assert main(["design", config, "--out", str(target)]) == 2
        assert str(target) in single_error(capsys)
        assert target.is_dir() and list(target.iterdir()) == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_out_takes_a_name_at_the_length_limit(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        target = tmp_path / ("r" * 251 + ".csv")  # 255 bytes
        with open(target, "w"):  # a plain write takes the name
            pass
        assert main(["design", config]) == 0
        sheet = capsys.readouterr().out
        assert main(["design", config, "--out", str(target)]) == 0
        assert target.read_bytes() == sheet.encode("utf-8")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_out_in_a_missing_directory_fails_as_a_plain_write(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        target = str(tmp_path / "missing" / "runsheet.csv")
        with pytest.raises(OSError) as plain:
            open(target, "w")
        assert main(["design", config, "--out", target]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert target in str(plain.value)

    def test_empty_array_override_is_an_unknown_array(self, fixture_paths, capsys):
        config, _ = fixture_paths
        assert main(["design", config, "--array", ""]) == 2
        assert single_error(capsys) == "error: unknown array ''; available: L4, L8, L9, L16, L27"

    def test_out_writes_through_a_symlink(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n", encoding="utf-8")
        real.chmod(0o640)
        link.symlink_to("real.csv")
        assert main(["design", config]) == 0
        sheet = capsys.readouterr().out
        assert main(["design", config, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert real.read_text(encoding="utf-8") == sheet
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_out_through_a_dangling_symlink_creates_its_target(self, fixture_paths, tmp_path):
        config, _ = fixture_paths
        link = tmp_path / "link.csv"
        link.symlink_to("new.csv")
        assert main(["design", config, "--out", str(link)]) == 0
        assert main(["design", config, "--out", str(tmp_path / "plain.csv")]) == 0
        assert link.is_symlink() and os.readlink(link) == "new.csv"
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        (tmp_path / "plain.csv").unlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv"]

    def test_out_symlink_loop_fails_as_a_plain_write(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        loop = tmp_path / "loop.csv"
        loop.symlink_to("loop.csv")
        with pytest.raises(OSError) as plain:
            open(loop, "w")
        assert plain.value.errno == errno.ELOOP
        assert main(["design", config, "--out", str(loop)]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert loop.is_symlink() and os.readlink(loop) == "loop.csv"
        assert list(tmp_path.iterdir()) == [loop]

    def test_out_into_a_fifo_feeds_its_reader(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        assert main(["design", config]) == 0
        sheet = capsys.readouterr().out
        fifo = tmp_path / "sheet.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["design", config, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [sheet.encode("utf-8")]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_out_to_dev_stdout_reaches_a_piped_stdout(self, fixture_paths, spawn):
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout on this system")
        argv = [sys.executable, "-m", "taguchikit", "design", fixture_paths[0]]
        sheet = spawn(argv).stdout
        completed = spawn(argv + ["--out", "/dev/stdout"])
        assert (completed.returncode, completed.stderr) == (0, "")
        assert completed.stdout == sheet

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_out_through_a_file_as_a_directory_fails_as_a_plain_write(
        self, fixture_paths, tmp_path, capsys, monkeypatch, existing
    ):
        config, _ = fixture_paths
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "x.csv").write_text("old\n", encoding="utf-8")
        with pytest.raises(OSError) as plain:
            open("x.csv/.", "w")
        assert main(["design", config, "--out", "x.csv/."]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert os.listdir(tmp_path) == (["x.csv"] if existing else [])
        if existing:
            assert (tmp_path / "x.csv").read_text(encoding="utf-8") == "old\n"

    def test_out_writes_every_hard_link(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        real, hard = tmp_path / "real.csv", tmp_path / "hard.csv"
        real.write_text("old\n", encoding="utf-8")
        hard.hardlink_to(real)
        assert main(["design", config]) == 0
        sheet = capsys.readouterr().out
        assert main(["design", config, "--out", str(hard)]) == 0
        assert real.read_text(encoding="utf-8") == hard.read_text(encoding="utf-8") == sheet
        assert os.path.samefile(real, hard)

    def test_out_to_dev_null_leaves_the_device(self, fixture_paths, capsys):
        if not os.path.exists(os.devnull):
            pytest.skip("no null device on this system")
        assert main(["design", fixture_paths[0], "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)


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

    def test_module_entry_point_prints_the_frozen_report(self, fixture_paths, fixtures_dir, spawn):
        argv = [sys.executable, "-m", "taguchikit", "analyze", *fixture_paths, "--format", "json"]
        completed = spawn(argv, text=False)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == (fixtures_dir / "expected_report.json").read_bytes()

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

    @pytest.mark.parametrize("option", ["--plot-data", "--out"])
    def test_empty_output_name_fails_as_a_plain_write(
        self, fixture_paths, tmp_path, capsys, monkeypatch, option
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as plain:
            open("", "w")
        assert main(["analyze", *fixture_paths, option, ""]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("option", ["--plot-data", "--out"])
    def test_output_name_ending_in_a_separator_fails_as_a_plain_write(
        self, fixture_paths, tmp_path, capsys, monkeypatch, option, existing
    ):
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "x.json").write_text("old\n", encoding="utf-8")
        with pytest.raises(OSError) as plain:
            open("x.json/", "w")
        assert plain.value.errno == errno.EISDIR
        assert main(["analyze", *fixture_paths, option, "x.json/"]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert os.listdir(tmp_path) == (["x.json"] if existing else [])
        if existing:
            assert (tmp_path / "x.json").read_text(encoding="utf-8") == "old\n"

    def test_plot_data_name_too_long_fails_before_stdout(self, fixture_paths, tmp_path, capsys):
        target = str(tmp_path / ("e" * 300))
        with pytest.raises(OSError) as plain:
            open(target, "w")
        assert main(["analyze", *fixture_paths, "--plot-data", target]) == 2
        assert single_error(capsys) == f"error: {plain.value}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("linked", [False, True, "hard"])
    def test_two_outputs_naming_one_file_fail(self, fixture_paths, tmp_path, capsys, linked):
        out, plot_data = tmp_path / "link.csv", tmp_path / "real.csv"
        if linked:
            plot_data.write_text("old\n", encoding="utf-8")
            if linked == "hard":
                out.hardlink_to(plot_data)
            else:
                out.symlink_to("real.csv")
        else:
            out = plot_data = tmp_path / "same.out"
        argv = ["analyze", *fixture_paths, "--out", str(out), "--plot-data", str(plot_data)]
        assert main(argv) == 2
        assert single_error(capsys) == f"error: two outputs name the same file: {out}"
        if linked:
            assert out.is_symlink() is (linked is True)
            for path in (plot_data, out):
                assert path.read_text(encoding="utf-8") == "old\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
        else:
            assert list(tmp_path.iterdir()) == []

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

    def test_quoted_cell_spanning_lines_is_one_error_line(self, fixture_paths, tmp_path, capsys):
        config, _ = fixture_paths
        broken = tmp_path / "spanning.csv"
        broken.write_text('run,cycle_time,shrinkage\n1,"49.4\n161",2.2\n', encoding="utf-8")
        assert main(["analyze", config, str(broken)]) == 2
        assert single_error(capsys) == "error: row 2: a quoted cell may not span lines"

    def test_comment_line_inside_a_quoted_cell_is_part_of_the_cell(
        self, fixture_paths, tmp_path, capsys
    ):
        config, results = fixture_paths
        text = Path(results).read_text(encoding="utf-8").replace("49.4161", '"49.4161\n# x\n"')
        broken = tmp_path / "commented.csv"
        broken.write_text(text, encoding="utf-8")
        assert main(["analyze", config, str(broken)]) == 2
        assert single_error(capsys) == "error: row 2: a quoted cell may not span lines"

    @pytest.mark.parametrize("cell", ['"49.4161\n"', '"\n49.4161"'])
    def test_number_split_by_a_quoted_line_break_is_refused(
        self, fixture_paths, tmp_path, capsys, cell
    ):
        config, results = fixture_paths
        text = Path(results).read_text(encoding="utf-8").replace("49.4161", cell)
        broken = tmp_path / "split.csv"
        broken.write_text(text, encoding="utf-8")
        assert main(["analyze", config, str(broken), "--format", "json"]) == 2
        assert single_error(capsys) == "error: row 2: a quoted cell may not span lines"

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

    def test_nominal_and_larger_the_better_study(self, tmp_path, capsys):
        config = tmp_path / "l4.yaml"
        config.write_text(L4_STUDY, encoding="utf-8")
        results = tmp_path / "results.csv"
        # Thickness level means: a 9 / 9 (a tie), b 8 / 10, c 9.5 / 8.5; the target is 10.
        results.write_text(
            "run,thickness,strength\n1,8.5,5\n2,9.5,6\n3,7.5,7\n4,10.5,9\n", encoding="utf-8"
        )
        assert main(["analyze", str(config), str(results), "--format", "json"]) == 0
        thickness, strength = json.loads(capsys.readouterr().out)["responses"]
        assert thickness["target"] == 10.0 and "target" not in strength
        assert thickness["optimal_settings"] == {"a": 1.0, "b": 20.0, "c": 0.5}
        assert [f["optimal_level"]["tie"] for f in thickness["factors"]] == [True, False, False]
        assert strength["optimal_settings"] == {"a": 2.0, "b": 20.0, "c": 0.5}
        assert main(["analyze", str(config), str(results)]) == 0
        text = capsys.readouterr().out
        assert "Response: thickness [mm] (nominal-the-best, target 10)\n" in text
        assert "Response: strength [N] (larger-the-better)\n" in text
        assert re.search(r"\n  a  +9\.0000 +9\.0000 +0\.0000 +\d  1 \(tie\)\n", text), text

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

    @pytest.mark.parametrize("levels", ["", " "])
    def test_blank_levels_fail(self, fixture_paths, capsys, levels):
        config, results = fixture_paths
        argv = ["predict", config, results, "--response", "cycle_time", "--levels", levels]
        assert main(argv) == 2
        assert single_error(capsys) == "error: --levels needs 4 comma-separated values, got 1"

    def test_non_number_level_fails(self, fixture_paths, capsys):
        config, results = fixture_paths
        argv = ["predict", config, results, "--response", "cycle_time", "--levels", "75,hot,47,3.5"]
        assert main(argv) == 2
        assert single_error(capsys) == "error: --levels: 'hot' is not a number"

    @pytest.mark.parametrize("typed", ["7_5", "７５"])
    def test_level_follows_the_results_number_rule(self, fixture_paths, capsys, typed):
        argv = ["predict", *fixture_paths, "--response", "cycle_time", "--levels", f"{typed},215,47,3.5"]
        assert main(argv) == 2
        assert single_error(capsys) == f"error: --levels: {typed!r} is not a number"

    def test_negative_first_level_reaches_the_level_lookup(self, fixture_paths, capsys):
        argv = ["predict", *fixture_paths, "--response", "cycle_time", "--levels=-75,215,47,3.5"]
        assert main(argv) == 2
        assert single_error(capsys) == (
            "error: -75 is not a level of 'mould_temperature' (levels: 75, 80, 85)"
        )


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

    @pytest.mark.parametrize("typed", ["２２.９２", "2_2.92", "abc"])
    def test_confirmed_follows_the_results_number_rule(self, prediction_file, capsys, typed):
        assert main(["validate", str(prediction_file), "--confirmed", typed]) == 2
        assert single_error(capsys) == f"error: --confirmed: {typed!r} is not a number"

    def test_confirmed_is_read_before_the_prediction(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["validate", missing, "--confirmed", "abc"]) == 2
        assert single_error(capsys) == "error: --confirmed: 'abc' is not a number"

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

    def test_loads_without_libyaml(self, fixtures_dir, clip_config, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(fixtures_dir / "clip_moulding.yaml") == clip_config

    def test_long_config_parses_as_a_short_one(self, fixtures_dir, tmp_path, capsys):
        text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        text = text.replace("array: L9", "array:\tL9")  # PyYAML refuses the tab, libyaml or not
        assert "\t" in text
        short, padded = tmp_path / "short.yaml", tmp_path / "padded.yaml"
        short.write_text(text, encoding="utf-8")
        padded.write_text(text + "# " + "x" * 5000 + "\n", encoding="utf-8")
        assert main(["design", str(short)]) == 2
        refused = single_error(capsys)
        assert main(["design", str(padded)]) == 2
        assert single_error(capsys) == refused.replace(str(short), str(padded))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text,
            lambda text: text.replace("array: L9", "array:\tL9"),
            lambda text: text.replace("# an L9", "# an\x85L9"),
            lambda text: text.replace("  - name: holding_time", "\t- name: holding_time"),
            lambda text: "a: " + "[" * 5000,
            lambda text: "array: [unclosed\n",
        ],
        ids=["fixture", "tab-after-array", "nel-in-comment", "tab-indent", "deep-flow", "unclosed"],
    )
    def test_outcome_does_not_depend_on_libyaml(self, fixtures_dir, tmp_path, monkeypatch, edit):
        text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        config = tmp_path / "config.yaml"
        config.write_text(edit(text), encoding="utf-8")

        def outcome():
            try:
                return load_config(config)
            except ConfigError as exc:
                return str(exc)

        with_libyaml = outcome()
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert outcome() == with_libyaml

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
        data = yaml.safe_load(AUTO_CONFIG)
        data["responses"] = [{"name": name, "objective": "smaller-the-better"} for name in "cbacba"]
        with pytest.raises(ConfigError) as caught:
            _parse_config(data, "config")
        assert str(caught.value) == "config: responses: duplicate response name(s): a, b, c"

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
        with pytest.raises(ConfigError) as caught:
            load_config(bad)
        assert str(caught.value) == (
            f"{bad}: responses[0].objective: unknown objective 'tiny-the-better'; "
            "expected one of: smaller-the-better, larger-the-better, nominal-the-best"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("objective: nominal-the-best", "nominal-the-best needs a finite target"),
            ("objective: smaller-the-better, target: 1", "target only applies to nominal-the-best"),
        ],
    )
    def test_response_spec_error_names_the_entry(self, tmp_path, fields, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n"
            "  - {name: a, unit: '', levels: [1, 2]}\n"
            "  - {name: b, unit: '', levels: [1, 2]}\n"
            "  - {name: c, unit: '', levels: [1, 2]}\n"
            f"responses:\n  - {{name: cycle_time, unit: s, {fields}}}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as caught:
            load_config(bad)
        assert str(caught.value) == f"{bad}: responses[0]: response 'cycle_time': {message}"

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
        with pytest.raises(ConfigError) as caught:
            load_config(bad)
        assert str(caught.value) == (
            f"{bad}: precision.wavelength: unknown key; "
            "expected one of: snr, mean, prediction, error_percent"
        )

    @pytest.mark.parametrize("decimals", [-2, 16, 100000, "'2'"])
    def test_precision_out_of_range_rejected(self, fixtures_dir, tmp_path, capsys, decimals):
        config_text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        config = tmp_path / "precise.yaml"
        config.write_text(config_text + f"precision:\n  mean: {decimals}\n", encoding="utf-8")
        results = str(fixtures_dir / "clip_moulding_results.csv")
        assert main(["analyze", str(config), results]) == 2
        assert single_error(capsys).endswith(
            f"precision.mean: expected 0 to 15 decimals, got {decimals}"
        )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "responses:",
                "precison:\n  mean: 2\nresponses:",
                "precison: unknown key; expected one of: array, factors, responses, precision",
            ),
            (
                "    unit: MPa\n",
                "    unit: MPa\n    step: 5\n",
                "factors[2].step: unknown key; expected one of: name, unit, levels",
            ),
            (
                "    objective: smaller-the-better\n",
                "    objective: smaller-the-better\n    traget: 30\n",
                "responses[0].traget: unknown key; expected one of: name, unit, objective, target",
            ),
            (
                "    objective: smaller-the-better\n",
                "    objective: nominal-the-best\n    target: true\n",
                "responses[0].target: expected a number",
            ),
            (
                "    objective: smaller-the-better\n",
                "    objective: nominal-the-best\n    target: 1" + "0" * 400 + "\n",
                "responses[0]: int too large to convert to float",
            ),
            (
                "levels: [75, 80, 85]",
                "levels: [true, 80, 85]",
                "factors[0].levels: expected a list of numbers",
            ),
            (
                "levels: [75, 80, 85]",
                'levels: ["75", 80, 85]',
                "factors[0].levels: expected a list of numbers",
            ),
        ],
        ids=[
            "top-level", "factor", "response", "boolean-target", "target-beyond-double",
            "boolean-level", "quoted-level",
        ],
    )
    def test_unknown_keys_and_boolean_target_rejected(
        self, fixtures_dir, tmp_path, capsys, old, new, message
    ):
        config_text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        assert old in config_text
        config = tmp_path / "config.yaml"
        config.write_text(config_text.replace(old, new, 1), encoding="utf-8")
        assert main(["design", str(config)]) == 2
        assert single_error(capsys) == f"error: {config}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("- array: L9\n", "top level must be a mapping"),
            (AUTO_CONFIG.replace("  - {name: y", "  - y\n  - {name: y"),
             "responses[0]: expected a mapping with name/unit/objective/target"),
            (AUTO_CONFIG + "precision: [2]\n",
             "precision: expected a mapping of quantity name to decimals"),
        ],
        ids=["top-level", "entry", "precision"],
    )
    def test_parts_that_must_be_mappings(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["design", str(config)]) == 2
        assert single_error(capsys) == f"error: {config}: {message}"

    def test_level_beyond_float_range_reports_field_path(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "array: L4\nfactors:\n  - {name: a, levels: [1, 1" + "0" * 400 + "]}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=r"factors\[0\]: int too large"):
            load_config(bad)


class TestInputPaths:
    """An input path goes to ``open()`` as typed, and an error names it as typed."""

    @pytest.mark.parametrize("which", ["config", "results", "prediction"])
    def test_name_ending_in_a_separator_is_not_a_directory(
        self, fixture_paths, fixtures_dir, capsys, which
    ):
        config, results = fixture_paths
        prediction = str(fixtures_dir / "expected_report.json")  # never parsed: open() fails first
        typed = {"config": config, "results": results, "prediction": prediction}[which] + "/"
        argv = {
            "config": ["analyze", typed, results],
            "results": ["analyze", config, typed],
            "prediction": ["validate", typed, "--confirmed", "1"],
        }[which]
        assert main(argv) == 2
        assert single_error(capsys) == (
            f"error: cannot read {which} {typed}: [Errno 20] Not a directory: {typed!r}"
        )

    def test_empty_config_name_fails_as_open_fails(self, capsys):
        assert main(["design", ""]) == 2
        assert single_error(capsys) == (
            "error: cannot read config : [Errno 2] No such file or directory: ''"
        )

    def test_missing_config_is_named_as_typed(self, tmp_path, capsys):
        typed = f"{tmp_path}/.//missing.yaml"
        assert main(["design", typed]) == 2
        assert single_error(capsys) == (
            f"error: cannot read config {typed}: [Errno 2] No such file or directory: {typed!r}"
        )

    def test_config_error_names_the_config_as_typed(self, tmp_path, capsys):
        (tmp_path / "list.yaml").write_text("- 1\n", encoding="utf-8")
        typed = f"{tmp_path}/./list.yaml"
        assert main(["design", typed]) == 2
        assert single_error(capsys) == f"error: {typed}: top level must be a mapping"

    def test_load_config_names_a_path_object_by_its_text(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        messages = []
        for path in (str(missing), missing):
            with pytest.raises(ConfigError) as failure:
                load_config(path)
            messages.append(str(failure.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"cannot read config {missing}: [Errno 2] ")


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
            {"levels": [0, -3, 2.7, "4"]},
            {"levels": [1, 2, True, 1]},
            {"levels": [3, 1, 2, 0]},
            {"settings": {"a": "85", "b": 215, "c": 53, "d": 3.5}},
            {"settings": {"a": 85, "b": 215, "c": True, "d": 3.5}},
            {"predicted": "21.2575"},
            {"predicted": False},
            {"response": 7},
            {"unit": ["s"]},
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

    @pytest.mark.parametrize("text", ["a: " + "[" * 25000, "- " * 25000 + "a"], ids=["flow", "block"])
    def test_config_nested_beyond_libyaml_stack(self, tmp_path, spawn, text):
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        completed = spawn([sys.executable, "-m", "taguchikit", "design", str(config)])
        assert completed.returncode == 2 and completed.stdout == ""
        lines = completed.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_full_stdout_is_one_error_line(self, fixture_paths, spawn, to_file):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        argv = [sys.executable, "-m", "taguchikit", "design", fixture_paths[0]]
        with open("/dev/full", "w") as full:
            completed = spawn(argv + ["--out", "/dev/full"]) if to_file else spawn(argv, stdout=full)
        single_os_error(completed, errno.ENOSPC)
        assert completed.stderr.endswith(": '/dev/full'\n" if to_file else ": '<stdout>'\n")

    def test_a_failed_stdout_write_in_main_leaves_no_descriptor_open(self, fixture_paths, capsys):
        if not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")):
            pytest.skip("no /proc/self/fd or no /dev/full on this system")
        with open("/dev/full", "w") as full:
            before = len(os.listdir("/proc/self/fd"))
            with contextlib.redirect_stdout(full):
                assert main(["design", fixture_paths[0]]) == 2
            assert len(os.listdir("/proc/self/fd")) == before
        assert single_error(capsys).endswith(": '<stdout>'")

    def test_broken_pipe_stdout_is_one_error_line(self, fixture_paths, spawn):
        argv = [sys.executable, "-m", "taguchikit", "design", fixture_paths[0]]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = spawn(argv, stdout=write_end)
        finally:
            os.close(write_end)
        single_os_error(completed, errno.EPIPE)

    @pytest.mark.parametrize("unwritable", ["--out", "--plot-data"])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_failing_output_leaves_no_other_file(
        self, fixture_paths, tmp_path, capsys, unwritable, kind
    ):
        paths = {"--out": tmp_path / "report.json", "--plot-data": tmp_path / "effects.csv"}
        if kind == "directory":
            paths[unwritable].mkdir()
        else:
            paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
        argv = ["analyze", *fixture_paths, "--format", "json"]
        argv += [arg for option, path in paths.items() for arg in (option, str(path))]
        assert main(argv) == 2
        assert str(paths[unwritable]) in single_error(capsys)
        assert list(tmp_path.rglob("*")) == ([paths[unwritable]] if kind == "directory" else [])

    def test_failing_output_removes_the_file_a_dangling_symlink_named(
        self, fixture_paths, tmp_path, capsys
    ):
        link, taken = tmp_path / "link.csv", tmp_path / "taken"
        link.symlink_to("new.csv")
        taken.mkdir()
        argv = ["analyze", *fixture_paths, "--plot-data", str(link), "--out", str(taken)]
        assert main(argv) == 2
        assert str(taken) in single_error(capsys)
        assert link.is_symlink() and os.readlink(link) == "new.csv"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "taken"]

    def test_broken_pipe_stdout_leaves_no_plot_data(self, fixture_paths, tmp_path, spawn):
        argv = [sys.executable, "-m", "taguchikit", "analyze", *fixture_paths]
        argv += ["--plot-data", "effects.csv"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = spawn(argv, stdout=write_end, cwd=tmp_path)
        finally:
            os.close(write_end)
        single_os_error(completed, errno.EPIPE)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_ascii_stdout_is_one_error_line(
        self, fixture_paths, fixtures_dir, tmp_path, spawn, capsys, form
    ):
        argv = ["env", "PYTHONIOENCODING=ascii", sys.executable, "-m", "taguchikit"]
        argv += ["analyze", *fixture_paths, "--format", form]
        completed = spawn(argv + ["--plot-data", str(tmp_path / "effects.csv")])
        assert (completed.returncode, completed.stdout) == (2, "")
        lines = completed.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: <stdout>: 'ascii' codec can't encode character '\\xb0'")
        assert list(tmp_path.iterdir()) == []
        report = tmp_path / "report"
        assert spawn(argv + ["--out", str(report)]).returncode == 0
        if form == "json":
            assert report.read_bytes() == (fixtures_dir / "expected_report.json").read_bytes()
        assert main(["analyze", *fixture_paths, "--format", form]) == 0
        assert report.read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_lone_surrogate_in_a_prediction_is_one_error_line(
        self, fixture_paths, tmp_path, capsys, form
    ):
        document, out = tmp_path / "prediction.json", tmp_path / "confirmed"
        predict = ["predict", *fixture_paths, "--response", "cycle_time", "--out", str(document)]
        assert main(predict) == 0
        body = json.loads(document.read_text(encoding="utf-8"))
        document.write_text(json.dumps({**body, "response": "\ud800"}), encoding="utf-8")
        validate = ["validate", str(document), "--confirmed", "22.92", "--format", form]
        assert main(validate + ["--out", str(out)]) == 2
        message = single_error(capsys)
        assert message.startswith(f"error: {out}: 'utf-8' codec can't encode character '\\ud800'")
        assert sorted(tmp_path.iterdir()) == [document]

    def test_closed_stdout_is_one_error_line(self, fixture_paths, spawn):
        argv = [sys.executable, "-m", "taguchikit", "design", fixture_paths[0]]
        completed = spawn(["sh", "-c", '"$0" "$@" >&-', *argv])
        single_os_error(completed, errno.EBADF)

    # With fd 2 closed, CPython on Linux was seen to leave sys.stderr as None
    # when fd 0 is closed too, and as a stream whose writes fail with EBADF
    # when it is not.
    @pytest.mark.parametrize("redirect", ["2>&-", "2>&- <&-"], ids=["stream", "none"])
    def test_closed_stderr_still_exits_2(self, tmp_path, spawn, redirect):
        argv = [sys.executable, "-m", "taguchikit", "design", str(tmp_path / "missing.yaml")]
        completed = spawn(["sh", "-c", f'"$0" "$@" {redirect}', *argv])
        assert (completed.returncode, completed.stdout) == (2, "")

    def test_line_break_in_a_name_stays_on_the_error_line(self, fixture_paths, tmp_path, capsys):
        config, results = fixture_paths
        text = Path(config).read_text(encoding="utf-8")
        edited = tmp_path / "config.yaml"
        edited.write_text(text.replace("name: shrinkage", 'name: "shrink\\rage"'), encoding="utf-8")
        assert main(["analyze", str(edited), results]) == 2
        assert single_error(capsys) == "error: results table lacks response column(s): shrink\\rage"

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


_CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10**400),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(["L4", "L9", "L27", "auto", "nominal-the-best", "larger-the-better"]),
    st.lists(st.one_of(st.integers(-5, 300), st.floats(), st.booleans()), max_size=5),
    st.lists(st.integers(1, 300), min_size=3, max_size=3, unique=True).map(sorted),
    st.dictionaries(st.sampled_from(["snr", "mean", "name", "x"]), st.integers(-3, 20), max_size=2),
)


@st.composite
def _config_yaml(draw):
    """The fixture config with keys dropped, values replaced and keys added, as YAML."""
    config = yaml.safe_load((REPO / "fixtures" / "clip_moulding.yaml").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        entries = [config.get("factors"), config.get("responses")]
        items = [m for entry in entries if isinstance(entry, list) for m in entry]
        mapping = draw(st.sampled_from([config, *(m for m in items if isinstance(m, dict))]))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if action != "add" and mapping:
            key = draw(st.sampled_from(sorted(mapping, key=str)))
            if action == "drop":
                del mapping[key]
            else:
                mapping[key] = draw(_CONFIG_VALUES)
        else:
            key = draw(st.sampled_from(["precision", "target", "unit", "precison", "traget", "x"]))
            mapping[key] = draw(_CONFIG_VALUES)
    return yaml.safe_dump(config, allow_unicode=True)


class TestConfigTotalityProperty:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_config_yaml(), command=st.sampled_from(["design", "analyze"]))
    def test_commands_are_total_over_configs(self, text, command):
        results = str(REPO / "fixtures" / "clip_moulding_results.csv")
        with tempfile.TemporaryDirectory() as scratch:
            config = Path(scratch) / "config.yaml"
            config.write_text(text, encoding="utf-8")
            argv = ["design", str(config)]
            if command == "analyze":
                argv = ["analyze", str(config), results, "--format", "json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
            if command == "analyze":
                json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert code == 2 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()

    # The random key choice above seldom puts a container or a number where text is meant.
    @pytest.mark.parametrize(
        "field, message",
        [
            ("array", "expected an array name or 'auto'"),
            ("factors[0].name", "expected a non-empty string"),
            ("factors[0].unit", "expected a string"),
            ("responses[1].name", "expected a non-empty string"),
            ("responses[1].unit", "expected a string"),
        ],
    )
    @pytest.mark.parametrize("value", [["L9"], {"L9": "s"}, 9], ids=["list", "mapping", "number"])
    def test_text_fields_refuse_a_list_a_mapping_and_a_number(self, tmp_path, capsys, field, message, value):
        config = yaml.safe_load((REPO / "fixtures" / "clip_moulding.yaml").read_text(encoding="utf-8"))
        entry = re.fullmatch(r"(\w+)\[(\d)\]\.(\w+)", field)
        if entry:
            config[entry[1]][int(entry[2])][entry[3]] = value
        else:
            config[field] = value
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["design", str(path)]) == 2
        assert single_error(capsys) == f"error: {path}: {field}: {message}"


def _aliased_list(depth: int) -> str:
    """YAML flow text of a list nested ``depth`` levels, ten entries each: about 50 bytes a level."""
    text = "&a1 [x, x, x, x, x, x, x, x, x, x]"
    for k in range(2, depth + 1):
        text = f"&a{k} [{text}" + f", *a{k - 1}" * 9 + "]"
    return text


class TestAliasedConfigValues:
    # Ten to the depth entries: a repr of the value in the message would be ~5 * 10**depth bytes.
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("field", ["objective", "precision.snr"])
    def test_error_names_a_list_by_its_type(self, fixtures_dir, tmp_path, capsys, field, depth):
        text = (fixtures_dir / "clip_moulding.yaml").read_text(encoding="utf-8")
        if field == "objective":
            text = text.replace("objective: smaller-the-better", f"objective: {_aliased_list(depth)}", 1)
            expected = "responses[0].objective: unknown objective a list; expected one of: "
        else:
            text += f"precision:\n  snr: {_aliased_list(depth)}\n"
            expected = "precision.snr: expected 0 to 15 decimals, got a list"
        config = tmp_path / "aliased.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["design", str(config)]) == 2
        line = single_error(capsys)
        assert len(line) <= 300 and expected in line, line[:300]


def _assert_total(argv: list[str], json_out: bool) -> None:
    """Exit 0 with output (strict JSON if ``json_out``), or exit 2 with one error line only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue()
        if json_out:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


_LEVEL_LISTS = st.one_of(
    st.none(),
    st.tuples(*map(st.sampled_from, (["75", "85"], ["215", "230"], ["47", "58"], ["3.5"]))).map(
        ",".join
    ),
    st.sampled_from(["", " ", ",", "nan", "85,215,53", "85,215,53,3.5,4.5", "1e308,215,47,3.5"]),
    st.lists(st.one_of(st.sampled_from(["75", "215", "47", "3.5", "4.50"]), _CELLS), max_size=6)
    .map(",".join),
)


# The fixture study's config and results, as ``predict`` takes them.
_STUDY = [str(REPO / "fixtures" / name) for name in ("clip_moulding.yaml", "clip_moulding_results.csv")]


def _fixture_prediction() -> dict:
    """The cycle-time prediction document that ``predict`` writes for the fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", *_STUDY, "--response", "cycle_time"]) == 0
    return json.loads(out.getvalue())


_DOCUMENT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**400),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-1, 4), st.floats(), st.booleans()), max_size=5),
    st.dictionaries(st.text(max_size=3), st.one_of(st.floats(), st.text(max_size=3)), max_size=4),
)


@st.composite
def _prediction_text(draw):
    """The fixture prediction with keys dropped, replaced or added, as JSON, maybe cut short."""
    data = _fixture_prediction()
    for _ in range(draw(st.integers(0, 3))):
        mappings = [m for m in (data, data.get("settings")) if isinstance(m, dict)]
        mapping = draw(st.sampled_from(mappings))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if action != "add" and mapping:
            key = draw(st.sampled_from(sorted(mapping)))
            if action == "drop":
                del mapping[key]
            else:
                mapping[key] = draw(_DOCUMENT_VALUES)
        else:
            key = draw(st.sampled_from(["confirmation", "error_percent", "unit", "levels", "x"]))
            mapping[key] = draw(_DOCUMENT_VALUES)
    text = json.dumps(data, ensure_ascii=False)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestPredictValidateTotalityProperty:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        response=st.one_of(st.sampled_from(["cycle_time", "shrinkage"]), st.text(max_size=8)),
        levels=_LEVEL_LISTS,
        form=st.sampled_from(["json", "text"]),
    )
    def test_predict_is_total(self, response, levels, form):
        argv = ["predict", *_STUDY, f"--response={response}", f"--format={form}"]
        if levels is not None:
            argv.append(f"--levels={levels}")
        _assert_total(argv, form == "json")

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        text=_prediction_text(),
        confirmed=st.one_of(
            st.floats(1e-3, 1e3).map(repr),
            st.floats().map(repr),
            st.sampled_from(["22.92", "0", "-0.0", "-1", "1e-320", "5e-324", "1e308", "1e999"]),
        ),
        form=st.sampled_from(["json", "text"]),
    )
    def test_validate_is_total(self, text, confirmed, form):
        with tempfile.TemporaryDirectory() as scratch:
            document = Path(scratch) / "prediction.json"
            document.write_text(text, encoding="utf-8")
            argv = ["validate", str(document), f"--confirmed={confirmed}", f"--format={form}"]
            _assert_total(argv, form == "json")

    @pytest.mark.parametrize("text", ["[1]", '"x"', "5", "null"])
    def test_a_document_that_is_not_an_object_is_refused(self, tmp_path, capsys, text):
        document = tmp_path / "prediction.json"
        document.write_text(text, encoding="utf-8")
        assert main(["validate", str(document), "--confirmed", "22.92"]) == 2
        # The rest of the line is Python's own reason, which varies across versions.
        assert single_error(capsys).startswith(f"error: {document}: not a prediction document: ")


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


# Each frozen text output in fixtures/ and the command, after its config and results, that prints it.
TEXT_ORACLES = {
    "expected_report.txt": ["analyze", "--format", "text"],
    "expected_prediction.txt": ["predict", "--response", "cycle_time", "--format", "text"],
}


@pytest.mark.parametrize("route", ["main", "module"])
@pytest.mark.parametrize("oracle", sorted(TEXT_ORACLES))
def test_text_output_is_frozen(fixture_paths, fixtures_dir, capsys, spawn, oracle, route):
    command, *options = TEXT_ORACLES[oracle]
    argv = [command, *fixture_paths, *options]
    if route == "main":
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
    else:
        completed = spawn([sys.executable, "-m", "taguchikit", *argv], text=False)
        assert completed.returncode == 0, completed.stderr
        out = completed.stdout
    assert out == (fixtures_dir / oracle).read_bytes()


def test_a_factor_with_fewer_levels_leaves_the_level_columns_it_lacks_blank():
    """Only the library builds a mixed-level array; each value stays under its own heading."""
    array = OrthogonalArray("2x3", (2, 3), [(p, q) for p in range(2) for q in range(3)])
    design = bind(array, [Factor("p", "", (1, 2)), Factor("q", "mm", (10, 20, 30))])
    measured = [RunResult(i, {"y": (y,)}) for i, y in enumerate((2, 3, 4, 6, 7, 8), 1)]
    text = report_to_text(analyze(design, measured, [ResponseSpec("y", "", Objective.SMALLER_IS_BETTER)]))
    assert text.split("\n\n")[-1] == (
        "  factor      L1      L2      L3   delta  rank  best\n"
        "  p       3.0000  7.0000          4.0000     1     1\n"
        "  q(mm)   4.0000  5.0000  6.0000  2.0000     2    10\n"
    )


def test_a_study_built_in_the_library_writes_the_bytes_the_cli_writes(tmp_path, capsys):
    """An integer target and confirmation are held as floats, however they arrive."""
    config, results, prediction = (tmp_path / name for name in ("l4.yaml", "l4.csv", "p.json"))
    config.write_text(L4_STUDY, encoding="utf-8")
    results.write_text("run,thickness,strength\n1,8.5,5\n2,9.5,6\n3,7.5,7\n4,10.5,9\n", encoding="utf-8")
    study = [str(config), str(results)]
    assert main(["analyze", *study, "--format", "json"]) == 0
    assert main(["predict", *study, "--response", "thickness", "--out", str(prediction)]) == 0
    assert main(["validate", str(prediction), "--confirmed", "9", "--format", "json"]) == 0

    factors = [Factor("a", "", (1, 2)), Factor("b", "", (10, 20)), Factor("c", "", (0.5, 1.5))]
    specs = [
        ResponseSpec("thickness", "mm", Objective.NOMINAL_IS_BEST, target=10),
        ResponseSpec("strength", "N", Objective.LARGER_IS_BETTER),
    ]
    rows = [(8.5, 5), (9.5, 6), (7.5, 7), (10.5, 9)]
    measured = [RunResult(i, {"thickness": (t,), "strength": (s,)}) for i, (t, s) in enumerate(rows, 1)]
    report = analyze(bind(get_array("L4"), factors), measured, specs)
    confirmed = validate(predict_optimum(report, "thickness"), 9)
    out = capsys.readouterr().out
    assert out == report_to_json(report) + prediction_to_json(confirmed)
    assert '\n      "target": 10.0\n' in out


def test_case_study_script_runs(tmp_path, spawn):
    completed = spawn([sys.executable, str(REPO / "scripts" / "run_case_study.py")], cwd=tmp_path)
    assert completed.returncode == 0 and completed.stderr == "", completed.stderr
    for line in ("predicted 21.2575", "error 7.25 %", "predicted 1.8343", "is below the averaged nominal limit"):
        assert line in completed.stdout, line


def readme_library_example() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library example")) + len("```python\n")
    return readme[start:readme.index("```\n", start)]


def test_readme_library_example_runs(spawn):
    example = readme_library_example()
    assert "fit_surrogate(report" in example
    completed = spawn([sys.executable, "-c", example], cwd=REPO)
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_readme_library_example_gives_the_frozen_report_on_each_interpreter(spawn, version):
    python = shutil.which(f"python{version}")
    if python is None or spawn([python, "-c", "pass"]).returncode != 0:
        pytest.skip(f"python{version} is not installed or does not start")
    example = readme_library_example() + (
        "\nimport sys\nfrom taguchikit.reporting import report_to_json\n"
        "sys.stdout.buffer.write(report_to_json(report).encode('utf-8'))\n"
    )
    completed = spawn([python, "-c", example], cwd=REPO, text=False)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == (REPO / "fixtures" / "expected_report.json").read_bytes()


def test_readme_cli_walkthrough_runs(tmp_path, spawn):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    start = readme.index("```sh\n", readme.index("## CLI walkthrough")) + len("```sh\n")
    lines = readme[start:readme.index("```\n", start)].replace("\\\n", "").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]
    assert len(commands) == 7 and all(argv[0] == "taguchikit" for argv in commands)
    shutil.copytree(REPO / "fixtures", tmp_path / "fixtures")
    outputs = []
    for argv in commands:
        completed = spawn([sys.executable, "-m", *argv], cwd=tmp_path)
        assert completed.returncode == 0, (argv, completed.stderr)
        outputs.append(completed.stdout)
    # The text predict is at run 1's levels; validate restates the optimum's prediction.
    assert "predicted: 49.4161 s" in outputs[5]
    assert "predicted: 21.2575 s" in outputs[6] and "error: 7.25 %" in outputs[6]
