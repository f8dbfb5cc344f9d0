"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests          # or
    python3 -m unittest discover -s perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(prefix=".work-test-", dir=BENCH))
        self.addCleanup(shutil.rmtree, self.workdir)


class TestGenerators(unittest.TestCase):
    def test_bulk_inputs_repeat_per_seed(self):
        first = workloads.bulk_inputs(7)
        self.assertEqual(first, workloads.bulk_inputs(7))
        self.assertNotEqual(first[1], workloads.bulk_inputs(8)[1])

    def test_bulk_inputs_size(self):
        config, results = workloads.bulk_inputs(7)
        lines = results.splitlines()
        self.assertEqual(lines[0], "run,defects,cycle_time,strength,gloss,thickness")
        self.assertEqual(len(lines) - 1, 27_000)
        self.assertEqual(config.count("  - name: x"), 13)
        # Shuffled: the first rows do not all belong to one run.
        self.assertGreater(len({line.split(",")[0] for line in lines[1:28]}), 1)

    def test_split_inputs_repeat_per_seed(self):
        means = {run: {"cycle_time": 30.0 + run, "shrinkage": 2.0} for run in range(1, 10)}
        first = workloads.split_inputs(7, means)
        self.assertEqual(repr(first), repr(workloads.split_inputs(7, means)))
        self.assertNotEqual(repr(first), repr(workloads.split_inputs(8, means)))
        self.assertEqual(len(first), 2_700)


class TestChecks(WorkdirCase):
    def test_clip_round_passes_and_flipped_report_byte_fails(self):
        clip = workloads.ClipCli(ROOT, self.workdir, seed=3)
        clip.setup()  # runs one checked round; raises if any command fails its check
        flipped = bytearray(clip.expected_json)
        flipped[len(flipped) // 2] ^= 0x01
        self.assertIsNone(clip.check_analyze_json(clip.expected_json))
        self.assertIsNotNone(clip.check_analyze_json(bytes(flipped)))
        self.assertIsNotNone(clip.check_validate(b"  predicted: 21.2575 s\n  error: 7.35 %\n"))

    def test_bulk_check_catches_a_wrong_run_mean(self):
        from taguchikit import cli, reporting
        from taguchikit.analysis import analyze, read_results_csv

        bulk = workloads.BulkCsv(ROOT, self.workdir, seed=3)
        config_text, csv_text = workloads.bulk_inputs(3)
        (self.workdir / "bulk.yaml").write_text(config_text, encoding="utf-8")
        config = cli.load_config(self.workdir / "bulk.yaml")
        design, _ = cli.build_design(config)
        report = reporting.report_to_json_dict(analyze(design, read_results_csv(csv_text), config.responses))
        bulk.stats = workloads.expected_run_stats(csv_text)
        self.assertIsNone(bulk.check(json.dumps(report).encode()))
        report["responses"][2]["runs"][5]["mean"] += 1e-9
        self.assertIn("run means", bulk.check(json.dumps(report).encode()))
        self.assertIn("JSONDecodeError", workloads.checked(bulk.check, b"{not json"))

    def test_split_check_catches_a_changed_report(self):
        split = workloads.SplitReplicates(ROOT, self.workdir, seed=3)
        split.setup()
        report, outputs = split.cycle()
        self.assertIsNone(split.check(report, outputs))
        first = report.responses[0]
        changed = dataclasses.replace(
            report, responses=(dataclasses.replace(first, grand_mean=first.grand_mean * 1.001),
                               *report.responses[1:]))
        self.assertIsNotNone(split.check(changed, outputs))

    def test_raising_call_is_a_counted_failure(self):
        split = workloads.SplitReplicates(ROOT, self.workdir, seed=3)
        split.setup()

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        split.evaluators = SimpleNamespace(TableEvaluator=SimpleNamespace(from_results=broken))
        op = split.op(0)
        self.assertEqual(op.error, "RuntimeError: boom")
        self.assertEqual(op.values, 0)

    def test_nonzero_exit_is_a_failure(self):
        runner = workloads.CliRunner(ROOT, self.workdir)
        op = runner.command("analyze", ["analyze", "missing.yaml", "missing.csv"], 18, lambda out: None)
        self.assertTrue(op.error.startswith("exit 2"), op.error)


class TestTracing(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            [0, "op", 0, 100, None, 0, None],
            [1, "cli.analyze", 10, 90, 0, 0, None],
            [2, "analysis.analyze", 20, 50, 1, 0, None],
            [3, "reporting.report_to_json", 60, 70, 1, 0, {"bytes_out": 5}],
        ]
        self.assertEqual(tracing.self_times_ns(spans), {0: 20, 1: 40, 2: 30, 3: 10})
        metrics = run.layer_metrics(spans)
        self.assertEqual(metrics["cli.analyze_ms"], (80 / 1e6, "ms"))
        self.assertEqual(metrics["analysis.analyze_ms"], (30 / 1e6, "ms"))
        self.assertEqual(metrics["reporting.bytes_out"], (5, "count"))
        self.assertEqual(metrics["design.bind_ms"], (0.0, "ms"))

    def test_install_wraps_and_uninstall_restores(self):
        from taguchikit import analysis, evaluators

        originals = (analysis.analyze, evaluators.TableEvaluator.__dict__["from_results"])
        tracer = tracing.Tracer()
        tracer.install(tracing.LIBRARY_CALLS)
        self.assertIsNot(analysis.analyze, originals[0])
        tracer.uninstall()
        self.assertIs(analysis.analyze, originals[0])
        self.assertIs(evaluators.TableEvaluator.__dict__["from_results"], originals[1])

    def test_adopted_child_spans_hang_under_the_open_span(self):
        tracer = tracing.Tracer()
        tracer.op = 4
        op = tracer.open("op")
        tracer.adopt([[0, "cli.import", 1, 2, None, None, None], [1, "cli.load_config", 3, 4, 0, None, None]])
        tracer.close(op)
        self.assertEqual([s[tracing.PARENT] for s in tracer.spans], [None, 0, 1])
        self.assertEqual({s[tracing.OP] for s in tracer.spans}, {4})


class TestContract(WorkdirCase):
    def test_fails_without_the_program(self):
        shutil.copytree(BENCH, self.workdir / "perfbench", ignore=shutil.ignore_patterns("out", ".work-*"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "clip_cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=self.workdir, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
