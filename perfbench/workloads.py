"""Inputs, ops and output checks of the three benchmark workloads.

Every workload draws its inputs from ``random.Random(seed)`` only, so one
seed gives byte-identical inputs. The program sees nothing but the
generated files (CLI workloads) or objects (library workload).

An op returns an :class:`Op` whose ``error`` is ``None`` when the op
exited cleanly and its output passed the check. A failing op is counted,
never raised, so one bad output cannot stop the run.
"""

import csv
import io
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from pathlib import Path

import tracing

TRACED_CLI = Path(tracing.__file__).resolve()


@dataclass
class Op:
    kind: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    values: int  # replicate values screened by the op
    error: str | None


def checked(check, *args):
    """Run an output check; a check that raises reports a failure instead."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output must count, not abort the run
        return f"{check.__name__}: {type(exc).__name__}: {exc}"


def _decimals(x, places, rounding):
    return str(Decimal(repr(x)).quantize(Decimal(1).scaleb(-places), rounding=rounding))


def spawn(argv, root, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Wall seconds from spawn to reap; the child's CPU seconds, peak RSS (KiB) and exit code."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=root, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, child.returncode


class CliRunner:
    """Runs ``python -m taguchikit`` (or its traced stand-in) as one child."""

    def __init__(self, root, workdir):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"

    def command(self, kind, args, values, check, tracer=None):
        """One CLI command as an op. With a tracer, the child's spans join it."""
        if tracer is None:
            argv = [sys.executable, "-m", "taguchikit", *args]
        else:
            spans_path = self.stdout_path.with_name("spans.json")
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACED_CLI), str(spans_path), *args]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            wall, cpu, rss, code = spawn(argv, self.root, self.env, out, err)
        stdout = self.stdout_path.read_bytes()
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            error = f"exit {code}: {stderr.strip().splitlines()[-1:]}"
        elif "Traceback" in stderr:
            error = "traceback on stderr"
        else:
            error = checked(check, stdout)
        if tracer is not None and spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")))
        return Op(kind, wall, cpu, rss, values if error is None else 0, error)

    def reference(self):
        """A CLI op's speed reference: wall and CPU seconds of a bare ``python -c pass``."""
        wall, cpu, _, _ = spawn([sys.executable, "-c", "pass"], self.root, self.env)
        return wall, cpu


class ClipCli:
    """The recorded L9 clip study through the CLI, one command per op."""

    name = "clip_cli"
    in_process = False

    def __init__(self, root, workdir, seed):
        self.workdir, self.seed = workdir, seed
        self.cli = CliRunner(root, workdir)
        fixtures = root / "fixtures"
        self.fixture_config = fixtures / "clip_moulding.yaml"
        self.fixture_results = fixtures / "clip_moulding_results.csv"
        self.expected_json = (fixtures / "expected_report.json").read_bytes()
        self.expected = json.loads(self.expected_json)
        reference = json.loads((fixtures / "moldflow_reference.json").read_text(encoding="utf-8"))
        self.ranks = reference["reported_ranks"]
        self.confirmation = reference["confirmation_runs"]["cycle_time"]

    def reference(self):
        return self.cli.reference()

    def setup(self):
        config = self.workdir / "clip_moulding.yaml"
        results = self.workdir / "clip_moulding_results.csv"
        self.effects = self.workdir / "effects.csv"
        self.prediction = self.workdir / "prediction.json"
        config.write_bytes(self.fixture_config.read_bytes())
        # The seed permutes the result rows; the report must not notice.
        header, *rows = self.fixture_results.read_text(encoding="utf-8").splitlines()
        random.Random(self.seed).shuffle(rows)
        results.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        screened = len(rows) * (len(header.split(",")) - 1)
        confirmed = repr(self.confirmation["simulated_value"])
        cfg, res = str(config), str(results)
        # kind, arguments, values screened, check, file the command writes
        self.round = (
            ("design", ["design", cfg], 0, self.check_design, None),
            ("analyze-json", ["analyze", cfg, res, "--format", "json", "--plot-data", str(self.effects)],
             screened, self.check_analyze_json, self.effects),
            ("analyze-text", ["analyze", cfg, res, "--format", "text"], screened, self.check_analyze_text, None),
            ("predict", ["predict", cfg, res, "--response", "cycle_time", "--out", str(self.prediction)],
             screened, self.check_predict, self.prediction),
            ("validate", ["validate", str(self.prediction), "--confirmed", confirmed], 0,
             self.check_validate, None),
        )
        for i in range(len(self.round)):
            op = self.op(i)
            if op.error:
                raise RuntimeError(f"warm-up {op.kind} failed: {op.error}")

    def op(self, i, tracer=None):
        kind, args, values, check, written = self.round[i % len(self.round)]
        if written is not None:
            written.unlink(missing_ok=True)  # a file left by an earlier op must not pass
        return self.cli.command(kind, args, values, check, tracer)

    def check_design(self, stdout):
        design = self.expected["design"]
        rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
        header = ["run"] + [f"{f['name']}({f['unit']})" for f in design["factors"]]
        if rows[0] != header:
            return f"design: header {rows[0]}"
        want = [[run["run"], *run["settings"].values()] for run in design["runs"]]
        got = [[int(row[0]), *map(float, row[1:])] for row in rows[1:]]
        return None if got == want else "design: run sheet differs from the recorded design"

    def check_analyze_json(self, stdout):
        if stdout != self.expected_json:
            return "analyze json: differs from fixtures/expected_report.json"
        rows = list(csv.reader(io.StringIO(self.effects.read_text(encoding="utf-8"))))
        want = [
            [response["name"], factor["name"], level, mean]
            for response in self.expected["responses"]
            for factor, spec in zip(response["factors"], self.expected["design"]["factors"])
            for level, mean in zip(spec["levels"], factor["level_means"])
        ]
        got = [[r, f, float(level), float(mean)] for r, f, level, mean in rows[1:]]
        if rows[0] != ["response", "factor", "level", "mean"] or got != want:
            return "analyze --plot-data: main effects differ from the recorded report"
        return None

    def check_analyze_text(self, stdout):
        lines = stdout.decode("utf-8").splitlines()
        if lines[0] != "Design: L9 (9 runs x 4 factors)":
            return f"analyze text: first line {lines[0]!r}"
        tables = _text_tables(lines)
        for response in self.expected["responses"]:
            runs, factors = tables.pop(0), tables.pop(0)
            want_runs = [
                [str(run["run"]), _decimals(run["mean"], 4, ROUND_HALF_UP),
                 _decimals(run["snr"], 2, ROUND_DOWN)]
                for run in response["runs"]
            ]
            if runs != want_runs:
                return f"analyze text: {response['name']} run table differs"
            if [int(row[-2]) for row in factors] != self.ranks[response["name"]]:
                return f"analyze text: {response['name']} ranks differ from the recorded ranks"
        return None

    def check_predict(self, stdout):
        doc = json.loads(self.prediction.read_text(encoding="utf-8"))
        want = self.confirmation
        if doc["response"] != "cycle_time" or doc["settings"] != want["settings"]:
            return f"predict: settings {doc.get('settings')}"
        if abs(doc["predicted"] - want["reported_prediction"]) >= 5e-5:
            return f"predict: {doc['predicted']} != {want['reported_prediction']}"
        return None

    def check_validate(self, stdout):
        text = stdout.decode("utf-8")
        want = self.confirmation
        error = abs(want["simulated_value"] - want["reported_prediction"]) / want["simulated_value"] * 100
        predicted = re.search(r"predicted: (\S+)", text)
        got = re.search(r"error: (\S+) %", text)
        if not predicted or float(predicted[1]) != want["reported_prediction"]:
            return "validate: predicted value missing or wrong"
        if not got or abs(float(got[1]) - error) > 0.005 + 1e-9:
            return f"validate: error percent {got and got[1]} != {error:.2f}"
        return None


def _text_tables(lines):
    """Cell rows of each aligned table in a text report, in order."""
    tables, current = [], None
    for line in lines:
        cells = line.split()
        if not cells:
            current = None
        elif cells[0] in ("run", "factor"):
            current = []
            tables.append(current)
        elif current is not None:
            current.append(cells)
    return tables


# name, unit, objective, target, typical value
BULK_RESPONSES = (
    ("defects", "count", "smaller-the-better", None, 20.0),
    ("cycle_time", "s", "smaller-the-better", None, 45.0),
    ("strength", "MPa", "larger-the-better", None, 80.0),
    ("gloss", "GU", "larger-the-better", None, 60.0),
    ("thickness", "mm", "nominal-the-best", 50.0, 50.0),
)
BULK_FACTORS = 13
BULK_RUNS = 27
BULK_REPLICATES = 1000


def bulk_inputs(seed):
    """Config YAML and results CSV text of the bulk screening (L27, 13 x 3 levels).

    Each run draws a level per response, then 1000 replicates scattered 5 %
    around it; rows are shuffled so a run's replicates interleave.
    """
    rng = random.Random(seed)
    config = ["array: L27", "factors:"]
    for j in range(1, BULK_FACTORS + 1):
        start, step = rng.randint(1, 90), rng.randint(1, 10)
        levels = ", ".join(str(start + k * step) for k in range(3))
        config += [f"  - name: x{j:02d}", "    unit: u", f"    levels: [{levels}]"]
    config.append("responses:")
    for name, unit, objective, target, _ in BULK_RESPONSES:
        config += [f"  - name: {name}", f"    unit: {unit}", f"    objective: {objective}"]
        if target is not None:
            config.append(f"    target: {target}")
    rows = []
    for run in range(1, BULK_RUNS + 1):
        centers = [typical * rng.uniform(0.8, 1.2) for *_, typical in BULK_RESPONSES]
        for _ in range(BULK_REPLICATES):
            cells = ",".join(f"{c * (1 + rng.gauss(0, 0.05)):.3f}" for c in centers)
            rows.append(f"{run},{cells}\n")
    rng.shuffle(rows)
    header = ",".join(["run", *(r[0] for r in BULK_RESPONSES)]) + "\n"
    return "\n".join(config) + "\n", header + "".join(rows)


def expected_run_stats(csv_text):
    """Per response: run means and S/N ratios recomputed with ``math.fsum``."""
    lines = csv_text.splitlines()
    names = lines[0].split(",")[1:]
    values = {}
    for line in lines[1:]:
        run, *cells = line.split(",")
        bucket = values.setdefault(int(run), [[] for _ in names])
        for ys, cell in zip(bucket, cells):
            ys.append(float(cell))
    stats = {}
    for r, (name, _, objective, target, _) in enumerate(BULK_RESPONSES):
        means, snrs = [], []
        for run in sorted(values):
            ys = values[run][r]
            if objective == "smaller-the-better":
                msd = math.fsum(y * y for y in ys) / len(ys)
            elif objective == "larger-the-better":
                msd = math.fsum(1.0 / (y * y) for y in ys) / len(ys)
            else:
                msd = math.fsum((y - target) ** 2 for y in ys) / len(ys)
            means.append(math.fsum(ys) / len(ys))
            snrs.append(-10.0 * math.log10(msd))
        stats[name] = (means, snrs)
    return stats


class BulkCsv:
    """CLI ``analyze --format json`` on a generated 27,000-row results CSV."""

    name = "bulk_csv"
    in_process = False

    def __init__(self, root, workdir, seed):
        self.workdir, self.seed = workdir, seed
        self.cli = CliRunner(root, workdir)

    def reference(self):
        return self.cli.reference()

    def setup(self):
        config_text, csv_text = bulk_inputs(self.seed)
        config = self.workdir / "bulk.yaml"
        results = self.workdir / "bulk_results.csv"
        config.write_text(config_text, encoding="utf-8")
        results.write_text(csv_text, encoding="utf-8")
        self.stats = expected_run_stats(csv_text)
        self.values = BULK_RUNS * BULK_REPLICATES * len(BULK_RESPONSES)
        self.sizes = {"rows": BULK_RUNS * BULK_REPLICATES, "values": self.values,
                      "csv_bytes": len(csv_text.encode("utf-8"))}
        self.args = ["analyze", str(config), str(results), "--format", "json"]
        op = self.op(0)
        if op.error:
            raise RuntimeError(f"warm-up failed: {op.error}")

    def op(self, i, tracer=None):
        return self.cli.command("analyze-json", self.args, self.values, self.check, tracer)

    def check(self, stdout):
        report = json.loads(stdout)
        if len(report["design"]["runs"]) != BULK_RUNS:
            return "bulk: wrong run count"
        if [r["name"] for r in report["responses"]] != list(self.stats):
            return "bulk: wrong responses"
        for response in report["responses"]:
            means, snrs = self.stats[response["name"]]
            runs = response["runs"]
            if [run["run"] for run in runs] != list(range(1, BULK_RUNS + 1)):
                return f"bulk: {response['name']} run numbers"
            if [run["mean"] for run in runs] != means:
                return f"bulk: {response['name']} run means differ from the fsum recomputation"
            if response["grand_mean"] != math.fsum(means) / len(means):
                return f"bulk: {response['name']} grand mean differs"
            for run, want in zip(runs, snrs):
                if not math.isclose(run["snr"], want, rel_tol=1e-12, abs_tol=0.0):
                    return f"bulk: {response['name']} run {run['run']} S/N {run['snr']} != {want}"
        return None


SPLIT_REPLICATES = 300


def split_inputs(seed, run_means):
    """(run, {response: value}) per replicate, 2 % scatter around each run's mean, shuffled."""
    rng = random.Random(seed)
    items = [
        (run, {name: mean * (1 + rng.gauss(0, 0.02)) for name, mean in means.items()})
        for run, means in run_means.items()
        for _ in range(SPLIT_REPLICATES)
    ]
    rng.shuffle(items)
    return items


class SplitReplicates:
    """In-process library cycle over 2,700 single-replicate ``RunResult`` objects."""

    name = "split_replicates"
    in_process = True

    def __init__(self, root, workdir, seed):
        from taguchikit import analysis, cli, evaluators, reporting

        self.analysis, self.evaluators = analysis, evaluators
        self.report_to_json = reporting.report_to_json
        self.seed = seed
        config = cli.load_config(root / "fixtures" / "clip_moulding.yaml")
        self.design, _ = cli.build_design(config)
        self.specs = config.responses
        recorded = analysis.read_results_csv(
            (root / "fixtures" / "clip_moulding_results.csv").read_text(encoding="utf-8"))
        self.run_means = {r.run_number: {k: ys[0] for k, ys in r.values.items()} for r in recorded}
        self.combos = [
            dict(zip(self.design.factor_names, levels))
            for levels in itertools.product(*(f.levels for f in self.design.factors))
        ]

    def setup(self):
        RunResult = self.analysis.RunResult
        items = split_inputs(self.seed, self.run_means)
        self.results = [RunResult(run, {k: (v,) for k, v in values.items()}) for run, values in items]
        grouped = [
            RunResult(run, {k: tuple(v[k] for r, v in items if r == run) for k in self.run_means[run]})
            for run in self.run_means
        ]
        self.values = sum(len(values) for _, values in items)
        self.sizes = {"run_results": len(self.results), "values": self.values}
        self.reference_json = self.report_to_json(self.analysis.analyze(self.design, grouped, self.specs))
        self.expected = self._expected(json.loads(self.reference_json))
        op = self.op(0)
        if op.error:
            raise RuntimeError(f"warm-up failed: {op.error}")

    def _expected(self, report):
        """Per response: run means, optimal levels and additive values at every combination."""
        expected = {}
        for response in report["responses"]:
            grand = response["grand_mean"]
            means = [f["level_means"] for f in response["factors"]]
            additive = {
                levels: grand + sum(means[f][l] - grand for f, l in enumerate(levels))
                for levels in itertools.product(*(range(len(row)) for row in means))
            }
            optimum = tuple(f["optimal_level"]["label"] - 1 for f in response["factors"])
            expected[response["name"]] = ([run["mean"] for run in response["runs"]], optimum, additive)
        return expected

    def reference(self):
        """Speed reference: a fixed pass, written here, that groups the same RunResults.

        It touches the op's objects in the op's way (tuple concatenation per
        run and response, then ``fsum``), so host contention slows it as it
        slows the op, while no change to the program can move it.
        """
        start, cpu_start = time.perf_counter(), time.process_time()
        for _ in range(3):
            groups = {}
            for result in self.results:
                for name, ys in result.values.items():
                    key = (result.run_number, name)
                    groups[key] = groups.get(key, ()) + ys
            for ys in groups.values():
                math.fsum(ys) / len(ys)
        return time.perf_counter() - start, time.process_time() - cpu_start

    def cycle(self):
        """analyze, table ingest and replay, surrogate fit and sweep, optimum prediction."""
        analysis, evaluators = self.analysis, self.evaluators
        report = analysis.analyze(self.design, self.results, self.specs)
        table = evaluators.TableEvaluator.from_results(self.design, self.results)
        outputs = {}
        for spec in self.specs:
            replayed = [table.evaluate(run.settings, spec.name) for run in self.design.runs]
            surrogate = evaluators.fit_surrogate(report, spec.name)
            extended = [surrogate.evaluate(combo) for combo in self.combos]
            outputs[spec.name] = (replayed, extended, analysis.predict_optimum(report, spec.name))
        return report, outputs

    def op(self, i, tracer=None):
        if tracer is not None:
            tracer.install(tracing.LIBRARY_CALLS)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            report, outputs = self.cycle()
            error = None
        except Exception as exc:  # a call that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            error = checked(self.check, report, outputs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Op("cycle", wall, cpu, rss, self.values if error is None else 0, error)

    def check(self, report, outputs):
        if self.report_to_json(report) != self.reference_json:
            return "split: report differs from the pre-grouped analysis"
        for name, (replayed, extended, prediction) in outputs.items():
            run_means, optimum, additive = self.expected[name]
            if replayed != run_means:
                return f"split: {name} table replay differs from the run means"
            if len(extended) != len(additive) or not all(
                math.isclose(a, b, rel_tol=1e-12) for a, b in zip(extended, additive.values())
            ):
                return f"split: {name} surrogate differs from the additive model"
            if prediction.level_indices != optimum or not math.isclose(
                prediction.predicted, additive[optimum], rel_tol=1e-12
            ):
                return f"split: {name} optimum prediction differs"
        return None


WORKLOADS = {w.name: w for w in (ClipCli, BulkCsv, SplitReplicates)}
