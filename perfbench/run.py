"""End-to-end and per-layer benchmark of taguchikit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clip_cli --seed 1 --seconds 40 --trace 0

One client drives the program in a closed loop, with at most one child
process at a time. ``--trace 0`` times untraced ops and reports the
end-to-end metrics; ``--trace 1`` is a separate run that alternates traced
and untraced ops, reports per-layer self times and counts, prints the
tracing overhead and writes the spans to ``perfbench/out/``. Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for what each workload and metric means.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
REFERENCE_EVERY = 2  # ops per reference measurement
REFERENCE_WINDOW = 5  # reference measurements an op is divided by the median of

# Per-layer metric -> (span name, statistic). "self" and "total" are the
# per-op sum of the span's self or inclusive time, "call" the per-call self
# time, "count:<key>" the per-op sum of a count; each is the median over
# the ops that contain the span, and 0 on a workload whose ops never reach
# it. A span name ending in "." matches every span under that prefix.
LAYERS = {
    "taguchikit.import_ms": ("taguchikit.import", "self"),
    "cli.import_ms": ("cli.import", "self"),
    "cli.design_ms": ("cli.design", "total"),
    "cli.analyze_ms": ("cli.analyze", "total"),
    "cli.predict_ms": ("cli.predict", "total"),
    "cli.validate_ms": ("cli.validate", "total"),
    "cli.load_config_ms": ("cli.load_config", "self"),
    "cli.build_design_ms": ("cli.build_design", "self"),
    "design.bind_ms": ("design.bind", "self"),
    "design.export_run_sheet_ms": ("design.export_run_sheet", "self"),
    "analysis.read_results_csv_ms": ("analysis.read_results_csv", "self"),
    "analysis.rows_parsed": ("analysis.read_results_csv", "count:rows_parsed"),
    "analysis.values_parsed": ("analysis.read_results_csv", "count:values_parsed"),
    "analysis.analyze_ms": ("analysis.analyze", "self"),
    "analysis.run_results_in": ("analysis.analyze", "count:run_results_in"),
    "analysis.values_in": ("analysis.analyze", "count:values_in"),
    "analysis.predict_optimum_us": ("analysis.predict_optimum", "call"),
    "evaluators.table_from_results_ms": ("evaluators.table_from_results", "self"),
    "evaluators.table_evaluate_us": ("evaluators.table_evaluate", "call"),
    "evaluators.fit_surrogate_ms": ("evaluators.fit_surrogate", "self"),
    "evaluators.surrogate_evaluate_us": ("evaluators.surrogate_evaluate", "call"),
    "arrays.verify_orthogonality_ms": ("arrays.verify_orthogonality", "self"),
    "reporting.report_to_json_ms": ("reporting.report_to_json", "self"),
    "reporting.report_to_text_ms": ("reporting.report_to_text", "self"),
    "reporting.main_effects_csv_ms": ("reporting.main_effects_csv", "self"),
    "reporting.bytes_out": ("reporting.", "count:bytes_out"),
}


def _unit(name):
    return "ms" if name.endswith("_ms") else "us" if name.endswith("_us") else "count"


def p90(samples):
    """90th percentile, interpolated between samples; one sample is its own."""
    return statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]


def environment_note():
    try:
        import yaml

        pyyaml = f"PyYAML {yaml.__version__}, CSafeLoader " + (
            "available" if getattr(yaml, "__with_libyaml__", False) else "absent")
    except ImportError:
        pyyaml = "PyYAML absent"
    probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                           capture_output=True, text=True, check=False)
    cumulative = {}  # module -> ms including what it imported
    for line in probe.stderr.splitlines():
        match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
        if match:
            cumulative[match[2]] = int(match[1]) / 1000
    site = f"site imports {cumulative.get('site', 0.0):.1f} ms at interpreter start"
    if "certifi" in cumulative:
        site += f", of which certifi {cumulative['certifi']:.1f} ms"
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, {pyyaml}; "
            f"{site} (environment, not taguchikit)")


def timed_run(workload, seconds):
    """Untraced ops, interleaved with the workload's speed reference.

    A shared machine's speed can drift by a fifth within a minute, so the
    gated timings divide each op by the median of the last few reference
    measurements (unit ``ref``): a bare interpreter start for CLI ops, a
    fixed grouping pass over the same objects for in-process ops.
    """
    ops, samples, references = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(ops) % REFERENCE_EVERY == 0:
            samples.append(workload.reference())
        recent = samples[-REFERENCE_WINDOW:]
        references.append((statistics.median(w for w, _ in recent), statistics.median(c for _, c in recent)))
        ops.append(workload.op(len(ops)))
    walls = [op.wall_s * 1000 for op in ops]
    relative = [op.wall_s / wall for op, (wall, _) in zip(ops, references)]
    tail = p90(relative)
    print(f"ops: {len(ops)} in {seconds} s; reference {statistics.median(w for w, _ in samples) * 1000:.2f} ms "
          f"(median of {len(samples)})")
    print(f"latency_ms_p50: {statistics.median(walls):.2f} ms, latency_ms_p90: {p90(walls):.2f} ms, "
          f"cpu_ms_per_op: {statistics.median(op.cpu_s * 1000 for op in ops):.2f} ms, "
          f"values_per_s: {sum(op.values for op in ops) / sum(op.wall_s for op in ops):.1f} 1/s")
    print(f"latency_p90: {tail:.4f} ref with {sum(r > tail for r in relative)} of {len(ops)} samples beyond it")
    screened = [op.values / r for op, r in zip(ops, relative) if op.values]
    metrics = {
        "latency_p50": (statistics.median(relative), "ref"),
        "cpu_per_op": (statistics.median(op.cpu_s / cpu for op, (_, cpu) in zip(ops, references)), "ref"),
        "values_per_ref": (statistics.median(screened) if screened else 0.0, "1/ref"),
        "peak_rss_mb": (max(op.rss_kb for op in ops) / 1024, "MB"),
    }
    return ops, metrics


def traced_run(workload, seconds, spans_path):
    tracer = tracing.Tracer()
    ops, overhead_ms, floor_ms = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        tracer.op = i
        span = tracer.open("op")
        traced = workload.op(i, tracer)
        tracer.close(span)
        plain = workload.op(i)
        ops += [traced, plain]
        overhead_ms.append((traced.wall_s - plain.wall_s) * 1000)
        if not workload.in_process:
            floor_ms.append(workload.reference()[0] * 1000)
        i += 1
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(("id", "name", "start_ns", "end_ns", "parent", "op", "counts"),
                                          span))) + "\n")
    print_self_times(tracer.spans, i)
    metrics = layer_metrics(tracer.spans)
    metrics["startup.interpreter_ms"] = (statistics.median(floor_ms) if floor_ms else 0.0, "ms")
    metrics["trace.overhead_ms"] = (statistics.median(overhead_ms), "ms")
    print(f"tracing overhead: {statistics.median(overhead_ms):.3f} ms per op "
          f"(median of {len(overhead_ms)} traced-minus-untraced pairs); spans in {spans_path}")
    return ops, metrics


def _reaching(spans, span_name):
    """Spans matching a LAYERS span name, grouped by op."""
    per_op = defaultdict(list)
    for span in spans:
        name = span[tracing.NAME]
        if name == span_name or (span_name.endswith(".") and name.startswith(span_name)):
            per_op[span[tracing.OP]].append(span)
    return per_op


def layer_metrics(spans):
    own = tracing.self_times_ns(spans)
    metrics = {}
    for metric, (span_name, statistic) in LAYERS.items():
        per_op = _reaching(spans, span_name).values()
        if not per_op:
            value = 0.0
        elif statistic == "self":
            value = statistics.median(sum(own[s[tracing.ID]] for s in op) for op in per_op) / 1e6
        elif statistic == "total":
            value = statistics.median(sum(s[tracing.END] - s[tracing.START] for s in op) for op in per_op) / 1e6
        elif statistic == "call":
            value = statistics.median(own[s[tracing.ID]] for op in per_op for s in op) / 1e3
        else:
            key = statistic.partition(":")[2]
            value = statistics.median(sum((s[tracing.COUNTS] or {}).get(key, 0) for s in op) for op in per_op)
        metrics[metric] = (value, _unit(metric))
    return metrics


def print_self_times(spans, op_count):
    own = tracing.self_times_ns(spans)
    rows = []
    for name in {span[tracing.NAME] for span in spans}:
        per_op = _reaching(spans, name).values()
        median_ms = statistics.median(sum(own[s[tracing.ID]] for s in op) for op in per_op) / 1e6
        rows.append((median_ms, name, len(per_op), sum(map(len, per_op))))
    print(f"self time per traced op ({op_count} ops), median over the ops that reach the span:")
    for median_ms, name, ops, calls in sorted(rows, reverse=True):
        print(f"  {name:36s} {median_ms:10.3f} ms  in {ops} ops, {calls} calls")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/taguchikit/cli.py", "fixtures/expected_report.json",
                   "fixtures/clip_moulding.yaml", "fixtures/moldflow_reference.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a taguchikit checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(environment_note())
    workdir = Path(tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=BENCH))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)

        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        sizes = ", ".join(f"{k} {v}" for k, v in getattr(workload, "sizes", {}).items())
        print(f"workload {args.workload}, seed {args.seed}: setup {statistics.median(setups):.3f} s "
              f"(median of {SETUP_REPEATS}){'; inputs: ' + sizes if sizes else ''}")
        if args.trace:
            spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ops, metrics = traced_run(workload, args.seconds, spans_path)
        else:
            ops, metrics = timed_run(workload, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [op for op in ops if op.error]
    for op in failures[:5]:
        print(f"FAILED {op.kind}: {op.error}")
    print(f"failed_fraction: {len(failures) / len(ops):.4f} ({len(failures)} of {len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
