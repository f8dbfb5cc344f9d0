"""In-memory spans around taguchikit's public calls, for the traced runs.

A :class:`Tracer` temporarily replaces public functions (module attributes
and class methods) with wrappers that record one span per call: name,
start, end, parent span, op id and optional counts. Nothing inside the
package is edited; the wrappers are removed again when the traced op ends.

Run as a script, this file is the traced stand-in for
``python -m taguchikit``: it times the package imports, runs
``taguchikit.cli.main`` with every CLI-reachable call wrapped, writes the
spans as JSON to the given file and exits with the command's exit code::

    PYTHONPATH=src python perfbench/tracing.py SPANS.json analyze cfg.yaml results.csv

Only ``sys`` and ``time`` are imported before the package, so the import
spans are not shortened by modules the tracer loaded first.
"""

import sys
import time

# A span is a list, for speed: [id, name, start_ns, end_ns, parent_id, op_id, counts]
ID, NAME, START, END, PARENT, OP, COUNTS = range(7)


def _values(results):
    return sum(len(ys) for result in results for ys in result.values.values())


def _rows(results):
    # One CSV row carries one replicate of every response of its run.
    return sum(max(map(len, result.values.values()), default=0) for result in results)


def _count_parsed(args, result):
    return {"rows_parsed": _rows(result), "values_parsed": _values(result)}


def _count_analyzed(args, result):
    return {"run_results_in": len(args[1]), "values_in": _values(args[1])}


def _count_bytes(args, result):
    return {"bytes_out": len(result.encode("utf-8"))}


# (owner, attribute, span name, counter). The owner is the namespace the
# caller looks the name up in, so ``taguchikit.cli:bind`` catches the CLI's
# call to ``design.bind``.
CLI_CALLS = (
    ("taguchikit.cli", "load_config", "cli.load_config", None),
    ("taguchikit.cli", "build_design", "cli.build_design", None),
    ("taguchikit.cli", "bind", "design.bind", None),
    ("taguchikit.cli", "export_run_sheet", "design.export_run_sheet", None),
    ("taguchikit.cli", "read_results_csv", "analysis.read_results_csv", _count_parsed),
    ("taguchikit.cli", "analyze", "analysis.analyze", _count_analyzed),
    ("taguchikit.cli", "predict_optimum", "analysis.predict_optimum", None),
    ("taguchikit.cli", "validate", "analysis.validate", None),
    ("taguchikit.reporting", "report_to_json", "reporting.report_to_json", _count_bytes),
    ("taguchikit.reporting", "report_to_text", "reporting.report_to_text", _count_bytes),
    ("taguchikit.reporting", "main_effects_csv", "reporting.main_effects_csv", _count_bytes),
    ("taguchikit.reporting", "prediction_to_json", "reporting.prediction_to_json", _count_bytes),
    ("taguchikit.reporting", "prediction_to_text", "reporting.prediction_to_text", _count_bytes),
    ("taguchikit.reporting", "prediction_from_json_dict", "reporting.prediction_from_json_dict", None),
)

LIBRARY_CALLS = (
    ("taguchikit.analysis", "analyze", "analysis.analyze", _count_analyzed),
    ("taguchikit.analysis", "predict_optimum", "analysis.predict_optimum", None),
    ("taguchikit.evaluators:TableEvaluator", "from_results", "evaluators.table_from_results", None),
    ("taguchikit.evaluators:TableEvaluator", "evaluate", "evaluators.table_evaluate", None),
    ("taguchikit.evaluators", "fit_surrogate", "evaluators.fit_surrogate", None),
    ("taguchikit.evaluators:SurrogateEvaluator", "evaluate", "evaluators.surrogate_evaluate", None),
    ("taguchikit.evaluators", "verify_orthogonality", "arrays.verify_orthogonality", None),
)


def _owner(path):
    module_name, _, class_name = path.partition(":")
    owner = sys.modules[module_name]
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def open(self, name):
        span = [self._next_id, name, time.perf_counter_ns(), None,
                self._stack[-1][ID] if self._stack else None, self.op, None]
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def adopt(self, spans):
        """Add spans recorded by a child process under the span open here."""
        offset = self._next_id
        parent = self._stack[-1][ID] if self._stack else None
        for span in spans:
            span[ID] += offset
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
            span[OP] = self.op
        self._next_id += len(spans)
        self.spans.extend(spans)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        return traced

    def install(self, calls):
        """Wrap every listed call; :meth:`uninstall` restores the originals."""
        for path, attr, name, counter in calls:
            owner = _owner(path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times_ns(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {span[ID]: span[END] - span[START] for span in spans}
    for span in spans:
        if span[PARENT] in own:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _traced_cli(spans_path, argv):
    tracer = Tracer()
    span = tracer.open("taguchikit.import")
    import taguchikit  # noqa: F401

    tracer.close(span)
    span = tracer.open("cli.import")
    from taguchikit import cli

    tracer.close(span)
    tracer.install(CLI_CALLS)
    command = argv[0] if argv else "none"
    span = tracer.open(f"cli.{command}")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        import json

        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1], sys.argv[2:]))
