"""Command-line front end: design, analyze, predict, validate.

File-based workflow: a declarative YAML project config plus a results CSV
in, run sheets / reports / predictions out. Identical inputs produce
byte-identical outputs, and files are written via write-then-rename so an
error never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from taguchikit import reporting
from taguchikit.analysis import (
    AnalysisReport,
    Objective,
    ResponseSpec,
    analyze,
    predict_optimum,
    validate,
)
from taguchikit.arrays import get_array, select_array
from taguchikit.design import Design, Factor, _repeated, bind, export_run_sheet, read_results_csv
from taguchikit.errors import ConfigError, TaguchiKitError
from taguchikit.reporting import _is_number

__all__ = ["ProjectConfig", "load_config", "build_design", "main", "run"]


@dataclass(frozen=True)
class ProjectConfig:
    """Declarative experiment definition: array, factors, responses."""

    array: str
    factors: tuple[Factor, ...]
    responses: tuple[ResponseSpec, ...]
    precision: dict[str, int] = field(default_factory=dict)


def _read_input(path: str | Path, what: str) -> str:
    """Text of an input file; a UTF-8 byte-order mark (as in Excel exports) is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


# libyaml overflows the C stack near 25,000 levels of nesting, and a text can
# nest no deeper than it is long; longer texts go to the pure-Python parser,
# which fails on deep nesting with a RecursionError instead.
_C_YAML_LIMIT = 4096


def _load_yaml(text: str, where: str):
    """``yaml.safe_load``, through libyaml when it is installed and the text is small.

    A text libyaml rejects is parsed again by the pure-Python loader, so the
    error names the same position as without libyaml. PyYAML is imported
    here, so ``validate``, which reads no config, never loads it.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", None)
    try:
        if loader is not None and len(text) <= _C_YAML_LIMIT:
            try:
                return yaml.load(text, Loader=loader)
            except yaml.YAMLError:
                pass
        return yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | Path) -> ProjectConfig:
    path = Path(path)
    data = _load_yaml(_read_input(path, "config"), str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _parse_config(data, str(path))


def _parse_config(data: dict, where: str) -> ProjectConfig:
    def fail(field_path: str, message: str) -> ConfigError:
        return ConfigError(f"{where}: {field_path}: {message}")

    def known_keys(mapping: dict, keys: tuple[str, ...], prefix: str = "") -> None:
        for key in mapping:
            if key not in keys:
                raise fail(f"{prefix}{key}", "unknown key; expected one of: " + ", ".join(keys))

    known_keys(data, ("array", "factors", "responses", "precision"))
    array = data.get("array")
    if not isinstance(array, str) or not array:
        raise fail("array", "expected an array name or 'auto'")

    def entries(key: str, fields: tuple[str, ...]):
        """Each mapping of the non-empty list ``data[key]``, with its checked name and unit."""
        raw = data.get(key)
        if not isinstance(raw, list) or not raw:
            raise fail(key, "expected a non-empty list")
        for i, item in enumerate(raw):
            loc = f"{key}[{i}]"
            if not isinstance(item, dict):
                raise fail(loc, "expected a mapping with " + "/".join(fields))
            known_keys(item, fields, f"{loc}.")
            name = item.get("name")
            if not isinstance(name, str) or not name:
                raise fail(f"{loc}.name", "expected a non-empty string")
            unit = item.get("unit", "")
            if not isinstance(unit, str):
                raise fail(f"{loc}.unit", "expected a string")
            yield loc, item, name, unit

    factors = []
    for loc, item, name, unit in entries("factors", ("name", "unit", "levels")):
        levels = item.get("levels")
        if not isinstance(levels, list) or not all(map(_is_number, levels)):
            raise fail(f"{loc}.levels", "expected a list of numbers")
        try:
            factors.append(Factor(name=name, unit=unit, levels=tuple(levels)))
        except (TaguchiKitError, OverflowError) as exc:
            raise fail(loc, str(exc)) from None

    responses = []
    for loc, item, name, unit in entries("responses", ("name", "unit", "objective", "target")):
        value = item.get("objective", "")
        try:
            objective = Objective(value)
        except ValueError:
            raise fail(
                f"{loc}.objective",
                f"unknown objective {value!r}; expected one of: "
                + ", ".join(m.value for m in Objective),
            ) from None
        target = item.get("target")
        if target is not None and not _is_number(target):
            raise fail(f"{loc}.target", "expected a number")
        try:
            responses.append(
                ResponseSpec(
                    name=name,
                    unit=unit,
                    objective=objective,
                    target=float(target) if target is not None else None,
                )
            )
        except (TaguchiKitError, OverflowError) as exc:
            raise fail(loc, str(exc)) from None
    dupes = _repeated(r.name for r in responses)
    if dupes:
        raise fail("responses", f"duplicate response name(s): {dupes}")

    precision = data.get("precision", {})
    if not isinstance(precision, dict):
        raise fail("precision", "expected a mapping of quantity name to decimals")
    known_keys(precision, tuple(reporting.REPORT_PRECISION), "precision.")
    for key, decimals in precision.items():
        if type(decimals) is not int or not 0 <= decimals <= 15:
            raise fail(f"precision.{key}", f"expected 0 to 15 decimals, got {decimals!r}")

    return ProjectConfig(
        array=array,
        factors=tuple(factors),
        responses=tuple(responses),
        precision=dict(precision),
    )


def build_design(config: ProjectConfig, array_override: str | None = None) -> tuple[Design, str | None]:
    """Bind the configured factors; returns the design and an auto-selection note."""
    name = array_override or config.array
    note = None
    if name == "auto":
        level_counts = {len(f.levels) for f in config.factors}
        if len(level_counts) != 1:
            raise ConfigError(
                "auto array selection needs all factors at the same level count; got "
                + ", ".join(str(c) for c in sorted(level_counts))
            )
        levels = level_counts.pop()
        array = select_array(len(config.factors), levels)
        note = f"array: {array.name} (auto-selected for {len(config.factors)} factors x {levels} levels)"
    else:
        array = get_array(name)
    return bind(array, config.factors), note


def _write_output(path: str | None, text: str) -> None:
    """Print to stdout, or atomically replace the target file.

    The file gets the mode ``open(path, "w")`` would give it: an existing
    target keeps its permission bits, a new one gets ``0o666`` less the umask.
    The temporary file's name does not grow with the target's; errors name the target.
    """
    if path is None:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError:
            # The unwritten bytes stay buffered, and the interpreter's flush at
            # exit would fail on them again; from now on fd 1 discards them.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    tmp = os.path.join(os.path.dirname(path), f".taguchikit-{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if os.path.exists(path):
                    os.chmod(handle.fileno(), os.stat(path).st_mode & 0o777)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _analyze_from_files(config_path: str, results_path: str, array_override: str | None) -> tuple[ProjectConfig, AnalysisReport]:
    config = load_config(config_path)
    design, _ = build_design(config, array_override)
    names = [r.name for r in config.responses]
    # The text is passed, not kept, so it is freed before analyze builds its lists.
    results = read_results_csv(_read_input(results_path, "results"), expected_responses=names)
    return config, analyze(design, results, config.responses)


def _cmd_design(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    design, note = build_design(config, args.array)
    sheet = export_run_sheet(design)
    if note:
        sheet = f"# {note}\n{sheet}"
    _write_output(args.out, sheet)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config, report = _analyze_from_files(args.config, args.results, args.array)
    if args.plot_data:
        _write_output(args.plot_data, reporting.main_effects_csv(report))
    if args.format == "json":
        _write_output(args.out, reporting.report_to_json(report))
    else:
        _write_output(args.out, reporting.report_to_text(report, config.precision))
    return 0


def _parse_level_override(design: Design, text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(design.factors):
        raise ConfigError(
            f"--levels needs {len(design.factors)} comma-separated values, got {len(parts)}"
        )
    indices = []
    for factor, part in zip(design.factors, parts):
        try:
            value = float(part)
        except ValueError:
            raise ConfigError(f"--levels: {part!r} is not a number") from None
        indices.append(factor.level_index(value))
    return indices


def _cmd_predict(args: argparse.Namespace) -> int:
    config, report = _analyze_from_files(args.config, args.results, args.array)
    levels = None
    if args.levels is not None:
        levels = _parse_level_override(report.design, args.levels)
    prediction = predict_optimum(report, args.response, levels)
    if args.format == "text":
        _write_output(args.out, reporting.prediction_to_text(prediction, config.precision))
    else:
        _write_output(args.out, reporting.prediction_to_json(prediction))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import json  # only validate reads JSON

    text = _read_input(args.prediction, "prediction")
    try:
        prediction = reporting.prediction_from_json_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{args.prediction}: {exc}") from None
    confirmed = validate(prediction, args.confirmed)
    if args.format == "json":
        _write_output(args.out, reporting.prediction_to_json(confirmed))
    else:
        _write_output(args.out, reporting.prediction_to_text(confirmed))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taguchikit",
        description="Orthogonal-array experiment design, S/N analysis, and optimum prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write to file instead of stdout")
    project = argparse.ArgumentParser(add_help=False, parents=[out])
    project.add_argument("config", help="project config (YAML)")
    project.add_argument("--array", help="override the configured array (name or 'auto')")
    study = argparse.ArgumentParser(add_help=False, parents=[project])
    study.add_argument("results", help="results CSV (run,<response>,...)")

    p_design = sub.add_parser(
        "design", parents=[project], help="emit the run sheet for a project config"
    )
    p_design.set_defaults(handler=_cmd_design)

    p_analyze = sub.add_parser("analyze", parents=[study], help="screen measured results")
    p_analyze.add_argument("--format", choices=("json", "text"), default="text")
    p_analyze.add_argument("--plot-data", help="also write main-effects plot data CSV here")
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_predict = sub.add_parser(
        "predict", parents=[study], help="additive prediction at chosen levels"
    )
    p_predict.add_argument("--response", required=True, help="response to predict")
    p_predict.add_argument(
        "--levels",
        help="comma-separated physical values, one per factor (default: per-response optimum)",
    )
    p_predict.add_argument("--format", choices=("json", "text"), default="json")
    p_predict.set_defaults(handler=_cmd_predict)

    p_validate = sub.add_parser(
        "validate", parents=[out], help="compare a prediction with a confirmation run"
    )
    p_validate.add_argument("prediction", help="prediction JSON from 'predict'")
    p_validate.add_argument("--confirmed", type=float, required=True, help="measured confirmation value")
    p_validate.add_argument("--format", choices=("json", "text"), default="text")
    p_validate.set_defaults(handler=_cmd_validate)

    return parser


# Every line break str.splitlines() knows, escaped: a name from the input that
# holds one would otherwise split a diagnostic over two lines.
_ESCAPED_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TaguchiKitError, OSError) as exc:
        # With fd 2 closed, sys.stderr is None or fails to write: the line is
        # lost, the exit code is not.
        if sys.stderr is not None:
            try:
                print(f"error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}", file=sys.stderr)
            except OSError:
                pass
        return 2


def run() -> None:
    """Console entry point: one short process that keeps no reference cycles alive.

    The cyclic collector stays off, and the objects are frozen before exit so
    that interpreter finalization does not walk them.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
