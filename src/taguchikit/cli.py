"""Command-line front end: design, analyze, predict, validate.

File-based workflow: a declarative YAML project config plus a results CSV
in, run sheets / reports / predictions out. Identical inputs produce
byte-identical outputs. Each command returns its outputs, and one writer
opens every output file before it writes any, then writes each in place as
``open()`` would, so an error before the first write leaves none of a
command's files behind.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import stat
import sys
from dataclasses import dataclass

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
from taguchikit.design import Design, Factor, bind, export_run_sheet, read_results_csv
from taguchikit.design import is_number, number_text, repeated_names
from taguchikit.errors import ConfigError, TaguchiKitError


@dataclass(frozen=True)
class ProjectConfig:
    """Declarative experiment definition: array, factors, responses."""

    array: str
    factors: tuple[Factor, ...]
    responses: tuple[ResponseSpec, ...]


def _read_input(path: str | os.PathLike[str], what: str) -> str:
    """Text of the file ``open(path)`` reads; a UTF-8 byte-order mark (as in Excel exports) is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def load_config(path: str | os.PathLike[str]) -> ProjectConfig:
    import yaml  # here, so ``validate``, which reads no config, never loads PyYAML

    text = _read_input(path, "config")
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _parse_config(data, path)


def _parse_config(data: dict, where: str | os.PathLike[str]) -> ProjectConfig:
    def fail(field_path: str, message: str) -> ConfigError:
        return ConfigError(f"{where}: {field_path}: {message}")

    def known_keys(mapping: dict, keys: tuple[str, ...], prefix: str = "") -> None:
        for key in mapping:
            if key not in keys:
                raise fail(f"{prefix}{key}", "unknown key; expected one of: " + ", ".join(keys))

    known_keys(data, ("array", "factors", "responses"))
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

    def build(loc: str, make, *fields):
        """``make(*fields)``; a refusal names the entry at ``loc``."""
        try:
            return make(*fields)
        except (TaguchiKitError, OverflowError) as exc:
            raise fail(loc, str(exc)) from None

    factors = []
    for loc, item, name, unit in entries("factors", ("name", "unit", "levels")):
        levels = item.get("levels")
        if not isinstance(levels, list) or not all(map(is_number, levels)):
            raise fail(f"{loc}.levels", "expected a list of numbers")
        factors.append(build(loc, Factor, name, unit, levels))

    responses = []
    for loc, item, name, unit in entries("responses", ("name", "unit", "objective", "target")):
        value = item.get("objective", "")
        objective = next((m for m in Objective if m.value == value), None)
        if objective is None:
            raise fail(
                f"{loc}.objective",
                f"unknown objective {_named(value)}; expected one of: "
                + ", ".join(m.value for m in Objective),
            )
        target = item.get("target")
        if target is not None and not is_number(target):
            raise fail(f"{loc}.target", "expected a number")
        responses.append(build(loc, ResponseSpec, name, unit, objective, target))
    dupes = repeated_names(r.name for r in responses)
    if dupes:
        raise fail("responses", f"duplicate response name(s): {dupes}")

    return ProjectConfig(array=array, factors=tuple(factors), responses=tuple(responses))


def _named(value: object) -> str:
    """A config value as an error shows it: a list or mapping by its type, anything else by ``repr``.

    YAML aliases can nest a list many levels deep in a few bytes, so its ``repr`` can be huge.
    """
    if isinstance(value, list):
        return "a list"
    return "a mapping" if isinstance(value, dict) else repr(value)


def build_design(config: ProjectConfig, array_override: str | None = None) -> tuple[Design, str | None]:
    """Bind the configured factors; returns the design and an auto-selection note."""
    name = config.array if array_override is None else array_override
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


def _write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write a command's ``(path, text)`` outputs where and as ``open(path, "w")`` would.

    A ``None`` path is stdout. Every file is opened first, for appending, so
    nothing is emptied yet; two outputs that open one file (by device and
    inode, so also through a symlink or a hard link) are refused. Then stdout
    is written, then each file in place, a regular file emptied first. A
    failure before that removes the files this call created; a write error
    after it leaves that file short. Errors name the target as given, or ``<stdout>``.
    """
    opened = []  # (target, UTF-8 text, handle, its fstat, whether this call created it)
    inodes: set[tuple[int, int]] = set()
    try:
        try:
            for target, text in outputs:
                if target is not None:
                    data = text.encode("utf-8")
                    created = not os.path.exists(target)  # a dangling symlink's file is new too
                    handle = open(target, "ab")
                    info = os.fstat(handle.fileno())
                    opened.append((target, data, handle, info, created))
                    if (info.st_dev, info.st_ino) in inodes:
                        raise TaguchiKitError(f"two outputs name the same file: {target}")
                    inodes.add((info.st_dev, info.st_ino))
            target = "<stdout>"
            for path, text in outputs:
                if path is None:
                    _write_stdout(text)
        except BaseException:
            for path, _, _, _, created in opened:
                if created:
                    os.remove(os.path.realpath(path))
            raise
        for target, data, handle, info, _ in opened:
            if stat.S_ISREG(info.st_mode):  # only a file is emptied; ftruncate fails on /dev/null
                handle.truncate(0)
            handle.write(data)
            handle.close()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from None
    except UnicodeEncodeError as exc:  # a stdout that cannot encode the text, or a lone surrogate
        raise TaguchiKitError(f"{target}: {exc}") from None
    finally:
        for _, _, handle, _, _ in opened:
            handle.close()


def _write_stdout(text: str) -> None:
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
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


def _analyze_from_files(args: argparse.Namespace) -> AnalysisReport:
    config = load_config(args.config)
    design, _ = build_design(config, args.array)
    names = [r.name for r in config.responses]
    # The text is passed, not kept, so it is freed before analyze builds its lists.
    results = read_results_csv(_read_input(args.results, "results"), expected_responses=names)
    return analyze(design, results, config.responses)


def _cmd_design(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    config = load_config(args.config)
    design, note = build_design(config, args.array)
    sheet = export_run_sheet(design)
    return [(args.out, f"# {note}\n{sheet}" if note else sheet)]


def _cmd_analyze(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    report = _analyze_from_files(args)
    outputs = [] if args.plot_data is None else [(args.plot_data, reporting.main_effects_csv(report))]
    if args.format == "json":
        return outputs + [(args.out, reporting.report_to_json(report))]
    return outputs + [(args.out, reporting.report_to_text(report))]


def _number(option: str, text: str) -> float:
    """A number typed for ``option``, read by the results reader's rule."""
    try:
        return float(number_text(text))
    except ValueError:
        raise ConfigError(f"{option}: {text!r} is not a number") from None


def _cmd_predict(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    report = _analyze_from_files(args)
    levels = None
    if args.levels is not None:
        factors, parts = report.design.factors, args.levels.split(",")
        if len(parts) != len(factors):
            raise ConfigError(f"--levels needs {len(factors)} comma-separated values, got {len(parts)}")
        levels = [f.level_index(_number("--levels", p.strip())) for f, p in zip(factors, parts)]
    prediction = predict_optimum(report, args.response, levels)
    if args.format == "text":
        return [(args.out, reporting.prediction_to_text(prediction))]
    return [(args.out, reporting.prediction_to_json(prediction))]


def _cmd_validate(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    import json  # only validate reads JSON

    confirmation = _number("--confirmed", args.confirmed)
    text = _read_input(args.prediction, "prediction")
    try:
        prediction = reporting.prediction_from_json_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{args.prediction}: {exc}") from None
    confirmed = validate(prediction, confirmation)
    if args.format == "json":
        return [(args.out, reporting.prediction_to_json(confirmed))]
    return [(args.out, reporting.prediction_to_text(confirmed))]


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
        help="comma-separated physical values, one per factor (default: per-response optimum);"
        " a list that starts with a negative value is written --levels=-1.25,0.5",
    )
    p_predict.add_argument("--format", choices=("json", "text"), default="json")
    p_predict.set_defaults(handler=_cmd_predict)

    p_validate = sub.add_parser(
        "validate", parents=[out], help="compare a prediction with a confirmation run"
    )
    p_validate.add_argument("prediction", help="prediction JSON from 'predict'")
    p_validate.add_argument("--confirmed", required=True, help="measured confirmation value")
    p_validate.add_argument("--format", choices=("json", "text"), default="text")
    p_validate.set_defaults(handler=_cmd_validate)

    return parser


# Every line break str.splitlines() knows, escaped: a name from the input that
# holds one would otherwise split a diagnostic over two lines.
_ESCAPED_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _write_outputs(args.handler(args))
    except (TaguchiKitError, OSError) as exc:
        # With fd 2 closed, sys.stderr is None or fails to write: the line is
        # lost, the exit code is not.
        if sys.stderr is not None:
            try:
                print(f"error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}", file=sys.stderr)
            except OSError:
                pass
        return 2
    return 0


def run() -> None:
    """Console entry point: one short process that keeps no reference cycles alive.

    The cyclic collector stays off, and the objects are frozen before exit so
    that interpreter finalization does not walk them.
    """
    gc.disable()  # probe: speed clip_cli -11.8 % with gc.freeze, in 10 of 10 pairs (BENCH_14.json)
    code = main()
    gc.freeze()  # probe: speed bulk_csv about -4 %, faster in 19 of 30 pairs
    raise SystemExit(code)
