"""Command-line front end: design, analyze, predict, validate.

File-based workflow: a declarative YAML project config plus a results CSV
in, run sheets / reports / predictions out. Identical inputs produce
byte-identical outputs. Each command returns its outputs, and one writer
puts them out through write-then-rename, so an error leaves none of a
command's files behind.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import stat
import sys
from dataclasses import dataclass, field

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
from taguchikit.design import Design, Factor, _parse, _repeated, bind, export_run_sheet, read_results_csv
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


def _read_input(path: str, what: str) -> str:
    """Text of the file ``open(path)`` reads; a UTF-8 byte-order mark (as in Excel exports) is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


# libyaml overflows the C stack near 25,000 levels of nesting. Each level needs
# one of the indicators "[{-?:", so a text holding more of them than this may
# nest too deep and goes to the pure-Python parser, which fails on deep nesting
# with a RecursionError instead.
_C_YAML_LIMIT = 4096


def _load_yaml(text: str, where: str):
    """``yaml.safe_load``, through libyaml when it is installed and the text cannot nest deep.

    A text libyaml rejects is parsed again by the pure-Python loader, so the
    error names the same position as without libyaml. PyYAML is imported
    here, so ``validate``, which reads no config, never loads it.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", None)
    try:
        if loader is not None and sum(map(text.count, "[{-?:")) <= _C_YAML_LIMIT:
            try:
                return yaml.load(text, Loader=loader)
            except yaml.YAMLError:
                pass
        return yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | os.PathLike[str]) -> ProjectConfig:
    path = os.fspath(path)
    data = _load_yaml(_read_input(path, "config"), path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _parse_config(data, path)


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
    """Write a command's ``(path, text)`` outputs; on any failure, put none of its files in place.

    A ``None`` path is stdout. Each target is resolved once, and only that path
    is used: a file lands where ``open(target, "w")`` would put it, through a
    symlink, with the mode it would give (an existing file keeps its permission
    bits, a new one gets ``0o666`` less the umask). Two targets may not resolve
    to one path, nor be hard links to one existing file. Each file is written to
    a temporary name of pid and index beside it, then stdout, then the files are
    renamed into place in order; a failure removes the temporary files left. The
    rename replaces a hard-linked target's directory entry, so the file's other
    names keep the old content. Errors name the target as given, or ``<stdout>``.
    """
    pending: list[tuple[str, str, str]] = []  # (temporary name, path, target), not yet renamed
    try:
        files: dict[str, tuple[str, str]] = {}  # resolved path: (target, text)
        for target, text in outputs:
            if target is not None:
                if not target:  # as open("") fails; realpath("") is the cwd
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
                if not os.path.basename(target):  # as open("x/", "w") fails; realpath drops the "/"
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                path = os.path.realpath(target)
                if path in files:
                    raise TaguchiKitError(f"two outputs name the same file: {target}")
                files[path] = target, text
        inodes: set[tuple[int, int]] = set()  # (st_dev, st_ino) of the existing targets
        for index, (path, (target, text)) in enumerate(files.items()):
            try:
                info = os.stat(path)  # a symlink loop fails here, as in open()
            except FileNotFoundError:
                mode = 0  # a new file: os.open gives it 0o666 less the umask
            else:
                mode = info.st_mode
                if (info.st_dev, info.st_ino) in inodes:  # two hard links to one file
                    raise TaguchiKitError(f"two outputs name the same file: {target}")
                inodes.add((info.st_dev, info.st_ino))
            if stat.S_ISDIR(mode):  # refused here, not by a rename after another file is in place
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = os.path.join(os.path.dirname(path), f".taguchikit-{os.getpid()}-{index}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, path, target))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if mode:
                    os.chmod(handle.fileno(), mode & 0o777)
        target = "<stdout>"
        for path, text in outputs:
            if path is None:
                _write_stdout(text)
        while pending:
            tmp, path, target = pending[0]
            os.replace(tmp, path)
            del pending[0]
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from None
    except UnicodeEncodeError as exc:  # a stdout that cannot encode the text, or a lone surrogate
        raise TaguchiKitError(f"{target}: {exc}") from None
    finally:
        for tmp, _, _ in pending:
            os.unlink(tmp)


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


def _analyze_from_files(args: argparse.Namespace) -> tuple[ProjectConfig, AnalysisReport]:
    config = load_config(args.config)
    design, _ = build_design(config, args.array)
    names = [r.name for r in config.responses]
    # The text is passed, not kept, so it is freed before analyze builds its lists.
    results = read_results_csv(_read_input(args.results, "results"), expected_responses=names)
    return config, analyze(design, results, config.responses)


def _cmd_design(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    config = load_config(args.config)
    design, note = build_design(config, args.array)
    sheet = export_run_sheet(design)
    return [(args.out, f"# {note}\n{sheet}" if note else sheet)]


def _cmd_analyze(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    config, report = _analyze_from_files(args)
    outputs = [] if args.plot_data is None else [(args.plot_data, reporting.main_effects_csv(report))]
    if args.format == "json":
        return outputs + [(args.out, reporting.report_to_json(report))]
    return outputs + [(args.out, reporting.report_to_text(report, config.precision))]


def _number(option: str, text: str) -> float:
    """A number typed for ``option``, read by the results reader's rule."""
    try:
        return _parse(text, float)
    except ValueError:
        raise ConfigError(f"{option}: {text!r} is not a number") from None


def _cmd_predict(args: argparse.Namespace) -> list[tuple[str | None, str]]:
    config, report = _analyze_from_files(args)
    levels = None
    if args.levels is not None:
        factors, parts = report.design.factors, args.levels.split(",")
        if len(parts) != len(factors):
            raise ConfigError(f"--levels needs {len(factors)} comma-separated values, got {len(parts)}")
        levels = [f.level_index(_number("--levels", p.strip())) for f, p in zip(factors, parts)]
    prediction = predict_optimum(report, args.response, levels)
    if args.format == "text":
        return [(args.out, reporting.prediction_to_text(prediction, config.precision))]
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
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
