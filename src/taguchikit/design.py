"""Bind factors to array columns, export run sheets, and read the results measured for their runs."""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat

from taguchikit.arrays import OrthogonalArray
from taguchikit.errors import BindError, InvalidLevelError, ResultsFormatError

__all__ = [
    "Factor", "Run", "Design", "RunResult",
    "bind", "export_run_sheet", "number_label", "read_results_csv",
]


def number_label(x: float) -> str:
    """Shortest exact decimal label for a float.

    Integer-valued floats drop the trailing ``.0`` (``47.0`` -> ``"47"``),
    everything else uses ``repr`` which round-trips exactly. This is what
    keeps exported run sheets byte-identical to their declared levels.
    """
    if float(x).is_integer():
        return str(int(x))
    return repr(x)


def repeated_names(names: Iterable[str]) -> str:
    """The names that occur more than once, sorted and comma-separated; empty if none."""
    return ", ".join(sorted(n for n, count in Counter(names).items() if count > 1))


@dataclass(frozen=True)
class Factor:
    """A controllable process input with its tested settings.

    Levels are strictly ascending physical values; the unit is an opaque
    label carried through to reports (no conversion is attempted).
    """

    name: str
    unit: str
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.name:
            raise BindError("factor name must be non-empty")
        if len(self.levels) < 2:
            raise BindError(f"factor {self.name!r} needs >= 2 levels, got {len(self.levels)}")
        for v in self.levels:
            if not math.isfinite(v):
                raise BindError(f"factor {self.name!r} has a non-finite level: {v!r}")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise BindError(f"levels of factor {self.name!r} must be strictly increasing")

    def label(self) -> str:
        return f"{self.name}({self.unit})" if self.unit else self.name

    def level_index(self, value: float) -> int:
        """Index of a physical value in the level list (exact match)."""
        try:
            return self.levels.index(value)
        except ValueError:
            choices = ", ".join(number_label(v) for v in self.levels)
            raise InvalidLevelError(
                f"{number_label(value)} is not a level of {self.name!r} (levels: {choices})"
            ) from None


@dataclass(frozen=True)
class Run:
    """One experiment: a 1-based run number and its factor settings."""

    number: int
    settings: dict[str, float]


@dataclass(frozen=True)
class Design:
    """An orthogonal array with factors bound to its columns.

    The run sheet substitutes physical values for level indices while
    preserving the array's row order, so run numbers are stable across
    exports and analyses.
    """

    array: OrthogonalArray
    factors: tuple[Factor, ...]
    runs: tuple[Run, ...]

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)


@dataclass(frozen=True)
class RunResult:
    """Measured replicate values for one run, keyed by response name."""

    run_number: int
    values: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        try:
            operator.index(self.run_number)
        except TypeError:
            raise ResultsFormatError(
                f"run number must be an integer, got {type(self.run_number).__name__}"
            ) from None
        values = {}
        for name, ys in self.values.items():
            ys = values[name] = tuple(map(float, ys))
            if not ys:
                raise ResultsFormatError(
                    f"run {self.run_number}: response {name!r} has no replicate values"
                )
            # A finite sum has only finite terms; an infinite one may also be an overflow.
            bad = [] if math.isfinite(sum(ys)) else [y for y in ys if not math.isfinite(y)]
            if bad:
                raise ResultsFormatError(
                    f"run {self.run_number}: response {name!r} has a non-finite value: {bad[0]!r}"
                )
        object.__setattr__(self, "values", values)


def bind(array: OrthogonalArray, factors: Sequence[Factor]) -> Design:
    """Bind one factor per array column, in order.

    Raises :class:`BindError` on a factor/column count mismatch, a level
    cardinality mismatch, or duplicate factor names.
    """
    factors = tuple(factors)
    if len(factors) != array.columns:
        raise BindError(
            f"{array.name} has {array.columns} columns but {len(factors)} factors were given"
        )
    dupes = repeated_names(f.name for f in factors)
    if dupes:
        raise BindError(f"duplicate factor names: {dupes}")
    for j, factor in enumerate(factors):
        want = array.levels_per_column[j]
        if len(factor.levels) != want:
            raise BindError(
                f"factor {factor.name!r} has {len(factor.levels)} levels but column "
                f"{j + 1} of {array.name} has {want}"
            )
    runs = tuple(
        Run(i + 1, {f.name: f.levels[row[j]] for j, f in enumerate(factors)})
        for i, row in enumerate(array.cells)
    )
    return Design(array=array, factors=factors, runs=runs)


def export_run_sheet(design: Design) -> str:
    """Run sheet as CSV: ``run,<factor(unit)>,...`` with one row per run.

    Values are printed with their shortest exact decimal form, so levels
    declared as ``47`` or ``3.5`` come back out character-identical.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run"] + [f.label() for f in design.factors])
    for run in design.runs:
        writer.writerow([run.number] + [number_label(run.settings[f.name]) for f in design.factors])
    return buf.getvalue()


# A table is read this many lines at a time, split from slices of about this many
# characters, so that only one batch of lines and cells exists at a time.
_BATCH_LINES = 1024
_SLICE_CHARS = 1 << 16


def read_results_csv(
    text: str, expected_responses: Sequence[str] | None = None
) -> tuple[RunResult, ...]:
    """Parse a results table: header ``run,<response>,...``, one row per run.

    Repeated rows for the same run number are replicates, appended in file
    order. Each line, as ``str.splitlines`` cuts them, is one row: blank and
    ``#`` lines are skipped, and a quoted cell may not span lines. The header
    names each column once; each row is as wide as the header, starts with an
    integer run number and holds a finite number in every other cell, each
    written in ASCII without ``_``. Errors name the row by its line number in
    the file, and a bad cell by its column.
    """
    lines = chain.from_iterable(map(str.splitlines, _slices(text)))
    for done, line in enumerate(lines, 1):
        if _holds_data(line):
            header = [h.strip() for h in _cells(line, done)]
            break
    else:
        raise ResultsFormatError("results table is empty")
    if header[0] != "run":
        raise ResultsFormatError("results table must start with a 'run' column")
    repeated = repeated_names(header)
    if repeated:
        raise ResultsFormatError(f"results table repeats column(s): {repeated}")
    responses = header[1:]
    if not responses:
        raise ResultsFormatError("results table has no response columns")
    if expected_responses is not None:
        present = set(responses)
        missing = [r for r in expected_responses if r not in present]
        if missing:
            raise ResultsFormatError(
                f"results table lacks response column(s): {', '.join(missing)}"
            )
    width = len(responses)
    # Each run's rows laid end to end; response i is every width-th value from i. Zipping
    # one iterator over the values ``width`` times cuts them into rows.
    flat: dict[int, list[float]] = {}
    while batch := list(islice(lines, _BATCH_LINES)):
        try:
            numbers, values = _plain_rows(batch, len(header))
        except ValueError:
            numbers, values = _checked_rows(batch, done, header)
        for number, row in zip(numbers, zip(*[iter(values)] * width)):
            flat.setdefault(number, []).extend(row)
        done += len(batch)
    results = []
    for number in sorted(flat):
        ys = flat.pop(number)  # freed once its result holds the values
        results.append(RunResult(number, {name: ys[i::width] for i, name in enumerate(responses)}))
    return tuple(results)


def _slices(text: str) -> Iterator[str]:
    """``text`` cut just after a ``\\n`` every ``_SLICE_CHARS`` characters or so.

    ``str.splitlines`` splits the slices into the text's lines; a text
    without ``\\n`` is one slice.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _holds_data(line: str) -> bool:
    """Whether a line is a row: blank lines and lines starting with ``#`` are not."""
    return line.lstrip()[:1] not in ("", "#")


def _plain_rows(lines: list[str], width: int) -> tuple[list[int], list[float]]:
    """Lines converted in bulk: their run numbers, and their other cells as row-major values.

    Every line must be a plain row: ``width`` cells split at commas, no longer
    than csv's field limit, an integer first and finite numbers after, all in
    ASCII without ``_`` (see ``number_text``). A quote, a comment or a blank line
    fails these. Raises ``ValueError`` at any other line, which leaves skipping
    and diagnosis to ``_checked_rows``.
    """
    if list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
        raise ValueError("a line of another width")
    if max(map(len, lines)) > csv.field_size_limit():
        raise ValueError("a line that may hold a cell beyond the csv field limit")
    # The joined batch is in ``number_text``'s form exactly when each of its cells is.
    cells = number_text(",".join(lines)).split(",")
    numbers = list(map(int, cells[::width]))
    del cells[::width]
    values = list(map(float, cells))
    # A finite sum has only finite terms.
    if not math.isfinite(sum(values)):
        raise ValueError("a value that is not finite, or a sum that overflows")
    return numbers, values


def _checked_rows(lines: list[str], done: int, header: list[str]) -> tuple[list[int], list[float]]:
    """``_plain_rows`` one line at a time, after ``done`` lines of the file: blank and
    ``#`` lines are skipped, and the first fault is raised, naming its line and column.
    """
    numbers: list[int] = []
    values: list[float] = []
    for line_number, line in enumerate(lines, done + 1):
        if not _holds_data(line):
            continue
        row = _cells(line, line_number)
        if len(row) != len(header):
            raise ResultsFormatError(
                f"row {line_number}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            numbers.append(int(number_text(row[0])))
        except ValueError:
            raise ResultsFormatError(
                f"row {line_number}, column 'run': not an integer: {row[0]!r}"
            ) from None
        for name, cell in zip(header[1:], row[1:]):
            try:
                value = float(number_text(cell))
            except ValueError:
                raise ResultsFormatError(
                    f"row {line_number}, column {name!r}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ResultsFormatError(
                    f"row {line_number}, column {name!r}: not a finite number: {cell!r}"
                )
            values.append(value)
    return numbers, values


def number_text(cell: str) -> str:
    """``cell`` if it is in the form a spreadsheet writes: ASCII, without ``_``.

    ``int`` and ``float`` also take digits of other scripts and ``_`` between
    digits; a table that holds them was not written as numbers.
    """
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return cell


def is_number(value: object) -> bool:
    """Whether a value parsed from JSON or YAML is a number (an int or a float, not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cells(line: str, line_number: int) -> list[str]:
    """A line's cells as non-strict csv reads them; a quoted cell must close on the line."""
    # A quoted cell left open reads on into the second, empty line.
    reader = csv.reader((line, ""))
    try:
        cells = next(reader)
    except csv.Error as exc:
        raise ResultsFormatError(f"row {line_number}: {exc}") from None
    if reader.line_num > 1:
        raise ResultsFormatError(f"row {line_number}: a quoted cell may not span lines")
    return cells
