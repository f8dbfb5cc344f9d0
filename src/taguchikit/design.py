"""Bind physical factors to array columns and produce concrete run sheets."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

from taguchikit.arrays import OrthogonalArray
from taguchikit.errors import BindError, InvalidLevelError, ResultsFormatError
from taguchikit.formatting import number_label

__all__ = ["Factor", "Run", "Design", "bind", "export_run_sheet", "read_run_sheet"]


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
    names = [f.name for f in factors]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise BindError(f"duplicate factor names: {', '.join(dupes)}")
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


def read_run_sheet(text: str) -> tuple[Run, ...]:
    """Parse a run-sheet CSV back into runs (inverse of :func:`export_run_sheet`).

    Lines starting with ``#`` are ignored so annotated exports round-trip.
    Header units in parentheses are stripped from the factor names.
    """
    table = _read_run_table(text, "run sheet")
    names = [_strip_unit(h) for h in next(table)[1:]]
    width = len(names)
    return tuple(
        Run(number, dict(zip(names, values[i * width : (i + 1) * width])))
        for numbers, values in table
        for i, number in enumerate(numbers)
    )


# A text with any of these goes through ``_data_lines``. ``#`` may start a comment.
# ``"`` may open a quoted cell: csv keeps the breaks of the lines inside it as they
# are, and a quoted cell of blanks reads like a blank line. The rest are line breaks
# that ``str.splitlines`` knows and csv does not.
_FILTERED = ("#", '"', "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _read_run_table(text: str, what: str) -> Iterator:
    """Read a ``run,<column>,...`` CSV table: yield its header, then ``(numbers, values)``
    for one or more rows at a time: each row's run number, and the rows' other cells
    as one row-major list.

    Blank lines and lines starting with ``#`` are skipped. The header must
    start with ``run`` and name each column once; each row must be as wide
    as the header, start with an integer run number and carry a finite
    number in every other cell. Errors name the row by its 1-based line
    number in the file.
    """
    direct = not any(c in text for c in _FILTERED)

    def rows() -> Iterator[list[str]]:
        if not direct:
            return csv.reader(_data_lines(text))
        # Lines decoded on demand from one byte copy are never all in memory at once.
        data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
        return csv.reader(io.TextIOWrapper(data, "utf-8", "surrogatepass", newline=""))

    def blank(row: list[str]) -> bool:
        # Read directly, a blank line is an empty row or one cell of whitespace.
        return not row or (direct and len(row) == 1 and not row[0].strip())

    reader = rows()
    try:
        for row in reader:
            if not blank(row):
                header = [h.strip() for h in row]
                break
        else:
            raise ResultsFormatError(f"{what} is empty")
        if header[0] != "run":
            raise ResultsFormatError(f"{what} must start with a 'run' column")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ResultsFormatError(f"{what} repeats column(s): {', '.join(repeated)}")
        yield header
        width = len(header)
        done = reader.line_num
        try:
            for batch in _plain_batches(reader, width):
                yield batch
                done = reader.line_num
            return
        except (ValueError, csv.Error):
            pass
        # A row after line ``done`` is not plain: read on from there one row at a
        # time, so that the first fault is named with its line, and a whitespace
        # line is skipped.
        reader = rows()
        for row in reader:
            if reader.line_num == done:
                break
        for row in reader:
            if len(row) != width:
                if blank(row):
                    continue
                raise ResultsFormatError(
                    f"row {reader.line_num}: expected {width} cells, got {len(row)}"
                )
            try:
                number = int(row[0])
            except ValueError:
                if blank(row):  # a table of the run column alone
                    continue
                raise ResultsFormatError(
                    f"row {reader.line_num}, column 'run': not an integer: {row[0]!r}"
                ) from None
            yield [number], _cell_values(header[1:], row[1:], reader.line_num)
    except csv.Error as exc:
        raise ResultsFormatError(f"row {reader.line_num}: {exc}") from None


def _plain_batches(
    reader: Iterator[list[str]], width: int
) -> Iterator[tuple[list[int], list[float]]]:
    """Rows in batches, each converted in bulk: its run numbers and row-major values.

    A plain row is as wide as the header, starts with an integer and holds
    finite numbers; empty rows are skipped. Raises ``ValueError`` (or
    ``csv.Error``) at the first batch with any other row, which leaves the
    diagnosis to the row-by-row read.
    """
    nonempty = filter(None, reader)
    while batch := list(islice(nonempty, 256)):
        if any(len(row) != width for row in batch):
            raise ValueError("a row of another width")
        cells = list(chain.from_iterable(batch))
        numbers = list(map(int, cells[::width]))
        del cells[::width]
        values = list(map(float, cells))
        # A finite sum has only finite terms.
        if not math.isfinite(sum(values)):
            raise ValueError("a value that is not finite, or a sum that overflows")
        yield numbers, values


def _data_lines(text: str) -> Iterator[str]:
    """The lines of a table as csv reads them, with comments and blank lines emptied.

    A skipped line becomes an empty line, so the reader's line count stays the
    file's; each kept line ends in ``\\n``, so a quoted cell that spans lines
    keeps its breaks. A line inside a quoted cell is kept whole: it is never a
    comment and never blank.
    """
    quoted = False
    for line in text.splitlines():
        if quoted or (line.strip() and not line.lstrip().startswith("#")):
            yield line + "\n"
            if '"' in line:
                # Inside a quoted cell, a line reads on as if after the cell's opening quote.
                quoted = _ends_in_quoted_cell('"' + line if quoted else line)
        else:
            yield "\n"


# As csv reads quotes: a cell that starts with ``"`` is quoted up to the next ``"``
# that is not doubled; anywhere else ``"`` is an ordinary character.
_CLOSED_QUOTED_CELL = r'(^|,)"(?:[^"]|"")*"(?!")'
_OPENING_QUOTE = r'(^|,)"'


def _ends_in_quoted_cell(line: str) -> bool:
    """Whether csv, reading ``line`` from the start of a row, ends it inside a quoted cell."""
    return re.search(_OPENING_QUOTE, re.sub(_CLOSED_QUOTED_CELL, r"\1", line)) is not None


def _cell_values(names: Sequence[str], cells: Sequence[str], line: int) -> list[float]:
    """A row's cells as finite numbers; raises for the first that is not, naming its column."""
    values = []
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            raise ResultsFormatError(
                f"row {line}, column {name!r}: not a number: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise ResultsFormatError(f"row {line}, column {name!r}: not a finite number: {cell!r}")
        values.append(value)
    return values


def _strip_unit(label: str) -> str:
    if label.endswith(")") and "(" in label:
        return label[: label.rindex("(")].rstrip()
    return label
