"""Bind physical factors to array columns and produce concrete run sheets."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
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
    return tuple(Run(number, dict(zip(names, values))) for number, values in table)


def _read_run_table(text: str, what: str) -> Iterator:
    """Read a ``run,<column>,...`` CSV table: yield its header, then ``(run, values)`` per row.

    Blank lines and lines starting with ``#`` are skipped. The header must
    start with ``run`` and name each column once; each row must be as wide
    as the header, start with an integer run number and carry a finite
    number in every other cell. Errors name the row by its 1-based line
    number in the file.
    """
    # A skipped line is read as an empty row, so the reader's line count stays the file's;
    # each line keeps a break, so a quoted cell that spans lines keeps it too.
    reader = csv.reader(
        line + "\n" if line.strip() and not line.lstrip().startswith("#") else "\n"
        for line in text.splitlines()
    )
    try:
        for row in reader:
            if row:
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
        names = header[1:]
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ResultsFormatError(
                    f"row {reader.line_num}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                number = int(row[0])
            except ValueError:
                raise ResultsFormatError(
                    f"row {reader.line_num}, column 'run': not an integer: {row[0]!r}"
                ) from None
            try:
                values = list(map(float, row[1:]))
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                _check_cells(names, row[1:], reader.line_num)
            yield number, values
    except csv.Error as exc:
        raise ResultsFormatError(f"row {reader.line_num}: {exc}") from None


def _check_cells(names: Sequence[str], cells: Sequence[str], line: int) -> None:
    """Raise for the first cell of a row that is not a finite number, naming its column."""
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            raise ResultsFormatError(
                f"row {line}, column {name!r}: not a number: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise ResultsFormatError(f"row {line}, column {name!r}: not a finite number: {cell!r}")


def _strip_unit(label: str) -> str:
    if label.endswith(")") and "(" in label:
        return label[: label.rindex("(")].rstrip()
    return label
