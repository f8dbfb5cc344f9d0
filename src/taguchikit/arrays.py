"""Catalog of standard orthogonal arrays, and the check that lists their violations.

Each catalog array is stored as one string of digit rows in its canonical
published row order, so that run numbers in reports always line up with
the classical tables; only the array a caller looks up is decoded. Cells
are 0-based level indices; user-facing output maps them back to physical
values or 1-based labels elsewhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from math import prod

from taguchikit.errors import ArrayStructureError, CapacityError, UnknownArrayError


@dataclass(frozen=True)
class OrthogonalArray:
    """A runs x columns matrix of level indices.

    Construction checks structure only (rectangular, integer cells in
    range). Balance and pairwise orthogonality are checked separately by
    :func:`verify_orthogonality`, which returns each violation it finds,
    so deliberately broken matrices can still be represented and diagnosed.
    """

    name: str
    levels_per_column: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels_per_column", tuple(self.levels_per_column))
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))
        cells, levels = self.cells, self.levels_per_column
        if not cells:
            raise ArrayStructureError("array has no runs")
        if not levels:
            raise ArrayStructureError("array has no columns")
        for q in levels:
            if not isinstance(q, int) or q < 2:
                raise ArrayStructureError(f"each column needs >= 2 levels, got {q!r}")
        for i, row in enumerate(cells):
            if len(row) != len(levels):
                raise ArrayStructureError(
                    f"ragged matrix: row {i + 1} has {len(row)} cells, expected {len(levels)}"
                )
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ArrayStructureError(f"cell ({i + 1},{j + 1}) is not an integer: {v!r}")
                if not 0 <= v < levels[j]:
                    raise ArrayStructureError(
                        f"cell ({i + 1},{j + 1}) out of range: {v} not in [0, {levels[j]})"
                    )

    @property
    def runs(self) -> int:
        return len(self.cells)

    @property
    def columns(self) -> int:
        return len(self.levels_per_column)

    @cached_property
    def _report(self) -> tuple[Violation, ...]:
        """The :func:`verify_orthogonality` violations, counted on first use and kept."""
        columns = tuple(zip(*self.cells))
        levels = self.levels_per_column
        indices = range(len(levels))
        found = []
        for group in chain(combinations(indices, 1), combinations(indices, 2)):
            counts = Counter(zip(*(columns[j] for j in group)))
            expected = self.runs / prod(levels[j] for j in group)
            for key in product(*(range(levels[j]) for j in group)):
                if counts[key] != expected:
                    found.append(Violation(group, key, counts[key], expected))
        return tuple(found)


@dataclass(frozen=True)
class Violation:
    """A level tuple that appears the wrong number of times in a column group.

    ``columns`` is ``(j,)`` for a column's balance and ``(j, k)`` for a pair
    of columns; ``levels`` holds one level index per column.
    """

    columns: tuple[int, ...]
    levels: tuple[int, ...]
    observed: int
    expected: float


def verify_orthogonality(array: OrthogonalArray) -> tuple[Violation, ...]:
    """Check column balance and strength-2 orthogonality with one counting rule.

    In every single column and every pair of columns, each level tuple must
    appear ``runs / (product of the group's level counts)`` times: balance is
    strength 1, pairwise coverage strength 2 (vacuous for a single column).
    Violations come column by column, then pair by pair, each in level order;
    an empty tuple means the array passed.

    A ragged matrix or an out-of-range cell is already rejected by the
    :class:`OrthogonalArray` constructor, so every array reaching this
    check can be counted. The array is immutable, so it is counted once:
    later calls return the same tuple.
    """
    return array._report


# --------------------------------------------------------------------------
# Catalog: canonical published tables as (level count, digit rows), rows in
# standard order, 0-based levels, listed by run count (the order CATALOG_NAMES
# keeps). An array is decoded, and checked by the OrthogonalArray constructor,
# only when it is looked up.
# --------------------------------------------------------------------------

_CATALOG: dict[str, tuple[int, str]] = {
    "L4": (2, "000 011 101 110"),
    "L8": (2, "0000000 0001111 0110011 0111100 1010101 1011010 1100110 1101001"),
    # Nine-run, four-column, three-level array; the workhorse for screening
    # four 3-level process factors (full factorial would need 3^4 = 81 runs).
    "L9": (3, "0000 0111 0222 1012 1120 1201 2021 2102 2210"),
    "L16": (
        2,
        "000000000000000 000000011111111 000111100001111 000111111110000 "
        "011001100110011 011001111001100 011110000111100 011110011000011 "
        "101010101010101 101010110101010 101101001011010 101101010100101 "
        "110011001100110 110011010011001 110100101101001 110100110010110",
    ),
    # Thirteen 3-level columns in 27 runs. Carried in the catalog for larger
    # screenings; interaction-column assignment is out of scope here.
    "L27": (
        3,
        "0000000000000 0000111111111 0000222222222 "
        "0111000111222 0111111222000 0111222000111 "
        "0222000222111 0222111000222 0222222111000 "
        "1012012012012 1012120120120 1012201201201 "
        "1120012120201 1120120201012 1120201012120 "
        "1201012201120 1201120012201 1201201120012 "
        "2021021021021 2021102102102 2021210210210 "
        "2102021102210 2102102210021 2102210021102 "
        "2210021210102 2210102021210 2210210102021",
    ),
}

CATALOG_NAMES: tuple[str, ...] = tuple(_CATALOG)


def _columns(name: str) -> int:
    """Column count of a catalog array: the length of its first row."""
    return _CATALOG[name][1].index(" ")


def _decode(name: str, columns: int) -> OrthogonalArray:
    """The catalog array ``name`` cut to its first ``columns`` columns."""
    levels, rows = _CATALOG[name]
    return OrthogonalArray(
        name, (levels,) * columns, [tuple(map(int, row[:columns])) for row in rows.split()]
    )


def get_array(name: str) -> OrthogonalArray:
    """Look up a catalog array by name (e.g. ``"L9"``)."""
    if name not in _CATALOG:
        raise UnknownArrayError(f"unknown array {name!r}; available: {', '.join(CATALOG_NAMES)}")
    return _decode(name, _columns(name))


def select_array(factor_count: int, levels: int) -> OrthogonalArray:
    """First ``factor_count`` columns of the smallest fitting catalog array of ``levels`` levels.

    The cut keeps the catalog name and, like any columns of an orthogonal
    array, stays strength-2 orthogonal. Only uniform level counts are
    supported; mixed-level selection is out of scope. Raises
    :class:`CapacityError` when nothing in the catalog is large enough,
    naming the largest candidate.
    """
    if factor_count < 1:
        raise CapacityError(f"factor count must be >= 1, got {factor_count}")
    same_levels = [n for n in CATALOG_NAMES if _CATALOG[n][0] == levels]
    for name in same_levels:  # CATALOG_NAMES is sorted by run count
        if _columns(name) >= factor_count:
            return _decode(name, factor_count)
    if same_levels:
        largest = same_levels[-1]
        raise CapacityError(
            f"no catalog array offers {factor_count} columns with {levels} levels; "
            f"largest is {largest} with {_columns(largest)} columns"
        )
    available = ", ".join(
        f"{q} levels (up to {max(_columns(n) for n in _CATALOG if _CATALOG[n][0] == q)} columns)"
        for q in sorted({q for q, _ in _CATALOG.values()})
    )
    raise CapacityError(f"no catalog array has {levels}-level columns; available: {available}")
