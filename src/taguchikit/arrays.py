"""Catalog and verification of standard orthogonal arrays.

The arrays are stored as literal constants in their canonical published
row order (not generated at import time) so that run numbers in reports
always line up with the classical tables. Cells are 0-based level
indices; user-facing output maps them back to physical values or 1-based
labels elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from taguchikit.errors import ArrayStructureError, CapacityError, UnknownArrayError

__all__ = [
    "OrthogonalArray",
    "BalanceViolation",
    "PairCountViolation",
    "VerificationReport",
    "CATALOG_NAMES",
    "get_array",
    "select_array",
    "verify_orthogonality",
]


@dataclass(frozen=True)
class OrthogonalArray:
    """A runs x columns matrix of level indices.

    Construction checks structure only (rectangular, integer cells in
    range). Balance and pairwise orthogonality are checked separately by
    :func:`verify_orthogonality`, so deliberately broken matrices can
    still be represented and diagnosed.
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


@dataclass(frozen=True)
class BalanceViolation:
    """A level that does not appear the expected number of times in a column."""

    column: int
    level: int
    observed: int
    expected: float


@dataclass(frozen=True)
class PairCountViolation:
    """An ordered level pair that appears the wrong number of times in a column pair."""

    columns: tuple[int, int]
    levels: tuple[int, int]
    observed: int
    expected: float


@dataclass(frozen=True)
class VerificationReport:
    balance_violations: tuple[BalanceViolation, ...]
    pair_violations: tuple[PairCountViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.balance_violations and not self.pair_violations


def verify_orthogonality(array: OrthogonalArray) -> VerificationReport:
    """Check column balance and strength-2 orthogonality.

    Balance: in column j every level index appears exactly
    ``runs / levels_j`` times. Strength 2: for every pair of columns,
    every ordered pair of levels appears exactly
    ``runs / (levels_j * levels_k)`` times (vacuous for a single column).

    A ragged matrix or an out-of-range cell is already rejected by the
    :class:`OrthogonalArray` constructor, so every array reaching this
    check can be counted.
    """
    cells = array.cells
    levels = array.levels_per_column

    runs = len(cells)
    balance: list[BalanceViolation] = []
    for j, q in enumerate(levels):
        expected = runs / q
        counts = [0] * q
        for row in cells:
            counts[row[j]] += 1
        for level, observed in enumerate(counts):
            if observed != expected:
                balance.append(BalanceViolation(j, level, observed, expected))

    pairs: list[PairCountViolation] = []
    for j, k in combinations(range(len(levels)), 2):
        expected = runs / (levels[j] * levels[k])
        counts: dict[tuple[int, int], int] = {}
        for row in cells:
            key = (row[j], row[k])
            counts[key] = counts.get(key, 0) + 1
        for a, b in product(range(levels[j]), range(levels[k])):
            observed = counts.get((a, b), 0)
            if observed != expected:
                pairs.append(PairCountViolation((j, k), (a, b), observed, expected))

    return VerificationReport(balance_violations=tuple(balance), pair_violations=tuple(pairs))


# --------------------------------------------------------------------------
# Catalog: canonical published tables, rows in standard order, 0-based levels.
# --------------------------------------------------------------------------

_L4 = (
    (0, 0, 0),
    (0, 1, 1),
    (1, 0, 1),
    (1, 1, 0),
)

_L8 = (
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 1, 1, 1, 1, 0, 0),
    (1, 0, 1, 0, 1, 0, 1),
    (1, 0, 1, 1, 0, 1, 0),
    (1, 1, 0, 0, 1, 1, 0),
    (1, 1, 0, 1, 0, 0, 1),
)

# Nine-run, four-column, three-level array; the workhorse for screening
# four 3-level process factors (full factorial would need 3^4 = 81 runs).
_L9 = (
    (0, 0, 0, 0),
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 1, 2),
    (1, 1, 2, 0),
    (1, 2, 0, 1),
    (2, 0, 2, 1),
    (2, 1, 0, 2),
    (2, 2, 1, 0),
)

_L16 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1),
    (0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0),
    (0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0),
    (0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0),
    (1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0),
    (1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0),
    (1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1),
    (1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1),
    (1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
)

# Thirteen 3-level columns in 27 runs. Carried in the catalog for larger
# screenings; interaction-column assignment is out of scope here.
_L27 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    (0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 2, 2, 2),
    (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 0, 0, 0),
    (0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1),
    (0, 2, 2, 2, 0, 0, 0, 2, 2, 2, 1, 1, 1),
    (0, 2, 2, 2, 1, 1, 1, 0, 0, 0, 2, 2, 2),
    (0, 2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0, 0),
    (1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
    (1, 0, 1, 2, 1, 2, 0, 1, 2, 0, 1, 2, 0),
    (1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1),
    (1, 1, 2, 0, 0, 1, 2, 1, 2, 0, 2, 0, 1),
    (1, 1, 2, 0, 1, 2, 0, 2, 0, 1, 0, 1, 2),
    (1, 1, 2, 0, 2, 0, 1, 0, 1, 2, 1, 2, 0),
    (1, 2, 0, 1, 0, 1, 2, 2, 0, 1, 1, 2, 0),
    (1, 2, 0, 1, 1, 2, 0, 0, 1, 2, 2, 0, 1),
    (1, 2, 0, 1, 2, 0, 1, 1, 2, 0, 0, 1, 2),
    (2, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1),
    (2, 0, 2, 1, 1, 0, 2, 1, 0, 2, 1, 0, 2),
    (2, 0, 2, 1, 2, 1, 0, 2, 1, 0, 2, 1, 0),
    (2, 1, 0, 2, 0, 2, 1, 1, 0, 2, 2, 1, 0),
    (2, 1, 0, 2, 1, 0, 2, 2, 1, 0, 0, 2, 1),
    (2, 1, 0, 2, 2, 1, 0, 0, 2, 1, 1, 0, 2),
    (2, 2, 1, 0, 0, 2, 1, 2, 1, 0, 1, 0, 2),
    (2, 2, 1, 0, 1, 0, 2, 0, 2, 1, 2, 1, 0),
    (2, 2, 1, 0, 2, 1, 0, 1, 0, 2, 0, 2, 1),
)

_CATALOG: dict[str, OrthogonalArray] = {
    "L4": OrthogonalArray("L4", (2,) * 3, _L4),
    "L8": OrthogonalArray("L8", (2,) * 7, _L8),
    "L9": OrthogonalArray("L9", (3,) * 4, _L9),
    "L16": OrthogonalArray("L16", (2,) * 15, _L16),
    "L27": OrthogonalArray("L27", (3,) * 13, _L27),
}

CATALOG_NAMES: tuple[str, ...] = tuple(sorted(_CATALOG, key=lambda n: _CATALOG[n].runs))


def get_array(name: str) -> OrthogonalArray:
    """Look up a catalog array by name (e.g. ``"L9"``)."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownArrayError(
            f"unknown array {name!r}; available: {', '.join(CATALOG_NAMES)}"
        ) from None


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
    if levels < 2:
        raise CapacityError(f"level count must be >= 2, got {levels}")
    same_levels = [
        a for a in (_CATALOG[n] for n in CATALOG_NAMES)
        if set(a.levels_per_column) == {levels}
    ]
    for array in same_levels:  # CATALOG_NAMES is sorted by run count
        if array.columns >= factor_count:
            cells = tuple(row[:factor_count] for row in array.cells)
            return OrthogonalArray(array.name, array.levels_per_column[:factor_count], cells)
    if same_levels:
        largest = same_levels[-1]
        raise CapacityError(
            f"no catalog array offers {factor_count} columns with {levels} levels; "
            f"largest is {largest.name} with {largest.columns} columns"
        )
    available = ", ".join(
        f"{q} levels (up to {max(a.columns for a in _CATALOG.values() if set(a.levels_per_column) == {q})} "
        f"columns)"
        for q in sorted({a.levels_per_column[0] for a in _CATALOG.values()})
    )
    raise CapacityError(f"no catalog array has {levels}-level columns; available: {available}")
