"""Catalog contents, orthogonality verification, and array selection."""

from __future__ import annotations

import hashlib
from itertools import product

import pytest
from hypothesis import given, strategies as st

from taguchikit.arrays import (
    CATALOG_NAMES,
    OrthogonalArray,
    get_array,
    select_array,
    verify_orthogonality,
)
from taguchikit.design import Factor, bind
from taguchikit.errors import ArrayStructureError, CapacityError, UnknownArrayError

# The nine-run screening pattern in its canonical row order (0-based levels).
L9_PATTERN = (
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

# SHA-256 of repr((levels_per_column, cells)) for each catalog array as
# published. Balance and orthogonality checks still pass a swapped row, and a
# swapped row renumbers the runs.
CATALOG_SHA256 = {
    "L4": "702765c7d49b8382ab3971ab54c6874d408b60fb6814a35d5d81ee1d840bb9d6",
    "L8": "7c4add5ec01fdf7aac03bb0b1f8ecc0d4dfea8803b291326d6fa036907ab91d7",
    "L9": "881fda8395773534d6482af6b35c0e8931a202b7d61aff5c78860aa271c29834",
    "L16": "0cf94a0e48407d03393ad78694877278f2e08350ae36cfd13a7bfdd4bc90073d",
    "L27": "bb63b5f282b649d50cb9a81b0f0357106d93569e74f22eef55016521f22e5b03",
}


class TestCatalog:
    def test_catalog_names_sorted_by_run_count(self):
        assert CATALOG_NAMES == ("L4", "L8", "L9", "L16", "L27")

    @pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
    def test_levels_and_rows_are_pinned(self, name):
        array = get_array(name)
        text = repr((array.levels_per_column, array.cells))
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[name]

    def test_l9_matches_canonical_pattern(self):
        assert get_array("L9").cells == L9_PATTERN

    def test_l9_first_and_seventh_rows(self):
        l9 = get_array("L9")
        assert l9.cells[0] == (0, 0, 0, 0)
        assert l9.cells[6] == (2, 0, 2, 1)

    def test_l4_shape_and_balance(self):
        l4 = get_array("L4")
        assert (l4.runs, l4.columns) == (4, 3)
        assert l4.levels_per_column == (2, 2, 2)
        for j in range(3):
            col = [row[j] for row in l4.cells]
            assert col.count(0) == col.count(1) == 2

    @pytest.mark.parametrize(
        "name,runs,columns,levels",
        [("L4", 4, 3, 2), ("L8", 8, 7, 2), ("L9", 9, 4, 3), ("L16", 16, 15, 2), ("L27", 27, 13, 3)],
    )
    def test_catalog_shapes(self, name, runs, columns, levels):
        array = get_array(name)
        assert (array.runs, array.columns) == (runs, columns)
        assert set(array.levels_per_column) == {levels}

    def test_unknown_name_lists_available(self):
        message = "^unknown array 'L12'; available: L4, L8, L9, L16, L27$"
        with pytest.raises(UnknownArrayError, match=message):
            get_array("L12")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_runs_strictly_below_full_factorial(self, name):
        array = get_array(name)
        assert array.runs < array.levels_per_column[0] ** array.columns


class TestVerify:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_every_catalog_array_passes(self, name):
        report = verify_orthogonality(get_array(name))
        assert report.passed
        assert report.balance_violations == () and report.pair_violations == ()

    def test_l9_pairwise_coverage_counted_independently(self):
        # Exhaustive oracle: every ordered level pair once per column pair.
        cells = get_array("L9").cells
        for j in range(4):
            for k in range(j + 1, 4):
                for a, b in product(range(3), range(3)):
                    count = sum(1 for row in cells if row[j] == a and row[k] == b)
                    assert count == 1, (j, k, a, b)

    def test_single_mutation_breaks_balance(self):
        l9 = get_array("L9")
        rows = [list(r) for r in l9.cells]
        rows[0][1] = 1  # level 0 -> 1 in column 2
        report = verify_orthogonality(OrthogonalArray("L9-broken", l9.levels_per_column, rows))
        assert not report.passed and report.balance_violations
        observed = {
            (v.levels, v.observed) for v in report.balance_violations if v.columns == (1,)
        }
        assert ((0,), 2) in observed and ((1,), 4) in observed

    def test_single_column_passes_vacuously(self):
        report = verify_orthogonality(OrthogonalArray("single", (2,), ((0,), (1,), (0,), (1,))))
        assert report.passed
        assert report.pair_violations == ()

    def test_report_is_counted_once_per_array(self):
        array = get_array("L9")
        assert verify_orthogonality(array) is verify_orthogonality(array)

    def test_equal_arrays_built_apart_give_equal_reports(self):
        first, second = (OrthogonalArray("lopsided", (2,), ((0,), (0,), (1,))) for _ in range(2))
        report = verify_orthogonality(first)  # the kept report is no field of the array
        assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
        assert not report.passed
        assert verify_orthogonality(second) == report

    # A structurally broken matrix never reaches the check: the constructor refuses it.
    def test_ragged_matrix_is_structural_error(self):
        with pytest.raises(ArrayStructureError, match="ragged"):
            OrthogonalArray("ragged", (2, 2), ((0, 1), (0,)))

    def test_out_of_range_cell_is_structural_error(self):
        with pytest.raises(ArrayStructureError, match="out of range"):
            OrthogonalArray("range", (2, 2), ((0, 0), (1, 3)))

    def test_non_integer_cell_is_structural_error(self):
        with pytest.raises(ArrayStructureError, match="not an integer"):
            OrthogonalArray("fraction", (2, 2), ((0, 0), (1, 0.5)))

    @given(data=st.data(), name=st.sampled_from(CATALOG_NAMES))
    def test_any_in_range_mutation_fails(self, data, name):
        array = get_array(name)
        row = data.draw(st.integers(0, array.runs - 1))
        col = data.draw(st.integers(0, array.columns - 1))
        old = array.cells[row][col]
        new = data.draw(
            st.integers(0, array.levels_per_column[col] - 1).filter(lambda v: v != old)
        )
        rows = [list(r) for r in array.cells]
        rows[row][col] = new
        mutated = OrthogonalArray(f"{name}-mut", array.levels_per_column, rows)
        assert not verify_orthogonality(mutated).passed


class TestSelect:
    @pytest.mark.parametrize(
        "factors,levels,expected",
        [(4, 3, "L9"), (3, 2, "L4"), (5, 3, "L27"), (4, 2, "L8"), (1, 3, "L9"), (13, 3, "L27")],
    )
    def test_smallest_fitting_array(self, factors, levels, expected):
        assert select_array(factors, levels).name == expected

    @pytest.mark.parametrize("levels,largest", [(2, 15), (3, 13)])
    def test_cut_to_the_factor_count_and_still_orthogonal(self, levels, largest):
        for count in range(1, largest + 1):
            array = select_array(count, levels)
            assert array.columns == count
            assert verify_orthogonality(array).passed

    def test_readme_pattern_binds_three_factors(self):
        factors = [Factor(name, "", (1.0, 2.0, 3.0)) for name in "abc"]
        design = bind(select_array(len(factors), 3), factors)
        assert design.array.name == "L9"
        assert [tuple(row) for row in design.array.cells] == [row[:3] for row in L9_PATTERN]

    def test_capacity_error_names_largest(self):
        message = "^no catalog array offers 14 columns with 3 levels; largest is L27 with 13 columns$"
        with pytest.raises(CapacityError, match=message):
            select_array(14, 3)

    def test_unsupported_level_count(self):
        message = (
            "^no catalog array has 4-level columns; "
            r"available: 2 levels \(up to 15 columns\), 3 levels \(up to 13 columns\)$"
        )
        with pytest.raises(CapacityError, match=message):
            select_array(3, 4)

    def test_invalid_arguments(self):
        with pytest.raises(CapacityError):
            select_array(0, 3)
        with pytest.raises(CapacityError):
            select_array(3, 1)


class TestStructure:
    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ArrayStructureError):
            OrthogonalArray("bad", (2, 2), ((0, 0), (0, 2)))

    def test_constructor_rejects_no_runs_and_no_columns(self):
        with pytest.raises(ArrayStructureError, match="^array has no runs$"):
            OrthogonalArray("empty", (2,), ())
        with pytest.raises(ArrayStructureError, match="^array has no columns$"):
            OrthogonalArray("empty", (), ((), ()))

    def test_constructor_rejects_single_level_column(self):
        with pytest.raises(ArrayStructureError):
            OrthogonalArray("bad", (1, 2), ((0, 0), (0, 1)))
