"""Catalog contents, orthogonality verification, and array selection."""

from __future__ import annotations

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


class TestCatalog:
    def test_catalog_names_sorted_by_run_count(self):
        assert CATALOG_NAMES == ("L4", "L8", "L9", "L16", "L27")

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
        with pytest.raises(UnknownArrayError, match="L4.*L27"):
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
        with pytest.raises(CapacityError, match="L27"):
            select_array(14, 3)

    def test_unsupported_level_count(self):
        with pytest.raises(CapacityError, match="no catalog array has 4-level columns"):
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
