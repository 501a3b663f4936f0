"""Table model, cell normalisation, and type inference."""

import pytest

from repro.errors import LakeError
from repro.lake.table import (
    Table,
    is_numeric_cell,
    normalize_cell,
    numeric_value,
)


class TestNormalizeCell:
    def test_strings_lowercased_and_stripped(self):
        assert normalize_cell("  Tom Riddle ") == "tom riddle"

    def test_empty_and_none_are_null(self):
        assert normalize_cell(None) is None
        assert normalize_cell("") is None
        assert normalize_cell("   ") is None

    def test_integers(self):
        assert normalize_cell(42) == "42"

    def test_integral_floats_minimal_form(self):
        assert normalize_cell(3.0) == "3"

    def test_fractional_floats(self):
        assert normalize_cell(2.5) == "2.5"

    def test_nan_and_inf_are_null(self):
        assert normalize_cell(float("nan")) is None
        assert normalize_cell(float("inf")) is None

    def test_booleans(self):
        assert normalize_cell(True) == "true"
        assert normalize_cell(False) == "false"


class TestNumericCells:
    def test_numbers(self):
        assert is_numeric_cell(3)
        assert is_numeric_cell(2.5)
        assert is_numeric_cell("17.5")

    def test_non_numbers(self):
        assert not is_numeric_cell("abc")
        assert not is_numeric_cell(True)
        assert not is_numeric_cell(None)

    def test_numeric_value(self):
        assert numeric_value("3.5") == 3.5
        assert numeric_value(4) == 4.0
        assert numeric_value("x") is None
        assert numeric_value(None) is None
        assert numeric_value(True) is None


class TestTable:
    @pytest.fixture
    def table(self):
        return Table(
            "t",
            ["name", "count", "mixed"],
            [("a", 1, "x"), ("b", 2, 3), ("c", 3, 4), ("d", None, 5)],
        )

    def test_shape(self, table):
        assert table.num_rows == 4
        assert table.num_columns == 3

    def test_column_values(self, table):
        assert table.column_values("count") == [1, 2, 3, None]

    def test_unknown_column(self, table):
        with pytest.raises(LakeError):
            table.column_values("ghost")

    def test_iter_cells(self, table):
        cells = list(table.iter_cells())
        assert len(cells) == 12
        assert cells[0] == (0, 0, "a")

    def test_project(self, table):
        projected = table.project(["count", "name"])
        assert projected.name == table.name
        assert projected.columns == ["count", "name"]
        assert projected.rows[0] == (1, "a")

    def test_head(self, table):
        assert table.head(2).num_rows == 2

    def test_numeric_inference(self, table):
        # 'mixed' is 3/4 numeric = 75 % < 80 % threshold.
        assert table.numeric_columns() == [False, True, False]

    def test_numeric_inference_with_numeric_strings(self):
        table = Table("t", ["c"], [("1",), ("2",), ("3",)])
        assert table.is_numeric_column("c")

    def test_distinct_count_normalises(self):
        table = Table("t", ["c"], [("A",), ("a ",), ("b",), (None,)])
        assert table.distinct_count("c") == 2

    def test_ragged_rows_rejected(self):
        with pytest.raises(LakeError):
            Table("t", ["a", "b"], [(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(LakeError):
            Table("t", ["a", "a"], [])

    def test_empty_name_rejected(self):
        with pytest.raises(LakeError):
            Table("", ["a"], [])

    def test_set_cell_invalidates_numeric_cache(self, table):
        assert table.numeric_columns() == [False, True, False]
        table.set_cell(0, 2, 9)  # 'mixed' becomes 4/4 numeric
        assert table.rows[0] == ("a", 1, 9)
        assert table._numeric_cache is None
        assert table.numeric_columns() == [False, True, True]

    def test_set_cell_bounds_checked(self, table):
        with pytest.raises(LakeError):
            table.set_cell(999, 0, "x")
        with pytest.raises(LakeError):
            table.set_cell(0, 99, "x")
