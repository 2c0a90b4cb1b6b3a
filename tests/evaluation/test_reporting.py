"""Tests for the table renderer."""

from repro.evaluation import format_table
from repro.evaluation.reporting import format_cell


class TestFormatCell:
    def test_small_float_scientific(self):
        assert "e" in format_cell(1.23e-8)

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_nan(self):
        assert format_cell(float("nan")) == "nan"

    def test_medium_float_plain(self):
        assert format_cell(3.14159) == "3.142"

    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_int_and_str(self):
        assert format_cell(42) == "42"
        assert format_cell("abc") == "abc"


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["long-name", 123456]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equal width

    def test_header_rule(self):
        table = format_table(["x"], [[1]])
        assert set(table.splitlines()[1]) == {"-"}

    def test_empty_rows(self):
        table = format_table(["col"], [])
        assert "col" in table
