"""Tests for the report table formatter."""

import math

from repro.analysis.report import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_float_formatting(self):
        out = format_table(["x"], [[3.14159], [12345.6]])
        assert "3.14" in out
        assert "12346" in out

    def test_nan_rendered_as_dash(self):
        out = format_table(["x"], [[math.nan]])
        assert "-" in out.splitlines()[-1]

    def test_header_separator(self):
        out = format_table(["a", "b"], [[1, 2]])
        assert set(out.splitlines()[1]) <= {"-", " "}

