"""Unit tests for the export and rendering utilities."""

from __future__ import annotations

import csv
import io

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.analysis.export import paths_to_csv, paths_to_wkt, write_csv
from repro.analysis.render import AsciiMapRenderer, render_hot_paths


def sample_paths():
    return [
        (MotionPath(Point(0.0, 0.0), Point(100.0, 0.0), 0), 3),
        (MotionPath(Point(0.0, 0.0), Point(0.0, 100.0), 1), 1),
    ]


class TestCsvExport:
    def test_header_and_rows(self):
        text = paths_to_csv(sample_paths())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "path_id"
        assert len(rows) == 3

    def test_score_column_is_hotness_times_length(self):
        text = paths_to_csv(sample_paths())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert float(rows[0]["score"]) == pytest.approx(300.0)
        assert float(rows[1]["score"]) == pytest.approx(100.0)

    def test_empty_input(self):
        text = paths_to_csv([])
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1

    def test_write_csv(self, tmp_path):
        destination = write_csv(sample_paths(), tmp_path / "paths.csv")
        assert destination.exists()
        assert "path_id" in destination.read_text()


class TestWktExport:
    def test_linestring_format(self):
        lines = paths_to_wkt(sample_paths())
        assert len(lines) == 2
        assert lines[0].startswith("LINESTRING (")
        assert lines[0].endswith("hotness=3")

    def test_coordinates_present(self):
        lines = paths_to_wkt(sample_paths())
        assert "100.000 0.000" in lines[0]


class TestAsciiRenderer:
    BOUNDS = Rectangle(Point(0.0, 0.0), Point(100.0, 100.0))

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            AsciiMapRenderer(self.BOUNDS, width=0, height=10)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            AsciiMapRenderer(Rectangle.degenerate(Point(0.0, 0.0)))

    def test_output_dimensions(self):
        renderer = AsciiMapRenderer(self.BOUNDS, width=20, height=10)
        output = renderer.render_paths(sample_paths())
        lines = output.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 20 for line in lines)

    def test_empty_input_is_blank(self):
        renderer = AsciiMapRenderer(self.BOUNDS, width=10, height=5)
        output = renderer.render_paths([])
        assert set(output.replace("\n", "")) == {" "}

    def test_horizontal_path_lights_bottom_row(self):
        renderer = AsciiMapRenderer(self.BOUNDS, width=20, height=10)
        paths = [(MotionPath(Point(0.0, 0.0), Point(100.0, 0.0), 0), 1)]
        output = renderer.render_paths(paths)
        lines = output.splitlines()
        # y=0 is the bottom row (rendered last); it must contain non-blank cells.
        assert any(char != " " for char in lines[-1])
        assert all(char == " " for char in lines[0])

    def test_hotter_path_renders_denser(self):
        renderer = AsciiMapRenderer(self.BOUNDS, width=20, height=10)
        paths = [
            (MotionPath(Point(0.0, 10.0), Point(100.0, 10.0), 0), 9),
            (MotionPath(Point(0.0, 90.0), Point(100.0, 90.0), 1), 1),
        ]
        output = renderer.render_paths(paths)
        ramp = " .:-=+*#%@"
        lines = output.splitlines()
        hot_row_level = max(ramp.index(c) for c in lines[-1] if c != " ")
        cold_row_level = max(ramp.index(c) for c in lines[1] if c != " ")
        assert hot_row_level > cold_row_level

    def test_render_network(self, tiny_manual_network):
        renderer = AsciiMapRenderer(
            tiny_manual_network.bounding_box(padding=1.0), width=20, height=10
        )
        output = renderer.render_network(tiny_manual_network)
        assert any(char != " " for char in output)

    def test_convenience_wrapper(self):
        output = render_hot_paths(sample_paths(), self.BOUNDS, width=10, height=5)
        assert len(output.splitlines()) == 5

    def test_paths_outside_bounds_ignored(self):
        renderer = AsciiMapRenderer(self.BOUNDS, width=10, height=5)
        paths = [(MotionPath(Point(500.0, 500.0), Point(600.0, 600.0), 0), 2)]
        output = renderer.render_paths(paths)
        assert set(output.replace("\n", "")) == {" "}
