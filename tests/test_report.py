"""Unit tests for :mod:`repro.experiments.report`."""

from __future__ import annotations

import csv
import io

import pytest

from repro.experiments.ablations import CommunicationAblationRow, GridResolutionAblationRow
from repro.experiments.report import write_experiment_bundle
from repro.experiments.sweeps import SweepRow


def sweep_row(value: float) -> SweepRow:
    return SweepRow(
        parameter_name="num_objects",
        parameter_value=value,
        scaled_num_objects=int(value * 0.02),
        index_size=100.0 + value / 1000.0,
        dp_index_size=120.0,
        top_k_score=55.5,
        dp_top_k_score=44.4,
        processing_seconds=0.01,
        uplink_messages=500,
        naive_messages=5000,
    )


def written_rows(directory, **experiments):
    """Each CSV file the bundle writes, parsed: ``{file name: [row dict, ...]}``."""
    return {
        path.name: list(csv.DictReader(io.StringIO(path.read_text())))
        for path in write_experiment_bundle(directory, **experiments)
    }


class TestSweepCsv:
    def test_header_and_rows(self, tmp_path):
        rows = written_rows(tmp_path, figure7_rows=[sweep_row(10000), sweep_row(20000)])["figure7.csv"]
        assert len(rows) == 2
        assert rows[0]["parameter_name"] == "num_objects"
        assert float(rows[1]["parameter_value"]) == 20000.0

    def test_write_sweep_csv(self, tmp_path):
        (path,) = write_experiment_bundle(tmp_path, figure8_rows=[sweep_row(10000)])
        assert path.exists()
        assert "num_objects" in path.read_text()


class TestAblationCsv:
    def test_communication_rows(self, tmp_path):
        rows = [
            CommunicationAblationRow(2.0, 100, 3600, 1000, 16000, 0.9),
            CommunicationAblationRow(10.0, 50, 1800, 1000, 16000, 0.95),
        ]
        parsed = written_rows(tmp_path, ablations={"communication": rows})["ablation_communication.csv"]
        assert len(parsed) == 2
        assert float(parsed[0]["tolerance"]) == 2.0
        assert float(parsed[1]["reduction"]) == 0.95

    def test_grid_rows(self, tmp_path):
        rows = [GridResolutionAblationRow(16, 0.01, 100.0, 50.0)]
        parsed = written_rows(tmp_path, ablations={"grid": rows})["ablation_grid.csv"]
        assert parsed[0]["cells_per_axis"] == "16"


class TestBundle:
    def test_bundle_writes_requested_files(self, tmp_path):
        written = write_experiment_bundle(
            tmp_path / "bundle",
            figure7_rows=[sweep_row(10000)],
            figure8_rows=[sweep_row(20000)],
            ablations={"communication": [CommunicationAblationRow(2.0, 1, 2, 3, 4, 0.5)]},
        )
        names = sorted(path.name for path in written)
        assert names == ["ablation_communication.csv", "figure7.csv", "figure8.csv"]
        for path in written:
            assert path.exists()

    def test_bundle_skips_empty_inputs(self, tmp_path):
        written = write_experiment_bundle(tmp_path / "bundle", ablations={"empty": []})
        assert written == []
