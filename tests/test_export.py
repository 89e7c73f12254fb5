"""Tests for the figure-series exporters."""


import numpy as np
import pytest

from repro.analysis.export import (
    export_fig1,
    export_fig2,
    export_fig3,
    export_fig4,
    write_series,
)
from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig4 import Fig4Result


@pytest.fixture
def fig1():
    return Fig1Result(
        times_days=np.array([0.5, 1.0]),
        sharer_reputation=np.array([0.01, 0.05]),
        freerider_reputation=np.array([-0.01, -0.04]),
        peer_ids=[1, 2],
        net_contribution_gb=np.array([1.0, -1.0]),
        system_reputation=np.array([0.3, -0.3]),
        spearman=1.0,
        pearson=1.0,
    )


@pytest.fixture
def fig2():
    days = np.array([0.5, 1.5])
    series = np.array([100.0, 200.0])
    return Fig2Result(
        days=days,
        rank={"sharers": series, "freeriders": series / 2},
        ban={"sharers": series, "freeriders": series / 3},
        ban_delta=-0.5,
        delta_sweep={-0.3: series / 3, -0.5: series / 2},
    )


@pytest.fixture
def fig3():
    return Fig3Result(
        kind="lie",
        percentages=np.array([0.0, 20.0]),
        sharer_speed_kbps=np.array([300.0, 280.0]),
        freerider_speed_kbps=np.array([150.0, 200.0]),
    )


@pytest.fixture
def fig4():
    values = np.array([-0.5, 0.0, 0.5])
    return Fig4Result(
        net_contribution=np.array([-100.0, 0.0, 50.0]),
        reputation_values=values,
        reputation_cdf=np.array([1 / 3, 2 / 3, 1.0]),
        fractions={"negative": 1 / 3, "zero": 1 / 3, "positive": 1 / 3},
        messages_logged=10,
        peers_seen=3,
    )


class TestExporters:
    def test_fig1_tables(self, fig1):
        tables = export_fig1(fig1)
        assert set(tables) == {
            "fig1a_reputation_over_time",
            "fig1b_contribution_vs_reputation",
        }
        assert tables["fig1a_reputation_over_time"]["rows"][0] == [0.5, 0.01, -0.01]

    def test_fig2_tables(self, fig2):
        tables = export_fig2(fig2)
        assert "fig2c_delta_sweep" in tables
        header = tables["fig2c_delta_sweep"]["header"]
        assert header[0] == "day"
        assert any("-0.3" in h for h in header)

    def test_fig3_key_tracks_kind(self, fig3):
        assert set(export_fig3(fig3)) == {"fig3b_lie"}

    def test_fig4_contribution_sorted(self, fig4):
        tables = export_fig4(fig4)
        rows = tables["fig4a_net_contribution"]["rows"]
        values = [r[1] for r in rows]
        assert values == sorted(values)


class TestWriteSeries:
    def test_tsv_round_trip(self, fig1, tmp_path):
        paths = write_series(export_fig1(fig1), tmp_path)
        assert [p.suffix for p in paths] == [".tsv", ".tsv"]
        text = paths[0].read_text().splitlines()
        assert text[0].startswith("# ")
        assert len(text) == 3  # header + 2 rows

    def test_nan_rendered(self, fig2, tmp_path):
        fig2.rank["freeriders"] = np.array([np.nan, 100.0])
        paths = write_series(export_fig2(fig2), tmp_path)
        rank_file = [p for p in paths if "fig2a" in p.name][0]
        assert "nan" in rank_file.read_text()

    def test_creates_directory(self, fig1, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_series(export_fig1(fig1), target)
        assert target.exists()
