"""Integration tests for the figure drivers (tiny profile)."""

import numpy as np
import pytest

from repro.deployment.network import DeploymentParams
from repro.experiments import (
    ScenarioConfig,
    assemble_fig2,
    assemble_fig3,
    build_simulation,
    fig2_tasks,
    fig3_tasks,
    report,
    run_fig1,
    run_fig4,
)
from repro.core.policies import BanPolicy, NoPolicy
from repro.parallel import run_sweep


@pytest.fixture(scope="module")
def tiny():
    return ScenarioConfig.tiny(seed=17)


class TestScenario:
    def test_named_profiles(self):
        assert ScenarioConfig.named("paper").name == "paper"
        assert ScenarioConfig.named("fast").name == "fast"
        assert ScenarioConfig.named("tiny").name == "tiny"
        with pytest.raises(ValueError):
            ScenarioConfig.named("huge")

    def test_paper_profile_matches_paper_parameters(self):
        s = ScenarioConfig.paper()
        assert s.trace_params.num_peers == 100
        assert s.trace_params.num_swarms == 10
        assert s.trace_params.duration == 7 * 86400.0
        assert s.trace_params.uplink_bps == 512 * 1024
        assert s.trace_params.downlink_bps == 3 * 1024**2
        assert s.bt_config.seed_time == 10 * 3600.0
        assert s.bc_config.n_highest == 10
        assert s.bc_config.n_recent == 10
        assert s.freerider_fraction == 0.5

    def test_build_simulation_paired_populations(self, tiny):
        sim_a = build_simulation(tiny, policy=NoPolicy())
        sim_b = build_simulation(tiny, policy=BanPolicy(-0.5))
        assert sim_a.roles.roles == sim_b.roles.roles


@pytest.fixture(scope="module")
def fig1_result(tiny):
    return run_fig1(tiny)


class TestFig1:
    def test_series_shapes_align(self, fig1_result):
        r = fig1_result
        assert len(r.times_days) == len(r.sharer_reputation) == len(r.freerider_reputation)
        assert len(r.peer_ids) == len(r.net_contribution_gb) == len(r.system_reputation)

    def test_reputations_in_range(self, fig1_result):
        assert np.all(np.abs(fig1_result.system_reputation) < 1.0)

    def test_sharers_end_above_freeriders(self, fig1_result):
        assert fig1_result.final_separation > 0.0

    def test_contribution_reputation_consistency(self, fig1_result):
        # The paper's headline claim for 1(b): a consistent relation.  At
        # the tiny smoke-test scale the correlation is noisy, so we only
        # require it to be clearly positive; the fast-profile benchmark
        # (bench_fig1_reputation) asserts the strong version.
        assert fig1_result.spearman > 0.2

    def test_report_renders(self, fig1_result):
        text = report.report_fig1(fig1_result)
        assert "Figure 1(a)" in text and "Figure 1(b)" in text
        assert "spearman" in text


@pytest.fixture(scope="module")
def fig2_result(tiny):
    deltas = (-0.3, -0.5)
    return assemble_fig2(run_sweep(fig2_tasks(tiny, deltas, -0.5)), deltas, -0.5)


class TestFig2:
    def test_panels_present(self, fig2_result):
        assert set(fig2_result.rank) == {"sharers", "freeriders"}
        assert set(fig2_result.ban) == {"sharers", "freeriders"}
        assert set(fig2_result.delta_sweep) == {-0.3, -0.5}

    def test_days_axis_covers_duration(self, fig2_result, tiny):
        assert len(fig2_result.days) == int(np.ceil(tiny.trace_params.duration / 86400.0))

    def test_speeds_positive_where_defined(self, fig2_result):
        for series in (*fig2_result.rank.values(), *fig2_result.ban.values()):
            vals = series[~np.isnan(series)]
            assert (vals >= 0).all()

    def test_ban_delta_added_to_sweep_if_missing(self, tiny):
        result = assemble_fig2(run_sweep(fig2_tasks(tiny, (-0.3,), -0.5)), (-0.3,), -0.5)
        assert -0.5 in result.delta_sweep

    def test_final_ratio_finite(self, fig2_result):
        assert np.isfinite(fig2_result.final_ratio("rank"))
        assert np.isfinite(fig2_result.final_ratio("ban"))

    def test_report_renders(self, fig2_result):
        text = report.report_fig2(fig2_result)
        for tag in ("Figure 2(a)", "Figure 2(b)", "Figure 2(c)"):
            assert tag in text


@pytest.fixture(scope="module")
def fig3_result(tiny):
    return assemble_fig3(run_sweep(fig3_tasks(tiny, "ignore", (0, 50))), "ignore", (0, 50))


class TestFig3:
    def test_axis_alignment(self, fig3_result):
        assert len(fig3_result.percentages) == 2
        assert len(fig3_result.sharer_speed_kbps) == 2

    def test_relative_speed_computable(self, fig3_result):
        rel = fig3_result.relative_freerider_speed()
        assert rel.shape == fig3_result.percentages.shape

    def test_unknown_kind_rejected(self, tiny):
        with pytest.raises(ValueError):
            fig3_tasks(tiny, "sabotage")

    def test_percentage_beyond_freeriders_rejected(self, tiny):
        with pytest.raises(ValueError):
            fig3_tasks(tiny, "lie", (80,))

    def test_report_renders(self, fig3_result):
        text = report.report_fig3(fig3_result)
        assert "Figure 3(a)" in text

    def test_lie_kind_runs(self, tiny):
        result = assemble_fig3(run_sweep(fig3_tasks(tiny, "lie", (25,))), "lie", (25,))
        assert result.kind == "lie"
        assert "Figure 3(b)" in report.report_fig3(result)


@pytest.fixture(scope="module")
def fig4_result():
    return run_fig4(DeploymentParams(num_peers=400), seed=6)


class TestFig4:
    def test_panels_present(self, fig4_result):
        assert fig4_result.peers_seen > 300
        assert fig4_result.net_contribution.shape == (fig4_result.peers_seen,)
        assert fig4_result.reputation_values.shape == fig4_result.reputation_cdf.shape

    def test_cdf_monotone(self, fig4_result):
        assert (np.diff(fig4_result.reputation_cdf) >= 0).all()
        assert (np.diff(fig4_result.reputation_values) >= 0).all()

    def test_majority_net_negative(self, fig4_result):
        assert (fig4_result.net_contribution < 0).mean() > 0.5

    def test_negative_reputation_dominates_positive(self, fig4_result):
        assert fig4_result.fractions["negative"] > fig4_result.fractions["positive"]

    def test_report_renders(self, fig4_result):
        text = report.report_fig4(fig4_result)
        assert "Figure 4(a)" in text and "Figure 4(b)" in text


class TestSpeedSeriesHelper:
    def test_cumulative_series_is_running_average(self):
        from repro.bittorrent.stats import StatsCollector
        from repro.experiments.fig2 import speed_series_kbps

        stats = StatsCollector(peer_ids=[1, 2], duration=2 * 86400.0,
                               bucket_seconds=6 * 3600.0)
        # 1024 KB in the first bucket over 1000 s of leeching...
        stats.record_transfer(2, 1, 1024.0 * 1024, now=1000.0)
        stats.record_leech_time(1, 1000.0, now=1000.0)
        # ...then nothing: the cumulative average must stay flat, not NaN.
        days, speeds = speed_series_kbps(stats, [1])
        assert len(days) == 2
        assert speeds[0] == speeds[1] == pytest.approx(1024.0 / 1000.0 * 1000 / 1000, rel=0.5)

    def test_cumulative_vs_bucket_mode_differ(self):
        from repro.bittorrent.stats import StatsCollector
        from repro.experiments.fig2 import speed_series_kbps

        stats = StatsCollector(peer_ids=[1, 2], duration=2 * 86400.0,
                               bucket_seconds=6 * 3600.0)
        stats.record_transfer(2, 1, 1024.0 * 100, now=1000.0)
        stats.record_leech_time(1, 100.0, now=1000.0)
        stats.record_transfer(2, 1, 1024.0 * 400, now=86400.0 + 1000.0)
        stats.record_leech_time(1, 100.0, now=86400.0 + 1000.0)
        _, cumulative = speed_series_kbps(stats, [1])
        # Day 2's own speed is 4 KBps; the cumulative series blends both
        # days (2.5 KBps).
        day2 = slice(4, 8)  # 6 h buckets
        own = stats.downloaded[0, day2].sum() / stats.leech_time[0, day2].sum() / 1024.0
        assert own == pytest.approx(4.0)
        assert cumulative[1] == pytest.approx(2.5)

    def test_empty_group(self):
        from repro.bittorrent.stats import StatsCollector
        from repro.experiments.fig2 import speed_series_kbps

        stats = StatsCollector(peer_ids=[1], duration=86400.0, bucket_seconds=3600.0)
        days, speeds = speed_series_kbps(stats, [])
        assert np.isnan(speeds).all()
