"""Unit tests for the statistics collector."""

import numpy as np
import pytest

from repro.bittorrent.stats import StatsCollector


@pytest.fixture
def stats():
    return StatsCollector(peer_ids=[1, 2, 3], duration=100.0, bucket_seconds=10.0)


class TestRecording:
    def test_bucket_count(self, stats):
        assert stats.num_buckets == 10

    def test_ragged_duration_rounds_up(self):
        s = StatsCollector([1], duration=95.0, bucket_seconds=10.0)
        assert s.num_buckets == 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StatsCollector([1], duration=0.0, bucket_seconds=1.0)
        with pytest.raises(ValueError):
            StatsCollector([1], duration=10.0, bucket_seconds=0.0)

    def test_bucket_of_clamps(self, stats):
        assert stats.bucket_of(-5.0) == 0
        assert stats.bucket_of(0.0) == 0
        assert stats.bucket_of(99.9) == 9
        assert stats.bucket_of(1e9) == 9

    def test_transfer_recorded_both_sides(self, stats):
        stats.record_transfer(1, 2, 500.0, now=15.0)
        assert stats.total_uploaded(1) == 500.0
        assert stats.total_downloaded(2) == 500.0
        assert stats.total_downloaded(1) == 0.0

    def test_net_contribution(self, stats):
        stats.record_transfer(1, 2, 500.0, now=15.0)
        stats.record_transfer(2, 1, 100.0, now=25.0)
        assert stats.net_contribution(1) == 400.0
        assert stats.net_contribution(2) == -400.0

    def test_leech_time(self, stats):
        stats.record_leech_time(1, 10.0, now=5.0)
        stats.record_leech_time(1, 10.0, now=15.0)
        assert stats.leech_time[stats.index[1]].sum() == 20.0


class TestSeries:
    def test_group_mean_speed(self, stats):
        stats.record_transfer(2, 1, 1000.0, now=5.0)
        stats.record_leech_time(1, 10.0, now=5.0)
        stats.record_transfer(2, 1, 2000.0, now=55.0)
        stats.record_leech_time(1, 20.0, now=55.0)
        assert stats.group_mean_speed([1]) == pytest.approx(3000.0 / 30.0)

    def test_group_mean_speed_window(self, stats):
        stats.record_transfer(2, 1, 1000.0, now=5.0)
        stats.record_leech_time(1, 10.0, now=5.0)
        stats.record_transfer(2, 1, 9000.0, now=95.0)
        stats.record_leech_time(1, 10.0, now=95.0)
        early = stats.group_mean_speed([1], t0=0.0, t1=50.0)
        assert early == pytest.approx(100.0)

    def test_group_mean_speed_never_leeched_nan(self, stats):
        assert np.isnan(stats.group_mean_speed([1]))

    def test_bucket_times_midpoints(self, stats):
        times = stats.bucket_times()
        assert times[0] == 5.0
        assert times[-1] == 95.0

    def test_reputation_series(self, stats):
        stats.record_reputation_sample(10.0, {1: 0.5, 2: -0.5})
        stats.record_reputation_sample(20.0, {1: 0.6, 2: -0.6})
        times, means = stats.reputation_series([1])
        assert list(times) == [10.0, 20.0]
        assert list(means) == [0.5, 0.6]

    def test_reputation_series_group_mean(self, stats):
        stats.record_reputation_sample(10.0, {1: 1.0, 2: 0.0})
        _, means = stats.reputation_series([1, 2])
        assert means[0] == pytest.approx(0.5)

    def test_reputation_series_missing_peer_nan(self, stats):
        stats.record_reputation_sample(10.0, {1: 1.0})
        _, means = stats.reputation_series([3])
        assert np.isnan(means[0])
