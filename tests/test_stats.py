"""Unit tests for the statistics collector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- The transfer buffer against the per-link array rule ---------------------

PEERS = [1, 2, 3, 4]
transfers = st.tuples(
    st.sampled_from(PEERS),
    st.sampled_from(PEERS),
    # Sizes whose sums round differently by grouping ((1e16 + 1) + 1 is
    # 1e16, 1e16 + (1 + 1) is not), so a pre-summed buffer shows.
    st.one_of(
        st.sampled_from([0.1, 0.2, 0.3, 1.0, 3.0, 1e16]),
        st.floats(0.0, 1e9),
        st.integers(0, 10**6),
    ),
    # Times repeat (a round's links share one), step within a bucket and
    # cross bucket boundaries, both ways, and fall outside the horizon.
    st.sampled_from([0.0, 3.0, 9.999, 10.0, 10.0, 25.0, 59.0, 60.0, 99.0, 150.0, -1.0]),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(transfers, st.integers(0, 3).map(lambda r: r == 0)), max_size=60))
def test_buffered_transfers_equal_the_per_link_rule(ops):
    """Every reader, called between any two writes, sees the arrays a
    plain ``array[peer, bucket] += nbytes`` per link would hold, bit for
    bit — the buffer adds the same floats in the same order."""
    stats = StatsCollector(PEERS, duration=60.0, bucket_seconds=10.0)
    up = np.zeros((len(PEERS), stats.num_buckets))
    down, leech = np.zeros_like(up), np.zeros_like(up)
    for (uploader, downloader, nbytes, now), read in ops:
        stats.record_transfer(uploader, downloader, nbytes, now)
        b = min(max(int(now / 10.0), 0), stats.num_buckets - 1)
        up[PEERS.index(uploader), b] += nbytes
        down[PEERS.index(downloader), b] += nbytes
        if not read:
            continue
        for peer in PEERS:
            row = PEERS.index(peer)
            assert stats.total_uploaded(peer) == float(up[row].sum())
            assert stats.total_downloaded(peer) == float(down[row].sum())
            assert stats.net_contribution(peer) == float(up[row].sum()) - float(down[row].sum())
        stats.record_leech_time(1, 10.0, now)
        leech[0, b] += 10.0
        assert stats.group_mean_speed(PEERS) == float(down.sum() / leech.sum())
    stats.flush()
    assert stats.uploaded.tobytes() == up.tobytes()
    assert stats.downloaded.tobytes() == down.tobytes()


def test_a_direct_array_write_after_a_read_is_kept():
    """A reader empties the buffer, so a cell written through the array
    it returned is read back by the next transfer, not overwritten."""
    stats = StatsCollector(PEERS, duration=60.0, bucket_seconds=10.0)
    stats.record_transfer(1, 2, 5.0, now=1.0)
    stats.uploaded[0, 0] += 100.0
    stats.record_transfer(1, 2, 5.0, now=1.0)
    assert stats.total_uploaded(1) == 110.0
