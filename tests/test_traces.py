"""Unit and property tests for trace models and generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.models import (
    DAY,
    CommunityTrace,
    FileRequest,
    PeerProfile,
    PeerSession,
    SwarmSpec,
)
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams

MB = 1024.0**2


class TestPeerSession:
    def test_duration(self):
        assert PeerSession(10.0, 25.0).duration == 15.0

    def test_contains(self):
        """A session is half-open: it holds its start, not its end."""
        p = PeerProfile(peer_id=0, uplink_bps=1.0, downlink_bps=1.0,
                        sessions=[PeerSession(10.0, 20.0)])
        assert p.online_at(10.0)
        assert p.online_at(19.99)
        assert not p.online_at(20.0)
        assert not p.online_at(5.0)

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            PeerSession(10.0, 10.0)
        with pytest.raises(ValueError):
            PeerSession(10.0, 5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            PeerSession(-1.0, 5.0)


class TestPeerProfile:
    def make(self, sessions):
        return PeerProfile(peer_id=0, uplink_bps=1.0, downlink_bps=1.0, sessions=sessions)

    def test_online_at(self):
        p = self.make([PeerSession(0.0, 10.0), PeerSession(20.0, 30.0)])
        assert p.online_at(5.0)
        assert not p.online_at(15.0)
        assert p.online_at(25.0)
        assert not p.online_at(35.0)

    def test_total_uptime(self):
        p = self.make([PeerSession(0.0, 10.0), PeerSession(20.0, 25.0)])
        assert p.total_uptime == 15.0

    def test_overlapping_sessions_rejected(self):
        with pytest.raises(ValueError):
            self.make([PeerSession(0.0, 10.0), PeerSession(5.0, 15.0)])

    def test_unsorted_sessions_rejected(self):
        with pytest.raises(ValueError):
            self.make([PeerSession(20.0, 30.0), PeerSession(0.0, 10.0)])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PeerProfile(peer_id=0, uplink_bps=0.0, downlink_bps=1.0)


class TestSwarmSpec:
    def test_num_pieces_rounds_up(self):
        assert SwarmSpec(0, file_size=100.0, piece_size=30.0, origin_seeder=0).num_pieces == 4

    def test_exact_division(self):
        assert SwarmSpec(0, file_size=90.0, piece_size=30.0, origin_seeder=0).num_pieces == 3

    def test_piece_larger_than_file_rejected(self):
        with pytest.raises(ValueError):
            SwarmSpec(0, file_size=10.0, piece_size=30.0, origin_seeder=0)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            SwarmSpec(0, file_size=0.0, piece_size=1.0, origin_seeder=0)


class TestValidation:
    def make_trace(self, **overrides):
        peers = {
            0: PeerProfile(0, 1.0, 1.0, sessions=[PeerSession(0.0, 100.0)]),
            1: PeerProfile(1, 1.0, 1.0, sessions=[PeerSession(0.0, 100.0)]),
        }
        swarms = {0: SwarmSpec(0, 100.0, 10.0, origin_seeder=1)}
        requests = [FileRequest(0, 0, 10.0)]
        data = dict(duration=100.0, peers=peers, swarms=swarms, requests=requests)
        data.update(overrides)
        return CommunityTrace(**data)

    def test_valid_trace_passes(self):
        self.make_trace().validate()

    def test_unknown_request_peer(self):
        trace = self.make_trace(requests=[FileRequest(99, 0, 10.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_unknown_request_swarm(self):
        trace = self.make_trace(requests=[FileRequest(0, 99, 10.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_unsorted_requests(self):
        trace = self.make_trace(requests=[FileRequest(0, 0, 50.0), FileRequest(1, 0, 10.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_request_while_offline(self):
        peers = {
            0: PeerProfile(0, 1.0, 1.0, sessions=[PeerSession(50.0, 100.0)]),
            1: PeerProfile(1, 1.0, 1.0, sessions=[PeerSession(0.0, 100.0)]),
        }
        trace = self.make_trace(peers=peers, requests=[FileRequest(0, 0, 10.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_unknown_origin_seeder(self):
        trace = self.make_trace(swarms={0: SwarmSpec(0, 100.0, 10.0, origin_seeder=77)})
        with pytest.raises(ValueError):
            trace.validate()


class TestSyntheticGenerator:
    @pytest.fixture(scope="class")
    def trace(self):
        params = TraceParams(
            num_peers=25, num_swarms=3, duration=2 * DAY,
            min_file_size=20 * MB, max_file_size=100 * MB, target_pieces=64,
        )
        return SyntheticTraceGenerator(params, seed=11).generate()

    def test_validates(self, trace):
        trace.validate()  # does not raise

    def test_peer_count_includes_origin_seeders(self, trace):
        assert len(trace.peers) == 25 + 3

    def test_origin_seeders_always_online(self, trace):
        for spec in trace.swarms.values():
            seeder = trace.peers[spec.origin_seeder]
            assert seeder.online_at(0.0)
            assert seeder.online_at(trace.duration - 1.0)

    def test_file_sizes_in_range(self, trace):
        for spec in trace.swarms.values():
            assert 20 * MB <= spec.file_size <= 100 * MB

    def test_requests_unique_per_peer_swarm(self, trace):
        seen = set()
        for req in trace.requests:
            key = (req.peer_id, req.swarm_id)
            assert key not in seen
            seen.add(key)

    def test_deterministic(self):
        params = TraceParams(num_peers=10, num_swarms=2, duration=DAY)
        t1 = SyntheticTraceGenerator(params, seed=5).generate()
        t2 = SyntheticTraceGenerator(params, seed=5).generate()
        assert t1 == t2

    def test_seed_changes_output(self):
        params = TraceParams(num_peers=10, num_swarms=2, duration=DAY)
        t1 = SyntheticTraceGenerator(params, seed=5).generate()
        t2 = SyntheticTraceGenerator(params, seed=6).generate()
        assert t1 != t2

    def test_no_origin_seeder_mode(self):
        params = TraceParams(
            num_peers=10, num_swarms=2, duration=DAY, include_origin_seeders=False
        )
        trace = SyntheticTraceGenerator(params, seed=5).generate()
        assert len(trace.peers) == 10
        for spec in trace.swarms.values():
            assert spec.origin_seeder in trace.peers

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TraceParams(num_peers=1).validate()
        with pytest.raises(ValueError):
            TraceParams(num_swarms=0).validate()
        with pytest.raises(ValueError):
            TraceParams(min_file_size=100.0, max_file_size=10.0).validate()
        with pytest.raises(ValueError):
            TraceParams(day_active_prob=1.5).validate()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_traces_always_valid(seed):
    params = TraceParams(
        num_peers=6, num_swarms=2, duration=DAY, min_file_size=10 * MB,
        max_file_size=40 * MB, target_pieces=16,
    )
    trace = SyntheticTraceGenerator(params, seed=seed).generate()
    trace.validate()
    # Every request is within a session of its peer.
    for req in trace.requests:
        assert trace.peers[req.peer_id].online_at(req.time)
