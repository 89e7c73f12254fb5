"""Unit tests for bandwidth allocation and the transfer path.

These exercise ``CommunitySimulator._allocate_bandwidth`` and
``_execute_transfers`` directly on a hand-built two-swarm trace, checking
the capacity model: equal uplink split across links, receiver downlink
caps, piece-boundary accounting, and carry-over of partial pieces.
"""

import numpy as np
import pytest

from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.roles import Role, RoleAssignment
from repro.bittorrent.simulator import CommunitySimulator
from repro.traces.models import (
    CommunityTrace,
    FileRequest,
    PeerProfile,
    PeerSession,
    SwarmSpec,
)

UP = 1000.0  # bytes/s
DOWN = 2500.0


def build_sim(num_peers=4, piece_size=100.0, file_size=1000.0, downlink=DOWN):
    peers = {
        pid: PeerProfile(
            peer_id=pid,
            uplink_bps=UP,
            downlink_bps=downlink,
            connectable=True,
            sessions=[PeerSession(0.0, 10_000.0)],
        )
        for pid in range(num_peers)
    }
    swarms = {
        0: SwarmSpec(0, file_size=file_size, piece_size=piece_size, origin_seeder=0),
    }
    trace = CommunityTrace(duration=10_000.0, peers=peers, swarms=swarms, requests=[])
    trace.validate()
    roles = RoleAssignment(
        roles={0: Role.ORIGIN, **{pid: Role.SHARER for pid in range(1, num_peers)}}
    )
    config = BitTorrentConfig(round_interval=10.0, optimistic_interval=30.0)
    sim = CommunitySimulator(trace, roles, config=config, seed=1)
    sim.engine.run_until(0.0)  # fire the t=0 events (origin join, sessions)
    sim.online.update(range(num_peers))
    sim.live.update(range(num_peers))  # no churn: every online peer is live
    return sim


def transfer(sim, swarm, up, down, budget, now):
    """One link through the transfer step; the bytes it moved."""
    _, received, _ = sim._execute_transfers([(up, down, swarm, budget)], now)
    return sum(nbytes for rates in received.values() for nbytes in rates.values())


class TestAllocateBandwidth:
    def test_equal_split_across_links(self):
        sim = build_sim()
        swarm = sim.swarms[0]
        for pid in (1, 2):
            sim._join(0, pid)
        links = [(0, 1, swarm), (0, 2, swarm)]
        allocated = sim._allocate_bandwidth(links, dt=10.0)
        amounts = [b for *_, b in allocated]
        assert amounts == [UP * 10.0 / 2] * 2

    def test_uplink_split_spans_swarms_globally(self):
        sim = build_sim()
        swarm = sim.swarms[0]
        for pid in (1, 2, 3):
            sim._join(0, pid)
        links = [(0, 1, swarm), (0, 2, swarm), (0, 3, swarm)]
        allocated = sim._allocate_bandwidth(links, dt=10.0)
        total = sum(b for *_, b in allocated)
        assert total == pytest.approx(UP * 10.0)

    def test_downlink_cap_scales_proportionally(self):
        # Three uploaders feed one receiver whose downlink is the binding cap.
        sim = build_sim(downlink=150.0)  # 150 B/s << 3 x 1000 B/s
        swarm = sim.swarms[0]
        sim._join(0, 3)
        links = [(0, 3, swarm), (1, 3, swarm), (2, 3, swarm)]
        allocated = sim._allocate_bandwidth(links, dt=10.0)
        total_in = sum(b for *_, b in allocated)
        assert total_in == pytest.approx(150.0 * 10.0)
        # Proportional: all uploaders offered the same, so all scaled equally.
        amounts = [b for *_, b in allocated]
        assert max(amounts) == pytest.approx(min(amounts))

    def test_empty_links(self):
        sim = build_sim()
        assert sim._allocate_bandwidth([], dt=10.0) == []


class TestTransfer:
    def test_whole_pieces_granted(self):
        sim = build_sim(piece_size=100.0, file_size=1000.0)
        swarm = sim.swarms[0]
        member = swarm.join(1, now=0.0)
        moved = transfer(sim, swarm, 0, 1, budget=250.0, now=0.0)
        assert moved == 250.0
        assert member.bitfield.num_have == 2  # two whole pieces
        assert member.carry[0] == pytest.approx(50.0)

    def test_carry_completes_next_piece(self):
        sim = build_sim(piece_size=100.0, file_size=1000.0)
        swarm = sim.swarms[0]
        member = swarm.join(1, now=0.0)
        transfer(sim, swarm, 0, 1, budget=250.0, now=0.0)
        transfer(sim, swarm, 0, 1, budget=60.0, now=10.0)
        # 50 carry + 60 = 110 -> one more piece + 10 carry.
        assert member.bitfield.num_have == 3
        assert member.carry[0] == pytest.approx(10.0)

    def test_transfer_capped_by_remaining_pieces(self):
        sim = build_sim(piece_size=100.0, file_size=300.0)
        swarm = sim.swarms[0]
        member = swarm.join(1, now=0.0)
        moved = transfer(sim, swarm, 0, 1, budget=1e9, now=0.0)
        assert moved == pytest.approx(300.0)
        assert member.bitfield.is_complete

    def test_transfer_to_complete_member_is_zero(self):
        sim = build_sim()
        swarm = sim.swarms[0]
        swarm.join(1, now=0.0, complete=True)
        assert transfer(sim, swarm, 0, 1, budget=500.0, now=0.0) == 0.0

    def test_transfer_between_nonmembers_is_zero(self):
        sim = build_sim()
        swarm = sim.swarms[0]
        assert transfer(sim, swarm, 0, 99, budget=500.0, now=0.0) == 0.0

    def test_zero_budget(self):
        sim = build_sim()
        swarm = sim.swarms[0]
        swarm.join(1, now=0.0)
        assert transfer(sim, swarm, 0, 1, budget=0.0, now=0.0) == 0.0

    def test_leecher_uploader_limited_to_its_pieces(self):
        sim = build_sim(piece_size=100.0, file_size=1000.0)
        swarm = sim.swarms[0]
        up = swarm.join(1, now=0.0)
        down = swarm.join(2, now=0.0)
        swarm.grant_pieces(up, np.array([0, 1]), now=0.0)
        moved = transfer(sim, swarm, 1, 2, budget=1e9, now=0.0)
        assert moved == pytest.approx(200.0)
        assert down.bitfield.num_have == 2
        assert down.bitfield.have[0] and down.bitfield.have[1]

    def test_accounting_reaches_bartercast_and_stats(self):
        sim = build_sim(piece_size=100.0, file_size=1000.0)
        swarm = sim.swarms[0]
        swarm.join(1, now=0.0)
        transfer(sim, swarm, 0, 1, budget=250.0, now=0.0)
        assert sim.nodes[0].history.get(1).uploaded == pytest.approx(250.0)
        assert sim.nodes[1].history.get(0).downloaded == pytest.approx(250.0)
        assert sim.stats.total_downloaded(1) == pytest.approx(250.0)

    def test_rarest_first_across_connections(self):
        # Receiver fetching from a leecher must prefer the rarer pieces.
        sim = build_sim(num_peers=5, piece_size=100.0, file_size=500.0)
        swarm = sim.swarms[0]
        up = swarm.join(1, now=0.0)
        down = swarm.join(2, now=0.0)
        filler = swarm.join(3, now=0.0)
        swarm.grant_pieces(up, np.array([0, 1, 2]), now=0.0)
        # Piece 0 is common (filler also has it); pieces 1, 2 are rarer.
        swarm.grant_pieces(filler, np.array([0]), now=0.0)
        transfer(sim, swarm, 1, 2, budget=200.0, now=0.0)
        assert down.bitfield.have[1] and down.bitfield.have[2]
        assert not down.bitfield.have[0]
