"""Unit tests for swarm state."""

import numpy as np
import pytest

from repro.bittorrent.swarm import SwarmState
from repro.traces.models import SwarmSpec


@pytest.fixture
def swarm():
    return SwarmState(SwarmSpec(swarm_id=0, file_size=100.0, piece_size=10.0, origin_seeder=99))


class TestMembership:
    def test_join_leecher(self, swarm):
        m = swarm.join(1, now=5.0)
        assert not m.is_seeder
        assert list(swarm.leecher_roster) == [1] and not swarm.seeder_roster
        assert m.joined_at == 5.0
        assert m.completed_at is None
        assert swarm.is_member(1)

    def test_join_seeder_counts_availability(self, swarm):
        swarm.join(99, now=0.0, complete=True)
        assert (swarm.availability == 1).all()
        assert swarm.members[99].is_seeder
        assert swarm.members[99].completed_at == 0.0

    def test_join_idempotent(self, swarm):
        m1 = swarm.join(1, now=5.0)
        m2 = swarm.join(1, now=9.0)
        assert m1 is m2
        assert m1.joined_at == 5.0

    def test_leave_removes_availability(self, swarm):
        swarm.join(99, now=0.0, complete=True)
        swarm.leave(99)
        assert (swarm.availability == 0).all()
        assert not swarm.is_member(99)

    def test_leave_absent_noop(self, swarm):
        swarm.leave(42)

    def test_leave_partial_member(self, swarm):
        m = swarm.join(1, now=0.0)
        swarm.grant_pieces(m, np.array([0, 3]), now=1.0)
        swarm.leave(1)
        assert swarm.availability[0] == 0
        assert swarm.availability[3] == 0


class TestPieces:
    def test_grant_updates_availability(self, swarm):
        m = swarm.join(1, now=0.0)
        finished = swarm.grant_pieces(m, np.array([0, 1]), now=1.0)
        assert not finished
        assert swarm.availability[0] == 1
        assert m.bitfield.num_have == 2

    def test_grant_completion(self, swarm):
        m = swarm.join(1, now=0.0)
        finished = swarm.grant_pieces(m, np.arange(10), now=7.0)
        assert finished
        assert m.completed_at == 7.0
        assert swarm.completions == 1

    def test_completion_fires_once(self, swarm):
        m = swarm.join(1, now=0.0)
        swarm.grant_pieces(m, np.arange(10), now=7.0)
        again = swarm.grant_pieces(m, np.arange(10), now=8.0)
        assert not again
        assert swarm.completions == 1
        assert m.completed_at == 7.0

    def test_leechers_and_seeders_views(self, swarm):
        swarm.join(99, now=0.0, complete=True)
        swarm.join(1, now=0.0)
        assert list(swarm.seeder_roster) == [99]
        assert list(swarm.leecher_roster) == [1]

    def test_views_keep_members_order_across_completion(self, swarm):
        swarm.join(99, now=0.0, complete=True)
        a, b, c = (swarm.join(pid, now=0.0) for pid in (1, 2, 3))
        swarm.grant_pieces(c, np.arange(10), now=1.0)
        swarm.grant_pieces(a, np.arange(10), now=2.0)
        # The leecher roster iterates in join order; completion moves a
        # member to the seeder roster.
        assert list(swarm.leecher_roster) == [2]
        assert set(swarm.seeder_roster) == {99, 1, 3}
        swarm.leave(1)
        swarm.join(1, now=3.0)
        assert list(swarm.leecher_roster) == [2, 1]
        assert set(swarm.seeder_roster) == {99, 3}

    def test_regrant_does_not_inflate_availability(self, swarm):
        # Regression: granting [0, 1] to a member that already held 0 used
        # to bump availability[0] again, for good.
        m = swarm.join(1, now=0.0)
        swarm.grant_pieces(m, np.array([0]), now=1.0)
        swarm.grant_pieces(m, np.array([0, 1, 1]), now=2.0)
        assert list(swarm.availability[:3]) == [1, 1, 0]
        assert m.bitfield.num_have == 2
        swarm.leave(1)
        assert (swarm.availability == 0).all()

    def test_num_pieces_matches_spec(self, swarm):
        assert swarm.num_pieces == 10
