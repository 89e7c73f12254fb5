"""Unit tests for the choker."""

import dataclasses
import math

import pytest

from repro.bittorrent.choker import interested_candidates, select_unchokes
from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.swarm import SwarmState
from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy, NoPolicy, RankPolicy
from repro.core.reputation import MB
from repro.sim.rng import RngRegistry
from repro.traces.models import SwarmSpec


@pytest.fixture
def rng():
    return RngRegistry(3).stream("choke")


@pytest.fixture
def config():
    return BitTorrentConfig(round_interval=10.0, regular_slots=2, optimistic_interval=30.0)


def make_swarm(num_leechers=4, seeder_id=100):
    swarm = SwarmState(SwarmSpec(0, file_size=100.0, piece_size=10.0, origin_seeder=seeder_id))
    swarm.join(seeder_id, now=0.0, complete=True)
    for pid in range(num_leechers):
        swarm.join(pid, now=0.0)
    return swarm


ALWAYS_ONLINE = lambda pid: True


def online_leechers(swarm, is_online=ALWAYS_ONLINE):
    """What the simulator hands the choker: once per swarm and round."""
    return [pid for pid in swarm.leecher_roster if is_online(pid)]


class TestInterestedCandidates:
    def test_seeder_sees_all_leechers(self):
        swarm = make_swarm(3)
        seeder = swarm.members[100]
        cands = interested_candidates(seeder, online_leechers(swarm))
        assert set(cands) == {0, 1, 2}

    def test_empty_leecher_attracts_no_interest(self):
        swarm = make_swarm(3)
        leecher = swarm.members[0]  # has no pieces
        assert interested_candidates(leecher, online_leechers(swarm)) == []

    def test_offline_peers_excluded(self):
        swarm = make_swarm(3)
        seeder = swarm.members[100]
        cands = interested_candidates(seeder, online_leechers(swarm, lambda p: p != 1))
        assert set(cands) == {0, 2}

    def test_unconnectable_pairs_excluded(self):
        # Peer 2 accepts no incoming connection: an uploader that accepts
        # none either is handed the connectable pool, which lacks it.
        swarm = make_swarm(3)
        seeder = swarm.members[100]
        reachable = [pid for pid in online_leechers(swarm) if pid != 2]
        assert set(interested_candidates(seeder, reachable)) == {0, 1}

    def test_other_seeders_not_interested(self):
        swarm = make_swarm(2)
        swarm.join(200, now=0.0, complete=True)
        seeder = swarm.members[100]
        cands = interested_candidates(seeder, online_leechers(swarm))
        assert 200 not in cands


class TestSelectUnchokes:
    def test_seeder_unchokes_up_to_slots_plus_optimistic(self, rng, config):
        swarm = make_swarm(6)
        seeder = swarm.members[100]
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        assert len(unchoked) == config.regular_slots + 1

    def test_no_candidates_no_unchokes(self, rng, config):
        swarm = make_swarm(0)
        seeder = swarm.members[100]
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        assert unchoked == set()

    def test_tit_for_tat_prefers_reciprocators(self, rng, config):
        swarm = make_swarm(5)
        leecher = swarm.members[0]
        leecher.bitfield.add(0)  # has something to offer
        leecher.received_last_round = {1: 1000.0, 2: 500.0, 3: 50.0}
        unchoked = select_unchokes(
            leecher, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        assert {1, 2} <= unchoked  # the top-2 reciprocators hold regular slots

    def test_seeder_prefers_fastest_downloaders(self, rng, config):
        swarm = make_swarm(5)
        seeder = swarm.members[100]
        seeder.sent_last_round = {4: 9000.0, 3: 8000.0}
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        assert {3, 4} <= unchoked

    def test_optimistic_persists_between_rotations(self, rng, config):
        swarm = make_swarm(8)
        seeder = swarm.members[100]
        # Pin the regular slots so the optimistic target cannot be absorbed
        # into them by a tie-break shuffle between rounds.
        seeder.sent_last_round = {6: 9000.0, 7: 8000.0}
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        first = seeder.optimistic_peer
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=2,
            config=config,
        )
        # Rotation period is 3 rounds (30s / 10s): unchanged at round 2.
        assert seeder.optimistic_peer == first

    def test_optimistic_rotates_after_interval(self, rng, config):
        swarm = make_swarm(8)
        seeder = swarm.members[100]
        choices = set()
        for round_idx in range(1, 40):
            select_unchokes(
                seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng,
                round_idx=round_idx, config=config,
            )
            choices.add(seeder.optimistic_peer)
        assert len(choices) >= 3  # rotates over the population

    def test_promotion_keeps_rotation_cadence(self, rng, config):
        # When tit-for-tat promotes the current optimistic peer into a
        # regular slot, the forced re-pick must NOT restart the rotation
        # clock: only genuine rotations (or a vanished target) do.
        # Resetting on promotion silently moved every later rotation off
        # the configured 30 s period.
        swarm = make_swarm(8)
        seeder = swarm.members[100]
        seeder.sent_last_round = {6: 9000.0, 7: 8000.0}
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        assert seeder.optimistic_chosen_round == 1
        promoted = seeder.optimistic_peer
        # Round 2: the optimistic target now tops the tit-for-tat ranking.
        seeder.sent_last_round = {promoted: 9000.0, 7: 8000.0}
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=2,
            config=config,
        )
        assert promoted in unchoked  # holds a regular slot now
        assert seeder.optimistic_peer != promoted  # re-picked
        assert seeder.optimistic_chosen_round == 1  # clock NOT reset
        # Round 3: period is 3 rounds, so still no rotation.
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=3,
            config=config,
        )
        assert seeder.optimistic_chosen_round == 1
        # Round 4: rotation lands on schedule, 3 rounds after round 1.
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=4,
            config=config,
        )
        assert seeder.optimistic_chosen_round == 4

    def test_ban_policy_excludes_banned(self, rng, config):
        swarm = make_swarm(4)
        seeder = swarm.members[100]
        node = BarterCastNode(100)
        node.record_upload(0, 900 * MB, now=1.0)  # peer 0 deep in debt
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=BanPolicy(-0.5), node=node, rng=rng, round_idx=1,
            config=config,
        )
        assert 0 not in unchoked

    def test_banned_excluded_from_optimistic(self, rng):
        # No regular slot: every unchoke is the optimistic one.  The policy
        # orders only what ``allowed`` kept, so the banned peer 0 is never
        # picked, across many rotations.
        swarm = make_swarm(4)
        seeder = swarm.members[100]
        node = BarterCastNode(100)
        node.record_upload(0, 900 * MB, now=1.0)
        cfg = BitTorrentConfig(round_interval=10.0, regular_slots=0, optimistic_interval=10.0)
        picked = set()
        for round_idx in range(1, 30):
            unchoked = select_unchokes(
                seeder, online_leechers(swarm), policy=BanPolicy(-0.5), node=node, rng=rng,
                round_idx=round_idx, config=cfg,
            )
            assert unchoked == {seeder.optimistic_peer}
            picked |= unchoked
        assert picked == {1, 2, 3}
        assert node.choke_banned == node.choke_calls == 29

    def test_rank_policy_optimistic_prefers_reputation(self, rng, config):
        swarm = make_swarm(4)
        seeder = swarm.members[100]
        node = BarterCastNode(100)
        node.record_download(2, 900 * MB, now=1.0)  # peer 2 served us a lot
        # No tit-for-tat signal: all ranks equal, optimistic slot decides.
        cfg = BitTorrentConfig(round_interval=10.0, regular_slots=0, optimistic_interval=30.0)
        unchoked = select_unchokes(
            seeder, online_leechers(swarm), policy=RankPolicy(), node=node, rng=rng, round_idx=1,
            config=cfg,
        )
        assert unchoked == {2}

    def test_offline_optimistic_target_replaced(self, rng, config):
        swarm = make_swarm(4)
        seeder = swarm.members[100]
        select_unchokes(
            seeder, online_leechers(swarm), policy=NoPolicy(), node=None, rng=rng, round_idx=1,
            config=config,
        )
        target = seeder.optimistic_peer
        unchoked = select_unchokes(
            seeder, online_leechers(swarm, lambda p: p != target), policy=NoPolicy(),
            node=None, rng=rng, round_idx=2, config=config,
        )
        assert target not in unchoked


class TestOptimisticPeriod:
    @pytest.mark.parametrize(
        "interval, rounds",
        # round() rounds half to even: 2.5 -> 2, 3.5 -> 4.
        [(25.0, 2), (35.0, 4), (30.0, 3), (10.0, 1)],
    )
    def test_rotation_period_in_rounds(self, interval, rounds):
        cfg = BitTorrentConfig(round_interval=10.0, optimistic_interval=interval)
        assert cfg.optimistic_every_rounds == rounds

    def test_a_config_cannot_go_stale(self):
        """The period is derived once, so a config is frozen: a changed
        one is built with ``replace``, which derives it again."""
        cfg = BitTorrentConfig(round_interval=10.0, optimistic_interval=30.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.optimistic_interval = 60.0
        assert dataclasses.replace(cfg, optimistic_interval=60.0).optimistic_every_rounds == 6
        assert cfg.optimistic_every_rounds == 3

    def test_derived_period_is_not_a_field(self):
        cfg = BitTorrentConfig()
        assert "optimistic_every_rounds" not in {f.name for f in dataclasses.fields(cfg)}
        assert cfg == BitTorrentConfig() and "optimistic_every_rounds" not in repr(cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [{"round_interval": 0.0}, {"optimistic_interval": 5.0}, {"regular_slots": -1}]
        # A NaN passes every ``<= 0`` test: seed_time=nan would seed for
        # ever, round_interval=nan fail deep in the build.
        + [
            {field: value}
            for field in (
                "round_interval",
                "optimistic_interval",
                "gossip_interval",
                "seed_time",
                "sample_interval",
            )
            for value in (math.nan, math.inf)
        ]
        + [{"pss_view_size": 0}, {"pss_view_size": -3}],
    )
    def test_invalid_config_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            BitTorrentConfig(**kwargs)

    def test_zero_seed_time_and_single_entry_view_accepted(self):
        cfg = BitTorrentConfig(seed_time=0.0, pss_view_size=1)
        assert (cfg.seed_time, cfg.pss_view_size) == (0.0, 1)
