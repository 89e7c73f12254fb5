"""Integration tests for the community simulator.

These run small end-to-end scenarios and assert the emergent properties
the paper relies on: files actually disseminate, transfer accounting is
conserved, reputations diverge by role, bans actually bite, and runs are
reproducible from their seed.
"""

import numpy as np
import pytest

from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.roles import Role, RoleAssignment
from repro.bittorrent.simulator import CommunitySimulator
from repro.core.policies import BanPolicy, NoPolicy
from repro.experiments.scenario import build_simulation
from repro.faults import FaultConfig
from repro.sim.engine import SimulationError
from repro.traces.models import DAY
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams
from tests import model
from tests.model import busy

MB = 1024.0**2


def small_setup(seed=21, policy=None, duration=0.6 * DAY, freerider_fraction=0.5,
                disobey_fraction=0.0, disobey_kind=None, faults=None):
    params = TraceParams(
        num_peers=14,
        num_swarms=2,
        duration=duration,
        min_file_size=20 * MB,
        max_file_size=60 * MB,
        target_pieces=48,
        swarms_per_peer_mean=1.6,
        prime_time_hour=2.0,
        day_active_prob=1.0,
        mean_session_hours=8.0,
    )
    trace = SyntheticTraceGenerator(params, seed=seed).generate()
    roles = RoleAssignment.split(
        trace, freerider_fraction=freerider_fraction, seed=seed,
        disobey_fraction=disobey_fraction, disobey_kind=disobey_kind,
    )
    config = BitTorrentConfig(
        round_interval=30.0, optimistic_interval=60.0,
        gossip_interval=60.0, sample_interval=3600.0,
    )
    sim = CommunitySimulator(
        trace, roles, policy=policy, config=config, seed=seed, faults=faults
    )
    return sim


class TestDissemination:
    def test_data_actually_moves(self):
        sim = small_setup()
        stats = sim.run()
        assert stats.downloaded.sum() > 10 * MB

    def test_some_downloads_complete(self):
        sim = small_setup()
        sim.run()
        assert sum(s.completions for s in sim.swarms.values()) > 0

    def test_conservation_upload_equals_download(self):
        sim = small_setup()
        stats = sim.run()
        assert stats.uploaded.sum() == pytest.approx(stats.downloaded.sum())

    def test_bartercast_histories_match_stats(self):
        sim = small_setup()
        stats = sim.run()
        for pid, node in sim.nodes.items():
            totals = [t for _, t in node.history.items()]
            assert sum(t.uploaded for t in totals) == pytest.approx(stats.total_uploaded(pid))
            assert sum(t.downloaded for t in totals) == pytest.approx(
                stats.total_downloaded(pid)
            )

    def test_completed_freeriders_leave_swarms(self):
        sim = small_setup()
        sim.run()
        for swarm in sim.swarms.values():
            for member in swarm.members.values():
                if member.is_seeder:
                    assert sim.roles.role_of(member.peer_id) != Role.FREERIDER

    def test_origin_seeders_stay(self):
        sim = small_setup()
        sim.run()
        for sid, swarm in sim.swarms.items():
            origin = sim.trace.swarms[sid].origin_seeder
            assert swarm.is_member(origin)
            assert swarm.members[origin].is_seeder

    def test_availability_consistent_with_bitfields(self):
        sim = small_setup()
        sim.run()
        for swarm in sim.swarms.values():
            expected = np.zeros(swarm.num_pieces, dtype=np.int32)
            for member in swarm.members.values():
                expected += member.bitfield.have.astype(np.int32)
            assert (swarm.availability == expected).all()


class TestGossip:
    def test_messages_flow(self):
        sim = small_setup()
        sim.run()
        sent = sum(n.messages_sent for n in sim.nodes.values())
        received = sum(n.messages_received for n in sim.nodes.values())
        assert sent > 0
        assert received == sent

    def test_nodes_learn_about_third_parties(self):
        sim = small_setup()
        sim.run()
        # At least some node must know more peers than it transferred with.
        learned = [
            n.graph.num_nodes - 1 - len(n.history)
            for n in sim.nodes.values()
        ]
        assert max(learned) > 0


class TestReputationDynamics:
    def test_freeriders_rank_below_sharers(self):
        sim = small_setup(duration=1.0 * DAY)
        sim.run()
        snap = sim.system_reputation_snapshot()
        sharer_mean = np.mean([snap[p] for p in sim.roles.sharers])
        freerider_mean = np.mean([snap[p] for p in sim.roles.freeriders])
        assert sharer_mean > freerider_mean

    def test_ban_policy_reduces_freerider_share(self):
        sim_none = small_setup(duration=1.0 * DAY, policy=NoPolicy())
        stats_none = sim_none.run()
        sim_ban = small_setup(duration=1.0 * DAY, policy=BanPolicy(-0.3))
        stats_ban = sim_ban.run()
        fr = sim_ban.roles.freeriders
        down_none = sum(stats_none.total_downloaded(p) for p in fr)
        down_ban = sum(stats_ban.total_downloaded(p) for p in fr)
        assert down_ban <= down_none

    def test_snapshot_excludes_origin_seeders(self):
        sim = small_setup()
        sim.run()
        snap = sim.system_reputation_snapshot()
        origin_ids = {s.origin_seeder for s in sim.trace.swarms.values()}
        assert not set(snap) & origin_ids

    def test_snapshot_is_equation_2(self):
        scenario = busy(3)
        sim = build_simulation(scenario)
        sim.run()
        snap = sim.system_reputation_snapshot()
        unit = scenario.bc_config.metric.unit_bytes
        naive = model.system_reputation(sim.nodes, sim.roles.subjects, unit)
        assert list(snap) == list(naive)
        assert {p: v.hex() for p, v in snap.items()} == {p: v.hex() for p, v in naive.items()}
        assert len(set(snap.values())) > 1

    def test_run_to_a_nan_horizon_raises(self):
        sim = small_setup()
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.engine.now == 0.0 and sim.engine.events_fired == 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        s1 = small_setup(seed=33).run()
        s2 = small_setup(seed=33).run()
        assert np.array_equal(s1.downloaded, s2.downloaded)
        assert np.array_equal(s1.uploaded, s2.uploaded)

    def test_different_seed_different_outcome(self):
        s1 = small_setup(seed=33).run()
        s2 = small_setup(seed=34).run()
        assert not np.array_equal(s1.downloaded, s2.downloaded)


class TestHooks:
    def test_samplers_fire(self):
        sim = small_setup()
        calls = []
        sim.add_sampler(lambda now: calls.append(now))
        sim.run()
        assert len(calls) >= 5
        assert calls == sorted(calls)

    def test_run_until_partial(self):
        sim = small_setup()
        sim.run(until=3600.0)
        assert sim.engine.now == 3600.0


class TestAdversaries:
    def test_ignorers_send_nothing(self):
        sim = small_setup(disobey_fraction=0.5, disobey_kind="ignore")
        sim.run()
        for pid in sim.roles.behaviors:
            assert sim.nodes[pid].messages_sent == 0

    def test_liars_get_no_boost_beyond_bound(self):
        sim = small_setup(duration=1.0 * DAY, disobey_fraction=0.5, disobey_kind="lie")
        sim.run()
        metric = sim.bc_config.metric
        for evaluator in sim.roles.sharers:
            node = sim.nodes[evaluator]
            in_cap = sum(node.graph.predecessors(evaluator).values())
            bound = metric.scale(in_cap)
            for liar in sim.roles.behaviors:
                if liar != evaluator:
                    assert node.reputation_of(liar) <= bound + 1e-9


class TestFailureInjection:
    def test_gossip_loss_drops_messages(self):
        sim_ok = small_setup(seed=44)
        sim_ok.run()
        received_ok = sum(n.messages_received for n in sim_ok.nodes.values())

        sim_lossy = small_setup(seed=44, faults=FaultConfig(loss=0.5))
        sim_lossy.run()
        received_lossy = sum(n.messages_received for n in sim_lossy.nodes.values())
        sent_lossy = sum(n.messages_sent for n in sim_lossy.nodes.values())
        assert received_lossy < received_ok
        assert received_lossy < sent_lossy  # some messages actually lost

    def test_system_survives_heavy_loss(self):
        sim = small_setup(seed=44, faults=FaultConfig(loss=0.9))
        stats = sim.run()
        # Data still disseminates and reputations still separate by role.
        assert stats.downloaded.sum() > 0
        snap = sim.system_reputation_snapshot()
        sharer_mean = np.mean([snap[p] for p in sim.roles.sharers])
        freerider_mean = np.mean([snap[p] for p in sim.roles.freeriders])
        assert sharer_mean >= freerider_mean

    def test_gossip_loss_validation(self):
        cfg = FaultConfig(loss=1.5)
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = FaultConfig(loss=-0.1)
        with pytest.raises(ValueError):
            cfg.validate()
