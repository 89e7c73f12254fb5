"""Unit tests for stranger policies and the whitewashing experiment."""

import pytest

from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy, RankPolicy
from repro.core.reputation import MB
from repro.core.whitewashing import (
    AdaptiveStrangerPenalty,
    StaticStrangerPenalty,
    TrustedIdentities,
    is_stranger,
)
from repro.experiments.whitewash import (
    WhitewashParams,
    run_whitewash,
    make_stranger_policy,
)
from repro.sim.rng import RngRegistry


@pytest.fixture
def node():
    n = BarterCastNode("me")
    n.record_download("friend", 300 * MB, now=1.0)
    n.record_upload("debtor", 300 * MB, now=1.0)
    return n


class TestIsStranger:
    def test_unknown_peer_is_stranger(self, node):
        assert is_stranger(node, "ghost")

    def test_direct_contact_is_not(self, node):
        assert not is_stranger(node, "friend")

    def test_self_is_not(self, node):
        assert not is_stranger(node, "me")

    def test_gossiped_about_peer_is_not(self, node):
        from repro.core.messages import BarterCastMessage, HistoryRecord

        node.receive_message(
            BarterCastMessage("friend", 2.0, (HistoryRecord("third", 10 * MB, 0.0),))
        )
        assert not is_stranger(node, "third")

    def test_isolated_graph_node_is_stranger(self, node):
        node.graph.add_node("floating")
        assert is_stranger(node, "floating")


class TestTrustedIdentities:
    def test_stranger_prior_zero(self, node):
        assert TrustedIdentities().effective_reputation(node, "ghost") == 0.0

    def test_known_peer_uses_raw_reputation(self, node):
        p = TrustedIdentities()
        assert p.effective_reputation(node, "friend") == node.reputation_of("friend")


class TestStaticPenalty:
    def test_stranger_gets_penalty(self, node):
        p = StaticStrangerPenalty(penalty=-0.3)
        assert p.effective_reputation(node, "ghost") == -0.3

    def test_known_peer_unaffected(self, node):
        p = StaticStrangerPenalty(penalty=-0.3)
        assert p.effective_reputation(node, "debtor") == node.reputation_of("debtor")

    def test_penalty_range_validated(self):
        with pytest.raises(ValueError):
            StaticStrangerPenalty(penalty=0.1)
        with pytest.raises(ValueError):
            StaticStrangerPenalty(penalty=-1.5)

    def test_observe_is_noop(self):
        p = StaticStrangerPenalty(-0.2)
        p.observe(-0.9)
        assert p.penalty == -0.2


class TestAdaptivePenalty:
    def test_starts_at_initial(self):
        assert AdaptiveStrangerPenalty(initial=-0.1).prior == -0.1

    def test_bad_outcomes_sink_prior(self):
        p = AdaptiveStrangerPenalty(alpha=0.5)
        for _ in range(10):
            p.observe(-0.9)
        assert p.prior < -0.5

    def test_good_outcomes_recover_prior(self):
        p = AdaptiveStrangerPenalty(alpha=0.5, initial=-0.8, floor=-0.8)
        for _ in range(20):
            p.observe(0.5)
        assert p.prior > -0.1

    def test_prior_clipped_to_floor_and_zero(self):
        p = AdaptiveStrangerPenalty(alpha=1.0, floor=-0.6)
        p.observe(-5.0)
        assert p.prior == -0.6
        p.observe(5.0)
        assert p.prior == 0.0

    def test_observation_counter(self):
        """Each fed-back outcome is blended into the prior exactly once."""
        p = AdaptiveStrangerPenalty(alpha=0.5, initial=-0.2)
        p.observe(0.0)
        assert p.prior == -0.1
        p.observe(-0.3)
        assert p.prior == pytest.approx(-0.2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStrangerPenalty(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveStrangerPenalty(floor=0.5)
        with pytest.raises(ValueError):
            AdaptiveStrangerPenalty(floor=-0.5, initial=-0.9)


class TestPolicyIntegration:
    def test_ban_policy_uses_stranger_prior(self, node):
        ban = BanPolicy(delta=-0.5, stranger_policy=StaticStrangerPenalty(-0.6))
        assert not ban.allows(node, "ghost")  # stranger below threshold
        assert ban.allows(node, "friend")

    def test_ban_policy_without_stranger_policy_admits_strangers(self, node):
        assert BanPolicy(delta=-0.5).allows(node, "ghost")

    def test_rank_policy_orders_with_prior(self, node):
        rng = RngRegistry(1).stream("t")
        rank = RankPolicy(stranger_policy=StaticStrangerPenalty(-0.9))
        order = rank.order_optimistic(node, ["ghost", "debtor"], rng)
        # debtor's raw reputation (~ -0.5) beats the stranger prior (-0.9).
        assert order == ["debtor", "ghost"]


class TestWhitewashExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        params = WhitewashParams(rounds=80)
        return {
            kind: run_whitewash(kind, params, seed=5)
            for kind in ("trusted", "static", "adaptive")
        }

    def test_trusted_ids_make_whitewashing_free(self, results):
        assert results["trusted"].washer_advantage > 0.5

    def test_static_penalty_locks_washers_out(self, results):
        assert results["static"].service["washer"] == 0.0
        # ... but honest upload-first newcomers still get served.
        assert results["static"].service["newcomer"] > 10.0

    def test_adaptive_penalty_suppresses_washers(self, results):
        assert (
            results["adaptive"].washer_advantage
            < results["trusted"].washer_advantage
        )

    def test_adaptive_prior_learns_downward(self, results):
        trajectory = results["adaptive"].prior_trajectory
        assert trajectory[-1] < -0.3

    def test_identities_burned_counted(self, results):
        assert results["static"].identities_burned > results["trusted"].identities_burned / 2

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError):
            make_stranger_policy("oracle")

    def test_deterministic(self):
        params = WhitewashParams(rounds=30)
        a = run_whitewash("adaptive", params, seed=9)
        b = run_whitewash("adaptive", params, seed=9)
        assert a.service == b.service
        assert a.prior_trajectory == b.prior_trajectory
