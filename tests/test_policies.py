"""Unit tests for the reputation policies."""

import pytest

from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy, NoPolicy, RankPolicy
from repro.core.reputation import MB
from repro.sim.rng import RngRegistry


@pytest.fixture
def rng():
    return RngRegistry(5).stream("policy")


@pytest.fixture
def node():
    """A node that loves 'good', hates 'bad', ignores 'stranger'."""
    n = BarterCastNode("me")
    n.record_download("good", 800 * MB, now=1.0)
    n.record_upload("bad", 800 * MB, now=1.0)
    n.graph.add_node("stranger")
    return n


class TestNoPolicy:
    def test_allows_everyone(self, node):
        p = NoPolicy()
        assert p.allows(node, "bad")
        assert p.allows(None, "anyone")

    def test_order_is_permutation(self, node, rng):
        p = NoPolicy()
        order = p.order_optimistic(node, ["a", "b", "c"], rng)
        assert sorted(order) == ["a", "b", "c"]

    def test_name(self):
        assert NoPolicy().name == "none"


class TestRankPolicy:
    def test_allows_everyone(self, node):
        assert RankPolicy().allows(node, "bad")

    def test_orders_by_reputation(self, node, rng):
        p = RankPolicy()
        order = p.order_optimistic(node, ["bad", "stranger", "good"], rng)
        assert order == ["good", "stranger", "bad"]

    def test_without_node_random_permutation(self, rng):
        p = RankPolicy()
        order = p.order_optimistic(None, ["a", "b"], rng)
        assert sorted(order) == ["a", "b"]

    def test_empty_candidates(self, node, rng):
        assert RankPolicy().order_optimistic(node, [], rng) == []

    def test_ties_eventually_rotate(self, node, rng):
        # Strangers tie at reputation 0; the shuffle should produce both
        # orders across repeated rotations.
        node.graph.add_node("s2")
        p = RankPolicy()
        firsts = {
            p.order_optimistic(node, ["stranger", "s2"], rng)[0] for _ in range(50)
        }
        assert firsts == {"stranger", "s2"}


class TestBanPolicy:
    def test_bans_below_delta(self, node):
        p = BanPolicy(delta=-0.5)
        assert not p.allows(node, "bad")
        assert p.allows(node, "good")
        assert p.allows(node, "stranger")  # newcomers are not banned

    def test_threshold_inclusive(self, node):
        # reputation exactly at delta is allowed (>= delta).
        p = BanPolicy(delta=node.reputation_of("bad"))
        assert p.allows(node, "bad")

    def test_without_node_allows(self):
        assert BanPolicy(-0.5).allows(None, "x")

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            BanPolicy(delta=0.5)
        with pytest.raises(ValueError):
            BanPolicy(delta=-1.5)
        BanPolicy(delta=0.0)
        BanPolicy(delta=-1.0)

    def test_stricter_delta_bans_less(self, node):
        """A more negative delta is *more lenient* (harder to cross)."""
        mild = BanPolicy(delta=-0.3)
        strict_threshold = BanPolicy(delta=-0.95)
        assert not mild.allows(node, "bad")
        # -0.95 is beyond what 800 MB imbalance produces: still allowed.
        assert node.reputation_of("bad") > -0.95
        assert strict_threshold.allows(node, "bad")


def _stranger_policies():
    from repro.core.whitewashing import (
        AdaptiveStrangerPenalty,
        StaticStrangerPenalty,
        TrustedIdentities,
    )

    return [
        None,
        TrustedIdentities(),
        StaticStrangerPenalty(-0.6),
        AdaptiveStrangerPenalty(initial=-0.7),
    ]


class TestAllowedAsksOnce:
    """``allowed`` — what the choker calls — is ``allows`` over the list,
    answered from a single ``reputations_of`` pass."""

    PEERS = ["bad", "stranger", "good", "ghost", "bad", "meh"]

    @pytest.fixture
    def busy_node(self, node):
        node.record_upload("meh", 60 * MB, now=2.0)  # mildly negative, above -0.5
        return node

    def _policies(self):
        yield NoPolicy()
        for stranger in _stranger_policies():
            yield RankPolicy(stranger_policy=stranger)
            for delta in (-0.5, -0.1, 0.0, -1.0):
                yield BanPolicy(delta, stranger_policy=stranger)

    def test_equals_per_peer_allows(self, busy_node):
        for policy in self._policies():
            for who in (busy_node, None):
                want = [p for p in self.PEERS if policy.allows(who, p)]
                assert policy.allowed(who, self.PEERS) == want, (policy, policy.stranger_policy)
            assert policy.allowed(busy_node, []) == []

    def test_ban_really_filters_here(self, busy_node):
        assert BanPolicy(-0.5).allowed(busy_node, self.PEERS) == ["stranger", "good", "ghost", "meh"]
        strict = BanPolicy(-0.5, stranger_policy=_stranger_policies()[2])
        assert strict.allowed(busy_node, self.PEERS) == ["good", "meh"]

    def test_ban_is_one_batched_lookup(self, busy_node, monkeypatch):
        calls = []
        batch = busy_node.reputations_of
        monkeypatch.setattr(busy_node, "reputations_of", lambda peers: calls.append(list(peers)) or batch(peers))
        monkeypatch.setattr(busy_node, "reputation_of", lambda peer: pytest.fail("asked per peer"))
        BanPolicy(-0.5).allowed(busy_node, self.PEERS)
        assert calls == [self.PEERS]

    def test_rank_and_baseline_evaluate_nothing(self, busy_node):
        for policy in (NoPolicy(), RankPolicy()):
            assert policy.allowed(busy_node, self.PEERS) == self.PEERS
        assert busy_node.rep_cache_misses == busy_node.rep_cache_hits == 0

    def test_rank_order_reads_each_score_once(self, busy_node, rng):
        order = RankPolicy().order_optimistic(busy_node, ["bad", "meh", "good", "stranger"], rng)
        assert order == ["good", "stranger", "meh", "bad"]
        assert (busy_node.rep_cache_hits, busy_node.rep_cache_misses) == (0, 4)
