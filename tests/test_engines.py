"""Unit and property tests for the pluggable reputation engines.

Covers the mechanism-zoo contract (DESIGN.md §15): cross-engine
agreement on the degenerate cases every mechanism must score the same
way, the per-engine semantics that differ on purpose (ratio's closed
bounds and native ban threshold), every engine served through the
node's one cache, and the RankPolicy stranger-rotation property —
with every reputation tied at zero the rank order must equal plain
BitTorrent's shuffle for the same seed, under every engine.
"""

import math

import pytest

from repro.core.engines import (
    ENGINE_NAMES,
    ENGINES,
    BarterCastEngine,
    DifferentialGossipEngine,
    RatioCreditEngine,
    make_engine,
)
from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.policies import NoPolicy, RankPolicy
from repro.core.reputation import MB
from repro.sim.rng import RngRegistry


def engines_on(setup):
    """One node per registered engine, each replaying ``setup(node)``."""
    nodes = []
    for name in ENGINE_NAMES:
        node = BarterCastNode("me", engine=name)
        setup(node)
        nodes.append(node)
    return nodes


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_registry_names_match_instances(self):
        for name in ENGINE_NAMES:
            assert make_engine(name).name == name

    def test_expected_zoo(self):
        assert set(ENGINES) == {"bartercast", "gossip", "ratio"}

    def test_unknown_engine_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="bartercast"):
            make_engine("eigentrust")

    def test_engine_knob_validation(self):
        with pytest.raises(ValueError):
            DifferentialGossipEngine(gossip_weight=1.5)
        with pytest.raises(ValueError):
            RatioCreditEngine(ban_ratio=-0.1)


# ---------------------------------------------------------------------------
# Cross-engine agreement on degenerate cases
# ---------------------------------------------------------------------------
class TestEngineAgreement:
    def test_empty_graph_scores_zero_everywhere(self):
        for node in engines_on(lambda node: None):
            assert node.reputation_of("stranger") == 0.0
            assert node.engine.evidence_flows(node, "stranger") == (0.0, 0.0)

    def test_self_reputation_raises_everywhere(self):
        for node in engines_on(lambda node: None):
            with pytest.raises(ValueError):
                node.reputation_of("me")

    def test_symmetric_two_peer_scores_zero_everywhere(self):
        def setup(node):
            node.record_upload("p", 64 * MB, now=1.0)
            node.record_download("p", 64 * MB, now=2.0)

        for node in engines_on(setup):
            assert node.reputation_of("p") == pytest.approx(0.0)

    def test_batch_identical_to_scalar_everywhere(self):
        def setup(node):
            node.record_upload("a", 10 * MB, now=1.0)
            node.record_download("b", 90 * MB, now=2.0)
            node.graph.add_node("c")

        peers = ["a", "b", "c", "me", "a"]  # self and dupes skipped
        for node in engines_on(setup):
            batch = node.reputations_of(peers)
            assert set(batch) == {"a", "b", "c"}
            for p, value in batch.items():
                assert value == node.engine.score(node, p)

    def test_scores_within_declared_bounds(self):
        def setup(node):
            node.record_upload("leech", 5000 * MB, now=1.0)
            node.record_download("seed", 5000 * MB, now=2.0)

        for node in engines_on(setup):
            eng = node.engine
            lo, hi = eng.score_bounds
            for peer in ("leech", "seed"):
                rep = node.reputation_of(peer)
                assert not math.isnan(rep)
                if eng.bounds_closed:
                    assert lo <= rep <= hi
                else:
                    assert lo < rep < hi

    def test_rank_tie_break_deterministic_everywhere(self):
        def setup(node):
            for p in ("c", "a", "b"):
                node.graph.add_node(p)

        for node in engines_on(setup):
            # All-zero scores: the shared tie-break is repr order.
            assert node.rank_by_reputation(["c", "a", "b"]) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Per-engine semantics
# ---------------------------------------------------------------------------
class TestBarterCastEngine:
    def test_matches_native_node_path(self):
        node = BarterCastNode("me")
        node.record_download("p", 100 * MB, now=1.0)
        eng = BarterCastEngine()
        assert eng.score(node, "p") == node.reputation_of("p")
        inflow, outflow = eng.evidence_flows(node, "p")
        assert inflow == 100 * MB and outflow == 0.0

    def test_explain_components_decompose_score(self):
        node = BarterCastNode("me")
        node.record_download("p", 100 * MB, now=1.0)
        comp = BarterCastEngine().explain_components(node, "p")
        assert comp["net_bytes"] == 100 * MB
        assert comp["score"] == node.reputation_of("p")


class TestRatioCreditEngine:
    def test_bootstrap_grace_is_zero_not_nan(self):
        node = BarterCastNode("me")
        node.graph.add_node("p")
        rep = RatioCreditEngine().score(node, "p")
        assert rep == 0.0 and not math.isnan(rep)

    def test_pure_leecher_and_seeder_hit_closed_bounds(self):
        node = BarterCastNode("me")
        node.record_upload("leech", 1 * MB, now=1.0)
        node.record_download("seed", 1 * MB, now=2.0)
        eng = RatioCreditEngine()
        assert eng.bounds_closed
        assert eng.score(node, "leech") == -1.0
        assert eng.score(node, "seed") == 1.0

    def test_scale_free(self):
        small = BarterCastNode("me")
        small.record_upload("p", 2 * MB, now=1.0)
        small.record_download("p", 1 * MB, now=2.0)
        big = BarterCastNode("me")
        big.record_upload("p", 2000 * MB, now=1.0)
        big.record_download("p", 1000 * MB, now=2.0)
        eng = RatioCreditEngine()
        assert eng.score(small, "p") == eng.score(big, "p")

    def test_effective_delta_is_native_ratio_floor(self):
        eng = RatioCreditEngine(ban_ratio=0.25)
        # ratio r maps to score (r − 1)/(r + 1); the sweep δ is ignored.
        assert eng.effective_delta(-0.5) == pytest.approx(-0.6)
        assert eng.effective_delta(0.0) == pytest.approx(-0.6)
        assert RatioCreditEngine(ban_ratio=1.0).effective_delta(0.0) == 0.0


class TestDifferentialGossipEngine:
    def test_gossip_edges_discounted(self):
        node = BarterCastNode("me")
        node.record_download("j", 30 * MB, now=1.0)  # first-hand j -> me
        msg = BarterCastMessage(
            "j", 2.0, records=(HistoryRecord("q", 40 * MB, 0.0),)
        )
        node.receive_message(msg)  # gossip: j -> q, 40 MB
        eng = DifferentialGossipEngine(gossip_weight=0.5)
        up, down = eng.evidence_flows(node, "j")
        assert up == pytest.approx(30 * MB + 0.5 * 40 * MB)
        assert down == 0.0
        metric = node.config.metric
        assert eng.score(node, "j") == pytest.approx(metric.scale(up))

    def test_full_weight_reduces_to_raw_volume(self):
        node = BarterCastNode("me")
        node.record_download("j", 30 * MB, now=1.0)
        msg = BarterCastMessage(
            "j", 2.0, records=(HistoryRecord("q", 40 * MB, 0.0),)
        )
        node.receive_message(msg)
        eng = DifferentialGossipEngine(gossip_weight=1.0)
        assert eng.evidence_flows(node, "j") == (70 * MB, 0.0)


# ---------------------------------------------------------------------------
# Node-level engine: one reputation path, one cache
# ---------------------------------------------------------------------------
class TestNodeDispatch:
    def test_default_node_skips_dispatch(self):
        node = BarterCastNode("me")
        assert node.engine.name == "bartercast"
        node.record_download("p", 70 * MB, now=1.0)
        node.record_upload("q", 20 * MB, now=2.0)
        metric, graph = node.config.metric, node.graph
        want = {p: metric.reputation(graph, "me", p) for p in ("p", "q")}
        assert node.reputations_of(["p", "q"]) == want
        node.invalidate_cache()
        assert {p: node.reputation_of(p) for p in ("p", "q")} == want

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ValueError):
            BarterCastNode("me", engine="eigentrust")

    @pytest.mark.parametrize("name", ["gossip", "ratio"])
    def test_rival_node_scores_like_standalone_engine(self, name):
        node = BarterCastNode("me", engine=name)
        node.record_upload("p", 10 * MB, now=1.0)
        node.record_download("p", 90 * MB, now=2.0)
        assert node.engine.name == name
        reference = BarterCastNode("me")
        reference.record_upload("p", 10 * MB, now=1.0)
        reference.record_download("p", 90 * MB, now=2.0)
        standalone = make_engine(name).score(reference, "p")
        assert node.reputation_of("p") == standalone
        assert node.reputations_of(["p"]) == {"p": standalone}
        assert node.rank_by_reputation(["p"]) == ["p"]

    def test_active_engine_facade_on_default_node(self):
        """The default node's engine is the plain BarterCast scorer; the
        node's cached answer equals a direct score."""
        node = BarterCastNode("me")
        node.record_download("p", 50 * MB, now=1.0)
        eng = node.engine
        assert isinstance(eng, BarterCastEngine)
        assert eng.score(node, "p") == node.reputation_of("p")

    def test_aggregation_memo_rides_node_cache_counters(self):
        """Rival scores ride the node's dirty-set cache: a write to
        ``(x, y)`` evicts only ``x`` and ``y``."""
        for name in ("gossip", "ratio"):
            node = BarterCastNode("me", engine=name)
            node.record_upload("p", 10 * MB, now=1.0)
            node.record_download("q", 20 * MB, now=2.0)
            node.reputations_of(["p", "q"])
            node.graph.add_transfer("x", "y", 5 * MB)  # third-party write
            node.reputations_of(["p", "q"])
            assert (
                node.rep_cache_hits,
                node.rep_cache_misses,
                node.rep_cache_invalidations,
            ) == (2, 2, 0)
            assert node.rep_cache_size == 2
            node.graph.add_transfer("p", "x", 5 * MB)  # p's score moves
            assert node.rep_cache_invalidations == 1
            assert node.rep_cache_size == 1
            assert node.reputation_of("p") == make_engine(name).score(node, "p")
            assert node.rep_cache_misses == 3


# ---------------------------------------------------------------------------
# RankPolicy stranger rotation (fault-harness satellite)
# ---------------------------------------------------------------------------
class TestStrangerRotation:
    """With every reputation tied at zero, the rank policy must rotate
    the optimistic slot exactly like plain BitTorrent: RankPolicy
    shuffles then stable-sorts, so an all-zero tie preserves the
    shuffle, and both policies consume the same single draw from the
    stream.  Pinned per engine because the zero tie arises differently
    (bartercast/gossip: empty evidence; ratio: bootstrap grace)."""

    PEERS = ["p1", "p2", "p3", "p4", "p5"]

    def _stranger_node(self, engine):
        node = BarterCastNode("me", engine=engine)
        for p in self.PEERS:
            node.graph.add_node(p)
        return node

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_all_zero_tie_matches_plain_bittorrent_cadence(self, engine):
        node = self._stranger_node(engine)
        rank_rng = RngRegistry(11).stream("choker")
        plain_rng = RngRegistry(11).stream("choker")
        rank, plain = RankPolicy(), NoPolicy()
        for _ in range(20):  # whole rotation cadence, not just one round
            assert rank.order_optimistic(
                node, list(self.PEERS), rank_rng
            ) == plain.order_optimistic(None, list(self.PEERS), plain_rng)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_rotation_deterministic_per_seed(self, engine):
        def orders(seed):
            node = self._stranger_node(engine)
            rng = RngRegistry(seed).stream("choker")
            policy = RankPolicy()
            return [
                tuple(policy.order_optimistic(node, list(self.PEERS), rng))
                for _ in range(10)
            ]

        assert orders(7) == orders(7)
        assert orders(7) != orders(8)  # the shuffle really is seeded

    def test_nonzero_reputation_still_dominates_rotation(self):
        node = BarterCastNode("me")
        node.record_download("good", 500 * MB, now=1.0)
        node.record_upload("bad", 500 * MB, now=1.0)
        node.graph.add_node("s1")
        node.graph.add_node("s2")
        rng = RngRegistry(3).stream("choker")
        order = RankPolicy().order_optimistic(
            node, ["bad", "s1", "good", "s2"], rng
        )
        assert order[0] == "good" and order[-1] == "bad"
        assert set(order[1:3]) == {"s1", "s2"}
