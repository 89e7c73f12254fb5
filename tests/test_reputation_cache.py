"""Tests for the incremental reputation engine.

Three families:

* **Batched kernel equivalence** — ``maxflow_two_hop_batch`` must be
  *bit-identical* to per-target scalar ``maxflow_two_hop`` calls, and both
  must agree with an independent networkx reference (exact maxflow on the
  2-hop-restricted subgraph, whose every path has length <= 2).
* **Dirty-set staleness oracle** — a node replaying a random stream of
  transfers, gossip, claim retractions and node removals must answer
  every reputation query exactly like the reference — ``model.reputation``
  on the node's graph for BarterCast, the engine's own uncached ``score``
  for the rivals — through the batched and the scalar lookup alike.
* **Reach set** — after every op of the same streams, on both graph
  backends, the node's reach set holds every peer within two hops of
  the owner (``model.two_hop_neighbourhood``); a peer outside it is
  answered without the kernel.
* **Telemetry** — hit/miss/invalidation counters,
  the version-neutrality of no-op writes, and whole-run counter pins.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import ENGINE_NAMES
from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import GRAPH_BACKENDS, BarterCastNode
from repro.core.policies import BanPolicy, RankPolicy
from repro.core.reputation import MB, ReputationMetric
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.graph.maxflow import (
    kernel_invocations_delta,
    maxflow_two_hop,
    maxflow_two_hop_batch,
    snapshot_kernel_invocations,
)
from repro.graph.transfer_graph import TransferGraph
from tests import model
from tests.conftest import graph_of
from tests.model import busy  # tiny, but the policies really query

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NODE_IDS = st.integers(min_value=0, max_value=9)
WEIGHTS = st.floats(min_value=0.1, max_value=1e9, allow_nan=False, allow_infinity=False)

edge_lists = st.lists(st.tuples(NODE_IDS, NODE_IDS, WEIGHTS), max_size=40)


def build_graph(edges) -> TransferGraph:
    return graph_of((s, d, w) for s, d, w in edges if s != d)


def two_hop_reference_nx(g: TransferGraph, s, t) -> float:
    """Independent 2-hop maxflow: exact maxflow on the subgraph containing
    only the direct edge and the ``s -> v -> t`` path edges (every path in
    that subgraph has length <= 2, so exact flow == 2-hop-bounded flow)."""
    if not g.has_node(s) or not g.has_node(t):
        return 0.0
    sub = nx.DiGraph()
    sub.add_node(s)
    sub.add_node(t)
    out_s = g.successors(s)
    in_t = g.predecessors(t)
    direct = out_s.get(t, 0.0)
    if direct:
        sub.add_edge(s, t, capacity=direct)
    for v, c_sv in out_s.items():
        if v == t:
            continue
        c_vt = in_t.get(v)
        if c_vt:
            sub.add_edge(s, v, capacity=c_sv)
            sub.add_edge(v, t, capacity=c_vt)
    value, _ = nx.maximum_flow(sub, s, t)
    return float(value)


# ---------------------------------------------------------------------------
# Batched kernel equivalence
# ---------------------------------------------------------------------------


class TestBatchKernel:
    @given(edges=edge_lists, owner=NODE_IDS)
    @settings(max_examples=100, deadline=None)
    def test_batch_bitwise_equals_scalar(self, edges, owner):
        g = build_graph(edges)
        targets = [n for n in range(10) if n != owner] + [99]  # 99: unknown peer
        flows = maxflow_two_hop_batch(g, owner, targets)
        assert set(flows) == set(targets)
        for j, (inflow, outflow) in flows.items():
            assert inflow == maxflow_two_hop(g, j, owner).value
            assert outflow == maxflow_two_hop(g, owner, j).value

    @given(edges=edge_lists, owner=NODE_IDS)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_networkx_reference(self, edges, owner):
        g = build_graph(edges)
        targets = [n for n in range(10) if n != owner]
        for j, (inflow, outflow) in maxflow_two_hop_batch(g, owner, targets).items():
            assert math.isclose(
                inflow, two_hop_reference_nx(g, j, owner), rel_tol=1e-9, abs_tol=1e-6
            )
            assert math.isclose(
                outflow, two_hop_reference_nx(g, owner, j), rel_tol=1e-9, abs_tol=1e-6
            )

    @given(edges=edge_lists, owner=NODE_IDS)
    @settings(max_examples=60, deadline=None)
    def test_metric_batch_bitwise_equals_scalar(self, edges, owner):
        g = build_graph(edges)
        metric = ReputationMetric()
        targets = [n for n in range(10) if n != owner]
        batched = metric.reputation_batch(g, owner, targets)
        for j in targets:
            assert batched[j] == metric.reputation(g, owner, j)

    def test_batch_skips_owner_and_duplicates(self):
        g = build_graph([(0, 1, 5.0)])
        flows = maxflow_two_hop_batch(g, 0, [0, 1, 1, 0])
        assert set(flows) == {1}


# ---------------------------------------------------------------------------
# Dirty-set staleness oracle
# ---------------------------------------------------------------------------

PEERS = st.integers(min_value=1, max_value=9)
#: A reported total may be zero, so a record can write one direction of
#: an edge pair only (with both totals positive every gossiped edge
#: would come with its reverse, and the reach rules could not tell an
#: in-neighbour's predecessors from its successors).
TOTALS = st.one_of(st.just(0.0), WEIGHTS)
#: Ids that only a ``chain`` op links in: ``CHAIN[0]`` hangs off a
#: reporter, so it is at most two hops from the owner, and ``CHAIN[1]``
#: hangs off ``CHAIN[0]`` alone — only a 3-hop chain reaches it.
CHAIN = (10, 11)
#: Targets of the oracle comparisons: every id an op can write, the
#: chain, and two ids no op ever names.
TARGETS = list(range(1, 10)) + list(CHAIN) + [12, "ghost"]


@st.composite
def op_streams(draw):
    """A random stream of node-state mutations: owner writes, gossip (a
    ``chain`` is two messages hanging ``CHAIN`` off a reporter),
    ``forget_reporter`` and a churn wipe."""
    n = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(["up", "down", "msg", "chain", "forget", "wipe"])
        )
        if kind in ("up", "down"):
            ops.append((kind, draw(PEERS), draw(WEIGHTS)))
        elif kind == "msg":
            reporter = draw(PEERS)
            records = draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=9), TOTALS, TOTALS
                    ),
                    min_size=1,
                    max_size=4,
                )
            )
            created = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
            ops.append((kind, reporter, records, created))
        elif kind == "chain":
            created = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
            ops.append((kind, draw(PEERS), draw(TOTALS), draw(TOTALS), created))
        elif kind == "forget":
            ops.append((kind, draw(PEERS)))
        else:  # wipe
            ops.append((kind,))
    return ops


def _message(reporter, records, created) -> BarterCastMessage:
    return BarterCastMessage(
        sender=reporter,
        created_at=created,
        records=tuple(
            HistoryRecord(counterparty=c, uploaded=u, downloaded=d)
            for c, u, d in records
            if c != reporter
        ),
    )


def _apply(node: BarterCastNode, op, now: float) -> None:
    kind = op[0]
    if kind == "up":
        node.record_upload(op[1], op[2], now)
    elif kind == "down":
        node.record_download(op[1], op[2], now)
    elif kind == "msg":
        _, reporter, records, created = op
        node.receive_message(_message(reporter, records, created))
    elif kind == "chain":
        _, reporter, up, down, created = op
        near, far = CHAIN
        node.receive_message(_message(reporter, [(near, up, down)], created))
        node.receive_message(_message(near, [(far, down, up)], created))
    elif kind == "forget":
        node.shared.forget_reporter(op[1])
    elif kind == "wipe":
        node.wipe_shared_history()


def _reference(node, targets):
    """The scores ``node`` must serve, computed with no cache, reach set
    or memo: ``model.reputation`` on its graph for BarterCast (bit for
    bit, ``test_two_hop_closed_form.py``), the engine's own ``score``
    for the rivals."""
    if node.engine.name == "bartercast":
        unit = node.config.metric.unit_bytes
        return {p: model.reputation(node.graph, node.peer_id, p, unit) for p in targets}
    return {p: node.engine.score(node, p) for p in targets}


class TestDirtySetNeverStale:
    @given(ops=op_streams())
    @settings(max_examples=60, deadline=None)
    def test_dirty_and_wholesale_match_oracle(self, ops):
        """Batched and scalar lookups against the reference, under every
        engine.  (The id predates the removal of the wholesale mode; the
        scalar node sits where the wholesale one did, so the
        scalar-against-batch cross-check stays.)"""
        for engine in ENGINE_NAMES:
            batched = BarterCastNode(0, engine=engine)
            scalar = BarterCastNode(0, engine=engine)
            targets = TARGETS
            now = 0.0
            for op in ops:
                now += 1.0
                for node in (batched, scalar):
                    _apply(node, op, now)
                want = _reference(batched, targets)
                # Batched lookup on one node, scalar on the other: both
                # paths behind the one cache must agree with the
                # reference, bitwise.
                assert batched.reputations_of(targets) == want, engine
                assert {p: scalar.reputation_of(p) for p in targets} == want, engine

    @given(ops=op_streams())
    @settings(max_examples=30, deadline=None)
    def test_dirty_scalar_lookups_match_oracle(self, ops):
        for engine in ENGINE_NAMES:
            node = BarterCastNode(0, engine=engine)
            targets = TARGETS
            now = 0.0
            for op in ops:
                now += 1.0
                _apply(node, op, now)
                want = _reference(node, targets)
                for p in targets:
                    assert node.reputation_of(p) == want[p], engine


class TestReachSet:
    @pytest.mark.parametrize("backend", GRAPH_BACKENDS)
    @given(ops=op_streams())
    @settings(max_examples=40, deadline=None)
    def test_reach_set_holds_the_two_hop_neighbourhood(self, backend, ops):
        """After every op the reach set holds every peer within two hops
        of the owner (``model.two_hop_neighbourhood``, by scan) — a
        superset is exact, a missing peer would score 0.0 wrongly."""
        node = BarterCastNode(0, graph_backend=backend)
        now = 0.0
        for op in ops:
            now += 1.0
            _apply(node, op, now)
            assert model.two_hop_neighbourhood(node.graph, 0) <= node._reach

    def test_marks_are_kept_per_direction(self):
        """A peer met first as an in-neighbour brings in its successors
        the first time the owner uploads to it: ``me -> a -> b`` carries
        flow although ``b`` hangs off ``a`` only downstream, and the edge
        ``a -> b`` was there before either owner edge."""
        node = BarterCastNode("me")
        node.receive_message(_message("a", [("b", 5 * MB, 0.0)], 1.0))  # a -> b
        node.record_download("a", 10 * MB, now=2.0)  # a -> me: a marked in
        node.record_upload("a", 20 * MB, now=3.0)  # me -> a: a marked out
        assert "b" in node._reach
        assert node.reputation_of("b") == model.reputation(node.graph, "me", "b") < 0.0

    def test_outside_peers_skip_the_kernel(self):
        """A miss outside the reach set is cached and counted like an
        evaluation, and never reaches the batch kernel."""
        node = BarterCastNode("me")
        node.record_download("a", 10 * MB, now=1.0)
        # c -> b -> a -> me: b is two hops upstream, c three.
        node.receive_message(_message("a", [("b", 0.0, 5 * MB)], 2.0))
        node.receive_message(_message("b", [("c", 0.0, 5 * MB)], 3.0))
        assert node._reach >= {"a", "b"} and "c" not in node._reach
        before = snapshot_kernel_invocations()
        scores = node.reputations_of(["a", "b", "c", "ghost"])
        assert kernel_invocations_delta(before) == {
            "maxflow_two_hop_batch": 1,
            "maxflow_two_hop_batch_targets": 2,
        }
        assert scores["c"] == scores["ghost"] == 0.0
        assert (node.kernel_calls, node.kernel_targets, node.rep_cache_size) == (1, 4, 4)
        node.invalidate_cache()  # drops scores, keeps the reach set
        before = snapshot_kernel_invocations()
        assert node.reputation_of("c") == 0.0
        assert kernel_invocations_delta(before) == {}
        assert node.reputation_of("b") == scores["b"]
        assert kernel_invocations_delta(before) == {"maxflow_two_hop": 2}

    @pytest.mark.parametrize("engine", ["gossip", "ratio"])
    def test_no_reach_set_without_an_outside_score(self, engine):
        node = BarterCastNode("me", engine=engine)
        node.record_upload("a", 1.0, now=1.0)
        assert node._reach is None and not node._out_marked


# ---------------------------------------------------------------------------
# Verdict memo: a reused ban verdict is the exact one
# ---------------------------------------------------------------------------

#: Owner transfers far below and far above the 100 MiB unit: the first
#: leave nearly every verdict reusable, the second flip them.
SIZES = st.one_of(
    st.floats(min_value=0, max_value=1e4), st.floats(min_value=1e9, max_value=8e9)
)


@st.composite
def verdict_streams(draw):
    """Owner writes of both sizes, gossip (records about the owner
    included) and churn wipes, for :func:`_apply`."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["up", "down", "msg", "wipe"]))
        if kind in ("up", "down"):
            ops.append((kind, draw(PEERS), draw(SIZES)))
        elif kind == "msg":
            records = st.tuples(st.integers(min_value=0, max_value=9), TOTALS, TOTALS)
            created = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
            ops.append((kind, draw(PEERS), draw(st.lists(records, min_size=1, max_size=4)), created))
        else:
            ops.append((kind,))
    return ops


def _ban_checks_equal_model(node, unit):
    """Every ban check at the paper's thresholds and at each exact score
    in range (a tie at δ is allowed) against ``model.ban``."""
    owner, targets = node.peer_id, TARGETS
    exact = [model.reputation(node.graph, owner, p, unit) for p in targets]
    for delta in [-0.3, -0.5, -0.7] + [s for s in exact if -1.0 <= s <= 0.0]:
        assert BanPolicy(delta).allowed(node, targets) == model.ban(
            node.graph, owner, targets, delta, unit
        ), delta


class TestVerdictMemo:
    @given(ops=verdict_streams(), unit=st.sampled_from([100 * MB, MB]))
    @settings(max_examples=100, deadline=None)
    def test_ban_checks_equal_model_after_every_step(self, ops, unit):
        from repro.core.node import BarterCastConfig

        node = BarterCastNode(0, config=BarterCastConfig(metric=ReputationMetric(unit_bytes=unit)))
        assert node.keeps_verdicts
        now = 0.0
        for op in ops:
            now += 1.0
            _apply(node, op, now)
            _ban_checks_equal_model(node, unit)
        assert node.keeps_verdicts

    def test_unchanged_verdicts_are_cache_hits(self):
        n = BarterCastNode("me")
        n.record_download("good", 800 * MB, now=1.0)
        n.record_upload("bad", 800 * MB, now=1.0)
        peers = ["good", "bad", "ghost"]
        assert BanPolicy(-0.5).allowed(n, peers) == ["good", "ghost"]
        assert (n.rep_cache_hits, n.rep_cache_misses, n.kernel_calls) == (0, 3, 1)
        n.record_upload("good", 1 * MB, now=2.0)  # clears the score cache
        assert BanPolicy(-0.5).allowed(n, peers) == ["good", "ghost"]
        assert (n.rep_cache_hits, n.rep_cache_misses, n.kernel_calls) == (3, 3, 1)

    def test_gossip_drops_the_written_endpoints_only(self):
        n = BarterCastNode("me")
        n.record_upload("b", 900 * MB, now=1.0)
        assert BanPolicy(-0.5).allowed(n, ["a", "b", "c"]) == ["a", "c"]
        # One byte more empties the score cache and keeps every verdict:
        # the drop below must not wait for a cached score.
        n.record_upload("c", 1.0, now=1.5)
        assert BanPolicy(-0.5).allowed(n, ["a", "b", "c"]) == ["a", "c"]
        assert n.rep_cache_size == 0 and set(n._verdicts) == {"a", "b", "c"}
        # b passes all it got on to a: edge (b, a) routes me -> b -> a.
        n.receive_message(BarterCastMessage("b", 2.0, records=(HistoryRecord("a", 900 * MB, 0.0),)))
        assert set(n._verdicts) == {"c"}
        assert BanPolicy(-0.5).allowed(n, ["a", "b", "c"]) == model.ban(
            n.graph, "me", ["a", "b", "c"], -0.5
        ) == ["c"]

    def test_owner_edge_written_outside_record_ends_the_memo(self):
        """The graph's owner edge then differs from the private total, so
        the next ``record_*`` can move a score by more than it recorded."""
        n = BarterCastNode("me")
        n.record_upload("bad", 800 * MB, now=1.0)
        assert BanPolicy(-0.5).allowed(n, ["bad"]) == []
        n.graph.set_transfer("me", "bad", 1.0)
        assert not n.keeps_verdicts
        assert BanPolicy(-0.5).allowed(n, ["bad"]) == ["bad"]
        n.record_upload("bad", 1.0, now=2.0)  # back to 800 MiB + 1 byte
        assert BanPolicy(-0.5).allowed(n, ["bad"]) == model.ban(n.graph, "me", ["bad"], -0.5) == []

    @pytest.mark.parametrize("engine", ["gossip", "ratio"])
    def test_no_memo_without_a_slope_or_a_cache(self, engine):
        n = BarterCastNode("me", engine=engine)
        n.record_upload("bad", 800 * MB, now=1.0)
        assert not n.keeps_verdicts
        BanPolicy(-0.5).allowed(n, ["bad", "ghost"])
        assert n._verdicts is None

    def test_node_keeps_the_shared_key_attribute_layout(self):
        """CPython 3.11 gives an instance of more than 29 attributes a
        full dict: ~1.4 KiB more per node and slower attribute reads."""
        assert len(vars(BarterCastNode("me"))) <= 29

    def test_stranger_policy_reads_scores_not_verdicts(self):
        from repro.core.whitewashing import StaticStrangerPenalty

        n = BarterCastNode("me")
        n.record_upload("bad", 800 * MB, now=1.0)
        ban = BanPolicy(-0.5, stranger_policy=StaticStrangerPenalty(-0.6))
        assert ban.allowed(n, ["bad", "ghost"]) == []
        assert n.keeps_verdicts and n._verdicts == {}


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestCacheTelemetry:
    def test_hit_miss_counting(self):
        n = BarterCastNode("me")
        n.record_download("p", 100 * MB, now=1.0)
        n.reputation_of("p")
        n.reputation_of("p")
        assert n.rep_cache_misses == 1
        assert n.rep_cache_hits == 1

    def test_dirty_invalidation_is_targeted(self):
        n = BarterCastNode("me")
        msg = BarterCastMessage(
            "r", 1.0, records=(HistoryRecord("a", 100 * MB, 0.0),
                               HistoryRecord("b", 50 * MB, 0.0))
        )
        n.receive_message(msg)
        n.reputations_of(["r", "a", "b"])
        assert n.rep_cache_size == 3
        # A far-away edge change (r -> a grows) must only evict r and a.
        msg2 = BarterCastMessage("r", 2.0, records=(HistoryRecord("a", 200 * MB, 0.0),))
        n.receive_message(msg2)
        assert n.rep_cache_size == 1
        assert n.rep_cache_invalidations == 2

    def test_owner_incident_edge_clears_everything(self):
        n = BarterCastNode("me")
        msg = BarterCastMessage("r", 1.0, records=(HistoryRecord("a", 100 * MB, 0.0),))
        n.receive_message(msg)
        n.reputations_of(["r", "a"])
        assert n.rep_cache_size == 2
        n.record_upload("a", 10 * MB, now=2.0)  # edge (me, a): full clear
        assert n.rep_cache_size == 0

    def test_noop_gossip_does_not_invalidate(self):
        n = BarterCastNode("me")
        msg = BarterCastMessage("r", 1.0, records=(HistoryRecord("a", 100 * MB, 0.0),))
        n.receive_message(msg)
        n.reputations_of(["r", "a"])
        invalidations = n.rep_cache_invalidations
        # A second reporter claiming a *lower* total for the same edge does
        # not move the materialized max: the cache must survive untouched.
        msg2 = BarterCastMessage("a", 2.0, records=(HistoryRecord("r", 0.0, 50 * MB),))
        n.receive_message(msg2)
        assert n.rep_cache_size == 2
        assert n.rep_cache_invalidations == invalidations

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_cache_off_never_memoizes(self, engine):
        """The reference the staleness properties compare against
        (:func:`_reference`) is cache-free under every engine: it leaves
        the node's cache, counters and memo alone, and the node serves
        the same scores through its cache."""
        n = BarterCastNode("me", engine=engine)
        n.record_download("p", 100 * MB, now=1.0)
        want = _reference(n, ["p", "q"])
        assert _reference(n, ["p", "q"]) == want
        assert (n.rep_cache_hits, n.rep_cache_misses, n.rep_cache_size) == (0, 0, 0)
        assert (n.kernel_calls, n.kernel_targets) == (0, 0)
        assert not n._verdicts
        assert n.reputations_of(["p", "q"]) == want
        assert (n.kernel_calls, n.kernel_targets) == (1, 2)

    def test_invalidate_cache_forces_cold(self):
        n = BarterCastNode("me")
        n.record_download("p", 100 * MB, now=1.0)
        n.reputation_of("p")
        n.invalidate_cache()
        n.reputation_of("p")
        assert n.rep_cache_misses == 2


# ---------------------------------------------------------------------------
# Whole-run counter pins.  The four seed-3 literals were re-recorded when
# the policies began to ask once per round (``policy.allowed`` reading one
# ``reputations_of`` dict): under ban the kernel work is what it was —
# misses and invalidations (8, 8) and (1407, 1407) as before — and only the
# guaranteed hits of the per-candidate ``allows`` lookups are gone (8 -> 0,
# 2091 -> 342); under rank only the peers whose order is read are scored
# (tiny: (0, 8, 8) -> nothing; busy: 1280 evaluations -> 95, and the 190
# hits of the sort key's second lookup -> 0, it reads the dict).  Busy ban
# hits fell again, 342 -> 318, when ``BanPolicy.order_optimistic`` stopped
# re-filtering the peers ``allowed`` had just kept (all guaranteed hits).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_scenario, make_policy, seed, want",
    [
        (ScenarioConfig.tiny, lambda: BanPolicy(-0.5), 3, (0, 8, 8)),
        (ScenarioConfig.tiny, lambda: BanPolicy(-0.5), 11, (0, 0, 0)),
        (ScenarioConfig.tiny, RankPolicy, 3, (0, 0, 0)),
        (ScenarioConfig.tiny, RankPolicy, 11, (0, 0, 0)),
        (busy, lambda: BanPolicy(-0.5), 3, (878, 847, 847)),
        (busy, RankPolicy, 3, (0, 95, 95)),
    ],
    ids=["tiny-ban-3", "tiny-ban-11", "tiny-rank-3", "tiny-rank-11", "busy-ban-3", "busy-rank-3"],
)
def test_whole_run_cache_counters_pinned(make_scenario, make_policy, seed, want):
    """Summed (hits, misses, invalidations) over every node of a run."""
    sim = build_simulation(make_scenario(seed), policy=make_policy())
    sim.run()
    nodes = sim.nodes.values()
    assert (
        sum(n.rep_cache_hits for n in nodes),
        sum(n.rep_cache_misses for n in nodes),
        sum(n.rep_cache_invalidations for n in nodes),
    ) == want


@pytest.mark.parametrize(
    "make_scenario, seed",
    [(ScenarioConfig.tiny, 3), (ScenarioConfig.tiny, 11), (busy, 3), (busy, 11)],
    ids=["tiny-3", "tiny-11", "busy-3", "busy-11"],
)
def test_whole_run_ban_equals_model_verdicts(monkeypatch, make_scenario, seed):
    """A ban run that reuses verdicts serves, counts and draws exactly as
    one whose every check scores every candidate by ``model.ban``."""

    def outcome():
        sim = build_simulation(make_scenario(seed), policy=BanPolicy(-0.5))
        sim.run()
        stats = [getattr(sim.stats, f).tobytes() for f in ("uploaded", "downloaded", "leech_time")]
        chokes = [(n.choke_calls, n.choke_banned) for n in sim.nodes.values()]
        return chokes, stats, sim._choke_rng.generator.bit_generator.state

    memo = outcome()
    monkeypatch.setattr(
        BanPolicy,
        "allowed",
        lambda self, node, peers: model.ban(
            node.graph, node.peer_id, peers, self.delta, node.config.metric.unit_bytes
        ),
    )
    assert outcome() == memo
    assert sum(calls for calls, _ in memo[0]) > 0
