"""Tests for the incremental reputation engine.

Three families:

* **Batched kernel equivalence** — ``maxflow_two_hop_batch`` must be
  *bit-identical* to per-target scalar ``maxflow_two_hop`` calls, and both
  must agree with an independent networkx reference (exact maxflow on the
  2-hop-restricted subgraph, whose every path has length <= 2).
* **Dirty-set staleness oracle** — a ``cache_mode="dirty"`` node replaying
  a random stream of transfers, gossip, claim retractions and node
  removals must answer every reputation query exactly like a cache-free
  oracle node, through the batched and the scalar lookup alike, under
  every engine (each declares its own exactness).
* **Reach set** — after every op of the same streams, on both graph
  backends, the node's reach set holds every peer within two hops of
  the owner (``model.two_hop_neighbourhood``); a peer outside it is
  answered without the kernel.
* **Telemetry / cache-mode plumbing** — hit/miss/invalidation counters,
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
from repro.graph.batch import maxflow_two_hop_batch
from repro.graph.maxflow import (
    kernel_invocations_delta,
    maxflow_two_hop,
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

    def test_metric_batch_falls_back_for_iterative_kernels(self):
        g = build_graph([(1, 0, 5.0), (1, 2, 3.0), (2, 0, 4.0)])
        metric = ReputationMetric(kernel="exact")
        batched = metric.reputation_batch(g, 0, [1, 2])
        for j in (1, 2):
            assert batched[j] == metric.reputation(g, 0, j)


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


class TestDirtySetNeverStale:
    @given(ops=op_streams())
    @settings(max_examples=60, deadline=None)
    def test_dirty_and_wholesale_match_oracle(self, ops):
        """Dirty-batched vs dirty-scalar vs ``"off"``, under every engine.
        (The id predates the removal of the wholesale mode; the scalar
        node sits where the wholesale one did, so the scalar-against-batch
        cross-check stays.)"""
        for engine in ENGINE_NAMES:
            batched = BarterCastNode(0, cache_mode="dirty", engine=engine)
            scalar = BarterCastNode(0, cache_mode="dirty", engine=engine)
            oracle = BarterCastNode(0, cache_mode="off", engine=engine)
            targets = TARGETS
            now = 0.0
            for op in ops:
                now += 1.0
                for node in (batched, scalar, oracle):
                    _apply(node, op, now)
                want = {p: oracle.reputation_of(p) for p in targets}
                # Batched lookup on one dirty node, scalar on the other:
                # both paths behind the one cache must agree with the
                # cache-free oracle, bitwise.
                assert batched.reputations_of(targets) == want, engine
                assert {p: scalar.reputation_of(p) for p in targets} == want, engine

    @given(ops=op_streams())
    @settings(max_examples=30, deadline=None)
    def test_dirty_scalar_lookups_match_oracle(self, ops):
        for engine in ENGINE_NAMES:
            dirty = BarterCastNode(0, cache_mode="dirty", engine=engine)
            oracle = BarterCastNode(0, cache_mode="off", engine=engine)
            targets = TARGETS
            now = 0.0
            for op in ops:
                now += 1.0
                _apply(dirty, op, now)
                _apply(oracle, op, now)
                for p in targets:
                    assert dirty.reputation_of(p) == oracle.reputation_of(p), engine


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
        nodes = [BarterCastNode("me", cache_mode=mode) for mode in ("dirty", "off")]
        for node in nodes:
            node.receive_message(_message("a", [("b", 5 * MB, 0.0)], 1.0))  # a -> b
            node.record_download("a", 10 * MB, now=2.0)  # a -> me: a marked in
            node.record_upload("a", 20 * MB, now=3.0)  # me -> a: a marked out
        dirty, off = nodes
        assert "b" in dirty._reach
        assert dirty.reputation_of("b") == off.reputation_of("b") < 0.0

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

    @pytest.mark.parametrize(
        "cache_mode, engine, kernel",
        [("off", "bartercast", "two_hop"), ("dirty", "bartercast", "exact"),
         ("dirty", "gossip", "two_hop"), ("dirty", "ratio", "two_hop")],
    )
    def test_no_reach_set_without_an_outside_score(self, cache_mode, engine, kernel):
        from repro.core.node import BarterCastConfig

        cfg = BarterCastConfig(metric=ReputationMetric(kernel=kernel))
        node = BarterCastNode("me", config=cfg, cache_mode=cache_mode, engine=engine)
        node.record_upload("a", 1.0, now=1.0)
        assert node._reach is None and not node._out_marked


# ---------------------------------------------------------------------------
# Telemetry and cache-mode plumbing
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

    def test_cache_mode_off_never_caches(self):
        n = BarterCastNode("me", cache_mode="off")
        n.record_download("p", 100 * MB, now=1.0)
        n.reputation_of("p")
        n.reputation_of("p")
        assert n.rep_cache_hits == 0
        assert n.rep_cache_misses == 2
        assert n.rep_cache_size == 0

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_cache_off_never_memoizes(self, engine):
        """``"off"`` is the staleness oracle under every engine."""
        n = BarterCastNode("me", cache_mode="off", engine=engine)
        n.record_download("p", 100 * MB, now=1.0)
        n.reputation_of("p")
        n.reputation_of("p")
        n.reputations_of(["p", "q"])
        assert (n.rep_cache_hits, n.rep_cache_misses, n.rep_cache_size) == (0, 4, 0)
        assert (n.kernel_calls, n.kernel_targets) == (3, 4)

    def test_invalid_cache_mode_rejected(self):
        for mode in ("bogus", "wholesale"):  # wholesale: removed, not renamed
            with pytest.raises(ValueError):
                BarterCastNode("me", cache_mode=mode)

    def test_invalidate_cache_forces_cold(self):
        n = BarterCastNode("me")
        n.record_download("p", 100 * MB, now=1.0)
        n.reputation_of("p")
        n.invalidate_cache()
        n.reputation_of("p")
        assert n.rep_cache_misses == 2

    def test_non_default_kernel_falls_back_to_full_invalidation(self):
        from repro.core.node import BarterCastConfig

        cfg = BarterCastConfig(metric=ReputationMetric(kernel="exact"))
        n = BarterCastNode("me", config=cfg)
        msg = BarterCastMessage("r", 1.0, records=(HistoryRecord("a", 100 * MB, 0.0),))
        n.receive_message(msg)
        n.reputations_of(["r", "a"])
        assert n.rep_cache_size == 2
        # Any far-away change clears everything under an inexact kernel.
        msg2 = BarterCastMessage("b", 2.0, records=(HistoryRecord("c", 1 * MB, 0.0),))
        n.receive_message(msg2)
        assert n.rep_cache_size == 0


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
        (busy, lambda: BanPolicy(-0.5), 3, (318, 1407, 1407)),
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
