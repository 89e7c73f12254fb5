"""Scalability assessment (the paper's future work).

"We plan to perform simulations with up to 100,000 peers and assess the
scalability of our mechanism."  The online costs of BarterCast at a peer
are (a) ingesting gossip records into the subjective graph and (b)
answering reputation queries against it.  This experiment grows a
synthetic subjective view from thousands to a hundred thousand known
peers — with the constant per-node degree that bounded-size messages
produce — and measures both costs plus the state footprint.

The headline property: the 2-hop closed form makes the query cost depend
on the *degree* of the two endpoints, not on the graph size, so
reputation evaluation stays microsecond-scale at 100k peers; gossip
ingestion is O(records) per message.  That is the quantitative backing
for the paper's "lightweight / practically feasible" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.reputation import MB
from repro.sim.rng import RngRegistry

__all__ = [
    "ScalabilityPoint",
    "ScalabilityResult",
    "run_scalability",
    "scalability_task",
]


@dataclass
class ScalabilityPoint:
    """Measurements at one graph size.

    Attributes
    ----------
    num_peers:
        Known peers in the subjective view.
    num_edges:
        Directed edges stored.
    query_us:
        Mean 2-hop reputation query latency (microseconds, cold cache,
        scalar kernel).
    ingest_us:
        Mean per-record gossip ingestion latency (microseconds).
    batch_query_us:
        Mean per-target latency of one cold batched
        :meth:`~repro.core.node.BarterCastNode.reputations_of` pass over
        the same targets (microseconds).
    warm_query_us:
        Mean per-target latency of repeating that pass against the warm
        cache (microseconds).
    """

    num_peers: int
    num_edges: int
    query_us: float
    ingest_us: float
    batch_query_us: float = 0.0
    warm_query_us: float = 0.0


@dataclass
class ScalabilityResult:
    """The measured scaling curve."""

    points: List[ScalabilityPoint] = field(default_factory=list)
    #: Aggregate reputation-cache hit rate over the whole measurement run.
    cache_hit_rate: float = float("nan")

    def query_growth_factor(self) -> float:
        """Largest-over-smallest query latency ratio — near 1.0 means the
        query cost is size-independent (degree-bounded)."""
        if len(self.points) < 2:
            return 1.0
        return self.points[-1].query_us / max(self.points[0].query_us, 1e-9)


def _grow_view(
    node: BarterCastNode,
    start_peer: int,
    end_peer: int,
    degree: int,
    rng,
) -> float:
    """Extend the node's view with peers [start, end) via gossip messages;
    returns mean ingestion time per record in microseconds."""
    gen = rng.generator
    t_total = 0.0
    n_records = 0
    batch = []
    for pid in range(start_peer, end_peer):
        # Each new peer reports `degree` counterparties among known ids.
        counterparties = gen.integers(0, max(pid, 1), size=degree)
        records = tuple(
            HistoryRecord(
                counterparty=int(c),
                uploaded=float(gen.uniform(1, 500)) * MB,
                downloaded=float(gen.uniform(1, 500)) * MB,
            )
            for c in counterparties
            if int(c) != pid
        )
        batch.append(BarterCastMessage(sender=pid, created_at=float(pid), records=records))
    t0 = time.perf_counter()
    for message in batch:
        node.receive_message(message)
        n_records += message.num_records
    t_total = time.perf_counter() - t0
    return (t_total / max(n_records, 1)) * 1e6


def run_scalability(
    sizes: Sequence[int] = (1_000, 10_000, 50_000, 100_000),
    degree: int = 10,
    queries: int = 200,
    seed: int = 0,
) -> ScalabilityResult:
    """Measure query/ingest cost as the subjective view grows to ``sizes``.

    ``degree`` mirrors the bounded message size (``Nh + Nr`` records per
    gossip message keep per-peer degree roughly constant in deployment).
    """
    if not sizes or list(sizes) != sorted(sizes):
        raise ValueError("sizes must be a non-empty increasing sequence")
    rng = RngRegistry(seed).stream("scalability")
    gen = rng.generator
    node = BarterCastNode(-1)
    # Give the evaluator a realistic own history (its direct partners).
    for pid in range(min(50, sizes[0])):
        node.record_download(pid, float(gen.uniform(10, 1000)) * MB, now=float(pid))
        node.record_upload(pid, float(gen.uniform(10, 1000)) * MB, now=float(pid))

    result = ScalabilityResult()
    grown = 0
    for size in sizes:
        ingest_us = _grow_view(node, grown, size, degree, rng)
        grown = size
        # Cold-cache reputation queries against random known peers.  The
        # per-query cache invalidation (which is O(cache size), not part
        # of query cost) happens outside the timer.
        targets = [int(t) for t in gen.integers(0, size, size=queries)]
        t_scalar = 0.0
        for target in targets:
            node.invalidate_cache()
            t0 = time.perf_counter()
            node.reputation_of(target)
            t_scalar += time.perf_counter() - t0
        query_us = t_scalar / queries * 1e6
        # The same targets through the batched kernel (cold), then again
        # against the warm cache (the choke-round steady state).
        node.invalidate_cache()
        t0 = time.perf_counter()
        node.reputations_of(targets)
        batch_query_us = (time.perf_counter() - t0) / queries * 1e6
        t0 = time.perf_counter()
        node.reputations_of(targets)
        warm_query_us = (time.perf_counter() - t0) / queries * 1e6
        result.points.append(
            ScalabilityPoint(
                num_peers=size,
                num_edges=node.graph.num_edges,
                query_us=query_us,
                ingest_us=ingest_us,
                batch_query_us=batch_query_us,
                warm_query_us=warm_query_us,
            )
        )
    lookups = node.rep_cache_hits + node.rep_cache_misses
    if lookups:
        result.cache_hit_rate = node.rep_cache_hits / lookups
    return result


def _run_scalability_task(sizes: Sequence[int], seed: int, obs) -> ScalabilityResult:
    """Sweep-task adapter: the experiment records nothing."""
    return run_scalability(sizes=sizes, seed=seed)


def scalability_task(sizes: Sequence[int], seed: int):
    """The assessment as one sweep task (its sizes grow one view
    incrementally, so the experiment is internally sequential)."""
    from repro.parallel import SweepTask

    return SweepTask(
        "scalability",
        _run_scalability_task,
        {"sizes": tuple(int(s) for s in sizes), "seed": int(seed)},
    )
