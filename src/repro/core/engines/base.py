"""The ``ReputationEngine`` interface: one pluggable freeriding defense.

BarterCast's maxflow-over-gossiped-history is *one* way to turn a
subjective transfer graph into reputations; the related work names
rivals (differential-gossip aggregation, private-tracker ratio credit).
This package extracts the reputation surface of
:class:`~repro.core.node.BarterCastNode` — ``reputation_of`` /
``reputations_of`` / ``rank_by_reputation``, cache maintenance, and the
explain/provenance hooks — into an interface so rival mechanisms can be
evaluated under the same simulator, fault harness, and sweep machinery.

Contract (every engine)
-----------------------
* Scores live in ``score_bounds`` (default ``(-1, 1)``); whether the
  endpoints are reachable is declared by ``bounds_closed`` (the fault
  auditor range-checks per engine).  Scores are **never** NaN — a peer
  with no evidence scores exactly ``0.0``.
* ``reputation_of(j)`` is a pure function of the owner's *subjective
  state* (its graph / histories) at call time: engines read what gossip
  delivered, so the fault knobs (loss, duplication, delay, churn wipes)
  apply to every mechanism for free.
* ``reputations_of`` / ``rank_by_reputation`` are batch forms that must
  be value-identical to scalar calls; the rank tie-break (descending
  score, then ``repr`` of the peer id) is shared by every engine so
  stranger rotation stays deterministic per seed.
* ``effective_delta(delta)`` maps the sweep's ban threshold into the
  engine's own score space (the ratio engine bans on a *ratio*
  threshold, not a flow-difference one), so the false-ban measure is
  well-defined per mechanism instead of silently wrong.
* ``evidence_flows(j)`` returns the engine's (in, out) evidence totals
  in bytes — maxflow values for BarterCast, weighted/raw volume sums for
  the aggregation engines — feeding the sweep's inversion digests and
  ``repro explain``.
* ``explain_components(j)`` returns a flat JSON-safe dict decomposing
  the score, for the per-mechanism section of ``repro explain``.

The default engine (``"bartercast"``) delegates to the node's native
maxflow implementation, so the default path stays byte-identical to a
build without this package (pinned by test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime cycle
    from repro.core.node import BarterCastNode

__all__ = ["ReputationEngine", "GraphAggregationEngine"]

PeerId = Hashable


class ReputationEngine:
    """One reputation mechanism over a node's subjective state.

    Engines are constructed unattached (picklable-by-name: sweeps carry
    the engine *name* in their scenario and workers rebuild instances),
    then bound to a node with :meth:`attach`.  One engine instance
    serves one node.
    """

    #: Registry / report tag ("bartercast", "gossip", "ratio").
    name = "abstract"

    #: (lo, hi) range every score must fall in (audit invariant 3).
    score_bounds: Tuple[float, float] = (-1.0, 1.0)

    #: Whether the bounds are attainable.  The arctan-scaled engines live
    #: in the *open* interval; the ratio engine reaches ±1 exactly (a
    #: pure leecher is −1), so its auditor check is closed.
    bounds_closed = False

    def __init__(self) -> None:
        self.node: "BarterCastNode" = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def attach(self, node: "BarterCastNode") -> "ReputationEngine":
        """Bind this engine to ``node`` and return ``self``."""
        self.node = node
        self._attached(node)
        return self

    def _attached(self, node: "BarterCastNode") -> None:
        """Subclass hook: set up per-node caches after binding."""

    def _check_subject(self, peer: PeerId) -> None:
        if peer == self.node.peer_id:
            raise ValueError("a node does not rate itself")

    # ------------------------------------------------------------------
    # The reputation surface
    # ------------------------------------------------------------------
    def reputation_of(self, peer: PeerId) -> float:
        """The subjective score of ``peer`` from the owner's state."""
        raise NotImplementedError

    def reputations_of(self, peers: Iterable[PeerId]) -> Dict[PeerId, float]:
        """Batch evaluation; ``self`` and duplicates are skipped.

        Value-identical to scalar calls by construction (the default
        loops over :meth:`reputation_of`; engines with a faster batch
        path must preserve the identity).
        """
        out: Dict[PeerId, float] = {}
        me = self.node.peer_id
        for p in peers:
            if p != me and p not in out:
                out[p] = self.reputation_of(p)
        return out

    def rank_by_reputation(self, peers: Iterable[PeerId]) -> List[PeerId]:
        """Peers by descending score, ties broken by ``repr`` of the id —
        the same deterministic tie-break every engine (and the node's
        native path) uses, so stranger rotation is seed-stable."""
        reps = self.reputations_of(peers)
        scored = [(-value, repr(p), p) for p, value in reps.items()]
        scored.sort(key=lambda t: (t[0], t[1]))
        return [p for _, _, p in scored]

    def invalidate_cache(self) -> None:
        """Drop any memoized scores (forces cold re-evaluation)."""

    # ------------------------------------------------------------------
    # Mechanism semantics (per-engine measures and explanations)
    # ------------------------------------------------------------------
    def effective_delta(self, delta: float) -> float:
        """Map the sweep's ban threshold into this engine's score space.

        The default is the identity: ``delta`` is already a score
        threshold for mechanisms scaled like the paper's Equation (1).
        Engines with their own banning convention (the ratio engine's
        private-tracker ratio floor) translate here, so the false-ban
        measure compares mechanisms at *their* operating points.
        """
        return delta

    def evidence_flows(self, subject: PeerId) -> Tuple[float, float]:
        """(inbound, outbound) evidence totals in bytes for ``subject``.

        Whatever "service toward me vs consumed" means under this
        mechanism: maxflow values for BarterCast, (weighted) volume sums
        for the aggregation engines.  Feeds inversion digests.
        """
        raise NotImplementedError

    def explain_components(self, subject: PeerId) -> Dict[str, object]:
        """Flat JSON-safe decomposition of ``reputation_of(subject)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name}>"


class GraphAggregationEngine(ReputationEngine):
    """Shared base for engines that aggregate over the subjective graph.

    Provides a graph-version-keyed score memo: entries are valid while
    ``graph.version`` is unchanged and are dropped wholesale on the
    first lookup after any write.  That is coarser than the maxflow
    path's dirty-set cache but exact for *any* aggregation (every score
    may depend on every edge), and the measurement workloads — ranking
    rounds and post-run sweeps — query in bursts between writes, where
    the memo serves every repeat lookup.  Cache telemetry lands on the
    node's ``rep_cache_*`` counters so the sweep's cache probes work
    unchanged per mechanism.
    """

    def _attached(self, node: "BarterCastNode") -> None:
        self._memo: Dict[PeerId, float] = {}
        self._memo_version = -1

    def _score(self, subject: PeerId) -> float:
        raise NotImplementedError

    def _sync(self) -> None:
        version = self.node.graph.version
        if self._memo_version != version:
            self.node.rep_cache_invalidations += len(self._memo)
            self._memo.clear()
            self._memo_version = version

    def reputation_of(self, peer: PeerId) -> float:
        self._check_subject(peer)
        self._sync()
        cached = self._memo.get(peer)
        if cached is not None:
            self.node.rep_cache_hits += 1
            return cached
        self.node.rep_cache_misses += 1
        value = self._score(peer)
        self._memo[peer] = value
        return value

    def invalidate_cache(self) -> None:
        self.node.rep_cache_invalidations += len(self._memo)
        self._memo.clear()
        self._memo_version = -1

    @property
    def cache_size(self) -> int:
        """Number of currently memoized scores."""
        return len(self._memo)

    # Helpers shared by the aggregation engines -------------------------
    def _volume_out(self, peer: PeerId) -> float:
        """Total bytes ``peer`` is believed to have uploaded (Σ succ)."""
        graph = self.node.graph
        if not graph.has_node(peer):
            return 0.0
        return float(sum(graph.successors(peer).values()))

    def _volume_in(self, peer: PeerId) -> float:
        """Total bytes ``peer`` is believed to have downloaded (Σ pred)."""
        graph = self.node.graph
        if not graph.has_node(peer):
            return 0.0
        return float(sum(graph.predecessors(peer).values()))
