"""The BarterCast node: one peer's complete reputation state.

A :class:`BarterCastNode` ties together the private history, the subjective
shared history, the subjective local transfer graph, the message behaviour
(honest / ignorer / liar), and a reputation cache.  The BitTorrent
simulator calls into it on three paths:

* transfer accounting (``record_upload`` / ``record_download``),
* gossip (``create_message`` / ``receive_message``),
* policy decisions (``reputation_of`` / ``reputations_of``), which are
  cache-hot because the choker re-evaluates candidates every round.

Scores come from the node's engine (:mod:`repro.core.engines`; Equation 1
by default), a stateless scorer behind one cache.  Cache discipline (see
DESIGN.md §6 for the exactness argument): the node subscribes to the
graph's edge-change events and invalidates *dirty sets* instead of the
whole cache.  Every engine's score of ``j`` reads only edges incident to
the owner or to ``j``, so a change to edge ``(x, y)`` invalidates exactly
the cached entries for ``x`` and ``y`` — unless the edge touches the
owner itself, in which case the cache is cleared.  This one cache serves
every ``graph_backend``: both graph classes fire the same edge-change
events in the same order.

Reach set: when the engine names an ``outside_reach_score`` (BarterCast:
``scale(0.0)``), the same listener keeps a superset of every peer linked
to the owner by a path of at most two edges, in either direction, and a
miss outside it is answered with that score instead of an engine call.
It is cached, counted, traced and timed as an evaluation; only the
kernel's own ``KERNEL_INVOCATIONS`` see fewer passes.

Verdict memo: when the engine names a ``score_slope`` (BarterCast: the
most a score moves per byte on an owner edge), the node keeps the
``(score, recorded_at)`` of the last score each ban check read, where
``recorded_at`` is the running total of bytes ``record_upload`` /
``record_download`` had recorded then.  Owner edges
change only there and only grow, so a score has moved by at most
``slope × (bytes recorded since)`` and :meth:`at_least` reuses a verdict
that far, plus ``_VERDICT_EPS`` of float rounding, from δ.  A non-owner
write drops its two endpoints, by the cache's dirty rule; an owner-edge
write that ``record_*`` did not make turns the memo off for good.  A
reused verdict counts as a cache hit.

Batch path: :meth:`reputations_of` (and through it
:meth:`rank_by_reputation` and the policies' once-per-round
``allowed`` / ``order_optimistic``) scores all cache-missing targets with
one ``engine.scores`` call — for BarterCast one
:func:`~repro.graph.maxflow.maxflow_two_hop_batch` pass.  A single miss
(:meth:`reputation_of`) calls ``engine.score``.  Telemetry counters
(``rep_cache_hits`` / ``rep_cache_misses`` / ``rep_cache_invalidations``
and ``kernel_calls`` / ``kernel_targets``) instrument every lookup.  With
the bundle's profiler on, each evaluation is also timed here — one
``observe_kernel`` per ``kernel_calls`` increment, labelled
``<engine>.scalar`` or ``<engine>.batch`` — so every engine is costed at
the same seam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.adversary import HonestBehavior, MessageBehavior
from repro.core.engines import make_engine
from repro.core.history import PrivateHistory
from repro.core.messages import BarterCastMessage
from repro.core.reputation import ReputationMetric
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.columnar import ColumnarTransferGraph
from repro.graph.transfer_graph import TransferGraph
from repro.obs import NULL_OBS, Observability
from repro.obs.provenance import ProvenanceRecorder

__all__ = [
    "BarterCastConfig",
    "BarterCastNode",
    "GRAPH_BACKENDS",
]

PeerId = Hashable

#: Valid values of ``BarterCastNode(graph_backend=...)``.
GRAPH_BACKENDS = ("dict", "columnar")

#: Float rounding a reused ban verdict keeps clear of δ (module docstring).
_VERDICT_EPS = 1e-9


class _VerdictMemo(dict):
    """``peer -> (score, recorded_at)`` of the last ban check that scored
    each peer, with the bound's state: the engine's ``slope`` and the
    bytes ``recorded`` by ``record_*`` so far: one node attribute for all
    three (see the attribute budget in ``BarterCastNode.__init__``)."""

    __slots__ = ("slope", "recorded")

    def __init__(self, slope: float) -> None:
        super().__init__()
        self.slope = slope
        self.recorded = 0.0


@dataclass
class BarterCastConfig:
    """Protocol parameters of a BarterCast node.

    Attributes
    ----------
    n_highest:
        ``Nh``: number of top-uploader records per message (paper: 10).
    n_recent:
        ``Nr``: number of most-recently-seen records per message (paper: 10).
    metric:
        The reputation metric (unit, scaling).
    """

    n_highest: int = 10
    n_recent: int = 10
    metric: ReputationMetric = field(default_factory=ReputationMetric)

    def __post_init__(self) -> None:
        # ``Nh`` / ``Nr`` slice the ranked history, so each must be a
        # non-negative integer (a bool is not a count).
        for name in ("n_highest", "n_recent"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")


class BarterCastNode:
    """One peer's BarterCast agent.

    Parameters
    ----------
    peer_id:
        This peer's identifier (the paper assumes machine-dependent
        permanent identifiers; any hashable works here).
    config:
        Protocol parameters; a default-constructed config matches the paper.
    behavior:
        Message behaviour; defaults to :class:`HonestBehavior`.
    graph_backend:
        Subjective-graph storage: ``"dict"`` (the reference
        :class:`~repro.graph.transfer_graph.TransferGraph`, default) or
        ``"columnar"`` (the flat :class:`~repro.graph.columnar
        .ColumnarTransferGraph`, kept as the benchmark's bit-identity
        cross-check; DESIGN.md §13).  It picks the storage class and
        nothing else: reputations, cache behaviour and the telemetry
        counters are identical between backends.
    obs:
        Observability bundle.  With tracing on the node emits sampled
        trace events for message send/receive (``bc.message``) and kernel
        invocations (``rep.kernel``); with profiling on it times each
        evaluation; the disabled default adds one attribute check per
        traced or timed block.  The node's counts
        (:meth:`counts`) are plain attributes, kept whether or not
        anything records them; the run that owns the node publishes
        them.
    engine:
        Reputation mechanism (DESIGN.md §15), held as :attr:`engine`:
        ``"bartercast"`` (default — the paper's maxflow metric),
        ``"gossip"`` (differential-gossip aggregation), or ``"ratio"``
        (upload/download ratio credit).  It only scores; the cache,
        transfer accounting and the gossip layer are engine-independent.
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceRecorder` shared
        across the simulation.  When enabled, outgoing messages are
        stamped with a ``(peer_id, sequence)`` msg id and the shared
        history attaches lineage to every live claim.  Off by default;
        the flag-off node is byte-identical to the seed behaviour.
    """

    def __init__(
        self,
        peer_id: PeerId,
        config: Optional[BarterCastConfig] = None,
        behavior: Optional[MessageBehavior] = None,
        obs: Optional[Observability] = None,
        provenance: Optional[ProvenanceRecorder] = None,
        graph_backend: str = "dict",
        engine: str = "bartercast",
    ) -> None:
        if graph_backend not in GRAPH_BACKENDS:
            raise ValueError(
                f"graph_backend must be one of {GRAPH_BACKENDS}, got {graph_backend!r}"
            )
        self.peer_id = peer_id
        self.engine = make_engine(engine)
        self.config = config if config is not None else BarterCastConfig()
        self.behavior: MessageBehavior = behavior if behavior is not None else HonestBehavior()
        # Read here only: a node keeps at most 29 instance attributes, the
        # most CPython 3.11 stores in its shared-key layout; one more
        # gives every node a full dict (~1.4 KiB) and slower reads.
        obs = obs if obs is not None else NULL_OBS
        self.provenance = provenance
        self.history = PrivateHistory(peer_id)
        self.graph = (
            ColumnarTransferGraph() if graph_backend == "columnar" else TransferGraph()
        )
        self.graph.add_node(peer_id)
        self.shared = SubjectiveSharedHistory(
            peer_id, self.graph, obs=obs, provenance=provenance
        )
        tracer = obs.tracer
        self._tr_msg = tracer.category("bc.message") if tracer.enabled else None
        self._tr_kernel = tracer.category("rep.kernel") if tracer.enabled else None
        profiler = obs.profiler
        self._prof = profiler if profiler.enabled else None
        self._rep_cache: Dict[PeerId, float] = {}
        #: Telemetry: cache lookups answered from the cache.
        self.rep_cache_hits = 0
        #: Telemetry: cache lookups that required a kernel evaluation.
        self.rep_cache_misses = 0
        #: Telemetry: cached entries dropped by invalidation.
        self.rep_cache_invalidations = 0
        self.messages_sent = 0
        self.messages_received = 0
        #: Engine evaluations (one per scalar miss or batch), and the
        #: targets they scored.
        self.kernel_calls = 0
        self.kernel_targets = 0
        #: :func:`~repro.bittorrent.choker.select_unchokes` calls that
        #: found a candidate for this node's owner, and the candidates its
        #: policy banned.
        self.choke_calls = 0
        self.choke_banned = 0
        # Causal envelope state: the msg_id of this node's previous
        # outgoing message, chained into parent_id (DESIGN.md §16).
        self._last_msg_id: Optional[Hashable] = None
        # The two-hop reach set (module docstring): ``None`` unless the
        # engine fixes the score of a peer outside it.  ``_in_marked`` /
        # ``_out_marked`` hold the owner's in- and out-neighbours seen so
        # far; they stay empty without a reach set.  Nothing ever leaves
        # the three sets: a superset answers exactly.
        outside = self.engine.outside_reach_score(self)
        self._outside_score = outside
        self._reach: Optional[Set[PeerId]] = None if outside is None else set()
        self._in_marked: Set[PeerId] = set()
        self._out_marked: Set[PeerId] = set()
        # The verdict memo (module docstring): ``None`` unless the engine
        # bounds how far a recorded byte moves a score.
        slope = self.engine.score_slope(self)
        self._verdicts = None if slope is None else _VerdictMemo(slope)
        self.graph.subscribe(self._on_edge_change)

    # ------------------------------------------------------------------
    # Transfer accounting (private history is authoritative for own edges)
    # ------------------------------------------------------------------
    # ``record_upload`` / ``record_download`` set the owner edge to its
    # private total through the graph's listener-free ``store`` and then do
    # what the edge listener does for an owner edge (:meth:`_on_edge_change`),
    # except end the verdict memo: the ``nbytes`` that moved the edge count
    # toward the memo's bound instead.  Both run once per moving link and
    # round, so the branch is written out in each.
    def record_upload(self, peer: PeerId, nbytes: float, now: float) -> None:
        """Account ``nbytes`` uploaded to ``peer`` at time ``now``."""
        total = self.history.record_upload(peer, nbytes, now)
        memo = self._verdicts
        if memo is not None:
            memo.recorded += float(nbytes)
        if self.graph.store(self.peer_id, peer, total):
            cache = self._rep_cache
            if cache:
                self.rep_cache_invalidations += len(cache)
                cache.clear()
            if self._reach is not None and peer not in self._out_marked:
                self._mark_owner_edge(self.peer_id, peer)

    def record_download(self, peer: PeerId, nbytes: float, now: float) -> None:
        """Account ``nbytes`` downloaded from ``peer`` at time ``now``."""
        total = self.history.record_download(peer, nbytes, now)
        memo = self._verdicts
        if memo is not None:
            memo.recorded += float(nbytes)
        if self.graph.store(peer, self.peer_id, total):
            cache = self._rep_cache
            if cache:
                self.rep_cache_invalidations += len(cache)
                cache.clear()
            if self._reach is not None and peer not in self._in_marked:
                self._mark_owner_edge(peer, self.peer_id)

    def note_seen(self, peer: PeerId, now: float) -> None:
        """Mark ``peer`` as seen now (affects the ``Nr`` selection)."""
        if peer != self.peer_id:
            self.history.touch(peer, now)

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def create_message(self, now: float) -> Optional[BarterCastMessage]:
        """The message this node sends at ``now`` (None for ignorers)."""
        msg = self.behavior.make_message(self, now)
        if msg is not None:
            self.messages_sent += 1
            if msg.msg_id is None:
                # Stamp the causal envelope: a per-sender sequence id plus
                # the previous message's id as parent.  Deterministic, no
                # RNG, and receivers never consult either field for
                # supersede decisions, so stamping cannot change
                # simulation behaviour.  Provenance lineage and the
                # dissemination log share this one identity scheme.
                # In-place write on the frozen dataclass: the behavior
                # built this instance one call up and nothing else holds
                # a reference yet, and ``replace()`` would re-tuple the
                # records — a measurable per-message cost on a field
                # stamped for every message of every run.
                object.__setattr__(
                    msg, "msg_id", (self.peer_id, self.messages_sent)
                )
                object.__setattr__(msg, "parent_id", self._last_msg_id)
            self._last_msg_id = msg.msg_id
            if self._tr_msg is not None and self._tr_msg.sample():
                self._tr_msg.emit_sampled(
                    "send",
                    sim_time=now,
                    attrs={
                        "sender": self.peer_id,
                        "records": msg.num_records,
                        "msg_id": msg.msg_id,
                    },
                )
        return msg

    def receive_message(
        self, message: BarterCastMessage, now: Optional[float] = None
    ) -> int:
        """Ingest a received message into the subjective shared history.

        The store drops a message claiming to be from this node whole,
        and drops records about the receiver (private history is
        authoritative there); neither is raised on.  ``now`` is the
        simulated receipt time for lineage records (falls back to the
        message creation time).  Returns the number of records applied;
        every other record counts toward ``bc.records_dropped``, which
        is mostly fresher confirmations of totals already held.
        """
        self.messages_received += 1
        applied = self.shared.ingest(message, now=now)
        if self._tr_msg is not None and self._tr_msg.sample():
            self._tr_msg.emit_sampled(
                "receive",
                sim_time=message.created_at,
                attrs={
                    "receiver": self.peer_id,
                    "sender": message.sender,
                    "records": message.num_records,
                    "applied": applied,
                    "msg_id": message.msg_id,
                },
            )
        return applied

    def wipe_shared_history(self) -> int:
        """Drop every gossip-learned claim (hard-restart churn path).

        Models a peer whose process died without persisting its gossip
        state: the private history (on-disk in Tribler) survives, the
        subjective shared history does not.  Returns the number of claims
        dropped: two per record, whether or not an edge value moved.
        Reporters are forgotten in a
        deterministic order so fault schedules replay identically.
        """
        changed = 0
        for reporter in sorted(self.shared.reporters(), key=repr):
            changed += self.shared.forget_reporter(reporter)
        return changed

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _on_edge_change(self, src: PeerId, dst: PeerId) -> None:
        """Graph edge listener: grow the reach set, then invalidate the
        dirty set for ``(src, dst)`` in the cache and the verdict memo.

        A write into a marked in-neighbour of the owner brings its source
        within two hops, a write out of a marked out-neighbour its
        destination; the owner is never marked, so its own edges probe
        false here and are handled by :meth:`_mark_owner_edge`.
        Invalidation drops the two endpoints (module docstring), and
        clears the cache for an edge incident to the owner.  ``record_*``
        write owner edges past the listener (they do this branch
        themselves); an owner edge written anywhere else may move a score
        by more than the bytes recorded, so it ends the memo.
        """
        if dst in self._in_marked:
            self._reach.add(src)
        if src in self._out_marked:
            self._reach.add(dst)
        cache = self._rep_cache
        me = self.peer_id
        if src == me or dst == me:
            if self._reach is not None:
                self._mark_owner_edge(src, dst)
            self._verdicts = None
            self.rep_cache_invalidations += len(cache)
            cache.clear()
            return
        verdicts = self._verdicts
        if verdicts:
            verdicts.pop(src, None)
            verdicts.pop(dst, None)
        if cache:
            before = len(cache)
            cache.pop(src, None)
            cache.pop(dst, None)
            self.rep_cache_invalidations += before - len(cache)

    def _mark_owner_edge(self, src: PeerId, dst: PeerId) -> None:
        """The first time ``(x, owner)`` appears, ``x`` and ``pred(x)``
        join the reach set and ``x`` is marked an in-neighbour; the first
        time ``(owner, y)`` appears, ``y`` and ``succ(y)`` join and ``y``
        is marked an out-neighbour.  The marks are kept per direction: a
        peer first met as an in-neighbour still brings in its successors
        the first time the owner uploads to it."""
        reach = self._reach
        if src == self.peer_id:
            if dst not in self._out_marked:
                self._out_marked.add(dst)
                reach.add(dst)
                reach.update(self.graph.successors(dst))
        elif src not in self._in_marked:
            self._in_marked.add(src)
            reach.add(src)
            reach.update(self.graph.predecessors(src))

    def invalidate_cache(self) -> None:
        """Drop every cached reputation (forces cold re-evaluation).

        Cold-cache measurements use it; normal operation never needs it.
        The reach set stays: it is graph structure, not a memo.  So does
        the verdict memo, which stays exact by its own bound.
        """
        self.rep_cache_invalidations += len(self._rep_cache)
        self._rep_cache.clear()

    def within_reach(self, peer: PeerId) -> bool:
        """Whether a miss on ``peer`` goes to the engine: ``peer`` is in
        the reach set, or the node keeps none."""
        return self._reach is None or peer in self._reach

    @property
    def keeps_verdicts(self) -> bool:
        """Whether :meth:`at_least` may answer from the verdict memo."""
        return self._verdicts is not None

    @property
    def rep_cache_size(self) -> int:
        """Number of currently memoized reputations."""
        return len(self._rep_cache)

    # ------------------------------------------------------------------
    # Reputation
    # ------------------------------------------------------------------
    def reputation_of(self, peer: PeerId) -> float:
        """The subjective reputation ``R_self(peer)`` under the node's
        engine, served through the dirty-set cache when provably fresh.
        Never rates self, never NaN."""
        if peer == self.peer_id:
            raise ValueError("a node does not rate itself")
        cached = self._rep_cache.get(peer)
        if cached is not None:
            self.rep_cache_hits += 1
            return cached
        self.rep_cache_misses += 1
        value = self._evaluate_scalar(peer)
        self._rep_cache[peer] = value
        return value

    def _evaluate_scalar(self, peer: PeerId) -> float:
        """One scalar evaluation, counted (and traced and timed when live);
        a peer outside the reach set takes the engine's outside score."""
        prof = self._prof
        if prof is not None:
            t0 = time.perf_counter()
        reach = self._reach
        if reach is None or peer in reach:
            value = self.engine.score(self, peer)
        else:
            value = self._outside_score
        if prof is not None:
            prof.observe_kernel(
                self.engine.name + ".scalar", time.perf_counter() - t0
            )
        self.kernel_calls += 1
        self.kernel_targets += 1
        if self._tr_kernel is not None and self._tr_kernel.sample():
            self._tr_kernel.emit_sampled(
                "scalar", attrs={"owner": self.peer_id, "targets": 1}
            )
        return value

    def reputations_of(self, peers: Iterable[PeerId]) -> Dict[PeerId, float]:
        """Batch evaluation of several peers (``self``/duplicates skipped).

        Cached entries are served directly and the misses inside the
        reach set are scored in one ``engine.scores`` call
        (value-identical to scalar calls); the rest take the outside
        score.  The whole batch is one counted evaluation.
        """
        me = self.peer_id
        # One pass: every distinct peer gets its slot in first-seen order,
        # holding its cached score or ``None`` until scored.
        cache_get = self._rep_cache.get
        values: Dict[PeerId, Optional[float]] = {}
        missing = []
        for p in peers:
            if p in values or p == me:
                continue
            v = values[p] = cache_get(p)
            if v is None:
                missing.append(p)
        self.rep_cache_hits += len(values) - len(missing)
        if missing:
            self.rep_cache_misses += len(missing)
            prof = self._prof
            if prof is not None:
                t0 = time.perf_counter()
            reach = self._reach
            if reach is None:
                fresh = self.engine.scores(self, missing)
            else:
                fresh = dict.fromkeys(missing, self._outside_score)
                near = [p for p in missing if p in reach]
                if near:
                    fresh.update(self.engine.scores(self, near))
            if prof is not None:
                prof.observe_kernel(
                    self.engine.name + ".batch", time.perf_counter() - t0
                )
            self.kernel_calls += 1
            self.kernel_targets += len(missing)
            if self._tr_kernel is not None and self._tr_kernel.sample():
                self._tr_kernel.emit_sampled(
                    "batch", attrs={"owner": self.peer_id, "targets": len(missing)}
                )
            self._rep_cache.update(fresh)
            values.update(fresh)
        return values

    def at_least(self, peers: Iterable[PeerId], delta: float) -> List[PeerId]:
        """The ``peers`` whose reputation is at least ``delta``, in the
        order given: the ban check, answered from the verdict memo where
        the bytes recorded since cannot have carried a score across
        ``delta`` (module docstring), and from one :meth:`reputations_of`
        pass for the rest, which refreshes the memo.  Needs
        :attr:`keeps_verdicts`."""
        memo = self._verdicts
        recorded = memo.recorded
        slope = memo.slope
        seen_of = memo.get
        verdict: Dict[PeerId, bool] = {}
        unsure = []
        for p in peers:
            seen = seen_of(p)
            if seen is not None:
                score, at = seen
                gap = score - delta
                room = slope * (recorded - at) + _VERDICT_EPS
                if gap >= room:
                    verdict[p] = True
                    continue
                if gap < -room:
                    verdict[p] = False
                    continue
            unsure.append(p)
        self.rep_cache_hits += len(verdict)
        if unsure:
            for p, score in self.reputations_of(unsure).items():
                memo[p] = (score, recorded)
                verdict[p] = score >= delta
        return [p for p in peers if verdict[p]]

    # rank_by_reputation reads the batch under this second name, so a
    # wrapper around the public method sees only outside calls.
    _reputations = reputations_of

    def rank_by_reputation(self, peers: Iterable[PeerId]) -> List[PeerId]:
        """Peers sorted by descending subjective reputation (batched).

        Ties are broken deterministically by peer id representation, which
        in the rank policy gives stable round-robin-like behaviour among
        strangers (all reputation ~0), seed-stable under every engine.
        """
        scored: List[Tuple[float, str, PeerId]] = [
            (-value, repr(p), p) for p, value in self._reputations(peers).items()
        ]
        scored.sort(key=itemgetter(0, 1))
        return [p for _, _, p in scored]

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """This node's totals under the metric names its run publishes
        (DESIGN.md §7).  The choker's two appear once it has acted."""
        counts = {
            "bc.messages_sent": self.messages_sent,
            "bc.messages_received": self.messages_received,
            "bc.records_applied": self.shared.records_applied,
            "bc.records_dropped": self.shared.records_dropped,
            "rep.kernel.calls": self.kernel_calls,
            "rep.kernel.targets": self.kernel_targets,
        }
        if self.choke_calls:
            counts["choke.calls"] = self.choke_calls
        if self.choke_banned:
            counts["choke.banned"] = self.choke_banned
        return counts

    @property
    def known_peers(self) -> int:
        """Number of nodes in the subjective graph (including self)."""
        return self.graph.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BarterCastNode {self.peer_id!r} behavior={self.behavior.name} "
            f"known={self.known_peers} sent={self.messages_sent} recv={self.messages_received}>"
        )
