"""The subjective shared history.

Stores the claims a peer has received from other peers via BarterCast
messages and materializes them, together with the owner's private history,
into the subjective local :class:`~repro.graph.transfer_graph.TransferGraph`
that feeds the maxflow reputation.

Claim semantics
---------------
A record from reporter *r* about counterparty *c* asserts two directed
totals: ``r → c`` (r's claimed upload to c) and ``c → r`` (r's claimed
download from c).  For any ordered pair ``(x, y)`` there can thus be up to
two independent claims — one by *x* ("I uploaded U to y") and one by *y*
("I downloaded D from x").  The store keeps both and materializes the edge
as the **maximum** of the live claims: totals only grow over time, so the
larger claim is the fresher information when both parties are honest, and
when they disagree the maxflow bound (not edge arbitration) is the paper's
defense against inflation.

Two hard rules protect the owner:

* records *about the owner* (counterparty == owner) are ignored — edges
  incident to the owner come exclusively from its own private history;
* records *sent by the owner itself* are rejected (a node never gossips to
  itself).

Supersede semantics: a reporter's newer message replaces its older claims
about the same counterparty (records carry totals, not deltas).  Stale
messages — older than the newest already seen from that reporter about that
counterparty — are dropped.  Equal-timestamp ties deterministically keep
the **maximum** value, so duplicated or reordered deliveries of the same
message can never make the view depend on arrival order (the unreliable
channel of :mod:`repro.faults` relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional, Set, Tuple

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.graph.transfer_graph import TransferGraph
from repro.obs import NULL_OBS, Observability
from repro.obs.provenance import NULL_PROVENANCE, ClaimLineage, ProvenanceRecorder

__all__ = ["SubjectiveSharedHistory"]

PeerId = Hashable


@dataclass(slots=True)
class _Claim:
    """A reporter's latest claim about one directed edge.

    ``lineage`` is ``None`` unless provenance recording is enabled, in
    which case it is the compact raw tuple ``(msg_id, received_at,
    superseded_count)`` describing the message that delivered the live
    value.  The full :class:`repro.obs.provenance.ClaimLineage` view is
    synthesized lazily by :meth:`SubjectiveSharedHistory.lineage_of`
    (the other fields — reporter, value, reported_at — already live on
    the claim), keeping the ingest hot path to one tuple allocation.
    """

    value: float
    reported_at: float
    lineage: Optional[Tuple[Hashable, float, int]] = None


class SubjectiveSharedHistory:
    """Accumulates third-party claims and maintains the subjective graph.

    Parameters
    ----------
    owner:
        The peer that owns this view.
    graph:
        The transfer graph to maintain.  Edges incident to ``owner`` are
        never written by this class (they belong to the private history).
    obs:
        Observability bundle; when enabled, record merges are counted
        (``bc.records_applied`` / ``bc.records_dropped``) and each ingest
        emits one sampled ``bc.merge`` trace event.
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceRecorder`.  When
        enabled, every live claim carries a :class:`ClaimLineage` and
        lineage events (record/supersede/redelivery/stale/forget) are
        counted.  Defaults to the no-op :data:`NULL_PROVENANCE`; the
        hooks only observe, so a provenance-on store makes exactly the
        state transitions and graph writes of a provenance-off one.

    Notes
    -----
    The class maintains, for every directed pair ``(x, y)`` with
    ``owner ∉ {x, y}``, a small dict of claims keyed by reporter.  Edge
    materialization takes the max over live claims and writes it through to
    ``graph`` incrementally, so reputation queries never trigger a full
    rebuild.
    """

    def __init__(
        self,
        owner: PeerId,
        graph: TransferGraph,
        obs: Optional[Observability] = None,
        provenance: Optional[ProvenanceRecorder] = None,
    ) -> None:
        self.owner = owner
        self._graph = graph
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        self._prov_on = self._prov.enabled
        # (src, dst) -> {reporter: _Claim}
        self._claims: Dict[Tuple[PeerId, PeerId], Dict[PeerId, _Claim]] = {}
        self._messages_seen = 0
        self._records_applied = 0
        self._records_dropped = 0
        obs = obs if obs is not None else NULL_OBS
        metrics = obs.metrics
        if metrics.enabled:
            self._m_applied = metrics.counter("bc.records_applied")
            self._m_dropped = metrics.counter("bc.records_dropped")
        else:
            self._m_applied = None
            self._m_dropped = None
        tracer = obs.tracer
        self._tr_merge = tracer.category("bc.merge") if tracer.enabled else None

    # ------------------------------------------------------------------
    @property
    def messages_seen(self) -> int:
        """Number of messages ingested (including fully-stale ones)."""
        return self._messages_seen

    @property
    def records_applied(self) -> int:
        """Number of records that changed the view."""
        return self._records_applied

    @property
    def records_dropped(self) -> int:
        """Number of records dropped (stale, malformed, or about the owner)."""
        return self._records_dropped

    # ------------------------------------------------------------------
    def ingest(self, message: BarterCastMessage, now: Optional[float] = None) -> int:
        """Apply a received message; returns the number of records applied.

        ``now`` is the simulated receipt time, recorded into claim lineage
        when provenance is on (the delaying channel of :mod:`repro.faults`
        makes it differ from ``message.created_at``).  When omitted, the
        creation time is used.  A malformed record (not a
        :class:`HistoryRecord`, :meth:`~HistoryRecord.is_sane` false,
        naming the sender or the owner) is dropped and counted, never
        raised on; the rest of the message still applies.

        Raises
        ------
        ValueError
            If the message claims to be from the owner itself.
        """
        reporter = message.sender
        owner = self.owner
        if reporter == owner:
            raise ValueError("a node cannot ingest its own message")
        self._messages_seen += 1
        rts = float(message.created_at)
        if self._prov_on:
            prov = self._prov
            record_claim = prov.record_claim
            msg_id = message.msg_id
            if msg_id is None:
                msg_id = (reporter, message.created_at)
            received_at = rts if now is None else float(now)
        else:
            prov = lineage = None
        claims_map = self._claims
        g_set = self._graph.set_transfer
        applied = 0
        # One pass over the records: validate, supersede-check, write.
        # Ingest is the write hot path of every simulation.
        for record in message.records:
            if not isinstance(record, HistoryRecord) or not record.is_sane():
                continue
            c = record.counterparty
            if c == owner or c == reporter:
                # Edges incident to the owner come from the private
                # history only; a reporter has no edge to itself.
                continue
            changed = False
            # reporter -> c is the reporter's claimed upload, c -> reporter
            # its claimed download.
            for edge, value in (
                ((reporter, c), record.uploaded),
                ((c, reporter), record.downloaded),
            ):
                claims = claims_map.get(edge)
                if claims is None:
                    claims = claims_map[edge] = {}
                    existing = None
                else:
                    existing = claims.get(reporter)
                if existing is None:
                    if prov is not None:
                        lineage = (msg_id, received_at, 0)
                        record_claim(owner, edge, reporter, lineage, False)
                    claims[reporter] = _Claim(float(value), rts, lineage)
                else:
                    ets = existing.reported_at
                    if ets > rts:
                        if prov is not None:
                            prov.record_stale(owner, edge, reporter)
                        continue
                    if ets == rts and value <= existing.value:
                        # Redelivered or reordered copy of an equal-timestamp
                        # message: the tie rule keeps the max value, so the
                        # view is independent of arrival order (delivery
                        # idempotency).  Lineage likewise stays put.
                        if prov is not None:
                            prov.record_redelivery(owner, edge, reporter)
                        continue
                    existing.reported_at = rts
                    if prov is not None:
                        # Lineage moves to the replacing — or merely
                        # confirming — message; ``superseded`` counts every
                        # predecessor (a claim that predates provenance
                        # recording counts as one of unknown history).
                        old = existing.lineage
                        existing.lineage = lineage = (
                            msg_id,
                            received_at,
                            old[2] + 1 if old is not None else 1,
                        )
                        record_claim(owner, edge, reporter, lineage, True)
                    if existing.value == value:
                        continue  # fresher confirmation of the same total
                    existing.value = float(value)
                if len(claims) == 1:
                    m = float(value)
                else:
                    m = max(cl.value for cl in claims.values())
                # set_transfer registers both endpoints and no-ops when the
                # capacity is unchanged (a second reporter's lower claim
                # leaves the graph version, and every cache, alone).
                g_set(edge[0], edge[1], m)
                changed = True
            if changed:
                applied += 1
        dropped = len(message.records) - applied
        self._records_applied += applied
        self._records_dropped += dropped
        if self._m_applied is not None:
            self._m_applied.inc(applied)
            self._m_dropped.inc(dropped)
        if self._tr_merge is not None and self._tr_merge.sample():
            self._tr_merge.emit_sampled(
                "ingest",
                sim_time=message.created_at,
                attrs={
                    "owner": owner,
                    "reporter": reporter,
                    "records": len(message.records),
                    "applied": applied,
                },
            )
        return applied

    def _materialize(self, edge: Tuple[PeerId, PeerId]) -> None:
        claims = self._claims.get(edge, {})
        value = max((c.value for c in claims.values()), default=0.0)
        # A claim that does not move the max (e.g. a second reporter making
        # a lower claim) leaves the materialized edge as-is: skip the write
        # so the graph version stays put and no cache invalidation fires.
        # The endpoints are still registered — a zero-value claim marks the
        # peers as known even though it stores no edge.
        if value == self._graph.capacity(edge[0], edge[1]):
            self._graph.add_node(edge[0])
            self._graph.add_node(edge[1])
            return
        self._graph.set_transfer(edge[0], edge[1], value)

    # ------------------------------------------------------------------
    def claimed(self, src: PeerId, dst: PeerId) -> float:
        """The materialized claim for edge ``(src, dst)`` (0 if none)."""
        return self._graph.capacity(src, dst)

    def claim_of(self, reporter: PeerId, src: PeerId, dst: PeerId) -> Optional[float]:
        """``reporter``'s own live claim about edge ``(src, dst)``, if any."""
        claims = self._claims.get((src, dst))
        if claims is None:
            return None
        claim = claims.get(reporter)
        return None if claim is None else claim.value

    def known_edges(self) -> Iterator[Tuple[PeerId, PeerId]]:
        """Directed pairs for which at least one claim is stored."""
        return iter(self._claims)

    def reporters(self) -> Set[PeerId]:
        """Every peer with at least one live claim in this view."""
        seen: Set[PeerId] = set()
        for claims in self._claims.values():
            seen.update(claims)
        return seen

    def forget_reporter(self, reporter: PeerId) -> int:
        """Drop all claims made by ``reporter``; returns how many edges changed.

        Used by failure-injection tests and by future eviction policies.
        """
        changed = 0
        for edge, claims in list(self._claims.items()):
            if reporter in claims:
                del claims[reporter]
                self._materialize(edge)
                changed += 1
                if not claims:
                    del self._claims[edge]
        if self._prov_on and changed:
            self._prov.record_forget(self.owner, reporter, changed)
        return changed

    # ------------------------------------------------------------------
    @property
    def provenance_enabled(self) -> bool:
        """Whether live claims carry lineage records."""
        return self._prov_on

    def lineage_of(
        self, src: PeerId, dst: PeerId
    ) -> Dict[PeerId, ClaimLineage]:
        """Lineage of every live claim about edge ``(src, dst)``.

        Keyed by reporter; empty when provenance is off or nothing is
        known about the pair.  Claims ingested before provenance was
        enabled carry no lineage and are omitted.
        """
        claims = self._claims.get((src, dst))
        if not claims:
            return {}
        return {
            reporter: ClaimLineage(
                reporter=reporter,
                msg_id=claim.lineage[0],
                value=claim.value,
                reported_at=claim.reported_at,
                received_at=claim.lineage[1],
                hops=1,
                superseded=claim.lineage[2],
            )
            for reporter, claim in claims.items()
            if claim.lineage is not None
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubjectiveSharedHistory owner={self.owner!r} "
            f"edges={len(self._claims)} msgs={self._messages_seen}>"
        )
