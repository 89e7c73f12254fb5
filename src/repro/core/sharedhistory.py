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

The unit of storage is the unit of gossip: one record per (reporter,
counterparty) holding both totals and the one ``reported_at`` they share —
the two directions are only ever written together, by the same record.
The claim about edge ``(x, y)`` by *x* is the ``uploaded`` of x's record
about y; the one by *y* is the ``downloaded`` of y's record about x.

Two hard rules protect the owner:

* records *about the owner* (counterparty == owner) are ignored — edges
  incident to the owner come exclusively from its own private history;
* messages *sent by the owner itself* are dropped whole, their records
  counted as dropped (a node never gossips to itself, so such a message
  is forged).

Supersede semantics: a reporter's newer message replaces its older claims
about the same counterparty (records carry totals, not deltas).  Stale
messages — older than the newest already seen from that reporter about that
counterparty — are dropped.  Equal-timestamp ties deterministically keep
the **maximum** value, per direction, so duplicated or reordered deliveries
of the same message can never make the view depend on arrival order (the
unreliable channel of :mod:`repro.faults` relies on this).
"""

from __future__ import annotations

from math import inf
from typing import Dict, Hashable, Iterator, Optional, Set, Tuple

from repro.core.messages import BarterCastMessage, HistoryRecord, admitted_totals
from repro.graph.transfer_graph import TransferGraph
from repro.obs import NULL_OBS, Observability
from repro.obs.provenance import NULL_PROVENANCE, ClaimLineage, ProvenanceRecorder

__all__ = ["SubjectiveSharedHistory"]

PeerId = Hashable


class _Report:
    """A reporter's latest record about one counterparty.

    ``wire`` is the exact, immutable :class:`HistoryRecord` both totals
    were last written from, or ``None``; a sender re-sends that very
    object until one of its totals moves (``select_records``), so seeing
    it again means neither total can move.
    """

    __slots__ = ("uploaded", "downloaded", "reported_at", "wire")

    def __init__(self, uploaded, downloaded, reported_at, wire) -> None:
        self.uploaded = uploaded
        self.downloaded = downloaded
        self.reported_at = reported_at
        self.wire = wire


class _LineageReport(_Report):
    """A :class:`_Report` that also carries lineage (provenance on).

    Per direction: ``*_msg`` is the ``(msg_id, received_at)`` pair of the
    message that delivered the live value — one pair per ingested message,
    shared by every record it wrote — and ``*_superseded`` counts the
    claims it replaced.  The directions differ only after an
    equal-timestamp tie one direction won.  The full
    :class:`~repro.obs.provenance.ClaimLineage` is synthesized by
    :meth:`SubjectiveSharedHistory.lineage_of`.
    """

    __slots__ = ("up_msg", "down_msg", "up_superseded", "down_superseded")

    def __init__(self, uploaded, downloaded, reported_at, wire, msg) -> None:
        _Report.__init__(self, uploaded, downloaded, reported_at, wire)
        self.up_msg = self.down_msg = msg
        self.up_superseded = self.down_superseded = 0


def _wire(record: HistoryRecord) -> Optional[HistoryRecord]:
    """``record`` if it is exactly a (frozen) ``HistoryRecord``: a
    subclass could compute its totals, so only an exact one is trusted by
    identity."""
    return record if record.__class__ is HistoryRecord else None


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
        Observability bundle; with tracing on, each ingest emits one
        sampled ``bc.merge`` trace event.  Record merges are counted
        either way (:attr:`records_applied` / :attr:`records_dropped`).
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceRecorder`.  When
        enabled, every live claim carries a :class:`ClaimLineage` and
        lineage events (record/supersede/redelivery/stale/forget) are
        counted, one fold per message.  Defaults to the no-op
        :data:`NULL_PROVENANCE`; the hooks only observe, so a
        provenance-on store makes exactly the state transitions and graph
        writes of a provenance-off one.

    Notes
    -----
    The class maintains ``reporter -> {counterparty: record}`` for every
    pair with ``owner ∉ {reporter, counterparty}``.  An edge is the max of
    its (at most two) live claims, written through to ``graph`` only when
    a total moves, so reputation queries never trigger a full rebuild.
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
        # reporter -> {counterparty: _Report}; never holds an empty dict.
        self._reports: Dict[PeerId, Dict[PeerId, _Report]] = {}
        self._messages_seen = 0
        self._records_applied = 0
        self._records_dropped = 0
        tracer = (obs if obs is not None else NULL_OBS).tracer
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
        """Number of records that did not change the view: stale, malformed,
        about the owner or the sender, in a message dropped whole, or —
        most of them in a simulation — a fresher confirmation of totals
        already held (DESIGN.md §7)."""
        return self._records_dropped

    # ------------------------------------------------------------------
    def ingest(self, message: BarterCastMessage, now: Optional[float] = None) -> int:
        """Apply a received message; returns the number of records applied.

        ``now`` is the simulated receipt time, recorded into claim lineage
        when provenance is on (the delaying channel of :mod:`repro.faults`
        makes it differ from ``message.created_at``).  When omitted, the
        creation time is used.  A malformed record (not a
        :class:`HistoryRecord`, an unhashable counterparty, totals that
        :func:`~repro.core.messages.admitted_totals` refuses, naming the
        sender or the owner) is dropped and counted, never
        raised on; the rest of the message still applies.  A message is
        dropped whole, every record counted, and 0 returned when its
        ``created_at`` is not a finite real, or is later than ``now`` when
        ``now`` is given — a timestamp from the future would make every
        honest message of its sender stale until the clock caught up with
        it — or when it claims to be from the owner itself, which never
        gossips to itself.  Ingest never raises, whatever a peer sent.
        """
        reporter = message.sender
        owner = self.owner
        self._messages_seen += 1
        created = message.created_at
        try:
            # The chained comparison is also false for NaN; an int too
            # large for a float passes it and overflows.
            rts = float(created) if -inf < created < inf else None
        except (OverflowError, TypeError, ValueError):
            rts = None
        if now is not None and rts is not None and rts > now:
            rts = None
        records = message.records if rts is not None and reporter != owner else ()
        prov_on = self._prov_on
        if prov_on:
            msg_id = message.msg_id
            if msg_id is None:
                msg_id = (reporter, created)
            fresh = (msg_id, rts if now is None else float(now))
            trace_claim = self._prov.trace_claim
        else:
            fresh = None
        reports = self._reports
        # A new reporter's dict is filed by its first valid record.
        mine = reports.get(reporter) or {}
        g_set = self._graph.set_transfer
        applied = first = superseded = redelivered = stale = 0
        # One pass over the records, one probe per record: admit, settle
        # stale / tie / newer for both directions from the one timestamp,
        # and leave when neither total moved.  Ingest is the write hot path
        # of every simulation and ~88 % of records only restate a total.
        for record in records:
            if not isinstance(record, HistoryRecord):
                continue
            c = record.counterparty
            try:
                rec = mine.get(c)  # also the hashability check
            except (TypeError, ValueError):
                continue
            if rec is not None and record is rec.wire:
                # The record the stored totals came from, re-sent: it was
                # admitted then and moves no total now, so only the
                # timestamp is settled (the same outcome as below).
                ets = rec.reported_at
                if ets > rts:
                    stale += 2
                elif ets == rts:
                    redelivered += 2
                else:
                    rec.reported_at = rts
                    superseded += 2
                    if prov_on:
                        rec.up_msg = rec.down_msg = fresh
                        rec.up_superseded += 1
                        rec.down_superseded += 1
                continue
            # The probe hashed ``c``; the totals are admitted here.
            totals = admitted_totals(record)
            if totals is None:
                continue
            up, down = totals
            if rec is None:
                if c == owner or c == reporter:
                    # Edges incident to the owner come from the private
                    # history only; a reporter has no edge to itself.  A
                    # stored record has passed this check already.
                    continue
                if not mine:
                    reports[reporter] = mine
                if prov_on:
                    rec = _LineageReport(up, down, rts, _wire(record), fresh)
                else:
                    rec = _Report(up, down, rts, _wire(record))
                mine[c] = rec
                first += 1
                up_moved = down_moved = True
            else:
                ets = rec.reported_at
                if ets > rts:
                    stale += 2
                    continue
                if ets == rts:
                    # Redelivered or reordered copy of an equal-timestamp
                    # message: the tie rule keeps the max value per direction,
                    # so the view is independent of arrival order (delivery
                    # idempotency).  Lineage moves only on a direction that won.
                    up_new = up > rec.uploaded
                    down_new = down > rec.downloaded
                    superseded += up_new + down_new
                    redelivered += 2 - up_new - down_new
                    if up_new or down_new:
                        rec.wire = None  # the totals may now mix two records
                else:
                    rec.reported_at = rts
                    rec.wire = _wire(record)
                    up_new = down_new = True
                    superseded += 2
                if prov_on:
                    # Lineage moves to the replacing — or merely
                    # confirming — message and counts every predecessor.
                    if up_new:
                        rec.up_msg = fresh
                        rec.up_superseded += 1
                    if down_new:
                        rec.down_msg = fresh
                        rec.down_superseded += 1
                up_moved = up_new and up != rec.uploaded
                down_moved = down_new and down != rec.downloaded
                if not (up_moved or down_moved):
                    continue  # fresher confirmation of the same totals
                if up_moved:
                    rec.uploaded = up
                if down_moved:
                    rec.downloaded = down
            # A total moved (~12 % of records): the edge is the max of this
            # claim and the counterparty's counter-claim, if it made one.
            # set_transfer registers both endpoints and no-ops on an unchanged
            # capacity (a claim below the other party's moves no version).
            theirs = reports.get(c)
            counter = theirs.get(reporter) if theirs is not None else None
            if up_moved:
                if prov_on:
                    trace_claim(
                        owner, reporter, c, reporter, rec.up_msg, rec.up_superseded
                    )
                value = rec.uploaded
                if counter is not None and counter.downloaded > value:
                    value = counter.downloaded
                g_set(reporter, c, value)
            if down_moved:
                if prov_on:
                    trace_claim(
                        owner, c, reporter, reporter, rec.down_msg, rec.down_superseded
                    )
                value = rec.downloaded
                if counter is not None and counter.uploaded > value:
                    value = counter.uploaded
                g_set(c, reporter, value)
            applied += 1
        if prov_on:
            recorded = 2 * first + superseded
            self._prov.fold(recorded, superseded, redelivered, stale)
        dropped = len(message.records) - applied
        self._records_applied += applied
        self._records_dropped += dropped
        if self._tr_merge is not None and self._tr_merge.sample():
            self._tr_merge.emit_sampled(
                "ingest",
                sim_time=created,
                attrs={
                    "owner": owner,
                    "reporter": reporter,
                    "records": len(message.records),
                    "applied": applied,
                },
            )
        return applied

    def _report(self, reporter: PeerId, counterparty: PeerId) -> Optional[_Report]:
        mine = self._reports.get(reporter)
        return None if mine is None else mine.get(counterparty)

    # ------------------------------------------------------------------
    def claim_of(self, reporter: PeerId, src: PeerId, dst: PeerId) -> Optional[float]:
        """``reporter``'s own live claim about edge ``(src, dst)``, if any."""
        if reporter == src:
            rec = self._report(src, dst)
            return None if rec is None else rec.uploaded
        rec = self._report(dst, src) if reporter == dst else None
        return None if rec is None else rec.downloaded

    def known_edges(self) -> Iterator[Tuple[PeerId, PeerId]]:
        """Directed pairs for which at least one claim is stored."""
        reports = self._reports
        for reporter, mine in reports.items():
            for c in mine:
                yield (reporter, c)
                # (c, reporter) is c's upload edge when c reported it too.
                if c not in reports or reporter not in reports[c]:
                    yield (c, reporter)

    def reporters(self) -> Set[PeerId]:
        """Every peer with at least one live claim in this view."""
        return set(self._reports)

    def forget_reporter(self, reporter: PeerId) -> int:
        """Drop all claims made by ``reporter``; returns how many claims were
        dropped: two per record, whether or not an edge value moved.

        Used by failure-injection tests and by future eviction policies.
        Each edge falls back to the counterparty's counter-claim (or to
        nothing), in the order of the reporter's records.
        """
        mine = self._reports.pop(reporter, None)
        if mine is None:
            return 0
        g_set = self._graph.set_transfer
        for c in mine:
            counter = self._report(c, reporter)
            g_set(reporter, c, 0.0 if counter is None else counter.downloaded)
            g_set(c, reporter, 0.0 if counter is None else counter.uploaded)
        changed = 2 * len(mine)
        if self._prov_on:
            self._prov.record_forget(self.owner, reporter, changed)
        return changed

    # ------------------------------------------------------------------
    @property
    def provenance_enabled(self) -> bool:
        """Whether live claims carry lineage records."""
        return self._prov_on

    def lineage_of(self, src: PeerId, dst: PeerId) -> Dict[PeerId, ClaimLineage]:
        """Lineage of every live claim about edge ``(src, dst)``.

        Keyed by reporter; empty when provenance is off or nothing is
        known about the pair.
        """
        out: Dict[PeerId, ClaimLineage] = {}
        if not self._prov_on:
            return out
        for reporter, rec, is_up in (
            (src, self._report(src, dst), True),
            (dst, self._report(dst, src), False),
        ):
            if rec is None:
                continue
            if is_up:
                (msg_id, received_at), n = rec.up_msg, rec.up_superseded
            else:
                (msg_id, received_at), n = rec.down_msg, rec.down_superseded
            out[reporter] = ClaimLineage(
                reporter=reporter,
                msg_id=msg_id,
                value=rec.uploaded if is_up else rec.downloaded,
                reported_at=rec.reported_at,
                received_at=received_at,
                hops=1,
                superseded=n,
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubjectiveSharedHistory owner={self.owner!r} "
            f"reporters={len(self._reports)} msgs={self._messages_seen}>"
        )
