"""Causal dissemination tracing: per-claim propagation DAGs.

BarterCast's premise is that pairwise gossip disseminates enough of the
transfer graph for subjective reputations to converge.  The metrics and
time-series legs report *that* coverage happened; this module records
*how* — which messages carried a claim where, how many redundant copies
were paid for, and which exact loss/churn event cut a peer off.

A :class:`DisseminationRecorder` collects the causal event log of one
simulation run: every message's envelope (``msg_id``, ``parent_id``,
``hops``, the sane records it carried) plus send / deliver / drop /
duplicate / delay / churn-wipe events in simulation order.  From the log
it derives:

* per-claim propagation DAGs (a *claim* is one ``(reporter,
  counterparty)`` record stream; its DAG is the union of the delivery
  edges of every message that carried it, chained by ``parent_id``),
* time-to-k%-coverage and hop-count distributions per claim,
* the redundancy factor (copies delivered per unique claim delivery),
* fault attribution for undelivered claims ("claim X never reached peer
  P because both candidate paths were cut by loss@t=412 and
  churn-offline@t=509"),
* a lineage replay (:meth:`DisseminationRecorder.replay_claims`) whose
  surviving values must match :class:`~repro.core.sharedhistory
  .SubjectiveSharedHistory` exactly — the auditor cross-check pinned by
  ``tests/test_dissemination.py``.

A :class:`DisseminationCollector` is the :class:`~repro.obs
.Observability` leg (a :class:`~repro.obs.legs.LabelledCollector`, like
the time-series one): export writes CSV + JSON beside the run manifest
byte-identically whether the run was serial or parallel.

Recording never consumes a simulation RNG stream and the hooks are
append-only, so a recording run is bit-identical to an unrecorded one
(pinned by ``tests/test_dissemination.py``).
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.obs.legs import LabelledCollector

__all__ = [
    "DISSEMINATION_FILENAME",
    "DISSEMINATION_SCHEMA",
    "DisseminationCollector",
    "DisseminationConfig",
    "DisseminationRecorder",
    "NULL_DISSEMINATION",
    "NullDisseminationCollector",
    "render_attribution",
]

DISSEMINATION_SCHEMA = "bartercast-dissemination/v1"
DISSEMINATION_FILENAME = "dissemination.json"

PeerId = Hashable
#: A claim is the record stream of one (reporter, counterparty) pair; it
#: covers both directed edges the record updates.
ClaimKey = Tuple[PeerId, PeerId]


def _json_safe(value):
    """JSON-safe projection of a peer/message id (provenance convention)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    return repr(value)


def _sort_key(value) -> str:
    """Deterministic order for heterogeneous peer ids."""
    return repr(value)


_INF = float("inf")
#: One C-level call extracting (counterparty, uploaded, downloaded) per
#: record; the intermediate tuples die immediately (net-zero effect on
#: the cyclic collector's allocation counter) while the *values* —
#: references to objects the records already own — land in the flat
#: column.  Measured against the alternatives: retaining the per-record
#: tuples instead keeps ~100k freshly-allocated tracked containers
#: alive (10x the collector runs, clearly slower end-to-end).
_GET_RECORD = attrgetter("counterparty", "uploaded", "downloaded")


@dataclass(frozen=True)
class DisseminationConfig:
    """Picklable recording parameters shipped to parallel workers.

    ``coverage_fractions`` are the k-coverage milestones reported per
    claim (time until k% of the eligible population first held it).
    """

    coverage_fractions: Tuple[float, ...] = (0.5, 0.9)


class DisseminationRecorder:
    """Causal event log + DAG analytics for one simulation run.

    The simulator calls the ``record_*`` hooks from the message path and
    the fault injectors; every hook is an O(1) append with no RNG use.
    Events carry a global sequence (their list index), so replay in list
    order is exactly simulation order even for same-timestamp events.
    """

    enabled = True

    def __init__(
        self, label: str = "run", config: Optional[DisseminationConfig] = None
    ) -> None:
        self.label = label
        self.config = config or DisseminationConfig()
        # Storage is columnar on purpose: every hook retains only atoms
        # (ints, floats, strings, ids) and atom-only tuples in persistent
        # lists / ``array``s.  Retaining anything GC-tracked per event —
        # the message, or its records tuple kept for lazy extraction —
        # leaves the cyclic collector's allocation counter in permanent
        # surplus (allocations minus deallocations) and promotes the
        # survivors through the generations, cascading into 10x the
        # collections of an unrecorded run (including full-heap ones)
        # that dwarf the actual bookkeeping cost; both designs measured
        # well over the recording overhead budget on a tiny run.  Record
        # payloads are therefore extracted eagerly, one attrgetter pass
        # per message — the cheapest extraction shape measured.
        #
        # Message registry: msg_id -> row index into the _msg_* columns;
        # message i's records occupy _rec_flat[_rec_off[i]:_rec_off[i+1]]
        # as flattened (counterparty, uploaded, downloaded) runs.  _msg_gdst
        # holds the receiver of a fused-path ("gossip") message — such
        # messages carry their single send+deliver event *in the
        # registry* instead of paying an event row (None for messages
        # whose events are explicit); _msg_gseq is the explicit-row count
        # at registration time, letting _iter_events re-interleave the
        # derived rows in exact hook order.
        self._msg_index: Dict[Hashable, int] = {}
        self._msg_sender: List[PeerId] = []
        self._msg_created = array("d")
        self._msg_parent: List[Hashable] = []
        self._msg_hops: List[int] = []
        self._msg_gdst: List[Optional[PeerId]] = []
        self._msg_gseq = array("l")
        self._rec_flat: List = []
        self._rec_off = array("l", [0])
        self._put_sender = self._msg_sender.append
        self._put_created = self._msg_created.append
        self._put_parent = self._msg_parent.append
        self._put_hops = self._msg_hops.append
        self._put_gdst = self._msg_gdst.append
        self._put_gseq = self._msg_gseq.append
        self._put_off = self._rec_off.append
        #: msg_id -> (sender, created_at, parent_id, hops, records) where
        #: records are the sane (counterparty, uploaded, downloaded)
        #: triples the receivers would apply.  Materialized on demand
        #: from the columns at analytics time.
        self._messages: Dict[Hashable, tuple] = {}
        # Event log: parallel columns of (kind, t, msg_id, src, dst,
        # detail) rows in simulation order.  Kinds: send, deliver, drop,
        # duplicate, delay, wipe, plus the fused "gossip" (= send +
        # same-instant deliver) emitted by the reliable direct path.
        self._ev_kind: List[str] = []
        self._ev_t = array("d")
        self._ev_mid: List[Hashable] = []
        self._ev_src: List[PeerId] = []
        self._ev_dst: List[PeerId] = []
        self._ev_detail: List[Optional[dict]] = []
        # Bound column appends, cached once: the hooks run per message at
        # gossip rates, where six attribute lookups per event are
        # measurable.  (Recorders are never pickled — snapshots cross
        # process boundaries as to_dict() payloads — so caching bound
        # methods is safe.)
        self._put_kind = self._ev_kind.append
        self._put_t = self._ev_t.append
        self._put_mid = self._ev_mid.append
        self._put_src = self._ev_src.append
        self._put_dst = self._ev_dst.append
        self._put_detail = self._ev_detail.append
        self._population: List[PeerId] = []
        # Derived views (claim index, claim_stats, to_dict), each stored
        # with the log lengths it was built from; see _cached.
        self._memo: Dict[str, tuple] = {}

    # -- wiring --------------------------------------------------------

    def set_population(self, peers: Sequence[PeerId]) -> None:
        """Declare the peer population (for coverage denominators)."""
        self._population = sorted(peers, key=_sort_key)

    @staticmethod
    def _mid(message) -> Hashable:
        mid = message.msg_id
        return mid if mid is not None else (message.sender, message.created_at)

    def _register(self, message) -> Hashable:
        # Inlined _mid: this runs on every hook call, so one less
        # method dispatch matters at gossip rates.
        mid = message.msg_id
        if mid is None:
            mid = (message.sender, message.created_at)
        index = self._msg_index
        if mid not in index:
            index[mid] = len(self._msg_sender)
            self._put_sender(message.sender)
            self._put_created(message.created_at)
            self._put_parent(message.parent_id)
            self._put_hops(message.hops)
            self._put_gdst(None)
            self._put_gseq(0)
            self._extract(message)
        return mid

    def _extract(self, message) -> None:
        flat = self._rec_flat
        off = len(flat)
        try:
            flat.extend(chain.from_iterable(map(_GET_RECORD, message.records)))
        except (TypeError, AttributeError):
            # Defensive parsing (mirrors sane_records): a malformed
            # record object must not crash the hot path.  A failing
            # extend may have appended a prefix — truncate first.
            del flat[off:]
            for r in message.sane_records():
                flat.append(r.counterparty)
                flat.append(r.uploaded)
                flat.append(r.downloaded)
        self._put_off(len(flat))

    def message_ids(self) -> List[Hashable]:
        """Every registered msg_id, in registration order."""
        return list(self._msg_index)

    def _entry(self, mid: Hashable) -> tuple:
        """Materialized (sender, created_at, parent_id, hops, records),
        records being the sane (counterparty, uploaded, downloaded)
        triples a receiver would apply."""
        entry = self._messages.get(mid)
        if entry is None:
            i = self._msg_index[mid]
            sender = self._msg_sender[i]
            triples = []
            it = iter(self._rec_flat[self._rec_off[i] : self._rec_off[i + 1]])
            for c, u, d in zip(it, it, it):
                try:
                    u = float(u)
                    d = float(d)
                except (TypeError, ValueError):
                    # Defensive parsing (mirrors sane_records): malformed
                    # totals are skipped, never raised.
                    continue
                # NaN fails >= 0.0, so this is exactly is_sane plus the
                # self-referential-counterparty filter.
                if c != sender and u >= 0.0 and d >= 0.0 and u != _INF and d != _INF:
                    triples.append((c, u, d))
            entry = (
                sender,
                self._msg_created[i],
                self._msg_parent[i],
                int(self._msg_hops[i]),
                tuple(triples),
            )
            self._messages[mid] = entry
        return entry

    def _materialize(self) -> Dict[Hashable, tuple]:
        """Ensure every registered message has a materialized entry."""
        if len(self._messages) != len(self._msg_index):
            for mid in self._msg_index:
                if mid not in self._messages:
                    self._entry(mid)
        return self._messages

    def _iter_events(self):
        """Event rows (kind, t, msg_id, src, dst, detail) in sim order.

        Merges the explicit event columns with the derived "gossip" rows
        of fused-path messages (those registered with a receiver in
        ``_msg_gdst`` instead of paying an event row): message *i*'s
        derived row is emitted just before explicit row ``_msg_gseq[i]``
        — the explicit-row count when the hook ran — which reproduces
        exactly the order the hooks were called in.
        """
        ev_kind = self._ev_kind
        ev_t = self._ev_t
        ev_mid = self._ev_mid
        ev_src = self._ev_src
        ev_dst = self._ev_dst
        ev_detail = self._ev_detail
        senders = self._msg_sender
        created = self._msg_created
        gdst = self._msg_gdst
        gseq = self._msg_gseq
        j = 0
        for mid, i in self._msg_index.items():
            dst = gdst[i]
            if dst is None:
                continue
            seq = gseq[i]
            while j < seq:
                yield (
                    ev_kind[j],
                    ev_t[j],
                    ev_mid[j],
                    ev_src[j],
                    ev_dst[j],
                    ev_detail[j],
                )
                j += 1
            yield ("gossip", created[i], mid, senders[i], dst, None)
        while j < len(ev_kind):
            yield (
                ev_kind[j],
                ev_t[j],
                ev_mid[j],
                ev_src[j],
                ev_dst[j],
                ev_detail[j],
            )
            j += 1

    def _append_event(self, kind, t, mid, src, dst, detail) -> None:
        self._put_kind(kind)
        self._put_t(t)
        self._put_mid(mid)
        self._put_src(src)
        self._put_dst(dst)
        self._put_detail(detail)

    # -- event hooks (simulation order matters; all O(1) appends) ------

    def record_send(self, message, receiver: PeerId, t: float) -> None:
        """A message left its sender toward ``receiver`` at sim-time ``t``."""
        mid = self._register(message)
        self._append_event("send", t, mid, message.sender, receiver, None)

    def record_gossip(self, message, receiver: PeerId, t: float) -> None:
        """Fused send + same-instant deliver for the reliable direct
        path, semantically identical to calling :meth:`record_send` then
        :meth:`record_deliver` (every analytics scan expands the
        "gossip" kind into both).  This is the hottest hook — every
        fault-free exchange — so the fast path pays *no event row at
        all*: the whole event is derivable from the registry (its time
        is the message's ``created_at``, its source the sender), so
        registering with the receiver in ``_msg_gdst`` is enough and
        :meth:`_iter_events` re-derives the row.  The derivation only
        holds when ``t == created_at`` and the message is new — any
        other call (foreign drivers, re-gossip) takes the explicit-row
        fallback."""
        mid = message.msg_id
        if mid is None:
            mid = (message.sender, message.created_at)
        index = self._msg_index
        if mid not in index and t == message.created_at:
            index[mid] = len(self._msg_sender)
            self._put_sender(message.sender)
            self._put_created(t)
            self._put_parent(message.parent_id)
            self._put_hops(message.hops)
            self._put_gdst(receiver)
            self._put_gseq(len(self._ev_kind))
            self._extract(message)
            return
        self._register(message)
        self._put_kind("gossip")
        self._put_t(t)
        self._put_mid(mid)
        self._put_src(message.sender)
        self._put_dst(receiver)
        self._put_detail(None)

    def record_plan(
        self, message, receiver: PeerId, t: float, times: Sequence[float]
    ) -> None:
        """The channel planned ``len(times)`` copies (duplicate/delay events)."""
        mid = self._register(message)
        if len(times) > 1:
            self._append_event(
                "duplicate", t, mid, message.sender, receiver, {"copies": len(times)}
            )
        for copy, deliver_at in enumerate(times):
            delay = float(deliver_at) - float(t)
            if delay > 0.0:
                self._append_event(
                    "delay",
                    t,
                    mid,
                    message.sender,
                    receiver,
                    {"copy": copy, "delay": delay},
                )

    def record_drop(
        self,
        message,
        receiver: PeerId,
        t: float,
        cause: str,
        copy: int = 0,
        delay: float = 0.0,
    ) -> None:
        """A copy was cut: ``cause`` is loss / unconnectable /
        offline / churn-offline (copy ``copy``, delayed by ``delay``)."""
        mid = self._register(message)
        detail = {"cause": cause}
        if copy:
            detail["copy"] = copy
        if delay:
            detail["delay"] = float(delay)
        self._append_event("drop", t, mid, message.sender, receiver, detail)

    def record_deliver(
        self, message, receiver: PeerId, t: float, copy: int = 0
    ) -> None:
        """Copy ``copy`` of a message was ingested by ``receiver``."""
        mid = self._register(message)
        detail = {"copy": copy} if copy else None
        self._append_event("deliver", t, mid, message.sender, receiver, detail)

    def record_wipe(self, peer: PeerId, t: float) -> None:
        """``peer`` hard-restarted and wiped its gossip-learned claims."""
        self._append_event("wipe", t, None, None, peer, None)

    # -- DAG / claim queries -------------------------------------------

    def message(self, msg_id: Hashable) -> Optional[dict]:
        """Envelope + payload of one registered message."""
        if msg_id not in self._msg_index:
            return None
        sender, created_at, parent_id, hops, records = self._entry(msg_id)
        return {
            "msg_id": msg_id,
            "sender": sender,
            "created_at": created_at,
            "parent_id": parent_id,
            "hops": hops,
            "records": records,
        }

    def claims(self) -> List[ClaimKey]:
        """Every (reporter, counterparty) claim any message carried."""
        seen: Set[ClaimKey] = set()
        for sender, _, _, _, records in self._materialize().values():
            for counterparty, _, _ in records:
                seen.add((sender, counterparty))
        return sorted(seen, key=lambda c: (_sort_key(c[0]), _sort_key(c[1])))

    def _cached(self, name: str, build):
        """``build()``, rebuilt only after the log grew.  The post-run
        consumers (manifest summary, export, the worker boundary) all read
        the same finished log; callers treat the result as read-only.

        The cyclic collector is paused for the build: the views are
        millions of acyclic atom-only tuples and sets that all survive, so
        the generational passes they trigger (over the whole simulation's
        heap, again and again) find nothing and cost up to two thirds of
        the build.
        """
        key = (len(self._msg_index), len(self._ev_kind), len(self._population))
        hit = self._memo.get(name)
        if hit is None or hit[0] != key:
            paused = gc.isenabled()
            gc.disable()
            try:
                hit = self._memo[name] = (key, build())
            finally:
                if paused:
                    gc.enable()
        return hit[1]

    def _claim_messages(self) -> Dict[ClaimKey, Set[Hashable]]:
        """claim -> msg_ids that carried it."""
        return self._cached("claim_messages", self._build_claim_messages)

    def _build_claim_messages(self) -> Dict[ClaimKey, Set[Hashable]]:
        out: Dict[ClaimKey, Set[Hashable]] = {}
        for mid, (sender, _, _, _, records) in self._materialize().items():
            for counterparty, _, _ in records:
                claim = (sender, counterparty)
                mids = out.get(claim)
                if mids is None:
                    out[claim] = {mid}
                else:
                    mids.add(mid)
        return out

    def claim_dag(self, claim: ClaimKey) -> dict:
        """The propagation DAG of one claim.

        Nodes are the messages that carried the claim; ``spine`` edges
        chain each message to its causal parent (the sender's previous
        message, when that one also carried the claim), ``delivery``
        edges are the realized sender→receiver deliveries.
        """
        mids = self._claim_messages().get(claim, set())
        nodes = sorted(mids, key=_sort_key)
        spine = [
            (self._entry(m)[2], m)
            for m in nodes
            if self._entry(m)[2] in mids
        ]
        deliveries = [
            (mid, dst, t)
            for kind, t, mid, _, dst, _ in self._iter_events()
            if kind in ("deliver", "gossip") and mid in mids
        ]
        return {"claim": claim, "messages": nodes, "spine": spine, "deliveries": deliveries}

    # -- analytics ------------------------------------------------------

    def _eligible(self, claim: ClaimKey) -> List[PeerId]:
        """Receivers that could hold ``claim``: everyone except the
        reporter (never ingests its own message) and the counterparty
        (records about the owner are rejected)."""
        reporter, counterparty = claim
        return [p for p in self._population if p not in (reporter, counterparty)]

    def claim_stats(self) -> List[dict]:
        """Per-claim coverage/redundancy digest, deterministically ordered."""
        return self._cached("claim_stats", self._build_claim_stats)

    def _build_claim_stats(self) -> List[dict]:
        claim_msgs = self._claim_messages()
        first: Dict[ClaimKey, Dict[PeerId, float]] = {}
        copies: Dict[ClaimKey, int] = {}
        mid_claims: Dict[Hashable, List[ClaimKey]] = {}
        for claim, mids in claim_msgs.items():
            for mid in mids:
                mid_claims.setdefault(mid, []).append(claim)
        for kind, t, mid, _, dst, _ in self._iter_events():
            if kind != "deliver" and kind != "gossip":
                continue
            for claim in mid_claims.get(mid, ()):
                # Deliveries to the claim's own parties don't count: the
                # reporter never ingests its own record and records about
                # the receiver are rejected on ingest.
                if dst == claim[1] or dst == claim[0]:
                    continue
                copies[claim] = copies.get(claim, 0) + 1
                per = first.setdefault(claim, {})
                if dst not in per:
                    per[dst] = t
        stats = []
        for claim in self.claims():
            eligible = self._eligible(claim)
            reached = first.get(claim, {})
            times = sorted(reached.values())
            entry = {
                "claim": [_json_safe(claim[0]), _json_safe(claim[1])],
                "eligible": len(eligible),
                "reached": len(reached),
                "copies": copies.get(claim, 0),
                "first_t": times[0] if times else None,
            }
            if reached:
                entry["redundancy"] = copies.get(claim, 0) / len(reached)
            for frac in self.config.coverage_fractions:
                need = max(1, int(round(frac * len(eligible)))) if eligible else 0
                key = f"t{int(round(frac * 100))}"
                entry[key] = (
                    times[need - 1] if need and len(times) >= need else None
                )
            stats.append(entry)
        return stats

    def hop_histogram(self) -> Dict[str, int]:
        """Delivered-message counts by envelope hop count."""
        hist: Dict[str, int] = {}
        for kind, _, mid, _, _, _ in self._iter_events():
            if kind == "deliver" or kind == "gossip":
                key = str(self._entry(mid)[3])
                hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items()))

    def redundancy_factor(self) -> Optional[float]:
        """Copies delivered per unique (claim, receiver) delivery."""
        stats = self.claim_stats()
        unique = sum(s["reached"] for s in stats)
        if not unique:
            return None
        return sum(s["copies"] for s in stats) / unique

    # -- lineage replay (the auditor cross-check) ----------------------

    def replay_claims(self, receiver: PeerId) -> Dict[tuple, float]:
        """Replay ``receiver``'s deliveries and wipes in simulation order.

        Returns the surviving ``(reporter, src, dst) -> value`` claims
        under the shared history's supersede semantics (newer
        ``created_at`` wins; equal timestamps keep the max value).  Must
        match ``SubjectiveSharedHistory`` exactly — any divergence means
        the event log is incomplete.
        """
        return self._replay(receiver, self._iter_events())

    def _replay(self, receiver: PeerId, rows) -> Dict[tuple, float]:
        """:meth:`replay_claims` over ``rows`` (the whole log, or the rows
        a caller already bucketed by receiver)."""
        state: Dict[tuple, Tuple[float, float]] = {}
        for kind, _, mid, _, dst, _ in rows:
            if dst != receiver:
                continue
            if kind == "wipe":
                state.clear()
                continue
            if kind != "deliver" and kind != "gossip":
                continue
            reporter, created_at, _, _, records = self._entry(mid)
            for counterparty, uploaded, downloaded in records:
                if counterparty == receiver or reporter == receiver:
                    continue
                for src, dsn, value in (
                    (reporter, counterparty, uploaded),
                    (counterparty, reporter, downloaded),
                ):
                    key = (reporter, src, dsn)
                    cur = state.get(key)
                    if (
                        cur is None
                        or created_at > cur[0]
                        or (created_at == cur[0] and value > cur[1])
                    ):
                        state[key] = (created_at, value)
        return {key: ts_value[1] for key, ts_value in state.items()}

    # -- fault attribution ---------------------------------------------

    def explain_missing(
        self,
        receiver: Optional[PeerId] = None,
        claim: Optional[ClaimKey] = None,
    ) -> List[dict]:
        """Attribution entries for claims that were attempted toward a
        receiver but never survived there.

        Each entry names the exact fault events that cut the candidate
        paths (``loss@t=412.0``) or erased a delivered copy
        (``churn-wipe@t=509.0``).  Restricted to (claim, receiver) pairs
        with at least one send attempt — pairs the gossip schedule never
        targeted carry no fault to attribute.
        """
        claim_msgs = self._claim_messages()
        entries: List[dict] = []
        claims = [claim] if claim is not None else self.claims()
        survivors: Dict[PeerId, Set[ClaimKey]] = {}
        # Event rows bucketed by receiver, in log order: one pass here, so
        # each missing pair scans only its own receiver's rows.
        rows_to: Dict[PeerId, List[tuple]] = {}
        for row in self._iter_events():
            rows_to.setdefault(row[4], []).append(row)
        for ck in claims:
            mids = claim_msgs.get(ck, set())
            receivers = (
                [receiver] if receiver is not None else self._eligible(ck)
            )
            for p in receivers:
                if p in (ck[0], ck[1]):
                    continue
                if p not in survivors:
                    alive: Set[ClaimKey] = set()
                    for rep, src, dsn in self._replay(p, rows_to.get(p, ())):
                        alive.add((rep, dsn if src == rep else src))
                    survivors[p] = alive
                if ck in survivors[p]:
                    continue
                attempts = 0
                cut: List[str] = []
                delivered: List[float] = []
                wipes: List[float] = []
                for kind, t, mid, _, _, detail in rows_to.get(p, ()):
                    if kind == "wipe":
                        wipes.append(t)
                        continue
                    if mid not in mids:
                        continue
                    if kind == "send":
                        attempts += 1
                    elif kind == "drop":
                        cut.append(f"{detail['cause']}@t={t:g}")
                    elif kind == "deliver":
                        delivered.append(t)
                    elif kind == "gossip":
                        attempts += 1
                        delivered.append(t)
                if attempts == 0:
                    continue
                wiped_after = [
                    f"churn-wipe@t={w:g}"
                    for w in wipes
                    if delivered and w >= min(delivered)
                ]
                entries.append(
                    {
                        "claim": [_json_safe(ck[0]), _json_safe(ck[1])],
                        "receiver": _json_safe(p),
                        "attempts": attempts,
                        "cut_by": cut,
                        "wiped_by": wiped_after,
                        "delivered_at": delivered,
                    }
                )
        return entries

    # -- snapshots ------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _, _, _, _, detail in self._iter_events():
            if kind == "gossip":
                counts["send"] = counts.get("send", 0) + 1
                counts["deliver"] = counts.get("deliver", 0) + 1
                continue
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "drop" and detail and detail.get("cause"):
                key = f"drop.{detail['cause']}"
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """Small JSON-safe digest for the run manifest."""
        stats = self.claim_stats()
        reached = [s for s in stats if s["reached"]]
        out = {
            "label": self.label,
            "population": len(self._population),
            "messages": len(self._msg_index),
            "claims": len(stats),
            "claims_reached": len(reached),
            "events": self.event_counts(),
            "hop_histogram": self.hop_histogram(),
        }
        rf = self.redundancy_factor()
        if rf is not None:
            out["redundancy_factor"] = rf
        return out

    def to_dict(self) -> dict:
        """JSON-safe snapshot: digest + per-claim stats + attributions.

        This is what crosses the worker boundary and what export
        serializes, so it must be deterministic for a given event log —
        and is built once per finished log.
        """
        return self._cached(
            "to_dict",
            lambda: {
                "schema": DISSEMINATION_SCHEMA,
                "label": self.label,
                "summary": self.summary(),
                "claims": self.claim_stats(),
                "undelivered": self.explain_missing(),
            },
        )


def render_attribution(entry: dict) -> str:
    """One attribution entry as the sentence the report/CLI print."""
    claim = entry["claim"]
    head = f"claim ({claim[0]}->{claim[1]}) never reached peer {entry['receiver']}"
    causes = list(entry.get("cut_by", [])) + list(entry.get("wiped_by", []))
    if entry.get("delivered_at") and entry.get("wiped_by"):
        head = (
            f"claim ({claim[0]}->{claim[1]}) was erased at peer "
            f"{entry['receiver']}"
        )
    if causes:
        paths = entry.get("attempts", len(causes))
        return (
            f"{head}: the {paths} candidate path(s) were cut by "
            + ", ".join(causes)
        )
    return f"{head} ({entry.get('attempts', 0)} attempt(s), cause unrecorded)"


_CSV_COLUMNS = ("reporter", "counterparty", "eligible", "reached", "copies", "first_t")


class DisseminationCollector(LabelledCollector):
    """The Observability leg: recording config + one snapshot per run."""

    note = "dissemination"
    config_type = DisseminationConfig
    schema = DISSEMINATION_SCHEMA
    filename = DISSEMINATION_FILENAME
    prefix = "dissemination"

    def summary(self) -> dict:
        """Manifest digest: one entry per recorded run."""
        return {
            "coverage_fractions": list(self.config.coverage_fractions),
            "runs": [snap["summary"] for snap in self._merged]
            + [r.summary() for r in self._recorders],
        }

    def _csv_lines(self, snap: dict) -> List[str]:
        frac_cols = [
            f"t{int(round(f * 100))}" for f in self.config.coverage_fractions
        ]
        lines = [",".join(_CSV_COLUMNS + tuple(frac_cols))]
        for entry in snap.get("claims", []):
            cells = [
                str(entry["claim"][0]),
                str(entry["claim"][1]),
                str(entry["eligible"]),
                str(entry["reached"]),
                str(entry["copies"]),
            ]
            for col in ["first_t"] + frac_cols:
                value = entry.get(col)
                cells.append("" if value is None else repr(float(value)))
            lines.append(",".join(cells))
        return lines


class NullDisseminationCollector(DisseminationCollector):
    """Disabled collector: simulators skip recorder setup entirely."""

    enabled = False


#: Shared disabled collector (the :data:`repro.obs.NULL_OBS` leg).
NULL_DISSEMINATION = NullDisseminationCollector()
