"""Causal dissemination tracing: how each claim spread, and what cut it.

BarterCast's premise is that pairwise gossip disseminates enough of the
transfer graph for subjective reputations to converge.  The metrics and
time-series legs report *that* coverage happened; this module records
*how* — which messages carried a claim where, how many redundant copies
were paid for, and which exact loss/churn event cut a peer off.

A :class:`DisseminationRecorder` collects the causal event log of one
simulation run: every message (``msg_id``, sender, ``created_at``,
``hops`` and the records it carried) plus send / deliver / drop /
duplicate / delay / churn-wipe events in simulation order.  A *claim*
is one ``(reporter, counterparty)`` record stream.  From the log it
derives, each in one post-run pass:

* time-to-k%-coverage, copies and hop-count distributions per claim,
* the redundancy factor (copies delivered per unique claim delivery),
* fault attribution for undelivered claims ("claim X never reached peer
  P because both candidate paths were cut by loss@t=412 and
  churn-offline@t=509").

The log is complete: replaying a peer's deliveries and wipes under the
shared history's supersede rule gives exactly that peer's view.
``tests/test_dissemination.py`` pins this by feeding a copy of a run's
hook calls to the reference model (``tests/model.py``) and comparing its
replay with every node.

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
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import inf, nan
from numbers import Real
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

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


def _claim_order(claim: ClaimKey) -> Tuple[str, str]:
    return (_sort_key(claim[0]), _sort_key(claim[1]))


#: Row kinds that expand to a delivered copy ("gossip" = send + deliver).
_DELIVERED = ("deliver", "gossip")


@dataclass(frozen=True)
class DisseminationConfig:
    """Picklable recording parameters shipped to parallel workers.

    ``coverage_fractions`` are the k-coverage milestones reported per
    claim (time until k% of the eligible population first held it).
    """

    coverage_fractions: Tuple[float, ...] = (0.5, 0.9)


class DisseminationRecorder:
    """Causal event log + claim analytics for one simulation run.

    The simulator calls the ``record_*`` hooks from the message path and
    the fault injectors; every hook is an O(1) append with no RNG use.
    Events carry a global sequence (their list index), so replay in list
    order is exactly simulation order even for same-timestamp events.

    Every analytic is one pass over the log that builds only its own
    output; nothing derived from the log is kept between calls except the
    finished ``claim_stats`` and ``to_dict`` views (see :meth:`_cached`).
    """

    enabled = True

    def __init__(
        self, label: str = "run", config: Optional[DisseminationConfig] = None
    ) -> None:
        # Imported here: repro.core imports repro.obs.
        from repro.core.messages import HistoryRecord, admitted_totals

        self.label = label
        self.config = config or DisseminationConfig()
        self._record_type = HistoryRecord
        self._admitted = admitted_totals
        # Storage is columnar, and no hook allocates a container that the
        # log keeps: retaining a fresh GC-tracked object per event (the
        # message, its records tuple, a tuple per record) leaves the
        # cyclic collector's allocation counter in permanent surplus, and
        # the survivors promoted through the generations cascade into 10x
        # the collections of an unrecorded run.  Records are kept by
        # reference instead: select_records hands out one frozen
        # HistoryRecord per counterparty and *replaces* it when a total
        # moves, so a reference is the send-time value, one slot wide, and
        # allocates nothing.  A message holding any other object (a
        # subclass, a look-alike — either could change after the send) is
        # snapshotted at send time; see _extract.
        #
        # Message registry: msg_id -> row index into the _msg_* columns
        # (_row); message i's records are _records[_rec_off[i]:_rec_off[i+1]].
        # A sender-sequenced id — (sender, k), k an exact int and the next
        # number in that sender's run, as create_message stamps every id —
        # is filed as row _seq_rows[sender][k - 1], so neither the id nor
        # its int outlives the message; every other id (None, foreign,
        # gapped, repeated) is a key of _msg_index.
        # _msg_gdst holds the receiver of a fused-path ("gossip") message
        # — such messages carry their single send+deliver event *in the
        # registry* instead of paying an event row (None for messages
        # whose events are explicit); _msg_gseq is the explicit-row count
        # at registration time, letting _in_order re-interleave the
        # derived rows in exact hook order.
        self._seq_rows: Dict[PeerId, array] = {}
        self._msg_index: Dict[Hashable, int] = {}
        self._msg_sender: List[PeerId] = []
        self._msg_created = array("d")
        self._msg_hops: List[int] = []
        self._msg_gdst: List[Optional[PeerId]] = []
        self._msg_gseq = array("l")
        self._records: List = []
        self._rec_off = array("l", [0])
        self._put_sender = self._msg_sender.append
        self._put_created = self._msg_created.append
        self._put_hops = self._msg_hops.append
        self._put_gdst = self._msg_gdst.append
        self._put_gseq = self._msg_gseq.append
        self._put_off = self._rec_off.append
        # Event log: parallel columns of (kind, t, msg_id, dst, detail)
        # rows in simulation order.  Kinds: send, deliver, drop,
        # duplicate, delay, wipe, plus the fused "gossip" (= send +
        # same-instant deliver) emitted by the reliable direct path.
        self._ev_kind: List[str] = []
        self._ev_t = array("d")
        self._ev_mid: List[Hashable] = []
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
        self._put_dst = self._ev_dst.append
        self._put_detail = self._ev_detail.append
        self._population: List[PeerId] = []
        # The finished claim_stats / to_dict views, each stored with the
        # log lengths it was built from; see _cached.
        self._memo: Dict[str, tuple] = {}

    # -- wiring --------------------------------------------------------

    def set_population(self, peers: Sequence[PeerId]) -> None:
        """Declare the peer population (for coverage denominators)."""
        self._population = sorted(peers, key=_sort_key)

    def _row(self, mid: Hashable) -> Optional[int]:
        """The registry row of message ``mid``, or ``None``.  An id equal
        to a filed one is the same message, as for a dict key:
        ``(s, True)`` and ``(s, 1.0)`` find ``(s, 1)``."""
        if isinstance(mid, tuple) and len(mid) == 2:
            rows = self._seq_rows.get(mid[0])
            if rows is not None:
                k = mid[1]
                if type(k) is not int:
                    # The int it equals (True -> 1, 2.0 -> 2), else 0.
                    try:
                        k = int(k) if int(k) == k else 0
                    except (TypeError, ValueError, OverflowError):
                        k = 0
                if 0 < k <= len(rows):
                    return rows[k - 1]
        return self._msg_index.get(mid)

    def _file(self, message, mid: Hashable, gdst, gseq: int) -> None:
        """Register unfiled message ``mid`` as the next row."""
        row = len(self._msg_sender)
        sender = message.sender
        seq = self._seq_rows
        k = None
        if isinstance(mid, tuple) and len(mid) == 2 and mid[0] == sender:
            k = mid[1]
        if type(k) is int and k == len(seq.get(sender, ())) + 1:
            if k == 1:
                seq[sender] = array("l")
            seq[sender].append(row)
        else:
            self._msg_index[mid] = row
        created = message.created_at
        if created.__class__ is not float:
            # A forged envelope: a creation time that is not a finite
            # real is stored as NaN.
            try:
                created = float(created) if isinstance(created, Real) else nan
            except (OverflowError, TypeError, ValueError):
                created = nan
        hops = message.hops
        self._put_sender(sender)
        self._put_created(created if -inf < created < inf else nan)
        # A hop count that is not a non-negative int is kept as None.
        self._put_hops(hops if hops.__class__ is int and hops >= 0 else None)
        self._put_gdst(gdst)
        self._put_gseq(gseq)
        self._extract(message)

    @staticmethod
    def _key(message) -> Hashable:
        """The id ``message`` is filed under: its ``msg_id``, or — with
        none, or one the registry cannot hash — ``(sender, created_at)``,
        with the creation time as :meth:`_file` stores it (NaN) when even
        that cannot be hashed."""
        mid = message.msg_id
        if mid is not None:
            try:
                hash(mid)
                return mid
            except (TypeError, ValueError):
                pass
        mid = (message.sender, message.created_at)
        try:
            hash(mid)
        except (TypeError, ValueError):
            mid = (message.sender, nan)
        return mid

    def _register(self, message) -> Hashable:
        mid = self._key(message)
        if self._row(mid) is None:
            self._file(message, mid, None, 0)
        return mid

    def _extract(self, message) -> None:
        """Store ``message``'s records: by reference when every one is
        exactly a ``HistoryRecord`` (every message the simulator sends),
        else as a send-time snapshot — each ``HistoryRecord`` (subclass)
        copied to an exact one, anything else left out, since no receiver
        applies it.  Validity is decided when the log is read (:meth:`_sane`)."""
        records = message.records
        exact = self._record_type
        for r in records:
            if type(r) is not exact:
                break
        else:
            self._records.extend(records)
            self._put_off(len(self._records))
            return
        for r in records:
            if isinstance(r, exact):
                self._records.append(exact(r.counterparty, r.uploaded, r.downloaded))
        self._put_off(len(self._records))

    def _sane(self, i: int) -> list:
        """Message ``i``'s records a receiver applies, in message order:
        a hashable counterparty that is not the sender, and totals that
        :func:`~repro.core.messages.admitted_totals` admits — the
        receivers' own rule."""
        sender = self._msg_sender[i]
        admitted = self._admitted
        out = []
        for r in self._records[self._rec_off[i] : self._rec_off[i + 1]]:
            c = r.counterparty
            try:
                hash(c)
            except (TypeError, ValueError):
                continue
            if admitted(r) is not None and c != sender:
                out.append(r)
        return out

    def _counterparties(self, i: int) -> Dict[PeerId, None]:
        """The claims message ``i`` carries, as its distinct sane
        counterparties (a claim counts once per message)."""
        return dict.fromkeys([r.counterparty for r in self._sane(i)])

    def _in_order(self, rows: Sequence[int], fused) -> Iterator[int]:
        """Explicit event rows ``rows`` and fused-path messages ``fused``
        (both ascending) merged in hook order: message *i*'s derived row
        comes just before explicit row ``_msg_gseq[i]`` — the explicit-row
        count when its hook ran.  Yields ``j`` for explicit row *j* and
        ``~i`` (negative) for message *i*'s derived row."""
        gseq = self._msg_gseq
        k, n = 0, len(rows)
        for i in fused:
            seq = gseq[i]
            while k < n and rows[k] < seq:
                yield rows[k]
                k += 1
            yield ~i
        yield from islice(rows, k, None)

    def _fused(self) -> Iterator[int]:
        """Every fused-path message, ascending."""
        return (i for i, dst in enumerate(self._msg_gdst) if dst is not None)

    def _rows_to(self, receivers) -> Dict[PeerId, tuple]:
        """``receiver -> (explicit rows, fused messages)`` addressed to it,
        both ascending, for each of ``receivers``: one pass per column."""
        rows = {p: array("l") for p in receivers}
        fused = {p: array("l") for p in receivers}
        for j, dst in enumerate(self._ev_dst):
            bucket = rows.get(dst)
            if bucket is not None:
                bucket.append(j)
        for i, dst in enumerate(self._msg_gdst):
            if dst is not None:
                bucket = fused.get(dst)
                if bucket is not None:
                    bucket.append(i)
        return {p: (rows[p], fused[p]) for p in rows}

    def _deliveries(self) -> Iterator[Tuple[int, float, PeerId]]:
        """``(message index, t, receiver)`` of every delivered copy, in
        sim order."""
        kinds = self._ev_kind
        row = self._row
        created = self._msg_created
        gdst = self._msg_gdst
        for code in self._in_order(range(len(kinds)), self._fused()):
            if code < 0:
                i = ~code
                yield i, created[i], gdst[i]
            elif kinds[code] in _DELIVERED:
                yield row(self._ev_mid[code]), self._ev_t[code], self._ev_dst[code]

    def _append_event(self, kind, t, mid, dst, detail) -> None:
        self._put_kind(kind)
        self._put_t(t)
        self._put_mid(mid)
        self._put_dst(dst)
        self._put_detail(detail)

    # -- event hooks (simulation order matters; all O(1) appends) ------

    def record_send(self, message, receiver: PeerId, t: float) -> None:
        """A message left its sender toward ``receiver`` at sim-time ``t``."""
        mid = self._register(message)
        self._append_event("send", t, mid, receiver, None)

    def record_gossip(self, message, receiver: PeerId, t: float) -> None:
        """Fused send + same-instant deliver for the reliable direct
        path, semantically identical to calling :meth:`record_send` then
        :meth:`record_deliver` (every analytics scan expands the
        "gossip" kind into both).  This is the hottest hook — every
        fault-free exchange — so the fast path pays *no event row at
        all*: the whole event is derivable from the registry (its time
        is the message's ``created_at``, its source the sender), so
        registering with the receiver in ``_msg_gdst`` is enough and
        :meth:`_in_order` re-derives the row.  The derivation only
        holds when ``t == created_at`` and the message is new — any
        other call (foreign drivers, re-gossip) takes the explicit-row
        fallback."""
        mid = self._key(message)
        created = message.created_at
        real = created.__class__ is float or isinstance(created, Real)
        if real and t == created and self._row(mid) is None:
            self._file(message, mid, receiver, len(self._ev_kind))
            return
        self._register(message)
        self._put_kind("gossip")
        self._put_t(t)
        self._put_mid(mid)
        self._put_dst(receiver)
        self._put_detail(None)

    def record_plan(
        self, message, receiver: PeerId, t: float, times: Sequence[float]
    ) -> None:
        """The channel planned ``len(times)`` copies (duplicate/delay events)."""
        mid = self._register(message)
        if len(times) > 1:
            self._append_event("duplicate", t, mid, receiver, {"copies": len(times)})
        for copy, deliver_at in enumerate(times):
            delay = float(deliver_at) - float(t)
            if delay > 0.0:
                self._append_event(
                    "delay", t, mid, receiver, {"copy": copy, "delay": delay}
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
        """A copy was cut: ``cause`` is loss / offline / churn-offline
        (copy ``copy``, delayed by ``delay``)."""
        mid = self._register(message)
        detail = {"cause": cause}
        if copy:
            detail["copy"] = copy
        if delay:
            detail["delay"] = float(delay)
        self._append_event("drop", t, mid, receiver, detail)

    def record_deliver(
        self, message, receiver: PeerId, t: float, copy: int = 0
    ) -> None:
        """Copy ``copy`` of a message was ingested by ``receiver``."""
        mid = self._register(message)
        detail = {"copy": copy} if copy else None
        self._append_event("deliver", t, mid, receiver, detail)

    def record_wipe(self, peer: PeerId, t: float) -> None:
        """``peer`` hard-restarted and wiped its gossip-learned claims."""
        self._append_event("wipe", t, None, peer, None)

    def _cached(self, name: str, build):
        """``build()``, rebuilt only after the log grew.  The post-run
        consumers (manifest summary, export, the worker boundary) all read
        the same finished log; callers treat the result as read-only.

        The cyclic collector is paused for the build: its accumulators
        and output are acyclic containers that live until it ends, so the
        generational passes they trigger (over the whole simulation's
        heap, again and again) find nothing — a fifth of ``to_dict()`` on
        a faulted fig1 ``fast`` log.
        """
        key = (len(self._msg_sender), len(self._ev_kind), len(self._population))
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

    # -- analytics ------------------------------------------------------

    def claim_stats(self) -> List[dict]:
        """Per-claim coverage/redundancy digest, deterministically ordered."""
        return self._cached("claim_stats", self._build_claim_stats)

    def _build_claim_stats(self) -> List[dict]:
        senders = self._msg_sender
        # claim -> [copies, {receiver: first delivery time}]: every claim
        # any message carried, then each delivered copy in sim order.
        acc: Dict[ClaimKey, list] = {}
        for i, reporter in enumerate(senders):
            for c in self._counterparties(i):
                if (reporter, c) not in acc:
                    acc[(reporter, c)] = [0, {}]
        for i, t, dst in self._deliveries():
            reporter = senders[i]
            if dst == reporter:
                continue  # the reporter never ingests its own record
            for c in self._counterparties(i):
                if c == dst:
                    continue  # records about the receiver are rejected
                entry = acc[(reporter, c)]
                entry[0] += 1
                if dst not in entry[1]:
                    entry[1][dst] = t
        population = Counter(self._population)
        size = len(self._population)
        stats = []
        for claim in sorted(acc, key=_claim_order):
            copies, first = acc[claim]
            # Everyone but the reporter (never ingests its own message) and
            # the counterparty (records about the receiver are rejected).
            eligible = size - population[claim[0]] - population[claim[1]]
            times = sorted(first.values())
            entry = {
                "claim": [_json_safe(claim[0]), _json_safe(claim[1])],
                "eligible": eligible,
                "reached": len(first),
                "copies": copies,
                "first_t": times[0] if times else None,
            }
            if first:
                entry["redundancy"] = copies / len(first)
            for frac in self.config.coverage_fractions:
                need = max(1, int(round(frac * eligible))) if eligible else 0
                entry[f"t{int(round(frac * 100))}"] = (
                    times[need - 1] if need and len(times) >= need else None
                )
            stats.append(entry)
        return stats

    def hop_histogram(self) -> Dict[str, int]:
        """Delivered-message counts by envelope hop count."""
        hops = self._msg_hops
        row = self._row
        counts = Counter(hops[i] for i in self._fused())
        counts.update(
            hops[row(mid)]
            for kind, mid in zip(self._ev_kind, self._ev_mid)
            if kind in _DELIVERED
        )
        return dict(sorted(("invalid" if h is None else str(h), n) for h, n in counts.items()))

    def redundancy_factor(self) -> Optional[float]:
        """Copies delivered per unique (claim, receiver) delivery."""
        stats = self.claim_stats()
        unique = sum(s["reached"] for s in stats)
        if not unique:
            return None
        return sum(s["copies"] for s in stats) / unique

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
        targeted carry no fault to attribute.  Ordered by claim, then by
        receiver in population order.
        """
        receivers = [receiver] if receiver is not None else self._population
        by_receiver = {
            p: self._missing_at(p, rows, fused, claim)
            for p, (rows, fused) in self._rows_to(receivers).items()
        }
        keyed = [
            ((_claim_order(ck), position), entry)
            for position, p in enumerate(receivers)
            for ck, entry in by_receiver[p].items()
        ]
        keyed.sort(key=lambda pair: pair[0])
        return [entry for _, entry in keyed]

    def _missing_at(self, p, rows, fused, only: Optional[ClaimKey]) -> Dict[ClaimKey, dict]:
        """claim -> attribution entry for receiver ``p``, from its rows."""
        kinds = self._ev_kind
        row = self._row
        senders = self._msg_sender
        created = self._msg_created
        # claim -> [attempts, cut_by, delivered_at, wipes seen at the last
        # delivery]; a claim survives iff delivered after the last wipe.
        acc: Dict[ClaimKey, list] = {}
        wipes: List[float] = []
        for code in self._in_order(rows, fused):
            if code < 0:
                i, kind, t = ~code, "gossip", created[~code]
            else:
                kind, t = kinds[code], self._ev_t[code]
                if kind == "wipe":
                    wipes.append(t)
                    continue
                if kind not in ("send", "drop", "deliver", "gossip"):
                    continue
                i = row(self._ev_mid[code])
            reporter = senders[i]
            if reporter == p:
                continue
            for c in self._counterparties(i):
                ck = (reporter, c)
                if c == p or (only is not None and ck != only):
                    continue
                entry = acc.get(ck)
                if entry is None:
                    entry = acc[ck] = [0, [], [], -1]
                if kind == "drop":
                    entry[1].append(f"{self._ev_detail[code]['cause']}@t={t:g}")
                    continue
                if kind != "deliver":
                    entry[0] += 1
                if kind != "send":
                    entry[2].append(t)
                    entry[3] = len(wipes)
        out: Dict[ClaimKey, dict] = {}
        for ck, (attempts, cut, delivered, seen) in acc.items():
            if attempts == 0 or seen == len(wipes):
                continue
            out[ck] = {
                "claim": [_json_safe(ck[0]), _json_safe(ck[1])],
                "receiver": _json_safe(p),
                "attempts": attempts,
                "cut_by": cut,
                "wiped_by": [
                    f"churn-wipe@t={w:g}"
                    for w in wipes
                    if delivered and w >= min(delivered)
                ],
                "delivered_at": delivered,
            }
        return out

    # -- snapshots ------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        counts = Counter(self._ev_kind)
        gossip = counts.pop("gossip", 0) + len(self._msg_gdst) - self._msg_gdst.count(None)
        if gossip:
            counts["send"] += gossip
            counts["deliver"] += gossip
        for kind, detail in zip(self._ev_kind, self._ev_detail):
            if kind == "drop" and detail and detail.get("cause"):
                counts[f"drop.{detail['cause']}"] += 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """Small JSON-safe digest for the run manifest."""
        stats = self.claim_stats()
        reached = [s for s in stats if s["reached"]]
        out = {
            "label": self.label,
            "population": len(self._population),
            "messages": len(self._msg_sender),
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
