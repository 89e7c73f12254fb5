"""Equivalence tests for the incremental gossip hot path.

Each optimised piece is checked against a reference that is the code it
replaced, kept here verbatim: the full stable sorts of
``PrivateHistory.top_uploaders`` / ``most_recent``, BuddyCast's sequential
``_insert``, and the per-edge claim store with its layered
``_apply_record`` / ``_update_claim`` ingest path and per-claim recorder
hooks, which the per-record store and its one-loop, one-fold
``SubjectiveSharedHistory.ingest`` replaced.
"""

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary import HonestBehavior, SelfishLiar
from repro.core.history import PrivateHistory
from repro.core.messages import BarterCastMessage, HistoryRecord, select_records
from repro.core.node import BarterCastNode
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.transfer_graph import TransferGraph
from repro.obs.provenance import ClaimLineage, ProvenanceRecorder
from repro.pss.buddycast import BuddyCastPSS
from repro.sim.rng import RngRegistry


# ---------------------------------------------------------------------------
# (a) incremental selections == full stable sort
# ---------------------------------------------------------------------------

def ref_top_uploaders(history, n):
    if n <= 0:
        return []
    ranked = sorted(history.items(), key=lambda kv: (-kv[1].downloaded, repr(kv[0])))
    return [peer for peer, rec in ranked[:n] if rec.downloaded > 0]


def ref_most_recent(history, n):
    if n <= 0:
        return []
    ranked = sorted(history.items(), key=lambda kv: (-kv[1].last_seen, repr(kv[0])))
    return [peer for peer, _ in ranked[:n]]


class Twin:
    """Distinct peers with one ``repr``: only insertion order separates them."""

    def __repr__(self):
        return "twin"


PEERS = [1, 2, 3, "a", "b", (1, 2), Twin(), Twin()]
peers = st.sampled_from(PEERS)
# Few distinct values, so equal ``last_seen`` / ``downloaded`` ties are common.
times = st.sampled_from([-5.0, 0.0, 1.0, 2.0, 2.0, 7.5, 100.0, math.inf])
sizes = st.sampled_from([0, 0.0, 1, 2.0, 5.0])
windows = st.sampled_from([-1, 0, 1, 2, 10, 50])
ops = st.one_of(
    st.tuples(st.just("up"), peers, sizes, times),
    st.tuples(st.just("down"), peers, sizes, times),
    st.tuples(st.just("touch"), peers, times),
    st.tuples(st.just("top"), windows),
    st.tuples(st.just("recent"), windows),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=40), windows)
def test_incremental_selections_equal_full_sort(stream, n):
    h = PrivateHistory("me")
    for op in stream:
        if op[0] == "up":
            h.record_upload(*op[1:])
        elif op[0] == "down":
            h.record_download(*op[1:])
        elif op[0] == "touch":
            h.touch(*op[1:])
        elif op[0] == "top":
            assert h.top_uploaders(op[1]) == ref_top_uploaders(h, op[1])
        else:
            assert h.most_recent(op[1]) == ref_most_recent(h, op[1])
    assert h.top_uploaders(n) == ref_top_uploaders(h, n)
    assert h.most_recent(n) == ref_most_recent(h, n)
    full = len(h) + 1
    assert h.top_uploaders(full) == ref_top_uploaders(h, full)
    assert h.most_recent(full) == ref_most_recent(h, full)


def test_selection_results_are_callers_own_lists():
    h = PrivateHistory("me")
    h.record_download("a", 5.0, now=1.0)
    h.record_download("b", 3.0, now=2.0)
    h.top_uploaders(10).clear()
    h.most_recent(10).clear()
    assert h.top_uploaders(10) == ["a", "b"]
    assert h.most_recent(10) == ["b", "a"]


# ---------------------------------------------------------------------------
# (b) one-pass view merge == sequential _insert
# ---------------------------------------------------------------------------

def ref_insert(views, view_size, owner, contact, freshness):
    view = views.setdefault(owner, {})
    if contact in view:
        view[contact] = max(view[contact], freshness)
    else:
        view[contact] = freshness
        if len(view) > view_size:
            stalest = min(
                (kv for kv in view.items() if kv[0] != contact),
                key=lambda kv: kv[1],
            )[0]
            del view[stalest]


def ref_exchange(views, view_size, a, b, now):
    va, vb = views[a], views[b]
    snapshot_a = list(va.items())
    snapshot_b = list(vb.items())
    ref_insert(views, view_size, a, b, now)
    ref_insert(views, view_size, b, a, now)
    for contact, fresh in snapshot_b:
        if contact != a:
            ref_insert(views, view_size, a, contact, fresh)
    for contact, fresh in snapshot_a:
        if contact != b:
            ref_insert(views, view_size, b, contact, fresh)


# Views of up to 9 entries against bounds of 1..6: under, at and over
# ``view_size``; contacts include both exchange partners (0 and 1).
views_st = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 50.0]),
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(
    views_st,
    views_st,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 2.0, 60.0]),
)
def test_view_merge_equals_sequential_insert(va, vb, view_size, now):
    rng = RngRegistry(3).stream("pss")
    pss = BuddyCastPSS(is_online=lambda p: True, rng=rng, view_size=view_size)
    pss._views = {0: dict(va), 1: dict(vb)}
    expected = {0: dict(va), 1: dict(vb)}
    # Two rounds: the second starts from views the first one left at the bound.
    for t in (now, now + 1.0):
        pss._exchange(0, 1, t)
        ref_exchange(expected, view_size, 0, 1, t)
        for peer in (0, 1):
            assert list(pss._views[peer].items()) == list(expected[peer].items())
    assert pss.exchanges == 2


# ---------------------------------------------------------------------------
# (c) per-record store, one-loop ingest == per-edge store, layered path;
#     provenance off and on
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Claim:
    """The per-edge store's unit: one reporter's claim about one directed
    edge, with the raw ``(msg_id, received_at, superseded)`` lineage."""

    value: float
    reported_at: float
    lineage: Optional[Tuple[Hashable, float, int]] = None


class RefRecorder:
    """The per-claim recorder hooks the fold replaced, counters only."""

    def __init__(self):
        self.claims_recorded = 0
        self.claims_superseded = 0
        self.redeliveries_ignored = 0
        self.stale_dropped = 0
        self.claims_forgotten = 0

    def record_claim(self, owner, edge, reporter, lineage, superseded):
        self.claims_recorded += 1
        if superseded:
            self.claims_superseded += 1

    def record_redelivery(self, owner, edge, reporter):
        self.redeliveries_ignored += 1

    def record_stale(self, owner, edge, reporter):
        self.stale_dropped += 1

    def record_forget(self, owner, reporter, removed):
        if removed > 0:
            self.claims_forgotten += removed

    def summary(self):
        return {
            "claims_recorded": self.claims_recorded,
            "claims_superseded": self.claims_superseded,
            "redeliveries_ignored": self.redeliveries_ignored,
            "stale_dropped": self.stale_dropped,
            "claims_forgotten": self.claims_forgotten,
        }


class LayeredIngest:
    """The store as it was before the per-record rewrite, self-contained:
    the per-edge claim map ``_claims[(src, dst)][reporter] -> _Claim`` with
    its accessors, ``forget_reporter`` and ``_materialize`` verbatim, fed by
    the provenance-on ingest path as it was before the one-loop fusion
    (``sane_records()``, then ``_apply_record`` -> ``_update_claim`` ->
    ``_materialize`` per record)."""

    def __init__(self, owner, graph, provenance):
        self.owner = owner
        self._graph = graph
        self._prov = provenance
        self._prov_on = True
        self._prov_record_claim = self._prov.record_claim
        self._claims = {}
        self.messages_seen = 0
        self.records_applied = 0
        self.records_dropped = 0
        self._msg_id = None
        self._received_at = 0.0

    def ingest(self, message, now=None):
        if message.sender == self.owner:
            raise ValueError("a node cannot ingest its own message")
        self.messages_seen += 1
        if self._prov_on:
            self._msg_id = (
                message.msg_id
                if message.msg_id is not None
                else (message.sender, message.created_at)
            )
            self._received_at = float(
                message.created_at if now is None else now
            )
        sane = message.sane_records()
        self.records_dropped += message.num_records - len(sane)
        applied = 0
        for record in sane:
            if self._apply_record(message.sender, record, message.created_at):
                applied += 1
            else:
                self.records_dropped += 1
        return applied

    def _apply_record(self, reporter, record, reported_at):
        c = record.counterparty
        if c == self.owner or reporter == self.owner:
            # Edges incident to the owner come from the private history only.
            return False
        changed = False
        # reporter -> counterparty: reporter's claimed upload.
        if self._update_claim((reporter, c), reporter, record.uploaded, reported_at):
            changed = True
        # counterparty -> reporter: reporter's claimed download.
        if self._update_claim((c, reporter), reporter, record.downloaded, reported_at):
            changed = True
        if changed:
            self.records_applied += 1
        return changed

    def _update_claim(self, edge, reporter, value, reported_at):
        claims = self._claims.setdefault(edge, {})
        existing = claims.get(reporter)
        if existing is not None:
            if existing.reported_at > reported_at:
                if self._prov_on:
                    self._prov.record_stale(self.owner, edge, reporter)
                return False  # stale
            if existing.reported_at == reported_at and value <= existing.value:
                if self._prov_on:
                    self._prov.record_redelivery(self.owner, edge, reporter)
                return False
            if existing.value == value:
                existing.reported_at = reported_at
                if self._prov_on:
                    old = existing.lineage
                    existing.lineage = lineage = (
                        self._msg_id,
                        self._received_at,
                        old[2] + 1 if old is not None else 1,
                    )
                    self._prov_record_claim(self.owner, edge, reporter, lineage, True)
                return False  # no change
        if self._prov_on:
            if existing is None:
                lineage = (self._msg_id, self._received_at, 0)
            else:
                old = existing.lineage
                lineage = (
                    self._msg_id,
                    self._received_at,
                    old[2] + 1 if old is not None else 1,
                )
            self._prov_record_claim(
                self.owner, edge, reporter, lineage, existing is not None
            )
        else:
            lineage = None
        claims[reporter] = _Claim(
            value=float(value), reported_at=float(reported_at), lineage=lineage
        )
        self._materialize(edge)
        return True

    def _materialize(self, edge):
        claims = self._claims.get(edge, {})
        value = max((c.value for c in claims.values()), default=0.0)
        if value == self._graph.capacity(edge[0], edge[1]):
            self._graph.add_node(edge[0])
            self._graph.add_node(edge[1])
            return
        self._graph.set_transfer(edge[0], edge[1], value)

    def claim_of(self, reporter, src, dst):
        claims = self._claims.get((src, dst))
        if claims is None:
            return None
        claim = claims.get(reporter)
        return None if claim is None else claim.value

    def known_edges(self):
        return iter(self._claims)

    def reporters(self):
        seen = set()
        for claims in self._claims.values():
            seen.update(claims)
        return seen

    def forget_reporter(self, reporter):
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

    def lineage_of(self, src, dst):
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


OWNER = "me"
REPORTERS = ["r0", "r1"]
# Few peers, totals and timestamps, so one (reporter, counterparty) pair is
# hit again and again: stale, equal-timestamp, confirming and superseding
# deliveries, records about the owner and about the sender itself.
good_totals = st.sampled_from([0.0, 1.0, 5.0, 5.0, 9.0, 7])
good_record = st.builds(
    HistoryRecord,
    st.sampled_from(["c0", "c0", "r0", "r1", OWNER]),
    good_totals,
    good_totals,
)
any_totals = st.one_of(
    good_totals,
    st.sampled_from([-1.0, math.nan, math.inf, -math.inf, None, "x", [1.0]]),
)
any_counterparty = st.sampled_from(["c0", None, ["unhashable"], {"un": "hashable"}])
hostile_record = st.one_of(
    st.builds(HistoryRecord, any_counterparty, any_totals, any_totals),
    st.sampled_from([None, "junk", ("c0", 1.0, 2.0)]),
)


def messages(created_at):
    return st.builds(
        BarterCastMessage,
        sender=st.sampled_from(REPORTERS),
        created_at=created_at,
        records=st.lists(
            st.one_of(good_record, good_record, hostile_record), max_size=5
        ),
        msg_id=st.sampled_from([None, ("r0", 1), ("r1", 7)]),
    )


message_st = messages(st.sampled_from([1.0, 2.0, 2.0, 3.0]))
receipt_st = st.sampled_from([None, 4.0, 9.5])
# A step is a delivery or a churn-style forget of one reporter ("c0" never
# reported anything: the no-op case).
step_st = st.one_of(
    st.tuples(message_st, receipt_st),
    st.tuples(message_st, receipt_st),
    st.tuples(st.just("forget"), st.sampled_from(REPORTERS + ["c0"])),
)
PARTIES = REPORTERS + ["c0", OWNER]


def _state(store):
    """Everything the store shows through its public surface (lineage
    apart: a provenance-off store has none)."""
    graph = store._graph
    edges = list(store.known_edges())
    assert len(edges) == len(set(edges))
    return {
        "applied": store.records_applied,
        "dropped": store.records_dropped,
        "seen": store.messages_seen,
        "known_edges": set(edges),
        "reporters": store.reporters(),
        "claims": {
            (reporter, edge): store.claim_of(reporter, *edge)
            for edge in edges
            for reporter in PARTIES
        },
        "edges": list(graph.edges()),
        "nodes": list(graph.nodes()),
        "version": graph.version,
    }


def _lineage(store):
    return {edge: store.lineage_of(*edge) for edge in store.known_edges()}


@settings(max_examples=200, deadline=None)
@given(st.lists(step_st, max_size=12))
def test_one_loop_ingest_equals_layered_path(steps):
    layered = LayeredIngest(OWNER, TransferGraph(), RefRecorder())
    prov_on = SubjectiveSharedHistory(
        OWNER, TransferGraph(), provenance=ProvenanceRecorder()
    )
    prov_off = SubjectiveSharedHistory(OWNER, TransferGraph())
    assert prov_on.provenance_enabled and not prov_off.provenance_enabled
    for step in steps:
        if step[0] == "forget":
            expected = layered.forget_reporter(step[1])
            assert prov_on.forget_reporter(step[1]) == expected
            assert prov_off.forget_reporter(step[1]) == expected
        else:
            message, received_at = step
            expected = layered.ingest(message, now=received_at)
            assert prov_on.ingest(message, now=received_at) == expected
            assert prov_off.ingest(message, now=received_at) == expected
        assert _state(prov_on) == _state(prov_off) == _state(layered)
        # Lineage and the recorder's event counts are part of the on path.
        assert _lineage(prov_on) == _lineage(layered)
        assert prov_on._prov.summary() == layered._prov.summary()
    assert not any(_lineage(prov_off).values())


def _wipe(store):
    """``BarterCastNode.wipe_shared_history``'s loop."""
    return sum(
        store.forget_reporter(reporter)
        for reporter in sorted(store.reporters(), key=repr)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(message_st, receipt_st), max_size=8),
    st.lists(st.tuples(message_st, receipt_st), max_size=8),
    st.booleans(),
)
def test_wipe_then_replay_equals_fresh_store(before, after, provenance):
    def make():
        recorder = ProvenanceRecorder() if provenance else None
        return SubjectiveSharedHistory(OWNER, TransferGraph(), provenance=recorder)

    wiped, fresh = make(), make()
    for message, received_at in before:
        wiped.ingest(message, now=received_at)
    claims = sum(
        wiped.claim_of(reporter, *edge) is not None
        for edge in wiped.known_edges()
        for reporter in PARTIES
    )
    assert _wipe(wiped) == claims
    assert wiped.reporters() == set() and list(wiped.known_edges()) == []
    assert list(wiped._graph.edges()) == []
    if provenance:
        assert wiped._prov.claims_forgotten == claims
    for message, received_at in after:
        assert wiped.ingest(message, now=received_at) == fresh.ingest(
            message, now=received_at
        )
    # Counters and node registration (hence edge order) remember the first
    # life; the view, its claims and their lineage do not.
    a, b = _state(wiped), _state(fresh)
    for key in ("known_edges", "reporters", "claims"):
        assert a[key] == b[key]
    assert set(a["edges"]) == set(b["edges"])
    assert _lineage(wiped) == _lineage(fresh)


# Whatever a peer puts in ``created_at``: only a finite real is a timestamp.
hostile_created_at = st.one_of(
    st.sampled_from([None, "x", "7", [1], (2.0,), {}, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(message_st, receipt_st), max_size=4),
    messages(hostile_created_at),
    receipt_st,
    st.booleans(),
)
def test_hostile_created_at_drops_the_message(history, forged, received_at, provenance):
    recorder = ProvenanceRecorder() if provenance else None
    node = BarterCastNode(OWNER, provenance=recorder)
    for message, at in history:
        node.receive_message(message, now=at)
    store = node.shared
    before, lineage, summary = _state(store), _lineage(store), store._prov.summary()
    assert node.receive_message(forged, now=received_at) == 0  # never raises
    after = _state(store)
    assert after.pop("seen") == before.pop("seen") + 1
    assert after.pop("dropped") == before.pop("dropped") + len(forged.records)
    assert after == before
    assert _lineage(store) == lineage and store._prov.summary() == summary


def test_forged_infinite_timestamp_does_not_shadow_later_messages():
    for recorder in (None, ProvenanceRecorder()):
        node = BarterCastNode(OWNER, provenance=recorder)
        record = lambda total: (HistoryRecord("c0", total, 0.0),)
        node.receive_message(BarterCastMessage("r0", 1.0, record(3.0)))
        assert node.receive_message(BarterCastMessage("r0", math.inf, record(5.0))) == 0
        assert node.shared.claim_of("r0", "r0", "c0") == 3.0
        assert node.receive_message(BarterCastMessage("r0", 2.0, record(9.0))) == 1
        assert node.shared.claim_of("r0", "r0", "c0") == 9.0
        assert node.graph.capacity("r0", "c0") == 9.0


# ---------------------------------------------------------------------------
# (d) wire-record reuse
# ---------------------------------------------------------------------------

def _by_peer(records):
    return {r.counterparty: r for r in records}


def test_wire_record_reused_until_totals_change():
    h = PrivateHistory("me")
    h.record_upload("a", 10.0, now=1.0)
    h.record_download("b", 4.0, now=2.0)
    first = _by_peer(select_records(h, 10, 10))

    h.touch("a", 50.0)  # recency moves, totals do not
    again = _by_peer(select_records(h, 10, 10))
    assert again["a"] is first["a"] and again["b"] is first["b"]

    h.record_upload("a", 1.0, now=60.0)
    h.record_download("b", 0.0, now=60.0)  # a zero-byte transfer changes nothing
    after = _by_peer(select_records(h, 10, 10))
    assert after["a"] is not first["a"]
    assert (after["a"].uploaded, after["a"].downloaded) == (11.0, 0.0)
    assert after["b"] is first["b"]
    # The record already on the wire still says what was true when it was sent.
    assert (first["a"].uploaded, first["a"].downloaded) == (10.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, max_size=30))
def test_wire_records_always_match_the_ledger(stream):
    h = PrivateHistory("me")
    for op in stream:
        if op[0] == "up":
            h.record_upload(*op[1:])
        elif op[0] == "down":
            h.record_download(*op[1:])
        elif op[0] == "touch":
            h.touch(*op[1:])
        else:
            for record in select_records(h, op[1], op[1]):
                totals = h.get(record.counterparty)
                assert (record.uploaded, record.downloaded) == (
                    totals.uploaded,
                    totals.downloaded,
                )


def test_selfish_liar_rewrites_instead_of_mutating_reused_records():
    node = BarterCastNode("liar", behavior=SelfishLiar())
    node.record_upload("a", 10.0, now=1.0)
    node.record_download("b", 4.0, now=2.0)
    honest = _by_peer(select_records(node.history, 10, 10))

    lie = node.create_message(now=3.0)
    assert {r.counterparty for r in lie.records} == set(honest)
    for record in lie.records:
        assert record is not honest[record.counterparty]
        assert (record.uploaded, record.downloaded) == (SelfishLiar().lie_upload_bytes, 0.0)

    # The honest records the lie was derived from are untouched and still served.
    node.behavior = HonestBehavior()
    truth = _by_peer(node.create_message(now=4.0).records)
    assert truth["a"] is honest["a"] and truth["b"] is honest["b"]
    assert (truth["a"].uploaded, truth["b"].downloaded) == (10.0, 4.0)
