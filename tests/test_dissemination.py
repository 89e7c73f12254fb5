"""Tests for causal dissemination tracing.

Covers the always-on message envelope (msg_id / parent_id / hops), the
recorder's analytics against the reference model, the completeness of
the event log (the model's replay of a run's hook calls must match every
node's ``SubjectiveSharedHistory`` exactly), fault attribution, the collector's merge/export plumbing (``--jobs 2`` bytes
equal serial), Chrome-trace flow arrows, the fault channel's
churn-versus-loss accounting, and the headline guarantee: recording on
is bit-identical to a plain run.
"""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.policies import RankPolicy
from repro.experiments import ScenarioConfig, run_fig1
from repro.experiments.scenario import build_simulation
from repro.faults import ChannelModel, FaultConfig
from repro.obs import (
    NULL_DISSEMINATION,
    NULL_OBS,
    DisseminationCollector,
    DisseminationConfig,
    DisseminationRecorder,
    make_observability,
)
import repro.obs.dissemination as dissemination_module
from repro.obs.chrome_trace import trace_to_chrome_events
from repro.obs.dissemination import DISSEMINATION_FILENAME, render_attribution
from repro.obs.trace import read_trace
from repro.sim.rng import RngRegistry
from tests.model import Dissemination

FAULTS = FaultConfig(loss=0.2, duplicate=0.2, delay_max=7200.0, churn_rate=4.0)


def _shared_view(node):
    """``(reporter, src, dst) -> value`` of every live claim ``node`` holds."""
    view = {}
    for src, dst in node.shared.known_edges():
        for reporter in node.shared.reporters():
            value = node.shared.claim_of(reporter, src, dst)
            if value is not None:
                view[(reporter, src, dst)] = value
    return view


HOOKS = ("send", "gossip", "deliver", "drop", "plan", "wipe")


def tee(rec, model, messages=None):
    """Feed every ``record_*`` call ``rec`` receives to ``model`` too, and
    file each message it names in ``messages`` under its msg_id."""
    for hook in HOOKS:
        def both(*args, _rec=getattr(rec, "record_" + hook), _model=getattr(model, hook),
                 _files=messages is not None and hook != "wipe", **kwargs):
            if _files:
                messages[args[0].msg_id] = args[0]
            _model(*args, **kwargs)
            _rec(*args, **kwargs)

        setattr(rec, "record_" + hook, both)


@pytest.fixture(scope="module")
def faulted_run():
    """One recorded faulted run shared by the analytics/auditor tests: the
    simulator, its bundle, a model fed a copy of every recorder hook call,
    and every message the hooks named (by msg_id)."""
    scenario = ScenarioConfig.tiny(seed=7).with_faults(FAULTS)
    obs = make_observability(metrics=True, dissemination=True)
    sim = build_simulation(scenario, policy=RankPolicy(), obs=obs)
    model, messages = Dissemination(sim.nodes, label=sim.dissemination.label), {}
    tee(sim.dissemination, model, messages)
    sim.run()
    return sim, obs, model, messages


def _msg(sender, created_at, records, msg_id=None, parent_id=None, hops=1):
    return BarterCastMessage(
        sender=sender,
        created_at=created_at,
        records=tuple(records),
        msg_id=msg_id,
        parent_id=parent_id,
        hops=hops,
    )


class LookAlike:
    """Has a record's three attributes, but no receiver applies it."""

    def __init__(self, counterparty, uploaded, downloaded):
        self.counterparty = counterparty
        self.uploaded = uploaded
        self.downloaded = downloaded


class MutableRecord(HistoryRecord):
    """A ``HistoryRecord`` subclass (receivers apply it) that can change."""

    __setattr__ = object.__setattr__


class TestRecorderSynthetic:
    """Hand-built event logs with known DAGs and analytics answers."""

    def _recorder(self):
        rec = DisseminationRecorder(label="syn")
        rec.set_population(["A", "B", "C", "D"])
        self.model = Dissemination(["A", "B", "C", "D"], label="syn")
        tee(rec, self.model)
        m1 = _msg("A", 0.0, [HistoryRecord("B", 10.0, 5.0)], msg_id=("A", 1))
        m2 = _msg(
            "A", 100.0, [HistoryRecord("B", 20.0, 7.0)],
            msg_id=("A", 2), parent_id=("A", 1),
        )
        rec.record_send(m1, "C", 0.0)
        rec.record_deliver(m1, "C", 10.0)
        rec.record_send(m1, "D", 0.0)
        rec.record_drop(m1, "D", 12.0, "loss")
        rec.record_send(m2, "C", 100.0)
        rec.record_deliver(m2, "C", 110.0)
        return rec, m1, m2

    def test_claim_stats_coverage_milestones(self):
        rec, _, _ = self._recorder()
        (entry,) = rec.claim_stats()
        # Eligible = population minus reporter A and counterparty B.
        assert entry["eligible"] == 2
        assert entry["reached"] == 1
        assert entry["copies"] == 2
        assert entry["first_t"] == 10.0
        assert entry["redundancy"] == 2.0
        assert entry["t50"] == 10.0  # need 1 of 2
        assert entry["t90"] is None  # need 2 of 2, D never reached
        assert rec.redundancy_factor() == 2.0
        assert rec.hop_histogram() == {"1": 2}

    def test_derived_views_are_built_once_and_follow_the_log(self):
        rec, m1, _ = self._recorder()
        snap = rec.to_dict()
        # One build per finished log: the same objects serve the manifest
        # summary, export and the worker boundary.
        assert rec.to_dict() is snap and rec.claim_stats() is snap["claims"]
        assert snap["summary"] == rec.summary()
        # The log grows (a gossip-path message, then an explicit event):
        # every view is rebuilt and equals a recorder fed the whole log.
        m3 = _msg("D", 200.0, [HistoryRecord("B", 1.0, 0.0)], msg_id=("D", 1))
        rec.record_gossip(m3, "C", 200.0)
        assert [e["claim"] for e in rec.claim_stats()] == [["A", "B"], ["D", "B"]]
        assert [e["copies"] for e in rec.claim_stats()] == [2, 1]
        rec.record_deliver(m1, "D", 300.0)
        whole, _, _ = self._recorder()
        whole.record_gossip(m3, "C", 200.0)
        whole.record_deliver(m1, "D", 300.0)
        assert rec.to_dict() == whole.to_dict() and rec.to_dict() is not snap
        assert rec.redundancy_factor() == 4 / 3  # 4 copies, 3 (claim, receiver)

        collector = DisseminationCollector()
        collector.attach(rec)
        assert collector.summary()["runs"] == [rec.to_dict()["summary"]]
        assert collector.series() == [rec.to_dict()]

    def test_replay_supersedes_by_created_at(self):
        _, m1, m2 = self._recorder()
        # m2 (created_at 100) supersedes m1 for both directed edges, in
        # the log's replay and at a receiver fed the same deliveries.
        node = BarterCastNode("C")
        node.receive_message(m1, now=10.0)
        node.receive_message(m2, now=110.0)
        expected = {("A", "A", "B"): 20.0, ("A", "B", "A"): 7.0}
        assert self.model.replay("C") == _shared_view(node) == expected
        assert self.model.replay("D") == {}

    def test_replay_out_of_order_delivery(self):
        rec = DisseminationRecorder()
        rec.set_population(["A", "B", "C"])
        model = Dissemination(["A", "B", "C"])
        tee(rec, model)
        m1 = _msg("A", 0.0, [HistoryRecord("B", 10.0, 5.0)], msg_id=("A", 1))
        m2 = _msg("A", 100.0, [HistoryRecord("B", 20.0, 7.0)], msg_id=("A", 2))
        # The delaying channel reorders: the newer message lands first.
        node = BarterCastNode("C")
        for m, t in ((m2, 110.0), (m1, 120.0)):
            rec.record_deliver(m, "C", t)
            node.receive_message(m, now=t)
        assert model.replay("C")[("A", "A", "B")] == 20.0
        assert model.replay("C") == _shared_view(node)

    def test_wipe_erases_and_attribution_reports_it(self):
        rec, _, m2 = self._recorder()
        rec.record_wipe("C", 200.0)
        assert self.model.replay("C") == {}
        entries = rec.explain_missing(receiver="C")
        (entry,) = entries
        assert entry["delivered_at"] == [10.0, 110.0]
        assert entry["wiped_by"] == ["churn-wipe@t=200"]
        assert "was erased at peer C" in render_attribution(entry)

    def test_attribution_names_exact_drop_events(self):
        rec, _, _ = self._recorder()
        entries = rec.explain_missing(receiver="D")
        (entry,) = entries
        assert entry["claim"] == ["A", "B"]
        assert entry["attempts"] == 1
        assert entry["cut_by"] == ["loss@t=12"]
        text = render_attribution(entry)
        assert "never reached peer D" in text
        assert "loss@t=12" in text

    def test_no_attribution_without_an_attempt(self):
        rec = DisseminationRecorder()
        rec.set_population(["A", "B", "C"])
        m1 = _msg("A", 0.0, [HistoryRecord("B", 1.0, 1.0)], msg_id=("A", 1))
        rec.record_send(m1, "C", 0.0)
        rec.record_drop(m1, "C", 0.0, "loss")
        # C was attempted; pairs the schedule never targeted are silent.
        assert {e["receiver"] for e in rec.explain_missing()} == {"C"}

    def test_event_counts_split_drop_causes(self):
        rec, _, m2 = self._recorder()
        rec.record_drop(m2, "D", 130.0, "churn-offline", copy=1, delay=30.0)
        counts = rec.event_counts()
        assert counts["drop"] == 2
        assert counts["drop.loss"] == 1
        assert counts["drop.churn-offline"] == 1

    def test_plan_emits_duplicate_and_delay_events(self):
        rec = DisseminationRecorder()
        rec.set_population(["A", "B", "C"])
        m1 = _msg("A", 0.0, [HistoryRecord("B", 1.0, 1.0)], msg_id=("A", 1))
        rec.record_plan(m1, "C", 10.0, [10.0, 40.0])
        counts = rec.event_counts()
        assert counts["duplicate"] == 1
        assert counts["delay"] == 1  # only the second copy is delayed


class TestHostilePayloads:
    def test_snapshot_at_send_and_replay_equals_receivers(self):
        """A message holding anything but exact ``HistoryRecord``s is copied
        when first seen; malformed records are skipped as receivers skip
        them; nothing raises; the log's replay is what each receiver
        applied."""
        mutable = MutableRecord(1, 6.0, 1.0)
        lookalike = LookAlike(2, 3.0, 4.0)
        subclassed = _msg(0, 1.0, [HistoryRecord(3, 10.0, 5.0), mutable], msg_id=(0, 1))
        malformed = _msg(0, 1.5, [
            lookalike,
            HistoryRecord(2, math.nan, 1.0),
            HistoryRecord(2, -1.0, 2.0),
            HistoryRecord(3, 12.0, 5.0),
            HistoryRecord(3, 12.5, 4.0),  # the same counterparty twice
        ], msg_id=(0, 2), parent_id=(0, 1))
        # Exact records only, so kept by reference; one is unhashable.
        exact = _msg(0, 2.0, [HistoryRecord(3, 11.0, 5.0), HistoryRecord([4], 2.0, 2.0)],
                     msg_id=(0, 3), parent_id=(0, 2))
        rec = DisseminationRecorder()
        rec.set_population(range(6))
        model = Dissemination(range(6))
        tee(rec, model)
        nodes = {p: BarterCastNode(p) for p in (4, 5)}
        rec.record_send(subclassed, 4, 1.0)
        nodes[4].receive_message(subclassed, now=1.0)
        rec.record_deliver(subclassed, 4, 1.0)
        nodes[5].receive_message(subclassed, now=1.0)
        rec.record_gossip(subclassed, 5, 1.0)
        mutable.uploaded = 99.0
        nodes[4].receive_message(malformed, now=1.5)
        rec.record_gossip(malformed, 4, 1.5)
        lookalike.uploaded, lookalike.counterparty = 0.5, 3
        nodes[4].receive_message(exact, now=2.0)
        rec.record_gossip(exact, 4, 2.0)
        rec.record_send(exact, 5, 2.0)
        rec.record_drop(exact, 5, 2.0, "loss")
        rec.record_wipe(5, 3.0)
        nodes[5].wipe_shared_history()

        # The model files each message's sane records when first named.
        assert model.messages[(0, 1)][3] == [(3, 10.0, 5.0), (1, 6.0, 1.0)]
        assert model.messages[(0, 2)][3] == [(3, 12.0, 5.0), (3, 12.5, 4.0)]
        assert model.messages[(0, 3)][3] == [(3, 11.0, 5.0)]
        snap = rec.to_dict()
        assert snap == model.to_dict()
        assert [e["claim"] for e in snap["claims"]] == [[0, 1], [0, 3]]
        for p, node in nodes.items():
            assert model.replay(p) == _shared_view(node)
        assert model.replay(4)[(0, 0, 1)] == 6.0
        assert model.replay(5) == {}
        assert [(e["claim"], e["receiver"]) for e in snap["undelivered"]] == [
            ([0, 1], 5),
            ([0, 3], 5),
        ]
        assert snap["summary"]["hop_histogram"] == {"1": 4}


PEERS = range(6)  # the population is 0-4; 5 is outside it
TIMES = st.sampled_from([0.0, 1.0, 2.0, 3.5])
TOTALS = st.sampled_from([0.0, 1.0, 2.5, 7.0] * 3 + [math.nan, -1.0, math.inf])
EXACT = st.builds(HistoryRecord, st.sampled_from(PEERS), TOTALS, TOTALS)
RECORDS = st.one_of(
    EXACT,
    EXACT,
    st.builds(MutableRecord, st.sampled_from(PEERS), TOTALS, TOTALS),
    st.builds(LookAlike, st.sampled_from(PEERS), TOTALS, TOTALS),
    st.builds(HistoryRecord, st.just([1]), TOTALS, TOTALS),
    st.sampled_from([None, "record"]),
)
MSG_IDS = st.one_of(st.none(), st.tuples(st.sampled_from(PEERS), st.integers(1, 3)))
MESSAGES = st.builds(
    _msg, st.sampled_from(PEERS), TIMES,
    st.lists(EXACT, min_size=1, max_size=5) | st.lists(RECORDS, max_size=5),
    msg_id=MSG_IDS, parent_id=MSG_IDS, hops=st.integers(1, 2),
)


@st.composite
def hook_streams(draw):
    """``(hook, *args)`` calls over a small pool of messages, so copies
    repeat, reorder and collide on ``msg_id``; a call is often at the
    message's own ``created_at``, the fused gossip path's condition."""
    pool = draw(st.lists(MESSAGES, min_size=1, max_size=4))
    calls = []
    for _ in range(draw(st.integers(0, 40))):
        hook = draw(st.sampled_from(["send", "gossip", "deliver", "drop", "plan", "wipe"]))
        m, to = draw(st.sampled_from(pool)), draw(st.sampled_from(PEERS))
        t = draw(st.sampled_from([m.created_at, 0.0, 1.0, 2.0, 3.5]))
        if hook == "wipe":
            calls.append((hook, to, t))
        elif hook == "deliver":
            calls.append((hook, m, to, t, draw(st.integers(0, 2))))
        elif hook == "drop":
            cause = draw(st.sampled_from(["loss", "offline", "churn-offline", ""]))
            copy, delay = draw(st.integers(0, 2)), draw(st.sampled_from([0.0, 3.5]))
            calls.append((hook, m, to, t, cause, copy, delay))
        elif hook == "plan":
            calls.append((hook, m, to, t, draw(st.lists(TIMES, max_size=3))))
        else:
            calls.append((hook, m, to, t))
    return calls


class TestModel:
    def _assert_equal(self, rec, model):
        assert rec.summary() == model.summary()
        assert rec.claim_stats() == model.claim_stats()
        assert rec.to_dict() == model.to_dict()

    @settings(max_examples=200, deadline=None)
    @given(hook_streams(), st.integers(0, 40))
    @example(  # the fused row comes before the explicit row that follows it
        [("gossip", _msg(1, 1.0, [HistoryRecord(0, 1.0, 1.0)]), 2, 1.0), ("wipe", 2, 1.0)], 40
    )
    def test_recorder_equals_model(self, calls, checkpoint):
        """Every analytic equals ``tests/model.py``'s scan, also when read
        mid-stream and again after the log grew."""
        rec = DisseminationRecorder()
        rec.set_population(range(5))
        model = Dissemination(range(5))
        for n, (hook, *args) in enumerate(calls):
            if n == checkpoint:
                self._assert_equal(rec, model)
            getattr(rec, "record_" + hook)(*args)
            getattr(model, hook)(*args)
        self._assert_equal(rec, model)


#: Message ids that take each registry path, all sent by peer 1: its run
#: 1, 2, 3 (filed by sender sequence), a gap (5 before 4, then 6), a
#: repeated id, an id naming another sender, ids equal to a filed one that
#: are not exact ints, a string id, and no id (filed as (sender, created_at)).
REGISTRY_IDS = [
    (1, 1), (1, 2), (1, 3), (1, 5), (1, 4), (1, 2), (2, 6), (1, True),
    (1, 2.0), "m-9", None, (1, 6), (1, 5),
]


def registry_messages():
    messages = [
        _msg(
            1, float(n),
            [HistoryRecord((0, 2, 3, 4)[n % 4], 10.0 + n, 5.0), HistoryRecord(4, 1.0, n)],
            msg_id=mid, hops=1 + n % 2,
        )
        for n, mid in enumerate(REGISTRY_IDS)
    ]
    # No id, and a created_at that makes (1, 3.0): equal to the filed (1, 3).
    return messages + [_msg(1, 3.0, [HistoryRecord(0, 99.0, 99.0)], hops=2)]


class TestRegistryPaths:
    """Each message id form, through the fused hook and through the
    send / plan / drop / deliver hooks, read back equal to the model."""

    @staticmethod
    def _fused(rec, m):
        t = m.created_at
        rec.record_gossip(m, 0, t)
        rec.record_gossip(m, 2, t)
        rec.record_gossip(m, 3, t + 0.5)  # not at created_at: an explicit row

    @staticmethod
    def _explicit(rec, m):
        t = m.created_at
        for to in (0, 2, 3):
            rec.record_send(m, to, t)
        rec.record_plan(m, 0, t, [t, t + 1.0])
        rec.record_deliver(m, 0, t)
        rec.record_deliver(m, 0, t + 1.0, copy=1)
        rec.record_drop(m, 2, t, "loss")
        rec.record_deliver(m, 3, t + 0.5)

    @pytest.mark.parametrize("path", ["_fused", "_explicit"])
    def test_every_id_form_equals_the_model(self, path):
        rec = DisseminationRecorder()
        rec.set_population(range(5))
        model = Dissemination(range(5))
        tee(rec, model)
        for n, m in enumerate(registry_messages()):
            getattr(self, path)(rec, m)
            if n == 6:
                rec.record_wipe(3, 6.5)
        rec.record_wipe(0, 20.0)
        # Sender 1's run 1-4 is filed by sequence, every other id by key.
        assert len(rec._seq_rows[1]) == 4
        assert rec.summary()["messages"] == len(model.messages) == 9
        assert rec.summary() == model.summary()
        assert rec.claim_stats() == model.claim_stats()
        assert rec.hop_histogram() == model.summary()["hop_histogram"]
        assert rec.explain_missing() == model.undelivered() != []
        assert rec.to_dict() == model.to_dict()


class TestMemory:
    def test_summary_allocates_less_than_the_recorder_retains(self):
        """The analytics stream over the log: ``summary()`` allocates less
        at its peak than the recorder's own code keeps alive."""
        scenario = ScenarioConfig.tiny(seed=7).with_faults(FAULTS)
        tracemalloc.start()
        try:
            obs = make_observability(dissemination=True)
            sim = build_simulation(scenario, policy=RankPolicy(), obs=obs)
            sim.run()
            gc.collect()
            own = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, dissemination_module.__file__)]
            )
            retained = sum(stat.size for stat in own.statistics("filename"))
            del own
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            sim.dissemination.summary()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < peak - before < retained


class TestByteIdentity:
    def test_recording_off_and_on_are_bit_identical(self):
        plain = run_fig1(ScenarioConfig.tiny(seed=3))
        obs = make_observability(dissemination=True)
        recorded = run_fig1(ScenarioConfig.tiny(seed=3), obs=obs)
        np.testing.assert_array_equal(
            plain.sharer_reputation, recorded.sharer_reputation
        )
        np.testing.assert_array_equal(
            plain.freerider_reputation, recorded.freerider_reputation
        )
        np.testing.assert_array_equal(
            plain.net_contribution_gb, recorded.net_contribution_gb
        )
        assert plain.spearman == recorded.spearman
        # ... and the recorder actually saw the run.
        (snap,) = obs.dissemination.series()
        assert snap["summary"]["events"]["deliver"] > 0

    def test_faulted_run_identical_with_recording(self):
        scenario = ScenarioConfig.tiny(seed=7).with_faults(FAULTS)
        plain = run_fig1(scenario)
        recorded = run_fig1(scenario, obs=make_observability(dissemination=True))
        np.testing.assert_array_equal(
            plain.sharer_reputation, recorded.sharer_reputation
        )
        assert plain.spearman == recorded.spearman


class TestFaultedRunAnalytics:
    def test_envelope_invariants(self, faulted_run):
        *_, messages = faulted_run
        assert messages
        for mid, msg in messages.items():
            peer, seq = mid
            assert peer == msg.sender
            assert msg.hops == 1  # BarterCast never forwards
            if seq == 1:
                assert msg.parent_id is None
            else:
                assert msg.parent_id == (peer, seq - 1)

    def test_lineage_replay_matches_shared_history(self, faulted_run):
        """The log is complete: replaying each peer's deliver/wipe hook
        calls under the supersede rule (the model's) reproduces its
        subjective shared history exactly — both directions (no extra,
        no missing)."""
        sim, _, model, _ = faulted_run
        for peer, node in sim.nodes.items():
            assert model.replay(peer) == _shared_view(node)

    def test_fault_attribution_names_exact_events(self, faulted_run):
        sim, _, model, _ = faulted_run
        rec = sim.dissemination
        missing = rec.explain_missing()
        assert missing, "a 20% loss + churn run must leave undelivered claims"
        attributed = [e for e in missing if e["cut_by"] or e["wiped_by"]]
        assert attributed
        entry = attributed[0]
        for cause in entry["cut_by"]:
            kind, t = cause.split("@t=")
            assert kind in ("loss", "offline", "churn-offline")
            # The named event exists in the log at exactly that time.
            claim_mids = model.carriers((entry["claim"][0], entry["claim"][1]))
            assert any(
                k == "drop"
                and mid in claim_mids
                and dst == entry["receiver"]
                and f"{et:g}" == t
                for k, et, mid, dst in zip(rec._ev_kind, rec._ev_t, rec._ev_mid, rec._ev_dst)
            )
        text = render_attribution(entry)
        assert str(entry["receiver"]) in text

    def test_churn_drops_counted_separately_from_loss(self, faulted_run):
        sim, obs, *_ = faulted_run
        assert sim.channel.dropped_by_churn > 0
        assert (
            obs.metrics.value("net.dropped_by_churn")
            == float(sim.channel.dropped_by_churn)
        )
        # Churn-cut copies are inside the total, never double-counted.
        assert sim.channel.dropped_by_churn < sim.channel.dropped
        counts = sim.dissemination.event_counts()
        assert counts["drop.churn-offline"] == sim.channel.dropped_by_churn

    def test_summary_and_manifest_digest(self, faulted_run):
        sim, obs, *_ = faulted_run
        summary = obs.dissemination.summary()
        assert summary["coverage_fractions"] == [0.5, 0.9]
        (run,) = summary["runs"]
        assert run["population"] == len(sim.nodes)
        assert run["claims_reached"] <= run["claims"]
        assert run["redundancy_factor"] > 1.0  # duplication was on


class TestChannelTelemetry:
    def _stream(self, seed=7):
        return RngRegistry(seed).stream("faults.channel")

    def test_offline_trace_carries_copy_delay_churn(self, tmp_path):
        trace_path = tmp_path / "net.jsonl"
        obs = make_observability(trace_path=trace_path, seed=1)
        ch = ChannelModel(
            FaultConfig(delay_max=10.0), self._stream(), obs=obs
        )
        ch.plan_delivery("a", "b", 5.0)
        ch.note_undeliverable("a", "b", 9.0, copy=2, delay=3.5, by_churn=True)
        obs.close()
        _, events = read_trace(trace_path)
        offline = next(e for e in events if e["name"] == "offline")
        assert offline["attrs"]["copy"] == 2
        assert offline["attrs"]["delay"] == 3.5
        assert offline["attrs"]["by_churn"] is True
        delivered = next(e for e in events if e["name"] == "delivered")
        assert len(delivered["attrs"]["delays"]) == delivered["attrs"]["copies"]
        assert ch.dropped_by_churn == 1
        assert ch.dropped == 1


class TestCollector:
    def test_labels_and_merge_order(self):
        col = DisseminationCollector()
        col.begin_task("task-a")
        rec = DisseminationRecorder(label=col.next_label())
        assert rec.label == "task-a"
        assert col.next_label() == "run-2"  # no pending label -> counter
        col.attach(rec)
        col.merge([{"label": "w1", "summary": {}, "claims": [], "undelivered": []}])
        labels = [s["label"] for s in col.series()]
        assert labels == ["w1", "task-a"]

    def test_export_writes_csv_and_json(self, tmp_path):
        col = DisseminationCollector()
        col.begin_task("fig2/rank")
        rec = DisseminationRecorder(label=col.next_label(), config=col.config)
        rec.set_population(["A", "B", "C"])
        m1 = _msg("A", 0.0, [HistoryRecord("B", 2.0, 1.0)], msg_id=("A", 1))
        rec.record_send(m1, "C", 0.0)
        rec.record_deliver(m1, "C", 1.0)
        col.attach(rec)
        written = col.export(tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["dissemination.json", "dissemination_fig2_rank.csv"]
        doc = json.loads((tmp_path / DISSEMINATION_FILENAME).read_text())
        assert doc["series"][0]["label"] == "fig2/rank"
        header, row = (
            (tmp_path / "dissemination_fig2_rank.csv").read_text().splitlines()
        )
        assert header == "reporter,counterparty,eligible,reached,copies,first_t,t50,t90"
        assert row == "A,B,1,1,1,1.0,1.0,1.0"

    def test_null_collector_guards(self, tmp_path):
        assert not NULL_DISSEMINATION.enabled
        assert NULL_DISSEMINATION.export(tmp_path) == []
        with pytest.raises(RuntimeError):
            NULL_DISSEMINATION.attach(DisseminationRecorder())

    def test_bundle_flag_forms(self):
        # Always a fresh bundle, but every leg is the shared null object.
        off = make_observability()
        assert off.spec() == {} == NULL_OBS.spec()
        on = make_observability(dissemination=True)
        assert on.dissemination.enabled
        assert on.dissemination.config.coverage_fractions == (0.5, 0.9)
        explicit = make_observability(
            dissemination=DisseminationConfig(coverage_fractions=(0.25,))
        )
        assert explicit.dissemination.config.coverage_fractions == (0.25,)


class TestParallelParity:
    def _tasks(self):
        from repro.experiments import fig1_task

        faults = FaultConfig(loss=0.2, churn_rate=2.0)
        return [
            fig1_task(ScenarioConfig.tiny(seed=3).with_faults(faults)),
            fig1_task(ScenarioConfig.tiny(seed=4).with_faults(faults)),
        ]

    def _export_bytes(self, jobs, out_dir):
        from repro.parallel import ParallelRunner

        obs = make_observability(dissemination=True)
        runner = ParallelRunner(jobs=jobs, obs=obs)
        runner.run(self._tasks())
        obs.dissemination.export(out_dir)
        return (out_dir / DISSEMINATION_FILENAME).read_bytes()

    def test_jobs2_export_bytes_equal_serial(self, tmp_path):
        serial = self._export_bytes(1, tmp_path / "serial")
        pooled = self._export_bytes(2, tmp_path / "pooled")
        assert serial == pooled
        doc = json.loads(serial.decode("utf-8"))
        assert len(doc["series"]) == 2
        assert all(s["summary"]["events"]["deliver"] > 0 for s in doc["series"])


class TestChromeFlowArrows:
    def test_matched_pairs_only(self):
        records = [
            {"cat": "bc.message", "name": "send", "wall": 1.0,
             "attrs": {"msg_id": [1, 1]}},
            {"cat": "bc.message", "name": "receive", "wall": 1.5,
             "attrs": {"msg_id": [1, 1]}},
            {"cat": "bc.message", "name": "receive", "wall": 2.0,
             "attrs": {"msg_id": [1, 1]}},  # duplicate copy
            {"cat": "bc.message", "name": "send", "wall": 3.0,
             "attrs": {"msg_id": [9, 9]}},  # receive sampled away
            {"cat": "bc.message", "name": "receive", "wall": 4.0,
             "attrs": {"msg_id": [5, 5]}},  # send sampled away
        ]
        events = trace_to_chrome_events({"seed": 1}, records)
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(finishes) == 2
        assert sorted(e["id"] for e in starts) == sorted(e["id"] for e in finishes)
        assert len({e["id"] for e in starts}) == 2
        by_id = {e["id"]: e for e in starts}
        for fin in finishes:
            assert fin["bp"] == "e"
            assert fin["ts"] >= by_id[fin["id"]]["ts"]

    def test_traced_fig2_round_trip_has_no_dangling_flows(self, tmp_path):
        from repro import cli

        trace = tmp_path / "run.jsonl"
        assert cli.main(
            ["fig2", "--profile", "tiny", "--seed", "5", "--trace", str(trace)]
        ) == 0
        assert cli.main(["chrome-trace", str(trace)]) == 0
        doc = json.loads((tmp_path / "run.chrome.json").read_text())
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        finishes = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
        assert starts, "a traced fig2 run must produce flow arrows"
        s_ids = sorted(e["id"] for e in starts)
        f_ids = sorted(e["id"] for e in finishes)
        assert len(set(s_ids)) == len(s_ids)  # one start per flow id
        assert s_ids == f_ids  # every start finishes, every finish starts
