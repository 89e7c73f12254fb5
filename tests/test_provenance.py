"""Tests for reputation provenance & explainability.

The load-bearing guarantees of the provenance layer:

* **lineage replay** — for every live claim the recorded lineage is
  enough to reconstruct the exact materialized subjective-graph edge
  value (max over live claims), under arbitrary schedules of loss,
  duplication, delay and churn;
* **exact flow attribution** — ``two_hop_paths`` returns ≤2-hop paths
  whose flows sum to the flow value bit-exactly, equal the reference
  model's paths (``tests/model.py``), are edge-disjoint, and yield exact
  leave-one-out deltas with no re-solve;
* **null-object discipline** — provenance is off by default and a
  provenance-on run produces byte-identical figure exports to a
  provenance-off run (recording observes, never perturbs);
* **the CLI** — ``repro explain`` prints at least one claim-lineage
  entry and a path decomposition that sums to the maxflow value.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.faults import FaultConfig, audit_simulation
from repro.graph.maxflow import leave_one_out_values, maxflow_two_hop, two_hop_paths
from repro.graph.transfer_graph import TransferGraph
from repro.obs.explain import explain_reputation, render_explanation, top_subjects
from repro.obs.provenance import (
    NULL_PROVENANCE,
    NullProvenanceRecorder,
    ProvenanceRecorder,
)
from tests import model
from tests.conftest import graph_of, random_graphs


def make_store(provenance=True):
    graph = TransferGraph()
    recorder = ProvenanceRecorder() if provenance else None
    store = SubjectiveSharedHistory("me", graph, provenance=recorder)
    return store, recorder


def msg(sender, created_at, counterparty, up, down, msg_id=None):
    return BarterCastMessage(
        sender=sender,
        created_at=created_at,
        records=(HistoryRecord(counterparty, up, down),),
        msg_id=msg_id,
    )


# ---------------------------------------------------------------------------
# Claim lineage: unit-level semantics
# ---------------------------------------------------------------------------
class TestClaimLineage:
    def test_fresh_claim_carries_full_lineage(self):
        store, rec = make_store()
        store.ingest(msg("a", 10.0, "b", 100.0, 40.0, msg_id=("a", 1)), now=12.5)
        lineage = store.lineage_of("a", "b")
        assert set(lineage) == {"a"}
        entry = lineage["a"]
        assert entry.reporter == "a"
        assert entry.msg_id == ("a", 1)
        assert entry.value == 100.0
        assert entry.reported_at == 10.0
        assert entry.received_at == 12.5
        assert entry.hops == 1
        assert entry.superseded == 0
        # The reverse direction (a's claimed download) is tracked too.
        assert store.lineage_of("b", "a")["a"].value == 40.0
        assert rec.claims_recorded == 2
        assert rec.claims_superseded == 0

    def test_msg_id_falls_back_to_sender_and_time(self):
        store, _ = make_store()
        store.ingest(msg("a", 10.0, "b", 1.0, 0.0))  # unstamped message
        assert store.lineage_of("a", "b")["a"].msg_id == ("a", 10.0)

    def test_received_at_defaults_to_creation_time(self):
        store, _ = make_store()
        store.ingest(msg("a", 10.0, "b", 1.0, 0.0))
        assert store.lineage_of("a", "b")["a"].received_at == 10.0

    def test_supersede_increments_and_points_at_new_message(self):
        store, rec = make_store()
        store.ingest(msg("a", 10.0, "b", 100.0, 0.0, msg_id=("a", 1)))
        store.ingest(msg("a", 20.0, "b", 250.0, 0.0, msg_id=("a", 2)))
        entry = store.lineage_of("a", "b")["a"]
        assert entry.msg_id == ("a", 2)
        assert entry.value == 250.0
        assert entry.superseded == 1
        assert rec.claims_superseded >= 1

    def test_equal_value_confirmation_refreshes_lineage(self):
        store, _ = make_store()
        store.ingest(msg("a", 10.0, "b", 100.0, 0.0, msg_id=("a", 1)))
        store.ingest(msg("a", 20.0, "b", 100.0, 0.0, msg_id=("a", 2)))
        entry = store.lineage_of("a", "b")["a"]
        # The fresher confirming message becomes the lineage anchor even
        # though the value (and hence the materialized edge) is unchanged.
        assert entry.msg_id == ("a", 2)
        assert entry.reported_at == 20.0
        assert entry.superseded == 1

    def test_stale_and_redelivered_copies_leave_lineage_untouched(self):
        store, rec = make_store()
        store.ingest(msg("a", 20.0, "b", 100.0, 0.0, msg_id=("a", 2)), now=21.0)
        before = store.lineage_of("a", "b")["a"]
        store.ingest(msg("a", 10.0, "b", 50.0, 0.0, msg_id=("a", 1)))  # stale
        store.ingest(msg("a", 20.0, "b", 100.0, 0.0, msg_id=("a", 2)))  # dup
        assert store.lineage_of("a", "b")["a"] == before
        # One record claims both directions, so each bad copy counts twice.
        assert rec.stale_dropped == 2
        assert rec.redeliveries_ignored == 2

    def test_restatement_after_a_one_sided_tie_keeps_counts_apart(self):
        """Each direction holds its own message and count: a tie the upload
        won moves only the upload's, and a later restatement — general or
        by wire identity — moves both messages and bumps each count."""
        store, _ = make_store()

        def directions():
            up, down = store.lineage_of("a", "b")["a"], store.lineage_of("b", "a")["a"]
            return [(e.msg_id, e.received_at, e.superseded) for e in (up, down)]

        store.ingest(msg("a", 10.0, "b", 100.0, 40.0, msg_id=("a", 1)), now=11.0)
        store.ingest(msg("a", 10.0, "b", 150.0, 40.0, msg_id=("a", 2)), now=12.0)
        assert directions() == [(("a", 2), 12.0, 1), (("a", 1), 11.0, 0)]
        record = HistoryRecord("b", 150.0, 40.0)
        store.ingest(BarterCastMessage("a", 20.0, (record,), msg_id=("a", 3)), now=25.0)
        assert directions() == [(("a", 3), 25.0, 2), (("a", 3), 25.0, 1)]
        store.ingest(BarterCastMessage("a", 30.0, (record,), msg_id=("a", 4)), now=31.0)
        assert directions() == [(("a", 4), 31.0, 3), (("a", 4), 31.0, 2)]
        assert store.claim_of("a", "a", "b") == 150.0

    def test_churn_wipe_removes_lineage(self):
        store, rec = make_store()
        store.ingest(msg("a", 10.0, "b", 100.0, 40.0))
        assert store.forget_reporter("a") == 2
        assert store.lineage_of("a", "b") == {}
        assert rec.claims_forgotten == 2

    def test_provenance_off_stores_no_lineage(self):
        store, _ = make_store(provenance=False)
        assert not store.provenance_enabled
        store.ingest(msg("a", 10.0, "b", 100.0, 40.0, msg_id=("a", 1)))
        assert store.lineage_of("a", "b") == {}
        # ... while the view itself is identical to the provenance-on one.
        assert store.claim_of("a", "a", "b") == 100.0

    def test_null_recorder_is_inert(self):
        assert not NULL_PROVENANCE.enabled
        assert isinstance(NULL_PROVENANCE, NullProvenanceRecorder)
        NULL_PROVENANCE.fold(2, 1, 1, 1)
        NULL_PROVENANCE.trace_claim("me", "a", "b", "a", (None, 0.0), 0)
        NULL_PROVENANCE.record_forget("me", "a", 5)
        assert NULL_PROVENANCE.claims_recorded == 0
        assert NULL_PROVENANCE.claims_forgotten == 0

    def test_totals_snapshot_delta(self):
        store, recorder = make_store()
        store.ingest(msg("a", 10.0, "b", 100.0, 40.0))
        totals = recorder.summary()
        assert totals["claims_recorded"] == 2
        assert totals["stale_dropped"] == 0  # each event counted once, here


# ---------------------------------------------------------------------------
# Lineage replay reconstructs the subjective graph (the tentpole property)
# ---------------------------------------------------------------------------
class TestLineageReplay:
    @staticmethod
    def assert_replay_reconstructs(sim):
        checked = 0
        for node in sim.nodes.values():
            shared = node.shared
            assert shared.provenance_enabled
            for src, dst in shared.known_edges():
                lineage = shared.lineage_of(src, dst)
                # Every live claim must carry lineage (provenance was on
                # from t=0), and replaying the recorded claim values —
                # max over reporters — must land exactly on the
                # materialized subjective edge.
                reconstructed = max(
                    (entry.value for entry in lineage.values()), default=0.0
                )
                assert reconstructed == node.graph.capacity(src, dst)
                for entry in lineage.values():
                    assert entry.hops == 1
                    assert entry.received_at >= entry.reported_at
                checked += 1
        assert checked > 0

    def test_replay_on_clean_run(self):
        sim = build_simulation(ScenarioConfig.tiny().with_provenance())
        sim.run()
        self.assert_replay_reconstructs(sim)

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        loss=st.floats(min_value=0.0, max_value=0.7),
        duplicate=st.floats(min_value=0.0, max_value=0.5),
        delay=st.floats(min_value=0.0, max_value=600.0),
        churn=st.floats(min_value=0.0, max_value=6.0),
    )
    def test_replay_under_random_fault_schedules(
        self, seed, loss, duplicate, delay, churn
    ):
        faults = FaultConfig(
            loss=loss,
            duplicate=duplicate,
            delay_max=delay,
            churn_rate=churn,
            churn_wipe_prob=0.5 if churn else 0.0,
        )
        scenario = (
            ScenarioConfig.tiny(seed=seed % 97).with_faults(faults).with_provenance()
        )
        sim = build_simulation(scenario)
        sim.run()
        self.assert_replay_reconstructs(sim)
        # The fault auditor's lineage invariant (reconstruction + honest
        # envelope per claim) must agree.
        assert audit_simulation(sim, max_rep_targets=3) == []

    def test_delay_shows_up_in_received_at(self):
        faults = FaultConfig(delay_max=600.0)
        sim = build_simulation(
            ScenarioConfig.tiny().with_faults(faults).with_provenance()
        )
        sim.run()
        lags = [
            entry.received_at - entry.reported_at
            for node in sim.nodes.values()
            for src, dst in node.shared.known_edges()
            for entry in node.shared.lineage_of(src, dst).values()
        ]
        assert lags and max(lags) > 0.0
        assert all(lag >= 0.0 for lag in lags)


# ---------------------------------------------------------------------------
# Flow attribution: recorded paths vs oracles
# ---------------------------------------------------------------------------
class TestPathAttribution:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_paths_sum_to_value_and_match_oracle(self, g):
        result = two_hop_paths(g, 0, 1)
        # Bit-exact: the paths are the terms the closed form summed.
        assert sum(p.flow for p in result.paths) == result.value
        # ... and the reference model's scan, path for path.
        assert (result.value, result.paths) == model.two_hop(g, 0, 1)
        assert result.value == maxflow_two_hop(g, 0, 1).value

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_paths_are_edge_disjoint_with_valid_bottlenecks(self, g):
        result = two_hop_paths(g, 0, 1)
        seen = set()
        for path in result.paths:
            assert path.flow > 0.0
            assert 2 <= len(path.nodes) <= 3
            edges = list(zip(path.nodes, path.nodes[1:]))
            for edge in edges:
                assert edge not in seen  # 2-hop paths are edge-disjoint
                seen.add(edge)
            assert path.bottleneck in edges
            assert len(path.residuals) == len(edges)
            bn_residual = path.residuals[edges.index(path.bottleneck)]
            assert bn_residual == pytest.approx(0.0, abs=1e-9)
            for (src, dst), residual in zip(edges, path.residuals):
                assert residual == pytest.approx(
                    g.capacity(src, dst) - path.flow
                    if (src, dst) == path.bottleneck
                    else residual
                )
                assert residual >= -1e-9

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_leave_one_out_is_exact_for_two_hop(self, g):
        result = two_hop_paths(g, 0, 1)
        for v, claimed in leave_one_out_values(result).items():
            pruned = graph_of(
                (s, t, w) for s, t, w in g.edges() if v not in (s, t)
            )
            for node in (0, 1):
                pruned.add_node(node)
            true_without = maxflow_two_hop(pruned, 0, 1).value
            assert claimed == pytest.approx(true_without, rel=1e-9, abs=1e-9)

    def test_loo_requires_recorded_paths(self):
        g = graph_of([("s", "t", 5.0)])
        with pytest.raises(ValueError):
            leave_one_out_values(maxflow_two_hop(g, "s", "t"))


# ---------------------------------------------------------------------------
# explain_reputation on a real simulation
# ---------------------------------------------------------------------------
class TestExplain:
    @pytest.fixture(scope="class")
    def sim(self):
        sim = build_simulation(ScenarioConfig.tiny().with_provenance())
        sim.run()
        return sim

    def find_gossip_explanation(self, sim):
        for node in sim.nodes.values():
            peers = [p for p in sim.nodes if p != node.peer_id]
            for subject in top_subjects(node, peers, 5):
                expl = explain_reputation(node, subject)
                if any(ev.origin == "gossip" and ev.lineage for ev in expl.evidence):
                    return expl
        pytest.fail("no explanation with gossip-backed lineage found")

    def test_decomposition_sums_to_flows(self, sim):
        node = next(iter(sim.nodes.values()))
        peers = [p for p in sim.nodes if p != node.peer_id]
        for subject in top_subjects(node, peers, 3):
            expl = explain_reputation(node, subject)
            assert sum(p.flow for p in expl.in_result.paths) == expl.inflow
            assert sum(p.flow for p in expl.out_result.paths) == expl.outflow
            assert -1.0 < expl.reputation < 1.0
            assert expl.to_json()["exact"]  # the 2-hop decomposition

    def test_lineage_attached_to_gossip_edges(self, sim):
        expl = self.find_gossip_explanation(sim)
        gossip = [ev for ev in expl.evidence if ev.origin == "gossip"]
        assert gossip and any(ev.lineage for ev in gossip)
        for ev in gossip:
            for entry in ev.lineage:
                assert entry.hops == 1
                # The materialized edge is the max over live claims.
                assert entry.value <= ev.value
        # Private edges are authoritative and never carry gossip lineage.
        for ev in expl.evidence:
            if ev.origin == "private":
                assert not ev.lineage
                assert expl.evaluator in (ev.src, ev.dst)

    def test_render_and_json(self, sim):
        expl = self.find_gossip_explanation(sim)
        text = render_explanation(expl)
        assert f"== R_{expl.evaluator}({expl.subject}):" in text
        assert "claim by" in text
        assert "bottleneck" in text
        doc = json.loads(json.dumps(expl.to_json()))
        assert doc["evaluator"] == expl.evaluator
        assert doc["inflow_bytes"] == expl.inflow
        assert any(e["lineage"] for e in doc["evidence"])

    def test_self_explanation_rejected(self, sim):
        node = next(iter(sim.nodes.values()))
        with pytest.raises(ValueError):
            explain_reputation(node, node.peer_id)

    def test_top_subjects_deterministic_and_bounded(self, sim):
        node = next(iter(sim.nodes.values()))
        peers = [p for p in sim.nodes if p != node.peer_id]
        first = top_subjects(node, peers, 4)
        assert first == top_subjects(node, peers, 4)
        assert len(first) == min(4, len(peers))


# ---------------------------------------------------------------------------
# Provenance never perturbs results (null-object discipline)
# ---------------------------------------------------------------------------
class TestProvenanceBitIdentity:
    def test_fig2_export_byte_identical_with_provenance(self, tmp_path):
        from repro.analysis.export import export_fig2, write_series
        from repro.experiments.fig2 import run_fig2

        outs = []
        for tag, scenario in (
            ("off", ScenarioConfig.tiny()),
            ("on", ScenarioConfig.tiny().with_provenance()),
        ):
            result = run_fig2(scenario, deltas=(-0.5,))
            paths = write_series(export_fig2(result), tmp_path / tag)
            outs.append({p.name: p.read_bytes() for p in paths})
        assert outs[0] == outs[1]

    def test_default_scenario_has_no_recorder(self):
        sim = build_simulation(ScenarioConfig.tiny())
        assert sim.provenance is None
        node = next(iter(sim.nodes.values()))
        assert not node.shared.provenance_enabled


# ---------------------------------------------------------------------------
# The recorder rule: totals count every claim, prov.claim traces the ones
# that changed a value
# ---------------------------------------------------------------------------
class _SpyGraph:
    """Stands in for a shared history's graph: logs every write the store
    attempts, with the edge's lineage as it is at that moment."""

    def __init__(self, shared, log):
        self._shared, self._graph, self._log = shared, shared._graph, log

    def set_transfer(self, src, dst, value):
        lineage = self._shared.lineage_of(src, dst)
        self._log.append((self._shared.owner, src, dst, lineage))
        self._graph.set_transfer(src, dst, value)

    def __getattr__(self, name):
        return getattr(self._graph, name)


class TestClaimTraceRule:
    # fig1 ``tiny`` at seed 3, as ``repro fig1 --provenance`` reports it.
    TOTALS = {
        "claims_recorded": 163_246,
        "claims_superseded": 157_902,
        "redeliveries_ignored": 15_296,
    }

    @staticmethod
    def traced(path, rate=1.0):
        from repro.obs import make_observability

        return make_observability(
            metrics=True, trace_path=path, trace_sample=rate, seed=3
        )

    def test_one_event_per_ingest_driven_graph_write(self, tmp_path):
        from repro.core.policies import NoPolicy
        from repro.obs import read_trace
        from repro.obs.provenance import _json_safe

        obs = self.traced(tmp_path / "run.jsonl")
        sim = build_simulation(
            ScenarioConfig.tiny(seed=3).with_provenance(), policy=NoPolicy(), obs=obs
        )
        writes = []
        for node in sim.nodes.values():
            node.shared._graph = _SpyGraph(node.shared, writes)
        sim.run()
        obs.close()
        _, events = read_trace(tmp_path / "run.jsonl")
        claims = [e for e in events if e["cat"] == "prov.claim"]
        counters = {
            name: int(snap["value"])
            for name, snap in obs.metrics.snapshot().items()
            if snap["type"] == "counter"
        }

        # Every claim is counted, wherever the totals are read ...
        summary = sim.provenance.summary()
        assert {k: v for k, v in summary.items() if v} == self.TOTALS
        assert {k: counters[f"prov.{k}"] for k in summary} == summary
        # ... and only those that reached the graph write are traced.
        assert len(claims) == len(writes) == 5500
        assert len(claims) <= 2 * counters["bc.records_applied"]
        assert len(claims) < summary["claims_recorded"] // 20
        for event, (owner, src, dst, lineage) in zip(claims, writes):
            attrs = event["attrs"]
            entry = lineage[attrs["reporter"]]
            assert attrs["owner"] == owner and attrs["edge"] == [src, dst]
            assert attrs["reporter"] in (src, dst)
            assert attrs["msg_id"] == _json_safe(entry.msg_id)
            assert attrs["superseded"] == entry.superseded
            assert event["sim"] == entry.received_at
            assert event["name"] == ("supersede" if entry.superseded else "record")

    def test_same_seed_runs_write_identical_streams(self, tmp_path):
        from repro.experiments import run_fig1
        from repro.obs import read_trace

        def run(path):
            obs = self.traced(path, rate=0.5)
            run_fig1(ScenarioConfig.tiny(seed=3).with_provenance(), obs=obs)
            obs.close()
            _, events = read_trace(path)
            return [(e["cat"], e["name"], e["sim"], e.get("attrs")) for e in events]

        first = run(tmp_path / "a.jsonl")
        assert first == run(tmp_path / "b.jsonl")
        assert any(cat == "prov.claim" for cat, _, _, _ in first)


# ---------------------------------------------------------------------------
# The CLI: repro explain
# ---------------------------------------------------------------------------
class TestExplainCli:
    def test_explain_prints_lineage_and_exact_decomposition(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        export = tmp_path / "explanations.json"
        code = main(
            [
                "explain",
                "--peer",
                "0",
                "--profile",
                "tiny",
                "--top-k",
                "3",
                "--metrics",
                "--export",
                str(export),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== R_0(" in out
        assert "claim by" in out  # at least one claim-lineage entry
        docs = json.loads(export.read_text())
        assert isinstance(docs, list) and docs
        for doc in docs:
            assert sum(p["flow"] for p in doc["in_paths"]) == doc["inflow_bytes"]
            assert sum(p["flow"] for p in doc["out_paths"]) == doc["outflow_bytes"]
        # The run manifest lands beside the export, not over it.
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "explain"
        assert "faults" not in manifest  # fault-free run omits the section
        assert manifest["metrics"]["prov.claims_recorded"]["value"] > 0
        assert "provenance_recorder" not in manifest.get("extra", {})

    def test_explain_unknown_peer_fails(self, capsys):
        from repro.cli import main

        assert main(["explain", "--peer", "99999", "--profile", "tiny"]) == 2
        assert "not in the population" in capsys.readouterr().err
