"""Tests for the fault-injection layer (channel, churn, auditor, sweep).

The three load-bearing guarantees:

* **default-off bit-identity** — with every fault knob at 0 the layer is
  never constructed, and a run is byte-identical (exports included) to a
  run without the layer;
* **the ground-truth envelope** — under arbitrary fault schedules no
  subjective view ever materializes an edge above the maximum honest
  claim, and reputations stay inside (−1, 1);
* **monotone degradation** — reputation coverage is non-increasing in
  the loss level (the channel draws the same uniforms at every level, so
  delivered-message sets are nested).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import BanPolicy
from repro.experiments.faults import assemble_faults, fault_tasks, run_fault_point
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.faults import (
    MAX_COPIES,
    ChannelModel,
    ChurnInjector,
    FaultConfig,
    audit_simulation,
    max_honest_claim,
)
from repro.parallel import run_sweep
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from tests.model import busy


def stream(seed=7, name="faults.channel"):
    return RngRegistry(seed).stream(name)


def run_faults(scenario, **grid):
    """The sweep over ``grid`` (``fault_tasks``' axes), run serially and
    assembled as the CLI does."""
    return assemble_faults(run_sweep(fault_tasks(scenario, **grid)), profile=scenario.name)


# ---------------------------------------------------------------------------
# FaultConfig
# ---------------------------------------------------------------------------
class TestFaultConfig:
    def test_default_is_null(self):
        assert FaultConfig().is_null
        assert not FaultConfig().has_channel_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 0.1},
            {"duplicate": 0.2},
            {"delay_max": 5.0},
            {"churn_rate": 1.0},
        ],
    )
    def test_any_knob_breaks_null(self, kwargs):
        assert not FaultConfig(**kwargs).is_null

    def test_churn_only_has_no_channel_faults(self):
        cfg = FaultConfig(churn_rate=2.0)
        assert not cfg.has_channel_faults
        assert not cfg.is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.1},
            {"loss": -0.1},
            {"duplicate": 1.1},
            {"duplicate": -0.1},
            {"delay_max": -1.0},
            {"churn_rate": -0.5},
            {"churn_downtime": 0.0},
            {"churn_wipe_prob": 1.5},
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs).validate()

    @pytest.mark.parametrize("kwargs", [{"loss": 1.0}, {"duplicate": 1.0}])
    def test_validate_accepts_extreme_knobs(self, kwargs):
        # Regression: loss=1.0 (blackout) and duplicate=1.0 (geometric
        # continuation saturating at MAX_COPIES) are valid extreme points
        # the fault sweep drives; validate() used to reject them.
        FaultConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# ChannelModel
# ---------------------------------------------------------------------------
class TestChannelModel:
    def test_faultless_config_delivers_exactly_once_inline(self):
        ch = ChannelModel(FaultConfig(), stream())
        for i in range(50):
            assert ch.plan_delivery("a", "b", float(i)) == [float(i)]
        assert ch.delivered == 50
        assert ch.dropped == ch.duplicated == ch.delayed == 0

    def test_loss_drops_roughly_at_rate(self):
        ch = ChannelModel(FaultConfig(loss=0.4), stream())
        n = 2000
        for i in range(n):
            ch.plan_delivery("a", "b", float(i))
        assert 0.3 < ch.dropped / n < 0.5
        assert ch.delivered + ch.dropped == n

    def test_duplication_bounded_by_cap(self):
        ch = ChannelModel(FaultConfig(duplicate=0.9), stream())
        for i in range(500):
            times = ch.plan_delivery("a", "b", float(i))
            assert 1 <= len(times) <= MAX_COPIES
        assert ch.duplicated > 0

    def test_delay_within_bound(self):
        cfg = FaultConfig(delay_max=30.0)
        ch = ChannelModel(cfg, stream())
        for i in range(200):
            now = float(i)
            for t in ch.plan_delivery("a", "b", now):
                assert now <= t <= now + cfg.delay_max

    def test_note_undeliverable_counts_drop(self):
        ch = ChannelModel(FaultConfig(delay_max=10.0), stream())
        ch.note_undeliverable("a", "b", 5.0)
        assert ch.dropped == 1

    def test_deterministic_across_instances(self):
        cfg = FaultConfig(loss=0.3, duplicate=0.2, delay_max=60.0)
        a = ChannelModel(cfg, stream(seed=11))
        b = ChannelModel(cfg, stream(seed=11))
        plans_a = [a.plan_delivery("x", "y", float(i)) for i in range(300)]
        plans_b = [b.plan_delivery("x", "y", float(i)) for i in range(300)]
        assert plans_a == plans_b


# ---------------------------------------------------------------------------
# ChurnInjector
# ---------------------------------------------------------------------------
class TestChurnInjector:
    def make(self, seed=5, **kwargs):
        cfg = FaultConfig(churn_rate=kwargs.pop("churn_rate", 24.0), **kwargs)
        engine = Simulator()
        events = []
        inj = ChurnInjector(
            cfg,
            engine,
            stream(seed=seed, name="faults.churn"),
            peers=list(range(10)),
            horizon=86400.0,
            on_down=lambda p, t: events.append(("down", p, t)),
            on_rejoin=lambda p, t, wiped: events.append(("up", p, t, wiped)),
        )
        engine.run_until(86400.0)
        return inj, events

    def test_crashes_and_rejoins_fire(self):
        inj, events = self.make()
        downs = [e for e in events if e[0] == "down"]
        ups = [e for e in events if e[0] == "up"]
        assert inj.crashes == len(downs) > 0
        assert len(ups) > 0
        assert 0 <= inj.wipes <= inj.crashes

    def test_rejoin_follows_crash(self):
        _, events = self.make()
        down_at = {}
        for e in events:
            if e[0] == "down":
                down_at[e[1]] = e[2]
            else:
                assert e[1] in down_at and e[2] >= down_at[e[1]]

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            ChurnInjector(
                FaultConfig(),
                Simulator(),
                stream(name="faults.churn"),
                peers=[0],
                horizon=10.0,
            )

    def test_deterministic_schedule(self):
        _, ev1 = self.make(seed=9)
        _, ev2 = self.make(seed=9)
        assert ev1 == ev2


# ---------------------------------------------------------------------------
# Default-off bit-identity
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_null_config_runs_byte_identical(self, tmp_path):
        from repro.analysis.export import export_fig1, write_series
        from repro.experiments.fig1 import run_fig1

        scenario = ScenarioConfig.tiny()
        outs = []
        for tag, faults in (("none", None), ("null", FaultConfig())):
            result = run_fig1(scenario.with_faults(faults))
            paths = write_series(export_fig1(result), tmp_path / tag)
            outs.append({p.name: p.read_bytes() for p in paths})
        assert outs[0] == outs[1]

    def test_null_config_skips_fault_layer(self):
        sim = build_simulation(ScenarioConfig.tiny().with_faults(FaultConfig()))
        assert sim.channel is None
        assert sim.churn is None
        # ... and therefore the fault RNG streams are never created, so
        # every other stream's draw sequence is untouched.

    def test_faulty_config_changes_results(self):
        base = build_simulation(ScenarioConfig.tiny())
        base.run()
        faulty = build_simulation(
            ScenarioConfig.tiny().with_faults(FaultConfig(loss=0.5))
        )
        faulty.run()
        edges = lambda sim: sum(
            len(list(n.graph.edges())) for n in sim.nodes.values()
        )
        assert edges(faulty) < edges(base)


# ---------------------------------------------------------------------------
# The invariant auditor, under random fault schedules
# ---------------------------------------------------------------------------
class TestAuditor:
    def test_max_honest_claim_reads_both_ledgers(self):
        from repro.core.history import PrivateHistory

        a, b = PrivateHistory("a"), PrivateHistory("b")
        a.record_upload("b", 100.0, now=1.0)
        b.record_download("a", 80.0, now=1.0)  # (partial observation)
        assert max_honest_claim({"a": a, "b": b}, "a", "b") == 100.0
        assert max_honest_claim({"a": a, "b": b}, "b", "a") == 0.0

    def test_clean_run_audits_clean(self):
        sim = build_simulation(ScenarioConfig.tiny())
        sim.run()
        assert audit_simulation(sim, max_rep_targets=5) == []

    def test_ban_run_audits_clean(self):
        # A run whose policy bans, so every transfer goes through the
        # ledger's write path while the choker filters: owner-incident
        # edges equal the private history (invariant 2), here bit for bit.
        sim = build_simulation(busy(3), policy=BanPolicy(-0.5))
        sim.run()
        assert sum(node.choke_banned for node in sim.nodes.values()) > 0
        assert audit_simulation(sim) == []
        for pid, node in sim.nodes.items():
            owner_edges = {(s, d): w for s, d, w in node.graph.edges() if pid in (s, d)}
            ledger = {}
            for peer, totals in node.history.items():
                if totals.uploaded:
                    ledger[(pid, peer)] = totals.uploaded
                if totals.downloaded:
                    ledger[(peer, pid)] = totals.downloaded
            assert owner_edges == ledger
        # The audit sees an owner edge drift off the ledger.
        node = next(n for n in sim.nodes.values() if any(t.uploaded for _, t in n.history.items()))
        peer = next(p for p, t in node.history.items() if t.uploaded)
        node.graph.set_transfer(node.peer_id, peer, node.history.totals(peer).uploaded * 1.000001)
        assert len(audit_simulation(sim)) == 1

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        loss=st.floats(min_value=0.0, max_value=0.8),
        duplicate=st.floats(min_value=0.0, max_value=0.5),
        delay=st.floats(min_value=0.0, max_value=600.0),
        churn=st.floats(min_value=0.0, max_value=6.0),
        connectable=st.floats(min_value=0.2, max_value=1.0),
    )
    def test_envelope_holds_under_random_fault_schedules(
        self, seed, loss, duplicate, delay, churn, connectable
    ):
        faults = FaultConfig(
            loss=loss, duplicate=duplicate, delay_max=delay, churn_rate=churn
        )
        # Connectability is the trace's: a peer pair with no connectable
        # end never exchanges data (hence no record of it to gossip).
        scenario = ScenarioConfig.tiny(seed=seed % 97).with_faults(faults)
        scenario = replace(
            scenario,
            trace_params=replace(scenario.trace_params, connectable_fraction=connectable),
        )
        sim = build_simulation(scenario)
        sim.run()
        # No fault combination may ever let a subjective view exceed the
        # honest-claim envelope or push a reputation out of (−1, 1).
        assert audit_simulation(sim, max_rep_targets=3) == []


# ---------------------------------------------------------------------------
# The sweep experiment
# ---------------------------------------------------------------------------
class TestFaultSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_faults(
            ScenarioConfig.tiny(), losses=(0.0, 0.3, 0.6), churn=0.0
        )

    def test_coverage_monotone_in_loss(self, sweep):
        cov = [p.coverage for p in sweep.points]
        assert cov == sorted(cov, reverse=True)
        assert cov[0] > cov[-1]  # 60% loss visibly degrades coverage

    def test_fault_free_point_has_silent_channel(self, sweep):
        p0 = sweep.points[0]
        assert p0.loss == 0.0
        assert p0.messages_dropped == 0
        assert p0.messages_delivered == 0  # no channel constructed at all

    def test_telemetry_tracks_loss(self, sweep):
        p1, p2 = sweep.points[1], sweep.points[2]
        assert p2.messages_dropped > p1.messages_dropped > 0

    def test_no_audit_violations(self, sweep):
        assert sweep.total_violations == 0

    def test_rates_are_probabilities(self, sweep):
        for p in sweep.points:
            assert 0.0 <= p.coverage <= 1.0
            assert 0.0 <= p.false_ban_rate <= 1.0
            assert 0.0 <= p.rank_inversion_rate <= 1.0

    def test_single_point_matches_sweep(self, sweep):
        point = run_fault_point(ScenarioConfig.tiny(), FaultConfig(loss=0.3))
        assert point == sweep.points[1]

    def test_export_shape(self, sweep):
        from repro.analysis.export import export_faults

        tables = export_faults(sweep)
        table = tables["faults_sweep"]
        assert len(table["rows"]) == 3
        assert len(table["header"]) == len(table["rows"][0])

    def test_report_renders(self, sweep):
        from repro.experiments.report import report_faults

        text = report_faults(sweep)
        assert "coverage" in text and "0 violation" in text


class TestChurnInSimulation:
    def test_churn_run_stays_within_envelope(self):
        faults = FaultConfig(churn_rate=4.0, churn_wipe_prob=1.0)
        sim = build_simulation(ScenarioConfig.tiny().with_faults(faults))
        sim.run()
        assert sim.churn is not None
        assert sim.churn.crashes > 0
        assert sim.churn.wipes == sim.churn.crashes
        assert audit_simulation(sim, max_rep_targets=3) == []

    def test_wipe_degrades_coverage(self):
        clean = run_fault_point(ScenarioConfig.tiny(), FaultConfig())
        churned = run_fault_point(
            ScenarioConfig.tiny(),
            FaultConfig(churn_rate=6.0, churn_wipe_prob=1.0),
        )
        assert churned.coverage < clean.coverage
        assert churned.crashes > 0


# ---------------------------------------------------------------------------
# Mechanism sweep: the engine grid over identical seeded schedules
# ---------------------------------------------------------------------------
class TestGoldenPin:
    """Values the `engine="bartercast"` sweep produced before the engine
    layer existed, captured on the tiny profile.  Exact equality (not
    approx): the default path must stay byte-identical through any
    refactor of the engine dispatch, the convergence sampler, or the
    sweep plumbing."""

    # (churn, loss) -> (coverage, false_ban, rank_inversion,
    #                   delivered, dropped, duplicated, delayed,
    #                   crashes, wipes, violations)
    GOLDEN = {
        (0.0, 0.0): (0.8738576390403887, 0.03296703296703297,
                     0.033854166666666664, 0, 0, 0, 0, 0, 0, 0),
        (0.0, 0.25): (0.8630495828631111, 0.03296703296703297,
                      0.033854166666666664, 7437, 2523, 0, 0, 0, 0, 0),
        (2.0, 0.0): (0.34353611224800246, 0.0, 0.05303030303030303,
                     0, 0, 0, 0, 43, 21, 0),
        (2.0, 0.25): (0.34353611224800246, 0.0, 0.05303030303030303,
                      6949, 2353, 0, 0, 43, 21, 0),
    }

    def test_default_engine_sweep_is_bit_identical_to_pre_engine_build(self):
        result = run_faults(
            ScenarioConfig.tiny(), losses=(0.0, 0.25), churn=(0.0, 2.0)
        )
        assert len(result.points) == len(self.GOLDEN)
        for p in result.points:
            assert p.engine == "bartercast"
            got = (
                p.coverage, p.false_ban_rate, p.rank_inversion_rate,
                p.messages_delivered, p.messages_dropped,
                p.messages_duplicated, p.messages_delayed,
                p.crashes, p.wipes, p.audit_violations,
            )
            assert got == self.GOLDEN[(p.churn, p.loss)]

        # The default sweep also keeps its historical export surface:
        # one table, the legacy name, no engine column.
        from repro.analysis.export import export_faults

        tables = export_faults(result)
        assert set(tables) == {"faults_sweep"}


class TestExtremeKnobs:
    """The fault harness at the edges of its knob ranges, per engine.

    Regressions for the sweep generalization: loss=1.0 (used to be
    rejected by validate), duplicate=1.0 (geometric continuation pinned
    at MAX_COPIES), and churn with near-immediate rejoin (downtime ≪
    gossip interval) must complete with a clean audit under every
    mechanism, and every measure must stay a well-defined probability —
    never NaN."""

    ENGINES = ("bartercast", "gossip", "ratio")

    def _check(self, point):
        assert point.audit_violations == 0
        for rate in (point.coverage, point.false_ban_rate,
                     point.rank_inversion_rate):
            assert 0.0 <= rate <= 1.0  # also fails on NaN
        assert point.convergence_time >= 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_total_blackout(self, engine):
        point = run_fault_point(
            ScenarioConfig.tiny(), FaultConfig(loss=1.0), engine=engine
        )
        assert point.messages_delivered == 0
        assert point.messages_dropped > 0
        self._check(point)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_duplication_cap_saturation(self, engine):
        point = run_fault_point(
            ScenarioConfig.tiny(), FaultConfig(duplicate=1.0), engine=engine
        )
        # Every message spawns copies up to the cap: exactly
        # MAX_COPIES - 1 duplicates per delivered original.
        assert point.messages_duplicated > 0
        assert point.messages_delivered == point.messages_duplicated + (
            point.messages_delivered // MAX_COPIES
        )
        self._check(point)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_churn_with_immediate_rejoin(self, engine):
        point = run_fault_point(
            ScenarioConfig.tiny(),
            FaultConfig(churn_rate=6.0, churn_downtime=1.0,
                        churn_wipe_prob=1.0),
            engine=engine,
        )
        assert point.crashes > 0
        self._check(point)


class TestMechanismSweep:
    @pytest.fixture(scope="class")
    def zoo(self):
        return run_faults(
            ScenarioConfig.tiny(),
            losses=(0.0, 0.25),
            churn=0.0,
            engines=("bartercast", "gossip", "ratio"),
        )

    def test_engines_grouped_in_registry_order(self, zoo):
        assert zoo.engines == ("bartercast", "gossip", "ratio")
        for engine in zoo.engines:
            assert [p.loss for p in zoo.points_for(engine)] == [0.0, 0.25]

    def test_identical_schedules_identical_coverage(self, zoo):
        # Under NoPolicy the engines are never consulted during the run,
        # so the byte flow — and therefore graph coverage — is identical
        # across mechanisms by construction.
        base = [p.coverage for p in zoo.points_for("bartercast")]
        for engine in ("gossip", "ratio"):
            assert [p.coverage for p in zoo.points_for(engine)] == base

    def test_mechanisms_disagree_on_bans(self, zoo):
        fban = {
            engine: zoo.points_for(engine)[0].false_ban_rate
            for engine in zoo.engines
        }
        # The ratio floor bans peers maxflow tolerates; if the rates were
        # equal the per-engine threshold translation would be dead code.
        assert fban["ratio"] != fban["bartercast"]

    def test_no_audit_violations_any_engine(self, zoo):
        assert zoo.total_violations == 0

    def test_rival_single_point_matches_sweep(self, zoo):
        point = run_fault_point(
            ScenarioConfig.tiny(), FaultConfig(loss=0.25), engine="ratio"
        )
        assert point == zoo.points_for("ratio")[1]

    def test_rival_task_ids_are_namespaced(self):
        from repro.experiments.faults import fault_tasks

        tasks = fault_tasks(
            ScenarioConfig.tiny(), losses=(0.0,), churn=0.0,
            engines=("bartercast", "ratio"),
        )
        ids = [t.task_id for t in tasks]
        assert ids == ["faults/loss0_churn0", "faults/ratio/loss0_churn0"]
        assert "engine" not in tasks[0].params  # historical task spec intact
        assert tasks[1].params["engine"] == "ratio"

    def test_export_one_table_per_engine(self, zoo):
        from repro.analysis.export import export_faults

        tables = export_faults(zoo)
        assert set(tables) == {
            "faults_sweep", "faults_sweep_gossip", "faults_sweep_ratio",
        }
        for table in tables.values():
            assert len(table["rows"]) == 2
            assert "convergence_time_s" in table["header"]

    def test_report_has_per_mechanism_sections(self, zoo):
        from repro.experiments.report import report_faults

        text = report_faults(zoo)
        for engine in zoo.engines:
            assert f"mechanism: {engine}" in text
        assert "converge-s" in text
