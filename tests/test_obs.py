"""Tests for the observability subsystem (metrics, traces, manifests).

Covers the registry semantics, the null-object disabled path, trace JSONL
schema round-trips, sampling determinism, manifest content, and the
headline guarantee: a fully instrumented run produces numerically
identical figure series to an uninstrumented one.
"""

import json
import math
import zlib
from random import Random

import numpy as np
import pytest

from repro.experiments import ScenarioConfig, run_fig1
from repro.obs import (
    MANIFEST_SCHEMA,
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    TRACE_SCHEMA,
    ManifestBuilder,
    MetricsRegistry,
    Observability,
    TraceEmitter,
    make_observability,
    parse_sample_spec,
    read_manifest,
    read_trace,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("msgs") == 5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("msgs")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("size")
        g.set(7)
        g.set(3)
        g.inc(2)
        assert g.value == 5


class TestRegistry:
    def test_memoizes_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1)
        snap = reg.snapshot()
        assert snap == {
            "c": {"type": "counter", "value": 2.0},
            "g": {"type": "gauge", "value": 1.0},
        }
        assert json.dumps(snap)  # JSON-safe

    def test_null_registry_is_noop(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.publish({}, {"a": 100}, {"g": 5})
        NULL_METRICS.merge({"a": {"type": "counter", "value": 1.0}})
        assert NULL_METRICS.names() == []

    def test_publish_writes_what_changed_since_the_last_publish(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(0.1)
        bases = {}
        reg.publish(bases, {"c": 0.2, "n": 3}, {"g": 4})
        reg.publish(bases, {"c": 0.2, "n": 5}, {"g": 4})
        # Every value is the one before the first publish plus the total.
        assert reg.snapshot() == {
            "c": {"type": "counter", "value": 0.1 + 0.2},
            "g": {"type": "gauge", "value": 4.0},
            "n": {"type": "counter", "value": 5.0},
        }
        other = {}
        reg.publish(other, {"n": 2})
        assert reg.value("n") == 7


class TestTrace:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "trace.jsonl"
        tracer = TraceEmitter(path, seed=7)
        cat = tracer.category("bt.transfer")
        assert cat.sample()
        cat.emit_sampled("piece", sim_time=60.0, attrs={"up": 1, "bytes": 4096.0})
        assert cat.sample()
        cat.emit_sampled("piece", sim_time=120.0, duration_s=0.25)
        tracer.close()
        header, events = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["seed"] == 7
        assert len(events) == 2
        first = events[0]
        assert first["seq"] == 1
        assert first["cat"] == "bt.transfer"
        assert first["name"] == "piece"
        assert first["sim"] == 60.0
        assert first["dur"] is None
        assert first["attrs"] == {"up": 1, "bytes": 4096.0}
        assert events[1]["seq"] == 2
        assert events[1]["dur"] == 0.25
        assert "attrs" not in events[1]

    def test_kept_encoder_writes_json_dumps_bytes(self, tmp_path):
        """One encoder per emitter, the bytes of a ``json.dumps`` per event."""
        from repro.obs.trace import _json_default

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        events = [
            ("prov.claim", "record", 1.5, {"edge": [(1, "a"), 2], "msg_id": (3, 7)}, None),
            ("bc.msg", "send", 1e-7, {"bytes": 0.1 + 0.2, "big": 1e300, "nan": math.nan}, 0.25),
            ("x", "numpy", None, {"v": np.float64(2.5), "i": np.int64(4)}, None),
            ("x", "opaque", math.inf, {"o": Opaque(), "s": {1, 2}, "ü": "é"}, None),
            ("x", "bare", 3, None, 1 / 3),
        ]
        path = tmp_path / "trace.jsonl"
        tracer = TraceEmitter(path)
        for cat, name, sim, attrs, dur in events:
            tracer._write(cat, name, sim, attrs, dur)
        tracer.close()
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(events)
        for seq, (line, (cat, name, sim, attrs, dur)) in enumerate(zip(lines, events), 1):
            record = {
                "seq": seq,
                "cat": cat,
                "name": name,
                "wall": json.loads(line)["wall"],
                "sim": sim,
                "dur": round(dur, 6) if dur is not None else None,
            }
            if attrs:
                record["attrs"] = attrs
            assert line == json.dumps(record, default=_json_default)

    def test_sampling_deterministic(self, tmp_path):
        def kept(seed):
            tracer = TraceEmitter(tmp_path / f"{seed}.jsonl", 0.3, seed=seed)
            cat = tracer.category("bt.round")
            return [cat.sample() for _ in range(200)], tracer.records_sampled_out

        decisions, sampled_out = kept(11)
        assert kept(11) == (decisions, sampled_out)
        assert kept(12)[0] != decisions
        assert sampled_out == decisions.count(False)
        assert 0.1 < sum(decisions) / 200 < 0.5
        # One draw per decision from the category's own stream, so which
        # events survive depends only on the seed and the emission order.
        stream = Random((11 << 32) ^ zlib.crc32(b"bt.round"))
        assert decisions == [stream.random() < 0.3 for _ in range(200)]

    def test_rate_zero_and_one(self, tmp_path):
        tracer = TraceEmitter(tmp_path / "t.jsonl", {"off": 0.0})
        off, on = tracer.category("off"), tracer.category("on")
        states = off._rng.getstate(), on._rng.getstate()
        assert not off.sample()
        assert on.sample()
        on.emit_sampled("x")
        # Neither rate consumes a draw.
        assert (off._rng.getstate(), on._rng.getstate()) == states
        assert tracer.records_written == 1
        assert tracer.records_sampled_out == 1

    def test_read_trace_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(ValueError):
            read_trace(path)

    def test_null_tracer_is_noop(self):
        assert not NULL_TRACER.enabled
        cat = NULL_TRACER.category("cat")
        assert not cat.sample()
        cat.emit_sampled("name", 1.0, attrs={"a": 1}, duration_s=0.5)
        NULL_TRACER.flush()
        NULL_TRACER.close()
        assert NULL_TRACER.records_written == NULL_TRACER.records_sampled_out == 0


class TestObservabilityBundle:
    def test_null_obs_disabled(self):
        assert not NULL_OBS.metrics.enabled and not NULL_OBS.tracer.enabled
        NULL_OBS.close()  # no-op

    def test_make_observability_defaults_to_null(self):
        # Always a fresh bundle, but every leg is the shared null object.
        off = make_observability()
        assert not off.metrics.enabled
        assert off.spec() == {} == NULL_OBS.spec()

    def test_bundle_holds_only_what_its_own_runs_recorded(self):
        from repro.experiments.scenario import build_simulation

        a = make_observability(metrics=True)
        build_simulation(ScenarioConfig.tiny(seed=3).with_provenance(), obs=NULL_OBS).run()
        assert a.snapshot() == {"metrics": {}}
        assert dict(a.notes()) == {}

    def test_make_observability_metrics_only(self):
        obs = make_observability(metrics=True)
        assert obs.metrics.enabled
        assert not obs.tracer.enabled

    def test_make_observability_trace(self, tmp_path):
        obs = make_observability(
            trace_path=tmp_path / "t.jsonl", trace_sample="0.5,bt.transfer=0.1"
        )
        assert obs.tracer.enabled
        assert obs.tracer.default_rate == 0.5
        assert obs.tracer.sample_rates == {"bt.transfer": 0.1}
        obs.close()

    def test_parse_sample_spec(self):
        assert parse_sample_spec("0.1") == (0.1, {})
        assert parse_sample_spec("0.05,bt.transfer=0.01,sim.event=0") == (
            0.05,
            {"bt.transfer": 0.01, "sim.event": 0.0},
        )
        with pytest.raises(ValueError):
            parse_sample_spec("1.5")
        with pytest.raises(ValueError):
            parse_sample_spec("bt.transfer=nope")


class TestManifest:
    def test_manifest_content(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("bc.messages_sent").inc(3)
        builder = ManifestBuilder(
            "fig1", args={"profile": "tiny"}, profile="tiny", seed=3
        )
        with builder.phase("simulate"):
            pass
        builder.note("note_key", {"nested": (1, 2)})
        path = builder.write(tmp_path, metrics=reg, tracer=NULL_TRACER)
        doc = read_manifest(path)
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["command"] == "fig1"
        assert doc["profile"] == "tiny"
        assert doc["seed"] == 3
        assert doc["args"] == {"profile": "tiny"}
        assert "simulate" in doc["wall_seconds_by_phase"]
        assert doc["metrics"]["bc.messages_sent"]["value"] == 3.0
        assert doc["trace"] is None
        assert doc["extra"]["note_key"] == {"nested": [1, 2]}
        assert doc["package_version"]
        assert doc["python"]

    def test_manifest_dir_vs_file_destination(self, tmp_path):
        builder = ManifestBuilder("fig2")
        p1 = builder.write(tmp_path / "out")
        assert p1.name == "run_manifest.json"
        p2 = builder.write(tmp_path / "custom.json")
        assert p2.name == "custom.json"
        assert read_manifest(p2)["command"] == "fig2"

    def test_faults_section_present_only_when_set(self, tmp_path):
        from repro.faults import FaultConfig

        plain = ManifestBuilder("fig1")
        assert "faults" not in read_manifest(plain.write(tmp_path / "plain"))

        faulty = ManifestBuilder("fig1")
        faulty.set_faults(FaultConfig(loss=0.2, churn_rate=1.5, delay_max=30.0))
        doc = read_manifest(faulty.write(tmp_path / "faulty"))
        assert doc["faults"]["loss"] == 0.2
        assert doc["faults"]["churn_rate"] == 1.5
        assert doc["faults"]["delay_max"] == 30.0
        assert doc["faults"]["duplicate"] == 0.0

    def test_read_manifest_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError):
            read_manifest(path)


class TestReport:
    def test_disabled_note(self):
        assert "disabled" in NULL_METRICS.render()

    def test_report_sections(self):
        reg = MetricsRegistry()
        reg.counter("bc.messages_sent").inc(100)
        reg.gauge("rep.cache.hits").set(90)
        reg.gauge("rep.cache.misses").set(10)
        reg.counter("sim.events").inc(1000)
        reg.counter("rep.kernel.calls").inc(7)
        reg.counter("rep.kernel.targets").inc(21)
        out = reg.render()
        assert "bc.messages_sent" in out
        assert "90.0%" in out  # cache hit rate
        assert "events/sec" not in out and "timer" not in out  # time is --prof's
        assert "reputation evaluations: 7, 21 targets scored" in out
        assert "2-hop kernel" not in out  # no kernel gauge, no kernel line
        reg.gauge("rep.kernel.maxflow_two_hop_batch_targets").set(15)
        reg.gauge("rep.kernel.maxflow_two_hop").set(4)
        assert (
            "2-hop kernel reached by: 15 batched targets, 4 scalar flows" in reg.render()
        )


class TestInstrumentedRunIdentical:
    def test_fig1_tiny_bit_identical(self, tmp_path):
        scenario = ScenarioConfig.tiny(seed=3)
        plain = run_fig1(scenario)
        obs = make_observability(
            metrics=True,
            trace_path=tmp_path / "trace.jsonl",
            trace_sample="0.5,bt.transfer=0.25",
            seed=3,
        )
        instrumented = run_fig1(scenario, obs=obs)
        obs.close()

        np.testing.assert_array_equal(
            plain.sharer_reputation, instrumented.sharer_reputation
        )
        np.testing.assert_array_equal(
            plain.freerider_reputation, instrumented.freerider_reputation
        )
        np.testing.assert_array_equal(
            plain.net_contribution_gb, instrumented.net_contribution_gb
        )
        np.testing.assert_array_equal(
            plain.system_reputation, instrumented.system_reputation
        )
        assert plain.spearman == instrumented.spearman
        assert plain.pearson == instrumented.pearson

        # The instrumented leg actually recorded something.
        reg = obs.metrics
        assert reg.value("sim.events") > 0
        assert reg.value("bt.rounds") > 0
        assert reg.value("bc.messages_sent") > 0
        header, events = read_trace(tmp_path / "trace.jsonl")
        assert header["schema"] == TRACE_SCHEMA
        assert events
        cats = {e["cat"] for e in events}
        assert "sim.event" in cats

    def test_trace_sampling_reproducible_across_runs(self, tmp_path):
        def run(path):
            obs = make_observability(trace_path=path, trace_sample=0.3, seed=9)
            run_fig1(ScenarioConfig.tiny(seed=3), obs=obs)
            obs.close()
            _, events = read_trace(path)
            return [(e["cat"], e["name"], e["sim"]) for e in events]

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class TestLazyTraceAttrs:
    """A site builds its attrs only after ``sample()`` kept the event."""

    def test_null_category_sample_is_false(self):
        from repro.obs import NULL_TRACER

        cat = NULL_TRACER.category("anything")
        assert cat.sample() is False
        cat.emit_sampled("never", 0.0)  # must be a harmless no-op


class TestManifestReport:
    """repro report: rendering stored manifests, degrading gracefully."""

    def _doc(self, **overrides):
        doc = {
            "schema": MANIFEST_SCHEMA,
            "command": "fig2",
            "profile": "tiny",
            "seed": 3,
            "wall_seconds_total": 2.5,
            "wall_seconds_by_phase": {"fig2": 2.0, "export": 0.5},
        }
        doc.update(overrides)
        return doc

    def test_minimal_manifest_renders(self):
        from repro.obs.report import render_manifest_report

        out = render_manifest_report(self._doc())
        assert "== Run: fig2 ==" in out
        assert "profile tiny" in out and "seed 3" in out
        assert "2.00s" in out  # phase table

    def test_missing_provenance_and_network_sections(self):
        from repro.obs.report import render_manifest_report

        reg = MetricsRegistry()
        reg.counter("bc.messages_sent").inc(10)
        out = render_manifest_report(self._doc(metrics=reg.snapshot()))
        assert "provenance" not in out
        assert "network" not in out  # no net.* counters -> section hidden
        assert "bc.messages_sent" in out

    def test_zero_sample_histogram_nan_safe(self):
        from repro.obs.report import render_profile

        kernels = {
            "empty": {"count": 0, "wall_s": 0.0, "max_s": None},
            "merged": {"count": 5, "wall_s": 1.0, "max_s": float("nan")},
            "unbounded": {"count": 2, "wall_s": 0.5, "max_s": None},
        }
        out = render_profile({"kernels": kernels})
        assert "empty" not in out  # zero-count cells are elided
        for label in ("merged", "unbounded"):
            row = next(l for l in out.splitlines() if label in l)
            assert row.rstrip().endswith("-")  # NaN / None max renders "-"

    def test_fmt_seconds_none_safe(self):
        from repro.obs.report import _fmt_seconds

        assert _fmt_seconds(None) == "-"
        assert _fmt_seconds(float("nan")) == "-"
        assert _fmt_seconds(1.5) == "1.50s"
        assert _fmt_seconds(0.0015) == "1.50ms"

    def test_profile_and_timeseries_sections(self):
        from repro.obs.profile import Profiler
        from repro.obs.report import render_manifest_report

        prof = Profiler()
        with prof.phase("bt.round"):
            pass
        prof.observe_kernel("bartercast.batch", 1e-4)
        ts = {
            "interval_s": None,
            "series": [{
                "label": "fig2/rank", "samples": 12, "samples_dropped": 0,
                "final": {"t": 86400.0, "coverage": 0.5,
                          "rank_inversion_rate": 0.0, "cache_hit_rate": 0.9},
            }],
        }
        out = render_manifest_report(
            self._doc(extra={"profile": prof.summary(), "timeseries": ts})
        )
        assert "== Profile ==" in out
        assert "bt.round" in out and "bartercast.batch" in out
        assert "== Timeseries ==" in out
        assert "fig2/rank" in out and "0.500" in out


@pytest.mark.parametrize("engine", ["bartercast", "gossip", "ratio"])
def test_profile_counts_are_the_nodes_evaluations(engine):
    """The profiler times every engine where the node evaluates it: one
    cell observation per ``rep.kernel.calls`` increment, labelled by the
    engine, whichever engine scores."""
    from repro.experiments.fig2 import run_fig2_policy

    obs = make_observability(metrics=True, profile=True)
    scenario = ScenarioConfig.tiny(seed=3).with_engine(engine)
    run_fig2_policy(scenario, "ban", delta=-0.5, obs=obs)
    kernels = obs.profiler.summary()["kernels"]
    calls = obs.metrics.value("rep.kernel.calls")
    assert calls > 0
    assert sum(cell["count"] for cell in kernels.values()) == calls
    assert all(label.startswith(f"{engine}.") for label in kernels)


# ----------------------------------------------------------------------
# The leg lifecycle: inline ≡ mirror + snapshot + merge, for every leg
# ----------------------------------------------------------------------
def _counts_only(section):
    """Wall-clock aggregates reduced to what must repeat: call counts."""
    return {name: entry["count"] for name, entry in section.items()}


def _stable_profile(summary):
    return {k: _counts_only(summary[k]) for k in ("phases", "events", "kernels")}


#: leg (bundle field) -> (what of its summary() must repeat exactly,
#: what the summary of the tiny run below must additionally show).  The
#: second column keeps the assertions of the per-leg worker-parity tests
#: this case grew out of.
LEG_CASES = {
    "metrics": (
        lambda s: s,
        lambda s: s["sim.events"]["value"] > 0
        and s["prov.claims_recorded"]["value"] > 0
        and s["rep.kernel.maxflow_two_hop_batch"]["value"] > 0,
    ),
    "timeseries": (
        lambda s: s,
        lambda s: [e["label"] for e in s["series"]] == ["fig1"]
        and {"gossip_exchanges", "bt_bytes"} <= set(s["series"][0]["final"]),
    ),
    "dissemination": (
        lambda s: s,
        lambda s: s["runs"][0]["label"] == "fig1"
        and s["runs"][0]["events"]["deliver"] > 0
        and s["runs"][0]["events"]["drop"] > 0,
    ),
    "profiler": (
        _stable_profile,
        lambda s: s["phases"]["bt.round"]["count"] > 0
        and s["kernels"]["bartercast.batch"]["count"] > 0,
    ),
}


def _echo(i, obs):
    return {"i": i}


class TestLegLifecycle:
    @pytest.fixture(scope="class")
    def sides(self, tmp_path_factory):
        """One tiny faulted, provenance-on fig1 task, recorded twice with
        every leg on: straight into a bundle (the ``--jobs 1`` path), and
        in a worker process against a fresh mirror whose snapshot is
        merged home.  Per side and leg: ``(summary, {file name: bytes})``."""
        from repro.experiments import fig1_task
        from repro.faults import FaultConfig
        from repro.parallel import ParallelRunner, execute_task

        scenario = ScenarioConfig.tiny(seed=3).with_provenance()
        task = fig1_task(scenario.with_faults(FaultConfig(loss=0.2, churn_rate=2.0)))

        def bundle():
            return make_observability(
                metrics=True, profile=True, timeseries=-1.0, dissemination=True
            )

        def views(obs, side):
            out = {}
            for leg in LEG_CASES:
                paths = getattr(obs, leg).export(tmp_path_factory.mktemp(side))
                out[leg] = (
                    getattr(obs, leg).summary(),
                    {p.name: p.read_bytes() for p in paths},
                )
            return out

        inline = bundle()
        plain = execute_task(task, inline)
        assert plain.obs == {}  # recorded in place; nothing to ship
        inline_views = views(inline, "inline")

        merged = bundle()
        runner = ParallelRunner(jobs=2, obs=merged)
        (result,) = runner.run([task])
        assert runner.last_run_info["mode"] == "pool"
        np.testing.assert_array_equal(
            plain.payload.sharer_reputation, result.payload.sharer_reputation
        )
        # The snapshot holds every live leg — none can be left behind.
        assert set(result.obs) == set(merged.spec()) == set(LEG_CASES)
        return inline_views, views(merged, "merged"), merged

    @pytest.mark.parametrize("leg", sorted(LEG_CASES))
    def test_inline_equals_mirror_snapshot_merge(self, sides, leg):
        stable, shows = LEG_CASES[leg]
        (inline, inline_files), (merged, merged_files) = sides[0][leg], sides[1][leg]
        assert shows(inline), inline
        assert stable(inline) == stable(merged)
        # Phase spans are wall-clock offsets on one process's clock: they
        # are never shipped, so only the in-process profiler exports them.
        own_clock = {"profile_chrome.json"} if leg == "profiler" else set()
        assert set(inline_files) - own_clock == set(merged_files)
        assert all(inline_files[name] == data for name, data in merged_files.items())
        assert bool(merged_files) == (leg in ("timeseries", "dissemination"))

    def test_bundle_loops_cover_the_same_legs(self, sides, tmp_path):
        merged = sides[2]
        assert dict(merged.notes()).keys() == {"timeseries", "dissemination", "profile"}
        sections = [text.splitlines()[0] for text in merged.renders()]
        assert sections == ["== Metrics ==", "== Profile =="]
        exported = sorted(p.name for p in merged.export(tmp_path))
        assert exported == [
            "dissemination.json", "dissemination_fig1.csv",
            "timeseries.json", "timeseries_fig1.csv",
        ]

    def test_collect_records_against_a_fresh_mirror(self):
        from repro.parallel import SweepTask, execute_task

        obs = make_observability(metrics=True)
        obs.metrics.counter("parent.only").inc()
        result = execute_task(SweepTask("e", _echo, {"i": 1}), obs, collect=True)
        assert result.payload == {"i": 1}
        assert result.obs == {"metrics": {}}
        assert obs.metrics.names() == ["parent.only"]

    def test_live_tracer_has_no_mirror(self, tmp_path):
        obs = make_observability(metrics=True, trace_path=tmp_path / "t.jsonl")
        try:
            assert obs.tracer.mirror() is None
            assert obs.spec() is None
        finally:
            obs.close()


# ----------------------------------------------------------------------
# Components count; the run publishes
# ----------------------------------------------------------------------
#: ``repro <command> --profile tiny --seed 3 --metrics``: the whole metrics
#: summary, every name that exists and its (type, value).  Multi-run
#: commands (fig2, faults) read the same at any ``--jobs``: each run's
#: float sum is added to the registry once.
#: The ``rep.kernel.<kernel>`` gauges count real 2-hop kernel passes: a
#: peer outside its node's reach set is scored without one (fig1's
#: scalar flows were 604, fig2's batches and targets 24 / 24, the fault
#: sweep's 55 / 615 before the reach set); ``rep.kernel.calls`` /
#: ``.targets`` count node evaluations and did not move.
PUBLISHED = {
    "fig1": {
        "bc.messages_received": ("counter", 10562),
        "bc.messages_sent": ("counter", 10562),
        "bc.records_applied": ("counter", 2828),
        "bc.records_dropped": ("counter", 97005),
        "bt.bytes": ("counter", 256394696.19360006),
        "bt.rounds": ("counter", 1440),
        "bt.transfers": ("counter", 24),
        "choke.calls": ("counter", 27),
        "gossip.exchanges": ("counter", 5281),
        "gossip.messages_lost": ("counter", 0),
        "prov.claims_forgotten": ("counter", 0),
        "prov.claims_recorded": ("counter", 163246),
        "prov.claims_superseded": ("counter", 157902),
        "prov.redeliveries_ignored": ("counter", 15296),
        "prov.stale_dropped": ("counter", 0),
        "rep.cache.hits": ("gauge", 1882),
        "rep.cache.invalidations": ("gauge", 120),
        "rep.cache.misses": ("gauge", 302),
        "rep.kernel.calls": ("counter", 302),
        "rep.kernel.maxflow_two_hop": ("gauge", 24),
        "rep.kernel.targets": ("counter", 302),
        "sim.events": ("counter", 2214),
    },
    "fig2": {
        "bc.messages_received": ("counter", 42248),
        "bc.messages_sent": ("counter", 42248),
        "bc.records_applied": ("counter", 11306),
        "bc.records_dropped": ("counter", 388026),
        "bt.bytes": ("counter", 1025236479.2684213),
        "bt.rounds": ("counter", 5760),
        "bt.transfers": ("counter", 98),
        "choke.banned": ("counter", 4),
        "choke.calls": ("counter", 114),
        "gossip.exchanges": ("counter", 21124),
        "gossip.messages_lost": ("counter", 0),
        "prov.claims_forgotten": ("counter", 0),
        "prov.claims_recorded": ("counter", 652984),
        "prov.claims_superseded": ("counter", 631608),
        "prov.redeliveries_ignored": ("counter", 61184),
        "prov.stale_dropped": ("counter", 0),
        "rep.cache.hits": ("gauge", 3),
        "rep.cache.invalidations": ("gauge", 24),
        "rep.cache.misses": ("gauge", 24),
        "rep.kernel.calls": ("counter", 24),
        "rep.kernel.maxflow_two_hop_batch": ("gauge", 3),
        "rep.kernel.maxflow_two_hop_batch_targets": ("gauge", 3),
        "rep.kernel.targets": ("counter", 24),
        "sim.events": ("counter", 8856),
    },
    "fig4": {
        "bc.messages_received": ("counter", 1262),
        "bc.messages_sent": ("counter", 0),
        "bc.records_applied": ("counter", 4561),
        "bc.records_dropped": ("counter", 9841),
        "rep.kernel.calls": ("counter", 495),
        "rep.kernel.targets": ("counter", 495),
    },
    "faults": {
        "bc.messages_received": ("counter", 17854),
        "bc.messages_sent": ("counter", 20984),
        "bc.records_applied": ("counter", 5766),
        "bc.records_dropped": ("counter", 162926),
        "bt.bytes": ("counter", 512789392.3872001),
        "bt.rounds": ("counter", 2880),
        "bt.transfers": ("counter", 48),
        "choke.calls": ("counter", 54),
        "gossip.exchanges": ("counter", 10492),
        "gossip.messages_lost": ("counter", 3130),
        "net.delayed": ("counter", 0),
        "net.delivered": ("counter", 7362),
        "net.dropped": ("counter", 3130),
        "net.dropped_by_churn": ("counter", 0),
        "net.duplicated": ("counter", 0),
        "rep.cache.hits": ("gauge", 3753),
        "rep.cache.invalidations": ("gauge", 251),
        "rep.cache.misses": ("gauge", 615),
        "rep.kernel.calls": ("counter", 75),
        "rep.kernel.maxflow_two_hop": ("gauge", 24),  # the audit's scalar flows
        "rep.kernel.maxflow_two_hop_batch": ("gauge", 16),
        "rep.kernel.maxflow_two_hop_batch_targets": ("gauge", 26),
        "rep.kernel.targets": ("counter", 635),
        "sim.events": ("counter", 4468),
    },
    "dissemination": {
        "bc.messages_received": ("counter", 8493),
        "bc.messages_sent": ("counter", 10548),
        "bc.records_applied": ("counter", 2811),
        "bc.records_dropped": ("counter", 77387),
        "bt.bytes": ("counter", 256394696.19360006),
        "bt.rounds": ("counter", 1440),
        "bt.transfers": ("counter", 24),
        "choke.calls": ("counter", 27),
        "gossip.exchanges": ("counter", 5274),
        "gossip.messages_lost": ("counter", 2055),
        "net.delayed": ("counter", 0),
        "net.delivered": ("counter", 8493),
        "net.dropped": ("counter", 2055),
        "net.dropped_by_churn": ("counter", 0),
        "net.duplicated": ("counter", 0),
        "rep.cache.hits": ("gauge", 0),
        "rep.cache.invalidations": ("gauge", 0),
        "rep.cache.misses": ("gauge", 0),
        "rep.kernel.calls": ("counter", 0),
        "rep.kernel.targets": ("counter", 0),
        "sim.events": ("counter", 2220),
    },
}

PUBLISHED_ARGS = {
    "fig1": ["fig1", "--profile", "tiny", "--provenance"],
    "fig2": ["fig2", "--profile", "tiny", "--provenance"],
    "fig4": ["fig4", "--peers", "500"],
    "faults": ["faults", "--profile", "tiny", "--losses", "0,0.3", "--churn", "0.5"],
    "dissemination": ["dissemination", "--profile", "tiny", "--loss", "0.2", "--churn", "0.1"],
}


class TestPublishedCounts:
    @pytest.mark.parametrize("command", sorted(PUBLISHED))
    def test_metrics_summary_is_pinned(self, command, capsys, tmp_path):
        from repro import cli

        argv = PUBLISHED_ARGS[command] + ["--seed", "3", "--metrics", "--export", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        metrics = read_manifest(tmp_path / "run_manifest.json")["metrics"]
        assert {k: (v["type"], v["value"]) for k, v in metrics.items()} == PUBLISHED[command]

    def test_split_run_publishes_what_one_run_does(self):
        from repro.core.policies import BanPolicy
        from repro.experiments.scenario import build_simulation

        def summary(split):
            obs = make_observability(metrics=True)
            sim = build_simulation(ScenarioConfig.tiny(3), policy=BanPolicy(-0.5), obs=obs)
            if split:
                sim.run(until=sim.trace.duration / 2)
            sim.run()
            return obs.metrics.summary()

        whole = summary(split=False)
        assert whole["rep.cache.misses"]["value"] == 8
        assert summary(split=True) == whole

    def test_kernel_gauges_count_work_after_the_run(self):
        """A fault point scores and audits its finished simulation, then
        publishes again: the ``rep.kernel.<kernel>`` gauges count every
        kernel call of the point, the post-run ones included."""
        from repro.experiments.faults import run_fault_point
        from repro.faults import FaultConfig
        from repro.graph.maxflow import kernel_invocations_delta, snapshot_kernel_invocations

        obs = make_observability(metrics=True)
        before = snapshot_kernel_invocations()
        run_fault_point(ScenarioConfig.tiny(3), FaultConfig(loss=0.3), obs=obs)
        calls = kernel_invocations_delta(before)
        assert calls["maxflow_two_hop"] > 0  # the audit's scalar flows
        gauges = {
            name[len("rep.kernel."):]: metric["value"]
            for name, metric in obs.metrics.summary().items()
            if metric["type"] == "gauge" and name.startswith("rep.kernel.")
        }
        assert gauges == calls
