"""Tests for the time-dimension observability subsystem.

Covers the ring-buffer recorder, the collector's cross-process
merge/export, the phase/event/evaluation profiler, Chrome-trace conversion, and
the headline guarantees: telemetry fully on is bit-identical to a plain run, and a run's final time-series sample
equals its end-of-run aggregates.
"""

import json
import math

import numpy as np
import pytest

from repro.experiments import ScenarioConfig, build_simulation, run_fig1
from repro.obs import (
    NULL_OBS,
    NULL_PROFILER,
    NULL_TIMESERIES,
    Observability,
    Profiler,
    TimeSeriesCollector,
    TimeSeriesConfig,
    TimeSeriesRecorder,
    make_observability,
)
from repro.obs.chrome_trace import (
    profile_spans_to_chrome_events,
    trace_to_chrome_events,
    write_chrome_trace,
)


def _final(snap):
    """The last row of a recorder snapshot as ``{"t": ..., name: value}``."""
    return {"t": snap["t"][-1], **{name: col[-1] for name, col in snap["series"].items()}}


class TestRecorder:
    def _recorder(self, capacity=8):
        rec = TimeSeriesRecorder(label="t", capacity=capacity)
        rec.add_probe("x", lambda now: now * 2.0)
        rec.add_probe("const", lambda now: 7.0)
        return rec

    def test_samples_and_columns(self):
        rec = self._recorder()
        for t in (0.0, 1.0, 2.0):
            rec.sample(t)
        assert rec.samples == 3
        snap = rec.to_dict()
        assert snap["columns"] == ["x", "const"]
        assert snap["t"] == [0.0, 1.0, 2.0]
        assert snap["series"] == {"x": [0.0, 2.0, 4.0], "const": [7.0] * 3}
        assert _final(snap) == {"t": 2.0, "x": 4.0, "const": 7.0}

    def test_ring_evicts_oldest(self):
        rec = self._recorder(capacity=4)
        for t in range(10):
            rec.sample(float(t))
        assert rec.samples == 4
        assert rec.samples_dropped == 6
        snap = rec.to_dict()
        assert snap["t"] == [6.0, 7.0, 8.0, 9.0]
        assert snap["series"]["x"] == [12.0, 14.0, 16.0, 18.0]
        assert snap["samples_total"] == 10
        assert snap["samples_dropped"] == 6

    def test_probe_registration_is_frozen_after_first_sample(self):
        rec = self._recorder()
        rec.sample(0.0)
        with pytest.raises(RuntimeError):
            rec.add_probe("late", lambda now: 0.0)

    def test_duplicate_probe_rejected(self):
        rec = self._recorder()
        with pytest.raises(ValueError):
            rec.add_probe("x", lambda now: 0.0)

    def test_csv_round_trip(self):
        """The export's CSV lines: header first, floats that read back."""
        rec = self._recorder()
        rec.sample(0.5)
        rec.sample(1.25)
        lines = TimeSeriesCollector._csv_lines(rec.to_dict())
        assert lines[0] == "t,x,const"
        values = [float(v) for v in lines[2].split(",")]
        assert values == [1.25, 2.5, 7.0]


class TestCollector:
    def test_labels_and_merge_order(self):
        col = TimeSeriesCollector(TimeSeriesConfig(interval_s=60.0))
        col.begin_task("task-a")
        rec = TimeSeriesRecorder(label=col.next_label())
        assert rec.label == "task-a"
        assert col.next_label() == "run-2"  # no pending label -> counter
        rec.add_probe("x", lambda now: now)
        rec.sample(1.0)
        col.attach(rec)
        # Worker snapshots merge ahead of nothing, then local recorders.
        col.merge([{"label": "w1", "t": [5.0], "series": {"x": [5.0]}}])
        labels = [s["label"] for s in col.series()]
        assert labels == ["w1", "task-a"]

    def test_summary_final_values(self):
        col = TimeSeriesCollector()
        rec = TimeSeriesRecorder(label="s")
        rec.add_probe("coverage", lambda now: now / 10.0)
        rec.sample(5.0)
        rec.sample(10.0)
        col.attach(rec)
        summary = col.summary()
        assert summary["interval_s"] is None
        entry = summary["series"][0]
        assert entry["samples"] == 2
        assert entry["final"] == {"t": 10.0, "coverage": 1.0}

    def test_export_writes_csv_and_json(self, tmp_path):
        col = TimeSeriesCollector()
        rec = TimeSeriesRecorder(label="fig2/rank")
        rec.add_probe("x", lambda now: now)
        rec.sample(1.0)
        col.attach(rec)
        written = col.export(tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["timeseries.json", "timeseries_fig2_rank.csv"]
        doc = json.loads((tmp_path / "timeseries.json").read_text())
        assert doc["series"][0]["label"] == "fig2/rank"

    def test_null_collector_exports_nothing(self, tmp_path):
        assert NULL_TIMESERIES.export(tmp_path) == []
        assert not NULL_TIMESERIES.enabled


class TestProfiler:
    def test_phase_paths_and_self_time(self):
        prof = Profiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        snap = prof.snapshot()
        assert set(snap["phases"]) == {"outer", "outer/inner"}
        outer = snap["phases"]["outer"]
        inner = snap["phases"]["outer/inner"]
        assert outer["count"] == 1 and inner["count"] == 1
        # Self wall excludes the child's wall time.
        assert outer["self_wall_s"] <= outer["wall_s"]
        assert outer["wall_s"] >= inner["wall_s"]

    def test_events_and_kernels(self):
        prof = Profiler()
        prof.observe_event("gossip", 0.25)
        prof.observe_event("gossip", 0.75)
        prof.observe_kernel("bartercast.scalar", 1e-4)
        snap = prof.snapshot()
        assert snap["events"]["gossip"]["count"] == 2
        assert snap["events"]["gossip"]["wall_s"] == pytest.approx(1.0)
        kernel = snap["kernels"]["bartercast.scalar"]
        assert kernel["count"] == 1
        assert kernel["wall_s"] == pytest.approx(1e-4)

    def test_span_log_capped(self):
        prof = Profiler(max_spans=2)
        for _ in range(4):
            with prof.phase("p"):
                pass
        assert len(prof.spans) == 2
        assert prof.spans_dropped == 2
        assert prof.snapshot()["phases"]["p"]["count"] == 4

    def test_merge_snapshot_matches_serial(self):
        serial = Profiler()
        workers = [Profiler(), Profiler()]
        for i, prof in enumerate(workers):
            for rep in range(3):
                dur = 0.1 * (i + 1) + 0.01 * rep
                with prof.phase("round"):
                    pass
                prof.observe_event("ev", dur)
                prof.observe_kernel("k", dur)
                serial.observe_event("ev", dur)
                serial.observe_kernel("k", dur)
        parent = Profiler()
        for prof in workers:
            parent.merge(prof.snapshot())
        snap = parent.snapshot()
        assert snap["phases"]["round"]["count"] == 6
        assert snap["events"]["ev"]["count"] == 6
        assert snap["events"]["ev"]["wall_s"] == pytest.approx(
            serial.snapshot()["events"]["ev"]["wall_s"]
        )
        assert snap["kernels"]["k"]["count"] == 6
        assert snap["kernels"]["k"]["wall_s"] == pytest.approx(
            serial.snapshot()["kernels"]["k"]["wall_s"]
        )

    def test_null_profiler_guards(self):
        assert not NULL_PROFILER.enabled
        with pytest.raises(RuntimeError):
            NULL_PROFILER.phase("x")
        NULL_PROFILER.observe_event("e", 1.0)  # harmless no-ops
        NULL_PROFILER.observe_kernel("k", 1.0)


class TestChromeTrace:
    def test_profile_spans_to_events(self):
        events = profile_spans_to_chrome_events(
            [("bt.round", 0, 1.0, 0.5), ("bt.round/choke", 1, 1.1, 0.2)]
        )
        complete = [e for e in events if e.get("ph") == "X"]
        assert [e["name"] for e in complete] == ["bt.round", "bt.round/choke"]
        assert complete[0]["ts"] == pytest.approx(1.0e6)
        assert complete[0]["dur"] == pytest.approx(0.5e6)

    def test_trace_records_to_events(self):
        header = {"seed": 7}
        records = [
            {"cat": "sim.event", "name": "gossip", "wall": 1.0, "sim": 60.0},
            {"cat": "bt.transfer", "name": "piece", "wall": 2.0, "dur": 0.5,
             "attrs": {"bytes": 4}},
        ]
        events = trace_to_chrome_events(header, records)
        meta = [e for e in events if e["ph"] == "M"]
        assert any("seed 7" in e["args"]["name"] for e in meta)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["args"]["sim"] == 60.0
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["args"]["bytes"] == 4
        assert complete["ts"] == pytest.approx((2.0 - 0.5) * 1e6)

    def test_write_requires_a_source(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace(tmp_path / "out.json")

    def test_end_to_end_from_jsonl(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        obs = make_observability(trace_path=trace_path, seed=5)
        cat = obs.tracer.category("sim.event")
        assert cat.sample()
        cat.emit_sampled("tick", sim_time=1.0)
        obs.close()
        out = write_chrome_trace(
            tmp_path / "out.json",
            trace_path=trace_path,
            profile_spans=[("p", 0, 0.0, 1.0)],
        )
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "tick" in names and "p" in names
        assert doc["displayTimeUnit"] == "ms"


class TestObservabilityBundleLegs:
    def test_all_off_is_the_shared_null_bundle(self):
        # Always a fresh bundle, but every leg is the shared null object.
        off = make_observability()
        assert off.spec() == {} == NULL_OBS.spec()

    def test_timeseries_flag_forms(self):
        rides = make_observability(timeseries=-1.0)
        assert rides.timeseries.enabled
        assert rides.timeseries.config.interval_s is None
        timed = make_observability(timeseries=120.0)
        assert timed.timeseries.config.interval_s == 120.0
        explicit = make_observability(
            timeseries=TimeSeriesConfig(interval_s=60.0, capacity=16)
        )
        assert explicit.timeseries.config.capacity == 16

    @pytest.mark.parametrize("cadence", [math.nan, math.inf, 1e-9, 59.0])
    def test_simulator_rejects_a_cadence_no_run_can_honour(self, cadence):
        """Not finite, or below the tiny profile's 60 s round: rejected
        when the simulator is built, before anything runs."""
        with pytest.raises(ValueError, match="time-series cadence"):
            build_simulation(ScenarioConfig.tiny(3), obs=make_observability(timeseries=cadence))

    @pytest.mark.parametrize("cadence, interval", [(0, None), (-1.0, None), (60.0, 60.0)])
    def test_simulator_takes_a_cadence_of_a_round_or_more(self, cadence, interval):
        sim = build_simulation(ScenarioConfig.tiny(3), obs=make_observability(timeseries=cadence))
        assert sim.obs.timeseries.config.interval_s == interval

    def test_profile_flag(self):
        obs = make_observability(profile=True)
        assert obs.profiler.enabled
        assert not obs.metrics.enabled

    def test_default_bundle_legs_disabled(self):
        obs = Observability()
        assert obs.timeseries is NULL_TIMESERIES
        assert obs.profiler is NULL_PROFILER


class TestSimulatorTimeseries:
    def _run(self, obs=None, seed=3):
        return run_fig1(ScenarioConfig.tiny(seed=seed), obs=obs)

    def test_telemetry_on_is_bit_identical(self):
        plain = self._run()
        obs = make_observability(metrics=True, profile=True, timeseries=-1.0)
        instrumented = self._run(obs=obs)
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
        assert plain.spearman == instrumented.spearman
        # ... and the telemetry legs actually recorded.
        series = obs.timeseries.series()
        assert len(series) == 1
        assert series[0]["samples_total"] > 0
        phases = obs.profiler.snapshot()["phases"]
        assert "bt.round" in phases and "gossip" in phases
        assert "bt.round/choke" in phases

    def test_final_sample_equals_end_of_run_aggregates(self):
        from repro.core.policies import RankPolicy
        from repro.experiments.faults import (
            DEFAULT_DELTA,
            _coverage,
            _ground_truth,
            _reputation_measures,
        )
        from repro.experiments.scenario import build_simulation

        scenario = ScenarioConfig.tiny(seed=3)
        obs = make_observability(timeseries=-1.0)
        sim = build_simulation(scenario, policy=RankPolicy(), obs=obs)
        sim.run()
        final = _final(sim.timeseries.to_dict())
        assert final["t"] == scenario.trace_params.duration
        gt_edges, contribution = _ground_truth(sim)
        assert final["coverage"] == _coverage(sim, gt_edges)
        _, inversion = _reputation_measures(sim, contribution, DEFAULT_DELTA)
        assert final["rank_inversion_rate"] == inversion
        assert 0.0 <= final["cache_hit_rate"] <= 1.0
        # No fault channel in this scenario: net deltas stay zero.
        assert final["net_delivered"] == 0.0 and final["net_dropped"] == 0.0

    def test_explicit_cadence_controls_sample_count(self):
        from repro.core.policies import RankPolicy
        from repro.experiments.scenario import build_simulation

        scenario = ScenarioConfig.tiny(seed=3)
        obs = make_observability(timeseries=6 * 3600.0)
        sim = build_simulation(scenario, policy=RankPolicy(), obs=obs)
        sim.run()
        times = np.array(sim.timeseries.to_dict()["t"])
        # First sample one cadence in, then every 6h, plus the horizon close.
        assert times[0] == 6 * 3600.0
        deltas = np.diff(times)
        assert np.all(deltas[:-1] == 6 * 3600.0)
        assert times[-1] == scenario.trace_params.duration

    def test_net_probes_see_fault_channel(self):
        from repro.core.policies import RankPolicy
        from repro.experiments.scenario import build_simulation
        from repro.faults import FaultConfig

        scenario = ScenarioConfig.tiny(seed=3).with_faults(
            FaultConfig(loss=0.3)
        )
        obs = make_observability(timeseries=-1.0)
        sim = build_simulation(scenario, policy=RankPolicy(), obs=obs)
        sim.run()
        final = _final(sim.timeseries.to_dict())
        assert final["net_delivered"] == float(sim.channel.delivered) > 0
        assert final["net_dropped"] == float(sim.channel.dropped) > 0


class TestParallelTransport:
    def _tasks(self):
        from repro.experiments import fig1_task

        return [
            fig1_task(ScenarioConfig.tiny(seed=3)),
            fig1_task(ScenarioConfig.tiny(seed=4)),
        ]

    def test_jobs2_ships_series_and_profile_home(self):
        from repro.parallel import ParallelRunner

        obs = make_observability(metrics=True, profile=True, timeseries=-1.0)
        runner = ParallelRunner(jobs=2, obs=obs)
        results = runner.run(self._tasks())
        assert runner.last_run_info["mode"] == "pool"
        labels = [s["label"] for s in obs.timeseries.series()]
        assert labels == ["fig1", "fig1"]
        snap = obs.profiler.snapshot()
        assert snap["phases"]["bt.round"]["count"] > 0
        assert obs.metrics.value("sim.events") > 0
        # Payloads equal a serial run of the same tasks.
        serial = [run_fig1(ScenarioConfig.tiny(seed=s)) for s in (3, 4)]
        for parallel_res, serial_res in zip(results, serial):
            np.testing.assert_array_equal(
                parallel_res.payload.sharer_reputation,
                serial_res.sharer_reputation,
            )

    def test_parallel_series_match_inline(self):
        # Metrics on so the counter-backed columns (gossip_exchanges,
        # bt_bytes) exist: inline tasks share the parent registry while
        # workers get fresh ones, and the per-run shadow accumulators
        # must make both paths byte-identical anyway.
        from repro.parallel import ParallelRunner

        def series_for(jobs):
            obs = make_observability(metrics=True, timeseries=-1.0)
            runner = ParallelRunner(jobs=jobs, obs=obs)
            runner.run(self._tasks())
            return obs.timeseries.series()

        inline = series_for(1)
        pooled = series_for(2)
        assert len(inline) == len(pooled) == 2
        for a, b in zip(inline, pooled):
            assert a["columns"] == b["columns"]
            assert "gossip_exchanges" in a["columns"]
            assert "bt_bytes" in a["columns"]
            assert a["t"] == b["t"]
            assert a["series"] == b["series"]
