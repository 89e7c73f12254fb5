"""Tests for the parallel sweep runner (:mod:`repro.parallel`).

The load-bearing property is *bit-identity*: any ``--jobs`` level — and
any crash/retry schedule — must produce exactly the results of the
serial path.  Everything else (crash isolation, timeouts, merge
bookkeeping) exists in service of that guarantee.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import ScenarioConfig
from repro.graph import TransferGraph
from repro.graph.maxflow import (
    KERNEL_INVOCATIONS,
    kernel_invocations_delta,
    maxflow_two_hop,
    snapshot_kernel_invocations,
)
from repro.obs import MetricsRegistry, Observability
from repro.parallel import (
    EXECUTORS,
    ParallelRunner,
    SweepError,
    SweepTask,
    execute_task,
    fig1_task,
    run_sweep,
    whitewash_tasks,
)


def echo_tasks(n):
    return [
        SweepTask(task_id=f"echo/{i}", experiment="_echo", params={"i": i})
        for i in range(n)
    ]


class TestSweepTask:
    def test_task_is_picklable(self):
        task = fig1_task(ScenarioConfig.tiny())
        clone = pickle.loads(pickle.dumps(task))
        assert clone.task_id == task.task_id
        assert clone.params["scenario"].seed == task.params["scenario"].seed
        assert clone.params["scenario"].name == task.params["scenario"].name

    def test_with_attempt_preserves_identity(self):
        task = echo_tasks(1)[0]
        retry = task.with_attempt(2)
        assert retry.attempt == 2
        assert (retry.task_id, retry.experiment, retry.params) == (
            task.task_id,
            task.experiment,
            task.params,
        )

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            execute_task(SweepTask(task_id="x", experiment="no-such-experiment"))

    def test_all_figure_executors_registered(self):
        for name in ("fig1", "fig2_policy", "fig3_point", "fig4",
                     "whitewash", "scalability"):
            assert name in EXECUTORS


def _two_hop_graph():
    graph = TransferGraph()
    graph.add_transfer("s", "v", 5.0)
    graph.add_transfer("v", "t", 3.0)
    return graph


class TestKernelCounterMerge:
    """``KERNEL_INVOCATIONS`` through its snapshot/delta helpers: what
    the simulator's per-run ``rep.kernel.*`` gauges are read from."""

    def test_snapshot_delta_merge_roundtrip(self, monkeypatch):
        graph = _two_hop_graph()
        base = snapshot_kernel_invocations()
        for _ in range(3):
            maxflow_two_hop(graph, "s", "t")
        # A kernel registered after the snapshot counts from zero.
        monkeypatch.setitem(KERNEL_INVOCATIONS, "novel_kernel", 2)
        delta = kernel_invocations_delta(base)
        assert delta == {"maxflow_two_hop": 3, "novel_kernel": 2}
        # The snapshot is a copy: later calls move the delta, not it.
        later = snapshot_kernel_invocations()
        maxflow_two_hop(graph, "s", "t")
        assert kernel_invocations_delta(base)["maxflow_two_hop"] == 4
        assert kernel_invocations_delta(later) == {"maxflow_two_hop": 1}

    def test_delta_ignores_untouched_kernels(self):
        base = snapshot_kernel_invocations()
        assert kernel_invocations_delta(base) == {}
        # Kernels with non-zero totals report nothing until called again.
        maxflow_two_hop(_two_hop_graph(), "s", "t")
        assert kernel_invocations_delta(snapshot_kernel_invocations()) == {}


class TestRunnerBasics:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_empty_task_list(self):
        assert ParallelRunner(jobs=2).run([]) == []

    def test_inline_matches_pool(self):
        tasks = echo_tasks(6)
        inline = run_sweep(tasks)
        pooled = run_sweep(tasks, runner=ParallelRunner(jobs=2))
        assert inline == pooled == [{"i": i} for i in range(6)]

    def test_pool_uses_multiple_workers(self):
        runner = ParallelRunner(jobs=2)
        runner.run(echo_tasks(8))
        info = runner.last_run_info
        assert info["mode"] == "pool"
        pids = {t["worker_pid"] for t in info["tasks"]}
        assert len(pids) == 2

    def test_results_keyed_by_task_order(self):
        # Tasks with wildly different durations still merge in task order.
        tasks = [
            SweepTask(
                task_id=f"sleep/{i}",
                experiment="_sleep",
                params={"seconds": 0.2 if i == 0 else 0.0, "hang_attempts": 99},
            )
            for i in range(4)
        ]
        results = ParallelRunner(jobs=2).run(tasks)
        assert [r.task_id for r in results] == [t.task_id for t in tasks]

    def test_tracer_forces_inline(self, tmp_path):
        from repro.obs import make_observability

        obs = make_observability(trace_path=tmp_path / "t.jsonl")
        try:
            runner = ParallelRunner(jobs=4, obs=obs)
            runner.run(echo_tasks(3))
        finally:
            obs.close()
        assert runner.last_run_info["mode"] == "inline"
        assert runner.last_run_info["forced_inline_tracing"] is True


class TestCrashIsolation:
    def test_crashing_worker_is_retried(self):
        tasks = echo_tasks(4)
        tasks.insert(2, SweepTask(task_id="crash", experiment="_crash", params={}))
        runner = ParallelRunner(jobs=2, retries=1)
        payloads = [r.payload for r in runner.run(tasks)]
        assert payloads[2] == {"survived": True, "attempt": 1}
        assert [p for i, p in enumerate(payloads) if i != 2] == [
            {"i": i} for i in range(4)
        ]
        assert runner.last_run_info["pool_rebuilds"] >= 1

    @pytest.mark.parametrize("fail_on", [1, 3])
    def test_submit_into_a_pool_that_just_broke_requeues(self, fail_on):
        # Regression: when a worker died between wait() and the next
        # submit(), submit raised BrokenProcessPool straight out of run()
        # (test_crashing_worker_is_retried failed about one run in five).
        # The refused task must be kept without spending an attempt.
        from concurrent.futures.process import BrokenProcessPool

        class RefusesOnce(ParallelRunner):
            submits = 0

            def _make_executor(self):
                executor = super()._make_executor()
                submit = executor.submit

                def flaky_submit(*args, **kwargs):
                    RefusesOnce.submits += 1
                    if RefusesOnce.submits == fail_on:
                        raise BrokenProcessPool("simulated: a worker just died")
                    return submit(*args, **kwargs)

                executor.submit = flaky_submit
                return executor

        runner = RefusesOnce(jobs=2, retries=0)
        payloads = [r.payload for r in runner.run(echo_tasks(6))]
        assert payloads == [{"i": i} for i in range(6)]
        assert runner.last_run_info["retries"] == 0

    def test_permanent_crash_raises_sweep_error(self):
        bad = [
            SweepTask(
                task_id="crash-forever",
                experiment="_crash",
                params={"crash_attempts": 99},
            )
        ]
        with pytest.raises(SweepError) as err:
            ParallelRunner(jobs=2, retries=1).run(bad)
        assert err.value.failures[0][0].task_id == "crash-forever"

    def test_timeout_then_retry_succeeds(self):
        slow = [
            SweepTask(
                task_id="slow",
                experiment="_sleep",
                params={"seconds": 1.5, "hang_attempts": 1},
            )
        ]
        runner = ParallelRunner(jobs=2, retries=1, timeout_s=0.4)
        results = runner.run(slow)
        assert results[0].payload == {"slept": True, "attempt": 1}
        assert runner.last_run_info["timeouts"] == 1

    def test_zero_retries_fails_fast(self):
        bad = [SweepTask(task_id="c", experiment="_crash", params={})]
        with pytest.raises(SweepError):
            ParallelRunner(jobs=2, retries=0).run(bad)


class TestExperimentIdentity:
    """Serial vs parallel bit-identity on real (tiny) experiments."""

    def test_fig2_bit_identical(self):
        from repro.experiments import run_fig2

        scenario = ScenarioConfig.tiny()
        serial = run_fig2(scenario)
        pooled = run_fig2(scenario, runner=ParallelRunner(jobs=2))
        assert (serial.days == pooled.days).all()
        for key in ("sharers", "freeriders"):
            assert np.array_equal(serial.rank[key], pooled.rank[key], equal_nan=True)
            assert np.array_equal(serial.ban[key], pooled.ban[key], equal_nan=True)
        for delta in serial.delta_sweep:
            assert np.array_equal(
                serial.delta_sweep[delta], pooled.delta_sweep[delta], equal_nan=True
            )

    def test_fig3_bit_identical_under_crash_retry(self):
        """Identity holds even when a crash forces a pool rebuild mid-sweep."""
        from repro.experiments import fig3_tasks, assemble_fig3, run_fig3

        scenario = ScenarioConfig.tiny()
        pcts = (0, 25, 50)
        serial = run_fig3(scenario, kind="ignore", percentages=pcts)
        tasks = fig3_tasks(scenario, "ignore", pcts)
        tasks.insert(1, SweepTask(task_id="crash", experiment="_crash", params={}))
        payloads = run_sweep(tasks, runner=ParallelRunner(jobs=2, retries=1))
        del payloads[1]  # drop the crash fixture's payload
        pooled = assemble_fig3(payloads, "ignore", pcts)
        assert np.array_equal(
            serial.sharer_speed_kbps, pooled.sharer_speed_kbps, equal_nan=True
        )
        assert np.array_equal(
            serial.freerider_speed_kbps, pooled.freerider_speed_kbps, equal_nan=True
        )

    def test_whitewash_identity(self):
        from repro.experiments import run_whitewash

        serial = [run_whitewash(k, seed=7) for k in ("trusted", "static")]
        pooled = run_sweep(
            whitewash_tasks(7, ("trusted", "static")), runner=ParallelRunner(jobs=2)
        )
        for s, p in zip(serial, pooled):
            assert s.service == p.service
            assert s.identities_burned == p.identities_burned


class TestMetricsMerge:
    def test_kernel_and_metric_totals_match_serial(self):
        from repro.experiments import run_fig3

        scenario = ScenarioConfig.tiny()
        pcts = (0, 50)

        serial_metrics = MetricsRegistry()
        run_fig3(scenario, kind="ignore", percentages=pcts,
                 obs=Observability(metrics=serial_metrics))

        pooled_metrics = MetricsRegistry()
        pooled_obs = Observability(metrics=pooled_metrics)
        run_fig3(scenario, kind="ignore", percentages=pcts, obs=pooled_obs,
                 runner=ParallelRunner(jobs=2, obs=pooled_obs))

        def kernels(registry):
            return {
                name: snap for name, snap in registry.snapshot().items()
                if name.startswith("rep.kernel.")
            }

        assert kernels(serial_metrics)
        assert kernels(serial_metrics) == kernels(pooled_metrics)
        assert serial_metrics.snapshot() == pooled_metrics.snapshot()


class TestCliJobs:
    @pytest.fixture(autouse=True)
    def tiny_profiles(self, monkeypatch):
        monkeypatch.setattr(
            ScenarioConfig,
            "named",
            classmethod(lambda cls, profile, seed=42: ScenarioConfig.tiny(seed)),
        )

    def test_fig2_export_byte_identical(self, capsys, tmp_path):
        from repro import cli

        d1, d2 = tmp_path / "j1", tmp_path / "j2"
        assert cli.main(["fig2", "--seed", "3", "--export", str(d1)]) == 0
        assert cli.main(
            ["fig2", "--seed", "3", "--export", str(d2), "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        files = sorted(p.name for p in d1.glob("*.tsv"))
        assert files
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_all_jobs_manifest_notes_partition(self, capsys, tmp_path):
        import json

        from repro import cli

        out = tmp_path / "out"
        assert cli.main(
            ["all", "--seed", "3", "--jobs", "2", "--metrics", "--export", str(out)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((out / "run_manifest.json").read_text())
        note = manifest["extra"]["parallel"]
        assert note["mode"] == "pool"
        assert note["jobs"] == 2
        # fig1 + fig2 (rank + 3 deltas) + fig3 (2 kinds x 6 pcts) + fig4
        assert len(note["tasks"]) == 18

    def test_every_leg_same_files_and_manifest_extra_at_jobs_1_and_2(
        self, capsys, tmp_path
    ):
        """Every leg is a participant of the one worker fold, so nothing a
        run notes or exports depends on ``--jobs``; the provenance totals
        are ``prov.*`` metrics like every other count."""
        import json

        from repro import cli

        def run(jobs):
            out = tmp_path / f"j{jobs}"
            assert cli.main([
                "fig2", "--profile", "tiny", "--seed", "3", "--provenance",
                "--metrics", "--prof", "--timeseries", "--dissemination",
                "--export", str(out), "--jobs", str(jobs),
            ]) == 0
            capsys.readouterr()
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("run_manifest.json"))
            # Phase spans sit on one process's clock; workers ship none.
            files.pop("profile_chrome.json", None)
            extra = manifest["extra"]
            assert (extra.pop("parallel", None) is not None) == (jobs > 1)
            extra["profile"] = {
                section: {name: entry["count"] for name, entry in entries.items()}
                for section, entries in extra["profile"].items()
                if section != "spans_dropped"
            }
            counters = {
                name: snap["value"]
                for name, snap in manifest["metrics"].items()
                if snap["type"] == "counter"
            }
            return files, extra, counters

        files1, extra1, counters1 = run(1)
        files2, extra2, counters2 = run(2)
        assert sorted(files1) == sorted(files2)
        assert {"timeseries.json", "dissemination.json"} <= set(files1)
        assert files1 == files2
        assert set(extra1) == {"timeseries", "dissemination", "profile"}
        assert extra1 == extra2
        assert counters1["prov.claims_recorded"] > 0
        # The profile counts one cell observation per node evaluation.
        for extra, counters in ((extra1, counters1), (extra2, counters2)):
            kernels = extra["profile"]["kernels"]
            assert sum(kernels.values()) == counters["rep.kernel.calls"] > 0
        # Float counters (bytes) sum per task, then across tasks, at any
        # --jobs level.
        assert counters1 == counters2
