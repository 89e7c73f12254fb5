"""Tests for the parallel sweep runner (:mod:`repro.parallel`).

The load-bearing property is *bit-identity*: any ``--jobs`` level must
produce exactly the results of the serial path.  Everything else (the
failure rule, merge bookkeeping) exists in service of that guarantee.
"""

import json
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.experiments import (
    ScenarioConfig,
    fault_tasks,
    fig1_task,
    fig2_tasks,
    fig3_tasks,
    fig4_task,
    scalability_task,
    whitewash_tasks,
)
from repro.graph import TransferGraph
from repro.graph.maxflow import (
    KERNEL_INVOCATIONS,
    kernel_invocations_delta,
    maxflow_two_hop,
    snapshot_kernel_invocations,
)
from repro.obs import MetricsRegistry, Observability
from repro.parallel import ParallelRunner, SweepError, SweepTask, run_sweep


# -- task functions: cheap, deterministic, failure injectable ----------
def _echo(i, obs):
    return {"i": i}


def _sleep(seconds, obs):
    time.sleep(seconds)
    return {"slept": seconds}


def _raise(obs):
    raise RuntimeError("this task fails")


def _crash(obs):
    """Die without cleanup, like a segfaulting or OOM-killed worker."""
    os._exit(17)


def echo_tasks(n):
    return [SweepTask(f"echo/{i}", _echo, {"i": i}) for i in range(n)]


#: Every task list the CLI builds, by builder.
BUILDERS = {
    "fig1": lambda s: [fig1_task(s)],
    "fig2": fig2_tasks,
    "fig3-ignore": lambda s: fig3_tasks(s, "ignore"),
    "fig3-lie": lambda s: fig3_tasks(s, "lie"),
    "fig4": lambda s: [fig4_task(300, 3)],
    "faults": lambda s: fault_tasks(
        s, (0, 0.3), engines=("bartercast", "gossip", "ratio"), top_k=2
    ),
    "whitewash": lambda s: whitewash_tasks(3),
    "scalability": lambda s: [scalability_task((1000, 2000), 3)],
}


class TestSweepTask:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_task_is_picklable(self, builder):
        """A lambda or closure as ``run`` would fail only under ``--jobs N``."""
        for task in BUILDERS[builder](ScenarioConfig.tiny()):
            clone = pickle.loads(pickle.dumps(task))
            assert clone.task_id == task.task_id
            assert clone.run is task.run
            # Equal field by field (the scenario's reputation metric has
            # no ``__eq__``, so compare the dataclass reprs).
            assert repr(clone.params) == repr(task.params)


def _two_hop_graph():
    graph = TransferGraph()
    graph.set_transfer("s", "v", 5.0)
    graph.set_transfer("v", "t", 3.0)
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
            SweepTask(f"sleep/{i}", _sleep, {"seconds": 0.2 if i == 0 else 0.0})
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


class TestFailure:
    """A task is a pure function of its spec, so a failure is not
    retried: it fails the sweep and names the task."""

    # A dying worker fails every task still in flight, and the error
    # names the first of them in task order; the dying task goes first
    # so that it is the one named.  A raising task fails only itself.
    @pytest.mark.parametrize(
        "bad, position", [(_raise, 2), (_crash, 0)], ids=["raises", "worker-dies"]
    )
    def test_failing_task_fails_the_sweep_and_names_it(self, bad, position):
        tasks = echo_tasks(4)
        tasks.insert(position, SweepTask("bad", bad))
        t0 = time.monotonic()
        with pytest.raises(SweepError) as err:
            ParallelRunner(jobs=2).run(tasks)
        assert time.monotonic() - t0 < 30
        assert err.value.task.task_id == "bad"
        assert "bad" in str(err.value)
        assert multiprocessing.active_children() == []

    def test_inline_failure_propagates_unchanged(self):
        tasks = echo_tasks(2) + [SweepTask("bad", _raise)]
        with pytest.raises(RuntimeError, match="this task fails"):
            ParallelRunner(jobs=1).run(tasks)


class TestExperimentIdentity:
    """Serial vs parallel bit-identity on real (tiny) experiments."""

    def test_fig2_bit_identical(self):
        from repro.experiments import assemble_fig2

        scenario = ScenarioConfig.tiny()
        serial = assemble_fig2(run_sweep(fig2_tasks(scenario)))
        pooled = assemble_fig2(run_sweep(fig2_tasks(scenario), runner=ParallelRunner(jobs=2)))
        assert (serial.days == pooled.days).all()
        for key in ("sharers", "freeriders"):
            assert np.array_equal(serial.rank[key], pooled.rank[key], equal_nan=True)
            assert np.array_equal(serial.ban[key], pooled.ban[key], equal_nan=True)
        for delta in serial.delta_sweep:
            assert np.array_equal(
                serial.delta_sweep[delta], pooled.delta_sweep[delta], equal_nan=True
            )

    def test_fig3_bit_identical(self):
        from repro.experiments import assemble_fig3

        scenario = ScenarioConfig.tiny()
        pcts = (0, 25, 50)
        tasks = fig3_tasks(scenario, "ignore", pcts)
        serial = assemble_fig3(run_sweep(tasks), "ignore", pcts)
        pooled = assemble_fig3(run_sweep(tasks, runner=ParallelRunner(jobs=2)), "ignore", pcts)
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
        tasks = fig3_tasks(ScenarioConfig.tiny(), "ignore", (0, 50))

        serial_metrics = MetricsRegistry()
        run_sweep(tasks, obs=Observability(metrics=serial_metrics))

        pooled_metrics = MetricsRegistry()
        pooled_obs = Observability(metrics=pooled_metrics)
        run_sweep(tasks, runner=ParallelRunner(jobs=2, obs=pooled_obs))

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

    @pytest.mark.parametrize("name", ["all", "faults", "whitewash"])
    def test_task_commands_equal_at_jobs_1_and_2(self, task_command_runs, name):
        (stdout1, files1), (stdout2, files2) = (
            task_command_runs[name, 1], task_command_runs[name, 2]
        )
        assert stdout1 == stdout2
        # The manifest holds wall-clock, pids and the ``parallel`` note.
        assert set(files1) == set(files2)
        series = [f for f in files1 if f != "run_manifest.json"]
        assert bool(series) == (name != "whitewash")
        assert all(files1[f] == files2[f] for f in series)

    def test_all_jobs_manifest_notes_partition(self, task_command_runs):
        manifest = json.loads(task_command_runs["all", 2][1]["run_manifest.json"])
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
