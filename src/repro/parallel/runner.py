"""The parallel sweep runner: multi-process fan-out, deterministic merge.

The paper's evaluation grid is embarrassingly parallel — every sweep
point is an independent, fully seeded simulation — so the runner simply
fans :class:`~repro.parallel.tasks.SweepTask` units out to a process pool
and merges the results back **by task order**, never by completion
order.  Because each task's payload is a pure function of its spec (see
:mod:`repro.parallel.tasks`), the merged output is bit-identical to a
serial run at any ``--jobs`` level.

Scheduling and robustness:

* **Inline fast path** — ``jobs <= 1`` executes tasks in-process with
  the parent's own observability bundle: exactly the pre-parallel code
  path, byte for byte.
* **Chunked scheduling** — at most ``2 x jobs`` tasks are in flight at
  once; further tasks are submitted as results drain, bounding queued
  pickled results and keeping per-task timeouts meaningful.
* **Per-task timeout, one retry** — a task that exceeds ``timeout_s``
  (measured from submission) or whose worker dies is retried up to
  ``retries`` times; the pool is rebuilt after a timeout or crash.  A
  dying worker therefore fails (at most) its own task, not the sweep.
* **Truthful counters** — each worker ships home its maxflow kernel
  counter delta and (when the parent collects metrics) its metrics
  snapshot; the parent folds both in, so manifests report the same
  totals a serial run would.  Timeseries recordings and profiler
  snapshots ride the same channel and merge in task order.
* **Live monitoring** — the pool writes best-effort heartbeat files
  into a spool directory (:mod:`repro.obs.monitor`) for ``repro
  monitor``; the spool never feeds back into results.

Tracing cannot cross the process boundary (one JSONL file, one emitter),
so a live tracer forces the inline path; the CLI surfaces a notice.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph.maxflow import merge_kernel_invocations
from repro.obs import NULL_OBS, Observability
from repro.obs.monitor import (
    SweepMonitorWriter,
    resolve_monitor_dir,
    write_worker_heartbeat,
)
from repro.parallel.tasks import SweepTask, TaskResult, execute_task

__all__ = ["ParallelRunner", "SweepError", "run_sweep"]

#: Poll interval while waiting with an active per-task timeout.
_POLL_S = 0.25


class SweepError(RuntimeError):
    """A sweep finished with permanently failed tasks.

    Attributes
    ----------
    failures:
        ``[(task, reason), ...]`` for every task that exhausted its
        retries.
    results:
        The :class:`TaskResult` objects of the tasks that did complete,
        keyed by position in the submitted task list.
    """

    def __init__(self, failures: List[Tuple[SweepTask, str]], results: Dict[int, TaskResult]):
        self.failures = failures
        self.results = results
        ids = ", ".join(t.task_id for t, _ in failures)
        super().__init__(
            f"{len(failures)} sweep task(s) failed after retries: {ids}"
        )


def _worker_run(
    task: SweepTask,
    with_metrics: bool,
    ts_config=None,
    with_profile: bool = False,
    heartbeat_dir: Optional[str] = None,
    diss_config=None,
) -> TaskResult:
    """Module-level worker entry point (must be picklable by the pool)."""
    if heartbeat_dir is not None:
        write_worker_heartbeat(heartbeat_dir, task.task_id, "running")
    result = execute_task(
        task,
        collect_metrics=with_metrics,
        timeseries=ts_config,
        collect_profile=with_profile,
        dissemination=diss_config,
    )
    if heartbeat_dir is not None:
        write_worker_heartbeat(heartbeat_dir, task.task_id, "done")
    return result


@dataclass
class _Inflight:
    index: int
    task: SweepTask
    attempt: int
    submitted: float


class ParallelRunner:
    """Fans sweep tasks out to worker processes and merges deterministically.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) is the exact serial
        code path — no pool, no pickling, parent observability threaded
        straight through.
    timeout_s:
        Per-task wall-clock allowance measured from submission; ``None``
        disables the guard.  Should comfortably exceed one task's
        runtime — it is a hang detector, not a scheduler.
    retries:
        How many times a failed (crashed / timed-out / raising) task is
        re-submitted before the sweep fails.
    obs:
        The parent observability bundle.  Live metrics turn on worker
        snapshot collection and merging; a live timeseries collector or
        profiler likewise rides along (workers record against fresh local
        instances, shipped home and merged in task order); a live tracer
        forces inline execution.
    mp_start:
        Multiprocessing start method; ``fork`` where available (cheap,
        inherits the warm interpreter), else the platform default.
    monitor_dir:
        Spool directory for live sweep monitoring (``repro monitor``).
        ``None`` uses the default per-user directory; the writer is
        best-effort and never affects results.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        obs: Optional[Observability] = None,
        mp_start: Optional[str] = None,
        monitor_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = int(jobs)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.obs = obs if obs is not None else NULL_OBS
        self.mp_start = mp_start
        self.monitor_dir = monitor_dir
        #: Partition/bookkeeping record of the most recent :meth:`run`
        #: (feeds the run manifest's ``parallel`` note).
        self.last_run_info: Dict[str, Any] = {}
        #: One info record per completed :meth:`run`, in call order.
        self.run_history: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[SweepTask]) -> List[TaskResult]:
        """Execute every task; returns results in task order.

        Raises :class:`SweepError` if any task fails permanently.
        """
        tasks = list(tasks)
        if not tasks:
            self._set_info({"mode": "inline", "jobs": 1, "tasks": []})
            return []
        forced_inline = self.jobs > 1 and self.obs.tracer.enabled
        if self.jobs <= 1 or forced_inline:
            return self._run_inline(tasks, forced_inline)
        return self._run_pool(tasks)

    # ------------------------------------------------------------------
    def _set_info(self, info: Dict[str, Any]) -> None:
        self.last_run_info = info
        self.run_history.append(info)

    def _run_inline(self, tasks: List[SweepTask], forced: bool) -> List[TaskResult]:
        results = [execute_task(task, obs=self.obs) for task in tasks]
        self._set_info({
            "mode": "inline",
            "jobs": 1,
            "forced_inline_tracing": forced,
            "tasks": [
                {
                    "task_id": r.task_id,
                    "worker_pid": r.worker_pid,
                    "elapsed_s": round(r.elapsed_s, 6),
                    "attempt": r.attempt,
                }
                for r in results
            ],
        })
        return results

    # ------------------------------------------------------------------
    def _make_executor(self) -> ProcessPoolExecutor:
        if self.mp_start is not None:
            ctx = get_context(self.mp_start)
        else:
            try:
                ctx = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = get_context()
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

    def _run_pool(self, tasks: List[SweepTask]) -> List[TaskResult]:
        with_metrics = self.obs.metrics.enabled
        ts_config = (
            self.obs.timeseries.config if self.obs.timeseries.enabled else None
        )
        with_profile = self.obs.profiler.enabled
        diss_config = (
            self.obs.dissemination.config
            if self.obs.dissemination.enabled
            else None
        )
        heartbeat_dir = str(resolve_monitor_dir(self.monitor_dir))
        monitor = SweepMonitorWriter(heartbeat_dir)
        monitor.start(total=len(tasks), jobs=self.jobs)
        results: Dict[int, TaskResult] = {}
        failures: List[Tuple[SweepTask, str]] = []
        work = deque((i, task, task.attempt) for i, task in enumerate(tasks))
        inflight: Dict[Any, _Inflight] = {}
        executor: Optional[ProcessPoolExecutor] = None
        max_inflight = self.jobs * 2
        n_retries = 0
        n_timeouts = 0
        n_pool_rebuilds = 0

        def fail_or_retry(index: int, task: SweepTask, attempt: int, reason: str) -> None:
            nonlocal n_retries
            if attempt < self.retries:
                n_retries += 1
                work.append((index, task, attempt + 1))
            else:
                failures.append((task, reason))

        try:
            while work or inflight:
                rebuild = False
                while work and len(inflight) < max_inflight:
                    index, task, attempt = work.popleft()
                    if executor is None:
                        executor = self._make_executor()
                    try:
                        fut = executor.submit(
                            _worker_run,
                            task.with_attempt(attempt),
                            with_metrics,
                            ts_config,
                            with_profile,
                            heartbeat_dir,
                            diss_config,
                        )
                    except BrokenExecutor:
                        # A worker died since the last wait and the pool
                        # takes no new work.  Keep the task (no attempt
                        # spent); the dead worker's futures are still in
                        # ``inflight`` and trigger the rebuild below.
                        work.appendleft((index, task, attempt))
                        rebuild = not inflight
                        break
                    inflight[fut] = _Inflight(index, task, attempt, time.monotonic())
                wait_timeout = None if self.timeout_s is None else _POLL_S
                done, _ = futures_wait(
                    set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    item = inflight.pop(fut)
                    try:
                        results[item.index] = fut.result()
                        monitor.task_done(item.task.task_id, len(results))
                    except BrokenExecutor:
                        rebuild = True
                        fail_or_retry(
                            item.index, item.task, item.attempt,
                            "worker process died (pool broken)",
                        )
                    except Exception as exc:  # noqa: BLE001 - task-level failure
                        fail_or_retry(
                            item.index, item.task, item.attempt,
                            f"{type(exc).__name__}: {exc}",
                        )
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for fut, item in list(inflight.items()):
                        if now - item.submitted > self.timeout_s:
                            # The worker may still be running; stop waiting
                            # for it, rebuild the pool, retry elsewhere.
                            del inflight[fut]
                            fut.cancel()
                            n_timeouts += 1
                            rebuild = True
                            fail_or_retry(
                                item.index, item.task, item.attempt,
                                f"timeout after {self.timeout_s}s",
                            )
                if rebuild and executor is not None:
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
                    n_pool_rebuilds += 1
                    # Futures cancelled before starting surface as
                    # CancelledError in the next done-set and are retried.
        finally:
            if executor is not None:
                # Normal teardown waits for workers to exit cleanly; the
                # no-wait shutdown is reserved for rebuilds after a hang.
                executor.shutdown(wait=True, cancel_futures=True)

        if failures:
            monitor.finish("failed")
            raise SweepError(failures, results)

        ordered = [results[i] for i in range(len(tasks))]
        # Deterministic merge: fold worker-side counters/metrics home in
        # task order (not completion order), so repeated runs agree.
        for result in ordered:
            if result.kernel_delta:
                merge_kernel_invocations(result.kernel_delta)
            if with_metrics and result.metrics:
                self.obs.metrics.merge_snapshot(result.metrics)
            if ts_config is not None and result.timeseries:
                self.obs.timeseries.merge(result.timeseries)
            if with_profile and result.profile:
                self.obs.profiler.merge_snapshot(result.profile)
            if diss_config is not None and result.dissemination:
                self.obs.dissemination.merge(result.dissemination)
        monitor.finish("done")
        self._set_info({
            "mode": "pool",
            "jobs": self.jobs,
            "retries": n_retries,
            "timeouts": n_timeouts,
            "pool_rebuilds": n_pool_rebuilds,
            "tasks": [
                {
                    "task_id": r.task_id,
                    "worker_pid": r.worker_pid,
                    "elapsed_s": round(r.elapsed_s, 6),
                    "attempt": r.attempt,
                }
                for r in ordered
            ],
        })
        return ordered


def run_sweep(
    tasks: Sequence[SweepTask],
    runner: Optional[ParallelRunner] = None,
    obs: Optional[Observability] = None,
) -> List[Any]:
    """Execute tasks and return their payloads in task order.

    Without a runner this is the plain serial path: each task executes
    in-process against ``obs`` (the parent bundle), exactly as the
    experiment loops did before the runner existed.  With a runner, the
    runner's configuration (including its ``obs``) governs execution.
    """
    if runner is None:
        return [execute_task(task, obs=obs).payload for task in tasks]
    return [result.payload for result in runner.run(tasks)]
