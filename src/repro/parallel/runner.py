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
* **Truthful telemetry** — each worker records against a fresh mirror
  of the parent's observability bundle and ships the mirror's snapshot
  home; the parent merges snapshots in task order, so manifests and
  exports report what a serial run would.

A bundle that cannot be mirrored — a live tracer: one JSONL file, one
emitter — forces the inline path; the CLI surfaces a notice.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import NULL_OBS, Observability
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


def _worker_run(task: SweepTask, obs_spec: Dict[str, Any]) -> TaskResult:
    """Module-level worker entry point (must be picklable by the pool)."""
    return execute_task(task, Observability(**obs_spec), collect=True)


def _partition(results: List[TaskResult]) -> List[Dict[str, Any]]:
    """Who ran what, for the manifest's ``parallel`` note."""
    return [
        {
            "task_id": r.task_id,
            "worker_pid": r.worker_pid,
            "elapsed_s": round(r.elapsed_s, 6),
            "attempt": r.attempt,
        }
        for r in results
    ]


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
        The parent observability bundle.  Workers record against fresh
        mirrors of it, shipped home and merged in task order; a bundle
        with no mirror (live tracer) forces inline execution.

    Workers start by ``fork`` where available (cheap, inherits the warm
    interpreter), else by the platform default.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        obs: Optional[Observability] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = int(jobs)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.obs = obs if obs is not None else NULL_OBS
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
        obs_spec = self.obs.spec() if self.jobs > 1 else None
        if obs_spec is None:
            return self._run_inline(tasks, forced=self.jobs > 1)
        return self._run_pool(tasks, obs_spec)

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
            "tasks": _partition(results),
        })
        return results

    # ------------------------------------------------------------------
    def _make_executor(self) -> ProcessPoolExecutor:
        try:
            ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = get_context()
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

    def _run_pool(
        self, tasks: List[SweepTask], obs_spec: Dict[str, Any]
    ) -> List[TaskResult]:
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
                            _worker_run, task.with_attempt(attempt), obs_spec
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
            raise SweepError(failures, results)

        ordered = [results[i] for i in range(len(tasks))]
        # Deterministic merge: fold worker-side telemetry home in task
        # order (not completion order), so repeated runs agree.
        for result in ordered:
            self.obs.merge(result.obs)
        self._set_info({
            "mode": "pool",
            "jobs": self.jobs,
            "retries": n_retries,
            "timeouts": n_timeouts,
            "pool_rebuilds": n_pool_rebuilds,
            "tasks": _partition(ordered),
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
    runner = runner if runner is not None else ParallelRunner(obs=obs)
    return [result.payload for result in runner.run(tasks)]
