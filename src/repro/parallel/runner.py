"""The parallel sweep runner: multi-process fan-out, task-order merge.

The paper's evaluation grid is embarrassingly parallel — every sweep
point is an independent, fully seeded simulation — so the runner submits
every :class:`~repro.parallel.tasks.SweepTask` to a process pool and
reads the results back **in task order**, never in completion order.
Because each task's payload is a pure function of its spec (see
:mod:`repro.parallel.tasks`), the merged output is bit-identical to a
serial run at any ``--jobs`` level.

* **Inline path** — ``jobs == 1`` executes tasks in-process with the
  parent's own observability bundle: exactly the serial code path.
* **Failure** — a task is a pure function of its spec, so re-running it
  cannot help: the first failing task (raised, or its worker died) fails
  the sweep with a :class:`SweepError` that names it, and the pool is
  shut down with nothing left running.
* **Truthful telemetry** — each worker records against a fresh mirror
  of the parent's observability bundle and ships the mirror's snapshot
  home; the parent merges snapshots in task order, so manifests and
  exports report what a serial run would.

A bundle that cannot be mirrored — a live tracer: one JSONL file, one
emitter — forces the inline path; the CLI surfaces a notice.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import NULL_OBS, Observability
from repro.parallel.tasks import SweepTask, TaskResult, execute_task

__all__ = ["ParallelRunner", "SweepError", "run_sweep"]


class SweepError(RuntimeError):
    """A sweep task failed; ``task`` is the task, ``reason`` says how."""

    def __init__(self, task: SweepTask, reason: str) -> None:
        self.task = task
        self.reason = reason
        super().__init__(f"sweep task {task.task_id} failed: {reason}")


def _partition(results: List[TaskResult]) -> List[Dict[str, Any]]:
    """Who ran what, for the manifest's ``parallel`` note."""
    return [
        {
            "task_id": r.task_id,
            "worker_pid": r.worker_pid,
            "elapsed_s": round(r.elapsed_s, 6),
        }
        for r in results
    ]


class ParallelRunner:
    """Fans sweep tasks out to worker processes and merges in task order.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) is the exact serial
        code path — no pool, no pickling, parent observability threaded
        straight through.
    obs:
        The parent observability bundle.  Workers record against fresh
        mirrors of it, shipped home and merged in task order; a bundle
        with no mirror (live tracer) forces inline execution.

    Workers start by ``fork`` where available (cheap, inherits the warm
    interpreter), else by the platform default.
    """

    def __init__(self, jobs: int = 1, obs: Optional[Observability] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.obs = obs if obs is not None else NULL_OBS
        #: Partition/bookkeeping record of the most recent :meth:`run`
        #: (feeds the run manifest's ``parallel`` note).
        self.last_run_info: Dict[str, Any] = {}
        #: One info record per completed :meth:`run`, in call order.
        self.run_history: List[Dict[str, Any]] = []

    def run(self, tasks: Sequence[SweepTask]) -> List[TaskResult]:
        """Execute every task; returns results in task order.

        Raises :class:`SweepError` for the first task that fails in a
        worker; inline, a task's own exception propagates unchanged.
        """
        tasks = list(tasks)
        if not tasks:
            self._set_info({"mode": "inline", "jobs": 1, "tasks": []})
            return []
        spec = self.obs.spec() if self.jobs > 1 else None
        if spec is None:
            results = [execute_task(task, obs=self.obs) for task in tasks]
            self._set_info({
                "mode": "inline",
                "jobs": 1,
                "forced_inline_tracing": self.jobs > 1,
                "tasks": _partition(results),
            })
            return results
        results = self._run_pool(tasks, Observability(**spec))
        # Fold worker-side telemetry home in task order (not completion
        # order), so repeated runs agree.
        for result in results:
            self.obs.merge(result.obs)
        self._set_info({"mode": "pool", "jobs": self.jobs, "tasks": _partition(results)})
        return results

    def _set_info(self, info: Dict[str, Any]) -> None:
        self.last_run_info = info
        self.run_history.append(info)

    def _run_pool(self, tasks: List[SweepTask], mirror: Observability) -> List[TaskResult]:
        try:
            ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = get_context()
        pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
        try:
            # ``collect``: each task records against its own mirror of
            # ``mirror`` (an empty bundle) and ships the snapshot home.
            futures = [pool.submit(execute_task, task, mirror, True) for task in tasks]
            results = []
            for task, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # noqa: BLE001 - names the task
                    raise SweepError(task, f"{type(exc).__name__}: {exc}") from exc
            return results
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(
    tasks: Sequence[SweepTask],
    runner: Optional[ParallelRunner] = None,
    obs: Optional[Observability] = None,
) -> List[Any]:
    """Execute tasks and return their payloads in task order.

    Without a runner this is the plain serial path: each task executes
    in-process against ``obs`` (the parent bundle).  With a runner, the
    runner's configuration (including its ``obs``) governs execution.
    """
    runner = runner if runner is not None else ParallelRunner(obs=obs)
    return [result.payload for result in runner.run(tasks)]
