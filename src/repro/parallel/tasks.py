"""Sweep tasks: the picklable unit of parallel experiment execution.

A :class:`SweepTask` is one independent simulation unit: a module-level
function and the keyword arguments it runs with.  The experiment modules
build their own tasks (``fig1_task``, ``fig2_tasks``, ``fault_tasks``,
...), so this package knows no experiment.

Determinism contract
--------------------
A task's result is a pure function of its spec: the function rebuilds
the scenario/simulation from its arguments, and every random stream
inside derives from the seed those arguments carry, via
:class:`~repro.sim.rng.RngRegistry`.  Which worker runs the task, and in
what order, therefore cannot influence the payload — the property the
task-order merge of :mod:`repro.parallel.runner` rests on.  What a task
*records* travels the same way: see :func:`execute_task` (``collect``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.obs import NULL_OBS, Observability

__all__ = ["SweepTask", "TaskResult", "execute_task"]


@dataclass(frozen=True)
class SweepTask:
    """One independent simulation unit of a sweep.

    ``task_id`` is stable and unique: the label a task records under and
    the name a failure reports.  ``run`` is a module-level function (a
    worker unpickles it by name) called as ``run(**params, obs=obs)``;
    ``params`` must pickle.
    """

    task_id: str
    run: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TaskResult:
    """What one executed task sends home.

    ``obs`` is the snapshot of the bundle the task recorded against
    (empty for an inline task, which recorded straight into the parent's
    bundle); ``worker_pid`` / ``elapsed_s`` feed the manifest's
    worker-partition record.
    """

    task_id: str
    payload: Any
    obs: Dict[str, Any] = field(default_factory=dict)
    worker_pid: int = 0
    elapsed_s: float = 0.0


def execute_task(
    task: SweepTask, obs: Optional[Observability] = None, collect: bool = False
) -> TaskResult:
    """Execute one task in this process and wrap the payload.

    Inline (the default), ``obs`` — e.g. the parent's own bundle — is
    threaded straight through and the result carries no snapshot.  With
    ``collect`` (the worker path) the task records against a fresh mirror
    of ``obs`` and the mirror's snapshot rides home with the result, to
    be merged in task order.
    """
    if obs is None:
        obs = NULL_OBS
    if collect:
        obs = Observability(**obs.spec())
    obs.begin_task(task.task_id)
    t0 = time.perf_counter()
    payload = task.run(**task.params, obs=obs)
    elapsed = time.perf_counter() - t0
    return TaskResult(
        task_id=task.task_id,
        payload=payload,
        obs=obs.snapshot() if collect else {},
        worker_pid=os.getpid(),
        elapsed_s=elapsed,
    )
