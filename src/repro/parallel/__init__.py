"""Parallel sweep execution: process-pool fan-out with bit-identical merge.

The evaluation grid of the paper — policy conditions, disobedience
percentages, deployment sizes — decomposes into independent
``(experiment, parameter point, seed)`` units.  This package runs those
units across worker processes and merges the results deterministically:

:mod:`repro.parallel.tasks`
    :class:`SweepTask` (the picklable unit spec), :class:`TaskResult`,
    the executor registry, and task builders for single-run experiments.
:mod:`repro.parallel.runner`
    :class:`ParallelRunner` (``--jobs N``; ``1`` = the exact serial code
    path), chunked scheduling, per-task timeout with retry, crash
    isolation, and the task-order merge of payloads and observability
    snapshots.

See ``DESIGN.md`` §8 for the determinism contract and its limits.
"""

from repro.parallel.runner import ParallelRunner, SweepError, run_sweep
from repro.parallel.tasks import (
    EXECUTORS,
    SweepTask,
    TaskResult,
    execute_task,
    fig1_task,
    fig4_task,
    register_executor,
    scalability_task,
    whitewash_tasks,
)

__all__ = [
    "ParallelRunner",
    "SweepError",
    "run_sweep",
    "SweepTask",
    "TaskResult",
    "EXECUTORS",
    "register_executor",
    "execute_task",
    "fig1_task",
    "fig4_task",
    "whitewash_tasks",
    "scalability_task",
]
