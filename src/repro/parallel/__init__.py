"""Parallel sweep execution: process-pool fan-out with bit-identical merge.

The evaluation grid of the paper — policy conditions, disobedience
percentages, fault levels — decomposes into independent, fully seeded
simulations.  This package runs them across worker processes and reads
the results back in task order; it knows no experiment (each experiment
module builds its own tasks):

:mod:`repro.parallel.tasks`
    :class:`SweepTask` (a module-level function and its keyword
    arguments), :class:`TaskResult` and :func:`execute_task`.
:mod:`repro.parallel.runner`
    :class:`ParallelRunner` (``--jobs N``; ``1`` = the exact serial code
    path), the failure rule (:class:`SweepError` names the failing task)
    and the task-order merge of payloads and observability snapshots.

See ``DESIGN.md`` §8 for the determinism contract and its limits.
"""

from repro.parallel.runner import ParallelRunner, SweepError, run_sweep
from repro.parallel.tasks import SweepTask, TaskResult, execute_task

__all__ = [
    "ParallelRunner",
    "SweepError",
    "run_sweep",
    "SweepTask",
    "TaskResult",
    "execute_task",
]
