"""Sweep tasks: the picklable unit of parallel experiment execution.

A :class:`SweepTask` names one independent simulation unit — one
``(experiment, parameter point, seed)`` triple — carrying everything a
worker process needs to execute it from scratch.  Executors live in a
registry keyed by ``experiment`` and import their experiment modules
lazily, so this module stays import-light and cycle-free (experiment
modules import :mod:`repro.parallel` for the task type).

Determinism contract
--------------------
A task's result is a pure function of its spec: the executor rebuilds the
scenario/simulation from the task's parameters and seed, and every random
stream inside derives from that seed via :class:`~repro.sim.rng
.RngRegistry` (per-task derivation: :meth:`~repro.sim.rng.RngRegistry
.task_seed`).  Which worker runs the task, and in what order, therefore
cannot influence the payload — the property the bit-identical merge of
:mod:`repro.parallel.runner` rests on.  What a task *records* travels
the same way: see :func:`execute_task` (``collect``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.obs import NULL_OBS, Observability

__all__ = [
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


@dataclass(frozen=True)
class SweepTask:
    """One independent simulation unit of a sweep.

    Attributes
    ----------
    task_id:
        Stable unique id; the merge key.  Results are merged by id/order,
        never by completion time, so merging is order-independent.
    experiment:
        Executor registry key (``"fig2_policy"``, ``"fig3_point"``, ...).
    params:
        Executor-specific knobs.  Must be picklable; may embed a
        :class:`~repro.experiments.scenario.ScenarioConfig`.
    seed:
        The task's root seed (recorded for the manifest; the scenario
        object embedded in ``params`` carries the seed the simulation
        actually consumes).
    profile:
        Scenario profile tag, for manifests and reports.
    attempt:
        Execution attempt (0 = first try); the runner bumps it on retry.
    """

    task_id: str
    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    profile: Optional[str] = None
    attempt: int = 0

    def with_attempt(self, attempt: int) -> "SweepTask":
        return replace(self, attempt=attempt)


@dataclass
class TaskResult:
    """What one executed task sends home.

    ``obs`` is the snapshot of the bundle the task recorded against
    (empty for an inline task, which recorded straight into the parent's
    bundle); ``worker_pid`` / ``elapsed_s`` / ``attempt`` feed the
    manifest's worker-partition record.
    """

    task_id: str
    payload: Any
    obs: Dict[str, Any] = field(default_factory=dict)
    worker_pid: int = 0
    elapsed_s: float = 0.0
    attempt: int = 0


# ----------------------------------------------------------------------
# Executor registry
# ----------------------------------------------------------------------
Executor = Callable[[SweepTask, Observability], Any]

EXECUTORS: Dict[str, Executor] = {}


def register_executor(name: str) -> Callable[[Executor], Executor]:
    """Register an executor under ``name`` (decorator form)."""

    def deco(fn: Executor) -> Executor:
        EXECUTORS[name] = fn
        return fn

    return deco


@register_executor("fig1")
def _exec_fig1(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.fig1 import run_fig1

    return run_fig1(task.params["scenario"], obs=obs)


@register_executor("fig2_policy")
def _exec_fig2_policy(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.fig2 import run_fig2_policy

    p = task.params
    return run_fig2_policy(p["scenario"], p["policy"], p.get("delta"), obs=obs)


@register_executor("fig3_point")
def _exec_fig3_point(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.fig3 import run_fig3_point

    p = task.params
    return run_fig3_point(p["scenario"], p["kind"], p["pct"], p["delta"], obs=obs)


@register_executor("fig4")
def _exec_fig4(task: SweepTask, obs: Observability) -> Any:
    from repro.deployment.network import DeploymentParams
    from repro.experiments.fig4 import run_fig4

    p = task.params
    return run_fig4(
        DeploymentParams(num_peers=p["peers"]), seed=task.seed, obs=obs
    )


@register_executor("fault_point")
def _exec_fault_point(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.faults import run_fault_point

    p = task.params
    return run_fault_point(
        p["scenario"], p["faults"], delta=p["delta"],
        top_k=p.get("top_k", 0), obs=obs, engine=p.get("engine"),
    )


@register_executor("whitewash")
def _exec_whitewash(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.whitewash import run_whitewash

    return run_whitewash(task.params["kind"], seed=task.seed)


@register_executor("scalability")
def _exec_scalability(task: SweepTask, obs: Observability) -> Any:
    from repro.experiments.scalability import run_scalability

    return run_scalability(sizes=tuple(task.params["sizes"]), seed=task.seed)


# -- test/bench fixtures (cheap, deterministic, crash/hang injectable) --
@register_executor("_echo")
def _exec_echo(task: SweepTask, obs: Observability) -> Any:
    """Return the params verbatim (plumbing and determinism tests)."""
    return dict(task.params)


@register_executor("_crash")
def _exec_crash(task: SweepTask, obs: Observability) -> Any:
    """Die without cleanup on the first attempt (crash-isolation tests).

    ``os._exit`` bypasses Python teardown, simulating a segfaulting or
    OOM-killed worker; the retry (attempt > 0) succeeds.
    """
    if task.attempt < int(task.params.get("crash_attempts", 1)):
        os._exit(17)
    return {"survived": True, "attempt": task.attempt}


@register_executor("_sleep")
def _exec_sleep(task: SweepTask, obs: Observability) -> Any:
    """Sleep (timeout tests); sleeps only on attempts < hang_attempts."""
    if task.attempt < int(task.params.get("hang_attempts", 99)):
        time.sleep(float(task.params["seconds"]))
    return {"slept": True, "attempt": task.attempt}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
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
    executor = EXECUTORS.get(task.experiment)
    if executor is None:
        raise KeyError(f"no executor registered for experiment {task.experiment!r}")
    obs.begin_task(task.task_id)
    t0 = time.perf_counter()
    payload = executor(task, obs)
    elapsed = time.perf_counter() - t0
    return TaskResult(
        task_id=task.task_id,
        payload=payload,
        obs=obs.snapshot() if collect else {},
        worker_pid=os.getpid(),
        elapsed_s=elapsed,
        attempt=task.attempt,
    )


# ----------------------------------------------------------------------
# Task builders for single-run experiments (multi-run builders live in
# their experiment modules: fig2_tasks / fig3_tasks).
# ----------------------------------------------------------------------
def fig1_task(scenario) -> SweepTask:
    """Figure 1 as a single sweep task."""
    return SweepTask(
        task_id="fig1",
        experiment="fig1",
        params={"scenario": scenario},
        seed=scenario.seed,
        profile=scenario.name,
    )


def fig4_task(peers: int, seed: int) -> SweepTask:
    """Figure 4 (deployment crawl) as a single sweep task."""
    return SweepTask(
        task_id=f"fig4/{peers}p",
        experiment="fig4",
        params={"peers": int(peers)},
        seed=int(seed),
        profile=None,
    )


def whitewash_tasks(seed: int, kinds=("trusted", "static", "adaptive")):
    """One task per stranger policy of the whitewashing assessment."""
    return [
        SweepTask(
            task_id=f"whitewash/{kind}",
            experiment="whitewash",
            params={"kind": kind},
            seed=int(seed),
        )
        for kind in kinds
    ]


def scalability_task(sizes, seed: int) -> SweepTask:
    """The scalability assessment as one task (its sizes grow one view
    incrementally, so the experiment is internally sequential)."""
    return SweepTask(
        task_id="scalability",
        experiment="scalability",
        params={"sizes": tuple(int(s) for s in sizes)},
        seed=int(seed),
    )
