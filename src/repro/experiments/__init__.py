"""Experiment drivers: one module per figure of the paper.

Each driver builds its scenario, runs the simulator(s), and returns a
result dataclass carrying exactly the series the paper plots; the
:mod:`repro.experiments.report` helpers render those series as tables and
ASCII charts for terminal inspection and for EXPERIMENTS.md.

Profiles: every driver accepts a :class:`~repro.experiments.scenario
.ScenarioConfig`; ``ScenarioConfig.paper()`` matches the paper's setup
(100 peers, 10 swarms, one week) and ``ScenarioConfig.fast()`` is a
scaled-down profile used by tests and the benchmark harness (the shapes —
who wins, crossover ordering — hold in both; see EXPERIMENTS.md).
"""

from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.experiments.fig1 import Fig1Result, fig1_task, run_fig1
from repro.experiments.fig2 import (
    Fig2Result,
    assemble_fig2,
    fig2_tasks,
    run_fig2_policy,
)
from repro.experiments.fig3 import (
    Fig3Result,
    assemble_fig3,
    fig3_tasks,
    run_fig3_point,
)
from repro.experiments.fig4 import Fig4Result, fig4_task, run_fig4
from repro.experiments.faults import (
    FaultPoint,
    FaultsResult,
    assemble_faults,
    fault_tasks,
    run_fault_point,
)
from repro.experiments.whitewash import (
    WhitewashParams,
    WhitewashResult,
    run_whitewash,
    whitewash_tasks,
)
from repro.experiments.scalability import (
    ScalabilityPoint,
    ScalabilityResult,
    run_scalability,
    scalability_task,
)
from repro.experiments import report

__all__ = [
    "ScenarioConfig",
    "build_simulation",
    "Fig1Result",
    "run_fig1",
    "fig1_task",
    "Fig2Result",
    "run_fig2_policy",
    "fig2_tasks",
    "assemble_fig2",
    "Fig3Result",
    "run_fig3_point",
    "fig3_tasks",
    "assemble_fig3",
    "Fig4Result",
    "run_fig4",
    "fig4_task",
    "FaultPoint",
    "FaultsResult",
    "run_fault_point",
    "fault_tasks",
    "assemble_faults",
    "WhitewashParams",
    "WhitewashResult",
    "run_whitewash",
    "whitewash_tasks",
    "ScalabilityPoint",
    "ScalabilityResult",
    "run_scalability",
    "scalability_task",
    "report",
]
