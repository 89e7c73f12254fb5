"""Figure 3: disobeying the message protocol.

The paper varies the fraction of peers that disobey BarterCast's message
protocol — drawn from the freerider half, at most 50 % of the population —
under the ban policy with δ = −0.5, and plots the average download speed
of sharers and freeriders against that fraction:

(a) **ignorers** (send no messages at all): effectiveness barely changes —
the sharers' banning decisions rest on information from other sharers and
from obeying freeriders;

(b) **selfish liars** (claim huge uploads, zero downloads): effectiveness
degrades as the lying fraction grows, but the protocol remains effective
below roughly 18 % liars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import BanPolicy
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.obs import Observability

__all__ = [
    "Fig3Result",
    "run_fig3_point",
    "fig3_tasks",
    "assemble_fig3",
]

KB = 1024.0


@dataclass
class Fig3Result:
    """Speeds as a function of the disobeying-peer percentage.

    Attributes
    ----------
    kind:
        ``"ignore"`` (panel a) or ``"lie"`` (panel b).
    percentages:
        Disobeying-peer percentages swept.
    sharer_speed_kbps / freerider_speed_kbps:
        Whole-run average download speed per group at each percentage.
    """

    kind: str
    percentages: np.ndarray
    sharer_speed_kbps: np.ndarray
    freerider_speed_kbps: np.ndarray

    def relative_freerider_speed(self) -> np.ndarray:
        """Freerider speed as a fraction of sharer speed per percentage —
        the effectiveness measure the paper discusses (lower = policy
        still biting)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.freerider_speed_kbps / self.sharer_speed_kbps


def _validate_kind_and_percentages(
    scenario: ScenarioConfig, kind: str, percentages: Sequence[float]
) -> None:
    if kind not in ("ignore", "lie"):
        raise ValueError(f"unknown manipulation kind {kind!r}")
    max_pct = scenario.freerider_fraction * 100.0
    for pct in percentages:
        if pct > max_pct + 1e-9:
            raise ValueError(
                f"{pct}% disobeying exceeds the freerider fraction ({max_pct}%)"
            )


def run_fig3_point(
    scenario: ScenarioConfig,
    kind: str,
    pct: float,
    delta: float = -0.5,
    obs: Optional[Observability] = None,
) -> Tuple[float, float]:
    """One Figure 3 sweep point: one simulation at ``pct`` % disobeyers.

    Returns ``(sharer_speed_kbps, freerider_speed_kbps)`` — the picklable
    unit payload of the parallel sweep.
    """
    sim = build_simulation(
        scenario,
        policy=BanPolicy(delta),
        disobey_fraction=pct / 100.0,
        disobey_kind=kind if pct > 0 else None,
        obs=obs,
    )
    stats = sim.run()
    return (
        stats.group_mean_speed(sim.roles.sharers) / KB,
        stats.group_mean_speed(sim.roles.freeriders) / KB,
    )


def fig3_tasks(
    scenario: ScenarioConfig,
    kind: str = "ignore",
    percentages: Sequence[float] = (0, 10, 20, 30, 40, 50),
    delta: float = -0.5,
) -> List[Any]:
    """The independent sweep tasks of one Figure 3 panel, in sweep order:
    :func:`run_fig3_point` and its arguments, one task per percentage."""
    _validate_kind_and_percentages(scenario, kind, percentages)
    from repro.parallel import SweepTask

    return [
        SweepTask(
            f"fig3/{kind}/{pct:g}pct",
            run_fig3_point,
            {"scenario": scenario, "kind": kind, "pct": float(pct), "delta": delta},
        )
        for pct in percentages
    ]


def assemble_fig3(
    payloads: Sequence[Tuple[float, float]],
    kind: str,
    percentages: Sequence[float] = (0, 10, 20, 30, 40, 50),
) -> Fig3Result:
    """Merge per-point payloads (in sweep order) into the panel result."""
    if len(payloads) != len(percentages):
        raise ValueError(
            f"expected {len(percentages)} fig3 payloads, got {len(payloads)}"
        )
    return Fig3Result(
        kind=kind,
        percentages=np.asarray(percentages, dtype=float),
        sharer_speed_kbps=np.asarray([p[0] for p in payloads]),
        freerider_speed_kbps=np.asarray([p[1] for p in payloads]),
    )

