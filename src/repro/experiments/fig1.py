"""Figure 1: contribution versus reputation.

(a) Average system reputation of sharers vs freeriders over the week —
the paper shows the two curves diverging quickly, freeriders clearly
distinguished from sharers.

(b) Scatter of each peer's final system reputation (Equation 2) against
its *real* net contribution (total upload − total download during the
run) — the paper shows a clearly consistent, monotone relationship.

The run uses plain BitTorrent (no enforcement policy): Figure 1 measures
the reputation system's *consistency*, independent of any policy feedback
on the transfers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import pearson_r, spearman_r
from repro.core.policies import NoPolicy
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.obs import Observability

__all__ = ["Fig1Result", "run_fig1", "fig1_task"]

DAY = 86400.0
GB = 1024.0**3


@dataclass
class Fig1Result:
    """Series for both panels of Figure 1.

    Attributes
    ----------
    times_days:
        Reputation sample times (days).
    sharer_reputation / freerider_reputation:
        Figure 1(a): group-average system reputation per sample.
    net_contribution_gb / system_reputation:
        Figure 1(b): per-peer final values (aligned lists over subjects).
    spearman / pearson:
        Consistency statistics of panel (b).
    """

    times_days: np.ndarray
    sharer_reputation: np.ndarray
    freerider_reputation: np.ndarray
    peer_ids: List[int]
    net_contribution_gb: np.ndarray
    system_reputation: np.ndarray
    spearman: float
    pearson: float

    @property
    def final_separation(self) -> float:
        """Final-sample gap between sharer and freerider average system
        reputation (positive when sharers rank above freeriders)."""
        return float(self.sharer_reputation[-1] - self.freerider_reputation[-1])


def run_fig1(
    scenario: ScenarioConfig = None, obs: Optional[Observability] = None
) -> Fig1Result:
    """Run the Figure 1 experiment and return both panels' series."""
    if scenario is None:
        scenario = ScenarioConfig.fast()
    sim = build_simulation(scenario, policy=NoPolicy(), obs=obs)
    subjects = sim.roles.subjects

    def sampler(now: float) -> None:
        snapshot = sim.system_reputation_snapshot(subjects)
        sim.stats.record_reputation_sample(now, snapshot)

    sim.add_sampler(sampler)
    stats = sim.run()

    sharers, freeriders = sim.roles.sharers, sim.roles.freeriders
    times, sharer_rep = stats.reputation_series(sharers)
    _, freerider_rep = stats.reputation_series(freeriders)

    final = stats.reputation_samples[-1][1] if stats.reputation_samples else {}
    net = np.array([stats.net_contribution(p) / GB for p in subjects])
    rep = np.array([final.get(p, 0.0) for p in subjects])

    return Fig1Result(
        times_days=times / DAY,
        sharer_reputation=sharer_rep,
        freerider_reputation=freerider_rep,
        peer_ids=list(subjects),
        net_contribution_gb=net,
        system_reputation=rep,
        spearman=spearman_r(net, rep),
        pearson=pearson_r(net, rep),
    )


def fig1_task(scenario: ScenarioConfig):
    """Figure 1 as a single sweep task."""
    from repro.parallel import SweepTask

    return SweepTask("fig1", run_fig1, {"scenario": scenario})
