"""Figure 4: deployment measurement.

(a) Upload − download of ~5000 peers seen by the instrumented peer during
one month: a majority net-negative, a cluster at exactly zero (fresh
installs), and a few very generous altruists with tens of gigabytes.

(b) CDF of those peers' reputations as computed by the measurement peer:
about 40 % negative, about 10 % positive, the rest ≈ 0.

Runs on the synthetic Tribler-like population of
:mod:`repro.deployment` (substitution documented in DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.stats import cdf
from repro.deployment.crawl import MeasurementCrawl
from repro.deployment.network import DeploymentNetwork, DeploymentParams
from repro.obs import Observability

__all__ = ["Fig4Result", "run_fig4", "fig4_task"]

GB = 1024.0**3


@dataclass
class Fig4Result:
    """Observables of the deployment measurement.

    Attributes
    ----------
    net_contribution:
        Ground-truth upload − download (bytes) per seen peer, in peer-id
        order (Figure 4(a) plots these against peer id on a symlog axis).
    reputation_values / reputation_cdf:
        Figure 4(b): sorted reputation sample and its empirical CDF.
    fractions:
        ``{"negative", "zero", "positive"}`` reputation fractions.
    messages_logged / peers_seen:
        Crawl scale indicators.
    """

    net_contribution: np.ndarray
    reputation_values: np.ndarray
    reputation_cdf: np.ndarray
    fractions: Dict[str, float]
    messages_logged: int
    peers_seen: int

    @property
    def max_altruist_gb(self) -> float:
        """Largest positive net contribution, in GB (the paper: tens of GB)."""
        return float(self.net_contribution.max() / GB)


def run_fig4(
    params: DeploymentParams = None,
    duration_days: float = 30.0,
    seed: int = 42,
    obs: Optional[Observability] = None,
) -> Fig4Result:
    """Generate the population, run the crawl, compute both panels."""
    network = DeploymentNetwork(params if params is not None else DeploymentParams(), seed=seed)
    crawl = MeasurementCrawl(network, duration_days=duration_days, seed=seed, obs=obs)
    result = crawl.run()

    net = np.array([result.net_contribution[p] for p in result.seen_peers])
    reps = np.array([result.reputation[p] for p in result.seen_peers])
    values, fractions_axis = cdf(reps)
    return Fig4Result(
        net_contribution=net,
        reputation_values=values,
        reputation_cdf=fractions_axis,
        fractions=result.reputation_cdf_fractions(),
        messages_logged=result.messages_logged,
        peers_seen=len(result.seen_peers),
    )


def fig4_task(peers: int, seed: int):
    """Figure 4 (deployment crawl) as a single sweep task."""
    from repro.parallel import SweepTask

    return SweepTask(
        f"fig4/{peers}p",
        run_fig4,
        {"params": DeploymentParams(num_peers=int(peers)), "seed": int(seed)},
    )
