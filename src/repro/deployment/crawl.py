"""The measurement crawl: one month of logged BarterCast messages.

Reproduces the paper's deployment methodology: an instrumented peer
participates in the network, logs every BarterCast message it receives for
30 days, and afterwards computes the subjective reputation of every peer
it has seen — using exactly the production BarterCast code
(:class:`~repro.core.node.BarterCastNode`).

Message arrival model: each non-fresh peer contacts the measurement peer a
Poisson-distributed number of times over the month (BuddyCast churns
through contacts; a long-lived peer is eventually reached by most of the
active population), sending its honest record selection each time.  Fresh
peers occasionally connect too but have nothing to report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.messages import BarterCastMessage, select_records
from repro.core.node import BarterCastConfig, BarterCastNode
from repro.deployment.network import DeploymentNetwork
from repro.obs import Observability
from repro.sim.rng import RngRegistry

__all__ = ["CrawlResult", "MeasurementCrawl"]

DAY = 86400.0


@dataclass
class CrawlResult:
    """Outcome of a measurement crawl.

    Attributes
    ----------
    seen_peers:
        Peers that appear in the measurement peer's subjective graph
        (directly heard from, or named in someone's records), excluding
        the measurement peer itself.
    net_contribution:
        Ground-truth upload − download (bytes) per seen peer —
        Figure 4(a)'s y-axis.
    reputation:
        The measurement peer's subjective reputation per seen peer —
        Figure 4(b)'s sample.
    messages_logged:
        Number of BarterCast messages the measurement peer received.
    node:
        The measurement peer's BarterCast node after the crawl — its
        subjective graph is the input for post-hoc analyses (e.g. the
        path-length ablation).
    """

    seen_peers: List[int]
    net_contribution: Dict[int, float]
    reputation: Dict[int, float]
    messages_logged: int
    node: object = None

    def reputation_cdf_fractions(self, eps: float = 1e-3) -> Dict[str, float]:
        """Fractions of seen peers with negative / ~zero / positive
        reputation (the paper: ~40 % negative, ~10 % positive)."""
        values = np.array([self.reputation[p] for p in self.seen_peers])
        n = max(1, values.size)
        return {
            "negative": float((values < -eps).sum()) / n,
            "zero": float((np.abs(values) <= eps).sum()) / n,
            "positive": float((values > eps).sum()) / n,
        }


class MeasurementCrawl:
    """Runs the 30-day logging experiment on a deployment network.

    Parameters
    ----------
    network:
        The synthetic population.
    duration_days:
        Logging window (paper: one month).
    contacts_mean:
        Mean number of times an active peer's gossip reaches the
        measurement peer during the window.
    bc_config:
        BarterCast parameters of the measurement peer (defaults match the
        paper: ``Nh = Nr = 10``).
    obs:
        Observability bundle for the measurement node (merge and message
        traces); the node's counts are published into its metrics leg
        when the crawl ends.
    """

    def __init__(
        self,
        network: DeploymentNetwork,
        duration_days: float = 30.0,
        contacts_mean: float = 3.0,
        bc_config: BarterCastConfig = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        if duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if contacts_mean < 0:
            raise ValueError("contacts_mean must be non-negative")
        self.network = network
        self.duration = duration_days * DAY
        self.contacts_mean = contacts_mean
        self.bc_config = bc_config if bc_config is not None else BarterCastConfig()
        self.seed = int(seed)
        self.obs = obs

    def run(self) -> CrawlResult:
        """Execute the crawl and compute the Figure 4 observables."""
        net = self.network
        rng = RngRegistry(self.seed).stream("crawl")
        gen = rng.generator
        node = BarterCastNode(net.measurement_id, self.bc_config, obs=self.obs)

        # Seed the measurement peer's own private history from its real
        # transfers (its edges in the deployment network).
        own = net.histories[net.measurement_id]
        for peer, totals in own.items():
            if totals.uploaded > 0:
                node.record_upload(peer, totals.uploaded, totals.last_seen)
            if totals.downloaded > 0:
                node.record_download(peer, totals.downloaded, totals.last_seen)

        # Message arrivals: (time, sender) pairs over the window.
        arrivals: List[tuple] = []
        for pid in net.peer_ids:
            history = net.histories[pid]
            k = int(gen.poisson(self.contacts_mean))
            if len(history) == 0:
                # Fresh installs rarely gossip anything useful.
                k = min(k, 1)
            for _ in range(k):
                arrivals.append((float(gen.uniform(0.0, self.duration)), pid))
        arrivals.sort()

        logged = 0
        for t, pid in arrivals:
            records = select_records(
                net.histories[pid], self.bc_config.n_highest, self.bc_config.n_recent
            )
            message = BarterCastMessage(sender=pid, created_at=t, records=tuple(records))
            node.receive_message(message)
            node.note_seen(pid, t)
            logged += 1

        # "Seen" = every peer that either appears in the subjective graph
        # (named in some record) or contacted the measurement peer directly
        # (fresh installs gossip empty messages but are still observed).
        seen_set = {p for p in node.graph.nodes() if p in net.uploaded}
        seen_set |= {p for p in node.history.peers() if p in net.uploaded}
        seen_set.discard(net.measurement_id)
        seen = sorted(seen_set)
        reputation = {p: node.reputation_of(p) for p in seen}
        contribution = {p: net.net_contribution(p) for p in seen}
        if self.obs is not None:
            # The measurement node's counts, published as a simulation
            # publishes its nodes'.
            self.obs.metrics.publish({}, node.counts())
        return CrawlResult(
            seen_peers=seen,
            net_contribution=contribution,
            reputation=reputation,
            messages_logged=logged,
            node=node,
        )
