"""Synthetic Tribler-like population with heavy-tailed contribution.

The generator produces a *consistent* transfer network: it first samples
per-peer behavioural classes and download volumes, then realizes them as
pairwise transfers (download chunks assigned to uploaders proportionally
to upload propensity), so that every peer's private history agrees with
its counterparties' histories — exactly the property the real network has
and the one BarterCast's gossip relies on.

Peer classes (fractions are parameters):

* **fresh installs** — never transferred a byte; the paper observes a
  visible cluster at exactly zero ("most likely just installed the client
  without using it").
* **consumers** — the majority: download much more than they upload
  (Figure 4(a): "a majority of the peers has downloaded more than what
  they have uploaded").
* **altruists** — a small tail that uploads far more than it downloads,
  "with tens of gigabytes contribution".

Because Tribler peers also barter with non-Tribler BitTorrent clients,
global upload need not equal global download among the observed peers; the
generator reproduces that by letting a share of each consumer's download
come from *external* (unobserved) sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.history import PrivateHistory
from repro.sim.rng import RngRegistry

__all__ = ["DeploymentParams", "DeploymentNetwork"]

MB = 1024.0**2
GB = 1024.0**3


@dataclass
class DeploymentParams:
    """Knobs of the synthetic deployment population.

    Attributes
    ----------
    num_peers:
        Observed population size (paper: ~5000).
    fresh_fraction:
        Fraction of just-installed peers with zero transfers.
    altruist_fraction:
        Fraction of heavy uploaders.
    mean_download_log / sigma_download_log:
        Log-normal parameters (natural log, bytes) of consumer download
        volume; defaults span ~10 MB to ~100 GB.
    consumer_upload_ratio_max:
        Consumers upload a uniform fraction in ``[0, max]`` of what they
        download (keeps the majority net-negative).
    external_fraction:
        Share of download volume served by unobserved non-Tribler peers.
    partners_mean:
        Mean number of distinct upload partners per consumer.
    measurement_upload_gb:
        Total upload volume of the instrumented measurement peer; the
        paper's logging peer was a well-connected, long-lived participant,
        which is what makes its subjective reputations informative (its
        outgoing maxflow is bounded by its own uploads).
    measurement_partner_fraction:
        Fraction of the population the measurement peer bartered with
        directly; a fraction (rather than a count) keeps the 2-hop reach
        geometry scale-invariant when the population size changes.
    measurement_download_fraction / measurement_download_max:
        Share of the measurement peer's partners it also downloaded from,
        and the per-partner download cap — these produce its positive-
        reputation tail.
    """

    num_peers: int = 5000
    fresh_fraction: float = 0.22
    altruist_fraction: float = 0.03
    mean_download_log: float = 21.5  # exp(21.5) ~ 2.2 GB
    sigma_download_log: float = 1.6
    consumer_upload_ratio_max: float = 0.9
    external_fraction: float = 0.35
    partners_mean: float = 12.0
    altruist_upload_gb_min: float = 5.0
    altruist_upload_gb_max: float = 80.0
    measurement_upload_gb: float = 40.0
    measurement_partner_fraction: float = 0.04
    measurement_download_fraction: float = 0.6
    measurement_download_max: float = 300 * MB

    def validate(self) -> None:
        """Sanity-check ranges; raises ``ValueError``."""
        if self.num_peers < 10:
            raise ValueError("need at least 10 peers")
        for name in ("fresh_fraction", "altruist_fraction", "external_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.fresh_fraction + self.altruist_fraction >= 1.0:
            raise ValueError("class fractions exceed 1")
        if not 0.0 < self.measurement_partner_fraction <= 1.0:
            raise ValueError("measurement_partner_fraction must be in (0, 1]")
        if not 0.0 <= self.measurement_download_fraction <= 1.0:
            raise ValueError("measurement_download_fraction must be a probability")

    @property
    def measurement_partners(self) -> int:
        """Resolved partner count for the configured population size."""
        return max(1, int(self.measurement_partner_fraction * self.num_peers))


class DeploymentNetwork:
    """The generated population and its consistent transfer graph.

    Attributes (after construction)
    -------------------------------
    peer_ids:
        The observed peers, ``0 .. num_peers-1``.
    measurement_id:
        The instrumented peer's id (``num_peers``).
    edges:
        ``{(uploader, downloader): bytes}`` over observed peers and the
        measurement peer.  External (unobserved) volume is *not* in the
        edge set — it only inflates the download totals below.
    uploaded / downloaded:
        Ground-truth totals per peer **including** external volume; this
        is what Figure 4(a) plots.
    histories:
        Per-peer :class:`~repro.core.history.PrivateHistory` built from
        the edge set (the gossip source material).
    """

    def __init__(self, params: DeploymentParams = None, seed: int = 0) -> None:
        self.params = params if params is not None else DeploymentParams()
        self.params.validate()
        self.seed = int(seed)
        self.measurement_id = self.params.num_peers
        self.peer_ids: List[int] = list(range(self.params.num_peers))
        self.edges: Dict[Tuple[int, int], float] = {}
        self.uploaded: Dict[int, float] = {}
        self.downloaded: Dict[int, float] = {}
        self.histories: Dict[int, PrivateHistory] = {}
        self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> None:
        p = self.params
        rngs = RngRegistry(self.seed)
        rng = rngs.stream("deployment")
        gen = rng.generator
        n = p.num_peers

        # --- class assignment ------------------------------------------------
        classes = np.full(n, "consumer", dtype=object)
        order = gen.permutation(n)
        n_fresh = int(p.fresh_fraction * n)
        n_alt = int(p.altruist_fraction * n)
        classes[order[:n_fresh]] = "fresh"
        classes[order[n_fresh : n_fresh + n_alt]] = "altruist"
        self.classes = {pid: str(classes[pid]) for pid in range(n)}

        # --- volumes ---------------------------------------------------------
        download = np.zeros(n)
        consumer_mask = classes == "consumer"
        altruist_mask = classes == "altruist"
        download[consumer_mask] = gen.lognormal(
            p.mean_download_log, p.sigma_download_log, consumer_mask.sum()
        )
        # Altruists also download a little.
        download[altruist_mask] = gen.lognormal(
            p.mean_download_log - 1.0, 1.0, altruist_mask.sum()
        )
        # Upload propensity: how attractive a peer is as an uploader.
        propensity = np.zeros(n)
        propensity[consumer_mask] = gen.uniform(
            0.0, p.consumer_upload_ratio_max, consumer_mask.sum()
        ) * download[consumer_mask]
        propensity[altruist_mask] = (
            gen.uniform(p.altruist_upload_gb_min, p.altruist_upload_gb_max, altruist_mask.sum())
            * GB
        )

        # --- realize transfers -----------------------------------------------
        uploader_pool = np.flatnonzero(propensity > 0)
        weights = propensity[uploader_pool]
        weights = weights / weights.sum()
        edges = self.edges
        for pid in range(n):
            vol = download[pid] * (1.0 - p.external_fraction)
            if vol <= 0:
                continue
            # A peer never downloads from itself: exclude it from the
            # candidate pool (renormalizing the weights) rather than
            # discarding its Dirichlet share afterwards, which silently
            # deflated realized internal volume below the sampled
            # ground truth.
            if propensity[pid] > 0:
                mask = uploader_pool != pid
                pool = uploader_pool[mask]
                pool_weights = weights[mask]
                total = pool_weights.sum()
                if pool.size == 0 or total <= 0:
                    continue
                pool_weights = pool_weights / total
            else:
                pool = uploader_pool
                pool_weights = weights
            k = max(1, int(gen.poisson(p.partners_mean)))
            partners = gen.choice(pool, size=min(k, pool.size), p=pool_weights)
            shares = gen.dirichlet(np.ones(len(partners)))
            for partner, share in zip(partners, shares):
                partner = int(partner)
                nbytes = float(vol * share)
                if nbytes <= 0:
                    continue
                edges[(partner, pid)] = edges.get((partner, pid), 0.0) + nbytes

        # --- the measurement peer ---------------------------------------------
        m = self.measurement_id
        active = np.flatnonzero(classes != "fresh")
        k = min(p.measurement_partners, active.size)
        partners = gen.choice(active, size=k, replace=False)
        up_shares = gen.dirichlet(np.ones(k)) * p.measurement_upload_gb * GB
        for partner, up in zip(partners, up_shares):
            partner = int(partner)
            edges[(m, partner)] = edges.get((m, partner), 0.0) + float(up)
            # The measurement peer also downloads from a subset of partners.
            if gen.random() < p.measurement_download_fraction:
                down = float(gen.uniform(1 * MB, p.measurement_download_max))
                edges[(partner, m)] = edges.get((partner, m), 0.0) + down

        # --- totals (edge volume + external download) --------------------------
        uploaded = {pid: 0.0 for pid in range(n)}
        downloaded = {pid: 0.0 for pid in range(n)}
        uploaded[m] = 0.0
        downloaded[m] = 0.0
        for (src, dst), w in edges.items():
            uploaded[src] += w
            downloaded[dst] += w
        for pid in range(n):
            downloaded[pid] += download[pid] * p.external_fraction
        self.uploaded = uploaded
        self.downloaded = downloaded

        # --- private histories -------------------------------------------------
        histories = {pid: PrivateHistory(pid) for pid in list(range(n)) + [m]}
        for (src, dst), w in edges.items():
            t = rng.uniform(0.0, 30 * 86400.0)
            histories[src].record_upload(dst, w, t)
            histories[dst].record_download(src, w, t)
        self.histories = histories

    # ------------------------------------------------------------------
    def net_contribution(self, pid: int) -> float:
        """Ground-truth upload − download of ``pid`` (bytes)."""
        return self.uploaded[pid] - self.downloaded[pid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DeploymentNetwork peers={len(self.peer_ids)} edges={len(self.edges)} "
            f"seed={self.seed}>"
        )
