"""Synthetic community-trace generation.

Substitution for the proprietary filelist.org scrape (DESIGN.md §4): a
parametric generator reproducing the structural properties the paper's
simulation consumes —

* ~100 peers active in ~10 swarms during one week;
* file sizes from several tens of MB to 1–2 GB (log-uniform);
* per-peer diurnal online sessions (uptimes/downtimes);
* connectability flags;
* file requests issued while the requesting peer is online;
* uniform ADSL capacities (3 MBps down / 512 KBps up), exactly as the
  paper imposes on its trace.

Private BitTorrent communities keep every torrent seeded; we model that
with one always-online *origin seeder* per swarm (a community seedbox).
Origin seeders are infrastructure, not subjects: experiment statistics
exclude them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.rng import RngRegistry, RngStream
from repro.traces.models import (
    DAY,
    HOUR,
    CommunityTrace,
    FileRequest,
    PeerProfile,
    PeerSession,
    SwarmSpec,
)

__all__ = ["TraceParams", "SyntheticTraceGenerator"]

KB = 1024.0
MB = 1024.0 * KB
GB = 1024.0 * MB


@dataclass
class TraceParams:
    """Knobs of the synthetic community.

    Defaults reproduce the paper's simulation setup (§5.1).

    Attributes
    ----------
    num_peers:
        Community size (excluding origin seeders).
    num_swarms:
        Number of torrents.
    duration:
        Trace horizon in seconds (paper: one week).
    uplink_bps / downlink_bps:
        Uniform ADSL capacities in bytes/second.
    min_file_size / max_file_size:
        Log-uniform file-size range (paper: tens of MB to 1–2 GB).
    target_pieces:
        Pieces per file; the piece size is derived as
        ``clamp(file_size / target_pieces, min_piece_size, max_piece_size)``.
    prime_time_hour:
        Center (hour of day) of the community's prime time; per-peer
        habitual start hours scatter around it.  Sub-day traces should
        lower this so sessions fit inside the horizon.
    day_active_prob:
        Probability a peer comes online on a given day.
    mean_session_hours / session_sigma:
        Log-normal session-duration parameters.
    swarms_per_peer_mean:
        Mean number of distinct files each peer requests over the trace.
    connectable_fraction:
        Fraction of peers that accept incoming connections.
    include_origin_seeders:
        Whether to add one always-online seeder peer per swarm.
    origin_uplink_bps:
        Uplink capacity of origin seeders.  Throttled well below a peer
        uplink: the origin stands in for a community seedbox that keeps
        the torrent *available* but does not carry the swarm — in the
        paper's trace the bulk capacity comes from peers, and an
        unthrottled origin would both dwarf the sharers' contribution and
        hand banned freeriders a policy-free fallback.
    flashcrowd_hours:
        Mean of the exponential delay between a torrent's publication and
        each interested peer's request.  Private-tracker swarms are
        flash crowds — most downloads happen within hours of publication —
        and this correlation is what populates swarms with *concurrent*
        leechers (uniform request times would yield lonely downloads and
        no tit-for-tat/policy dynamics at all).
    publish_window:
        Torrent publication times are uniform in
        ``[0, publish_window * duration]``.
    """

    num_peers: int = 100
    num_swarms: int = 10
    duration: float = 7 * DAY
    uplink_bps: float = 512 * KB
    downlink_bps: float = 3 * MB
    min_file_size: float = 30 * MB
    max_file_size: float = 2 * GB
    target_pieces: int = 512
    min_piece_size: float = 256 * KB
    max_piece_size: float = 4 * MB
    prime_time_hour: float = 14.0
    day_active_prob: float = 0.9
    mean_session_hours: float = 12.0
    session_sigma: float = 0.6
    swarms_per_peer_mean: float = 5.0
    connectable_fraction: float = 0.7
    include_origin_seeders: bool = True
    origin_uplink_bps: float = 160 * 1024.0
    flashcrowd_hours: float = 1.0
    publish_window: float = 0.9

    def validate(self) -> None:
        """Sanity-check parameter ranges; raises ``ValueError``."""
        if self.num_peers < 2:
            raise ValueError("need at least 2 peers")
        if self.num_swarms < 1:
            raise ValueError("need at least 1 swarm")
        if self.duration < HOUR:
            raise ValueError("trace must span at least an hour")
        if not (0 < self.min_file_size <= self.max_file_size):
            raise ValueError("bad file-size range")
        if not (0.0 <= self.day_active_prob <= 1.0):
            raise ValueError("day_active_prob must be a probability")
        if not (0.0 <= self.connectable_fraction <= 1.0):
            raise ValueError("connectable_fraction must be a probability")
        if self.origin_uplink_bps <= 0:
            raise ValueError("origin_uplink_bps must be positive")
        if self.flashcrowd_hours <= 0:
            raise ValueError("flashcrowd_hours must be positive")
        if not (0.0 <= self.publish_window <= 1.0):
            raise ValueError("publish_window must be in [0, 1]")


class SyntheticTraceGenerator:
    """Deterministic trace generation from ``(params, seed)``.

    Examples
    --------
    >>> gen = SyntheticTraceGenerator(TraceParams(num_peers=10, num_swarms=2), seed=1)
    >>> trace = gen.generate()
    >>> trace.validate()
    >>> len(trace.peers) >= 10
    True
    """

    def __init__(self, params: TraceParams, seed: int = 0) -> None:
        params.validate()
        self.params = params
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def generate(self) -> CommunityTrace:
        """Produce a validated :class:`CommunityTrace`."""
        p = self.params
        rngs = RngRegistry(self.seed)
        peers: Dict[int, PeerProfile] = {}
        for pid in range(p.num_peers):
            peers[pid] = self._make_peer(pid, rngs)
        swarms = self._make_swarms(rngs, peers)
        publish_times = self._make_publish_times(rngs)
        requests = self._make_requests(rngs, peers, publish_times)
        trace = CommunityTrace(
            duration=p.duration, peers=peers, swarms=swarms, requests=requests
        )
        trace.validate()
        return trace

    # ------------------------------------------------------------------
    def _make_peer(self, pid: int, rngs: RngRegistry) -> PeerProfile:
        p = self.params
        rng = rngs.spawn("sessions", pid)
        sessions = self._make_sessions(rng)
        connectable = rngs.stream("connectability").bernoulli(p.connectable_fraction)
        return PeerProfile(
            peer_id=pid,
            uplink_bps=p.uplink_bps,
            downlink_bps=p.downlink_bps,
            connectable=connectable,
            sessions=sessions,
        )

    def _make_sessions(self, rng: RngStream) -> List[PeerSession]:
        """Diurnal sessions with prime-time alignment.

        Private-tracker users keep clients online for long stretches
        (ratio protection) and their sessions cluster around an evening
        prime time — the alignment is what makes swarms *dense* (many
        peers concurrently online around a new torrent), which the
        tit-for-tat and policy dynamics depend on.
        """
        p = self.params
        raw: List[List[float]] = []
        num_days = int(-(-p.duration // DAY))
        import math

        mu = math.log(p.mean_session_hours * HOUR) - 0.5 * p.session_sigma**2
        # Each peer has a habitual daily start hour near the community's
        # prime time (center 14:00 so long sessions span the evening).
        habit = p.prime_time_hour * HOUR + rng.generator.normal(0.0, 3.0 * HOUR)
        habit = max(0.0, habit)
        for day in range(num_days):
            if not rng.bernoulli(p.day_active_prob):
                continue
            start = day * DAY + habit + rng.generator.normal(0.0, 1.5 * HOUR)
            start = min(max(start, day * DAY), (day + 1) * DAY - 0.25 * HOUR)
            length = max(0.5 * HOUR, rng.lognormal(mu, p.session_sigma))
            end = min(start + length, p.duration)
            if end - start >= 0.25 * HOUR and start < p.duration:
                raw.append([start, end])
        merged = self._merge_intervals(raw)
        return [PeerSession(s, e) for s, e in merged]

    @staticmethod
    def _merge_intervals(raw: List[List[float]]) -> List[List[float]]:
        if not raw:
            return []
        raw.sort()
        merged = [raw[0][:]]
        for start, end in raw[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return merged

    # ------------------------------------------------------------------
    def _make_swarms(
        self, rngs: RngRegistry, peers: Dict[int, PeerProfile]
    ) -> Dict[int, SwarmSpec]:
        p = self.params
        rng = rngs.stream("swarms")
        import math

        swarms: Dict[int, SwarmSpec] = {}
        log_lo, log_hi = math.log(p.min_file_size), math.log(p.max_file_size)
        for sid in range(p.num_swarms):
            file_size = float(math.exp(rng.uniform(log_lo, log_hi)))
            piece_size = min(
                p.max_piece_size, max(p.min_piece_size, file_size / p.target_pieces)
            )
            if p.include_origin_seeders:
                seeder_id = p.num_peers + sid
                peers[seeder_id] = PeerProfile(
                    peer_id=seeder_id,
                    uplink_bps=p.origin_uplink_bps,
                    downlink_bps=p.downlink_bps,
                    connectable=True,
                    sessions=[PeerSession(0.0, p.duration)],
                )
            else:
                # Without dedicated seeders the first requester of each swarm
                # is promoted to origin (it starts with the complete file).
                seeder_id = int(rng.generator.integers(0, p.num_peers))
            swarms[sid] = SwarmSpec(
                swarm_id=sid,
                file_size=file_size,
                piece_size=piece_size,
                origin_seeder=seeder_id,
            )
        return swarms

    # ------------------------------------------------------------------
    def _make_publish_times(self, rngs: RngRegistry) -> Dict[int, float]:
        """Torrent publication times (flash crowds start here)."""
        p = self.params
        rng = rngs.stream("publish")
        window = p.publish_window * p.duration
        return {sid: rng.uniform(0.0, max(window, 1.0)) for sid in range(p.num_swarms)}

    def _make_requests(
        self,
        rngs: RngRegistry,
        peers: Dict[int, PeerProfile],
        publish_times: Dict[int, float],
    ) -> List[FileRequest]:
        """Flash-crowd arrivals: each interested peer requests the file an
        exponential delay after publication, at its next online moment."""
        p = self.params
        requests: List[FileRequest] = []
        for pid in range(p.num_peers):
            profile = peers[pid]
            if not profile.sessions:
                continue
            rng = rngs.spawn("requests", pid)
            lam = p.swarms_per_peer_mean
            k = min(p.num_swarms, max(1, int(rng.generator.poisson(lam))))
            chosen = rng.sample(range(p.num_swarms), k)
            for sid in chosen:
                desired = publish_times[sid] + rng.exponential(
                    p.flashcrowd_hours * HOUR
                )
                t = profile.next_online_time(desired)
                if t is None or t >= p.duration - 60.0:
                    continue  # the peer never got around to this file
                requests.append(FileRequest(peer_id=pid, swarm_id=sid, time=t))
        requests.sort(key=lambda r: r.time)
        return requests
