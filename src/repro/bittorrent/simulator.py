"""The trace-driven community simulator.

:class:`CommunitySimulator` combines every substrate in the reproduction:
the discrete-event kernel drives trace sessions and file requests, the
BuddyCast PSS supplies gossip partners, BarterCast nodes accumulate
histories and reputations, and the BitTorrent machinery (choking,
rarest-first, bandwidth sharing) moves the actual bytes.  One instance
simulates one scenario: a trace, a role assignment, and a reputation
policy.

Simulation structure per round (``config.round_interval`` seconds):

1. membership maintenance — sharers whose 10-hour seed window elapsed
   leave their swarms;
2. choking — every online member of every swarm selects its unchoke set
   (tit-for-tat + policy-ordered optimistic slot);
3. bandwidth allocation — each uploader's uplink is split equally over its
   active links across *all* swarms; each receiver's downlink caps its
   total intake proportionally;
4. transfer — each link moves its bytes, completing whole rarest-first
   pieces, with every byte accounted in both BarterCast private histories
   and the statistics collector;
5. completion handling — freeriders leave finished swarms immediately,
   sharers convert to seeders.

Gossip runs as a separate periodic process: each online peer exchanges
BarterCast messages (bidirectionally) with a PSS-sampled partner.
"""

from __future__ import annotations

import time as _time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bittorrent.choker import select_unchokes
from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.piece import count_nonzero, pick_rarest
from repro.bittorrent.roles import Role, RoleAssignment
from repro.bittorrent.stats import StatsCollector
from repro.bittorrent.swarm import MemberState, SwarmState
from repro.core.node import BarterCastConfig, BarterCastNode
from repro.core.policies import NoPolicy, ReputationPolicy
from repro.faults import ChannelModel, ChurnInjector, FaultConfig
from repro.graph import kernel_invocations_delta, snapshot_kernel_invocations
from repro.obs import NULL_OBS, Observability
from repro.obs.provenance import ProvenanceRecorder
from repro.pss.buddycast import BuddyCastPSS
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry
from repro.traces.models import CommunityTrace

__all__ = ["CommunitySimulator"]

#: One round's tit-for-tat bytes per member: ``{member: {peer: bytes}}``.
_Rates = Dict[MemberState, Dict[int, float]]


class CommunitySimulator:
    """Simulates a BitTorrent community running BarterCast.

    Parameters
    ----------
    trace:
        The community workload (peers, sessions, swarms, requests).
    roles:
        Sharing roles and message behaviours per peer.
    policy:
        The reputation policy the choker consults (default: plain
        BitTorrent, :class:`~repro.core.policies.NoPolicy`).
    config:
        BitTorrent/engine parameters.
    bc_config:
        BarterCast parameters (``Nh``, ``Nr``, metric).
    seed:
        Root seed for all stochastic components.
    faults:
        Optional :class:`~repro.faults.FaultConfig`.  A non-null config
        inserts the unreliable channel between ``create_message`` and
        ``receive_message`` (loss, duplication, bounded random delay /
        reordering, connectability) and/or the churn injector (abrupt
        crash+rejoin with PSS re-registration and optional gossip-state
        wipes).  ``None`` or a null config changes *nothing*: no extra
        RNG streams, no extra events — runs are byte-identical to a
        build without the fault layer.
    obs:
        Observability bundle, threaded through the engine and every node.
        Rounds, transfers and gossip are counted either way (plain
        attributes; :meth:`publish` writes every count of the run into
        the metrics leg); the profiler times phases and the tracer emits
        sampled events.  Run results stay bit-identical either way
        because instrumentation never touches the simulation RNGs.
    provenance:
        When True, one shared
        :class:`~repro.obs.provenance.ProvenanceRecorder` is created and
        threaded into every node: outgoing gossip messages get stamped
        ids and every live shared-history claim carries lineage, queried
        after the run via :mod:`repro.obs.explain`.  Recording consumes
        no simulation RNG and never feeds back into behaviour, so
        results are bit-identical either way (pinned by test).
    engine:
        Reputation mechanism every node runs (DESIGN.md §15):
        ``"bartercast"`` (default, the paper's maxflow metric),
        ``"gossip"``, or ``"ratio"``.  Stored as ``engine_name`` (the
        ``engine`` attribute is the event kernel).  Under ``NoPolicy``
        reputations are never consulted during the run, so the same
        seeded schedule replays identically for every mechanism.
    """

    def __init__(
        self,
        trace: CommunityTrace,
        roles: RoleAssignment,
        policy: Optional[ReputationPolicy] = None,
        config: Optional[BitTorrentConfig] = None,
        bc_config: Optional[BarterCastConfig] = None,
        seed: int = 0,
        faults: Optional[FaultConfig] = None,
        obs: Optional[Observability] = None,
        provenance: bool = False,
        engine: str = "bartercast",
    ) -> None:
        trace.validate()
        self.trace = trace
        self.roles = roles
        self.policy = policy if policy is not None else NoPolicy()
        self.config = config if config is not None else BitTorrentConfig()
        self.bc_config = bc_config if bc_config is not None else BarterCastConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.engine = Simulator(obs=self.obs)
        self.engine_name = engine
        self.rngs = RngRegistry(seed)

        tracer = self.obs.tracer
        self._tr_round = tracer.category("bt.round") if tracer.enabled else None
        self._tr_transfer = tracer.category("bt.transfer") if tracer.enabled else None
        self._tr_gossip = tracer.category("gossip.exchange") if tracer.enabled else None
        profiler = self.obs.profiler
        self._profiler = profiler if profiler.enabled else None
        #: Links that moved bytes, and the bytes (one float sum in
        #: transfer order); gossip exchanges, and the messages they lost.
        self.transfers = 0
        self.bytes_moved = 0.0
        self.gossip_exchanges = 0
        self.messages_lost = 0
        # The process-wide kernel counters when this simulation was built,
        # and what :meth:`publish` has written (see MetricsRegistry.publish).
        self._kernel_baseline = snapshot_kernel_invocations()
        self._published: Dict[str, float] = {}

        # Provenance: one recorder shared by every node (lineage itself
        # lives per-claim inside each node's shared history).  ``None``
        # when off.
        self.provenance: Optional[ProvenanceRecorder] = (
            ProvenanceRecorder(obs=self.obs) if provenance else None
        )
        self.nodes: Dict[int, BarterCastNode] = {
            pid: BarterCastNode(
                pid,
                self.bc_config,
                behavior=roles.behavior_of(pid),
                obs=self.obs,
                provenance=self.provenance,
                engine=engine,
            )
            for pid in trace.peers
        }
        self.online: Set[int] = set()
        #: Peers online and not churned down: what :meth:`is_online`
        #: reads.  Kept at the four places liveness changes (session
        #: start and end, churn crash and rejoin).
        self.live: Set[int] = set()
        #: Whether each peer accepts incoming connections (fixed per trace).
        self._connectable: Dict[int, bool] = {
            pid: profile.connectable for pid, profile in trace.peers.items()
        }
        # The gossip round's iteration base: ``sorted(online)``, re-sorted
        # only when membership differs from the round before.
        self._gossip_members: Set[int] = set()
        self._gossip_order: List[int] = []
        self.swarms: Dict[int, SwarmState] = {
            sid: SwarmState(spec) for sid, spec in trace.swarms.items()
        }
        self.stats = StatsCollector(
            list(trace.peers), trace.duration, self.config.sample_interval
        )
        self.round_idx = 0
        # Members whose ``*_last_round`` dicts hold bytes from the previous
        # round: the only ones ``_update_rates`` has to reset.
        self._rated: List[MemberState] = []
        # Origin seeders are infrastructure (a private community keeps its
        # torrents seeded); they serve everyone and never apply the
        # reputation policy.  An origin seeder never downloads, so under
        # BarterCast it would see every peer as net-negative and a ban
        # policy would eventually starve the whole community — an artifact
        # of the substitution, not of the paper's mechanism (see DESIGN.md).
        self._origin_policy = NoPolicy()
        self._choke_rng = self.rngs.stream("choker")
        self._gossip_rng = self.rngs.stream("gossip")
        self._samplers: List[Callable[[float], None]] = []

        self.pss = BuddyCastPSS(
            is_online=self.live.__contains__,
            rng=self.rngs.stream("pss"),
            view_size=self.config.pss_view_size,
        )
        for pid in self.rngs.stream("pss-bootstrap").shuffled(sorted(trace.peers)):
            self.pss.register(pid)

        # Fault layer: constructed only for a non-null config, so a
        # fault-free simulation allocates no channel/churn RNG streams
        # and schedules no extra events (byte-identity, DESIGN.md §9).
        self.faults = faults
        self.channel: Optional[ChannelModel] = None
        self.churn: Optional[ChurnInjector] = None
        if faults is not None and not faults.is_null:
            faults.validate()
            if faults.has_channel_faults:
                self.channel = ChannelModel(
                    faults, self.rngs.stream("faults.channel"), obs=self.obs
                )
            if faults.churn_rate > 0:
                self.churn = ChurnInjector(
                    faults,
                    self.engine,
                    self.rngs.stream("faults.churn"),
                    sorted(trace.peers),
                    horizon=trace.duration,
                    on_down=self._churn_down,
                    on_rejoin=self._churn_rejoin,
                )

        self._schedule_trace_events()
        self._round_proc = PeriodicProcess(
            self.engine,
            self.config.round_interval,
            self._round,
            start_delay=self.config.round_interval,
            label="bt-round",
        )
        self._gossip_proc = PeriodicProcess(
            self.engine,
            self.config.gossip_interval,
            self._gossip_round,
            start_delay=self.config.gossip_interval / 2.0,
            label="gossip",
        )
        self._sample_proc = PeriodicProcess(
            self.engine,
            self.config.sample_interval,
            self._fire_samplers,
            start_delay=self.config.sample_interval,
            label="sample",
        )

        # Convergence time-series: a recorder with coverage/inversion/
        # cache/net probes, sampling on its own periodic event (or riding
        # the stats sampler).  Constructed only when the leg is enabled,
        # so plain runs schedule nothing extra (byte-identity).
        self.timeseries = None
        if self.obs.timeseries.enabled:
            self._setup_timeseries(self.obs.timeseries)

        # Causal dissemination recording (DESIGN.md §16): an append-only
        # event log fed from the message path and the fault seams.  None
        # when off — every hook below guards on that, so plain runs are
        # byte-identical (no RNG use, no extra events either way).
        self.dissemination = None
        if self.obs.dissemination.enabled:
            self._setup_dissemination(self.obs.dissemination)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _schedule_trace_events(self) -> None:
        for pid, profile in self.trace.peers.items():
            for session in profile.sessions:
                self.engine.schedule_at(
                    session.start, lambda p=pid: self._session_start(p), label="online"
                )
                self.engine.schedule_at(
                    min(session.end, self.trace.duration),
                    lambda p=pid: self._session_end(p),
                    label="offline",
                )
        for sid, spec in self.trace.swarms.items():
            self.engine.schedule_at(
                0.0,
                lambda s=sid, p=spec.origin_seeder: self._join(s, p, complete=True),
                label="origin-join",
            )
        for req in self.trace.requests:
            self.engine.schedule_at(
                req.time,
                lambda r=req: self._join(r.swarm_id, r.peer_id),
                label="request",
            )

    def _join(self, swarm_id: int, peer_id: int, complete: bool = False) -> None:
        swarm = self.swarms[swarm_id]
        if swarm.is_member(peer_id):
            return
        if self.trace.swarms[swarm_id].origin_seeder == peer_id:
            complete = True
        swarm.join(peer_id, self.engine.now, complete=complete)

    def _leave(self, swarm_id: int, peer_id: int) -> None:
        self.swarms[swarm_id].leave(peer_id)

    # ------------------------------------------------------------------
    # Queries used by the choker / PSS
    # ------------------------------------------------------------------
    def is_online(self, peer_id: int) -> bool:
        """Whether the peer is currently within one of its trace sessions
        (and not knocked out by a churn outage)."""
        return peer_id in self.live

    def _session_start(self, peer: int) -> None:
        """A trace session starts: the peer is live unless churned down."""
        self.online.add(peer)
        if self.churn is None or peer not in self.churn.down:
            self.live.add(peer)

    def _session_end(self, peer: int) -> None:
        """A trace session ends: the peer is neither online nor live."""
        self.online.discard(peer)
        self.live.discard(peer)

    def can_connect(self, a: int, b: int) -> bool:
        """Whether peers ``a`` and ``b`` can form a connection (at least one
        must accept incoming connections).  The round applies this rule
        through the two candidate pools of :mod:`repro.bittorrent.choker`."""
        return self._connectable[a] or self._connectable[b]

    def _churn_down(self, peer: int, now: float) -> None:
        """Churn crash hook: the peer leaves the live set until it rejoins."""
        self.live.discard(peer)

    def _churn_rejoin(self, peer: int, now: float, wiped: bool) -> None:
        """Churn rejoin hook: replay the recovery path of a restarted peer.

        The peer is live again if its trace session is still running.  A
        *hard* restart (``wiped``) lost the in-memory gossip state: the
        subjective shared history is wiped (``forget_reporter`` per
        reporter) and the peer re-bootstraps its PSS view at the rejoin
        time — exercising exactly the churn-sensitive BuddyCast paths.
        """
        if peer in self.online:
            self.live.add(peer)
        if wiped:
            self.nodes[peer].wipe_shared_history()
            self.pss.forget(peer)
            if self.dissemination is not None:
                self.dissemination.record_wipe(peer, now)
        self.pss.register(peer, now)

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def add_sampler(self, fn: Callable[[float], None]) -> None:
        """Register a callback fired every ``config.sample_interval``."""
        self._samplers.append(fn)

    def _fire_samplers(self) -> None:
        now = self.engine.now
        for fn in self._samplers:
            fn(now)

    def _setup_timeseries(self, collector) -> None:
        """Create this run's convergence recorder and register probes.

        Probes only *read* simulation state (the reputation probes query
        through the normal cache path, so they warm it — affecting the
        ``rep.cache.*`` telemetry counters but never a computed value or
        an RNG stream).  The sampling event shifts engine sequence
        numbers uniformly without reordering simulation events, so
        results stay bit-identical (pinned by test).
        """
        from repro.obs.timeseries import TimeSeriesRecorder

        cfg = collector.config
        recorder = TimeSeriesRecorder(
            label=collector.next_label(), capacity=cfg.capacity
        )
        if self.engine_name != "bartercast":
            # Tag rival-mechanism series so merged sweep exports stay
            # attributable.  Default runs are left untagged: their JSON
            # snapshots must stay byte-identical to pre-zoo builds.
            recorder.meta["engine"] = self.engine_name
        self._ts_gt_cache: Optional[tuple] = None
        recorder.add_probe("coverage", self._probe_coverage)
        recorder.add_probe("rank_inversion_rate", self._probe_inversion)
        recorder.add_probe("cache_hit_rate", self._probe_cache_hit_rate)
        recorder.add_probe("net_delivered", lambda now: float(self.channel.delivered) if self.channel else 0.0)
        recorder.add_probe("net_dropped", lambda now: float(self.channel.dropped) if self.channel else 0.0)
        if self.obs.metrics.enabled:
            # This run's own counts, from zero, so serial and parallel
            # series are byte-identical.
            recorder.add_probe(
                "gossip_exchanges", lambda now: float(self.gossip_exchanges)
            )
            recorder.add_probe("bt_bytes", lambda now: self.bytes_moved)
        collector.attach(recorder)
        self.timeseries = recorder
        if cfg.interval_s is None:
            # Ride the stats sampler: one row per figure sample.
            self.add_sampler(recorder.sample)
        else:
            self._timeseries_proc = PeriodicProcess(
                self.engine,
                cfg.interval_s,
                lambda: recorder.sample(self.engine.now),
                start_delay=cfg.interval_s,
                label="timeseries",
            )

    def _setup_dissemination(self, collector) -> None:
        """Create this run's dissemination recorder.

        The recorder is a pure event sink: the hooks in the message path
        append to its log and never consume an RNG stream, schedule an
        event, or mutate simulation state, so a recording run stays
        bit-identical to an unrecorded one (pinned by test).
        """
        from repro.obs.dissemination import DisseminationRecorder

        recorder = DisseminationRecorder(
            label=collector.next_label(), config=collector.config
        )
        recorder.set_population(sorted(self.trace.peers))
        collector.attach(recorder)
        self.dissemination = recorder

    def _ts_ground_truth(self, now: float) -> tuple:
        """Ground truth (edges, contribution) memoized per sample time —
        the coverage and inversion probes share one recomputation."""
        cached = self._ts_gt_cache
        if cached is not None and cached[0] == now:
            return cached[1]
        from repro.experiments.faults import _ground_truth

        gt = _ground_truth(self)
        self._ts_gt_cache = (now, gt)
        return gt

    def _probe_coverage(self, now: float) -> float:
        from repro.experiments.faults import _coverage

        gt_edges, _ = self._ts_ground_truth(now)
        return _coverage(self, gt_edges)

    def _probe_inversion(self, now: float) -> float:
        from repro.experiments.faults import DEFAULT_DELTA, _reputation_measures

        _, contribution = self._ts_ground_truth(now)
        _, inversion = _reputation_measures(self, contribution, DEFAULT_DELTA)
        return inversion

    def _probe_cache_hit_rate(self, now: float) -> float:
        nodes = self.nodes.values()
        hits = sum(n.rep_cache_hits for n in nodes)
        misses = sum(n.rep_cache_misses for n in nodes)
        total = hits + misses
        return hits / total if total else 0.0

    def system_reputation_snapshot(
        self, subjects: Optional[List[int]] = None
    ) -> Dict[int, float]:
        """Equation (2) for every subject: the mean reputation each peer has
        at all other subject peers."""
        if subjects is None:
            subjects = self.roles.subjects
        sums = {pid: 0.0 for pid in subjects}
        for evaluator in subjects:
            node = self.nodes[evaluator]
            for target in subjects:
                if target != evaluator:
                    sums[target] += node.reputation_of(target)
        n = len(subjects)
        if n <= 1:
            return {pid: 0.0 for pid in subjects}
        return {pid: s / (n - 1) for pid, s in sums.items()}

    # ------------------------------------------------------------------
    # The main round
    # ------------------------------------------------------------------
    def _round(self) -> None:
        prof = self._profiler
        if self._tr_round is None and prof is None:
            self._round_body()
            return
        t0 = _time.perf_counter()
        if prof is not None:
            with prof.phase("bt.round"):
                self._round_body()
        else:
            self._round_body()
        duration = _time.perf_counter() - t0
        if self._tr_round is not None and self._tr_round.sample():
            self._tr_round.emit_sampled(
                "round",
                sim_time=self.engine.now,
                attrs={"idx": self.round_idx, "online": len(self.online)},
                duration_s=duration,
            )

    def _round_body(self) -> None:
        now = self.engine.now
        dt = self.config.round_interval
        self.round_idx += 1

        self._expire_seeders(now)
        prof = self._profiler
        if prof is not None:
            with prof.phase("choke"):
                links = self._collect_links()
            with prof.phase("transfer"):
                transfers = self._allocate_bandwidth(links, dt)
                completed, received, sent = self._execute_transfers(transfers, now)
        else:
            links = self._collect_links()
            transfers = self._allocate_bandwidth(links, dt)
            completed, received, sent = self._execute_transfers(transfers, now)
        self._update_rates(received, sent)
        self._account_leech_time(now, dt)
        self._handle_completions(completed)

    def _expire_seeders(self, now: float) -> None:
        seed_time = self.config.seed_time
        role_of = self.roles.role_of
        for sid, swarm in self.swarms.items():
            expired = [
                pid
                for pid, m in swarm.seeder_roster.items()
                if now >= m.completed_at + seed_time and role_of(pid) == Role.SHARER
            ]
            for pid in expired:
                self._leave(sid, pid)

    def _collect_links(self) -> List[Tuple[int, int, SwarmState]]:
        links: List[Tuple[int, int, SwarmState]] = []
        live = self.live
        connectable = self._connectable
        role_of, nodes = self.roles.role_of, self.nodes
        for swarm in self.swarms.values():
            if len(swarm.members) < 2:
                continue
            online_leechers = [pid for pid in swarm.leecher_roster if pid in live]
            if not online_leechers:
                # Nobody to serve: the choker would only clear each online
                # member's optimistic target (an empty candidate list draws
                # no randomness), so do that here and stay out of it.
                for member in swarm.members.values():
                    if member.optimistic_peer is not None and member.peer_id in live:
                        member.optimistic_peer = None
                continue
            # ``can_connect`` once per leecher and round: a connectable
            # uploader reaches every online leecher, any other one only
            # the connectable leechers.
            reachable = [pid for pid in online_leechers if connectable[pid]]
            for member in swarm.members.values():
                pid = member.peer_id
                if pid not in live:
                    continue
                is_origin = role_of(pid) == Role.ORIGIN
                unchoked = select_unchokes(
                    member,
                    online_leechers if connectable[pid] else reachable,
                    policy=self._origin_policy if is_origin else self.policy,
                    node=nodes[pid],
                    rng=self._choke_rng,
                    round_idx=self.round_idx,
                    config=self.config,
                )
                for target in unchoked:
                    links.append((pid, target, swarm))
        return links

    def _allocate_bandwidth(
        self, links: List[Tuple[int, int, SwarmState]], dt: float
    ) -> List[Tuple[int, int, SwarmState, float]]:
        """Split uplinks equally across links; cap by receiver downlinks."""
        if not links:
            return []
        peers = self.trace.peers
        n_links = Counter([up for up, _, _ in links])
        share = {up: peers[up].uplink_bps * dt / n for up, n in n_links.items()}
        # Each receiver's offered bytes, summed in link order.
        incoming: Dict[int, float] = {}
        for up, down, _ in links:
            incoming[down] = incoming.get(down, 0.0) + share[up]
        scale = {
            down: min(1.0, peers[down].downlink_bps * dt / total)
            for down, total in incoming.items()
            if total > 0
        }
        return [
            (up, down, swarm, share[up] * scale.get(down, 1.0)) for up, down, swarm in links
        ]

    def _execute_transfers(
        self, transfers: List[Tuple[int, int, SwarmState, float]], now: float
    ) -> Tuple[List[Tuple[SwarmState, int]], _Rates, _Rates]:
        """Move each link's bytes, in link order: whole rarest-first pieces
        plus a partial one carried per connection, every byte accounted in
        both BarterCast private histories and the statistics.

        Returns the leechers that completed, and this round's tit-for-tat
        bytes: ``{receiver member: {uploader: bytes}}`` and ``{uploader
        member: {receiver: bytes}}``, each summed in link order.  A link
        moves nothing without budget, without both ends in the swarm (the
        receiver a leecher), or without a piece to carry.
        """
        completed: List[Tuple[SwarmState, int]] = []
        received: _Rates = defaultdict(dict)
        sent: _Rates = defaultdict(dict)
        nodes = self.nodes
        stats = self.stats
        tracer = self._tr_transfer
        n, moved = self.transfers, self.bytes_moved
        for up, down, swarm, budget in transfers:
            if budget <= 0:
                continue
            um = swarm.members.get(up)
            dm = swarm.leecher_roster.get(down)
            if um is None or dm is None:
                continue
            # What this link can carry: sizes the transfer, then feeds the
            # picker.  A complete uploader offers every piece the receiver
            # lacks, counted without building the mask; the receiver is a
            # leecher, so it lacks at least one.
            bitfield = dm.bitfield
            if um.bitfield.is_complete:
                candidates = None
                n_candidates = swarm.num_pieces - bitfield.num_have
            else:
                candidates = ~bitfield.have
                candidates &= um.bitfield.have
                n_candidates = int(count_nonzero(candidates))
                if n_candidates == 0:
                    continue
            piece_size = swarm.spec.piece_size
            carry = dm.carry.get(up, 0.0)
            room = n_candidates * piece_size - carry
            actual = room if room < budget else budget  # min(budget, room)
            if actual <= 0:
                continue
            carry += actual
            n_complete = int(carry // piece_size)
            dm.carry[up] = carry - n_complete * piece_size
            if n_complete > 0:
                if candidates is None:
                    candidates = ~bitfield.have
                pieces = pick_rarest(swarm.availability, candidates, n_complete)
                if swarm.grant_pieces(dm, pieces, now):
                    completed.append((swarm, down))
            nodes[up].record_upload(down, actual, now)
            nodes[down].record_download(up, actual, now)
            stats.record_transfer(up, down, actual, now)
            if tracer is not None and tracer.sample():
                tracer.emit_sampled(
                    "piece_transfer",
                    sim_time=now,
                    attrs={
                        "swarm": swarm.spec.swarm_id,
                        "up": up,
                        "down": down,
                        "bytes": actual,
                        "pieces": n_complete,
                    },
                )
            n += 1
            moved += actual
            rates = received[dm]
            rates[up] = rates.get(up, 0.0) + actual
            rates = sent[um]
            rates[down] = rates.get(down, 0.0) + actual
        self.transfers, self.bytes_moved = n, moved
        return completed, received, sent

    def _update_rates(self, received: _Rates, sent: _Rates) -> None:
        """Roll this round's per-link byte counts into the tit-for-tat state
        of the members that moved bytes this round or last; everyone
        else's ``*_last_round`` dicts are empty already."""
        for member in self._rated:
            member.received_last_round = {}
            member.sent_last_round = {}
        rated = self._rated = []
        for member, rates in received.items():
            member.received_last_round = rates
            rated.append(member)
        for member, rates in sent.items():
            member.sent_last_round = rates
            rated.append(member)

    def _account_leech_time(self, now: float, dt: float) -> None:
        live = self.live
        leeching = {
            pid for swarm in self.swarms.values() for pid in swarm.leecher_roster if pid in live
        }
        for pid in leeching:
            self.stats.record_leech_time(pid, dt, now)

    def _handle_completions(self, completed: List[Tuple[SwarmState, int]]) -> None:
        for swarm, pid in completed:
            if not swarm.is_member(pid):
                continue
            role = self.roles.role_of(pid)
            if role == Role.FREERIDER:
                # Lazy freerider: leave immediately after finishing.
                self._leave(swarm.spec.swarm_id, pid)
            # Sharers stay; the seed window is enforced in _expire_seeders.

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def _gossip_round(self) -> None:
        prof = self._profiler
        if prof is None:
            self._gossip_round_body()
        else:
            with prof.phase("gossip"):
                self._gossip_round_body()

    def _gossip_round_body(self) -> None:
        now = self.engine.now
        if self.online != self._gossip_members:
            self._gossip_members = set(self.online)
            self._gossip_order = sorted(self.online)
        live = self.live
        for pid in self._gossip_rng.shuffled(self._gossip_order):
            if pid not in live:
                continue
            self.pss.tick(pid, now)
            partner = self.pss.sample(pid)
            if partner is None or partner not in live:
                continue
            self._exchange_messages(pid, partner, now)

    def _exchange_messages(self, a: int, b: int, now: float) -> None:
        na, nb = self.nodes[a], self.nodes[b]
        na.note_seen(b, now)
        nb.note_seen(a, now)
        lost = 0
        msg_a = na.create_message(now)
        if msg_a is not None:
            lost += self._send(msg_a, b, now)
        msg_b = nb.create_message(now)
        if msg_b is not None:
            lost += self._send(msg_b, a, now)
        self.gossip_exchanges += 1
        self.messages_lost += lost
        if self._tr_gossip is not None and self._tr_gossip.sample():
            self._tr_gossip.emit_sampled(
                "exchange", sim_time=now, attrs={"a": a, "b": b, "lost": lost}
            )

    def _send(self, message, receiver: int, now: float) -> int:
        """Send one gossip message: ingested directly on a reliable
        network, else routed through the unreliable channel.

        Immediate channel copies are ingested inline (preserving the
        reliable path's ordering when delay is off); delayed copies are
        scheduled as engine events, where they interleave — and reorder —
        with every later gossip exchange.  Returns 1 if no copy was
        admitted (the exchange-level "lost" accounting), 0 otherwise.
        """
        rec = self.dissemination
        if self.channel is None:
            self.nodes[receiver].receive_message(message, now=now)
            if rec is not None:
                rec.record_gossip(message, receiver, now)
            return 0
        if rec is not None:
            rec.record_send(message, receiver, now)
        times = self.channel.plan_delivery(message.sender, receiver, now)
        if not times:
            if rec is not None:
                rec.record_drop(message, receiver, now, "loss")
            return 1
        if rec is not None:
            rec.record_plan(message, receiver, now, times)
        for copy, t in enumerate(times):
            if t <= now:
                self._deliver_message(receiver, message, copy=copy, sent_at=now)
            else:
                self.engine.schedule_at(
                    t,
                    lambda m=message, r=receiver, c=copy, s=now: self._deliver_message(
                        r, m, copy=c, sent_at=s
                    ),
                    label="net-deliver",
                )
        return 0

    def _deliver_message(
        self,
        receiver: int,
        message,
        copy: int = 0,
        sent_at: Optional[float] = None,
    ) -> None:
        """Terminal delivery seam: copy ``copy`` of ``message`` arrives now.

        A delayed copy can surface while the receiver is offline (trace
        session ended, or a churn outage) — then it is dropped, exactly
        like a datagram hitting a dead host.  Churn-down receivers are
        distinguished from session-offline ones so the drop is attributed
        to the right fault (``net.dropped_by_churn``).
        """
        now = self.engine.now
        if not self.is_online(receiver):
            by_churn = self.churn is not None and receiver in self.churn.down
            delay = 0.0 if sent_at is None else now - sent_at
            self.channel.note_undeliverable(
                message.sender, receiver, now, copy=copy, delay=delay, by_churn=by_churn
            )
            if self.dissemination is not None:
                self.dissemination.record_drop(
                    message,
                    receiver,
                    now,
                    "churn-offline" if by_churn else "offline",
                    copy=copy,
                    delay=delay,
                )
            return
        self.nodes[receiver].receive_message(message, now=now)
        if self.dissemination is not None:
            self.dissemination.record_deliver(message, receiver, now, copy=copy)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> StatsCollector:
        """Run the simulation to ``until`` (default: the trace horizon) and
        return the statistics collector."""
        horizon = self.trace.duration if until is None else min(until, self.trace.duration)
        self.engine.run_until(horizon)
        # Close the convergence series at the horizon so its final row
        # equals the end-of-run aggregates (skipped when a periodic
        # sample already landed exactly there).
        if self.timeseries is not None and self.timeseries.last_time != horizon:
            self.timeseries.sample(horizon)
        nodes = self.nodes.values()
        self.stats.record_cache_telemetry(
            sum(n.rep_cache_hits for n in nodes),
            sum(n.rep_cache_misses for n in nodes),
            sum(n.rep_cache_invalidations for n in nodes),
        )
        self.publish()
        return self.stats

    def publish(self) -> None:
        """Write every count of this simulation into the metrics leg.

        Each count is kept once, always on, by the component that owns it
        (DESIGN.md §7 has the table).  :meth:`run` ends here, and so does
        work on a finished simulation that moves a count (the fault
        sweep's measurements and audit, ``repro explain``).  Counters are
        live totals; the ``rep.cache.*`` gauges are what the last
        :meth:`run` saw at its end, and the ``rep.kernel.*`` gauges every
        kernel call this process made since the simulation was built,
        post-run work included.  Only what changed since
        the previous call is added (:meth:`MetricsRegistry.publish
        <repro.obs.metrics.MetricsRegistry.publish>`).
        """
        counters: Dict[str, float] = {
            "sim.events": self.engine.events_fired,
            "bt.rounds": self.round_idx,
            "bt.transfers": self.transfers,
            "bt.bytes": self.bytes_moved,
            "gossip.exchanges": self.gossip_exchanges,
            "gossip.messages_lost": self.messages_lost,
        }
        for node in self.nodes.values():
            for name, count in node.counts().items():
                counters[name] = counters.get(name, 0) + count
        if self.channel is not None:
            for name in ("delivered", "dropped", "dropped_by_churn", "duplicated", "delayed"):
                counters[f"net.{name}"] = getattr(self.channel, name)
        if self.provenance is not None:
            for name, count in self.provenance.summary().items():
                counters[f"prov.{name}"] = count
        stats = self.stats
        gauges = {
            "rep.cache.hits": stats.rep_cache_hits,
            "rep.cache.misses": stats.rep_cache_misses,
            "rep.cache.invalidations": stats.rep_cache_invalidations,
        }
        for kernel, count in kernel_invocations_delta(self._kernel_baseline).items():
            gauges[f"rep.kernel.{kernel}"] = count
        self.obs.metrics.publish(self._published, counters, gauges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommunitySimulator t={self.engine.now:.0f}s policy={self.policy.name} "
            f"online={len(self.online)}>"
        )
