"""Churn injection: abrupt session crashes with rejoin.

The paper's deployment ran on a network with heavy churn — peers come
and go, restart, and rejoin with (or without) their previous state.  The
synthetic traces model *planned* sessions; the :class:`ChurnInjector`
adds the unplanned part: seeded per-peer crash processes that force a
peer offline mid-session for an exponentially distributed outage and
then rejoin it, exercising exactly the paths a real restart hits:

* while down, the peer is invisible to the choker, the PSS, and gossip
  (the host simulator consults :attr:`ChurnInjector.down` from its
  ``is_online``);
* on rejoin, the peer **re-registers** with the peer-sampling service at
  the rejoin time (a late (re)join must not be bootstrapped as the
  stalest entry everywhere — the BuddyCast freshness bugfix);
* with probability ``churn_wipe_prob`` the restart is *hard*: the
  peer's in-memory gossip state is lost, modeled by wiping its
  subjective shared history (``forget_reporter`` for every reporter) so
  it must re-learn the network from subsequent gossip.

Event accounting runs entirely on the injector's own RNG stream
(``faults.churn``) and its own engine events; with ``churn_rate == 0``
the injector is simply not constructed, so default runs schedule no
extra events and stay byte-identical.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Set

from repro.faults.channel import FaultConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

__all__ = ["ChurnInjector"]

PeerId = Hashable

DAY = 86400.0


class ChurnInjector:
    """Seeded per-peer crash/rejoin processes.

    Parameters
    ----------
    config:
        Fault knobs; only the ``churn_*`` fields are consulted.
    engine:
        The discrete-event simulator that owns the clock.
    rng:
        The injector's private random stream (``faults.churn``).
    peers:
        The peer population (iterated in sorted order for deterministic
        initial draws).
    horizon:
        Simulation end time; crash events past it are not scheduled.
    on_down:
        Optional callback ``(peer, now)`` fired when a peer crashes.
    on_rejoin:
        Optional callback ``(peer, now, wiped)`` fired when a peer
        rejoins; ``wiped`` tells the host whether the restart lost the
        peer's gossip state (the host performs the actual wipe and PSS
        re-registration so the injector stays simulator-agnostic).
    """

    def __init__(
        self,
        config: FaultConfig,
        engine: Simulator,
        rng: RngStream,
        peers: Iterable[PeerId],
        horizon: float,
        on_down: Optional[Callable[[PeerId, float], None]] = None,
        on_rejoin: Optional[Callable[[PeerId, float, bool], None]] = None,
    ) -> None:
        config.validate()
        if config.churn_rate <= 0:
            raise ValueError("ChurnInjector requires churn_rate > 0")
        self.config = config
        self._engine = engine
        self._rng = rng
        self._horizon = float(horizon)
        self._on_down = on_down
        self._on_rejoin = on_rejoin
        #: Peers currently forced offline by a churn outage.
        self.down: Set[PeerId] = set()
        #: Telemetry: crash events fired / hard (state-losing) restarts.
        self.crashes = 0
        self.wipes = 0
        self._mean_gap = DAY / config.churn_rate
        for peer in sorted(peers, key=repr):
            self._schedule_next(peer, 0.0)

    # ------------------------------------------------------------------
    def _schedule_next(self, peer: PeerId, now: float) -> None:
        gap = self._rng.exponential(self._mean_gap)
        t = now + gap
        if t <= self._horizon:
            self._engine.schedule_at(t, lambda p=peer: self._crash(p), label="churn-down")

    def _crash(self, peer: PeerId) -> None:
        now = self._engine.now
        # Draw the outage shape unconditionally so the stream's draw
        # sequence depends only on the event order, not on peer state.
        downtime = self._rng.exponential(self.config.churn_downtime)
        wiped = self._rng.bernoulli(self.config.churn_wipe_prob)
        if peer not in self.down:
            self.crashes += 1
            if wiped:
                self.wipes += 1
            self.down.add(peer)
            if self._on_down is not None:
                self._on_down(peer, now)
            self._engine.schedule_at(
                min(now + downtime, self._horizon),
                lambda p=peer, w=wiped: self._rejoin(p, w),
                label="churn-rejoin",
            )
        self._schedule_next(peer, now)

    def _rejoin(self, peer: PeerId, wiped: bool) -> None:
        now = self._engine.now
        self.down.discard(peer)
        if self._on_rejoin is not None:
            self._on_rejoin(peer, now, wiped)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChurnInjector rate={self.config.churn_rate}/day "
            f"crashes={self.crashes} wipes={self.wipes} down={len(self.down)}>"
        )
