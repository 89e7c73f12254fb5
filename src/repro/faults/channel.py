"""The unreliable message channel.

The Tribler deployment the paper reports on ran BarterCast over a real
network: messages were lost, duplicated, delayed, and reordered.  The
simulators historically delivered every BarterCast message instantly and
exactly once, which makes that entire regime untestable.  This module provides
the injectable seam: a seeded :class:`ChannelModel` sits between
``create_message`` and ``SubjectiveSharedHistory.ingest`` at every
delivery site and decides, per message, whether (and when, and how many
times) it arrives.

Fault semantics (all independent per message, all driven by the
channel's *own* RNG stream so enabling faults never perturbs the other
simulation streams):

* **loss** — the message is dropped with probability ``loss``.
* **duplication** — with probability ``duplicate`` a second copy is
  delivered (geometric continuation: each copy spawns another with the
  same probability, capped at :data:`MAX_COPIES`).
* **delay / reordering** — each surviving copy is delayed by an
  independent uniform draw from ``[0, delay_max]`` seconds.  Because
  delays are independent, messages (and duplicate copies) reorder.

Who can connect to whom is the trace's business
(``PeerProfile.connectable``, drawn with ``TraceParams
.connectable_fraction``); the channel only decides the fate of a message
between two peers that exchange one.

Default-off bit-identity: a :class:`FaultConfig` with every knob at its
default is *null* (:attr:`FaultConfig.is_null`), and callers skip
constructing the channel entirely, so the RNG stream is never created,
no events are scheduled, and the simulation is byte-identical to one
without the fault layer (pinned by ``tests/test_faults.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.obs import NULL_OBS, Observability
from repro.sim.rng import RngStream

__all__ = ["FaultConfig", "ChannelModel", "MAX_COPIES"]

PeerId = Hashable

#: Hard cap on delivered copies of one message (loss of generality is
#: nil for any sane ``duplicate`` probability; the cap only guards the
#: geometric continuation against pathological configs like 0.999).
MAX_COPIES = 4


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the unreliable channel and the churn injector.

    Attributes
    ----------
    loss:
        Per-message drop probability in ``[0, 1]`` (1.0 = blackout).
    duplicate:
        Per-copy probability that one more copy of the message is
        delivered (geometric; capped at :data:`MAX_COPIES` copies).
    delay_max:
        Upper bound (seconds) of the per-copy uniform random delivery
        delay; independent delays reorder messages.  0 delivers inline.
    churn_rate:
        Expected abrupt-restart events per peer per simulated day
        (drives :class:`~repro.faults.churn.ChurnInjector`).
    churn_downtime:
        Mean downtime (seconds, exponential) of one churn outage.
    churn_wipe_prob:
        Probability that a churn restart loses the peer's in-memory
        gossip state (its subjective shared history is wiped through
        ``forget_reporter`` and it re-registers with the PSS on rejoin).
    """

    loss: float = 0.0
    duplicate: float = 0.0
    delay_max: float = 0.0
    churn_rate: float = 0.0
    churn_downtime: float = 1800.0
    churn_wipe_prob: float = 0.5

    def validate(self) -> None:
        """Check parameter sanity; raises ``ValueError``.

        ``loss = 1.0`` (total blackout) and ``duplicate = 1.0`` (every
        copy spawns another, saturating at :data:`MAX_COPIES`) are valid
        extreme points: the blackout regime is exactly what the fault
        sweep's bootstrap measurements drive, and the duplication cap
        bounds the geometric continuation regardless of the probability.
        """
        for name in ("loss", "duplicate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        # ``not 0 <= v < inf`` rejects NaN too: every comparison with it
        # is false.
        for name in ("delay_max", "churn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if not 0.0 < self.churn_downtime < math.inf:
            raise ValueError(
                f"churn_downtime must be finite and positive, got {self.churn_downtime}"
            )
        if not 0.0 <= self.churn_wipe_prob <= 1.0:
            raise ValueError("churn_wipe_prob must be a probability")

    @property
    def is_null(self) -> bool:
        """Whether this config injects no fault at all.

        Null configs make callers skip the fault layer entirely — no RNG
        stream, no scheduled events — which is what keeps default runs
        byte-identical to runs without the layer.
        """
        return (
            self.loss == 0.0
            and self.duplicate == 0.0
            and self.delay_max == 0.0
            and self.churn_rate == 0.0
        )

    @property
    def has_channel_faults(self) -> bool:
        """Whether the message channel itself (not just churn) is faulty."""
        return self.loss > 0.0 or self.duplicate > 0.0 or self.delay_max > 0.0


class ChannelModel:
    """Seeded per-message fault decisions for one simulated network.

    Parameters
    ----------
    config:
        The fault knobs (validated).
    rng:
        The channel's private random stream (by convention
        ``RngRegistry.stream("faults.channel")``); fault decisions never
        consume any other stream.
    obs:
        Observability bundle.  When tracing is enabled the channel emits
        sampled ``net.deliver`` events for every fault decision
        (delivered events carry per-copy delays; offline events carry the
        cut copy's index and delay).  The counts below are kept either
        way; the simulator publishes them as ``net.<name>``.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: RngStream,
        obs: Optional[Observability] = None,
    ) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        tracer = (obs if obs is not None else NULL_OBS).tracer
        self._tr_deliver = tracer.category("net.deliver") if tracer.enabled else None
        #: Copies dropped: by loss or an offline receiver.
        self.dropped = 0
        #: Copies that surfaced while the receiver was churned down —
        #: counted inside ``dropped`` too, but kept distinct so churn
        #: damage is separable from channel loss.
        self.dropped_by_churn = 0
        self.duplicated = 0
        self.delayed = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def plan_delivery(self, src: PeerId, dst: PeerId, now: float) -> List[float]:
        """Fault-adjusted delivery times for one message sent at ``now``.

        Returns the (possibly empty) list of absolute times at which
        copies of the message arrive at ``dst``:

        * ``[]`` — the message was lost;
        * ``[now]`` — normal immediate delivery;
        * longer / later lists — duplication and random delay.

        The list is *not* sorted: independent delays are how reordering
        (relative to other messages and between copies) happens.
        """
        cfg = self.config
        if cfg.loss > 0.0 and self._rng.bernoulli(cfg.loss):
            self.dropped += 1
            self._trace("dropped", src, dst, now, 0)
            return []
        copies = 1
        while (
            cfg.duplicate > 0.0
            and copies < MAX_COPIES
            and self._rng.bernoulli(cfg.duplicate)
        ):
            copies += 1
        if copies > 1:
            self.duplicated += copies - 1
        times: List[float] = []
        for _ in range(copies):
            if cfg.delay_max > 0.0:
                delay = self._rng.uniform(0.0, cfg.delay_max)
            else:
                delay = 0.0
            if delay > 0.0:
                self.delayed += 1
            times.append(now + delay)
        self.delivered += copies
        self._trace("delivered", src, dst, now, copies, times=times)
        return times

    def note_undeliverable(
        self,
        src: PeerId,
        dst: PeerId,
        now: float,
        copy: int = 0,
        delay: float = 0.0,
        by_churn: bool = False,
    ) -> None:
        """Account a copy that arrived while the receiver was offline.

        Called by the host simulator from the terminal delivery seam (a
        delayed copy surfacing after its receiver left); consumes no
        randomness.  ``copy`` and ``delay`` identify which duplicate was
        cut and how far it had been deferred, so the dissemination log
        never has to guess; ``by_churn`` marks receivers that are down because
        of a churn outage (counted in ``net.dropped_by_churn``, distinct
        from channel loss).
        """
        self.dropped += 1
        if by_churn:
            self.dropped_by_churn += 1
        self._trace(
            "offline",
            src,
            dst,
            now,
            0,
            extra={"copy": copy, "delay": delay, "by_churn": by_churn},
        )

    # ------------------------------------------------------------------
    def _trace(
        self,
        verdict: str,
        src: PeerId,
        dst: PeerId,
        now: float,
        copies: int,
        times: Optional[List[float]] = None,
        extra: Optional[dict] = None,
    ) -> None:
        cat = self._tr_deliver
        if cat is not None and cat.sample():
            attrs = {"src": src, "dst": dst, "copies": copies}
            if times is not None:
                # Per-copy delivery delays, indexed by duplication-copy
                # number — the delayed/dropped branches of the delivery
                # seam reference these copies.
                attrs["delays"] = [t - now for t in times]
            if extra:
                attrs.update(extra)
            cat.emit_sampled(verdict, sim_time=now, attrs=attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChannelModel loss={self.config.loss} dup={self.config.duplicate} "
            f"delay<= {self.config.delay_max}s delivered={self.delivered} "
            f"dropped={self.dropped}>"
        )
