"""Whitewashing assessment (the paper's §3.5 / future work).

The deployed BarterCast assumes permanent identities; Section 3.5 notes
that without them the only defence is a (static or adaptive) newcomer
penalty.  This experiment measures that trade-off on a service-level
abstraction of the network:

* **sharers** grant fixed-size service units to requesters whose
  *effective* reputation clears the ban threshold δ, account the transfer
  in their private histories, and gossip BarterCast messages to each
  other (so debts propagate);
* **honest newcomers** reciprocate every unit they receive by serving a
  random sharer — they earn their way to a positive reputation;
* **whitewashers** never reciprocate and, once the majority of sharers
  refuses them, discard their identity and re-enter as a fresh stranger.

Measured: service obtained per group and the adaptive prior trajectory,
under each stranger policy.  The expected shape — permanent identities
make whitewashing free; a static penalty taxes honest newcomers exactly
as much as washers; the adaptive penalty converges to locking washers out
while the tax on honest newcomers depends on the population mix — is what
the paper's future-work discussion predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.node import BarterCastConfig, BarterCastNode
from repro.core.policies import BanPolicy
from repro.core.reputation import MB, ReputationMetric
from repro.core.whitewashing import (
    AdaptiveStrangerPenalty,
    StaticStrangerPenalty,
    StrangerPolicy,
    TrustedIdentities,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "WhitewashParams",
    "WhitewashResult",
    "run_whitewash",
    "whitewash_tasks",
    "make_stranger_policy",
]


@dataclass
class WhitewashParams:
    """Knobs of the whitewashing experiment.

    Attributes
    ----------
    num_sharers / num_newcomers / num_washers:
        Population mix.
    rounds:
        Simulation rounds; each consumer requests one unit per round.
    service_unit:
        Bytes per granted request.
    delta:
        Ban threshold applied by sharers.
    refusal_reset:
        A whitewasher resets its identity after this many consecutive
        refusals.
    gossip_fanout:
        Sharers gossip each served transfer to this many other sharers.
    maturation:
        Rounds after first service before a consumer's earned reputation
        is fed back to the adaptive prior.
    """

    num_sharers: int = 12
    num_newcomers: int = 8
    num_washers: int = 8
    rounds: int = 150
    service_unit: float = 50 * MB
    delta: float = -0.5
    refusal_reset: int = 3
    gossip_fanout: int = 3
    maturation: int = 10


@dataclass
class WhitewashResult:
    """Outcome of one whitewashing run.

    ``service``: units obtained per group. ``identities_burned``: how many
    fresh identities the washers consumed. ``prior_trajectory``: adaptive
    prior per round (constant for non-adaptive policies).
    """

    policy: str
    service: Dict[str, float]
    identities_burned: int
    prior_trajectory: List[float] = field(default_factory=list)

    @property
    def washer_advantage(self) -> float:
        """Service per washer relative to service per honest newcomer
        (> 1: whitewashing pays; < 1: the policy deters it)."""
        washers = self.service.get("washer", 0.0)
        honest = self.service.get("newcomer", 0.0)
        if honest == 0:
            return float("inf") if washers > 0 else 1.0
        return washers / honest


def make_stranger_policy(kind: str) -> Optional[StrangerPolicy]:
    """Factory for the three §3.5 variants."""
    if kind == "trusted":
        return TrustedIdentities()
    if kind == "static":
        return StaticStrangerPenalty(penalty=-0.6)
    if kind == "adaptive":
        return AdaptiveStrangerPenalty(alpha=0.15, floor=-0.8)
    raise ValueError(f"unknown stranger policy kind {kind!r}")


def run_whitewash(
    kind: str = "adaptive",
    params: Optional[WhitewashParams] = None,
    seed: int = 0,
) -> WhitewashResult:
    """Run the experiment under one stranger policy."""
    p = params if params is not None else WhitewashParams()
    rng = RngRegistry(seed).stream("whitewash")
    stranger_policy = make_stranger_policy(kind)
    ban = BanPolicy(delta=p.delta, stranger_policy=stranger_policy)
    metric = ReputationMetric(unit_bytes=p.service_unit)
    config = BarterCastConfig(metric=metric)

    sharers = [BarterCastNode(f"sharer{i}", config) for i in range(p.num_sharers)]
    consumers: Dict[str, dict] = {}

    def add_consumer(group: str, tag: int) -> str:
        cid = f"{group}{tag}"
        consumers[cid] = {
            "group": group,
            "node": BarterCastNode(cid, config),
            "refusals": 0,
            "first_served": None,
            "matured": False,
        }
        return cid

    for i in range(p.num_newcomers):
        add_consumer("newcomer", i)
    for i in range(p.num_washers):
        add_consumer("washer", i)

    service = {"newcomer": 0.0, "washer": 0.0}
    burned = 0
    washer_counter = p.num_washers
    prior_trajectory: List[float] = []

    def gossip(sharer: BarterCastNode, now: float) -> None:
        message = sharer.create_message(now)
        if message is None:
            return
        for other in rng.sample(sharers, p.gossip_fanout):
            if other.peer_id != sharer.peer_id:
                other.receive_message(message)

    for round_idx in range(p.rounds):
        now = float(round_idx)
        for cid in list(consumers):
            state = consumers[cid]
            node = state["node"]
            sharer = rng.choice(sharers)
            if ban.allows(sharer, cid):
                sharer.record_upload(cid, p.service_unit, now)
                node.record_download(sharer.peer_id, p.service_unit, now)
                service[state["group"]] += 1.0
                state["refusals"] = 0
                if state["first_served"] is None:
                    state["first_served"] = round_idx
                gossip(sharer, now)
                if state["group"] == "newcomer":
                    # Honest newcomers reciprocate: serve a random sharer.
                    target = rng.choice(sharers)
                    node.record_upload(target.peer_id, p.service_unit, now)
                    target.record_download(cid, p.service_unit, now)
                    gossip(target, now)
            else:
                state["refusals"] += 1
                if state["group"] == "newcomer":
                    # Honest newcomers bootstrap by volunteering service:
                    # upload-first earns the credit a penalty regime demands.
                    target = rng.choice(sharers)
                    node.record_upload(target.peer_id, p.service_unit, now)
                    target.record_download(cid, p.service_unit, now)
                    gossip(target, now)
                elif state["refusals"] >= p.refusal_reset:
                    # Whitewash: drop the identity, re-enter fresh.  The
                    # abandoned identity's earned reputation is exactly the
                    # signal the adaptive prior learns from.
                    if stranger_policy is not None:
                        reps = [
                            s.reputation_of(cid)
                            for s in sharers
                            if s.graph.has_node(cid)
                        ]
                        if reps:
                            # The most-informed evaluator (the sharer that
                            # actually served this identity) carries the
                            # signal; averages dilute it across sharers
                            # that barely met the peer.
                            stranger_policy.observe(min(reps))
                    del consumers[cid]
                    add_consumer("washer", washer_counter)
                    washer_counter += 1
                    burned += 1
        # Feed matured once-strangers back into the adaptive prior.
        for state in consumers.values():
            if (
                not state["matured"]
                and state["first_served"] is not None
                and round_idx - state["first_served"] >= p.maturation
            ):
                state["matured"] = True
                reps = [
                    s.reputation_of(state["node"].peer_id)
                    for s in sharers
                    if s.graph.has_node(state["node"].peer_id)
                ]
                if reps and stranger_policy is not None:
                    stranger_policy.observe(min(reps))
        if isinstance(stranger_policy, AdaptiveStrangerPenalty):
            prior_trajectory.append(stranger_policy.prior)
        else:
            prior_trajectory.append(0.0 if kind == "trusted" else -0.6)

    # Normalize to service per peer.
    service["newcomer"] /= max(1, p.num_newcomers)
    service["washer"] /= max(1, p.num_washers)
    return WhitewashResult(
        policy=kind,
        service=service,
        identities_burned=burned,
        prior_trajectory=prior_trajectory,
    )


def _run_whitewash_task(kind: str, seed: int, obs) -> WhitewashResult:
    """Sweep-task adapter: the experiment records nothing."""
    return run_whitewash(kind, seed=seed)


def whitewash_tasks(seed: int, kinds=("trusted", "static", "adaptive")):
    """One sweep task per stranger policy."""
    from repro.parallel import SweepTask

    return [
        SweepTask(f"whitewash/{kind}", _run_whitewash_task, {"kind": kind, "seed": int(seed)})
        for kind in kinds
    ]
