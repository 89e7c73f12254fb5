"""Choking: tit-for-tat slot assignment plus the optimistic unchoke.

Standard BitTorrent semantics (Section 4.1 of the paper):

* a **leecher** assigns its regular slots to the interested peers that
  provided it the highest download rate in the last round (tit-for-tat);
* a **seeder** assigns its regular slots to the peers with the highest
  download rate *from it* (serve the fastest downloaders);
* one extra **optimistic unchoke** slot rotates every 30 seconds over the
  interested peers — in plain BitTorrent uniformly, under the *rank*
  policy in order of BarterCast reputation;
* under the *ban* policy, peers whose reputation is below δ receive no
  slot of any kind.

Interest is approximated by the cheap test "the candidate is an online
leecher I can connect to and I hold at least one piece" (exact piece-mask
interest is evaluated on the transfer path, where a wasted slot simply
carries zero bytes — the standard flow-level simplification).  Two peers
connect when at least one of them accepts incoming connections, so the
caller builds two candidate pools once per swarm and round — every online
leecher, and the connectable ones among them — and hands each uploader the
pool it reaches: the first if it is connectable itself, else the second.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.swarm import MemberState
from repro.core.node import BarterCastNode
from repro.core.policies import ReputationPolicy
from repro.sim.rng import RngStream

__all__ = ["select_unchokes", "interested_candidates"]


def interested_candidates(uploader: MemberState, pool: Sequence[int]) -> List[int]:
    """Peers that could accept data from ``uploader`` this round: the
    ``pool`` of online leechers it can connect to (module docstring),
    minus itself; none while it holds no piece."""
    if uploader.bitfield.num_have == 0:
        return []
    up = uploader.peer_id
    return [pid for pid in pool if pid != up]


def select_unchokes(
    uploader: MemberState,
    pool: Sequence[int],
    *,
    policy: ReputationPolicy,
    node: Optional[BarterCastNode],
    rng: RngStream,
    round_idx: int,
    config: BitTorrentConfig,
) -> Set[int]:
    """The set of peers ``uploader`` sends data to this round.

    Combines the tit-for-tat regular slots with the (policy-ordered)
    optimistic slot; banned peers are excluded everywhere: the optimistic
    order is asked only of peers ``policy.allowed`` kept.  A call that
    finds no candidate clears the optimistic target and draws nothing
    from ``rng`` — so a caller whose swarm has no online leecher may
    do the former itself and skip the call.  A call that finds one
    counts itself and the candidates the policy banned on ``node``
    (``choke_calls`` / ``choke_banned``).
    """
    candidates = interested_candidates(uploader, pool)
    if not candidates:
        uploader.optimistic_peer = None
        return set()
    allowed = policy.allowed(node, candidates)
    if node is not None:
        node.choke_calls += 1
        node.choke_banned += len(candidates) - len(allowed)

    # --- regular slots: tit-for-tat ranking --------------------------------
    if uploader.is_seeder:
        key = uploader.sent_last_round
    else:
        key = uploader.received_last_round
    ranked = rng.shuffled(allowed)  # random tie-break
    if key:  # without rates every key is 0.0: the stable sort keeps the order
        ranked.sort(key=lambda pid: -key.get(pid, 0.0))
    regular = set(ranked[: config.regular_slots])

    # --- optimistic slot ----------------------------------------------------
    rotation_due = (
        round_idx - uploader.optimistic_chosen_round >= config.optimistic_every_rounds
    )
    current = uploader.optimistic_peer
    promoted = current is not None and current in allowed and current in regular
    current_valid = (
        current is not None
        and current in allowed
        and current not in regular
    )
    if rotation_due or not current_valid:
        remaining = [c for c in allowed if c not in regular]
        ordered = policy.order_optimistic(node, remaining, rng)
        uploader.optimistic_peer = ordered[0] if ordered else None
        if rotation_due or not promoted:
            # A genuine rotation (or a vanished/banned target) restarts
            # the 30 s clock.  A re-pick forced only because the current
            # optimistic peer got promoted into a regular slot does NOT:
            # resetting there silently moved every future rotation
            # whenever tit-for-tat adopted the optimistic choice, so the
            # cadence drifted off the configured period.
            uploader.optimistic_chosen_round = round_idx
    if uploader.optimistic_peer is not None:
        regular.add(uploader.optimistic_peer)
    return regular
