"""An epidemic peer-sampling service in the style of BuddyCast.

Each peer maintains a bounded *partial view* — a set of peer ids it knows
about, with the time each entry was last refreshed.  On its gossip tick a
peer picks a random live contact from its view, and the pair *exchange
views*: each merges the other's entries into its own view, evicting the
stalest entries when the bound is exceeded.  New peers are bootstrapped
with a handful of seed contacts (in Tribler: superpeer addresses shipped
with the client).

The class is deliberately simulator-facing: it is driven by explicit
``tick(peer)`` calls from the community simulator (which owns the clock and
the online/offline state) rather than scheduling its own events, so one PSS
instance serves the whole simulated network.

The PSS also answers the query BarterCast needs: ``sample(peer)`` returns a
uniform-ish random *online* peer from the peer's current view, or ``None``
if the view holds no live contacts.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.sim.rng import RngStream

__all__ = ["BuddyCastPSS"]

PeerId = Hashable


class BuddyCastPSS:
    """Bounded-partial-view epidemic sampler.

    Parameters
    ----------
    is_online:
        Callback ``peer -> bool`` supplied by the community simulator (its
        live set's ``__contains__``); the PSS never hands out (or
        exchanges views with) offline peers.
    rng:
        Random stream for partner selection, bootstrap and eviction ties.
    view_size:
        Maximum entries per view (Tribler keeps O(100); default 30 —
        comfortably above the 100-peer scenarios' gossip needs).
    bootstrap_size:
        Number of random known peers seeded into a newly registered view.
    """

    def __init__(
        self,
        is_online: Callable[[PeerId], bool],
        rng: RngStream,
        view_size: int = 30,
        bootstrap_size: int = 5,
    ) -> None:
        if view_size < 1:
            raise ValueError("view_size must be >= 1")
        if bootstrap_size < 0:
            raise ValueError("bootstrap_size must be >= 0")
        self._is_online = is_online
        self._rng = rng
        self.view_size = int(view_size)
        self.bootstrap_size = int(bootstrap_size)
        # peer -> {contact: freshness_time}
        self._views: Dict[PeerId, Dict[PeerId, float]] = {}
        # Every peer ever registered, in registration order (bootstrap
        # draws index into it); survives ``forget``.
        self._all_peers: List[PeerId] = []
        self._known: Set[PeerId] = set()
        self._exchanges = 0

    # ------------------------------------------------------------------
    @property
    def exchanges(self) -> int:
        """Total number of completed view exchanges."""
        return self._exchanges

    def register(self, peer: PeerId, now: float = 0.0) -> None:
        """Introduce ``peer`` to the service (bootstrap its view).

        ``now`` is the join time: bootstrap contacts must be inserted at
        the *current* freshness, or a peer that (re)joins late starts as
        the stalest entry in every view and is evicted first — exactly
        backwards for churn recovery.
        """
        if peer in self._views:
            return
        self._views[peer] = {}
        # Bootstrap: a few random already-known peers learn about the
        # newcomer and vice versa (stand-in for superpeer introduction).
        # Contacts are seeded at the join time ``now`` — not 0.0 — so a
        # late (re)joiner is the freshest entry, not everyone's first
        # eviction candidate.  Both sides insert through ``_insert``, so
        # ``view_size`` bounds a view below ``bootstrap_size`` too.
        if self._all_peers:
            for contact in self._rng.sample(self._all_peers, self.bootstrap_size):
                if contact != peer:
                    self._insert(peer, contact, now)
                    self._insert(contact, peer, now)
        if peer not in self._known:
            self._known.add(peer)
            self._all_peers.append(peer)

    def forget(self, peer: PeerId) -> None:
        """Drop the peer's own partial view (crash losing PSS state).

        The peer stays in others' views and among the bootstrap
        candidates; a subsequent :meth:`register` re-bootstraps it.
        """
        self._views.pop(peer, None)

    def tick(self, peer: PeerId, now: float) -> None:
        """One BuddyCast round: exchange views with a random live contact."""
        if peer not in self._views or not self._is_online(peer):
            return
        partner = self.sample(peer)
        if partner is None:
            return
        self._exchange(peer, partner, now)

    def sample(self, peer: PeerId) -> Optional[PeerId]:
        """A random live contact from ``peer``'s view, or ``None``."""
        view = self._views.get(peer)
        if not view:
            return None
        live = list(filter(self._is_online, view))
        if peer in view:
            # Only a hand-built view holds its owner; merges never insert it.
            live = [c for c in live if c != peer]
        if not live:
            return None
        return self._rng.choice(live)

    def view_of(self, peer: PeerId) -> List[PeerId]:
        """The peer's current partial view (for inspection/tests)."""
        return list(self._views.get(peer, {}))

    # ------------------------------------------------------------------
    def _exchange(self, a: PeerId, b: PeerId, now: float) -> None:
        """Symmetric view merge between ``a`` and ``b``: each learns of the
        other at ``now``, then of the other's view as it stood before."""
        va, vb = self._views[a], self._views[b]
        from_a = [(a, now), *va.items()]
        from_b = [(b, now), *vb.items()]
        self._merge(va, from_b, a)
        self._merge(vb, from_a, b)
        self._exchanges += 1

    def _insert(self, owner: PeerId, contact: PeerId, freshness: float) -> None:
        self._merge(self._views.setdefault(owner, {}), ((contact, freshness),), owner)

    def _merge(
        self,
        view: Dict[PeerId, float],
        entries: Iterable[Tuple[PeerId, float]],
        owner: PeerId,
    ) -> None:
        """Insert ``entries`` into ``owner``'s ``view`` one after the other.

        The resulting dict *order* matters as much as its content:
        :meth:`sample` draws by position, so every step keeps the order
        sequential insertion gives (a refresh keeps its slot, a newcomer
        goes last).
        """
        view_size = self.view_size
        for contact, freshness in entries:
            if contact == owner:
                continue
            known = view.get(contact)
            if known is not None:
                if freshness > known:
                    view[contact] = freshness
                continue
            if len(view) >= view_size:
                # Evict the stalest entry (the first such in view order)
                # *before* the newcomer goes in: evicting the contact being
                # inserted would make the insert a silent no-op and lock
                # the view's membership.
                stalest = min(view.values())
                for victim, held in view.items():
                    if held == stalest:
                        break
                del view[victim]
            view[contact] = freshness
