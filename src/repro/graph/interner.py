"""Peer-id interning: hashable identifiers to dense int indices.

The columnar graph backend (:mod:`repro.graph.columnar`) stores adjacency
in flat numpy arrays indexed by *interned* peer ids.  Peers in BarterCast
are arbitrary hashables (int peer ids in the simulator, string permids in
the deployed client), so a small bijection layer maps them to dense
``0..n-1`` indices.

Stability contract
------------------
An index, once assigned, is **never reused and never remapped**: churn
(``forget_reporter`` wipes, which write edges to zero) and edge-log
compaction leave the interner untouched.  Consumers may therefore hold interned indices
across arbitrary graph mutations — the CSR snapshots rely on this.  The
tests in ``tests/test_columnar.py`` pin the contract.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

__all__ = ["PeerInterner"]

PeerId = Hashable


class PeerInterner:
    """A grow-only bijection ``peer id <-> dense int index``.

    Examples
    --------
    >>> interner = PeerInterner()
    >>> interner.intern("permid:aa")
    0
    >>> interner.intern(7)
    1
    >>> interner.intern("permid:aa")
    0
    >>> interner.peer(1)
    7
    >>> interner.lookup("unknown")
    -1
    """

    __slots__ = ("_index", "_peers")

    def __init__(self) -> None:
        self._index: Dict[PeerId, int] = {}
        self._peers: List[PeerId] = []

    def intern(self, peer: PeerId) -> int:
        """The index of ``peer``, assigning the next free one if new."""
        idx = self._index.get(peer)
        if idx is None:
            idx = len(self._peers)
            self._index[peer] = idx
            self._peers.append(peer)
        return idx

    def lookup(self, peer: PeerId) -> int:
        """The index of ``peer``, or ``-1`` if it was never interned."""
        return self._index.get(peer, -1)

    def peer(self, index: int) -> PeerId:
        """The peer id interned at ``index``.

        Raises
        ------
        IndexError
            If ``index`` was never assigned.
        """
        return self._peers[index]

    def __len__(self) -> int:
        return len(self._peers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PeerInterner size={len(self._peers)}>"
