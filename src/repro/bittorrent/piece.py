"""Bitfields and rarest-first piece selection.

Bitfields are NumPy boolean arrays — piece membership tests, candidate
masks (``uploader.have & ~receiver.have``), and availability updates are
all vectorized, which keeps the per-round cost of the simulator linear in
the number of *active connections*, not in peers × pieces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Bitfield", "pick_rarest"]


class Bitfield:
    """Piece possession of one peer in one swarm.

    Parameters
    ----------
    num_pieces:
        Swarm piece count.
    complete:
        Start with all pieces (seeders).
    """

    __slots__ = ("have", "_num_have")

    def __init__(self, num_pieces: int, complete: bool = False) -> None:
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        self.have = np.full(num_pieces, complete, dtype=bool)
        self._num_have = num_pieces if complete else 0

    @property
    def num_pieces(self) -> int:
        """Total pieces in the swarm."""
        return int(self.have.shape[0])

    @property
    def num_have(self) -> int:
        """Pieces currently held."""
        return self._num_have

    @property
    def is_complete(self) -> bool:
        """Whether every piece is held."""
        return self._num_have == self.have.shape[0]

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1]."""
        return self._num_have / self.have.shape[0]

    def add(self, piece: int) -> bool:
        """Mark ``piece`` as held; returns True if it was new."""
        if self.have[piece]:
            return False
        self.have[piece] = True
        self._num_have += 1
        return True

    def add_many(self, pieces: np.ndarray) -> int:
        """Mark several pieces; returns how many were new (an index
        repeated in ``pieces`` counts once)."""
        if len(pieces) == 0:
            return 0
        before = self._num_have
        self.have[pieces] = True
        self._num_have = int(np.count_nonzero(self.have))
        return self._num_have - before

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of pieces not yet held (a fresh array)."""
        return ~self.have

    def wants_from(self, other: "Bitfield") -> bool:
        """Whether ``other`` holds at least one piece this bitfield lacks."""
        if self.is_complete:
            return False
        if other._num_have == 0:
            return False
        if other.is_complete:
            return True
        return bool(np.any(other.have & ~self.have))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bitfield {self._num_have}/{self.have.shape[0]}>"


def pick_rarest(availability: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Select up to ``k`` rarest pieces among ``candidates``.

    Parameters
    ----------
    availability:
        Integer per-piece copy counts in the swarm (the rarest-first key).
    candidates:
        Boolean mask of the pieces the receiver can get over this link:
        held by the uploader, not yet by the receiver.  The transfer path
        builds it once per link to size the transfer and passes it on.
    k:
        Maximum number of pieces to select.

    Returns
    -------
    numpy.ndarray
        Indices of the selected pieces, rarest first; may be shorter than
        ``k`` if fewer candidates exist.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    idx = candidates.nonzero()[0]
    if idx.size == 0:
        return idx
    counts = availability[idx]
    # The array methods run the C routines ``np.argpartition`` /
    # ``np.argsort`` dispatch to (same ties), minus the dispatcher.
    if idx.size > k:
        part = counts.argpartition(k - 1)[:k]
        idx = idx[part]
        counts = counts[part]
    if idx.size == 1:
        return idx
    return idx[counts.argsort(kind="stable")]
