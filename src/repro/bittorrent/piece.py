"""Bitfields and rarest-first piece selection.

Bitfields are NumPy boolean arrays — piece membership tests, candidate
masks (``uploader.have & ~receiver.have``), and availability updates are
all vectorized, which keeps the per-round cost of the simulator linear in
the number of *active connections*, not in peers × pieces.
"""

from __future__ import annotations

import numpy as np

# The C routine ``np.count_nonzero`` calls for a whole array, minus the
# array-function dispatcher (~0.5 us a call): the transfer path counts
# each link's candidate pieces with it.
try:  # numpy >= 2
    from numpy._core.multiarray import count_nonzero
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy.core.multiarray import count_nonzero

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

    __slots__ = ("have", "_num_have", "_num_pieces")

    def __init__(self, num_pieces: int, complete: bool = False) -> None:
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        self.have = np.full(num_pieces, complete, dtype=bool)
        self._num_have = num_pieces if complete else 0
        self._num_pieces = num_pieces

    @property
    def num_have(self) -> int:
        """Pieces currently held."""
        return self._num_have

    @property
    def is_complete(self) -> bool:
        """Whether every piece is held."""
        return self._num_have == self._num_pieces

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
        self._num_have = int(count_nonzero(self.have))
        return self._num_have - before

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bitfield {self._num_have}/{self._num_pieces}>"


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
        if k == 1:
            return idx[part]
        idx = idx[part]
        counts = counts[part]
    elif idx.size == 1:
        return idx
    return idx[counts.argsort(kind="stable")]
