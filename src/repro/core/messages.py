"""BarterCast messages and the record-selection rule.

A BarterCast message is a selection of the sender's private history.  The
paper's rule: peer *i* selects the records of the ``Nh`` peers with the
highest upload to *i* as well as the ``Nr`` peers most recently seen by *i*
(the two selections are deduplicated; the paper uses ``Nh = Nr = 10``).

Each :class:`HistoryRecord` is a *claim by the sender* about one ordered
pair: "I uploaded ``uploaded`` bytes to ``counterparty`` and downloaded
``downloaded`` bytes from it, in total".  Records carry running totals, not
deltas, so a newer record from the same reporter about the same
counterparty supersedes the older one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from numbers import Real
from typing import Hashable, List, Optional, Tuple

from repro.core.history import PrivateHistory

__all__ = [
    "HistoryRecord",
    "BarterCastMessage",
    "admitted_totals",
    "select_records",
]

PeerId = Hashable


@dataclass(frozen=True, slots=True)
class HistoryRecord:
    """One private-history entry as carried in a message.

    Attributes
    ----------
    counterparty:
        The peer the sender exchanged data with.
    uploaded:
        Total bytes the *sender claims* to have uploaded to ``counterparty``.
    downloaded:
        Total bytes the *sender claims* to have downloaded from it.
    """

    counterparty: PeerId
    uploaded: float
    downloaded: float


def admitted_totals(record: HistoryRecord) -> Optional[Tuple[float, float]]:
    """``(uploaded, downloaded)`` as floats when both totals of ``record``
    are byte totals a receiver admits — real numbers whose float values
    are finite and non-negative — else ``None``: the receiver's admission
    rule for a record's totals, written once for ingest and the
    dissemination log.  The caller checks the rest of the rule — a
    hashable counterparty that is neither the sender nor the receiver.

    Never raises, whatever a peer sent.  An int too large for a float, a
    numpy array, a string or ``None`` is not a total; ``True`` and numpy
    real scalars are.  The exact floats every simulated sender writes are
    range-checked in place, with no conversion.
    """
    up = record.uploaded
    down = record.downloaded
    if up.__class__ is not float or down.__class__ is not float:
        if not (isinstance(up, Real) and isinstance(down, Real)):
            return None
        try:
            up = float(up)
            down = float(down)
        except (OverflowError, TypeError, ValueError):
            return None
    # The chained comparisons are also false for NaN.
    if 0.0 <= up < inf and 0.0 <= down < inf:
        return up, down
    return None


@dataclass(frozen=True, slots=True)
class BarterCastMessage:
    """A BarterCast gossip message.

    Attributes
    ----------
    sender:
        The reporting peer; every record is a claim by this peer.
    created_at:
        Simulated creation time; receivers use it for supersede-by-
        timestamp semantics.
    records:
        The selected history records.
    msg_id:
        Message identity shared by provenance and dissemination tracing.
        ``None`` until the sender stamps one
        (:meth:`~repro.core.node.BarterCastNode.create_message` always
        uses ``(sender, sequence)``); receivers treat it as opaque and
        never use it for supersede decisions — only lineage records and
        the dissemination log carry it.
    parent_id:
        Causal envelope: the ``msg_id`` of the sender's previous message
        (``None`` for the sender's first message).  Chains a sender's
        messages into a per-origin causal spine; receivers ignore it.
    hops:
        Causal envelope: how many gossip hops the carried claims have
        travelled.  BarterCast never forwards received claims, so every
        message on the wire is firsthand (``hops == 1``); the field
        exists so forwarding overlays (and the planned daemon) share the
        same envelope.  Receivers ignore it for supersede decisions.
    """

    sender: PeerId
    created_at: float
    records: tuple = field(default_factory=tuple)
    msg_id: Hashable = None
    parent_id: Hashable = None
    hops: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def num_records(self) -> int:
        """Number of records carried."""
        return len(self.records)


def select_records(
    history: PrivateHistory,
    n_highest: int,
    n_recent: int,
) -> List[HistoryRecord]:
    """Apply the paper's selection rule to a private history.

    Returns records for the union of the ``n_highest`` top uploaders to the
    owner and the ``n_recent`` most recently seen peers, preserving the
    top-uploader-first order and deduplicating.
    """
    chosen = history.top_uploaders(n_highest)
    seen = set(chosen)
    chosen += [peer for peer in history.most_recent(n_recent) if peer not in seen]
    # One immutable record per counterparty is reused until its totals
    # move: the ledger drops a counterparty's record when it writes a new
    # total, so a cached record always matches the ledger.
    cache = history.wire_records
    records = []
    for peer in chosen:
        record = cache.get(peer)
        if record is None:
            totals = history.totals(peer)
            record = cache[peer] = HistoryRecord(
                counterparty=peer,
                uploaded=totals.uploaded,
                downloaded=totals.downloaded,
            )
        records.append(record)
    return records
