"""BarterCast: the paper's primary contribution.

The pieces, bottom to top:

* :mod:`repro.core.history` — the tamper-proof *private history* ledger a
  peer keeps of its own transfers.
* :mod:`repro.core.messages` — BarterCast messages: a selection of the
  sender's private history (the ``Nh`` top uploaders to the sender plus the
  ``Nr`` most recently seen peers).
* :mod:`repro.core.sharedhistory` — the *subjective shared history*: the
  store of records received from other peers, with per-reporter claim
  tracking and supersede-by-timestamp semantics.
* :mod:`repro.core.reputation` — the arctan maxflow reputation metric
  ``R_i(j) = arctan(mf(j→i) − mf(i→j)) / (π/2)`` with pluggable maxflow
  kernels and an alternative linear metric for ablations.
* :mod:`repro.core.node` — :class:`~repro.core.node.BarterCastNode`, the
  per-peer agent combining all of the above with reputation caching.
* :mod:`repro.core.policies` — BitTorrent integration policies: *rank*
  (reputation-ordered optimistic unchoking) and *ban* (reputation
  threshold δ), plus the no-reputation baseline.
* :mod:`repro.core.adversary` — protocol-disobeying behaviours used in the
  Figure 3 experiments: peers that ignore the message protocol and peers
  that lie selfishly about their contribution.
"""

from repro.core.history import PrivateHistory, TransferTotals
from repro.core.messages import BarterCastMessage, HistoryRecord, select_records
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.core.reputation import DEFAULT_UNIT_BYTES, MB, ReputationMetric
from repro.core.node import BarterCastConfig, BarterCastNode
from repro.core.policies import BanPolicy, NoPolicy, RankPolicy, ReputationPolicy
from repro.core.adversary import HonestBehavior, Ignorer, MessageBehavior, SelfishLiar
from repro.core.whitewashing import (
    AdaptiveStrangerPenalty,
    StaticStrangerPenalty,
    StrangerPolicy,
    TrustedIdentities,
    is_stranger,
)

__all__ = [
    "PrivateHistory",
    "TransferTotals",
    "BarterCastMessage",
    "HistoryRecord",
    "select_records",
    "SubjectiveSharedHistory",
    "ReputationMetric",
    "MB",
    "DEFAULT_UNIT_BYTES",
    "BarterCastConfig",
    "BarterCastNode",
    "ReputationPolicy",
    "NoPolicy",
    "RankPolicy",
    "BanPolicy",
    "MessageBehavior",
    "HonestBehavior",
    "Ignorer",
    "SelfishLiar",
    "StrangerPolicy",
    "TrustedIdentities",
    "StaticStrangerPenalty",
    "AdaptiveStrangerPenalty",
    "is_stranger",
]
