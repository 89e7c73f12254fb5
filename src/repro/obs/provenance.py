"""Reputation provenance: where every subjective claim came from.

BarterCast reputations are *subjective*: ``R_i(j)`` depends on which
gossip messages reached *i*, from whom, and when.  The rest of the obs
stack can say *what* the score is (metrics) and *when* things happened
(traces); this module records *why a claim holds*: for every live claim
in a :class:`~repro.core.sharedhistory.SubjectiveSharedHistory`, a
compact lineage tuple

``(reporter, msg_id, value, reported_at, received_at, hops, superseded)``

* ``reporter`` — the peer whose message carried the claim;
* ``msg_id`` — the gossip message that delivered the live value (a
  per-sender sequence number stamped by
  :meth:`~repro.core.node.BarterCastNode.create_message` when provenance
  is on; falls back to ``(sender, created_at)`` for foreign messages);
* ``value`` — the claimed byte total (replaying the live lineage of an
  edge — max over reporters — reconstructs the materialized capacity
  exactly; pinned by ``tests/test_provenance.py``);
* ``reported_at`` — the message creation time (supersede key);
* ``received_at`` — the simulated delivery time (differs from
  ``reported_at`` under the :mod:`repro.faults` delay channel);
* ``hops`` — gossip distance of the information: BarterCast never
  forwards messages, so every gossiped claim is firsthand (``hops=1``);
  owner-incident edges come from private history (``hops=0``) and are
  synthesized at explain time, never stored here;
* ``superseded`` — how many earlier claims by the same reporter about
  the same edge this entry replaced (a freshness/stability signal).

Lineage is stored per direction in slots of the store's (reporter,
counterparty) record — the delivering message's ``(msg_id, received_at)``
pair, built once per message, and the ``superseded`` count — and
maintained through every mutation path: newer messages
supersede (``superseded`` increments), equal-timestamp redeliveries are
ignored exactly like the value tie-break ignores them (the view — and
its lineage — stays independent of arrival order), stale copies are
dropped, and ``forget_reporter`` churn wipes remove it with the claims.
The store counts these events in locals and folds them in once per
message: the totals (published as the ``prov.*`` metrics) count *every*
claim, while a ``prov.claim`` trace event means *a claim that changed a
value* — a first claim or a moved total, the ones that reach the graph
write.

Null-object discipline (PR 2): provenance is **off by default**.  The
shared :data:`NULL_PROVENANCE` recorder answers ``enabled = False`` and
the store guards on a cached boolean, so a provenance-off run is
byte-identical to the seed behaviour (pinned by
``tests/test_provenance.py``); what provenance-on costs is part of what
the ``gossip_fast_obs`` workload of ``benchmarks/e2e`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

__all__ = [
    "ClaimLineage",
    "ProvenanceRecorder",
    "NullProvenanceRecorder",
    "NULL_PROVENANCE",
]

PeerId = Hashable


@dataclass(frozen=True)
class ClaimLineage:
    """Provenance of one live claim (see module docstring for fields)."""

    reporter: PeerId
    msg_id: Hashable
    value: float
    reported_at: float
    received_at: float
    hops: int = 1
    superseded: int = 0

    def to_json(self) -> dict:
        """JSON-safe rendering (peer ids / msg ids stringified as needed)."""
        return {
            "reporter": _json_safe(self.reporter),
            "msg_id": _json_safe(self.msg_id),
            "value": self.value,
            "reported_at": self.reported_at,
            "received_at": self.received_at,
            "hops": self.hops,
            "superseded": self.superseded,
        }


def _json_safe(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class ProvenanceRecorder:
    """Counts lineage events and offers changed claims to the tracer.

    One recorder is shared by every node of a simulation (lineage itself
    is stored per-claim inside each node's shared history; the recorder
    is the aggregation/emission point).  It counts into its own totals
    (published by the simulation as ``prov.*``); when tracing is live it
    emits sampled ``prov.claim`` events for the claims that changed a
    value.
    """

    enabled = True
    #: The lineage-event totals, in :meth:`summary` order.
    EVENTS = (
        "claims_recorded",
        "claims_superseded",
        "redeliveries_ignored",
        "stale_dropped",
        "claims_forgotten",
    )
    # This recorder's lineage-event totals (an instance shadows the zeros).
    claims_recorded = claims_superseded = redeliveries_ignored = 0
    stale_dropped = claims_forgotten = 0

    def __init__(self, obs=None) -> None:
        from repro.obs import NULL_OBS

        tracer = (obs if obs is not None else NULL_OBS).tracer
        self._tr_claim = tracer.category("prov.claim") if tracer.enabled else None

    # ------------------------------------------------------------------
    def fold(
        self, recorded: int, superseded: int, redelivered: int, stale: int
    ) -> None:
        """One message's lineage events, counted per direction: claims
        applied (``superseded`` of them replacing or confirming an older
        one), equal-timestamp redeliveries ignored, stale copies dropped.
        """
        self.claims_recorded += recorded
        self.claims_superseded += superseded
        self.redeliveries_ignored += redelivered
        self.stale_dropped += stale

    def trace_claim(
        self, owner: PeerId, src, dst, reporter: PeerId, msg, superseded: int
    ) -> None:
        """A claim about edge ``(src, dst)`` changed a value: offer it to
        the ``prov.claim`` sampler (a restated total never gets here).

        ``msg`` is the ``(msg_id, received_at)`` pair and ``superseded``
        the count the shared history stores for that direction.
        """
        cat = self._tr_claim
        if cat is not None and cat.sample():
            cat.emit_sampled(
                "supersede" if superseded else "record",
                sim_time=msg[1],
                attrs={
                    "owner": owner,
                    "edge": [src, dst],
                    "reporter": reporter,
                    "msg_id": _json_safe(msg[0]),
                    "superseded": superseded,
                },
            )

    def record_forget(self, owner: PeerId, reporter: PeerId, removed: int) -> None:
        """``removed`` claims by ``reporter`` were wiped (churn path)."""
        self.claims_forgotten += removed

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """The lineage-event totals of this recorder (the ``prov.*`` metrics)."""
        return {key: getattr(self, key) for key in self.EVENTS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProvenanceRecorder recorded={self.claims_recorded} "
            f"superseded={self.claims_superseded}>"
        )


class NullProvenanceRecorder(ProvenanceRecorder):
    """The disabled recorder: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:  # pylint: disable=super-init-not-called
        pass

    def fold(self, recorded, superseded, redelivered, stale) -> None:
        pass

    def trace_claim(self, owner, src, dst, reporter, msg, superseded) -> None:
        pass

    def record_forget(self, owner, reporter, removed) -> None:
        pass


#: Shared disabled recorder — the default everywhere.
NULL_PROVENANCE = NullProvenanceRecorder()
