"""repro — a full reproduction of *BarterCast: A practical approach to
prevent lazy freeriding in P2P networks* (Meulpolder, Pouwelse, Epema,
Sips; IPDPS 2009).

Quick start::

    from repro.core import BarterCastNode, MB

    alice, bob = BarterCastNode("alice"), BarterCastNode("bob")
    alice.record_upload("bob", 200 * MB, now=10.0)
    bob.record_download("alice", 200 * MB, now=10.0)
    print(bob.reputation_of("alice"))   # positive: alice served bob

    # Third parties learn through gossip:
    carol = BarterCastNode("carol")
    carol.receive_message(bob.create_message(now=20.0))

Subpackages
-----------
:mod:`repro.core`
    BarterCast itself: private/shared histories, message protocol, the
    arctan maxflow reputation metric, rank/ban policies, adversaries.
:mod:`repro.graph`
    Transfer graphs and the closed-form 2-hop maxflow kernel.
:mod:`repro.sim`
    Deterministic discrete-event kernel and seeded RNG streams.
:mod:`repro.pss`
    BuddyCast-style epidemic peer sampling.
:mod:`repro.bittorrent`
    Piece-level BitTorrent community simulator (choking, rarest-first,
    bandwidth model, trace-driven sessions).
:mod:`repro.traces`
    Synthetic filelist.org-style community traces.
:mod:`repro.deployment`
    Synthetic Tribler-like deployment + measurement crawl (Figure 4).
:mod:`repro.experiments`
    One driver per paper figure; ``python -m repro.cli all`` regenerates
    everything.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
