"""Peer Sampling Service (PSS).

BarterCast assumes peers can discover gossip partners through a PSS; the
paper uses Tribler's decentralized BuddyCast epidemic protocol and treats
the PSS implementation as transparent to BarterCast.  This subpackage
provides :class:`~repro.pss.buddycast.BuddyCastPSS`, a faithful epidemic
partial-view protocol (bounded views, periodic view exchange with a
random live contact, churn handling).  The global-knowledge sampler the
PSS ablation compares it with is part of the tests' reference model
(``tests/model.py``).
"""

from repro.pss.buddycast import BuddyCastPSS

__all__ = ["BuddyCastPSS"]
