"""Seeded random-number streams.

Reproducibility discipline: every stochastic component of the simulation
(trace generation, gossip partner selection, optimistic-unchoke rotation,
adversary assignment, ...) draws from its *own* named stream derived from a
single root seed.  Adding randomness to one component therefore never
perturbs the draws seen by another, which keeps A/B comparisons (e.g. rank
policy vs ban policy on the same trace) paired and low-variance.

Streams are spawned with ``numpy.random.SeedSequence`` so the per-stream
generators are statistically independent by construction.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Optional, Sequence, TypeVar

import numpy as np

__all__ = ["RngStream", "RngRegistry"]

T = TypeVar("T")


class RngStream:
    """A thin convenience wrapper over :class:`numpy.random.Generator`.

    Adds the handful of list-oriented helpers the simulators need
    (choice over arbitrary Python sequences, shuffles returning new lists)
    while exposing the underlying generator for vectorized draws.
    """

    def __init__(self, generator: np.random.Generator, name: str = "") -> None:
        self._gen = generator
        self.name = name

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator, for vectorized sampling."""
        return self._gen

    # -- scalar draws ---------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float drawn uniformly from ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean."""
        return float(self._gen.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        """A log-normal variate with underlying normal ``(mean, sigma)``."""
        return float(self._gen.lognormal(mean, sigma))

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return bool(self._gen.random() < p)

    # -- sequence helpers -------------------------------------------------
    def choice(self, seq: Sequence[T]) -> T:
        """A uniformly random element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """``k`` distinct elements drawn without replacement.

        ``k`` is clamped to ``len(seq)``.
        """
        k = min(k, len(seq))
        if k == 0:
            return []
        idx = self._gen.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, seq: Sequence[T]) -> list[T]:
        """A new list with the elements of ``seq`` in random order."""
        out = list(seq)
        self._gen.shuffle(out)  # type: ignore[arg-type]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name!r}>"


class RngRegistry:
    """Derives named, independent :class:`RngStream` objects from one seed.

    The same ``(root_seed, name)`` pair always yields the same stream, no
    matter in which order streams are requested — the registry hashes the
    name into the spawn key rather than using request order.

    Examples
    --------
    >>> reg = RngRegistry(42)
    >>> a = reg.stream("gossip")
    >>> b = reg.stream("choker")
    >>> a is reg.stream("gossip")
    True
    """

    def __init__(self, root_seed: int) -> None:
        # numpy's SeedSequence takes non-negative integers only; say so
        # before any stream is drawn.
        if not isinstance(root_seed, Integral) or root_seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {root_seed!r}")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        # Derive a child seed from the (root, name) pair deterministically.
        name_key = [ord(c) for c in name] or [0]
        seq = np.random.SeedSequence([self.root_seed, *name_key])
        stream = RngStream(np.random.default_rng(seq), name=name)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str, index: int) -> RngStream:
        """A per-entity stream, e.g. one per peer: ``spawn('peer', 17)``."""
        return self.stream(f"{name}#{index}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.root_seed} streams={len(self._streams)}>"
