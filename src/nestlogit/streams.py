"""Reproducible random streams.

Every stochastic routine in the package draws from a SeededStream, which is
just a seed and its child indices mapped, through a SeedSequence spawn
key, onto a PCG64DXSM generator. Two streams with the same key always
replay the same draw sequence, and child streams derived for chunked
generation depend only on their chunk index, never on how many worker
threads consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = ["SeededStream"]


@dataclass
class SeededStream:
    """Random stream keyed by a 64-bit seed.

    The generator is built once, on first use, and consumed statefully;
    rebuild the stream from the same key to replay its sequence from the
    start.
    """

    seed: int
    # Extra key words appended by child(); not part of the public identity.
    _subkey: tuple[int, ...] = field(default_factory=tuple, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @cached_property
    def rng(self) -> np.random.Generator:
        key = (0, *self._subkey)  # dropping the fixed leading 0 would change every draw
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64DXSM(ss))

    def child(self, index: int) -> "SeededStream":
        """Independent substream; same (seed, lineage, index) always yields
        the same substream regardless of caller threading."""
        return SeededStream(self.seed, self._subkey + (int(index),))
