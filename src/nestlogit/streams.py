"""Reproducible random streams.

Every stochastic routine in the package draws from a SeededStream, a
named tuple of its key: a seed and the child indices below it (subkey).
The key maps, through a SeedSequence spawn key, onto a PCG64DXSM
generator. Two streams with the same key compare equal and always replay
the same draw sequence, and child streams derived for chunked generation
depend only on their chunk index, never on how many worker threads
consume them.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = ["SeededStream"]


class SeededStream(namedtuple("SeededStream", "seed subkey")):
    """Random stream keyed by a 64-bit seed and its child indices.

    The generator is built once, on first use, and consumed statefully;
    rebuild the stream from the same key to replay its sequence from the
    start. The instance keeps a __dict__ only to hold that generator.
    """

    def __new__(cls, seed: int, subkey: tuple[int, ...] = ()):
        integer = hasattr(type(seed), "__index__") and not isinstance(seed, bool)  # int or numpy integer
        if not (integer and 0 <= operator.index(seed) < 2**64):
            raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        return super().__new__(cls, operator.index(seed), subkey)

    @classmethod
    def _make(cls, iterable):  # _replace goes through _make: keep the check
        return cls(*iterable)

    @cached_property
    def rng(self) -> np.random.Generator:
        key = (0, *self.subkey)  # dropping the fixed leading 0 would change every draw
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64DXSM(ss))

    def child(self, index: int) -> SeededStream:
        """Independent substream; same (seed, lineage, index) always yields
        the same substream regardless of caller threading."""
        return SeededStream(self.seed, self.subkey + (int(index),))
