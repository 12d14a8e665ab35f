"""Reproducible random streams.

Every stochastic routine in the package draws from a SeededStream, which is
just a (seed, stream_index) pair mapped onto a counter-based Philox
generator. Two streams with the same key always replay the same draw
sequence, and child streams derived for chunked generation depend only on
their chunk index, never on how many worker threads consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["SeededStream"]


@dataclass
class SeededStream:
    """Random stream keyed by a 64-bit seed and a stream index.

    The generator is created lazily and consumed statefully; rebuild the
    stream from the same key to replay its sequence from the start.
    """

    seed: int
    stream_index: int = 0
    # Extra key words appended by child(); not part of the public identity.
    _subkey: tuple[int, ...] = field(default_factory=tuple, repr=False)
    _rng: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            key = (self.stream_index,) + self._subkey
            ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
            self._rng = np.random.Generator(np.random.Philox(ss))
        return self._rng

    def child(self, index: int) -> "SeededStream":
        """Independent substream; same (seed, stream_index, lineage, index)
        always yields the same substream regardless of caller threading."""
        return SeededStream(self.seed, self.stream_index, self._subkey + (int(index),))

    def fresh(self) -> "SeededStream":
        """A copy rewound to the start of its sequence."""
        return SeededStream(self.seed, self.stream_index, self._subkey)
