"""Small Monte Carlo utilities: error-tagged estimates and a deterministic
chunked driver for parallel draw generation.

Chunks have a fixed size, each chunk gets its own substream keyed by the
chunk index, and results are assembled in chunk order, so output is
bit-identical whether one thread or many produced it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["EstimateWithError", "mean_with_error", "binomial_estimate",
           "correlation_with_error", "run_chunked"]

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error and draw count."""

    value: float
    std_error: float
    n_draws: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_draws < 0:
            raise ValueError("n_draws must be nonnegative")


def mean_with_error(samples: np.ndarray) -> EstimateWithError:
    """Sample mean with std error = sample standard deviation / sqrt(n)."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("need at least one sample")
    sd = samples.std(ddof=1) if n > 1 else 0.0
    return EstimateWithError(float(samples.mean()), float(sd / np.sqrt(n)), n)


def binomial_estimate(count: int, n_draws: int) -> EstimateWithError:
    """Frequency estimate of a probability with binomial standard error."""
    if n_draws <= 0:
        raise ValueError("n_draws must be positive")
    p = count / n_draws
    return EstimateWithError(p, float(np.sqrt(p * (1.0 - p) / n_draws)), n_draws)


def correlation_with_error(a: np.ndarray, b: np.ndarray) -> EstimateWithError:
    """Pearson correlation with normal-theory std error (1 - r^2)/sqrt(n - 3)."""
    n = len(a)
    r = float(np.corrcoef(a, b)[0, 1])
    err = max(0.0, 1.0 - r * r) / float(np.sqrt(n - 3.0))
    return EstimateWithError(r, err, n)


def run_chunked(stream, n_draws, kernel, n_threads=1, chunk_size=CHUNK_SIZE):
    """Evaluate ``kernel(substream, start, stop)`` over fixed-size chunks.

    Returns the list of kernel results in chunk order. The chunk layout
    depends only on n_draws and chunk_size; n_threads affects scheduling
    only, never the draws themselves.
    """
    if n_draws < 0:
        raise ValueError("n_draws must be nonnegative")
    bounds = [(k, min(k + chunk_size, n_draws)) for k in range(0, n_draws, chunk_size)]

    def one(i_start_stop):
        i, (start, stop) = i_start_stop
        return kernel(stream.child(i), start, stop)

    tasks = list(enumerate(bounds))
    if n_threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(one, tasks))
    return [one(t) for t in tasks]
