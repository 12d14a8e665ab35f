"""Small Monte Carlo utilities: error-tagged estimates and a deterministic
chunked driver for parallel draw generation.

Chunks have a size fixed by the caller (CHUNK_SIZE unless the simulator
sizes them by the tree), each chunk gets its own substream keyed by the
chunk index, and results are assembled in chunk order, so output is
bit-identical whether one thread or many produced it. A run starts at
most min(n_threads, usable CPUs) workers: a thread past the CPU count
only adds memory. A run of two or more chunks runs whole chunks in
parallel, one worker per chunk; a run of one chunk hands every worker
to a kernel that can split a chunk (the simulator's fold), and any
other kernel runs it on one worker. Only a run with more than one
worker imports the thread pool. An estimate is an EstimateWithError
named tuple, which refuses a negative standard error, also through
_replace.

The estimators own the draw floors of the routines built on them: below
one draw for a frequency, two for a mean (one draw has no spread to
estimate a standard error from) or four for a correlation, they raise
DomainError. run_chunked makes no chunks for a count below one.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

import numpy as np

from .errors import DomainError

__all__ = ["EstimateWithError", "mean_with_error", "binomial_estimate",
           "correlation_with_error", "run_chunked"]

CHUNK_SIZE = 1 << 16


class EstimateWithError(namedtuple("EstimateWithError", "value std_error n_draws")):
    """Monte Carlo estimate with its standard error and draw count."""

    __slots__ = ()

    def __new__(cls, value: float, std_error: float, n_draws: int):
        if std_error < 0:
            raise ValueError("std_error must be nonnegative")
        return super().__new__(cls, value, std_error, n_draws)

    @classmethod
    def _make(cls, iterable):  # _replace goes through _make: keep the check
        return cls(*iterable)


def mean_with_error(samples: np.ndarray) -> EstimateWithError:
    """Sample mean with std error = sample standard deviation / sqrt(n)."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise DomainError("a mean's standard error needs at least 2 draws" if n else "n_draws must be positive")
    return EstimateWithError(float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n)), n)


def binomial_estimate(count: int, n_draws: int) -> EstimateWithError:
    """Frequency estimate of a probability with binomial standard error."""
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    p = count / n_draws
    # math.sqrt, like np.sqrt, rounds correctly, at a fraction of the cost per leaf
    return EstimateWithError(p, math.sqrt(p * (1.0 - p) / n_draws), n_draws)


def correlation_with_error(a: np.ndarray, b: np.ndarray) -> EstimateWithError:
    """Pearson correlation with normal-theory std error (1 - r^2)/sqrt(n - 3)."""
    n = len(a)
    if n < 4:
        raise DomainError("correlation needs at least 4 draws")
    r = float(np.corrcoef(a, b)[0, 1])
    err = max(0.0, 1.0 - r * r) / float(np.sqrt(n - 3.0))
    return EstimateWithError(r, err, n)


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says, else all of them
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunked(stream, n_draws, kernel, n_threads=1, chunk_size=CHUNK_SIZE, split=False):
    """Evaluate ``kernel(substream, start, stop)`` over fixed-size chunks.

    Returns the list of kernel results in chunk order. The chunk layout
    depends only on n_draws and chunk_size; n_threads affects scheduling
    only, never the draws themselves. The workers are min(n_threads, the
    CPUs this process may run on). A kernel that can spread one chunk over
    workers (split=True) is called as ``kernel(substream, start, stop,
    workers, fan)``, where fan(fn, items) maps fn over items on that many
    workers and yields the results in item order. A run of one chunk
    hands such a kernel all the workers, through one pool; otherwise
    chunks run in parallel, at most one worker per chunk, and a split
    kernel gets (1, map). Two or more chunks stay chunk-parallel even
    when there are fewer of them than workers: there each chunk draws its
    factors on its own generator at the same time as the others, which a
    split chunk's ordered factor draws would serialise.
    """
    bounds = [(k, min(k + chunk_size, n_draws)) for k in range(0, n_draws, chunk_size)]
    workers = min(n_threads, _usable_cpus())
    inside = split and len(bounds) == 1  # one chunk: spread it instead
    if not inside:
        workers = min(workers, len(bounds))

    def one(i_start_stop, lanes=(1, map)):
        i, (start, stop) = i_start_stop
        return kernel(stream.child(i), start, stop, *lanes) if split else kernel(stream.child(i), start, stop)

    tasks = list(enumerate(bounds))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        if not inside:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(one, tasks))
        # The calling thread is one of the workers: it takes the first item
        # of every fan, so the run touches one thread's heap fewer.
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            def fan(fn, items):
                items = list(items)
                futures = [pool.submit(fn, item) for item in items[1:]]
                return [fn(item) for item in items[:1]] + [future.result() for future in futures]

            return [one(t, (workers, fan)) for t in tasks]
    return [one(t) for t in tasks]
