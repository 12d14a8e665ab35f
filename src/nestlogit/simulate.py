"""Simulation of nested logit noise through shared positive stable factors.

Each draw realizes one log Z_n per nest with lambda_n < 1 plus one Gumbel
per leaf and assembles

    eps_j = sum_t Lambda_{n_j(t)} * log Z_{n_j(t)} + Lambda_{n_j} * eps'_j

over the nests n_j(t) on the path from the root to the leaf's parent nest
n_j. The factor Z_n is shared by every leaf below n within a draw, which
is what produces the within-nest correlation 1 - Lambda_lca^2 while every
marginal stays standard Gumbel. Nests with lambda_n = 1 contribute nothing
and are skipped in sampling.

The factor part of the sum is shared by the leaves of a nest and equals
its parent nest's plus Lambda_n * log Z_n, so it is assembled as a prefix
sum down the tree, O(chunk x nests) memory; its rows are the nest slots,
linked by tree.up. Each term is drawn as eta_n = lambda_n * log Z_n and
scaled by the parent nest's Lambda, since Lambda_n = Lambda_parent *
lambda_n: no factor 1/lambda_n enters, so tiny lambdas cannot overflow
it. The factors and the leaf Gumbels are drawn in blocks of rows, one
Kanter and one Gumbel call per block rather than per nest and per leaf,
in the same stream order.

_factor_rows is the one sampler of these rows, and _fold the one chunk
kernel that adds the leaf Gumbels. It folds the noise one leaf block at
a time into reducers, one per kind of output, each owning its arrays and
its merge of a chunk's ranges: _Columns keeps noise columns
(sample_epsilon all of them, returned as the store's transpose in a
SampleBatch named tuple; mc_correlation two), _Hits a flag per bound
vector (mc_cdf) and _Best each draw's best total with each chunk's win
counts (mc_choice_probs, mc_emax); verify.run_checks folds all three at
once. A leaf's noise depends only on the factors on its own root path,
so when the reducers read only some columns, _fold computes only the
factor rows of their root paths and only the leaf blocks that hold
them: it still draws every factor, skips an unread block's uniforms by
advancing the generator, and stops after the last block it reads, so
the columns are the same bits as sample_epsilon's. _fold refuses a
negative draw count before it makes its reducers; the floors below
which an estimate is undefined belong to montecarlo's estimators.
mixed_logit_probs splits the leaf Gumbels once more into exact
softmaxes. Generation is chunked by montecarlo.run_chunked with one
substream per chunk, so results are bit-identical no matter how many
worker threads produced them. The chunk size is a function of the tree
alone (_chunk_size): 65,536 draws while a chunk's factor rows fit 2^22
floats, fewer on trees with more than 64 nests, so each running chunk
holds at most 32 MiB of factor rows. A run of one chunk with more
than one worker spreads _fold's chunk over them: the factor blocks as
_factor_rows says, the leaf blocks in one contiguous range per worker,
each reading a copy of the chunk's generator advanced past the uniforms
of the blocks before it (a leaf uniform takes exactly one generator
output). The reducers merge the ranges in block order, so the bits are
those of one worker.
"""

from __future__ import annotations

import copy
import math
import threading
from collections import namedtuple
from functools import partial

import numpy as np

from .distributions import EULER_GAMMA, _kanter_draws, _kanter_eta, _kanter_log, gumbel_sample
from .errors import DomainError
from .model import ModelSpec, _leaf_values
from .montecarlo import (
    CHUNK_SIZE,
    EstimateWithError,
    binomial_estimate,
    correlation_with_error,
    mean_with_error,
    run_chunked,
)
from .streams import SeededStream
from .tree import Arborescence, require_leaf

__all__ = [
    "SampleBatch",
    "sample_epsilon",
    "mc_choice_probs",
    "mc_emax",
    "mc_correlation",
    "mc_cdf",
    "mixed_logit_probs",
]


class SampleBatch(namedtuple("SampleBatch", "draws leaf_order")):
    """Noise draws, one row per draw and one column per leaf of leaf_order
    (the tree's leaf preorder): the transpose of a leaves x draws store."""

    __slots__ = ()


# A chunk's factor rows hold at most this many floats (32 MiB) per thread.
FACTOR_FLOATS = 1 << 22


def _chunk_size(tree: Arborescence) -> int:
    """Draws per chunk: CHUNK_SIZE while the (nests x draws) factor rows fit
    FACTOR_FLOATS, else the largest power of two that does (at least 1)."""
    fit = FACTOR_FLOATS // len(tree.nests)
    return min(CHUNK_SIZE, 1 << max(fit.bit_length() - 1, 0))


def _blocks(n_rows: int, m: int, workers: int = 1) -> list[slice]:
    # At most CHUNK_SIZE floats per block over all workers, but at least
    # one row: one row at full chunks.
    step = max(1, CHUNK_SIZE // (m * workers))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


# What gumbel_sample reads of a stream: a generator.
_Lane = namedtuple("_Lane", "rng")


def _ahead(sub: SeededStream, floats: int):
    """sub itself at floats = 0, else a lane on a copy of sub's generator
    advanced by floats outputs (one per uniform), sub left where it is."""
    if not floats:
        return sub
    bits = copy.copy(sub.rng.bit_generator)
    bits.advance(floats)
    return _Lane(np.random.Generator(bits))


def _factor_rows(tree: Arborescence, cols=None):
    """Each leaf's parent-nest row (in leaf preorder) and rows(sub, m):
    it draws eta_n = lambda_n * log Z_n from sub for the nests with
    lambda_n < 1 in preorder and returns the (nests x m) prefix sums of
    Lambda_n * log Z_n, each taken as Lambda_parent * eta_n.

    Given leaf columns cols, only the rows of the nests on their parents'
    root paths are computed, the same bits as in the full rows; every
    factor is still drawn, in the same order, and the other rows are left
    unfinished.

    Given workers and a fan (see montecarlo.run_chunked), each worker
    takes the next factor block under a lock and draws it there, so the
    blocks take the stream in row order; Kanter's arithmetic runs after
    the lock is released, and a row's bits do not depend on its block.
    The prefix sums stay on the calling thread."""
    n, up = len(tree.nests), tree.up
    lam = np.array([tree.lam[nest] for nest in tree.nests])
    factors = np.flatnonzero(lam < 1.0)  # rows of the nests that draw a factor
    lam, big_lam = lam[factors], np.array(tree.scale)[np.array(up)[factors], None]
    keep, sums = None, range(1, n)
    if cols is not None:
        need = [False] * n
        for i in {up[n + c] for c in cols.tolist()}:
            while i >= 0 and not need[i]:
                need[i], i = True, up[i]
        if not all(need):
            keep, sums = np.array(need)[factors], [i for i in sums if need[i]]

    def rows(sub: SeededStream, m: int, workers: int = 1, fan=map) -> np.ndarray:
        acc = np.zeros((n, m))
        todo, lock = iter(_blocks(len(factors), m, workers)), threading.Lock()

        def work(_) -> None:
            while True:
                with lock:
                    b = next(todo, None)
                    if b is None:
                        return
                    h, e = _kanter_draws(sub.rng, len(factors[b]), m)
                kept = b
                if keep is not None:
                    kept, h, e = b.start + np.flatnonzero(keep[b]), h[keep[b]], e[keep[b]]
                eta = _kanter_eta(lam[kept], h, e)
                eta *= big_lam[kept]
                acc[factors[kept]] = eta

        list(fan(work, range(workers)))
        # Non-root nests in preorder: every parent row is complete before
        # a child adds it in.
        for i in sums:
            acc[i] += acc[up[i]]
        return acc

    return list(up[n:]), rows


def _leaf_column(model: ModelSpec, values) -> np.ndarray:
    # values[leaf] in column order, shaped to broadcast over a block's draws
    return np.array([values[leaf] for leaf in model.tree.leaves], dtype=float)[:, None]


class _Columns:
    """Reducer of the leaf columns wanted (repeats allowed): store has a
    row over the draws per distinct column, rows a view per wanted one."""

    def __init__(self, wanted, n_draws: int):
        self.wanted, self.cols = wanted, np.array(sorted(set(wanted)), dtype=np.intp)
        self.store = np.empty((len(self.cols), n_draws))

    @property
    def rows(self) -> list:
        return [self.store[i] for i in np.searchsorted(self.cols, self.wanted)]

    def part(self, start: int, stop: int, first: bool) -> np.ndarray:
        return self.store[:, start:stop]

    def block(self, part: np.ndarray, b: slice, eps: np.ndarray) -> None:
        lo, hi = np.searchsorted(self.cols, (b.start, b.stop))
        part[lo:hi] = eps[self.cols[lo:hi] - b.start]

    def close(self, parts: list) -> None:
        pass  # the ranges wrote disjoint rows in place


class _Hits:
    """Reducer of hit flags: flags[k] stays True while eps <= bounds[k]
    (bound vectors x leaves x 1). Ranges merge by AND."""

    cols = None

    def __init__(self, bounds: np.ndarray, n_draws: int):
        self.bounds, self.flags = bounds, np.ones((len(bounds), n_draws), dtype=bool)

    def part(self, start: int, stop: int, first: bool) -> np.ndarray:
        return self.flags[:, start:stop] if first else np.ones((len(self.bounds), stop - start), dtype=bool)

    def block(self, hit: np.ndarray, b: slice, eps: np.ndarray) -> None:
        hit &= np.all(eps <= self.bounds[:, b], axis=1)

    def close(self, parts: list) -> None:
        np.logical_and.reduce(parts, out=parts[0])


class _Best:
    """Reducer of total, max_j (u_j + eps_j) per draw for the utility column
    u, and counts, each column's wins (ties to the earliest, as in argmax).
    It adds u to eps in place, so it goes last."""

    cols = None

    def __init__(self, u: np.ndarray, n_draws: int):
        self.u, self.total, self.wins = u, np.full(n_draws, -np.inf), []

    @property
    def counts(self) -> np.ndarray:
        return sum(self.wins, np.zeros(len(self.u), dtype=np.intp))

    def part(self, start: int, stop: int, first: bool) -> tuple:
        return (self.total[start:stop] if first else np.full(stop - start, -np.inf)), np.zeros(stop - start, np.intp)

    def block(self, part: tuple, b: slice, eps: np.ndarray) -> None:
        top, won = part
        eps += self.u[b]
        # Strict, so the earliest column keeps a tie across blocks. Columns
        # only grow from block to block, so a draw the block improves takes
        # its winner from this block.
        if len(eps) == 1:  # few leaves at full chunks
            block_top = eps[0]
            np.maximum(won, (block_top > top) * b.start, out=won)
        else:
            # argmax (the first maximum) only over the draws the block
            # improves, a shrinking share once the best settles
            block_top = eps.max(axis=0)
            idx = np.flatnonzero(block_top > top)
            won[idx] = eps[:, idx].argmax(axis=0) + b.start
        np.maximum(top, block_top, out=top)

    def close(self, parts: list) -> None:
        (top, won), *later = parts
        for top_r, won_r in later:
            np.copyto(won, won_r, where=top_r > top)
            np.maximum(top, top_r, out=top)
        self.wins.append(np.bincount(won, minlength=len(self.u)))  # chunks in any order: integer sums commute


def _fold(model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int, makers: list) -> list:
    """The one run_chunked kernel that draws leaf noise: it makes each
    reducer as maker(n_draws), folds every leaf block into all of them in
    turn and returns them. A reducer has cols, the sorted leaf columns it
    reads (None: all); part(start, stop, first), what one range of a
    chunk's blocks folds into (the first range's may be the run's own
    arrays); block(part, b, eps) for the block eps of columns b (leaves x
    draws); and close(parts), which merges a chunk's parts in block order.

    Per chunk (of _chunk_size draws) it draws the factor rows of
    _factor_rows, then the leaf Gumbels in _blocks of leaves in column
    order: Lambda_leaf * eps'_j plus the leaf's parent-nest row. The read
    plan (subset or full) is the union of the reducers' cols; the blocks
    go in one contiguous range per worker (module docstring).
    """
    if n_draws < 0:
        raise DomainError("n_draws must be nonnegative")
    reducers = [make(n_draws) for make in makers]  # everything per draw, before any draw
    tree = model.tree
    coeffs = np.array(tree.scale[len(tree.nests):])[:, None]
    # Sorted, repeats and all: np.unique would import numpy.ma, 10-20 ms at its first call.
    wanted = [r.cols for r in reducers]
    cols = None if any(c is None for c in wanted) else np.sort(np.concatenate(wanted))
    subset = cols is not None and np.count_nonzero(np.diff(cols, prepend=-1)) < len(coeffs)  # distinct ones
    parent_rows, rows = _factor_rows(tree, cols if subset else None)

    def kernel(sub: SeededStream, start: int, stop: int, workers: int, fan) -> None:
        m = stop - start
        acc = rows(sub, m, workers, fan)
        blocks = _blocks(len(coeffs), m, workers)
        cuts = [len(blocks) * w // workers for w in range(workers + 1)]
        # Made before any range draws: each lane starts where its first block's uniforms do.
        ranges = [(_ahead(sub, blocks[lo].start * m), blocks[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]

        def fold(lane_blocks):
            lane, mine = lane_blocks
            parts = [r.part(start, stop, lane is sub) for r in reducers]
            for b in mine:
                if subset:
                    lo, hi = np.searchsorted(cols, (b.start, b.stop))
                    if lo == hi:
                        if lo == len(cols):
                            break  # nothing reads the substream after the last column
                        lane.rng.bit_generator.advance(coeffs[b].size * m)  # the block's uniforms
                        continue
                eps = gumbel_sample(lane, size=coeffs[b].size * m).reshape(-1, m)
                eps *= coeffs[b]
                eps += acc[parent_rows[b]]
                for r, part in zip(reducers, parts):
                    r.block(part, b, eps)
                del eps  # free the block before the next one is drawn
            return parts

        for r, parts in zip(reducers, zip(*fan(fold, ranges))):
            r.close(parts)

    run_chunked(stream, n_draws, kernel, n_threads=n_threads, chunk_size=_chunk_size(tree), split=True)
    return reducers


def sample_epsilon(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> SampleBatch:
    """Draw n_draws joint realizations of the noise vector.

    Columns follow the tree's leaf preorder. Within a chunk the factors
    log Z_n are drawn first (nests in preorder, lambda < 1 only), then the
    leaf Gumbels in column order, so the layout of randomness is a pure
    function of (stream key, model, n_draws).

    A leaf column is Lambda_leaf * eps'_j plus its parent nest's row of
    _factor_rows. Memory is O(chunk x nests) plus the output matrix.
    """
    leaves = model.tree.leaves
    (columns,) = _fold(model, stream, n_draws, n_threads, [partial(_Columns, range(len(leaves)))])
    return SampleBatch(draws=columns.store.T, leaf_order=leaves)


def mc_choice_probs(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> dict[str, EstimateWithError]:
    """Choice probabilities by argmax frequency over simulated draws.

    Each estimate carries the binomial standard error
    sqrt(p*(1 - p)/n_draws). Ties go to the earliest leaf in column order
    (they occur with probability zero under the continuous noise). Only
    each draw's best total is kept, and each chunk's win counts.
    """
    (best,) = _fold(model, stream, n_draws, n_threads, [partial(_Best, _leaf_column(model, model.utilities))])
    return {leaf: binomial_estimate(int(count), n_draws) for leaf, count in zip(model.tree.leaves, best.counts)}


def mc_emax(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> EstimateWithError:
    """Simulated Emax: mean over draws of max_j(U_j + eps_j), minus the
    Euler-Mascheroni constant so the value is directly comparable to
    emax(model) (the marginals are uncentered Gumbel)."""
    (best,) = _fold(model, stream, n_draws, n_threads, [partial(_Best, _leaf_column(model, model.utilities))])
    est = mean_with_error(best.total)
    return EstimateWithError(est.value - EULER_GAMMA, est.std_error, est.n_draws)


def mc_correlation(
    model: ModelSpec,
    stream: SeededStream,
    leaf_a: str,
    leaf_b: str,
    n_draws: int,
    n_threads: int = 1,
) -> EstimateWithError:
    """Empirical Pearson correlation of two leaves' noise columns.

    The exact value is 1 - Lambda_lca^2 for the leaves' lowest common
    ancestor. The standard error is the normal-theory approximation
    (1 - r^2)/sqrt(n - 3). The columns are sample_epsilon's, bit for bit,
    but only the noise they read is folded (see _fold).
    """
    for leaf in (leaf_a, leaf_b):
        require_leaf(model.tree, leaf, "noise columns belong to leaves")
    pair = [model.tree.slot[leaf] - len(model.tree.nests) for leaf in (leaf_a, leaf_b)]
    (columns,) = _fold(model, stream, n_draws, n_threads, [partial(_Columns, pair)])
    return correlation_with_error(*columns.rows)


def mc_cdf(
    model: ModelSpec,
    stream: SeededStream,
    bounds: dict[str, float],
    n_draws: int,
    n_threads: int = 1,
) -> EstimateWithError:
    """Empirical frequency of the event {eps_j <= bounds_j for all j},
    the Monte Carlo counterpart of cdf(model, bounds)."""
    bounds = _leaf_values(model.tree, bounds, "bound")
    (hits,) = _fold(model, stream, n_draws, n_threads, [partial(_Hits, _leaf_column(model, bounds)[None])])
    return binomial_estimate(int(hits.flags.sum()), n_draws)


def mixed_logit_probs(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> dict[str, EstimateWithError]:
    """Choice probabilities as an average of exact softmaxes, on any tree.

    Given the nest factors, leaf j's noise is its parent nest's factor row
    plus a Gumbel of scale Lambda_j. With mu = min_j Lambda_j that Gumbel
    equals mu*log Z'_j + mu*eps'_j for Z'_j ~ P(mu/Lambda_j), so given all
    factors the noise is iid Gumbel of scale mu and each draw yields the
    exact softmax of

        (U_j + sum_t Lambda_t*log Z_t + mu*log Z'_j) / mu

    over the nests t on leaf j's root path. Their average is unbiased at
    any draw count; standard errors are the per-leaf sample std over
    draws / sqrt(n_draws). Within a chunk the nest factors are drawn as in
    sample_epsilon, then the Z'_j in leaf order, skipped where
    Lambda_j = mu (P(1) is the unit mass), each log Z'_j as its eta over
    mu/Lambda_j. Where a Lambda so small
    that the scores overflow leaves an estimate undefined, it raises
    DomainError naming mu.
    """
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    tree = model.tree
    parent_rows, rows = _factor_rows(tree)
    leaf_lam = np.array(tree.scale[len(tree.nests):])
    mu = float(leaf_lam.min())
    u = _leaf_column(model, model.utilities)
    # Shifted by max U, which a softmax ignores, so that U/mu cannot
    # overflow: a leaf so far below the best that its shifted score passes
    # float range scores -inf, and its weight is the exact 0.
    with np.errstate(over="ignore"):
        scaled_u = (u - u.max()) / mu
    equalized = np.flatnonzero(mu < leaf_lam)
    ratios = mu / leaf_lam[equalized]
    # Leaf j's draws are row j, contiguous, so the mean and std over draws
    # below are pairwise sums. Allocated before any draw is made.
    probs = np.empty((len(tree.leaves), n_draws))

    def kernel(sub: SeededStream, start: int, stop: int) -> None:
        m = stop - start
        # Written into the chunk's columns of probs. The rows are valid, and
        # mode "clip" spares the copy of out that "raise" makes. An overflow
        # shows as NaN in the estimates, checked below, so it stays silent
        # (errstate is per thread, hence set in the kernel).
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.take(rows(sub, m), parent_rows, axis=0, out=probs[:, start:stop], mode="clip")
            scores /= mu
            for b in _blocks(len(ratios), m):
                eta = _kanter_log(sub.rng, ratios[b], m)
                eta /= ratios[b, None]
                scores[equalized[b]] += eta
            scores += scaled_u
            scores -= scores.max(axis=0)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=0)

    run_chunked(stream, n_draws, kernel, n_threads=n_threads, chunk_size=_chunk_size(tree))
    estimates = {leaf: mean_with_error(probs[i]) for i, leaf in enumerate(tree.leaves)}
    if any(math.isnan(est.value) for est in estimates.values()):
        raise DomainError(f"mixed logit scores overflow at the model's smallest cumulative Lambda {mu!r}")
    return estimates
