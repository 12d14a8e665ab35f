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
sum down the tree: one array operation per node, O(chunk x nests) memory.

Generation is chunked with one substream per fixed-size chunk, so a batch
is bit-identical no matter how many worker threads produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, gumbel_sample, stable_log_sample
from .errors import DomainError
from .model import ModelSpec, cdf, choice_probs
from .montecarlo import (
    EstimateWithError,
    binomial_estimate,
    correlation_with_error,
    mean_with_error,
    run_chunked,
)
from .streams import SeededStream
from .tree import require_two_level

__all__ = [
    "SampleBatch",
    "sample_epsilon",
    "mc_choice_probs",
    "mc_emax",
    "mc_correlation",
    "mc_cdf",
    "mixed_logit_probs",
]


@dataclass(frozen=True)
class SampleBatch:
    """Matrix of noise draws, one row per draw, one column per leaf."""

    draws: np.ndarray
    leaf_order: tuple[str, ...]
    seed: int
    stream_index: int
    n_draws: int

    def column(self, leaf: str) -> np.ndarray:
        return self.draws[:, self.leaf_order.index(leaf)]


def sample_epsilon(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> SampleBatch:
    """Draw n_draws joint realizations of the noise vector.

    Columns follow the tree's leaf preorder. Within a chunk the factors
    log Z_n are drawn first (nests in preorder, lambda < 1 only), then the
    leaf Gumbels in column order, so the layout of randomness is a pure
    function of (seed, stream_index, model, n_draws).

    A chunk's (nests x chunk) buffer takes Lambda_n * log Z_n in the rows
    of factor nests, then each nest adds its parent's row in preorder; a
    leaf column is Lambda_leaf * eps'_j plus its parent nest's row. Memory
    is O(chunk x nests) plus the output matrix.
    """
    if n_draws < 0:
        raise DomainError("n_draws must be nonnegative")
    tree, met = model.tree, model.metrics
    leaf_order = tree.leaves
    row = {n: i for i, n in enumerate(tree.nests)}
    factors = [(row[n], tree.lam[n], met.big_lambda[n]) for n in tree.nests if tree.lam[n] < 1.0]
    # Non-root nests in preorder with their parent's row: every parent row
    # is complete before a child adds it in.
    links = [(row[n], row[tree.parent[n]]) for n in tree.nests[1:]]
    leaf_terms = [(met.big_lambda[leaf], row[tree.parent[leaf]]) for leaf in leaf_order]

    out = np.empty((n_draws, len(leaf_order)))

    def kernel(sub: SeededStream, start: int, stop: int) -> None:
        m = stop - start
        acc = np.zeros((len(tree.nests), m))
        for i, lam, big_lam in factors:
            acc[i] = big_lam * stable_log_sample(sub, lam, size=m)
        for i, parent in links:
            acc[i] += acc[parent]
        block = out[start:stop]
        for col, (coeff, parent) in enumerate(leaf_terms):
            block[:, col] = coeff * gumbel_sample(sub, size=m) + acc[parent]

    run_chunked(stream, n_draws, kernel, n_threads=n_threads)
    return SampleBatch(
        draws=out,
        leaf_order=leaf_order,
        seed=stream.seed,
        stream_index=stream.stream_index,
        n_draws=n_draws,
    )


def _totals(model: ModelSpec, batch: SampleBatch) -> np.ndarray:
    u = np.array([model.utilities[leaf] for leaf in batch.leaf_order])
    return batch.draws + u


def mc_choice_probs(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> dict[str, EstimateWithError]:
    """Choice probabilities by argmax frequency over simulated draws.

    Each estimate carries the binomial standard error
    sqrt(p*(1 - p)/n_draws). Ties go to the earliest leaf in column order
    (they occur with probability zero under the continuous noise).
    """
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    batch = sample_epsilon(model, stream, n_draws, n_threads=n_threads)
    winners = np.argmax(_totals(model, batch), axis=1)
    counts = np.bincount(winners, minlength=len(batch.leaf_order))
    return {
        leaf: binomial_estimate(int(counts[i]), n_draws)
        for i, leaf in enumerate(batch.leaf_order)
    }


def mc_emax(
    model: ModelSpec, stream: SeededStream, n_draws: int, n_threads: int = 1
) -> EstimateWithError:
    """Simulated Emax: mean over draws of max_j(U_j + eps_j), minus the
    Euler-Mascheroni constant so the value is directly comparable to
    emax(model) (the marginals are uncentered Gumbel)."""
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    batch = sample_epsilon(model, stream, n_draws, n_threads=n_threads)
    best = _totals(model, batch).max(axis=1)
    est = mean_with_error(best)
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
    (1 - r^2)/sqrt(n - 3).
    """
    if n_draws < 4:
        raise DomainError("correlation needs at least 4 draws")
    batch = sample_epsilon(model, stream, n_draws, n_threads=n_threads)
    return correlation_with_error(batch.column(leaf_a), batch.column(leaf_b))


def mc_cdf(
    model: ModelSpec,
    stream: SeededStream,
    bounds: dict[str, float],
    n_draws: int,
    n_threads: int = 1,
) -> EstimateWithError:
    """Empirical frequency of the event {eps_j <= bounds_j for all j},
    the Monte Carlo counterpart of cdf(model, bounds)."""
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    cdf(model, bounds)  # validates the bounds map against the leaf set
    batch = sample_epsilon(model, stream, n_draws, n_threads=n_threads)
    a = np.array([bounds[leaf] for leaf in batch.leaf_order])
    hits = int(np.all(batch.draws <= a, axis=1).sum())
    return binomial_estimate(hits, n_draws)


def mixed_logit_probs(
    model: ModelSpec, stream: SeededStream, n_draws: int
) -> dict[str, EstimateWithError]:
    """Mixed logit simulation of single-layer choice probabilities.

    Conditional on the nest factors Z_n the leaf noises are Gumbel with
    nest-specific scales lambda_n, which is a plain logit only when every
    nest shares one lambda. To get a softmax kernel in general, each
    leaf's noise is split once more: with mu = min_n lambda_n, a Gumbel of
    scale lambda_n equals mu*log Z'_j + mu*eps'_j for Z'_j ~ P(mu/lambda_n)
    drawn per leaf. Conditional on all factors the noise is then iid
    Gumbel of scale mu, so each draw yields the exact softmax of

        (U_j + lambda_n*log Z_n + mu*log Z'_j) / mu

    and the estimate is the average of these probability vectors: unbiased
    for the analytic probabilities at any draw count, and a single draw is
    already a valid probability vector. When all lambda_n coincide the
    leaf factors are degenerate (P(1) is the unit mass) and the kernel
    reduces to softmax(U_j/lambda + log Z_n) per draw. Standard errors are
    the per-leaf sample std over draws / sqrt(n_draws).

    Only two-level trees (root -> nests -> leaves) admit this kernel;
    deeper trees raise ShapeError.
    """
    if n_draws <= 0:
        raise DomainError("n_draws must be positive")
    tree = model.tree
    nests = require_two_level(tree)

    leaf_order = tree.leaves
    leaf_nest_idx = np.array(
        [list(nests).index(tree.parent[leaf]) for leaf in leaf_order]
    )
    mu = min(tree.lam[nest] for nest in nests)
    scaled_u = np.array([model.utilities[leaf] / mu for leaf in leaf_order])

    # Nest factors first, then leaf factors, each skipped when degenerate,
    # so the randomness layout is a fixed function of the model.
    log_z = np.zeros((n_draws, len(nests)))
    for i, nest in enumerate(nests):
        if tree.lam[nest] < 1.0:
            log_z[:, i] = stable_log_sample(stream, tree.lam[nest], size=n_draws)
    leaf_log_z = np.zeros((n_draws, len(leaf_order)))
    for j, leaf in enumerate(leaf_order):
        lam = tree.lam[tree.parent[leaf]]
        if mu < lam:
            leaf_log_z[:, j] = stable_log_sample(stream, mu / lam, size=n_draws)

    nest_scale = np.array([tree.lam[nest] / mu for nest in nests])
    scores = nest_scale[leaf_nest_idx] * log_z[:, leaf_nest_idx] + leaf_log_z + scaled_u
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    probs = weights / weights.sum(axis=1, keepdims=True)

    mean = probs.mean(axis=0)
    if n_draws > 1:
        err = probs.std(axis=0, ddof=1) / np.sqrt(n_draws)
    else:
        err = np.zeros(len(leaf_order))
    return {
        leaf: EstimateWithError(float(mean[i]), float(err[i]), n_draws)
        for i, leaf in enumerate(leaf_order)
    }
