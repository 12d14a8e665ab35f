"""Cross-checks between the analytic engine and the simulator.

run_checks() runs the whole battery on one model and reports one
CheckResult per check. Deterministic identities (probability simplex,
hierarchy consistency, the Emax gradient) are held to tight tolerances;
Monte Carlo comparisons are scored in standard-error units with a 3-sigma
budget that is not corrected for how many statistics a max |z| takes: on
the correct 1,314-leaf random_model(default_rng(0), max_nodes=2000),
mc-choice-probabilities fails 33 of seeds 0-39 at 1,000 draws (ROADMAP
item 8). The Monte Carlo checks all read one stream of noise, folded
by simulate._fold in one pass: per draw it keeps the best total, a hit
flag per bound vector and only the noise columns the correlation pairs
read, never the draws x leaves matrix, plus the win counts per chunk.
Its pairs, like the finite differences' parent table, come from tree.kids.

The module imports numpy only inside run_checks, so that grad-check,
which needs only finite_difference_gradient, starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import ModelSpec, _backward, _finite_values, _log_forward, cdf, forward_probs, log_sum_exp

if TYPE_CHECKING:
    from .streams import SeededStream

__all__ = ["CheckResult", "finite_difference_gradient", "run_checks"]

FD_STEP, FD_TOL = 1e-5, 1e-6  # central-difference step and gap; grad-check's defaults too


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one consistency check.

    observed is the check's headline statistic (a deviation or a maximum
    z-score), expected its ideal value, and tolerance the pass threshold;
    passed is observed <= tolerance plus any side conditions noted in
    detail.
    """

    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""


def finite_difference_gradient(model: ModelSpec, step: float) -> dict[str, float]:
    """Central differences of the root Emax in each leaf utility, the
    numerical counterpart of emax_gradient.

    After one backward pass, each quotient re-evaluates only the nests on
    the leaf's root path, reusing their other children's inclusive values:
    O(depth x siblings) per quotient, not O(nodes). Each nest's max and
    terms exp((u_k - top)/Lambda) are computed once; where the walked
    child's new value leaves log_sum_exp's max in place, only its own term
    is recomputed and the same list is summed, else the nest goes through
    log_sum_exp. Either way every quotient is bit for bit the one a
    rebuilt model at base +- step would give. A step that u +- step
    rounds away raises DomainError, naming the leaf.
    """
    return _differences(model, _backward(model), step)


def _differences(model: ModelSpec, v: list[float], step: float) -> dict[str, float]:
    # finite_difference_gradient from u by slot, which run_checks shares.
    # Per slot below the root: its parent's slot, its place among the
    # parent's children, and the parent's max, how many children hold it,
    # the children's values, the terms log_sum_exp sums over them, and Lambda.
    tree, above = model.tree, {}
    for nest, (kids, big_lam) in enumerate(zip(tree.kids, tree.scale)):
        values = [v[k] for k in kids]
        top = max(values)
        shared = (top, values.count(top), values, [math.exp((x - top) / big_lam) for x in values], big_lam)
        above.update((kid, (nest, i, *shared)) for i, kid in enumerate(kids))
    grad = {}
    for slot, leaf in enumerate(tree.leaves, len(tree.kids)):
        ends = []
        for value in (v[slot] + step, v[slot] - step):
            node, value = slot, _finite_values({leaf: value}, "utility")[leaf]
            if value == v[slot]:
                raise DomainError(f"step {step!r} is lost in the utility {v[slot]!r} of leaf {leaf!r}")
            while node:  # the root is slot 0
                node, i, top, n_top, values, terms, big_lam = above[node]
                # Both branches edit the parent's lists in place and restore
                # them. max() keeps top when value equals it, or when value is
                # below it and a sibling still holds it.
                if value == top or (value < top and n_top > (values[i] == top)):
                    old, terms[i] = terms[i], math.exp((value - top) / big_lam)
                    value = top + big_lam * math.log(sum(terms))
                    terms[i] = old
                else:
                    old, values[i] = values[i], value
                    value = log_sum_exp(values, big_lam)
                    values[i] = old
            ends.append(value)
        grad[leaf] = (ends[0] - ends[1]) / (2.0 * step)
    return grad


# Older name, still looked up by bench/spans.py.
_finite_difference_gradient = finite_difference_gradient


def _within(name: str, observed: float, tolerance: float, detail: str = "", ok: bool = True) -> CheckResult:
    # Every check passes when its statistic is within tolerance of 0 (and ok).
    return CheckResult(name, ok and observed <= tolerance, observed, 0.0, tolerance, detail)


def _proportion_z(count: int, n_draws: int, target: float) -> float:
    # z-score of count/n_draws under the null standard error sqrt(p(1-p)/n)
    # of the analytic proportion, which stays meaningful when the count is 0.
    se = math.sqrt(max(target * (1.0 - target), 0.0) / n_draws)
    return abs(count / n_draws - target) / max(se, 1e-300)


def run_checks(
    model: ModelSpec,
    stream: SeededStream,
    n_draws: int = 100_000,
    n_threads: int = 1,
) -> list[CheckResult]:
    """Run every analytic/simulation consistency check on one model; the
    Monte Carlo ones share n_draws >= 4 noise vectors from stream.child(1)."""
    import numpy as np

    from .montecarlo import correlation_with_error
    from .simulate import _fold, _leaf_column

    if n_draws < 4:
        raise DomainError("correlation needs at least 4 draws")
    results: list[CheckResult] = []
    tree, v = model.tree, _backward(model)
    pi = forward_probs(model, dict(zip(tree.nests + tree.leaves, v)))
    leaf_probs = {leaf: pi[leaf] for leaf in tree.leaves}

    # --- deterministic identities -------------------------------------
    total = sum(leaf_probs.values())
    # A leaf probability of exactly 0.0 is legitimate underflow when its
    # log probability (the forward pass before it is exponentiated) sits
    # below what a double can represent; anything else must be > 0.
    log_pi = _log_forward(tree, v)[len(tree.kids):]
    positive = all(p > 0.0 or (p == 0.0 and lp < -700.0) for p, lp in zip(leaf_probs.values(), log_pi))
    detail = "" if positive else "a leaf probability is not strictly positive"
    results.append(_within("leaf-probability-simplex", abs(total - 1.0), 1e-12, detail, ok=positive))

    worst = max(abs(sum(pi[kid] for kid in tree.children[nest]) - pi[nest]) for nest in tree.nests)
    results.append(_within("hierarchy-consistency", worst, 1e-12))

    fd = _differences(model, v, FD_STEP)
    gap = max(abs(leaf_probs[leaf] - fd[leaf]) for leaf in tree.leaves)
    results.append(_within("emax-gradient-is-choice-probability", gap, FD_TOL))

    # --- Monte Carlo comparisons on one stream of noise ----------------
    # One pair per nest with two or more children: the first leaves under
    # its first two children, whose lowest common ancestor is the nest.
    # first[s] is the noise column of slot s's first leaf (leaf slot - N).
    first = [0] * len(tree.kids) + list(range(len(tree.leaves)))
    for nest in reversed(range(len(tree.kids))):
        first[nest] = first[tree.kids[nest][0]]
    pairs = [(tree.scale[nest], first[kids[0]], first[kids[1]])
             for nest, kids in enumerate(tree.kids) if len(kids) >= 2]
    cols = np.unique(np.array([col for _, *pair in pairs for col in pair], dtype=np.intp))
    grid = [
        {leaf: 0.0 for leaf in tree.leaves},
        {leaf: 1.0 for leaf in tree.leaves},
        {leaf: -0.5 for leaf in tree.leaves},
        {leaf: 2.0 for leaf in tree.leaves},
        {leaf: 0.25 * (i % 5) - 0.5 for i, leaf in enumerate(tree.leaves)},
    ]
    bounds = np.stack([_leaf_column(model, a) for a in grid])
    utilities = _leaf_column(model, model.utilities)
    store, hits, _, counts = _fold(model, stream.child(1), n_draws, n_threads, utilities, bounds, cols, wins=True)

    pair_gap = 0.0
    for big_lam, i, j in pairs:
        r = correlation_with_error(store[np.searchsorted(cols, i)], store[np.searchsorted(cols, j)])
        pair_gap = max(pair_gap, abs(r.value - (1.0 - big_lam ** 2)))
    corr_tol = 3.0 / float(np.sqrt(n_draws - 3.0))  # 3 standard errors of r at rho = 0, the widest
    detail = f"max |empirical - (1 - Lambda_lca^2)| over {len(pairs)} pairs, one per nest"
    results.append(_within("lca-correlations", pair_gap, corr_tol, detail))

    z_cdf = max(_proportion_z(int(hit.sum()), n_draws, cdf(model, a)) for hit, a in zip(hits, grid))
    detail = f"max z-score over {len(grid)} bound vectors at {n_draws} draws"
    results.append(_within("joint-cdf", z_cdf, 3.0, detail))

    z = max(_proportion_z(int(counts[i]), n_draws, leaf_probs[leaf]) for i, leaf in enumerate(tree.leaves))
    detail = f"max z-score over {len(tree.leaves)} leaves at {n_draws} draws"
    results.append(_within("mc-choice-probabilities", z, 3.0, detail))

    return results
