"""Cross-checks between the analytic engine and the simulator.

run_checks() runs the whole battery on one model and reports one
CheckResult per check. Deterministic identities (probability simplex,
hierarchy consistency, the Emax gradient) are held to tight tolerances;
Monte Carlo comparisons are scored in standard-error units with a 3-sigma
budget, so a failing check is either a real defect or a ~0.3% unlucky
seed, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, backward_utils, cdf, choice_probs, emax, emax_gradient, forward_probs, log_odds, with_utilities
from .montecarlo import EstimateWithError
from .simulate import mc_cdf, mc_choice_probs, mc_correlation
from .streams import SeededStream
from .tree import lca

__all__ = ["CheckResult", "finite_difference_gradient", "run_checks"]

FD_STEP = 1e-5


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
    numerical counterpart of emax_gradient."""
    grad = {}
    for leaf in model.tree.leaves:
        base = model.utilities[leaf]
        up = emax(with_utilities(model, {leaf: base + step}))
        down = emax(with_utilities(model, {leaf: base - step}))
        grad[leaf] = (up - down) / (2.0 * step)
    return grad


# Older name, still looked up by bench/spans.py.
_finite_difference_gradient = finite_difference_gradient


def _proportion_z(est: EstimateWithError, target: float) -> float:
    # z-score under the null standard error sqrt(p(1-p)/n) of the analytic
    # proportion, which stays meaningful when the empirical count is 0.
    se = float(np.sqrt(max(target * (1.0 - target), 0.0) / est.n_draws))
    return abs(est.value - target) / max(se, 1e-300)


def run_checks(
    model: ModelSpec,
    stream: SeededStream,
    n_draws: int = 100_000,
    n_threads: int = 1,
) -> list[CheckResult]:
    """Run every analytic/simulation consistency check on one model."""
    results: list[CheckResult] = []
    tree = model.tree
    u = backward_utils(model)
    pi = forward_probs(model, u)
    leaf_probs = choice_probs(model)

    # --- deterministic identities -------------------------------------
    total = sum(leaf_probs.values())
    # A leaf probability of exactly 0.0 is legitimate underflow when its
    # log probability (path sum of log odds, computed without exponentials)
    # sits below what a double can represent; anything else must be > 0.
    positive = True
    for leaf in tree.leaves:
        if leaf_probs[leaf] > 0.0:
            continue
        log_pi = 0.0
        node = leaf
        while node != tree.root:
            log_pi += log_odds(model, node, u=u)
            node = tree.parent[node]
        if not (leaf_probs[leaf] == 0.0 and log_pi < -700.0):
            positive = False
    results.append(
        CheckResult(
            name="leaf-probability-simplex",
            passed=abs(total - 1.0) <= 1e-12 and positive,
            observed=abs(total - 1.0),
            expected=0.0,
            tolerance=1e-12,
            detail="" if positive else "a leaf probability is not strictly positive",
        )
    )

    worst = 0.0
    for nest in tree.nests:
        mass = sum(pi[kid] for kid in tree.children[nest])
        worst = max(worst, abs(mass - pi[nest]))
    results.append(
        CheckResult(
            name="hierarchy-consistency",
            passed=worst <= 1e-12,
            observed=worst,
            expected=0.0,
            tolerance=1e-12,
        )
    )

    fd = finite_difference_gradient(model, FD_STEP)
    grad = emax_gradient(model)
    gap = max(abs(grad[leaf] - fd[leaf]) for leaf in tree.leaves)
    results.append(
        CheckResult(
            name="emax-gradient-is-choice-probability",
            passed=gap <= 1e-6,
            observed=gap,
            expected=0.0,
            tolerance=1e-6,
        )
    )

    # --- Monte Carlo comparisons, 3 standard errors each ---------------
    mc = mc_choice_probs(model, stream.child(1), n_draws, n_threads=n_threads)
    z = max(_proportion_z(mc[leaf], leaf_probs[leaf]) for leaf in tree.leaves)
    results.append(
        CheckResult(
            name="mc-choice-probabilities",
            passed=z <= 3.0,
            observed=z,
            expected=0.0,
            tolerance=3.0,
            detail=f"max z-score over {len(tree.leaves)} leaves at {n_draws} draws",
        )
    )

    pair_gap = 0.0
    pairs = [
        (a, b)
        for i, a in enumerate(tree.leaves)
        for b in tree.leaves[i + 1 :]
    ]
    # Cap the quadratic pair sweep on wide trees; the leading pairs cover
    # every distinct lca depth in practice.
    for k, (a, b) in enumerate(pairs[:15]):
        est = mc_correlation(model, stream.child(2 + k), a, b, n_draws, n_threads=n_threads)
        exact = 1.0 - model.metrics.big_lambda[lca(tree, a, b)] ** 2
        pair_gap = max(pair_gap, abs(est.value - exact))
    results.append(
        CheckResult(
            name="lca-correlations",
            passed=pair_gap <= 0.01,
            observed=pair_gap,
            expected=0.0,
            tolerance=0.01,
            detail=f"max |empirical - (1 - Lambda_lca^2)| over {min(len(pairs), 15)} pairs",
        )
    )

    grid = [
        {leaf: 0.0 for leaf in tree.leaves},
        {leaf: 1.0 for leaf in tree.leaves},
        {leaf: -0.5 for leaf in tree.leaves},
        {leaf: 2.0 for leaf in tree.leaves},
        {leaf: 0.25 * (i % 5) - 0.5 for i, leaf in enumerate(tree.leaves)},
    ]
    z_cdf = 0.0
    for k, bounds in enumerate(grid):
        est = mc_cdf(model, stream.child(50 + k), bounds, n_draws, n_threads=n_threads)
        z_cdf = max(z_cdf, _proportion_z(est, cdf(model, bounds)))
    results.append(
        CheckResult(
            name="joint-cdf",
            passed=z_cdf <= 3.0,
            observed=z_cdf,
            expected=0.0,
            tolerance=3.0,
            detail=f"max z-score over {len(grid)} bound vectors at {n_draws} draws",
        )
    )

    return results
