"""Cross-checks between the analytic engine and the simulator.

run_checks() runs the whole battery on one model and reports one
CheckResult per check. Deterministic identities (probability simplex,
hierarchy consistency, the Emax gradient by complex steps) are held to
tight tolerances, the gradient to gradient_tolerance's rounding bound;
Monte Carlo comparisons are scored in standard-error units with a 3-sigma
budget that is not corrected for how many statistics a max |z| takes: on
the correct 1,314-leaf random_model(default_rng(0), max_nodes=2000),
mc-choice-probabilities fails 33 of seeds 0-39 at 1,000 draws (ROADMAP
item 8). The Monte Carlo checks all read one stream of noise, folded
by simulate._fold in one pass: per draw it keeps the best total, a hit
flag per bound vector and only the noise columns the correlation pairs
read, never the draws x leaves matrix, plus the win counts per chunk.
Its pairs come from tree.kids. The complex steps read tree.kids too,
top-down in slot order: one step per node, so a 3,000-nest chain costs
what its 6,003 nodes cost, not its leaves times its depth.

The module imports numpy only inside run_checks, so that grad-check,
which needs only gradient_check, starts without it. gradient_check, like
run_checks, runs one backward pass and shares its slot list with the
forward pass, the complex steps and the tolerance.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import DomainError
from .model import ModelSpec, _backward, _by_slot, _leaf_probs, _log_forward, cdf, forward_probs

TYPE_CHECKING = False  # type checkers read it as True
if TYPE_CHECKING:
    from .streams import SeededStream
    from .tree import Arborescence

__all__ = ["CheckResult", "finite_difference_gradient", "gradient_tolerance", "gradient_check", "run_checks"]

_THETA = 2.0 ** -50  # the imaginary step; 2**-35 to 2**-100 give the same digits above 1e-250


class CheckResult(namedtuple("CheckResult", "name passed observed expected tolerance detail", defaults=("",))):
    """Outcome of one consistency check, an immutable named tuple.

    observed is the check's headline statistic (a deviation or a maximum
    z-score), expected its ideal value, and tolerance the pass threshold;
    passed is observed <= tolerance plus any side conditions noted in
    detail (a string, empty by default).
    """

    __slots__ = ()


def finite_difference_gradient(model: ModelSpec) -> dict[str, float]:
    """Complex-step derivatives of the root Emax in each leaf utility, the
    numerical counterpart of emax_gradient (Squire and Trapp 1998).

    A nest's value is u_n = top + Lambda_n * log sum_k exp(x_k), with
    x_k = (u_k - top)/Lambda_n, so du_n/du_k is the derivative of the
    log-sum in x_k: g_k = Im log(sum - exp(x_k) + exp(x_k + i*theta)) / theta,
    with nothing to cancel. Its truncation error, theta**2/3 relative, is
    far below rounding at theta = 2**-50: there is no step to choose. By
    the chain rule a leaf's derivative is the product of g over its root
    path, multiplied down from the root in slot order, as the forward pass
    adds its logs: one complex step per node after one backward pass,
    O(nodes). Each step is fresh at its own nest and in that nest's units,
    so neither a long path nor a subnormal Lambda can underflow it.
    """
    return _complex_steps(model.tree, _backward(model.tree, _by_slot(model)))


def _complex_steps(tree: Arborescence, v: list[float]) -> dict[str, float]:
    # finite_difference_gradient from u by slot, which run_checks shares.
    # Nests in slot order, every parent before its children, as in
    # _log_forward: grad[nest] is final when its children read it.
    grad, clog, cexp = [1.0] * len(v), cmath.log, cmath.exp
    for nest, (kids, big_lam) in enumerate(zip(tree.kids, tree.scale)):
        top = max(map(v.__getitem__, kids))
        logs = [(v[k] - top) / big_lam for k in kids]
        terms = list(map(math.exp, logs))
        total, base = sum(terms), grad[nest]
        for kid, x, term in zip(kids, logs, terms):
            grad[kid] = base * (clog(total - term + cexp(complex(x, _THETA))).imag / _THETA)
    return dict(zip(tree.leaves, grad[len(tree.kids):]))


def gradient_tolerance(model: ModelSpec) -> float:
    """The largest gap between finite_difference_gradient and choice_probs
    that rounding explains, capped at 1: eps * (height + 1) * max over
    nests n of (|u_n| + Lambda_n + tiny)/Lambda_n, for the double epsilon
    eps and the smallest normal double tiny. A leaf at depth d <= height
    has d levels on its root path, and either side works level by level:
    choice_probs adds the d logs (u_k - u_n)/Lambda_n and exponentiates
    the sum, finite_difference_gradient multiplies the d complex-step
    factors. Each level rounds its (u_k - u_n)/Lambda_n by eps*|u|/Lambda_n,
    or by eps*tiny/Lambda_n where u is subnormal, and its sum or product
    and its log-sum by a few eps, which the Lambda_n/Lambda_n term covers.
    The final exp, or the first factor's own step, is one level more:
    height + 1 relative terms in all, and a probability is at most 1, so
    the bound holds as an absolute gap. 1.7e-15 on the depth-3 demo,
    1.3e-15 on the single-layer one.
    """
    return _tolerance(model.tree, _backward(model.tree, _by_slot(model)))


def _tolerance(tree: Arborescence, v: list[float]) -> float:
    # gradient_tolerance from u by slot, which run_checks shares.
    tiny = sys.float_info.min
    worst = max((abs(u) + big_lam + tiny) / big_lam for u, big_lam in zip(v[:len(tree.kids)], tree.scale))
    return min(sys.float_info.epsilon * (max(tree.depth) + 1) * worst, 1.0)


def _gradient_gap(tree: Arborescence, v: list[float]) -> tuple:
    # From u by slot: choice_probs and finite_difference_gradient by leaf,
    # their largest gap and gradient_tolerance. gradient_check and
    # run_checks both compare the two through it.
    analytic, numeric = _leaf_probs(tree, v), _complex_steps(tree, v)
    gap = max(abs(analytic[leaf] - numeric[leaf]) for leaf in tree.leaves)
    return analytic, numeric, gap, _tolerance(tree, v)


def gradient_check(model: ModelSpec) -> dict:
    """choice_probs against finite_difference_gradient from one backward
    pass: both by leaf, their largest gap, gradient_tolerance, and whether
    the gap is within it. The report of the grad-check command."""
    analytic, numeric, gap, tolerance = _gradient_gap(model.tree, _backward(model.tree, _by_slot(model)))
    return {
        "analytic": analytic,
        "finite_difference": numeric,
        "max_abs_diff": gap,
        "tolerance": tolerance,
        "passed": gap <= tolerance,
    }


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
    tree, v = model.tree, _backward(model.tree, _by_slot(model))
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

    gap, tolerance = _gradient_gap(tree, v)[2:]
    results.append(_within("emax-gradient-is-choice-probability", gap, tolerance))

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
    store, hits, _, counts = _fold(model, stream.child(1), n_draws, n_threads, utilities, bounds, cols)

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
