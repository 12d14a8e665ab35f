"""Factor-representation simulator against the analytic engine.

Monte Carlo assertions here run at 1e5-2e5 draws with a 3.5-sigma budget
(fixed seeds, so failures are deterministic); the acceptance suite repeats
the headline comparisons at 10^6 draws.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from nestlogit import (
    DomainError,
    SeededStream,
    ShapeError,
    backward_utils,
    build,
    cdf,
    choice_probs,
    emax,
    make_model,
    mc_cdf,
    mc_choice_probs,
    mc_correlation,
    mc_emax,
    mixed_logit_probs,
    random_model,
    sample_epsilon,
)
from nestlogit.distributions import gumbel_sample, stable_log_sample
from nestlogit.montecarlo import CHUNK_SIZE

KS_1PCT = 1.63


def test_sample_batch_layout(depth3_model):
    batch = sample_epsilon(depth3_model, SeededStream(21, stream_index=3), 500)
    assert batch.draws.shape == (500, 4)
    assert batch.leaf_order == depth3_model.tree.leaves
    assert (batch.seed, batch.stream_index, batch.n_draws) == (21, 3, 500)
    assert_array_equal(batch.column("leaf2"), batch.draws[:, 2])


def test_sample_zero_draws(depth3_model):
    batch = sample_epsilon(depth3_model, SeededStream(0), 0)
    assert batch.draws.shape == (0, 4)


def test_sample_determinism_across_threads(depth3_model):
    serial = sample_epsilon(depth3_model, SeededStream(9), 200_000, n_threads=1)
    threaded = sample_epsilon(depth3_model, SeededStream(9), 200_000, n_threads=4)
    assert_array_equal(serial.draws, threaded.draws)


def test_sample_repeatable(depth3_model):
    a = sample_epsilon(depth3_model, SeededStream(33), 1000)
    b = sample_epsilon(depth3_model, SeededStream(33), 1000)
    assert_array_equal(a.draws, b.draws)
    c = sample_epsilon(depth3_model, SeededStream(34), 1000)
    assert not np.array_equal(a.draws, c.draws)


def path_sum_reference(model, stream, n_draws):
    """The representation written out leaf by leaf: each leaf sums
    Lambda_t * log Z_t over the factor nests on its root path, read from
    the same per-chunk substreams in the same order as sample_epsilon."""
    tree, met = model.tree, model.metrics
    factor_nests = [n for n in tree.nests if tree.lam[n] < 1.0]
    out = np.empty((n_draws, len(tree.leaves)))
    for i, start in enumerate(range(0, n_draws, CHUNK_SIZE)):
        stop = min(start + CHUNK_SIZE, n_draws)
        sub = stream.child(i)
        log_z = {n: stable_log_sample(sub, tree.lam[n], size=stop - start) for n in factor_nests}
        for col, leaf in enumerate(tree.leaves):
            eps = met.big_lambda[leaf] * gumbel_sample(sub, size=stop - start)
            nest = tree.parent[leaf]
            while nest != tree.root:
                if nest in log_z:
                    eps = eps + met.big_lambda[nest] * log_z[nest]
                nest = tree.parent[nest]
            out[start:stop, col] = eps
    return out


@pytest.mark.parametrize("seed", range(8))
def test_sample_matches_path_sum_random_trees(seed):
    model = random_model(np.random.default_rng(seed), max_nodes=80)
    batch = sample_epsilon(model, SeededStream(seed), 300)
    assert_allclose(batch.draws, path_sum_reference(model, SeededStream(seed), 300), rtol=0, atol=1e-12)


def test_sample_matches_path_sum_across_chunks(depth3_model):
    n = CHUNK_SIZE + 50
    batch = sample_epsilon(depth3_model, SeededStream(5), n, n_threads=2)
    assert_allclose(batch.draws, path_sum_reference(depth3_model, SeededStream(5), n), rtol=0, atol=1e-12)


def test_sample_matches_path_sum_deep_chain():
    depth = 500
    children = {"root": ("n1", "x0")}
    for i in range(1, depth):
        children[f"n{i}"] = (f"n{i + 1}", f"x{i}")
    children[f"n{depth}"] = (f"x{depth}", f"y{depth}")
    tree = build("root", children, {f"n{i}": 0.999 for i in range(1, depth + 1)})
    model = make_model(tree, {leaf: 0.0 for leaf in tree.leaves})
    batch = sample_epsilon(model, SeededStream(17), 64)
    assert_allclose(batch.draws, path_sum_reference(model, SeededStream(17), 64), rtol=0, atol=1e-12)


def test_marginals_are_standard_gumbel(depth3_model, single_layer_model):
    # every leaf's noise is G(0,1) regardless of where it sits in the tree
    gumbel_cdf = lambda x: np.exp(-np.exp(-x))
    batch = sample_epsilon(single_layer_model, SeededStream(41), 100_000)
    for leaf in single_layer_model.tree.leaves:
        d, _ = stats.kstest(batch.column(leaf), gumbel_cdf)
        assert d < KS_1PCT / math.sqrt(100_000)
    batch = sample_epsilon(depth3_model, SeededStream(42), 100_000)
    d, _ = stats.kstest(batch.column("leaf0"), gumbel_cdf)
    assert d < KS_1PCT / math.sqrt(100_000)


@pytest.mark.parametrize(
    "pair, rho",
    [
        (("leaf0", "leaf1"), 0.9375),  # lca = b, 1 - 0.25^2
        (("leaf0", "leaf2"), 0.75),    # lca = a, 1 - 0.5^2
        (("leaf1", "leaf3"), 0.0),     # lca = root
    ],
)
def test_correlation_depth3(depth3_model, pair, rho):
    est = mc_correlation(depth3_model, SeededStream(43), *pair, 200_000)
    assert abs(est.value - rho) < 3.5 * max(est.std_error, 1e-6)


def test_correlation_independent_singletons():
    tree = build("root", {"root": ("1", "2")}, {})
    model = make_model(tree, {"1": 0.0, "2": 0.0})
    est = mc_correlation(model, SeededStream(44), "1", "2", 100_000)
    assert abs(est.value) < 3.5 * est.std_error


def test_correlation_single_nest_half():
    tree = build("root", {"root": ("n",), "n": ("1", "2")}, {"n": 0.5})
    model = make_model(tree, {"1": 0.0, "2": 0.0})
    est = mc_correlation(model, SeededStream(45), "1", "2", 200_000)
    assert abs(est.value - 0.75) < 3.5 * est.std_error


def test_correlation_needs_draws(depth3_model):
    with pytest.raises(DomainError):
        mc_correlation(depth3_model, SeededStream(0), "leaf0", "leaf1", 3)


def test_mc_choice_probs(depth3_model):
    analytic = choice_probs(depth3_model)
    estimates = mc_choice_probs(depth3_model, SeededStream(46), 200_000)
    for leaf, est in estimates.items():
        assert abs(est.value - analytic[leaf]) < 3.5 * est.std_error
    assert sum(est.value for est in estimates.values()) == pytest.approx(1.0)


def test_mc_emax(depth3_model):
    est = mc_emax(depth3_model, SeededStream(47), 200_000)
    assert abs(est.value - emax(depth3_model)) < 3.5 * est.std_error


def test_mc_cdf(depth3_model):
    bounds = {"leaf0": 0.5, "leaf1": -0.25, "leaf2": 1.0, "leaf3": 0.0}
    est = mc_cdf(depth3_model, SeededStream(48), bounds, 200_000)
    assert abs(est.value - cdf(depth3_model, bounds)) < 3.5 * est.std_error


def test_mixed_logit_example(single_layer_model):
    estimates = mixed_logit_probs(single_layer_model, SeededStream(49), 30_000)
    analytic = choice_probs(single_layer_model)
    for leaf, est in estimates.items():
        assert abs(est.value - analytic[leaf]) < 4.0 * est.std_error
    assert sum(est.value for est in estimates.values()) == pytest.approx(1.0, abs=1e-12)


def test_mixed_logit_unequal_lambdas():
    # nests with different lambdas exercise the per-leaf equalizing factors
    tree = build(
        "root", {"root": ("A", "B"), "A": ("1", "2"), "B": ("3", "4")},
        {"A": 0.4, "B": 0.8},
    )
    model = make_model(tree, {"1": 1.0, "2": 0.0, "3": 0.5, "4": -0.5})
    analytic = choice_probs(model)
    estimates = mixed_logit_probs(model, SeededStream(50), 60_000)
    for leaf, est in estimates.items():
        assert abs(est.value - analytic[leaf]) < 4.0 * est.std_error


def test_mixed_logit_single_draw_is_simplex(single_layer_model):
    estimates = mixed_logit_probs(single_layer_model, SeededStream(51), 1)
    assert sum(est.value for est in estimates.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(est.std_error == 0.0 for est in estimates.values())


def test_mixed_logit_all_lambda_one_is_exact_softmax():
    tree = build("root", {"root": ("A", "B"), "A": ("1",), "B": ("2", "3")}, {"A": 1.0, "B": 1.0})
    model = make_model(tree, {"1": 1.0, "2": 0.0, "3": 2.0})
    estimates = mixed_logit_probs(model, SeededStream(52), 1)
    weights = {leaf: math.exp(u) for leaf, u in model.utilities.items()}
    z = sum(weights.values())
    for leaf, est in estimates.items():
        assert est.value == pytest.approx(weights[leaf] / z, rel=1e-14)


def test_mixed_logit_rejects_deep_trees(depth3_model):
    with pytest.raises(ShapeError):
        mixed_logit_probs(depth3_model, SeededStream(0), 100)


def test_mixed_logit_repeatable(single_layer_model):
    a = mixed_logit_probs(single_layer_model, SeededStream(53), 5000)
    b = mixed_logit_probs(single_layer_model, SeededStream(53), 5000)
    assert a == b


def test_draw_count_validation(depth3_model):
    with pytest.raises(DomainError):
        sample_epsilon(depth3_model, SeededStream(0), -1)
    with pytest.raises(DomainError):
        mc_choice_probs(depth3_model, SeededStream(0), 0)
    with pytest.raises(DomainError):
        mixed_logit_probs(depth3_model, SeededStream(0), 0)
