"""Factor-representation simulator against the analytic engine.

Monte Carlo assertions here run at 1e5-2e5 draws with a 3.5-sigma budget
(fixed seeds, so failures are deterministic); the acceptance suite repeats
the headline comparisons at 10^6 draws.
"""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from nestlogit import (
    DomainError,
    EULER_GAMMA,
    NotALeafError,
    SampleBatch,
    SeededStream,
    UnknownNodeError,
    UtilityError,
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
    with_utilities,
)
from nestlogit import montecarlo, simulate
from nestlogit.distributions import gumbel_sample, stable_log_sample
from nestlogit.montecarlo import (
    CHUNK_SIZE,
    EstimateWithError,
    binomial_estimate,
    correlation_with_error,
    mean_with_error,
    run_chunked,
)
from reference_tree import walk
from test_distributions import kanter_one_row

KS_1PCT = 1.63


def test_sample_batch_layout(depth3_model):
    batch = sample_epsilon(depth3_model, SeededStream(21), 500)
    assert list(SampleBatch._fields) == ["draws", "leaf_order"]
    assert batch.draws.shape == (500, 4)
    assert batch.draws.T.flags.c_contiguous  # a leaf-major store: each column contiguous
    assert batch.leaf_order == depth3_model.tree.leaves
    # the seed is part of the key
    other = sample_epsilon(depth3_model, SeededStream(22), 500)
    assert not np.array_equal(batch.draws, other.draws)


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
    tree = model.tree
    ref = walk(tree)
    factor_nests = [n for n in tree.nests if tree.lam[n] < 1.0]
    out = np.empty((n_draws, len(tree.leaves)))
    chunk = simulate._chunk_size(tree)
    for i, start in enumerate(range(0, n_draws, chunk)):
        stop = min(start + chunk, n_draws)
        sub = stream.child(i)
        log_z = {n: stable_log_sample(sub, tree.lam[n], size=stop - start) for n in factor_nests}
        for col, leaf in enumerate(tree.leaves):
            eps = ref.big_lambda[leaf] * gumbel_sample(sub, size=stop - start)
            nest = ref.parent[leaf]
            while nest != tree.root:
                if nest in log_z:
                    eps = eps + ref.big_lambda[nest] * log_z[nest]
                nest = ref.parent[nest]
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


def chain_tree(depth, lam):
    """A root plus depth nests in a line, each holding the next and a leaf."""
    children = {"root": ("n1", "x0")}
    for i in range(1, depth):
        children[f"n{i}"] = (f"n{i + 1}", f"x{i}")
    children[f"n{depth}"] = (f"x{depth}", f"y{depth}")
    return build("root", children, {f"n{i}": lam for i in range(1, depth + 1)})


def chain_model(depth, lam=0.999):
    tree = chain_tree(depth, lam)
    return make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


def test_sample_matches_path_sum_deep_chain():
    model = chain_model(500)
    batch = sample_epsilon(model, SeededStream(17), 64)
    assert_allclose(batch.draws, path_sum_reference(model, SeededStream(17), 64), rtol=0, atol=1e-12)


def replay_factor_rows(tree, sub, m):
    """Per nest, the prefix sum of Lambda_t * log Z_t down its root path,
    each term Lambda_parent * eta_t for eta_t = lambda_t * log Z_t drawn by
    one kanter_one_row call per factor nest in preorder."""
    ref = walk(tree)
    acc = {n: np.zeros(m) for n in tree.nests}
    for n in tree.nests:
        if tree.lam[n] < 1.0:
            acc[n] = ref.big_lambda[ref.parent[n]] * kanter_one_row(sub.rng, tree.lam[n], m)
    for n in tree.nests[1:]:
        acc[n] = acc[n] + acc[ref.parent[n]]
    return acc


def row_replay(model, stream, n_draws):
    """sample_epsilon's chunk kernel written out row by row: per chunk
    substream, the factor rows of replay_factor_rows, then one
    gumbel_sample call per leaf in column order. The block kernel must give
    exactly these bits."""
    tree = model.tree
    ref = walk(tree)
    out = np.empty((n_draws, len(tree.leaves)))
    chunk = simulate._chunk_size(tree)
    for i, start in enumerate(range(0, n_draws, chunk)):
        stop = min(start + chunk, n_draws)
        sub = stream.child(i)
        acc = replay_factor_rows(tree, sub, stop - start)
        for col, leaf in enumerate(tree.leaves):
            out[start:stop, col] = ref.big_lambda[leaf] * gumbel_sample(sub, size=stop - start) + acc[ref.parent[leaf]]
    return out


def test_chunk_size_from_the_tree(depth3_model):
    # 2**16 draws while nests x 2**16 floats fit 2**22, else the largest
    # power of two that fits: 64 nests still take 2**16, 65 take 2**15.
    wide = random_model(np.random.default_rng(0), max_nodes=2000).tree
    trees = [depth3_model.tree, chain_tree(63, 0.999), chain_tree(64, 0.999), wide, chain_tree(2999, 0.999)]
    assert [len(tree.nests) for tree in trees] == [3, 64, 65, 388, 3000]
    assert [simulate._chunk_size(tree) for tree in trees] == [CHUNK_SIZE, CHUNK_SIZE, CHUNK_SIZE // 2, 8192, 1024]


# (model, draws, threads): factor and leaf blocks that split (a 600-nest
# chain at 256 draws holds 256 rows per block), the same chain over two
# of its 4,096-draw chunks, a wide tree (1,314 leaves under 388 nests),
# and full chunks.
ROW_REPLAY_CASES = {
    "chain600": (lambda: chain_model(600), 256, 1),
    "chain600-two-chunks": (lambda: chain_model(600), 4096 + 50, 2),
    "wide": (lambda: random_model(np.random.default_rng(0), max_nodes=2000), 5000, 1),
    "depth3-two-chunks": (None, CHUNK_SIZE + 50, 2),
    **{f"random{seed}": (lambda seed=seed: random_model(np.random.default_rng(seed), max_nodes=400), 300, 1)
       for seed in range(10)},
}


@pytest.mark.parametrize("case", list(ROW_REPLAY_CASES))
def test_sample_equals_row_replay(case, depth3_model):
    make, n, threads = ROW_REPLAY_CASES[case]
    model = depth3_model if make is None else make()
    batch = sample_epsilon(model, SeededStream(61), n, n_threads=threads)
    assert np.array_equal(batch.draws, row_replay(model, SeededStream(61), n))


def mixed_row_replay(model, stream, n_draws):
    """mixed_logit_probs written out row by row: per chunk substream, the
    factor rows of replay_factor_rows, then one stable_log_sample call per
    equalized leaf in leaf order; utilities enter shifted by their max.
    Returns the per-leaf means and std errors."""
    tree = model.tree
    ref = walk(tree)
    mu = min(ref.big_lambda[leaf] for leaf in tree.leaves)
    probs = np.empty((len(tree.leaves), n_draws))
    chunk = simulate._chunk_size(tree)
    for i, start in enumerate(range(0, n_draws, chunk)):
        m = min(start + chunk, n_draws) - start
        sub = stream.child(i)
        acc = replay_factor_rows(tree, sub, m)
        scores = np.array([acc[ref.parent[leaf]] for leaf in tree.leaves]) / mu
        for j, leaf in enumerate(tree.leaves):
            if mu < ref.big_lambda[leaf]:
                scores[j] += stable_log_sample(sub, mu / ref.big_lambda[leaf], size=m)
        u = np.array([model.utilities[leaf] for leaf in tree.leaves])
        scores += ((u - u.max()) / mu)[:, None]
        scores = np.exp(scores - scores.max(axis=0))
        probs[:, start:start + m] = scores / scores.sum(axis=0)
    return probs.mean(axis=1), probs.std(axis=1, ddof=1) / np.sqrt(n_draws)


@pytest.mark.parametrize("case", ["chain600", "depth3-two-chunks", "random0", "random1", "random2"])
def test_mixed_logit_equals_row_replay(case, depth3_model):
    make, n, threads = ROW_REPLAY_CASES[case]
    model = depth3_model if make is None else make()
    model = with_utilities(model, {leaf: 0.1 * (k % 7) for k, leaf in enumerate(model.tree.leaves)})
    estimates = mixed_logit_probs(model, SeededStream(62), n, n_threads=threads)
    mean, err = mixed_row_replay(model, SeededStream(62), n)
    assert np.array_equal([estimates[leaf].value for leaf in model.tree.leaves], mean)
    assert np.array_equal([estimates[leaf].std_error for leaf in model.tree.leaves], err)


def test_noise_is_drawn_in_row_blocks(monkeypatch):
    # The 3,000-deep chain at 256 draws: 3,000 factor nests and 3,002
    # leaves, 256 rows per block, so 12 Kanter and 12 Gumbel calls. Drawing
    # per nest and per leaf would make 3,000 and 3,002.
    calls = {"_kanter_draws": 0, "gumbel_sample": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(simulate, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(simulate, name, counted)
    sample_epsilon(chain_model(3000), SeededStream(63), 256)
    assert 0 < calls["_kanter_draws"] <= 12 and 0 < calls["gumbel_sample"] <= 12, calls


def test_marginals_are_standard_gumbel(depth3_model, single_layer_model):
    # every leaf's noise is G(0,1) regardless of where it sits in the tree
    gumbel_cdf = lambda x: np.exp(-np.exp(-x))
    batch = sample_epsilon(single_layer_model, SeededStream(41), 100_000)
    for column in batch.draws.T:
        d, _ = stats.kstest(column, gumbel_cdf)
        assert d < KS_1PCT / math.sqrt(100_000)
    batch = sample_epsilon(depth3_model, SeededStream(42), 100_000)
    assert batch.leaf_order[0] == "leaf0"
    d, _ = stats.kstest(batch.draws[:, 0], gumbel_cdf)
    assert d < KS_1PCT / math.sqrt(100_000)


@pytest.mark.parametrize("lam_a, lam_b", [(1e-155, 1e-155), (1e-300, 0.5), (0.5, 1e-300), (1e-310, 0.5)])
def test_tiny_lambda_draws_are_finite_gumbel(lam_a, lam_b):
    # depth3's nests a and b at tiny lambda: each factor is drawn as
    # eta = lambda * log Z, with no (1 - lambda)/lambda to overflow at a
    # subnormal lambda (1e-310). Both nests at 1e-300 cannot be built, as
    # Lambda_b = 1e-600 underflows to 0. Underflow is no error here: at
    # (1e-155, 1e-155) Lambda_b = 1e-310 is subnormal itself, and so are
    # its products with the leaf Gumbels.
    tree = build("root", {"root": ("a", "leaf3"), "a": ("b", "leaf2"), "b": ("leaf0", "leaf1")}, {"a": lam_a, "b": lam_b})
    n = 20_000
    with np.errstate(all="raise", under="ignore"):
        draws = sample_epsilon(make_model(tree, dict.fromkeys(tree.leaves, 0.0)), SeededStream(3), n).draws
    assert np.isfinite(draws).all()
    assert np.all(np.abs(draws.mean(axis=0) - EULER_GAMMA) < 4.0 * math.pi / math.sqrt(6.0 * n))


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
    for n in (-1, 0, 1, 2, 3):
        with pytest.raises(DomainError, match="^(n_draws must be nonnegative|correlation needs at least 4 draws)$"):
            mc_correlation(depth3_model, SeededStream(0), "leaf0", "leaf1", n)
    with pytest.raises(DomainError, match="^correlation needs at least 4 draws$"):
        correlation_with_error(np.arange(3.0), np.arange(3.0))


def test_correlation_checks_leaf_ids(depth3_model):
    with pytest.raises(UnknownNodeError, match="unknown node id 'nope'"):
        mc_correlation(depth3_model, SeededStream(0), "leaf0", "nope", 10)
    with pytest.raises(NotALeafError, match="node 'a' is a nest"):
        mc_correlation(depth3_model, SeededStream(0), "a", "leaf0", 10)


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


def full_batch_reductions(model, batch, bounds):
    """The reductions over a whole sample_epsilon batch, as they were made
    before the reducers streamed: argmax counts of U + eps (earliest column
    on ties), the joint-CDF hit count, and each draw's max of U + eps."""
    u = np.array([model.utilities[leaf] for leaf in batch.leaf_order])
    a = np.array([bounds[leaf] for leaf in batch.leaf_order])
    totals = batch.draws + u
    counts = np.bincount(totals.argmax(axis=1), minlength=len(u))
    hits = int(np.all(batch.draws <= a, axis=1).sum())
    return counts, hits, totals.max(axis=1)


# (model, draws, threads): full depth3 chunks of one-row leaf blocks, about
# 250 leaves over a dozen row blocks, a 600-nest chain, and that chain over
# chunks of 4,096 and 904 draws, whose leaf blocks hold 16 and 72 rows.
REDUCER_CASES = {
    "depth3-two-chunks-t1": (None, CHUNK_SIZE + 50, 1),
    "depth3-two-chunks-t2": (None, CHUNK_SIZE + 50, 2),
    "random250": (lambda: random_model(np.random.default_rng(5), max_nodes=400), 3000, 1),
    "chain600": (lambda: chain_model(600), 256, 1),
    "chain600-two-chunks-t1": (lambda: chain_model(600), 5000, 1),
    "chain600-two-chunks-t2": (lambda: chain_model(600), 5000, 2),
}


@pytest.mark.parametrize("case", list(REDUCER_CASES))
def test_streamed_reducers_equal_full_batch(case, depth3_model):
    make, n, threads = REDUCER_CASES[case]
    model = depth3_model if make is None else make()
    leaves = model.tree.leaves
    model = with_utilities(model, {leaf: 0.1 * (k % 7) for k, leaf in enumerate(leaves)})
    bounds = {leaf: 0.25 * (k % 5) for k, leaf in enumerate(leaves)}
    batch = sample_epsilon(model, SeededStream(6), n, n_threads=threads)
    counts, hits, best = full_batch_reductions(model, batch, bounds)
    assert mc_choice_probs(model, SeededStream(6), n, n_threads=threads) == {
        leaf: binomial_estimate(int(counts[i]), n) for i, leaf in enumerate(leaves)
    }
    assert mc_cdf(model, SeededStream(6), bounds, n, n_threads=threads) == binomial_estimate(hits, n)
    est = mean_with_error(best)
    assert mc_emax(model, SeededStream(6), n, n_threads=threads) == EstimateWithError(
        est.value - EULER_GAMMA, est.std_error, n
    )
    for a, b in [(0, len(leaves) - 1), (1, 2), (2, 2)]:
        expected = correlation_with_error(batch.draws[:, a], batch.draws[:, b])
        assert mc_correlation(model, SeededStream(6), leaves[a], leaves[b], n, n_threads=threads) == expected


def unit_nest_chain_model():
    # chain600 with n300 at lambda = 1: it draws no factor, so every root
    # path below it crosses a nest without a factor row of its own
    tree = chain_tree(600, 0.999)
    tree = build(tree.root, tree.children, {**tree.lam, "n300": 1.0})
    return make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


# Where a pair's columns sit among the leaf blocks of the first chunk:
# (block of the first column, block of the second, block count) -> bool.
LAYOUTS = {
    "one block": lambda a, b, k: a == b,
    "first block": lambda a, b, k: a == b == 0,
    "last block": lambda a, b, k: a == b == k - 1,
    "skipped between": lambda a, b, k: b - a > 1,
}

# (model, draws, threads, pair of columns given the leaf count, layout).
# depth3 at 300 draws is one leaf block; at full chunks a block is one
# row. About 250 leaves at 3,000 draws make leaf blocks of 21 rows, a
# 600-nest chain (602 leaves) at 256 draws three blocks of 256 rows and at
# 5,000 draws two chunks of 4,096 and 904 draws.
CORRELATION_CASES = {
    "depth3-one-block": (None, 300, 1, lambda n: (0, 3), "one block"),
    "depth3-two-chunks-t1": (None, CHUNK_SIZE + 50, 1, lambda n: (0, 3), "skipped between"),
    "depth3-two-chunks-t2": (None, CHUNK_SIZE + 50, 2, lambda n: (0, 3), "skipped between"),
    "random250-first-block": ("random250", 3000, 1, lambda n: (0, 20), "first block"),
    "random250-last-block": ("random250", 3000, 1, lambda n: (n - 2, n - 1), "last block"),
    "random250-skipped-between": ("random250", 3000, 1, lambda n: (3, 200), "skipped between"),
    "random250-same-leaf": ("random250", 3000, 1, lambda n: (100, 100), "one block"),
    "chain600-first-block": ("chain600", 256, 1, lambda n: (100, 200), "first block"),
    # x1 and x0, whose parents are n1 and the root
    "chain600-last-block": ("chain600", 256, 1, lambda n: (n - 2, n - 1), "last block"),
    "chain600-skipped-between": ("chain600", 256, 1, lambda n: (51, 591), "skipped between"),
    "chain600-two-chunks-t1": ("chain600", 5000, 1, lambda n: (251, 591), "skipped between"),
    "chain600-two-chunks-t2": ("chain600", 5000, 2, lambda n: (251, 591), "skipped between"),
    # x351 and x350, whose root paths cross n300 at lambda = 1
    "unit-nest-path": ("unit-nest", 256, 1, lambda n: (250, 251), "first block"),
}
CORRELATION_MODELS = {
    "random250": lambda: random_model(np.random.default_rng(5), max_nodes=400),
    "chain600": lambda: chain_model(600),
    "unit-nest": unit_nest_chain_model,
}


@pytest.mark.parametrize("case", list(CORRELATION_CASES))
def test_mc_correlation_equals_sample_columns(case, depth3_model):
    # mc_correlation folds only its pair's root paths and leaf blocks; the
    # columns it reads must be sample_epsilon's, bit for bit.
    make, n, threads, pair, layout = CORRELATION_CASES[case]
    model = depth3_model if make is None else CORRELATION_MODELS[make]()
    leaves = model.tree.leaves
    a, b = pair(len(leaves))
    blocks = simulate._blocks(len(leaves), min(n, simulate._chunk_size(model.tree)))
    block_of = [i for i, blk in enumerate(blocks) for _ in range(blk.start, min(blk.stop, len(leaves)))]
    assert LAYOUTS[layout](block_of[a], block_of[b], len(blocks))
    batch = sample_epsilon(model, SeededStream(64), n, n_threads=threads)
    expected = correlation_with_error(batch.draws[:, a], batch.draws[:, b])
    assert mc_correlation(model, SeededStream(64), leaves[a], leaves[b], n, n_threads=threads) == expected


def test_mc_correlation_folds_only_its_pair(monkeypatch):
    # The 3,000-nest chain's x350 and x351 at 256 draws: their parents n350
    # and n351 lie 350 and 351 nests below the root, so of the 3,000 factor
    # rows only the 351 of n1..n351 get Kanter's arithmetic, and of the 12
    # leaf blocks of 256 rows only the one holding columns 2,650 and 2,651
    # is transformed. Every factor row is still drawn.
    drawn, computed, gumbels = [], [], []
    kanter_draws, kanter_eta = simulate._kanter_draws, simulate._kanter_eta

    def spied_kanter_draws(rng, rows, m):
        h, e = kanter_draws(rng, rows, m)
        drawn.append(h.copy())
        return h, e

    def spied_kanter_eta(lam, h, e):
        computed.append(h.copy())
        return kanter_eta(lam, h, e)

    def spied_gumbel(stream, size):
        gumbels.append(size)
        return gumbel_sample(stream, size)

    monkeypatch.setattr(simulate, "_kanter_draws", spied_kanter_draws)
    monkeypatch.setattr(simulate, "_kanter_eta", spied_kanter_eta)
    monkeypatch.setattr(simulate, "gumbel_sample", spied_gumbel)
    model = chain_model(3000)
    assert [model.tree.slot[leaf] - len(model.tree.nests) for leaf in ("x350", "x351")] == [2651, 2650]
    mc_correlation(model, SeededStream(65), "x350", "x351", 256)
    # factor row r is nest n(r + 1): all 3,000 are drawn, and the arithmetic
    # runs on the raw draws of rows 0..350 alone
    assert len(np.concatenate(drawn)) == 3000
    assert_array_equal(np.concatenate(computed), np.concatenate(drawn)[:351])
    assert gumbels == [256 * 256]
    # a full fold still transforms every row and every block
    drawn.clear(), computed.clear(), gumbels.clear()
    sample_epsilon(model, SeededStream(65), 256)
    assert_array_equal(np.concatenate(computed), np.concatenate(drawn))
    assert len(np.concatenate(drawn)) == 3000
    assert gumbels == [256 * 256] * 11 + [186 * 256]


def test_tie_goes_to_the_earliest_column():
    # At 3,000 draws a leaf block holds 21 rows, so columns 2 and 100 sit in
    # different blocks. 1e308 + eps rounds to 1e308 for both: every draw ties.
    model = random_model(np.random.default_rng(5), max_nodes=400)
    leaves = model.tree.leaves
    model = with_utilities(model, {leaves[2]: 1e308, leaves[100]: 1e308})
    estimates = mc_choice_probs(model, SeededStream(8), 3000)
    assert estimates[leaves[2]].value == 1.0
    counts, _, _ = full_batch_reductions(model, sample_epsilon(model, SeededStream(8), 3000), dict.fromkeys(leaves, 0.0))
    assert counts[2] == 3000


# A leaf block searches for winners only among the draws it improves.
# About 250 leaves at 3,000 draws make k leaf blocks of 21 rows. Each case
# maps (leaves, rows per block) to utilities, names the column that wins
# every draw (None: no one column), and maps k to the blocks that improve
# every draw's running best and those that improve none. 1e308 + eps
# rounds to 1e308.
WINNER_SEARCH_CASES = {
    # a tie inside block 1: the earlier column wins
    "tie-in-block": (
        lambda leaves, rows: {leaves[rows + 3]: 1e308, leaves[rows + 4]: 1e308}, 21 + 3, lambda k: ([1], range(2, k))
    ),
    "first-block-wins": (lambda leaves, rows: {leaves[5]: 1e308}, 5, lambda k: ([], range(1, k))),
    "last-leaf-wins": (lambda leaves, rows: {leaves[-1]: 1e308}, -1, lambda k: ([k - 1], [])),
    # each block sits 100 above the one before: the winners spread over
    # the last block
    "every-block-improves": (
        lambda leaves, rows: {leaf: 100.0 * (k // rows) for k, leaf in enumerate(leaves)}, None, lambda k: (range(1, k), [])
    ),
}


@pytest.mark.parametrize("case", list(WINNER_SEARCH_CASES))
def test_winner_search_equals_full_batch_argmax(case):
    model = random_model(np.random.default_rng(5), max_nodes=400)
    leaves, n, rows = model.tree.leaves, 3000, 21
    blocks = simulate._blocks(len(leaves), n)
    assert blocks[0] == slice(0, rows)
    utilities, winner, improving = WINNER_SEARCH_CASES[case]
    model = with_utilities(model, utilities(leaves, rows))
    u = simulate._leaf_column(model, model.utilities)
    batch = sample_epsilon(model, SeededStream(9), n)
    # share of the draws whose running best each block strictly improves
    tops = np.maximum.reduceat(batch.draws + u.T, [b.start for b in blocks], axis=1)
    share = np.r_[1.0, (tops[:, 1:] > np.maximum.accumulate(tops, axis=1)[:, :-1]).mean(axis=0)]
    every, none = improving(len(blocks))
    assert (share[list(every)] == 1).all() and (share[list(none)] == 0).all()
    counts, _, best = full_batch_reductions(model, batch, dict.fromkeys(leaves, 0.0))
    if winner is None:
        assert np.count_nonzero(counts[blocks[-1]]) > 1
    else:
        assert counts[winner] == n
    assert mc_choice_probs(model, SeededStream(9), n) == {
        leaf: binomial_estimate(int(counts[i]), n) for i, leaf in enumerate(leaves)
    }
    # each draw's best total, which mc_emax averages (a mean of 1e308s overflows)
    assert_array_equal(simulate._fold(model, SeededStream(9), n, 1, u=u)[2], best)


def depth3_tree_model():
    tree = build("root", {"root": ("a", "leaf3"), "a": ("b", "leaf2"), "b": ("leaf0", "leaf1")}, {"a": 0.5, "b": 0.5})
    return make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


def star_model(leaves):
    tree = build("root", {"root": tuple(f"x{i}" for i in range(leaves))}, {})
    return make_model(tree, {leaf: 0.0 for leaf in tree.leaves})


# (model, draws, pairs of columns given the leaf count) for the forced
# split below. Every run but one is a single chunk, so its blocks,
# CHUNK_SIZE // (draws x workers) rows each but at least one, are cut
# into one range per worker:
# - depth3 at 6,000 draws is one leaf block at 2 workers and two at 3 and
#   4, so a range is empty; over two chunks it stays chunk-parallel, the
#   control;
# - the wide tree (1,314 leaves) at 1,000 draws has 42 to 83 leaf blocks;
# - the 600-nest chain at 256 draws has 5 to 10 leaf blocks of 128 to 64
#   rows: columns 0 and 1 sit in the first, the last two in the last, and
#   5 and 595, 200 and 550 have skipped blocks inside both ranges at 2
#   workers and inside the first and last at 3 and 4;
# - root -> one leaf is one block of one row, with no factor at all.
SPLIT_CASES = {
    "depth3": (depth3_tree_model, 6000, lambda n: [(0, 3), (1, 2)]),
    "depth3-two-chunks": (depth3_tree_model, CHUNK_SIZE + 50, lambda n: [(0, 3)]),
    "wide": (lambda: random_model(np.random.default_rng(0), max_nodes=2000), 1000,
             lambda n: [(0, 5), (n - 2, n - 1), (40, 1200)]),
    "chain600": (lambda: chain_model(600), 256, lambda n: [(0, 1), (n - 2, n - 1), (5, 595), (200, 550)]),
    "one-leaf": (lambda: make_model(build("root", {"root": ("x",)}, {}), {"x": 0.0}), 100, lambda n: [(0, 0)]),
}


def every_fold(model, n, pairs, threads):
    """What each _fold caller returns for model at n draws."""
    from nestlogit.copula import mc_frechet_corr
    from nestlogit.verify import run_checks

    leaves = model.tree.leaves
    bounds = {leaf: 0.5 + 0.25 * (i % 5) for i, leaf in enumerate(leaves)}
    return {
        "sample_epsilon": sample_epsilon(model, SeededStream(71), n, threads).draws.tobytes(),
        "mc_choice_probs": mc_choice_probs(model, SeededStream(72), n, threads),
        "mc_emax": mc_emax(model, SeededStream(73), n, threads),
        "mc_cdf": mc_cdf(model, SeededStream(74), bounds, n, threads),
        "mc_correlation": [mc_correlation(model, SeededStream(75), leaves[a], leaves[b], n, threads) for a, b in pairs],
        "run_checks": run_checks(model, SeededStream(76), n, threads),
        "mc_frechet_corr": mc_frechet_corr(SeededStream(77), 3.0, 0.5, n, threads),
    }


@pytest.fixture(scope="module")
def one_worker_folds():
    return {}


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_chunks_give_the_same_bits(monkeypatch, one_worker_folds, case, workers):
    # n_threads workers on as many usable CPUs, through a real pool.
    make, n, pairs = SPLIT_CASES[case]
    model = make()
    pairs = pairs(len(model.tree.leaves))
    assert (math.ceil(n / simulate._chunk_size(model.tree)) == 1) == (case != "depth3-two-chunks")
    if case not in one_worker_folds:
        one_worker_folds[case] = every_fold(model, n, pairs, 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
    split = every_fold(model, n, pairs, workers)
    for caller, expected in one_worker_folds[case].items():
        assert split[caller] == expected, caller


def test_split_fold_keeps_its_bits_under_fast_thread_switching(monkeypatch):
    # 8 workers, more than this suite's hosts have cores, switching threads
    # every microsecond, on the 600-nest chain at 256 draws: 19 factor and
    # 19 leaf blocks of 32 rows. A factor block drawn out of stream order or
    # a lost write would change the bits.
    model = chain_model(600)
    u = simulate._leaf_column(model, {leaf: 0.01 * (i % 7) for i, leaf in enumerate(model.tree.leaves)})
    expected = simulate._fold(model, SeededStream(79), 256, 1, u=u, cols=np.arange(len(u)))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            store, _, best, counts = simulate._fold(model, SeededStream(79), 256, 8, u=u, cols=np.arange(len(u)))
            assert_array_equal(store, expected[0])
            assert_array_equal(best, expected[2])
            assert_array_equal(counts, expected[3])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_split_ties_go_to_column_zero(monkeypatch, workers):
    # 600 leaves under the root, equal utilities and every Gumbel the same
    # constant: every draw ties across every leaf block and every range.
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(simulate, "gumbel_sample", lambda stream, size: np.full(size, 0.5))
    model = star_model(600)
    assert len(simulate._blocks(600, 600, workers)) > workers
    estimates = mc_choice_probs(model, SeededStream(78), 600, workers)
    assert estimates["x0"].value == 1.0
    assert all(estimates[leaf].value == 0.0 for leaf in model.tree.leaves[1:])
    assert_array_equal(simulate._fold(model, SeededStream(78), 600, workers, u=np.zeros((600, 1)))[2], 0.5)


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
    # Each draw's softmax sums to 1, so a mean over draws does too. One
    # draw alone has no spread to give a standard error from: refused.
    with pytest.raises(DomainError, match="^a mean's standard error needs at least 2 draws$"):
        mixed_logit_probs(single_layer_model, SeededStream(51), 1)
    estimates = mixed_logit_probs(single_layer_model, SeededStream(51), 2)
    assert sum(est.value for est in estimates.values()) == pytest.approx(1.0, abs=1e-12)


def test_mixed_logit_all_lambda_one_is_exact_softmax():
    tree = build("root", {"root": ("A", "B"), "A": ("1",), "B": ("2", "3")}, {"A": 1.0, "B": 1.0})
    model = make_model(tree, {"1": 1.0, "2": 0.0, "3": 2.0})
    estimates = mixed_logit_probs(model, SeededStream(52), 2)
    weights = {leaf: math.exp(u) for leaf, u in model.utilities.items()}
    z = sum(weights.values())
    for leaf, est in estimates.items():
        assert est.value == pytest.approx(weights[leaf] / z, rel=1e-14)


def mixed_logit_reference(model, stream, n_draws):
    """The mixed logit estimator written out: per chunk substream, the
    factors log Z_t (nests in preorder, lambda < 1), then log Z'_j ~ P(mu/Lambda_j)
    for the leaves with Lambda_j > mu in leaf order; each draw is the
    softmax of (U_j + sum_t Lambda_t log Z_t + mu log Z'_j)/mu over the
    nests t on leaf j's root path. Returns the per-draw probability rows."""
    tree = model.tree
    ref = walk(tree)
    mu = min(ref.big_lambda[leaf] for leaf in tree.leaves)
    rows = []
    chunk = simulate._chunk_size(tree)
    for i, start in enumerate(range(0, n_draws, chunk)):
        m = min(start + chunk, n_draws) - start
        sub = stream.child(i)
        log_z = {n: stable_log_sample(sub, tree.lam[n], size=m) for n in tree.nests if tree.lam[n] < 1.0}
        scores = np.empty((m, len(tree.leaves)))
        for col, leaf in enumerate(tree.leaves):
            total = np.full(m, model.utilities[leaf])
            nest = ref.parent[leaf]
            while nest != tree.root:
                if nest in log_z:
                    total = total + ref.big_lambda[nest] * log_z[nest]
                nest = ref.parent[nest]
            scores[:, col] = total
        for col, leaf in enumerate(tree.leaves):
            if mu < ref.big_lambda[leaf]:
                scores[:, col] += mu * stable_log_sample(sub, mu / ref.big_lambda[leaf], size=m)
        weights = np.exp(scores / mu - (scores / mu).max(axis=1, keepdims=True))
        rows.append(weights / weights.sum(axis=1, keepdims=True))
    return np.concatenate(rows)


def assert_mixed_matches_analytic(model, estimates):
    # Leaves with p > 1% at 4 standard errors: for rarer leaves the per-draw
    # softmax is heavy-tailed and the sample std error understates.
    # All-lambda-one trees give an exact softmax with zero std error.
    analytic = choice_probs(model)
    judged = [leaf for leaf, p in analytic.items() if p > 0.01]
    assert judged
    for leaf in judged:
        assert abs(estimates[leaf].value - analytic[leaf]) <= 4.0 * estimates[leaf].std_error + 1e-12, leaf
    assert sum(est.value for est in estimates.values()) == pytest.approx(1.0, abs=1e-12)


def test_mixed_logit_deep_trees(depth3_model):
    model = with_utilities(depth3_model, {"leaf0": 0.5, "leaf2": -0.3, "leaf3": 0.2})
    assert_mixed_matches_analytic(model, mixed_logit_probs(model, SeededStream(0), 100_000))


@pytest.mark.parametrize("seed", range(30))
def test_mixed_logit_random_trees(seed):
    model = random_model(np.random.default_rng(seed), max_nodes=60)
    assert_mixed_matches_analytic(model, mixed_logit_probs(model, SeededStream(seed), 20_000))


def test_mixed_logit_deep_chain():
    # 200 nests of lambda 0.99: Lambda runs from 0.99 down to mu = 0.134,
    # so all but the two deepest leaves draw an equalizing factor.
    tree = chain_tree(200, 0.99)
    rng = np.random.default_rng(3)
    model = make_model(tree, {leaf: float(rng.uniform(-2.0, 2.0)) for leaf in tree.leaves})
    assert_mixed_matches_analytic(model, mixed_logit_probs(model, SeededStream(7), 20_000))


def test_mixed_logit_matches_reference_across_chunks(depth3_model):
    model = with_utilities(depth3_model, {"leaf0": 1.0, "leaf1": -0.5, "leaf3": 0.25})
    n = CHUNK_SIZE + 50
    estimates = mixed_logit_probs(model, SeededStream(56), n, n_threads=2)
    rows = mixed_logit_reference(model, SeededStream(56), n)
    mean = rows.mean(axis=0)
    err = rows.std(axis=0, ddof=1) / math.sqrt(n)
    for col, leaf in enumerate(model.tree.leaves):
        assert abs(estimates[leaf].value - mean[col]) < 1e-12
        assert abs(estimates[leaf].std_error - err[col]) < 1e-12


def test_mixed_logit_matches_reference_random_trees():
    for seed in range(5):
        model = random_model(np.random.default_rng(100 + seed), max_nodes=40)
        estimates = mixed_logit_probs(model, SeededStream(seed), 300)
        mean = mixed_logit_reference(model, SeededStream(seed), 300).mean(axis=0)
        assert_allclose([estimates[leaf].value for leaf in model.tree.leaves], mean, rtol=0, atol=1e-12)


def test_mixed_logit_determinism_across_threads(single_layer_model):
    n = CHUNK_SIZE + 500
    serial = mixed_logit_probs(single_layer_model, SeededStream(54), n, n_threads=1)
    threaded = mixed_logit_probs(single_layer_model, SeededStream(54), n, n_threads=4)
    assert serial == threaded


def test_mixed_logit_determinism_across_threads_deep_tree(depth3_model):
    n = CHUNK_SIZE + 500
    serial = mixed_logit_probs(depth3_model, SeededStream(55), n, n_threads=1)
    threaded = mixed_logit_probs(depth3_model, SeededStream(55), n, n_threads=4)
    assert serial == threaded


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
    with pytest.raises(DomainError):
        mc_emax(depth3_model, SeededStream(0), 0)
    bounds = {leaf: 0.0 for leaf in depth3_model.tree.leaves}
    with pytest.raises(DomainError):
        mc_cdf(depth3_model, SeededStream(0), bounds, 0)
    # below zero draws every entry point refuses the count before it draws
    for routine in (sample_epsilon, mc_choice_probs, mixed_logit_probs, mc_emax):
        with pytest.raises(DomainError, match="^n_draws must be (nonnegative|positive)$"):
            routine(depth3_model, SeededStream(0), -1)
    with pytest.raises(DomainError, match="^n_draws must be nonnegative$"):
        mc_cdf(depth3_model, SeededStream(0), bounds, -1)


def test_estimators_own_the_draw_floors():
    with pytest.raises(DomainError, match="^n_draws must be positive$"):
        binomial_estimate(0, 0)
    with pytest.raises(DomainError, match="^n_draws must be positive$"):
        mean_with_error(np.empty(0))
    with pytest.raises(DomainError, match="^a mean's standard error needs at least 2 draws$"):
        mean_with_error(np.ones(1))
    assert mean_with_error(np.ones(2)).std_error == 0.0
    assert correlation_with_error(np.arange(4.0), np.arange(4.0)).n_draws == 4
    assert run_chunked(SeededStream(0), -1, lambda *chunk: chunk) == []
    # given utilities but no draws, _fold counts zero wins per leaf, which the estimator refuses
    tree = build("r", {"r": ("a", "b")}, {})
    counts = simulate._fold(make_model(tree, {"a": 0.0, "b": 0.0}), SeededStream(0), 0, 1, u=np.zeros((2, 1)))[3]
    assert counts.tolist() == [0, 0]


def test_one_draw_gives_no_standard_error(depth3_model):
    # One draw printed a standard error of 0.0, as if the estimate were exact.
    for routine in (mc_emax, mixed_logit_probs):
        with pytest.raises(DomainError, match="^a mean's standard error needs at least 2 draws$"):
            routine(depth3_model, SeededStream(0), 1)
    assert mc_emax(depth3_model, SeededStream(0), 2).std_error > 0.0


def test_mc_cdf_names_the_leaves_at_fault(depth3_model):
    leaves = depth3_model.tree.leaves
    with pytest.raises(UtilityError, match=r"^no bound for leaves \['leaf3'\]$"):
        mc_cdf(depth3_model, SeededStream(0), {leaf: 0.0 for leaf in leaves[:3]}, 10)
    with pytest.raises(UtilityError, match=r"^bound given for non-leaves \['nope'\]$"):
        mc_cdf(depth3_model, SeededStream(0), {**{leaf: 0.0 for leaf in leaves}, "nope": 1.0}, 10)
    with pytest.raises(UtilityError, match=r"^non-finite bound for \['leaf0'\]$"):
        mc_cdf(depth3_model, SeededStream(0), {**{leaf: 0.0 for leaf in leaves}, "leaf0": math.nan}, 10)
