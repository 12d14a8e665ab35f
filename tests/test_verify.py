"""The consistency battery of verify.run_checks."""

import cmath
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nestlogit.cli as cli
import nestlogit.model as model_module
import nestlogit.montecarlo as montecarlo
import nestlogit.simulate as simulate
import nestlogit.verify as verify
from nestlogit import (
    DomainError,
    ModelSpec,
    SeededStream,
    build,
    cdf,
    choice_probs,
    emax,
    make_model,
    mc_choice_probs,
    random_model,
    random_single_layer_model,
    run_checks,
    sample_epsilon,
    save_model,
    with_utilities,
)
from nestlogit.model import log_odds
from nestlogit.montecarlo import CHUNK_SIZE, correlation_with_error, run_chunked
from reference_tree import walk


def test_one_noise_batch_serves_every_mc_check(depth3_model, monkeypatch):
    calls = []

    def counting(stream, *args, **kwargs):
        calls.append(stream)
        return run_chunked(stream, *args, **kwargs)

    monkeypatch.setattr(simulate, "run_chunked", counting)
    results = run_checks(depth3_model, SeededStream(3), n_draws=5000)
    assert calls == [SeededStream(3).child(1)]
    assert {"mc-choice-probabilities", "lca-correlations", "joint-cdf"} <= {c.name for c in results}
    assert all(type(c.passed) is bool for c in results)


def full_batch_checks(model, stream, n_draws, n_threads):
    """The Monte Carlo checks of run_checks as they were made before they
    streamed: from one sample_epsilon batch of stream.child(1), with the
    same statistics, in the same order."""
    tree = model.tree
    batch = sample_epsilon(model, stream.child(1), n_draws, n_threads=n_threads)
    first_col = {leaf: i for i, leaf in enumerate(batch.leaf_order)}
    for nest in reversed(tree.nests):
        first_col[nest] = first_col[tree.children[nest][0]]
    pairs = [(nest, kids) for nest in tree.nests if len(kids := tree.children[nest]) >= 2]
    pair_gap, big_lambda = 0.0, walk(tree).big_lambda
    for nest, kids in pairs:
        r = correlation_with_error(batch.draws[:, first_col[kids[0]]], batch.draws[:, first_col[kids[1]]])
        pair_gap = max(pair_gap, abs(r.value - (1.0 - big_lambda[nest] ** 2)))
    grid = [
        {leaf: 0.0 for leaf in tree.leaves},
        {leaf: 1.0 for leaf in tree.leaves},
        {leaf: -0.5 for leaf in tree.leaves},
        {leaf: 2.0 for leaf in tree.leaves},
        {leaf: 0.25 * (i % 5) - 0.5 for i, leaf in enumerate(tree.leaves)},
    ]
    hits = [int(np.all(batch.draws <= np.array([a[leaf] for leaf in batch.leaf_order]), axis=1).sum()) for a in grid]
    z_cdf = max(verify._proportion_z(h, n_draws, cdf(model, a)) for h, a in zip(hits, grid))
    u = np.array([model.utilities[leaf] for leaf in batch.leaf_order])
    counts = np.bincount((batch.draws + u).argmax(axis=1), minlength=len(u))
    probs = choice_probs(model)
    z = max(verify._proportion_z(int(counts[i]), n_draws, probs[leaf]) for i, leaf in enumerate(batch.leaf_order))
    return [pair_gap, z_cdf, z]


# (model, draws, threads): full depth3 chunks of one-row leaf blocks, about
# 250 leaves over a dozen row blocks, and a 600-nest chain.
FULL_BATCH_CASES = {
    "depth3-two-chunks-t1": (None, CHUNK_SIZE + 50, 1),
    "depth3-two-chunks-t2": (None, CHUNK_SIZE + 50, 2),
    "random250": (lambda: random_model(np.random.default_rng(5), max_nodes=400), 3000, 1),
    "chain600": (lambda: _chain(600), 256, 1),
}


@pytest.mark.parametrize("case", list(FULL_BATCH_CASES))
def test_streamed_checks_equal_full_batch(case, depth3_model):
    make, n, threads = FULL_BATCH_CASES[case]
    model = depth3_model if make is None else make()
    model = with_utilities(model, {leaf: 0.1 * (k % 7) for k, leaf in enumerate(model.tree.leaves)})
    checks = run_checks(model, SeededStream(12), n_draws=n, n_threads=threads)
    assert [c.name for c in checks[-3:]] == ["lca-correlations", "joint-cdf", "mc-choice-probabilities"]
    assert [c.observed for c in checks[-3:]] == full_batch_checks(model, SeededStream(12), n, threads)


def test_streamed_reductions_hold_no_draws_by_leaves_matrix(depth3_model, monkeypatch):
    # The 1,314-leaf, 388-nest wide tree at 5,000 draws: the noise matrix
    # would be 52.6 MB. Measured traced peaks: mc_choice_probs 18.3 MB (the
    # 388 x 5,000 factor rows and a best total per draw), run_checks
    # 37.5 MB (also the 464 distinct noise columns its 288 correlation pairs
    # read). Holding the matrix, both peaked at 71 MB. On depth3 at 10^6
    # draws mc_choice_probs peaks at 12.1 MB, and at 19.3 MB if it keeps
    # each draw's winning column as well as its best total. Spread over two
    # workers (two usable CPUs, one chunk), mc_choice_probs' blocks are
    # halved, so the floats in flight stay those of one worker: 18.5-19.1
    # MB against 18.7 MB measured.
    model = random_model(np.random.default_rng(0), max_nodes=2000)
    matrix = 5000 * len(model.tree.leaves) * 8
    peaks = {}
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    for name, run in [
        ("mc_choice_probs", lambda: mc_choice_probs(model, SeededStream(1), 5000)),
        ("mc_choice_probs on 2 workers", lambda: mc_choice_probs(model, SeededStream(1), 5000, n_threads=2)),
        ("run_checks", lambda: run_checks(model, SeededStream(1), n_draws=5000)),
        ("depth3", lambda: mc_choice_probs(depth3_model, SeededStream(1), 1_000_000)),
    ]:
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["mc_choice_probs"] < 0.5 * matrix, peaks
    assert peaks["mc_choice_probs on 2 workers"] < peaks["mc_choice_probs"] + 1e6, peaks
    assert peaks["run_checks"] < 0.75 * matrix, peaks
    assert peaks["depth3"] < 14e6, peaks


def test_one_correlation_pair_per_branching_nest():
    # root -> {a -> {b -> {x1, x2}, y}, c -> {z}, w}: root, a and b branch,
    # c has a single child.
    tree = build(
        "root",
        {"root": ("a", "c", "w"), "a": ("b", "y"), "b": ("x1", "x2"), "c": ("z",)},
        {"a": 0.6, "b": 0.5, "c": 0.7},
    )
    model = make_model(tree, {leaf: 0.0 for leaf in tree.leaves})
    check = {c.name: c for c in run_checks(model, SeededStream(4), n_draws=20_000)}["lca-correlations"]
    assert "over 3 pairs" in check.detail
    assert check.passed
    assert check.tolerance == pytest.approx(3.0 / (20_000 - 3) ** 0.5)


@pytest.mark.parametrize("children", [{"root": ("x",)}, {"root": ("n",), "n": ("x",)}], ids=["leaf", "nest-leaf"])
def test_tree_without_a_correlation_pair(children, tmp_path):
    # No nest has two children, so there is no pair and no noise column to keep.
    model = make_model(build("root", children, {"n": 0.5} if "n" in children else {}), {"x": 0.0})
    check = {c.name: c for c in run_checks(model, SeededStream(4), n_draws=1000)}["lca-correlations"]
    assert "over 0 pairs" in check.detail and check.observed == 0.0 and check.passed
    path = tmp_path / "model.json"
    save_model(model, path)
    proc = subprocess.run(
        [sys.executable, "-m", "nestlogit", "verify", str(path), "--draws", "1000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "over 0 pairs" in proc.stdout


def test_correct_model_fails_at_most_two_of_40_seeds(depth3_model):
    # 3/sqrt(n - 3) bounds the gap of every pair; a fixed 0.01 failed 16 of
    # these 40 seeds.
    failing = [
        seed
        for seed in range(40)
        if not all(c.passed for c in run_checks(depth3_model, SeededStream(seed), n_draws=20_000))
    ]
    assert len(failing) <= 2, failing


UNDERFLOW_TREE = build("root", {"root": ("a", "n"), "n": ("b", "c")}, {"n": 0.5})
UNDERFLOW_UTILITIES = {"a": 0.0, "b": -1000.0, "c": -300.0}


def _simplex(model):
    checks = run_checks(model, SeededStream(0), n_draws=64)
    return next(c for c in checks if c.name == "leaf-probability-simplex")


def test_simplex_accepts_a_probability_that_underflows():
    # log pi_b = -300 + (-1000 + 300)/0.5 = -1700, past what a double holds
    model = make_model(UNDERFLOW_TREE, UNDERFLOW_UTILITIES)
    assert choice_probs(model)["b"] == 0.0
    check = _simplex(model)
    assert check.passed and check.detail == ""


def test_simplex_rejects_a_zero_above_the_underflow_line(monkeypatch):
    # c's log probability is about -300: a forward pass that returns 0.0
    # for it is wrong, and the log-space pass shows it.
    model = make_model(UNDERFLOW_TREE, UNDERFLOW_UTILITIES)
    real = verify.forward_probs

    def zeroing(model, u):
        return {**real(model, u), "c": 0.0}

    monkeypatch.setattr(verify, "forward_probs", zeroing)
    check = _simplex(model)
    assert not check.passed
    assert check.detail == "a leaf probability is not strictly positive"


def test_needs_four_draws(depth3_model):
    for n in (-1, 3):
        with pytest.raises(DomainError, match="^correlation needs at least 4 draws$"):
            run_checks(depth3_model, SeededStream(0), n_draws=n)


def _complex_rebuild(model, leaf):
    # The literal complex step: Im u_root(U_leaf + ih) / h through a whole
    # complex backward pass, with h small against every Lambda of the tree.
    tree = model.tree
    h = min(tree.scale) * 2.0 ** -30
    v = [0j] * len(tree.kids) + [complex(model.utilities[x], h if x == leaf else 0.0) for x in tree.leaves]
    for i in reversed(range(len(tree.kids))):
        values, big_lam = [v[k] for k in tree.kids[i]], tree.scale[i]
        top = max(z.real for z in values)
        v[i] = top + big_lam * cmath.log(sum(cmath.exp((z - top) / big_lam) for z in values))
    return v[0].imag / h


def _chain(n_nests):
    # n0 -> {n1, x0}, n1 -> {n2, x1}, ..., with differing utilities
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(n_nests - 1)}
    children[f"n{n_nests - 1}"] = ("end", f"x{n_nests - 1}")
    tree = build("n0", children, {f"n{i}": 0.9 for i in range(1, n_nests)})
    return make_model(tree, {leaf: 0.01 * i for i, leaf in enumerate(tree.leaves)})


def _stress_models(depth3_model, single_layer_model):
    plain = make_model(build("r", {"r": ("a", "b", "c")}, {}), {"a": 0.3, "b": -1.0, "c": 2.0})
    rng = np.random.default_rng(909)
    models = [depth3_model, single_layer_model, plain, _chain(400)]
    models += [random_model(rng, max_nodes=60) for _ in range(30)]
    # Ties for the nest maxima: every utility equal, and integer
    # utilities (3u rounded).
    models += [with_utilities(m, {leaf: 0.0 for leaf in m.tree.leaves}) for m in models[:6]]
    models += [with_utilities(m, {leaf: float(round(3 * v)) for leaf, v in m.utilities.items()}) for m in models[4:12]]
    return models


def test_complex_steps_match_a_complex_rebuild(depth3_model, single_layer_model):
    # Within 2 (height + 1) ulps: the product of per-nest steps and the
    # rebuild round the same terms in a different order, and the rebuild
    # scales its step by Lambda and back at every level. 1e-300 covers leaves whose rebuilt step
    # becomes subnormal on the way up. The worst case here is 0.5 of it.
    eps = sys.float_info.epsilon
    for model in _stress_models(depth3_model, single_layer_model):
        grad, height = verify.finite_difference_gradient(model), max(model.tree.depth)
        for leaf in model.tree.leaves:
            assert abs(grad[leaf] - _complex_rebuild(model, leaf)) <= 2 * (height + 1) * eps * grad[leaf] + 1e-300


@pytest.mark.parametrize("theta", [2.0 ** -35, 2.0 ** -100])
def test_the_imaginary_step_changes_no_digit(depth3_model, single_layer_model, monkeypatch, theta):
    # The truncation error is theta**2/3 relative. Only gradients below
    # 1e-250 may move, where theta times the gradient nears the subnormals.
    models = _stress_models(depth3_model, single_layer_model)
    grads = [verify.finite_difference_gradient(model) for model in models]
    monkeypatch.setattr(verify, "_THETA", theta)
    for model, want in zip(models, grads):
        got = verify.finite_difference_gradient(model)
        assert all(got[leaf] == g or max(g, abs(got[leaf] - g)) < 1e-250 for leaf, g in want.items())


def _chain3000(utilities):
    # The benchmark's chain: a root plus 3,000 nests at lambda 0.999, each
    # holding the next nest and one leaf, 3,002 leaves, height 3,001
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(3000)}
    children["n3000"] = ("end", "x3000")
    tree = build("n0", children, {f"n{i}": 0.999 for i in range(1, 3001)})
    return make_model(tree, dict(zip(tree.leaves, utilities)))


def test_gaps_stay_below_half_the_tolerance():
    # 200 random trees of each kind and the 3,000-nest chain with zero and
    # with random utilities, also with every utility shifted to +-1e11,
    # where the tolerance is loose because choice_probs rounds
    # (u_k - u_n)/Lambda_n. On the chain each leaf's derivative is a
    # product of up to 3,001 factors.
    models = [(seed, model) for seed in range(200) for model in (
        random_model(np.random.default_rng(seed), 60), random_single_layer_model(np.random.default_rng(seed)))]
    models += [("chain", _chain3000([0.0] * 3002)), ("chain", _chain3000(np.random.default_rng(5).normal(0, 3, 3002).tolist()))]
    for seed, model in models:
        for shift in (0.0, 1e11, -1e11):
            model = with_utilities(model, {leaf: u + shift for leaf, u in model.utilities.items()})
            probs, grad = choice_probs(model), verify.finite_difference_gradient(model)
            gap = max(abs(probs[leaf] - grad[leaf]) for leaf in model.tree.leaves)
            assert gap <= 0.5 * verify.gradient_tolerance(model), (seed, shift)


def test_one_complex_step_per_node(monkeypatch):
    # Top-down, one log per non-root slot: 6,002 on the 3,000-nest chain,
    # where a climb from every leaf to the root took about 4.5 million.
    calls = []
    real = cmath.log
    monkeypatch.setattr(cmath, "log", lambda z: calls.append(z) or real(z))
    model = _chain3000([0.01 * (i % 7) for i in range(3002)])
    grad = verify.finite_difference_gradient(model)
    assert len(calls) == len(model.tree.up) - 1 == 6002
    assert verify.gradient_check(model)["finite_difference"] == grad


def count_backward_passes(monkeypatch):
    # Counts the slot pass under both names it is bound to: the backward
    # pass of every public function, backward_utils' included. Each call
    # is recorded as the model it evaluates: its tree and leaf values.
    calls = []
    real = model_module._backward

    def counting(tree, leaf_values):
        calls.append(ModelSpec(tree, dict(zip(tree.leaves, leaf_values))))
        return real(tree, leaf_values)

    monkeypatch.setattr(model_module, "_backward", counting)
    monkeypatch.setattr(verify, "_backward", counting)
    return calls


def test_finite_differences_run_one_backward_pass(monkeypatch):
    # A return to one rebuild per quotient (emax -> model._backward)
    # fails here, not only by time.
    calls = count_backward_passes(monkeypatch)
    model = random_model(np.random.default_rng(3), max_nodes=200)
    verify.finite_difference_gradient(model)
    assert calls == [model]


def test_each_analytic_entry_runs_one_backward_pass(depth3_model, monkeypatch):
    # The forward pass and the finite differences read the backward pass's
    # slot list; none of them runs it again or goes through backward_utils.
    calls = count_backward_passes(monkeypatch)
    bounds = {leaf: 0.5 for leaf in depth3_model.tree.leaves}
    for run in (
        lambda: choice_probs(depth3_model),
        lambda: emax(depth3_model),
        lambda: emax(depth3_model, "b"),
        lambda: log_odds(depth3_model, "leaf1"),
        lambda: verify.finite_difference_gradient(depth3_model),
        lambda: verify.gradient_tolerance(depth3_model),
    ):
        calls.clear()
        run()
        assert calls == [depth3_model]
    calls.clear()
    cdf(depth3_model, bounds)
    assert [m.utilities for m in calls] == [{leaf: -0.5 for leaf in bounds}]
    # run_checks: one pass on the model, and one per joint-cdf bound vector
    calls.clear()
    run_checks(depth3_model, SeededStream(0), n_draws=64)
    assert calls[0] == depth3_model and len(calls) == 1 + 5
    assert all(m.tree is depth3_model.tree for m in calls)


def test_grad_check_runs_one_backward_pass(depth3_model, monkeypatch, tmp_path, capsys):
    # The analytic probabilities, the complex steps and the tolerance share
    # one pass.
    path = tmp_path / "depth3.json"
    save_model(depth3_model, path)
    calls = count_backward_passes(monkeypatch)
    assert cli.main(["grad-check", str(path)]) == 0
    assert calls == [depth3_model]
    assert json.loads(capsys.readouterr().out)["results"]["passed"] is True


def _depth3_at(depth3_model, lam):
    tree = depth3_model.tree
    return make_model(build(tree.root, tree.children, {"a": lam, "b": lam}), depth3_model.utilities)


# Central differences at a step of 1e-5 exited 2 on the first four (gaps
# 2.7e-4, 0.108, 0.125 and 0.526) and on the two subnormal Lambda_b = 1e-310
# and 1e-320 (0.125 each), and 1 on the other two ("step is lost in the
# utility").
GRADIENT_CASES = {
    "lambda=1e-3": lambda m: _depth3_at(m, 1e-3),
    "lambda=1e-6": lambda m: _depth3_at(m, 1e-6),
    "lambda=1e-12": lambda m: _depth3_at(m, 1e-12),
    "leaf0=1e11": lambda m: with_utilities(m, {"leaf0": 1e11}),
    "leaf0=1e300": lambda m: with_utilities(m, {"leaf0": 1e300}),
    "two-leaves-1e308-0": lambda m: make_model(build("root", {"root": ("a", "b")}, {}), {"a": 1e308, "b": 0.0}),
    "lambda=1e-155": lambda m: _depth3_at(m, 1e-155),
    "lambda=1e-160": lambda m: _depth3_at(m, 1e-160),
}


@pytest.mark.parametrize("case", list(GRADIENT_CASES))
def test_extreme_models_pass_the_gradient_check(case, depth3_model, tmp_path, capsys):
    model = GRADIENT_CASES[case](depth3_model)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert cli.main(["grad-check", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["passed"] and results["tolerance"] == verify.gradient_tolerance(model)
    checks = run_checks(model, SeededStream(0), n_draws=64)[:3]
    assert checks[2].name == "emax-gradient-is-choice-probability"
    # At lambda 1e-160, u_b = Lambda_b log 2 is subnormal and choice_probs
    # rounds it: the simplex and the hierarchy fail, rightly, by 8.7e-6.
    assert all(c.passed for c in (checks[2:] if case == "lambda=1e-160" else checks)), checks


def test_a_one_part_in_a_billion_forward_defect_is_caught(depth3_model, monkeypatch, capsys, tmp_path):
    # leaf0's log probability off by 1e-9 moves its probability by 1.8e-10:
    # within the central differences' 1e-6, far past the rounding bound.
    real = model_module._log_forward

    def off(tree, v):
        log_pi = real(tree, v)
        log_pi[len(tree.kids)] += 1e-9
        return log_pi

    path = tmp_path / "depth3.json"
    save_model(depth3_model, path)
    monkeypatch.setattr(model_module, "_log_forward", off)
    assert cli.main(["grad-check", str(path)]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["passed"] is False and 1e-10 < results["max_abs_diff"] < 1e-6
    check = {c.name: c for c in run_checks(depth3_model, SeededStream(0), n_draws=64)}["emax-gradient-is-choice-probability"]
    assert not check.passed and 1e-10 < check.observed < 1e-6
