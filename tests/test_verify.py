"""The consistency battery of verify.run_checks."""

import subprocess
import sys

import numpy as np
import pytest

import nestlogit.model as model_module
import nestlogit.verify as verify
from nestlogit import (
    DomainError,
    SeededStream,
    UtilityError,
    backward_utils,
    build,
    emax,
    make_model,
    random_model,
    run_checks,
    sample_epsilon,
    save_model,
    with_utilities,
)


def test_one_noise_batch_serves_every_mc_check(depth3_model, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return sample_epsilon(*args, **kwargs)

    monkeypatch.setattr(verify, "sample_epsilon", counting)
    results = run_checks(depth3_model, SeededStream(3), n_draws=5000)
    assert len(calls) == 1
    assert calls[0] == SeededStream(3).child(1)
    assert {"mc-choice-probabilities", "lca-correlations", "joint-cdf"} <= {c.name for c in results}
    assert all(type(c.passed) is bool for c in results)


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


def test_correct_model_fails_at_most_two_of_40_seeds(depth3_model):
    # 3/sqrt(n - 3) bounds the gap of every pair; a fixed 0.01 failed 16 of
    # these 40 seeds.
    failing = [
        seed
        for seed in range(40)
        if not all(c.passed for c in run_checks(depth3_model, SeededStream(seed), n_draws=20_000))
    ]
    assert len(failing) <= 2, failing


def test_needs_four_draws(depth3_model):
    with pytest.raises(DomainError):
        run_checks(depth3_model, SeededStream(0), n_draws=3)


def _rebuild_gradient(model, step):
    # The full-rebuild oracle of acceptance c06: a new model and a whole
    # backward pass per quotient.
    grad = {}
    for leaf in model.tree.leaves:
        up = with_utilities(model, {leaf: model.utilities[leaf] + step})
        down = with_utilities(model, {leaf: model.utilities[leaf] - step})
        grad[leaf] = (emax(up) - emax(down)) / (2 * step)
    return grad


def _chain(n_nests):
    # n0 -> {n1, x0}, n1 -> {n2, x1}, ..., with differing utilities
    children = {f"n{i}": (f"n{i + 1}", f"x{i}") for i in range(n_nests - 1)}
    children[f"n{n_nests - 1}"] = ("end", f"x{n_nests - 1}")
    tree = build("n0", children, {f"n{i}": 0.9 for i in range(1, n_nests)})
    return make_model(tree, {leaf: 0.01 * i for i, leaf in enumerate(tree.leaves)})


def test_finite_differences_match_the_full_rebuild_bit_for_bit(depth3_model, single_layer_model):
    plain = make_model(build("r", {"r": ("a", "b", "c")}, {}), {"a": 0.3, "b": -1.0, "c": 2.0})
    rng = np.random.default_rng(909)
    models = [depth3_model, single_layer_model, plain, _chain(400)]
    models += [random_model(rng, max_nodes=60) for _ in range(30)]
    for model in models:
        for step in (1e-5, 0.25):
            assert verify.finite_difference_gradient(model, step) == _rebuild_gradient(model, step)


def test_finite_differences_run_one_backward_pass(monkeypatch):
    # Counts the pass under both names, so a return to one rebuild per
    # quotient (emax -> model.backward_utils) fails here, not only by time.
    calls = []

    def counting(model):
        calls.append(model)
        return backward_utils(model)

    monkeypatch.setattr(model_module, "backward_utils", counting)
    monkeypatch.setattr(verify, "backward_utils", counting)
    model = random_model(np.random.default_rng(3), max_nodes=200)
    verify.finite_difference_gradient(model, 1e-5)
    assert calls == [model]


def test_non_finite_perturbed_utility_is_rejected(tmp_path):
    tree = build("root", {"root": ("a", "b")}, {})
    model = make_model(tree, {"a": 1e308, "b": 0.0})
    with pytest.raises(UtilityError, match=r"^non-finite utility for \['a'\]$"):
        verify.finite_difference_gradient(model, 1e308)
    path = tmp_path / "huge.json"
    save_model(model, path)
    proc = subprocess.run(
        [sys.executable, "-m", "nestlogit", "grad-check", str(path), "--step", "1e308"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: non-finite utility for ['a']\n"
