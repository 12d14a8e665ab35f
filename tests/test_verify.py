"""The consistency battery of verify.run_checks."""

import pytest

import nestlogit.verify as verify
from nestlogit import DomainError, SeededStream, build, make_model, run_checks, sample_epsilon


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
