"""Seeded stream derivation and the chunked Monte Carlo driver."""

import concurrent.futures
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from nestlogit import DomainError, EstimateWithError, SeededStream
from nestlogit.montecarlo import CHUNK_SIZE, binomial_estimate, mean_with_error, run_chunked


def fresh(stream):
    """A copy of stream rewound to the start of its sequence."""
    return SeededStream(stream.seed, stream.subkey)


def test_same_seed_same_draws():
    a = SeededStream(42).rng.standard_normal(16)
    b = SeededStream(42).rng.standard_normal(16)
    assert_array_equal(a, b)


def test_different_seeds_differ():
    a = SeededStream(1).rng.standard_normal(16)
    b = SeededStream(2).rng.standard_normal(16)
    assert not np.array_equal(a, b)


def test_stream_index_and_children_are_distinct():
    base = SeededStream(7)
    sibling = SeededStream(8)
    kid0 = base.child(0)
    kid1 = base.child(1)
    draws = [fresh(s).rng.standard_normal(8) for s in (base, sibling, kid0, kid1)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])
    # grandchildren derive from the child's subkey, reproducibly
    assert_array_equal(
        base.child(3).child(5).rng.standard_normal(8),
        SeededStream(7).child(3).child(5).rng.standard_normal(8),
    )
    # the PCG64DXSM spawn key is a fixed 0 followed by the child indices
    key = np.random.SeedSequence(entropy=7, spawn_key=(0, 3, 5))
    assert_array_equal(
        base.child(3).child(5).rng.standard_normal(8),
        np.random.Generator(np.random.PCG64DXSM(key)).standard_normal(8),
    )


def test_fresh_rewinds():
    stream = SeededStream(11)
    first = stream.rng.standard_normal(4)
    again = fresh(stream).rng.standard_normal(4)
    assert_array_equal(first, again)


@pytest.mark.parametrize("k", [0, 1, 7, 65_536 + 3])
def test_advance_skips_uniforms(k):
    # A columns-only fold skips a leaf block it does not read by advancing
    # the generator past the block's uniforms: one step per random() draw.
    skipped = fresh(SeededStream(13).child(2)).rng
    skipped.bit_generator.advance(k)
    assert_array_equal(skipped.random(100), SeededStream(13).child(2).rng.random(k + 100)[k:])


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, False, "7", None, np.float64(3.0), np.True_])
def test_seed_range_checked(seed):
    # A bool, float or str would replay an integer seed's draws under a
    # key that compares unequal to it.
    with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        SeededStream(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
def test_numpy_integer_seeds_accepted(seed):
    assert SeededStream(seed) == SeededStream(7)
    assert type(SeededStream(seed).seed) is int


def test_mean_with_error():
    est = mean_with_error(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.value == 2.5
    assert est.n_draws == 4
    np.testing.assert_allclose(est.std_error, np.std([1, 2, 3, 4], ddof=1) / 2.0)


def test_binomial_estimate():
    est = binomial_estimate(25, 100)
    assert est.value == 0.25
    np.testing.assert_allclose(est.std_error, np.sqrt(0.25 * 0.75 / 100))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 999, 4096])
def test_binomial_standard_error_keeps_numpys_bits(n):
    # math.sqrt and np.sqrt both round correctly, so every count's
    # standard error is numpy's to the bit.
    for count in range(n + 1):
        p = count / n
        assert binomial_estimate(count, n) == (p, float(np.sqrt(p * (1.0 - p) / n)), n)


def test_estimate_rejects_negative_error():
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)


def test_replace_and_make_keep_the_checks():
    # The named tuples' own _make skipped __new__, and _replace with it.
    estimate = EstimateWithError(1.0, 0.1, 3)
    assert estimate._replace(std_error=0.2) == EstimateWithError(1.0, 0.2, 3)
    assert type(estimate._replace(value=2.0)) is EstimateWithError
    with pytest.raises(ValueError, match="^std_error must be nonnegative$"):
        estimate._replace(std_error=-1)
    with pytest.raises(ValueError, match="^std_error must be nonnegative$"):
        EstimateWithError._make([1.0, -1.0, 3])
    stream = SeededStream(1, (2,))
    assert stream._replace(seed=3) == SeededStream(3, (2,))
    assert_array_equal(stream._replace(subkey=(5,)).rng.random(4), SeededStream(1, (5,)).rng.random(4))
    with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
        stream._replace(seed=-1)
    with pytest.raises(DomainError, match="got 18446744073709551616"):
        SeededStream._make([2**64, ()])


def test_run_chunked_counts_and_order():
    n = 2 * CHUNK_SIZE + 123
    out = np.zeros(n)

    def kernel(sub, start, stop):
        out[start:stop] = sub.rng.standard_normal(stop - start)

    run_chunked(SeededStream(5), n, kernel)
    serial = out.copy()

    out[:] = 0.0
    run_chunked(SeededStream(5), n, kernel, n_threads=4)
    assert_array_equal(serial, out)  # thread count never changes the draws
    assert np.all(out != 0.0)


def inline_pool(monkeypatch, cpus):
    """Patch in cpus usable CPUs and a stand-in pool that runs every task
    inline, so no real thread starts. Returns the max_workers of each pool
    made, the task count of each map and the tasks submitted one by one."""
    pools, maps, submitted = [], [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            maps.append(len(tasks))
            return map(fn, tasks)

        def submit(self, fn, task):
            submitted.append(task)
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return pools, maps, submitted


@pytest.mark.parametrize("threads, cpus, chunks, workers", [
    (64, 2, 5, 2),  # capped by the usable CPUs
    (64, 8, 5, 5),  # by the chunk count
    (3, 8, 5, 3),  # by --threads
    (64, 1, 5, None),  # one usable CPU: no pool at all
    (4, 4, 1, None),  # one chunk: no pool at all
    (64, None, 5, 3),  # no sched_getaffinity: os.cpu_count() of 3
])
def test_run_chunked_caps_its_workers(monkeypatch, threads, cpus, chunks, workers):
    # A kernel that cannot split a chunk runs at most one worker per chunk.
    pools, _, _ = inline_pool(monkeypatch, cpus)
    out = run_chunked(SeededStream(5), 10 * chunks - 3, lambda sub, start, stop: (start, stop), threads, 10)
    assert out == [(k, min(k + 10, 10 * chunks - 3)) for k in range(0, 10 * chunks - 3, 10)]
    assert pools == ([] if workers is None else [workers])


@pytest.mark.parametrize("threads, cpus, chunks, pool, lanes", [
    (4, 4, 1, 3, 4),  # one chunk on 4 CPUs: the kernel gets 4 workers, the caller and 3 threads
    (4, 4, 3, 3, 1),  # two or more chunks stay chunk-parallel, even fewer than the workers
    (4, 4, 4, 4, 1),  # as many chunks as workers: chunks in parallel, one worker each
    (64, 2, 1, 1, 2),  # capped by the usable CPUs, not by the chunk count
    (64, None, 1, 2, 3),  # no sched_getaffinity: os.cpu_count() of 3
    (64, 1, 1, None, 1),  # one usable CPU: no pool at all
    (1, 4, 1, None, 1),  # --threads 1: no pool at all
])
def test_run_chunked_hands_a_splitting_kernel_its_workers(monkeypatch, threads, cpus, chunks, pool, lanes):
    # A kernel that splits a chunk (split=True) gets the worker count and a
    # fan that runs the first item on the calling thread and the others on
    # one pool for the whole run, but only in a run of one chunk; two or
    # more chunks run in parallel, one worker each.
    pools, maps, submitted = inline_pool(monkeypatch, cpus)

    def kernel(sub, start, stop, n_workers, fan):
        return start, stop, n_workers, list(fan(lambda x: -x, range(n_workers)))

    out = run_chunked(SeededStream(5), 10 * chunks - 3, kernel, threads, 10, split=True)
    assert out == [(k, min(k + 10, 10 * chunks - 3), lanes, list(range(0, -lanes, -1)))
                   for k in range(0, 10 * chunks - 3, 10)]
    assert pools == ([] if pool is None else [pool])
    parallel = pool is not None and lanes == 1
    assert maps == ([chunks] if parallel else [])
    assert submitted == ([] if parallel else list(range(1, lanes)) * chunks)
