"""Spans around the public functions of each nestlogit module.

The tracer replaces every listed function with a wrapper under every name
a nestlogit module binds it to: `from .x import f` copies the reference
into the importing module, so patching only the defining module would
miss most calls. Each call records one span (name, bucket, thread, start,
end, parent span on the same thread); spans stay in memory until the run
ends. A bucket's self time is the summed duration of its spans minus the
durations of their direct children.

Monte Carlo kernels are closures handed to montecarlo.run_chunked, so the
run_chunked wrapper also wraps the kernel and files its span under the
layer that defined it (noise assembly for simulate, the pair sampler for
copula), on whichever worker thread runs it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# module -> function -> bucket. Functions whose buckets are not reported
# still get spans, so that their time is not charged to their callers.
LAYERS = {
    "cli": {"main": "cli.self"},
    "modelfile": {
        "load_model": "modelfile.load",
        "loads_model": "modelfile.load",
        "save_model": "modelfile.save",
        "model_to_doc": "modelfile.save",
    },
    "tree": {
        "build": "tree.build",
        "from_nested": "tree.build",
        "metrics": "tree.metrics",
        "lca": "tree.lca",
        "descendant_leaves": "tree.lca",
    },
    "model": {
        "make_model": "model.make_model",
        "with_utilities": "model.make_model",
        "backward_utils": "model.backward",
        "forward_probs": "model.forward",
        "choice_probs": "model.forward",
        "choice_probs_single_layer": "model.forward",
        "emax": "model.forward",
        "emax_gradient": "model.forward",
        "log_odds": "model.forward",
        "cdf": "model.cdf",
    },
    "distributions": {
        "stable_log_sample": "distributions.kanter",
        "stable_sample": "distributions.kanter",
        "gumbel_sample": "distributions.gumbel",
        "stable_density_series": "distributions.density",
        "stable_survival_series": "distributions.density",
        "stable_density_half": "distributions.density",
        "stable_moment": "distributions.moment",
    },
    "simulate": {
        "sample_epsilon": "simulate.assembly",
        "mc_choice_probs": "simulate.reduce",
        "mc_emax": "simulate.reduce",
        "mc_correlation": "simulate.reduce",
        "mc_cdf": "simulate.reduce",
        "mixed_logit_probs": "simulate.mixed",
    },
    "montecarlo": {
        "run_chunked": "montecarlo.run_chunked",
        "mean_with_error": "montecarlo.estimate",
        "binomial_estimate": "montecarlo.estimate",
    },
    "copula": {
        "frechet_pair_sample": "copula.pair_sample",
        "mc_frechet_corr": "copula.corr",
        "frechet_corr": "copula.corr",
    },
    # cli's grad-check binds verify's finite-difference helper directly.
    "verify": {"run_checks": "verify.self", "_finite_difference_gradient": "verify.self"},
}

KERNEL_BUCKETS = {"sample_epsilon": "simulate.assembly", "frechet_pair_sample": "copula.pair_sample"}

# Reported self times: metric name -> bucket.
SELF_TIMES = {
    "cli.self_s": "cli.self",
    "modelfile.load_s": "modelfile.load",
    "modelfile.save_s": "modelfile.save",
    "tree.build_s": "tree.build",
    "tree.metrics_s": "tree.metrics",
    "model.make_model_s": "model.make_model",
    "model.backward_s": "model.backward",
    "model.forward_s": "model.forward",
    "model.cdf_s": "model.cdf",
    "distributions.kanter_s": "distributions.kanter",
    "distributions.gumbel_s": "distributions.gumbel",
    "distributions.density_s": "distributions.density",
    "simulate.assembly_s": "simulate.assembly",
    "simulate.reduce_s": "simulate.reduce",
    "simulate.mixed_s": "simulate.mixed",
    "copula.pair_sample_s": "copula.pair_sample",
    "verify.self_s": "verify.self",
}

COUNTS = (
    "modelfile.bytes_read",
    "tree.metrics_calls",
    "model.backward_calls",
    "distributions.kanter_draws",
    "distributions.gumbel_draws",
    "distributions.density_calls",
    "simulate.sample_calls",
    "simulate.matrix_bytes",
    "montecarlo.chunks",
)


def _counter_hooks():
    """Function -> f(bound arguments) -> {count name: increment}."""
    def size(a):
        return 1 if a.get("size") is None else int(a["size"])

    return {
        "load_model": lambda a: {"modelfile.bytes_read": os.path.getsize(a["path"]) if os.path.exists(a["path"]) else 0},
        "metrics": lambda a: {"tree.metrics_calls": 1},
        "backward_utils": lambda a: {"model.backward_calls": 1},
        "stable_log_sample": lambda a: {"distributions.kanter_draws": size(a) if float(a["lam"]) < 1.0 else 0},
        "gumbel_sample": lambda a: {"distributions.gumbel_draws": size(a)},
        "stable_density_series": lambda a: {"distributions.density_calls": 1},
        "stable_survival_series": lambda a: {"distributions.density_calls": 1},
        "stable_density_half": lambda a: {"distributions.density_calls": 1},
        "sample_epsilon": lambda a: {
            "simulate.sample_calls": 1,
            # computed, not measured: the n x L float64 noise matrix
            "simulate.matrix_bytes": int(a["n_draws"]) * len(a["model"].tree.leaves) * 8,
        },
        "run_chunked": lambda a: {"montecarlo.chunks": math.ceil(int(a["n_draws"]) / int(a["chunk_size"]))},
    }


class Tracer:
    """Installs span wrappers on nestlogit and collects spans and counts."""

    def __init__(self):
        self.spans = []  # (id, parent, function, bucket, thread, t0, t1)
        self.counts = Counter()
        self.pools = {}  # run_chunked span id -> threads it could use
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, bucket, func, args, kwargs, on_open=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        if on_open is not None:
            args, kwargs = on_open(span_id, args, kwargs)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, bucket, threading.get_ident(), t0, t1))

    def _add(self, increments):
        with self._lock:
            self.counts.update(increments)

    def _wrap(self, name, bucket, func, hook):
        signature = inspect.signature(func)

        def on_open(span_id, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._add(hook(bound.arguments))
            if name != "run_chunked":
                return args, kwargs
            kernel = bound.arguments["kernel"]
            kernel_bucket = KERNEL_BUCKETS.get(kernel.__qualname__.split(".")[0], "montecarlo.kernel")
            chunks = math.ceil(int(bound.arguments["n_draws"]) / int(bound.arguments["chunk_size"]))
            threads = int(bound.arguments["n_threads"])
            self.pools[span_id] = min(threads, chunks) if threads > 1 and chunks > 1 else 1

            def traced_kernel(*kargs):
                return self._call(kernel.__qualname__, kernel_bucket, kernel, kargs, {})

            bound.arguments["kernel"] = traced_kernel
            return bound.args, bound.kwargs

        def wrapper(*args, **kwargs):
            return self._call(name, bucket, func, args, kwargs, on_open if hook else None)

        wrapper.__wrapped__ = func
        return wrapper

    # -- install ----------------------------------------------------------

    def install(self):
        hooks = _counter_hooks()
        homes = {short: importlib.import_module("nestlogit." + short) for short in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "nestlogit" or n.startswith("nestlogit.")]
        for short, functions in LAYERS.items():
            home = homes[short]
            for name, bucket in functions.items():
                func = getattr(home, name)
                wrapper = self._wrap(name, bucket, func, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, func))

    def uninstall(self):
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        durations = {s[0]: s[6] - s[5] for s in self.spans}
        children = defaultdict(float)
        for span_id, parent, *_ in self.spans:
            if parent is not None:
                children[parent] += durations[span_id]
        self_time = defaultdict(float)
        kernel_busy = 0.0
        for span_id, _, name, bucket, *_ in self.spans:
            self_time[bucket] += durations[span_id] - children[span_id]
            if ".<locals>." in name:
                kernel_busy += durations[span_id]
        out = {metric: self_time[bucket] for metric, bucket in SELF_TIMES.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        # run_chunked is reported inclusive: with worker threads its own
        # thread only waits, so self time would just be the kernels' wall.
        out["montecarlo.run_chunked_s"] = sum(durations[i] for i in self.pools)
        capacity = sum(durations[i] * threads for i, threads in self.pools.items())
        out["montecarlo.thread_busy_share"] = kernel_busy / capacity if capacity else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)
