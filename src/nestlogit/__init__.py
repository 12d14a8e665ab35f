"""Nested logit choice models on nest trees.

The package provides three views of the same model and the glue between
them: exact analytics on arbitrary nest trees (joint noise CDF, choice
probabilities, inclusive values and their gradient), an exact simulator
that builds the correlated noise from shared positive stable factors, and
the closed-form correlation of Frechet margins under a Gumbel copula.
A small CLI (`nestlogit`) exposes the same operations on JSON model files.

The analytic core (`errors`, `tree`, `model`, `modelfile`) is pure Python
and loads with the package, which re-exports each core module's `__all__`
(every public class of `errors`). Every other name (the stable law, samplers,
Monte Carlo estimators, checks, the copula, random models) and every other
submodule resolves on first use, so code that only evaluates models never
imports numpy.
"""

from importlib import import_module as _import_module

from .errors import *
from .model import *
from .modelfile import *
from .tree import *

__version__ = "0.1.0"

# Submodule -> the names the package serves from it on first use.
_LAZY = {
    "copula": ("frechet_corr", "frechet_pair_sample", "mc_frechet_corr"),
    "distributions": (
        "EULER_GAMMA",
        "eta_moments",
        "gumbel_sample",
        "stable_density_half",
        "stable_density_series",
        "stable_log_sample",
        "stable_moment",
        "stable_sample",
        "stable_survival_series",
    ),
    "montecarlo": ("EstimateWithError",),
    "random_models": ("random_model", "random_single_layer_model"),
    "simulate": (
        "SampleBatch",
        "mc_cdf",
        "mc_choice_probs",
        "mc_correlation",
        "mc_emax",
        "mixed_logit_probs",
        "sample_epsilon",
    ),
    "streams": ("SeededStream",),
    "verify": ("CheckResult", "run_checks"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# The eager names and submodules bound above, then the lazy ones.
__all__ = sorted([name for name in globals() if not name.startswith("_")] + [*_LAZY, *_HOME])


def __getattr__(name):
    if name in _LAZY:  # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
