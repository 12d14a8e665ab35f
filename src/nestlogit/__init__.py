"""Nested logit choice models on nest trees.

The package provides three views of the same model and the glue between
them: exact analytics on arbitrary nest trees (joint noise CDF, choice
probabilities, inclusive values and their gradient), an exact simulator
that builds the correlated noise from shared positive stable factors, and
the closed-form correlation of Frechet margins under a Gumbel copula.
A small CLI (`nestlogit`) exposes the same operations on JSON model files.
"""

from .copula import frechet_corr, frechet_pair_sample, mc_frechet_corr
from .distributions import (
    EULER_GAMMA,
    eta_moments,
    gumbel_sample,
    stable_density_half,
    stable_density_series,
    stable_log_sample,
    stable_moment,
    stable_sample,
    stable_survival_series,
)
from .errors import (
    ConvergenceError,
    CycleError,
    DomainError,
    DuplicateIdError,
    EmptyNestError,
    InvalidModelError,
    LambdaRangeError,
    ModelFileError,
    NestLogitError,
    NotALeafError,
    NotANestError,
    OrphanNodeError,
    PrecisionLossWarning,
    RootHasNoParentError,
    RootLambdaError,
    ShapeError,
    UnknownNodeError,
    UtilityError,
)
from .model import (
    ModelSpec,
    backward_utils,
    cdf,
    choice_probs,
    choice_probs_single_layer,
    emax,
    emax_gradient,
    forward_probs,
    log_odds,
    make_model,
    with_utilities,
)
from .modelfile import load_model, loads_model, model_to_doc, save_model
from .montecarlo import EstimateWithError
from .random_models import random_model, random_single_layer_model
from .simulate import (
    SampleBatch,
    mc_cdf,
    mc_choice_probs,
    mc_correlation,
    mc_emax,
    mixed_logit_probs,
    sample_epsilon,
)
from .streams import SeededStream
from .tree import (
    Arborescence,
    build,
    descendant_leaves,
    from_nested,
    lca,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
