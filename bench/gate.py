"""Correctness gate applied to the outcome of every benchmark operation.

Each check takes an Outcome and a per-pass context dict and raises Reject
when the program's output is wrong. The rules:

- Analytic results must match the references in reference.json, which
  were recorded from the program, to 1e-12 (absolute, per number).
- Stable densities are compared with references from outside the
  program: the lambda = 1/2 closed form and Kanter's integral evaluated
  with scipy.integrate.quad (see record_reference.py), to 1e-8 relative.
- Monte Carlo frequencies get an exact two-sided binomial test and
  averages of [0, 1] variables a Hoeffding bound, both Bonferroni
  corrected over the estimates of one operation to a family-wise level
  ALPHA. A correct program therefore fails an op with probability at
  most 1e-7.
- Correlation estimates have no exact finite-sample test. They must lie
  within CORR_BAND/sqrt(n) of the exact value; the standard deviation of
  sqrt(n)*(r - rho) measured over 150 seeds at n = 20000 was at most
  0.98 for every pair shape used here, so the band is about 8 of them.
- A Python traceback on stderr is always a rejection, and a --threads 2
  run must print exactly the bytes of its --threads 1 twin.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

ALPHA = 1e-7
TOL = 1e-12
DENSITY_RTOL = 1e-8
CORR_BAND = 8.0
TRACEBACK = "Traceback (most recent call last)"


class Reject(Exception):
    """The gate refuses an operation's outcome."""


@dataclass
class Outcome:
    """What one operation produced: exit code (None when a library call
    raised), captured output, the library return value and its cost."""

    rc: int | None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    seconds: float = 0.0
    rss_mb: float = 0.0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Reject(message)


def report(out: Outcome, rcs=(0,)) -> dict:
    """Parse a CLI report after checking stderr and the exit code."""
    require(TRACEBACK not in out.stderr, "traceback on stderr")
    require(out.rc in rcs, f"exit code {out.rc}, expected one of {rcs}: {out.stderr.strip()[-200:]}")
    try:
        return json.loads(out.stdout)
    except ValueError:
        raise Reject("stdout is not a JSON report") from None


def close(actual, expected, tol: float = TOL, where: str = "$") -> None:
    """Structural equality with numbers compared to an absolute tolerance."""
    if isinstance(expected, dict):
        require(isinstance(actual, dict), f"{where}: expected an object")
        require(set(actual) == set(expected), f"{where}: keys {sorted(set(actual) ^ set(expected))[:5]} differ")
        for key in expected:
            close(actual[key], expected[key], tol, f"{where}.{key}")
    elif isinstance(expected, list):
        require(isinstance(actual, list) and len(actual) == len(expected), f"{where}: list length differs")
        for i, (a, e) in enumerate(zip(actual, expected)):
            close(a, e, tol, f"{where}[{i}]")
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        require(actual == expected, f"{where}: {actual!r} != {expected!r}")
    else:
        require(
            isinstance(actual, (int, float)) and not isinstance(actual, bool)
            and abs(actual - expected) <= tol,
            f"{where}: {actual!r} differs from reference {expected!r}",
        )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _clip(p: float) -> float:
    return min(max(p, 1e-300), 1.0 - 1e-16)


def count_bounds(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Acceptance interval [lo, hi] for a Binomial(n, p) count at two-sided
    level alpha."""
    p = _clip(p)
    return int(binom.ppf(alpha / 2, n, p)), int(binom.isf(alpha / 2, n, p))


def check_counts(estimates: dict, probs: dict, n: int, what: str) -> None:
    """Exact binomial test of every frequency estimate, Bonferroni over
    the estimates."""
    require(set(estimates) == set(probs), f"{what}: estimate keys differ from the leaf set")
    alpha = ALPHA / len(probs)
    for key, value in estimates.items():
        count = round(value * n)
        require(abs(count - value * n) < 1e-6, f"{what}[{key}]: {value!r} is not a count over {n}")
        lo, hi = count_bounds(n, probs[key], alpha)
        require(lo <= count <= hi, f"{what}[{key}]: count {count} outside [{lo}, {hi}] for p={probs[key]!r}")


def z_threshold(n: int, probs, alpha: float) -> float:
    """Largest |z| = |p_hat - p|/sqrt(p(1-p)/n) inside the exact binomial
    acceptance intervals of the given probabilities, each at level alpha."""
    worst = 0.0
    for p in probs:
        lo, hi = count_bounds(n, p, alpha)
        sigma = math.sqrt(_clip(p) * (1.0 - _clip(p)) * n)
        worst = max(worst, (hi - n * p) / sigma, (n * p - lo) / sigma)
    return worst


def hoeffding(n: int, k: int) -> float:
    """Half-width that k means of n draws of [0, 1] variables all stay
    within, except with probability ALPHA."""
    return math.sqrt(math.log(2 * k / ALPHA) / (2 * n))


def corr_band(n: int) -> float:
    return CORR_BAND / math.sqrt(n)


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------------------
# checks for CLI reports
# ---------------------------------------------------------------------------

def analytic(reference: dict):
    """The whole report matches the recorded one."""
    def check(out, ctx):
        close(report(out), reference)
    return check


def _stochastic_header(rep: dict, seed: int, command: str) -> dict:
    require(rep.get("command") == command, f"command {rep.get('command')!r} != {command!r}")
    require(rep.get("seed") == seed, f"seed {rep.get('seed')!r} != {seed}")
    return rep["results"]


def mc_probs(probs: dict, n: int, seed: int):
    """`probs --method mc`: exact binomial test per leaf, binomial errors."""
    def check(out, ctx):
        res = _stochastic_header(report(out), seed, "probs")
        require(res["n_draws"] == n, "n_draws echo")
        check_counts(res["probabilities"], probs, n, "probabilities")
        for leaf, p in res["probabilities"].items():
            se = math.sqrt(p * (1.0 - p) / n)
            require(abs(res["std_errors"][leaf] - se) <= 1e-12 + 1e-9 * se, f"std_error of {leaf}")
    return check


def mixed_probs(probs: dict, n: int, seed: int):
    """`probs --method mixed`: averages of softmax vectors, Hoeffding."""
    def check(out, ctx):
        res = _stochastic_header(report(out), seed, "probs")
        require(res["n_draws"] == n, "n_draws echo")
        est = res["probabilities"]
        require(set(est) == set(probs), "leaf set differs")
        half = hoeffding(n, len(probs))
        for leaf, p in probs.items():
            require(abs(est[leaf] - p) <= half, f"{leaf}: {est[leaf]!r} vs {p!r} beyond {half:.3g}")
        require(abs(sum(est.values()) - 1.0) <= 1e-9, "mixed estimates do not sum to 1")
    return check


def verify(probs: dict, cdf_probs: list, n: int, seed: int):
    """`verify`: its exact checks must pass; its Monte Carlo checks are
    re-judged with this gate's own levels instead of its 3-sigma exit code."""
    deterministic = {"leaf-probability-simplex", "hierarchy-consistency", "emax-gradient-is-choice-probability"}
    z_checks = {
        "mc-choice-probabilities": z_threshold(n, probs.values(), ALPHA / (2 * len(probs))),
        "joint-cdf": z_threshold(n, cdf_probs, ALPHA / (2 * len(cdf_probs))),
    }

    def check(out, ctx):
        res = _stochastic_header(report(out, rcs=(0, 2)), seed, "verify")
        names = {c["name"] for c in res["checks"]}
        require(deterministic | set(z_checks) | {"lca-correlations"} <= names, f"checks missing from {sorted(names)}")
        for c in res["checks"]:
            if c["name"] in deterministic:
                require(c["passed"], f"{c['name']} failed: {c['observed']!r}")
            elif c["name"] in z_checks:
                limit = z_checks[c["name"]]
                require(c["observed"] <= limit * (1 + 1e-9), f"{c['name']}: z {c['observed']:.3f} > {limit:.3f}")
            elif c["name"] == "lca-correlations":
                require(c["observed"] <= corr_band(n), f"lca-correlations: gap {c['observed']:.4f}")
    return check


def sample_csv(leaves: list, n: int, seed: int, bounds: dict, joint_p: float, path: str):
    """`sample --out`: the CSV holds n rows of finite noise over the leaf
    columns; each column's frequency of eps <= 0 is exp(-1) (standard
    Gumbel margins) and the joint frequency of eps <= bounds is the
    analytic CDF there, both by exact binomial test. The file digest is
    kept so that the --threads 2 twin can be compared byte for byte."""
    def check(out, ctx):
        res = _stochastic_header(report(out), seed, "sample")
        require(res["n_draws"] == n and res["leaf_order"] == leaves, "sample echo")
        ctx["digest:" + path] = file_digest(path)
        check_noise_file(path, leaves, n, bounds, joint_p)
    return check


def check_noise_file(path: str, leaves: list, n: int, bounds: dict, joint_p: float) -> None:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        require(header == leaves, "CSV header is not the leaf order")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    require(data.shape == (n, len(leaves)), f"CSV shape {data.shape}")
    require(bool(np.isfinite(data).all()), "CSV holds non-finite noise")
    alpha = ALPHA / (len(leaves) + 1)
    lo, hi = count_bounds(n, math.exp(-1.0), alpha)
    below = (data <= 0.0).sum(axis=0)
    require(bool(((below >= lo) & (below <= hi)).all()), "a column's share of eps <= 0 is not exp(-1)")
    limit = np.array([bounds[leaf] for leaf in leaves])
    hits = int((data <= limit).all(axis=1).sum())
    lo, hi = count_bounds(n, joint_p, alpha)
    require(lo <= hits <= hi, f"joint frequency {hits}/{n} vs CDF {joint_p!r}")


def same_output(first: str, check, files=()):
    """The --threads 2 twin: its own check plus byte-identical stdout (and
    output files) to the --threads 1 run named ``first``."""
    def twin(out, ctx):
        check(out, ctx)
        require(out.stdout == ctx[first].stdout, "--threads 2 stdout differs from --threads 1")
        for path in files:
            require(ctx.pop("digest:" + path) == ctx["first-digest:" + path], f"--threads 2 {path} differs")
    return twin


def remember_files(check, files):
    """Keep the --threads 1 run's output digests for its twin."""
    def first(out, ctx):
        check(out, ctx)
        for path in files:
            ctx["first-digest:" + path] = ctx["digest:" + path]
    return first


def stable_sample(n: int, seed: int):
    def check(out, ctx):
        draws = _stochastic_header(report(out), seed, "stable sample")["draws"]
        require(len(draws) == n and all(math.isfinite(d) and d > 0.0 for d in draws), "draws are not n positive numbers")
    return check


def laplace(lam: float, t: float, n: int, seed: int):
    """`stable laplace`: exp(-t Z) lies in [0, 1], so Hoeffding applies."""
    exact = math.exp(-(t**lam))

    def check(out, ctx):
        res = _stochastic_header(report(out), seed, "stable laplace")
        require(abs(res["exact"] - exact) <= TOL, "exact transform")
        require(res["n_draws"] == n, "n_draws echo")
        require(abs(res["estimate"] - exact) <= hoeffding(n, 1), f"estimate {res['estimate']!r} vs {exact!r}")
    return check


def density(reference: float):
    def check(out, ctx):
        value = report(out)["results"]["density"]
        require(value > 0.0, f"density {value!r} is not positive")
        require(abs(value - reference) <= DENSITY_RTOL * reference, f"density {value!r} vs {reference!r}")
    return check


def frechet(reference: float, n: int, seed: int):
    def check(out, ctx):
        res = _stochastic_header(report(out), seed, "frechet-corr")
        require(abs(res["correlation"] - reference) <= TOL, "closed form")
        require(res["n_draws"] == n, "n_draws echo")
        require(abs(res["mc_estimate"] - reference) <= corr_band(n), f"mc_estimate {res['mc_estimate']!r} vs {reference!r}")
    return check


def clean_error(mention: str):
    """A bad argument must exit 1 with a message that names it."""
    def check(out, ctx):
        require(TRACEBACK not in out.stderr, "traceback on stderr")
        require(out.rc == 1, f"exit code {out.rc}, expected 1")
        require(mention in out.stderr, f"message does not mention {mention!r}")
    return check


def grad_check(probs: dict, tol: float = 1e-6):
    """`grad-check`: analytic part exact; finite differences only within
    the command's own tolerance, since their rounding may change."""
    def check(out, ctx):
        res = report(out)["results"]
        close(res["analytic"], probs)
        fd = res["finite_difference"]
        require(set(fd) == set(probs), "finite-difference leaf set")
        worst = max(abs(fd[leaf] - p) for leaf, p in probs.items())
        require(worst <= tol and res["passed"] and res["max_abs_diff"] <= tol, f"finite differences off by {worst:.3g}")
    return check


# ---------------------------------------------------------------------------
# checks for library calls
# ---------------------------------------------------------------------------

def returned(out: Outcome):
    require(TRACEBACK not in out.stderr, "traceback: " + out.stderr.strip()[-200:])
    require(out.rc == 0, "call raised")
    return out.value


def value_close(reference, tol: float = TOL):
    def check(out, ctx):
        close(returned(out), reference, tol)
    return check


def library_counts(probs: dict, n: int):
    """mc_choice_probs: exact binomial test per leaf."""
    def check(out, ctx):
        est = returned(out)
        require(all(e.n_draws == n for e in est.values()), "n_draws")
        check_counts({k: e.value for k, e in est.items()}, probs, n, "mc_choice_probs")
    return check


def library_corr(rho: float, n: int):
    def check(out, ctx):
        est = returned(out)
        require(est.n_draws == n and abs(est.value - rho) <= corr_band(n), f"correlation {est.value!r} vs {rho!r}")
    return check
