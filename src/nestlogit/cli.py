"""Command line front end.

Every command reads a model file (where one applies), computes, and prints
a single JSON report to stdout: command name, echoed inputs, seed (for
stochastic commands), results, and the tool version. Output is
deterministic byte for byte for a given seed; worker-thread count changes
scheduling only and is therefore not echoed into the report.

Exit codes: 0 success, 1 usage or validation or I/O failure (diagnostic on
stderr), 2 a verification check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .copula import frechet_corr, mc_frechet_corr
from .distributions import (
    PrecisionLossWarning,
    stable_density_half,
    stable_density_series,
    stable_moment,
    stable_sample,
)
from .errors import DomainError, NestLogitError
from .model import (
    ModelSpec,
    backward_utils,
    cdf,
    choice_probs,
    emax,
    with_utilities,
)
from .modelfile import load_model
from .montecarlo import mean_with_error
from .simulate import mc_choice_probs, mixed_logit_probs, sample_epsilon
from .streams import SeededStream
from .verify import finite_difference_gradient, run_checks

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # failed verification here, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _thread_count(text: str) -> int:
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        for line in _pretty_lines(report, 0):
            print(line)
    else:
        print(json.dumps(report, indent=2, sort_keys=True, default=_jsonable))


def _pretty_lines(obj, depth):
    pad = "  " * depth
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _pretty_lines(value, depth + 1)
            else:
                yield f"{pad}{key}: {value!r}" if isinstance(value, str) else f"{pad}{key}: {value}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _pretty_lines(value, depth + 1)
                yield ""
            else:
                yield f"{pad}- {value}"
    else:
        yield f"{pad}{obj}"


def _parse_pairs(entries, what: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for entry in entries or []:
        if "=" not in entry:
            raise DomainError(f"{what} {entry!r} is not of the form leaf=value")
        key, _, raw = entry.partition("=")
        try:
            values[key] = float(raw)
        except ValueError:
            raise DomainError(f"{what} {entry!r} has a non-numeric value") from None
    return values


def _load(args) -> ModelSpec:
    model = load_model(args.path)
    overrides = _parse_pairs(getattr(args, "utilities", None), "utility override")
    if overrides:
        model = with_utilities(model, overrides)
    return model


def _report(args, results: dict, seed: int | None = None) -> dict:
    inputs = {}
    for key in ("path", "method", "draws", "node", "all", "out", "lam", "alpha", "x", "t", "kappa", "tol", "mc", "step"):
        value = getattr(args, key, None)
        if value is None or (isinstance(value, bool) and not value):
            continue
        inputs["lambda" if key == "lam" else key] = value
    if getattr(args, "utilities", None):
        inputs["utilities"] = _parse_pairs(args.utilities, "utility override")
    if getattr(args, "at", None):
        inputs["at"] = _parse_pairs(args.at, "bound")
    report = {
        "command": args.command if args.command != "stable" else f"stable {args.stable_command}",
        "tool_version": __version__,
        "inputs": inputs,
        "results": results,
    }
    if seed is not None:
        report["seed"] = seed
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    model = _load(args)
    tree, met = model.tree, model.metrics
    nests = {
        nest: {
            "lambda": tree.lam[nest],
            "big_lambda": met.big_lambda[nest],
            "depth": met.depth[nest],
            "n_children": len(tree.children[nest]),
        }
        for nest in tree.nests
    }
    results = {
        "valid": True,
        "n_nodes": len(tree.nodes),
        "n_nests": len(tree.nests),
        "n_leaves": len(tree.leaves),
        "height": met.height[tree.root],
        "leaves": list(tree.leaves),
        "nests": nests,
    }
    _emit(_report(args, results), args.pretty)
    return 0


def _cmd_probs(args) -> int:
    model = _load(args)
    if args.method == "analytic":
        args.draws = None  # unused; keep it out of the echoed inputs
        probs = choice_probs(model)
        results = {"method": "analytic", "probabilities": probs}
        _emit(_report(args, results), args.pretty)
        return 0
    stream = SeededStream(args.seed)
    if args.method == "mc":
        estimates = mc_choice_probs(model, stream, args.draws, n_threads=args.threads)
    else:
        estimates = mixed_logit_probs(model, stream, args.draws)
    results = {
        "method": args.method,
        "probabilities": {leaf: est.value for leaf, est in estimates.items()},
        "std_errors": {leaf: est.std_error for leaf, est in estimates.items()},
        "n_draws": args.draws,
    }
    _emit(_report(args, results, seed=args.seed), args.pretty)
    return 0


def _cmd_emax(args) -> int:
    model = _load(args)
    if args.all:
        u = backward_utils(model)
        results = {"inclusive_values": {node: u[node] for node in model.tree.nodes}}
    else:
        results = {"node": args.node or model.tree.root, "emax": emax(model, args.node)}
    _emit(_report(args, results), args.pretty)
    return 0


def _cmd_sample(args) -> int:
    model = _load(args)
    stream = SeededStream(args.seed)
    batch = sample_epsilon(model, stream, args.draws, n_threads=args.threads)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(batch.leaf_order) + "\n")
            np.savetxt(handle, batch.draws, fmt="%.17g", delimiter=",", newline="\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    results = {"out": args.out, "n_draws": args.draws, "leaf_order": list(batch.leaf_order)}
    _emit(_report(args, results, seed=args.seed), args.pretty)
    return 0


def _cmd_stable(args) -> int:
    lam = args.lam
    if args.stable_command == "sample":
        stream = SeededStream(args.seed)
        draws = stable_sample(stream, lam, size=args.draws)
        results = {"draws": list(map(float, draws))}
        _emit(_report(args, results, seed=args.seed), args.pretty)
        return 0
    if args.stable_command == "density":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PrecisionLossWarning)
            value = stable_density_series(lam, args.x, tol=args.tol)
        results = {
            "density": value,
            "precision_loss": any(issubclass(w.category, PrecisionLossWarning) for w in caught),
        }
        if lam == 0.5:
            results["closed_form"] = stable_density_half(args.x)
        _emit(_report(args, results), args.pretty)
        return 0
    if args.stable_command == "moment":
        results = {"moment": stable_moment(lam, args.kappa)}
        _emit(_report(args, results), args.pretty)
        return 0
    # laplace: empirical E[exp(-t Z)] against the exact exp(-t^lambda)
    stream = SeededStream(args.seed)
    draws = stable_sample(stream, lam, size=args.draws)
    est = mean_with_error(np.exp(-args.t * draws))
    exact = math.exp(-args.t**lam)
    results = {
        "estimate": est.value,
        "std_error": est.std_error,
        "exact": exact,
        "n_draws": args.draws,
    }
    _emit(_report(args, results, seed=args.seed), args.pretty)
    return 0


def _cmd_grad_check(args) -> int:
    model = _load(args)
    analytic = choice_probs(model)
    numeric = finite_difference_gradient(model, args.step)
    worst = max(abs(analytic[leaf] - numeric[leaf]) for leaf in model.tree.leaves)
    passed = worst <= args.tol
    results = {
        "analytic": analytic,
        "finite_difference": numeric,
        "max_abs_diff": worst,
        "passed": passed,
    }
    _emit(_report(args, results), args.pretty)
    return 0 if passed else 2


def _cmd_cdf(args) -> int:
    model = _load(args)
    bounds = _parse_pairs(args.at, "bound")
    results = {"cdf": cdf(model, bounds)}
    _emit(_report(args, results), args.pretty)
    return 0


def _cmd_verify(args) -> int:
    model = _load(args)
    stream = SeededStream(args.seed)
    checks = run_checks(model, stream, n_draws=args.draws, n_threads=args.threads)
    all_passed = all(c.passed for c in checks)
    results = {"checks": [asdict(c) for c in checks], "all_passed": all_passed}
    _emit(_report(args, results, seed=args.seed), args.pretty)
    return 0 if all_passed else 2


def _cmd_frechet_corr(args) -> int:
    exact = frechet_corr(args.alpha, args.lam)
    results = {"correlation": exact}
    seed = None
    if args.mc:
        seed = args.seed
        est = mc_frechet_corr(SeededStream(seed), args.alpha, args.lam, args.mc, n_threads=args.threads)
        results["mc_estimate"] = est.value
        results["mc_std_error"] = est.std_error
        results["n_draws"] = args.mc
    _emit(_report(args, results, seed=seed), args.pretty)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="nestlogit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, stochastic=False, draws_default=100_000):
        if model:
            p.add_argument("path", help="model file (JSON)")
            p.add_argument(
                "--utilities",
                action="append",
                metavar="LEAF=VALUE",
                help="override a leaf utility; repeatable",
            )
        if stochastic:
            p.add_argument("--draws", type=int, default=draws_default, help="number of draws")
            p.add_argument("--seed", type=int, default=0, help="random seed (echoed in the report)")
            p.add_argument("--threads", type=_thread_count, default=1, help="worker threads; never changes output")
        p.add_argument("--pretty", action="store_true", help="human-readable text instead of JSON")

    p = sub.add_parser("validate", help="parse and validate a model file, print its metrics")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("probs", help="leaf choice probabilities")
    p.add_argument("--method", choices=("analytic", "mc", "mixed"), default="analytic")
    common(p, stochastic=True)
    p.set_defaults(func=_cmd_probs)

    p = sub.add_parser("emax", help="inclusive value (expected maximum net of the Euler constant)")
    p.add_argument("--node", help="nest whose subtree to evaluate (default: root)")
    p.add_argument("--all", action="store_true", help="print every node's inclusive value")
    common(p)
    p.set_defaults(func=_cmd_emax)

    p = sub.add_parser("sample", help="draw noise vectors and write them to CSV")
    p.add_argument("--out", required=True, help="output CSV path (header = leaf ids)")
    common(p, stochastic=True, draws_default=1000)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stable", help="positive stable distribution utilities")
    stable_sub = p.add_subparsers(dest="stable_command", required=True)

    q = stable_sub.add_parser("sample", help="draw from P(lambda)")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    common(q, model=False, stochastic=True, draws_default=10)
    q.set_defaults(func=_cmd_stable)

    q = stable_sub.add_parser("density", help="density by series; closed form included at lambda = 1/2")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--tol", type=float, default=1e-12)
    common(q, model=False)
    q.set_defaults(func=_cmd_stable)

    q = stable_sub.add_parser("moment", help="fractional moment E[Z^kappa], 0 < kappa < lambda")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--kappa", type=float, required=True)
    common(q, model=False)
    q.set_defaults(func=_cmd_stable)

    q = stable_sub.add_parser("laplace", help="Monte Carlo Laplace transform against exp(-t^lambda)")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--t", type=float, required=True)
    common(q, model=False, stochastic=True, draws_default=1_000_000)
    q.set_defaults(func=_cmd_stable)

    p = sub.add_parser("grad-check", help="choice probabilities against finite differences of the inclusive value (exit 2 on mismatch)")
    p.add_argument("--step", type=float, default=1e-5, help="central-difference step")
    p.add_argument("--tol", type=float, default=1e-6, help="max allowed |analytic - finite difference|")
    common(p)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("cdf", help="joint noise CDF at a leaf bound vector")
    p.add_argument(
        "--at",
        action="append",
        required=True,
        metavar="LEAF=VALUE",
        help="bound for one leaf; repeat to cover every leaf",
    )
    common(p)
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("verify", help="run analytic/simulation consistency checks (exit 2 on failure)")
    common(p, stochastic=True, draws_default=50_000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("frechet-corr", help="Gumbel-coupled Frechet correlation, closed form and optional MC")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mc", type=int, metavar="DRAWS", help="also estimate by simulation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=1)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_frechet_corr)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NestLogitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
