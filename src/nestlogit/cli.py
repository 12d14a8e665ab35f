"""Command line front end.

Every command reads a model file (where one applies), computes, and returns
its results; main prints them as a single JSON report to stdout: command
name, echoed inputs, seed (when draws were made), results, and the tool
version. Output is
deterministic byte for byte for a given seed; worker-thread count changes
scheduling only and is therefore not echoed into the report.

Exit codes: 0 success, 1 usage or validation or I/O failure (diagnostic on
stderr), 2 a verification check failed.

`--at` and `--utilities` take one LEAF=VALUE each and are repeated once
per leaf, so `cdf` on an n-leaf tree takes n flags; a leaf named twice
exits 1. The parser gives argparse's results, but parses those repeats in
time linear in their number, where argparse alone is quadratic.

Nothing is kept from one call of main to the next, so each call pays only
for what its command needs. It builds the subparser of the command its
first argument names and no other; help, --version and any usage error
go to the full parser, so their output lists every command. The report
is encoded by json's C encoder, one call per container of scalars (see
_dumps), and reads byte for byte as json.dumps(indent=2) would write it.

Each command imports the samplers it draws with when it runs, so
`validate`, `emax`, `cdf`, analytic `probs`, `grad-check`,
`stable density`, `stable moment` and `frechet-corr` without `--mc`
never import numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
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

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors exiting 1 and a linear-time parse of
    repeated one-value append flags (--at, --utilities)."""

    def __init__(self, *args, **kwargs):
        self._repeatable: dict[str, argparse.Action] = {}  # flag -> its append action
        self._commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if kwargs.get("action") == "append" and kwargs.get("nargs") is None:
            self._repeatable.update(dict.fromkeys(action.option_strings, action))
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self._commands = action.choices
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse (CPython 3.10-3.12) scans every option's position once per
        # option, so n repeats of --at cost O(n^2). An exact "--flag VALUE"
        # that directly follows an exact "--at|--utilities VALUE", and is
        # not the flag's first occurrence, is taken out before the parse and
        # put back in its place after it: every token left keeps its kind and
        # its neighbours', so argparse makes the same choices and errors.
        # Tokens after "--" are not options, and an abbreviation (--a,
        # --util=x) leaves the whole list to argparse. A command named first
        # takes every later token, so the top level does this for it.
        args = sys.argv[1:] if args is None else list(args)
        start, repeatable = 0, self._repeatable
        if args and args[0] in self._commands:
            start, repeatable = 1, self._commands[args[0]]._repeatable
        if not repeatable:
            return super().parse_known_args(args, namespace)
        kept, slots = args[:start], {}  # per action: None for a kept occurrence, else a taken value
        i = start
        while i < len(args) and args[i] != "--":
            token = args[i]
            head = token.partition("=")[0]
            action = repeatable.get(head)
            if action is None:
                if token.startswith("--") and any(flag.startswith(head) for flag in repeatable):
                    return super().parse_known_args(args, namespace)
            elif (token in repeatable and action in slots and i - 2 >= start and args[i - 2] in repeatable
                  and not args[i - 1].startswith("-") and i + 1 < len(args)
                  and not args[i + 1].startswith("-")):
                slots[action].append(args[i + 1])
                i += 2
                continue
            else:
                slots.setdefault(action, []).append(None)
            kept.append(token)
            i += 1
        namespace, extras = super().parse_known_args(kept + args[i:], namespace)
        for action, taken in slots.items():  # each kept occurrence added one value
            kept_values = iter(getattr(namespace, action.dest))
            setattr(namespace, action.dest, [next(kept_values) if v is None else v for v in taken])
        return namespace, extras

    # argparse exits 2 on usage errors by default; 2 is reserved for
    # failed verification here, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(low: int, high: float = math.inf):
    """argparse type for an integer in [low, high), checked at parse time so
    that the message names the flag even where the value goes unused."""
    def parse(text: str) -> int:
        if not (text.strip().removeprefix("-").isdecimal() and low <= int(text) < high):
            raise argparse.ArgumentTypeError(f"must be an integer in [{low}, {high}), got {text!r}")
        return int(text)
    return parse


def _real(ok, requirement: str):
    """argparse type for a finite float with ok(value), checked at parse time."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number {requirement}, got {text!r}")
        return value
    return parse


_NONNEGATIVE = _real(lambda v: v >= 0.0, ">= 0")
_POSITIVE = _real(lambda v: v > 0.0, "> 0")
_CONTAINERS = (dict, list, tuple)


def _emit(report: dict, pretty: bool) -> None:
    """Print the report, in either format only if every number in it is
    finite: strict JSON has no NaN or Infinity."""
    try:
        text = _dumps(report, "\n")
    except ValueError:
        where, value = _first_nonfinite(report, "")
        raise DomainError(f"{where} is {value}; a report holds finite numbers only") from None
    if pretty:
        for line in _pretty_lines(report, 0):
            print(line)
    else:
        print(text)


def _dumps(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False), byte for
    byte, where every dict key is a string; pad is the line break and indent
    that close obj. Any indent sends CPython 3.10-3.12 to its pure-Python
    encoder, so each scalar or container of scalars is one C-encoder call
    with the line break in its item separator, and only the levels that
    hold containers are joined here."""
    inner = pad + "  "
    if isinstance(obj, dict) and any(isinstance(value, _CONTAINERS) for value in obj.values()):
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(key)}: {_dumps(obj[key], inner)}" for key in sorted(obj)) + pad + "}"
    if isinstance(obj, (list, tuple)) and any(isinstance(value, _CONTAINERS) for value in obj):
        return "[" + inner + ("," + inner).join(_dumps(value, inner) for value in obj) + pad + "]"
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=("," + inner, ": "))
    if isinstance(obj, _CONTAINERS) and obj:
        return text[0] + inner + text[1:-1] + pad + text[-1]
    return text


def _first_nonfinite(obj, where: str):
    """(field path, value) of the first NaN or infinity in obj, keys in
    sorted order as printed, or None if there is none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (where, obj)
    if isinstance(obj, dict):
        fields = ((f"{where}.{key}" if where else key, obj[key]) for key in sorted(obj))
    elif isinstance(obj, list):
        fields = ((f"{where}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    return next(filter(None, (_first_nonfinite(value, path) for path, value in fields)), None)


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
    else:  # a list
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _pretty_lines(value, depth + 1)
                yield ""
            else:
                yield f"{pad}- {value}"


def _parse_pairs(entries, flag: str, what: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for entry in entries or []:
        if "=" not in entry:
            raise DomainError(f"{what} {entry!r} is not of the form leaf=value")
        key, _, raw = entry.partition("=")
        if key in values:
            raise DomainError(f"{flag} names leaf {key!r} more than once")
        try:
            values[key] = float(raw)
        except ValueError:
            raise DomainError(f"{what} {entry!r} has a non-numeric value") from None
    return values


def _load(args) -> ModelSpec:
    # The parsed overrides replace the raw strings, for the report to echo.
    model = load_model(args.path)
    if args.utilities is not None:
        args.utilities = _parse_pairs(args.utilities, "--utilities", "utility override")
        model = with_utilities(model, args.utilities)
    return model


def _report(args, results: dict) -> dict:
    # Parsed attributes that are not inputs: dispatch, the seed (reported on
    # its own), the thread count (never changes output) and the output format.
    skip = ("command", "stable_command", "func", "seed", "threads", "pretty")
    inputs = {}
    for key, value in vars(args).items():
        if key in skip or value is None or value is False:
            continue
        inputs["lambda" if key == "lam" else key] = value
    report = {
        "command": args.command if args.command != "stable" else f"stable {args.stable_command}",
        "tool_version": __version__,
        "inputs": inputs,
        "results": results,
    }
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> dict:
    model = _load(args)
    tree = model.tree
    nests = {
        nest: {
            "lambda": tree.lam[nest],
            "big_lambda": big_lambda,
            "depth": depth,
            "n_children": len(kids),
        }
        for nest, kids, big_lambda, depth in zip(tree.nests, tree.kids, tree.scale, tree.depth)
    }
    results = {
        "valid": True,
        "n_nodes": len(tree.slot),
        "n_nests": len(tree.nests),
        "n_leaves": len(tree.leaves),
        "height": max(tree.depth),
        "leaves": list(tree.leaves),
        "nests": nests,
    }
    return results


def _cmd_probs(args) -> dict:
    model = _load(args)
    if args.method == "analytic":
        args.draws = args.seed = None  # unused; keep them out of the report
        return {"method": "analytic", "probabilities": choice_probs(model)}
    from .simulate import mc_choice_probs, mixed_logit_probs
    from .streams import SeededStream

    stream = SeededStream(args.seed)
    if args.method == "mc":
        estimates = mc_choice_probs(model, stream, args.draws, n_threads=args.threads)
    elif args.draws < 2:  # the per-leaf means need 2 draws for a standard error
        raise DomainError(f"argument --draws: must be an integer in [2, inf) with --method mixed, got '{args.draws}'")
    else:
        estimates = mixed_logit_probs(model, stream, args.draws, n_threads=args.threads)
    return {
        "method": args.method,
        "probabilities": {leaf: est.value for leaf, est in estimates.items()},
        "std_errors": {leaf: est.std_error for leaf, est in estimates.items()},
        "n_draws": args.draws,
    }


def _cmd_emax(args) -> dict:
    model = _load(args)
    if args.all:  # the report prints keys sorted, so the pass's slot order never shows
        return {"inclusive_values": backward_utils(model)}
    return {"node": args.node or model.tree.root, "emax": emax(model, args.node)}


# A %.17g field as _format_block lays it out; bytes it leaves 0 are deleted.
# head: sign, then the lead "0.", "0.0", ... of exponents -1 to -4, or the
# top digit of a 17-digit whole part; whole: the whole part's four lower
# 4-digit groups, leading zeros 0; point; frac: the fraction's four groups,
# trailing zeros 0; tail: the exponent, if any, and the separator.
_FIELD = [("head", "u8"), ("whole", "u4", 4), ("point", "u1"), ("frac", "u4", 4), ("tail", "u8")]


@functools.cache  # built by the first sample, not at import
def _csv_tables():
    """The tables of _format_block: the field type; hi + lo = 10^(16 - E)
    by E + 251 for E in [-251, 251], hi rounded and lo the rounded rest,
    both worked out in integers, with hi given as the two halves of
    Dekker's split; 10^0 ... 10^16; and the bytes of each field part
    (see _FIELD), one row per value."""
    import numpy as np

    def texts(rows, dtype):  # each row 0-padded to the dtype's size
        size = np.dtype(dtype).itemsize
        return np.frombuffer(b"".join(row.ljust(size, b"\0") for row in rows), dtype)

    his, los = [], []
    for k in range(16 + 251, 16 - 252, -1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            hi = 1 / 10**-k  # int true division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-k) / (den * 10**-k)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    cut = hi * 134217729.0  # 2^27 + 1
    head = cut - (cut - hi)
    groups = [b"%04d" % g for g in range(10_000)]
    return (
        np.dtype(_FIELD), head, hi - head, np.array(los), np.array([10**k for k in range(17)], np.int64),
        texts([sign + lead + top for sign in (b"", b"-") for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
               for top in [b""] + [b"%d" % i for i in range(1, 10)]], np.uint64),
        texts([group.lstrip(b"0") for group in groups] + groups, np.uint32),
        texts([group.rstrip(b"0") for group in groups] + groups, np.uint32),
        texts([row for sep in (b",", b"\n") for row in [b"e%+03d" % e + sep for e in range(-251, 252)] + [sep]],
              np.uint64),
    )


def _format_block(x, width: int) -> str:
    """The floats of x, rows of width, as %.17g; see _write_csv."""
    import numpy as np

    field_type, pow_head, pow_tail, pow_lo, pow10, heads, wholes, fracs, tails = _csv_tables()
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-250) & (a <= 1e250)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # the exponent, or one off next to a power of ten
    row = e + 251
    hh, hl = pow_head.take(row), pow_tail.take(row)
    p = a * (hh + hl)
    cut = a * 134217729.0
    ah = cut - (cut - a)
    al = a - ah
    t = al * hl - (((p - ah * hh) - al * hh) - ah * hl)  # a * hi - p, exactly (Dekker)
    t += a * pow_lo.take(row)
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)  # the mantissa, 17 digits
    t -= r
    fast &= (d >= 10**16 + (t < 0.0)) & (d < 10**17) & (np.abs(t) < 0.5 - 2.0**-30)
    slow = np.flatnonzero(~fast)
    a[slow], e[slow], d[slow] = 1.0, 0, 10**16

    fixed = (e >= -4) & (e <= 16)
    lead = np.where(fixed & (e < 0), -e, 0)  # "0." and -e - 1 zeros before the digits
    shift = np.where(fixed, np.maximum(e, 0), 0)  # digits of the whole part after its first
    # The whole part is the first digit or, in fixed point, the floor of |x|:
    # an ulp of |x| exceeds half the 17th digit, so rounding never carries
    # into it.
    whole = np.where(shift > 0, a, d // 10**16).astype(np.int64)
    frac = (d - whole * pow10.take(16 - shift)) * pow10.take(shift)  # 16 digits, left-aligned
    high = whole // 10**8
    low = (whole - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    top = high // 10**8
    high -= top * 10**8
    field = np.empty(n, field_type)
    field["head"] = heads.take(np.signbit(x) * 50 + lead * 10 + top)
    out = field["whole"]
    q = high // 10_000
    out[:, 0] = wholes.take(q + 10_000 * (whole >= 10**16))
    out[:, 1] = wholes.take(high - q * 10_000 + 10_000 * (whole >= 10**12))
    q = low // 10_000
    out[:, 2] = wholes.take(q + 10_000 * (whole >= 10**8))
    out[:, 3] = wholes.take(low - q * 10_000 + 10_000 * (whole >= 10**4))
    field["point"] = ((frac > 0) & (lead == 0)) * np.uint8(46)
    high = frac // 10**8
    low = (frac - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    out = field["frac"]
    q = high // 10_000
    high -= q * 10_000
    out[:, 0] = fracs.take(q + 10_000 * ((high > 0) | (low > 0)))
    out[:, 1] = fracs.take(high + 10_000 * (low > 0))
    q = low // 10_000
    low -= q * 10_000
    out[:, 2] = fracs.take(q + 10_000 * (low > 0))
    out[:, 3] = fracs.take(low)
    tail = np.where(fixed, 503, row)
    tail[width - 1::width] += 504
    field["tail"] = tails.take(tail)
    raw = field.view(np.uint8).reshape(n, -1)
    for i in slow:
        text = b"%.17g" % x[i]
        raw[i, :-8] = 0  # the tail keeps the separator
        raw[i, :len(text)] = np.frombuffer(text, np.uint8)
    return field.tobytes().translate(None, b"\0").decode("ascii")


def _csv_field(text: str) -> str:
    """text as an RFC 4180 field: quoted, with each inner quote doubled,
    when it holds a comma, a quote, CR or LF, else as it is. (The csv
    module quotes CR only when its line terminator holds one.)"""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(handle, leaf_order, draws) -> None:
    """A header of leaf ids, each an RFC 4180 field, then one line per row
    of draws with each float as %.17g, byte for byte what
    np.savetxt(fmt="%.17g", delimiter=",") writes, formatted in numpy and
    written a block of about 8,192 floats at a time; larger blocks gain
    no speed and peak higher.

    For |x| in [1e-250, 1e250] and E = floor(log10 |x|), the 17 digits
    are D = round(|x| 10^(16 - E)). With hi the rounded 10^(16 - E) and
    lo the rounded rest, Dekker's (1971) split product gives
    |x| hi = p + t' exactly, and t = t' + |x| lo is within 2^-45 of
    |x| 10^(16 - E) - p: the rounding of lo, of |x| lo and of the sum
    each add at most 2^-49 while p < 2^57. So D = p + rint(t), the true
    rounding unless the remainder t - rint(t) lies within 2^-30 of a
    half. A float whose digits that does not prove takes "%.17g" % x:
    +-0, inf and nan; |x| outside [1e-250, 1e250]; an E that log10 got
    one off, which shows as D outside [1e16, 1e17) or as D = 1e16 with a
    negative remainder (the true value just below 1e16 has 17 digits of
    its own); and a remainder that near a tie."""
    handle.write(",".join(map(_csv_field, leaf_order)) + "\n")
    width = len(leaf_order)
    rows_per_block = max(1, 8192 // width)
    for start in range(0, len(draws), rows_per_block):
        block = draws[start:start + rows_per_block]
        handle.write(_format_block(block.ravel(), width))


def _cmd_sample(args) -> dict:
    from .simulate import sample_epsilon
    from .streams import SeededStream

    model = _load(args)
    stream = SeededStream(args.seed)
    batch = sample_epsilon(model, stream, args.draws, n_threads=args.threads)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            _write_csv(handle, batch.leaf_order, batch.draws)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return {"out": args.out, "n_draws": args.draws, "leaf_order": list(batch.leaf_order)}


def _stable_draws(args):
    # Chunked by run_chunked like every sampler, so --threads never changes
    # the draws; the array exists before any draw is made.
    import numpy as np

    from .distributions import _check_lambda, stable_sample
    from .montecarlo import run_chunked
    from .streams import SeededStream

    lam = _check_lambda(args.lam, allow_one=True)  # also at --draws 0
    draws = np.empty(args.draws)

    def kernel(sub: SeededStream, start: int, stop: int) -> None:
        # Silent: _emit names the +inf of an overflow (errstate is per thread)
        with np.errstate(over="ignore"):
            draws[start:stop] = stable_sample(sub, lam, size=stop - start)

    run_chunked(SeededStream(args.seed), args.draws, kernel, n_threads=args.threads)
    return draws


def _cmd_stable(args) -> dict:
    lam = args.lam
    if args.stable_command == "sample":
        return {"draws": list(map(float, _stable_draws(args)))}
    if args.stable_command == "density":
        from .distributions import stable_density_half, stable_density_series

        results = {"density": stable_density_series(lam, args.x), "method": "kanter-integral"}
        if lam == 0.5:
            results["closed_form"] = stable_density_half(args.x)
        return results
    if args.stable_command == "moment":
        from .distributions import stable_moment

        return {"moment": stable_moment(lam, args.kappa)}
    # laplace: empirical E[exp(-t Z)] against the exact exp(-t^lambda)
    import numpy as np

    from .montecarlo import mean_with_error

    draws = _stable_draws(args)
    # At t = 0 every term is 1, also where a draw overflowed to inf (0 * inf is nan)
    with np.errstate(over="ignore"):  # t Z = inf gives exp(-inf) = 0 exactly
        terms = np.exp(-args.t * draws) if args.t else np.ones_like(draws)
    est = mean_with_error(terms)
    exact = math.exp(-args.t**lam)
    return {
        "estimate": est.value,
        "std_error": est.std_error,
        "exact": exact,
        "n_draws": args.draws,
    }


def _cmd_grad_check(args) -> dict:
    # main exits 2 when "passed" is False.
    from .verify import gradient_check

    return gradient_check(_load(args))


def _cmd_cdf(args) -> dict:
    model = _load(args)
    args.at = _parse_pairs(args.at, "--at", "bound")
    return {"cdf": cdf(model, args.at)}


def _cmd_verify(args) -> dict:
    # main exits 2 when "all_passed" is False.
    from .streams import SeededStream
    from .verify import run_checks

    model = _load(args)
    stream = SeededStream(args.seed)
    checks = run_checks(model, stream, n_draws=args.draws, n_threads=args.threads)
    return {"checks": [c._asdict() for c in checks], "all_passed": all(c.passed for c in checks)}


def _cmd_frechet_corr(args) -> dict:
    from .copula import frechet_corr, mc_frechet_corr

    results = {"correlation": frechet_corr(args.alpha, args.lam)}
    if args.mc is None:
        args.seed = None  # nothing is drawn; keep it out of the report
        return results
    from .streams import SeededStream

    est = mc_frechet_corr(SeededStream(args.seed), args.alpha, args.lam, args.mc, n_threads=args.threads)
    results["mc_estimate"] = est.value
    results["mc_std_error"] = est.std_error
    results["n_draws"] = args.mc
    return results


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Silent(_Parser):
    """A parser that prints nothing: help, --version and usage errors still
    end in SystemExit, after which main parses again with the full parser."""

    def _print_message(self, message, file=None):
        pass


def _build_parser(command: str | None = None) -> _Parser:
    """The full parser or, given a command name, a silent one holding that
    command's subparser alone."""
    parser = (_Parser if command is None else _Silent)(prog="nestlogit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p, model=True, stochastic=False, draws_default=100_000, draws_min=1):
        if model:
            p.add_argument("path", help="model file (JSON)")
            p.add_argument(
                "--utilities",
                action="append",
                metavar="LEAF=VALUE",
                help="override a leaf utility; repeatable",
            )
        if stochastic:
            p.add_argument("--draws", type=_integer(draws_min), default=draws_default, help="number of draws")
            p.add_argument("--seed", type=_integer(0, 2**64), default=0, help="random seed (echoed in the report)")
            p.add_argument("--threads", type=_integer(1), default=1, help="worker threads, at most the usable CPUs; never changes output")
        p.add_argument("--pretty", action="store_true", help="human-readable text instead of JSON")

    if p := add("validate", _cmd_validate, "parse and validate a model file, print its metrics"):
        common(p)

    if p := add("probs", _cmd_probs, "leaf choice probabilities"):
        p.add_argument("--method", choices=("analytic", "mc", "mixed"), default="analytic")
        common(p, stochastic=True)

    if p := add("emax", _cmd_emax, "inclusive value (expected maximum net of the Euler constant)"):
        which = p.add_mutually_exclusive_group()
        which.add_argument("--node", help="nest whose subtree to evaluate (default: root)")
        which.add_argument("--all", action="store_true", help="print every node's inclusive value")
        common(p)

    if p := add("sample", _cmd_sample, "draw noise vectors and write them to CSV"):
        p.add_argument("--out", required=True, help="output CSV path (header = leaf ids)")
        common(p, stochastic=True, draws_default=1000, draws_min=0)

    if p := add("stable", _cmd_stable, "positive stable distribution utilities"):
        stable_sub = p.add_subparsers(dest="stable_command", required=True)

        q = stable_sub.add_parser("sample", help="draw from P(lambda)")
        q.add_argument("--lambda", dest="lam", type=float, required=True)
        common(q, model=False, stochastic=True, draws_default=10, draws_min=0)

        q = stable_sub.add_parser("density", help="density by Kanter's integral; closed form included at lambda = 1/2")
        q.add_argument("--lambda", dest="lam", type=float, required=True)
        q.add_argument("--x", type=_POSITIVE, required=True)
        common(q, model=False)

        q = stable_sub.add_parser("moment", help="fractional moment E[Z^kappa], 0 < kappa < lambda")
        q.add_argument("--lambda", dest="lam", type=float, required=True)
        q.add_argument("--kappa", type=float, required=True)
        common(q, model=False)

        q = stable_sub.add_parser("laplace", help="Monte Carlo Laplace transform against exp(-t^lambda)")
        q.add_argument("--lambda", dest="lam", type=float, required=True)
        q.add_argument("--t", type=_NONNEGATIVE, required=True)
        common(q, model=False, stochastic=True, draws_default=1_000_000, draws_min=2)

    if p := add("grad-check", _cmd_grad_check, "choice probabilities against complex-step derivatives of the inclusive value (exit 2 past the model's rounding bound)"):
        common(p)

    if p := add("cdf", _cmd_cdf, "joint noise CDF at a leaf bound vector"):
        p.add_argument(
            "--at",
            action="append",
            required=True,
            metavar="LEAF=VALUE",
            help="bound for one leaf; repeat to cover every leaf",
        )
        common(p)

    if p := add("verify", _cmd_verify, "run analytic/simulation consistency checks (exit 2 on failure)"):
        common(p, stochastic=True, draws_default=50_000, draws_min=4)

    if p := add("frechet-corr", _cmd_frechet_corr, "Gumbel-coupled Frechet correlation, closed form and optional MC"):
        p.add_argument("--alpha", type=_POSITIVE, required=True)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--mc", type=_integer(4), metavar="DRAWS", help="also estimate by simulation")
        p.add_argument("--seed", type=_integer(0, 2**64), default=0)
        p.add_argument("--threads", type=_integer(1), default=1)
        p.add_argument("--pretty", action="store_true")

    return parser


def _parse(argv: list):
    # Building one subparser costs a fraction of building all nine. Only a
    # parse that prints or exits (help, --version, a usage error, a first
    # argument that names no command) needs the full parser, whose usage
    # lines list every command.
    try:
        return _build_parser(argv[0] if argv else "").parse_args(argv)
    except SystemExit:
        return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        results = args.func(args)
        _emit(_report(args, results), args.pretty)
    except (NestLogitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # draw-sized arrays are allocated before any draw
        flag = "mc" if args.command == "frechet-corr" else "draws"
        if getattr(args, flag, None) is None:
            raise
        print(f"error: --{flag} {getattr(args, flag)}: too many draws to hold in memory ({exc})", file=sys.stderr)
        return 1
    # A failed check exits 2: grad-check reports it under "passed", verify
    # under "all_passed".
    failed = results.get("passed", results.get("all_passed", True)) is False
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
