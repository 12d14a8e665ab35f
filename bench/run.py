#!/usr/bin/env python3
"""nestlogit benchmark.

    python3 bench/run.py --workload {depth3-cli,wide-tree,deep-chain} \
        --seed N --seconds S --trace {0,1} [--small]

One process, one client, closed loop: each operation starts when the
previous one has finished and been through the correctness gate. A pass
is the workload's fixed operation list; passes repeat while another one
still fits in --seconds (at least one always runs). The seed only feeds
the Monte Carlo seeds of each pass. Timed intervals are rescaled to a
reference host speed, measured by a probe between operations (host_probe).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one traced in-process pass (with untraced in-process passes around it,
for the tracing overhead). --small runs every operation once at small
sizes. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``failed`` counts rejected operations that are not labelled known
defects; ``fail_share`` counts every rejection.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads; the benchmark's own
# concurrency is the program's --threads and nothing else.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
START_REPS = 7
# The probe kernel's time at the reference host speed; see host_probe().
PROBE_REFERENCE_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "mc_draws_per_s": "1/s",
    "analytic_evals_per_s": "1/s",
    "sample_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_share": "1",
}


def per_layer_units() -> dict:
    import spans

    units = {"cli.start_s": "s", "trace.pass_s": "s", "trace.untraced_pass_s": "s"}
    units.update({name: "s" for name in spans.SELF_TIMES})
    units["montecarlo.run_chunked_s"] = "s"
    units.update({name: ("B" if "bytes" in name else "count") for name in spans.COUNTS})
    units["montecarlo.thread_busy_share"] = "1"
    return units


class Tally:
    """Op samples and gate verdicts over a run."""

    def __init__(self):
        self.samples = []  # (pass, op, kind, seconds, work, timed seconds)
        self.passes = 0
        self.attempted = self.rejected = self.failed = 0
        self.peak_rss_mb = 0.0

    def pass_seconds(self) -> list:
        return [sum(s[5] for s in self.samples if s[0] == p) for p in range(self.passes)]

    def rate(self, kind: str) -> float:
        """Median over passes of the pass's work of this kind per second
        spent on it: a slow pass moves the median less than a sum."""
        rates = []
        for p in range(self.passes):
            mine = [s for s in self.samples if s[0] == p and s[2] == kind]
            rates.append(sum(s[4] for s in mine) / sum(s[5] for s in mine))
        return statistics.median(rates)


def run_pass(workload, ops, runner, tally: Tally) -> float:
    """Run every op once through the gate; returns the summed op time as
    measured."""
    import gate
    import workloads

    context = {}
    total = 0.0
    before = host_probe()
    for op in workloads.spread(ops):
        out = runner(op.argv) if op.argv is not None else workloads.run_call(op.call)
        after = host_probe()
        context[op.name] = out
        total += out.seconds
        work = {"mc": op.draws, "analytic": op.evals, "sample": op.rows, "other": 0}[op.kind]
        tally.samples.append((tally.passes, op.name, op.kind, out.seconds, work, timed(out.seconds, before, after)))
        before = after
        tally.peak_rss_mb = max(tally.peak_rss_mb, out.rss_mb)
        tally.attempted += 1
        try:
            op.check(out, context)
        except Exception as exc:  # any malformed output is a rejection
            reason = str(exc) if isinstance(exc, gate.Reject) else f"{type(exc).__name__}: {exc}"
            tally.rejected += 1
            if op.defect:
                print(f"known defect {workload.name}/{op.name}: {reason} [{op.defect}]", file=sys.stderr)
            else:
                tally.failed += 1
                print(f"REJECTED {workload.name}/{op.name}: {reason}", file=sys.stderr)
    tally.passes += 1
    return total


def host_probe() -> float:
    """Seconds for a fixed pure-Python and numpy kernel, best of 3.

    The shared host's speed drifts by up to 1.5x in episodes of tens of
    seconds, for every kind of work alike, and the guest sees no steal
    time. The probe does not touch the program, so it tracks the host
    alone; see timed()."""
    import numpy as np

    data = np.linspace(1.0, 2.0, 300_000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(60_000):
            acc += k * k
        np.log(data).sum()
        best = min(best, time.perf_counter() - t0)
    return best


def timed(seconds: float, before: float, after: float) -> float:
    """An interval rescaled to the reference host speed by the mean of the
    probes on either side of it. Across runs this removes the host's slow
    phases, which last minutes; within a long op it cannot see the
    shorter episodes."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def pass_seed(seed: int, index: int) -> int:
    return (abs(seed) * 1_000_003 + index * 1_009) % 2**62


def measure(workload, args, setup_times) -> dict:
    """Untraced passes for --seconds; the end-to-end metrics."""
    import workloads

    tally = Tally()
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        run_pass(workload, workload.ops(pass_seed(args.seed, tally.passes)), workload.run, tally)
        longest = max(longest, time.perf_counter() - t0)
        if args.small or time.perf_counter() - start + longest > args.seconds:
            break
    if workload.run is not workloads.run_subprocess:
        tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(tally.pass_seconds()),
        "mc_draws_per_s": tally.rate("mc"),
        "analytic_evals_per_s": tally.rate("analytic"),
        "sample_rows_per_s": tally.rate("sample"),
        "peak_rss_mb": tally.peak_rss_mb,
        "fail_share": tally.rejected / tally.attempted,
    }
    with open("samples.json", "w", encoding="utf-8") as handle:  # for auditing a run
        json.dump(tally.samples, handle)
    print(f"{workload.name}: {tally.passes} passes in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return result(tally, metrics, END_TO_END)


def trace(workload, args) -> dict:
    """cli.start_s, then an untraced, a traced and, if it still fits in
    --seconds, another untraced in-process pass. The untraced figure is
    the mean of the untraced passes; the closing one keeps the first
    pass's cold costs (large on depth3-cli, whose ops otherwise run as
    subprocesses) from counting as tracing overhead."""
    import spans
    import workloads

    starts = []
    for _ in range(START_REPS):
        out = workloads.run_subprocess(["--version"])
        if out.rc != 0:
            raise workloads.SetupError("nestlogit --version failed")
        starts.append(out.seconds)
    tally = Tally()
    seed = pass_seed(args.seed, 0)
    start = time.perf_counter()
    untraced = [run_pass(workload, workload.ops(seed), workloads.run_in_process, tally)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, workload.ops(seed), workloads.run_in_process, tally)
    finally:
        tracer.uninstall()
    if time.perf_counter() - start + max(untraced[0], traced) <= args.seconds:
        untraced.append(run_pass(workload, workload.ops(seed), workloads.run_in_process, tally))
    tracer.dump("spans.json")
    metrics = tracer.metrics()
    metrics.update({
        "cli.start_s": statistics.median(starts),
        "trace.pass_s": traced,
        "trace.untraced_pass_s": statistics.mean(untraced),
    })
    return result(tally, metrics, per_layer_units())


def result(tally: Tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("depth3-cli", "wide-tree", "deep-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="every op once at small sizes")
    args = parser.parse_args()

    required = [ROOT / "src" / "nestlogit" / "__init__.py", ROOT / "demos" / "models" / "depth3.json"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"error: the program's sources are missing ({', '.join(missing)}); run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)

    workload = workloads.WORKLOADS[args.workload]("small" if args.small else "full", workloads.load_reference())
    setup_times = []
    before = host_probe()
    for _ in range(1 if args.small or args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - t0
        after = host_probe()
        setup_times.append(timed(seconds, before, after))
        before = after
    outcome = trace(workload, args) if args.trace else measure(workload, args, setup_times)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
