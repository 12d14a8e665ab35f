"""The benchmark's own tests: every operation of every workload once at
small sizes through the gate, repeatable trace counts, and negative tests
showing that the gate rejects wrong output.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
REFERENCE = workloads.load_reference()["depth3-cli"]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=600, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


KNOWN_DEFECTS = {"depth3-cli": 3, "wide-tree": 1, "deep-chain": 1}


@pytest.mark.parametrize("workload", sorted(KNOWN_DEFECTS))
def test_small_mode_passes_the_gate(workload):
    result, stderr = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--small")
    assert result["correct"] and result["failed"] == 0, stderr
    assert stderr.count("known defect") == KNOWN_DEFECTS[workload]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert metrics["fail_share"]["value"] == KNOWN_DEFECTS[workload] / result["attempted"]
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_counts_repeat_exactly():
    args = ("--workload", "depth3-cli", "--seed", "4", "--seconds", "1", "--trace", "1", "--small")
    first, _ = bench(*args)
    second, _ = bench(*args)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    for name in spans.COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0, name
    assert first["metrics"]["distributions.kanter_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "depth3-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def outcome(report, rc=0, stderr=""):
    return gate.Outcome(rc=rc, stdout=json.dumps(report, indent=2, sort_keys=True) + "\n", stderr=stderr)


def test_gate_accepts_the_reference():
    gate.analytic(REFERENCE["probs-depth3"])(outcome(REFERENCE["probs-depth3"]), {})


def test_gate_rejects_probability_off_by_1e_9():
    report = json.loads(json.dumps(REFERENCE["probs-depth3"]))
    report["results"]["probabilities"]["leaf2"] += 1e-9
    with pytest.raises(gate.Reject, match="leaf2"):
        gate.analytic(REFERENCE["probs-depth3"])(outcome(report), {})


def test_gate_rejects_thread_mismatched_stdout():
    report = {"command": "stable sample", "seed": 5, "results": {"draws": [0.5, 2.0]}}
    check = gate.stable_sample(2, 5)
    context = {"stable-sample-t1": outcome(report)}
    twin = gate.same_output("stable-sample-t1", check)
    twin(outcome(report), context)
    shifted = outcome(report)
    shifted.stdout = shifted.stdout.replace("0.5", "0.50")
    with pytest.raises(gate.Reject, match="threads"):
        twin(shifted, context)


def test_gate_rejects_traceback_on_stderr():
    broken = outcome(REFERENCE["probs-depth3"], stderr="Traceback (most recent call last):\n  ...\nValueError: x\n")
    with pytest.raises(gate.Reject, match="traceback"):
        gate.analytic(REFERENCE["probs-depth3"])(broken, {})


def test_gate_rejects_biased_monte_carlo():
    probs = REFERENCE["probs-depth3"]["results"]["probabilities"]
    n = 1_000_000
    shifted = dict(probs, leaf0=probs["leaf0"] + 0.002, leaf3=probs["leaf3"] - 0.002)
    report = {
        "command": "probs", "seed": 9,
        "results": {
            "n_draws": n,
            "probabilities": shifted,
            "std_errors": {k: (p * (1 - p) / n) ** 0.5 for k, p in shifted.items()},
        },
    }
    with pytest.raises(gate.Reject, match="count"):
        gate.mc_probs(probs, n, 9)(outcome(report), {})
