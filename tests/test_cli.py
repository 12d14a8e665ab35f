"""End-to-end CLI behavior through subprocess: reports, files, exit codes."""

import json
import math
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

SINGLE_LAYER = {
    "root": {
        "id": "root",
        "lambda": 1.0,
        "children": [
            {"id": "A", "lambda": 0.5, "children": [
                {"id": "1", "utility": 0.0},
                {"id": "2", "utility": 0.0},
            ]},
            {"id": "B", "lambda": 1.0, "children": [
                {"id": "3", "utility": 0.0},
            ]},
        ],
    }
}

DEPTH3 = {
    "root": {
        "id": "root",
        "lambda": 1.0,
        "children": [
            {"id": "a", "lambda": 0.5, "children": [
                {"id": "b", "lambda": 0.5, "children": [
                    {"id": "leaf0", "utility": 0.0},
                    {"id": "leaf1", "utility": 0.0},
                ]},
                {"id": "leaf2", "utility": 0.0},
            ]},
            {"id": "leaf3", "utility": 0.0},
        ],
    }
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nestlogit", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def single_layer_path(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(SINGLE_LAYER))
    return str(path)


@pytest.fixture
def depth3_path(tmp_path):
    path = tmp_path / "depth3.json"
    path.write_text(json.dumps(DEPTH3))
    return str(path)


def payload(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_validate(depth3_path):
    report = payload(run_cli("validate", depth3_path))
    assert report["command"] == "validate"
    results = report["results"]
    assert results["valid"] is True
    assert results["n_nodes"] == 7
    assert results["height"] == 3
    assert results["nests"]["b"]["big_lambda"] == 0.25
    assert "seed" not in report


def test_validate_rejects_bad_lambda(tmp_path):
    doc = json.loads(json.dumps(DEPTH3))
    doc["root"]["children"][0]["lambda"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "lambda" in proc.stderr
    assert proc.stdout == ""


def test_validate_rejects_duplicate_id(tmp_path):
    doc = json.loads(json.dumps(DEPTH3))
    doc["root"]["children"][1]["id"] = "leaf0"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "leaf0" in proc.stderr


def test_probs_analytic(single_layer_path):
    report = payload(run_cli("probs", single_layer_path))
    probs = report["results"]["probabilities"]
    assert_allclose(probs["1"], (2 - math.sqrt(2)) / 2, rtol=1e-12)
    assert_allclose(probs["3"], math.sqrt(2) - 1, rtol=1e-12)
    assert "seed" not in report
    assert "draws" not in report["inputs"]


def test_probs_mc(depth3_path):
    report = payload(run_cli("probs", depth3_path, "--method", "mc", "--draws", "20000", "--seed", "7"))
    assert report["seed"] == 7
    probs = report["results"]["probabilities"]
    errs = report["results"]["std_errors"]
    expected = {"leaf0": 0.178203, "leaf1": 0.178203, "leaf2": 0.252017, "leaf3": 0.391577}
    for leaf, p in expected.items():
        assert abs(probs[leaf] - p) < 4 * errs[leaf]


def test_probs_mixed(single_layer_path):
    report = payload(run_cli("probs", single_layer_path, "--method", "mixed", "--draws", "20000", "--seed", "3"))
    probs = report["results"]["probabilities"]
    assert abs(probs["1"] - 0.292893) < 0.01
    assert abs(probs["3"] - 0.414214) < 0.01


def test_probs_mixed_rejects_deep_tree(depth3_path):
    proc = run_cli("probs", depth3_path, "--method", "mixed", "--draws", "100")
    assert proc.returncode == 1
    assert "deeper" in proc.stderr or "single" in proc.stderr.lower()


def test_probs_stochastic_determinism(depth3_path):
    args = ("probs", depth3_path, "--method", "mc", "--draws", "30000", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    threaded = run_cli(*args, "--threads", "4")
    assert first.stdout == second.stdout == threaded.stdout


def test_utilities_override(single_layer_path):
    report = payload(run_cli("probs", single_layer_path, "--utilities", "3=1.0"))
    assert report["inputs"]["utilities"] == {"3": 1.0}
    assert report["results"]["probabilities"]["3"] > math.sqrt(2) - 1
    proc = run_cli("probs", single_layer_path, "--utilities", "3")
    assert proc.returncode == 1


def test_emax(depth3_path):
    report = payload(run_cli("emax", depth3_path))
    assert_allclose(report["results"]["emax"], 0.9375722548804853, rtol=1e-12)
    report = payload(run_cli("emax", depth3_path, "--node", "b"))
    assert_allclose(report["results"]["emax"], 0.25 * math.log(2), rtol=1e-12)
    report = payload(run_cli("emax", depth3_path, "--all"))
    values = report["results"]["inclusive_values"]
    assert_allclose(values["a"], 0.44068679350977147, rtol=1e-12)
    assert values["leaf3"] == 0.0
    proc = run_cli("emax", depth3_path, "--node", "nope")
    assert proc.returncode == 1


def test_sample_csv(single_layer_path, tmp_path):
    out = tmp_path / "draws.csv"
    report = payload(run_cli(
        "sample", single_layer_path, "--draws", "50", "--seed", "5", "--out", str(out)
    ))
    assert report["results"]["n_draws"] == 50
    lines = out.read_text().splitlines()
    assert lines[0] == "1,2,3"
    assert len(lines) == 51
    # 17 significant digits round-trip through float exactly
    value = float(lines[1].split(",")[0])
    assert f"{value:.17g}" == lines[1].split(",")[0]


def test_sample_zero_draws_header_only(single_layer_path, tmp_path):
    out = tmp_path / "empty.csv"
    payload(run_cli("sample", single_layer_path, "--draws", "0", "--out", str(out)))
    assert out.read_text() == "1,2,3\n"


def test_sample_deterministic_files(single_layer_path, tmp_path):
    out1, out2, out3 = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = ("sample", single_layer_path, "--draws", "200", "--seed", "9")
    payload(run_cli(*base, "--out", str(out1)))
    payload(run_cli(*base, "--out", str(out2)))
    payload(run_cli(*base, "--out", str(out3), "--threads", "4"))
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_sample_unwritable_path(single_layer_path, tmp_path):
    proc = run_cli(
        "sample", single_layer_path, "--draws", "1",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert proc.returncode == 1
    assert "cannot write" in proc.stderr


def test_stable_density(tmp_path):
    report = payload(run_cli("stable", "density", "--lambda", "0.5", "--x", "1"))
    assert_allclose(report["results"]["density"], 0.2196956447338612, rtol=1e-10)
    assert_allclose(report["results"]["closed_form"], 0.2196956447338612, rtol=1e-14)
    assert report["results"]["precision_loss"] is False
    proc = run_cli("stable", "density", "--lambda", "0.5", "--x", "-1")
    assert proc.returncode == 1


def test_stable_moment():
    report = payload(run_cli("stable", "moment", "--lambda", "0.5", "--kappa", "0.25"))
    assert_allclose(report["results"]["moment"], 1.4464090846320785, rtol=1e-12)


def test_stable_laplace():
    report = payload(run_cli(
        "stable", "laplace", "--lambda", "0.5", "--t", "1", "--draws", "50000", "--seed", "3"
    ))
    results = report["results"]
    assert_allclose(results["exact"], math.exp(-1), rtol=1e-12)
    assert abs(results["estimate"] - results["exact"]) < 4 * results["std_error"]


def test_stable_sample():
    args = ("stable", "sample", "--lambda", "0.3", "--draws", "5", "--seed", "1")
    report = payload(run_cli(*args))
    draws = report["results"]["draws"]
    assert len(draws) == 5
    assert all(d > 0 for d in draws)
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_grad_check(depth3_path):
    report = payload(run_cli("grad-check", depth3_path))
    assert report["results"]["passed"] is True
    assert report["results"]["max_abs_diff"] < 1e-6
    # an absurd tolerance exercises the failure exit code
    proc = run_cli("grad-check", depth3_path, "--tol", "1e-30")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["results"]["passed"] is False


def test_cdf_command(single_layer_path):
    report = payload(run_cli("cdf", single_layer_path, "--at", "1=0", "--at", "2=0", "--at", "3=0"))
    assert_allclose(report["results"]["cdf"], math.exp(-(math.sqrt(2) + 1)), rtol=1e-12)
    proc = run_cli("cdf", single_layer_path, "--at", "1=0")
    assert proc.returncode == 1


def test_verify(depth3_path):
    proc = run_cli("verify", depth3_path, "--draws", "20000", "--seed", "1")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0, proc.stdout
    assert report["results"]["all_passed"] is True
    names = {check["name"] for check in report["results"]["checks"]}
    assert "leaf-probability-simplex" in names
    assert "emax-gradient-is-choice-probability" in names


def test_frechet_corr():
    report = payload(run_cli("frechet-corr", "--alpha", "3", "--lambda", "0.5"))
    assert_allclose(report["results"]["correlation"], 0.8128652223619095, rtol=1e-12)
    assert "seed" not in report
    args = ("frechet-corr", "--alpha", "5", "--lambda", "0.5", "--mc", "20000", "--seed", "2")
    first = payload(run_cli(*args))
    assert abs(first["results"]["mc_estimate"] - first["results"]["correlation"]) < 0.03
    assert first["seed"] == 2
    proc = run_cli("frechet-corr", "--alpha", "2", "--lambda", "0.5")
    assert proc.returncode == 1


def test_pretty_output(single_layer_path):
    proc = run_cli("probs", single_layer_path, "--pretty")
    assert proc.returncode == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout)
    assert "probabilities" in proc.stdout


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("probs").returncode == 1  # missing path
    proc = run_cli("probs", "/nonexistent/model.json")
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", "18446744073709551616"), ("--threads", "0"), ("--threads", "-3")],
)
def test_bad_seed_or_threads_exit_one(depth3_path, flag, value):
    for args in (
        ("probs", depth3_path, "--method", "mc", "--draws", "100"),
        ("frechet-corr", "--alpha", "3", "--lambda", "0.5", "--mc", "100"),
    ):
        proc = run_cli(*args, flag, value)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert flag.lstrip("-") in proc.stderr and value in proc.stderr


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
