"""End-to-end CLI behavior through subprocess: reports, files, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import nestlogit.cli as cli
from nestlogit import SeededStream, load_model, random_model, save_model, stable_sample
from nestlogit.montecarlo import CHUNK_SIZE, mean_with_error

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


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d["root"]["children"][1].update(utility=10**400), 'root.children[1]: "utility"'),
        (lambda d: d["root"]["children"][0].update({"lambda": -(10**400)}), 'root.children[0]: "lambda"'),
        (lambda d: d["root"].update({"lambda": 10**400}), 'root: "lambda"'),
    ],
)
def test_validate_rejects_integers_past_float_range(tmp_path, mutate, where):
    doc = json.loads(json.dumps(DEPTH3))
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {where} does not fit in a float\n"


def test_validate_rejects_too_deep_document(tmp_path, deep_chain_text):
    path = tmp_path / "deep.json"
    path.write_text(deep_chain_text)
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: the document nests too deeply for the JSON reader\n"


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


def test_probs_mixed_deep_tree(depth3_path):
    analytic = payload(run_cli("probs", depth3_path))["results"]["probabilities"]
    report = payload(run_cli("probs", depth3_path, "--method", "mixed", "--draws", "50000", "--seed", "4"))
    probs = report["results"]["probabilities"]
    errs = report["results"]["std_errors"]
    for leaf, p in analytic.items():
        assert abs(probs[leaf] - p) < 4 * errs[leaf]


def test_probs_mixed_huge_utility(depth3_path):
    # U/mu would overflow; shifted by max U the other leaves weigh exactly 0.
    proc = run_cli("probs", depth3_path, "--method", "mixed", "--draws", "64", "--utilities", "leaf0=1e308")
    assert proc.returncode == 0 and proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert results["probabilities"] == {"leaf0": 1.0, "leaf1": 0.0, "leaf2": 0.0, "leaf3": 0.0}
    assert set(results["std_errors"].values()) == {0.0}


def test_probs_mixed_tiny_lambda_is_refused(tmp_path):
    # Two nested nests at lambda 1e-155 give Lambda = 1e-310, which build()
    # accepts; the mixed scores overflow, and NaN estimates are refused.
    doc = json.loads(json.dumps(DEPTH3))
    doc["root"]["children"][0]["lambda"] = 1e-155
    doc["root"]["children"][0]["children"][0]["lambda"] = 1e-155
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert run_cli("probs", str(path), "--method", "mc", "--draws", "64").returncode == 0
    proc = run_cli("probs", str(path), "--method", "mixed", "--draws", "64")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: mixed logit scores overflow at the model's smallest cumulative Lambda 1e-310\n"


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
    proc = run_cli("probs", single_layer_path, "--utilities", "b=1")
    assert proc.returncode == 1
    assert proc.stderr == "error: utility given for non-leaves ['b']\n"


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


def test_emax_all_and_node_exclude_each_other(depth3_path):
    # --all printed every node while the report echoed "node": "a"
    proc = run_cli("emax", depth3_path, "--all", "--node", "a")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "--all" in proc.stderr and "--node" in proc.stderr


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


@pytest.mark.parametrize("width", [1, 3, 4, 1314])
def test_write_csv_matches_savetxt(width):
    # The CSV contract: the bytes np.savetxt(fmt="%.17g") wrote, for row
    # counts around one write block and for extreme values.
    values = np.array([-0.0, 5e-324, 1e308, -1e308, 1e-5, 123456789.0, -np.pi])
    leaf_order = [f"leaf{i}" for i in range(width)]
    per_block = max(1, 4096 // width)
    for n_rows in sorted({0, 1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1}):
        draws = values[np.arange(n_rows * width).reshape(n_rows, width) % len(values)]
        expected = io.StringIO()
        expected.write(",".join(leaf_order) + "\n")
        np.savetxt(expected, draws, fmt="%.17g", delimiter=",", newline="\n")
        written = io.StringIO()
        cli._write_csv(written, leaf_order, draws)
        assert written.getvalue() == expected.getvalue()


def percent_rows(values, width: int) -> str:
    """The rows _write_csv writes for values: "%.17g" % x per float."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in values.reshape(-1, width).tolist())


def written_rows(values, width: int) -> str:
    """The rows _write_csv writes for values, without the header."""
    written = io.StringIO()
    cli._write_csv(written, [f"leaf{i}" for i in range(width)], values.reshape(-1, width))
    header, _, rows = written.getvalue().partition("\n")
    assert header == ",".join(f"leaf{i}" for i in range(width))
    return rows


def assert_percent_g(values, width: int = 4) -> None:
    """_write_csv as % on values and their negatives, naming the first row
    that differs."""
    values = np.concatenate([values, -values])
    values = np.resize(values, -(-values.size // width) * width)
    expected, got = percent_rows(values, width).split("\n"), written_rows(values, width).split("\n")
    first = next((i for i, (e, g) in enumerate(zip(expected, got)) if e != g), None)
    assert first is None, f"row {first}: {got[first]!r} != {expected[first]!r}"
    assert len(got) == len(expected)


def test_write_csv_is_percent_g_on_random_bit_patterns():
    # A million 64-bit patterns: every exponent, subnormals, inf and nans.
    bits = np.random.default_rng(29).integers(0, 2**64, size=500_000, dtype=np.uint64)
    assert_percent_g(bits.view(np.float64))


def test_write_csv_is_percent_g_next_to_powers_of_ten():
    # Where log10 may be one off. The kernel printed 1e-248 for
    # 9.9999999999999998e-249 while its 17-digit mantissa rounded up to
    # exactly 1e16 from below.
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    with np.errstate(over="ignore"):  # 1e308 * 5 is inf
        values = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                  powers * 0.5, powers * 5, powers * 9.999999999999999, [9.9999999999999998e-249]]
    assert_percent_g(np.concatenate(values), width=3)


def test_write_csv_is_percent_g_at_ties():
    # k 2^-j with k odd lies half way between two 17-digit decimals where
    # j = 17 - E: 1000000000000000.25 prints as ...0.2, rounded to even.
    rng = np.random.default_rng(7)
    values = [[1000000000000000.25, 0.5, 2.0**-18 * 26215]]
    for exponent in range(-8, 16):
        j = 17 - exponent
        low, high = math.ceil(10.0**exponent * 2.0**j), min(int(10.0**(exponent + 1) * 2.0**j), 2**53)
        if low < high:
            values.append((rng.integers(low, high, size=2_000) | 1) * 2.0**-j)
    for j in range(80):  # dyadic fractions of every length
        values.append(rng.integers(1, 2**53, size=200) * 2.0**-j)
    # m 2^s in [10^E, 10^(E + 1)) with m 2^s / 10^j within 1/(2 5^j) of a
    # tie, j = E - 16: m 2^(s - j) = (5^j +- 1) / 2 modulo 5^j.
    for j in range(14, 23):
        n, exponent = 5**j, 16 + j
        for s in range(int(exponent * math.log2(10)) - 53, int((exponent + 1) * math.log2(10)) - 51):
            inverse = pow(2**(s - j) % n, -1, n)
            for target in ((n - 1) // 2, (n + 1) // 2):
                m = target * inverse % n
                m += -(-(2**52 - m) // n) * n  # the first one with 53 bits
                values.append([math.ldexp(m + i * n, s) for i in range(3)
                               if m + i * n < 2**53 and 10**exponent <= (m + i * n) * 2**s < 10**(exponent + 1)])
    assert_percent_g(np.concatenate(values))


def test_write_csv_is_percent_g_on_integers():
    rng = np.random.default_rng(8)
    values = [np.arange(100_000.0), rng.integers(0, 10**17, size=50_000).astype(float),
              10.0 ** np.arange(18) - 1, 10.0 ** np.arange(18) + 1]
    assert_percent_g(np.concatenate(values), width=1)


def test_write_csv_is_percent_g_on_special_values():
    subnormals = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    values = np.concatenate([[0.0, np.inf, np.nan, 1e-250, 1e250, 1.0000000000000001e-250, 9.9999999999999998e249],
                             subnormals, [1.7976931348623157e308]])
    assert_percent_g(values, width=1)
    assert written_rows(np.array([-0.0, 0.0, -np.inf, np.inf, np.nan]), 5) == "-0,0,-inf,inf,nan\n"


@pytest.mark.parametrize("width", [1, 3, 4, 1314])
def test_write_csv_block_edges(width):
    # One write per block of about 8,192 floats: rows across its edges.
    rng = np.random.default_rng(width)
    per_block = max(1, 8192 // width)
    for n_rows in (per_block - 1, per_block, per_block + 1):
        values = rng.gumbel(size=n_rows * width) * 3
        values[::7] *= 1e-6
        assert written_rows(values, width) == percent_rows(values, width)


@settings(deadline=None, max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=40), width=st.sampled_from([1, 2, 5]))
def test_write_csv_is_percent_g_on_any_floats(values, width):
    values = np.array(values * width)
    assert written_rows(values, width) == percent_rows(values, width)


def test_sample_wide_tree_is_thread_count_free(tmp_path):
    model = random_model(np.random.default_rng(0), max_nodes=2000)
    path = tmp_path / "wide.json"
    save_model(model, path)
    outs = [tmp_path / f"t{threads}.csv" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        payload(run_cli("sample", str(path), "--draws", "50", "--seed", "2", "--threads", str(threads), "--out", str(out)))
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 51


def test_sample_zero_draws_header_only(single_layer_path, tmp_path):
    out = tmp_path / "empty.csv"
    payload(run_cli("sample", single_layer_path, "--draws", "0", "--out", str(out)))
    assert out.read_text() == "1,2,3\n"


def test_sample_header_reads_back_with_a_csv_reader(tmp_path):
    # An id holding a comma, a quote, CR or LF is quoted as in RFC 4180.
    ids = ["car, fast", 'say "hi"', "bus\nline", "tram\r", "plain"]
    doc = {"root": {"id": "root", "lambda": 1.0, "children": [{"id": leaf, "utility": 0.0} for leaf in ids]}}
    path, out = tmp_path / "m.json", tmp_path / "noise.csv"
    path.write_text(json.dumps(doc))
    payload(run_cli("sample", str(path), "--draws", "2", "--seed", "1", "--out", str(out)))
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ids
    assert [len(row) for row in rows] == [5, 5, 5]
    assert out.read_bytes().startswith(b'"car, fast","say ""hi""","bus\nline","tram\r",plain\n')


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
    assert report["results"]["method"] == "kanter-integral"
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


@pytest.mark.parametrize("command", [("sample",), ("laplace", "--t", "2")])
def test_stable_draws_are_chunked(command):
    # Past one chunk: chunk i is stable_sample over substream i, so the
    # thread count changes nothing.
    n = CHUNK_SIZE + 1000
    args = ("stable", *command, "--lambda", "0.3", "--draws", str(n), "--seed", "5")
    one, two = (run_cli(*args, "--threads", threads) for threads in ("1", "2"))
    assert one.returncode == 0 and one.stdout == two.stdout
    replay = np.concatenate([
        stable_sample(SeededStream(5).child(i), 0.3, size=min(CHUNK_SIZE, n - start))
        for i, start in enumerate(range(0, n, CHUNK_SIZE))
    ])
    results = json.loads(one.stdout)["results"]
    if command[0] == "sample":
        assert results["draws"] == replay.tolist()
    else:
        est = mean_with_error(np.exp(-2.0 * replay))
        assert (results["estimate"], results["std_error"]) == (est.value, est.std_error)


def test_grad_check(depth3_path):
    # The exit code 2 of a failed check is tested with a planted defect in
    # tests/test_verify.py.
    report = payload(run_cli("grad-check", depth3_path))
    assert report["results"]["passed"] is True
    assert report["results"]["max_abs_diff"] <= report["results"]["tolerance"] < 1e-14


def test_cdf_command(single_layer_path):
    report = payload(run_cli("cdf", single_layer_path, "--at", "1=0", "--at", "2=0", "--at", "3=0"))
    assert_allclose(report["results"]["cdf"], math.exp(-(math.sqrt(2) + 1)), rtol=1e-12)
    assert report["inputs"]["at"] == {"1": 0.0, "2": 0.0, "3": 0.0}
    proc = run_cli("cdf", single_layer_path, "--at", "1=0")
    assert proc.returncode == 1
    # exp(u_root) past float range: the exact 0, not a traceback
    proc = run_cli("cdf", single_layer_path, "--at", "1=-800", "--at", "2=0", "--at", "3=0")
    assert proc.returncode == 0, proc.stderr
    assert '"cdf": 0.0' in proc.stdout


@pytest.mark.parametrize("args, flag, leaf", [
    (("cdf", "--at", "1=0", "--at", "2=0", "--at", "3=0", "--at", "1=1"), "--at", "1"),
    (("probs", "--utilities", "3=1", "--utilities", "3=1"), "--utilities", "3"),
])
def test_leaf_named_twice_exits_one(single_layer_path, args, flag, leaf):
    proc = run_cli(args[0], single_layer_path, *args[1:])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag} names leaf {leaf!r} more than once\n"


def test_repeated_flags_parse_in_linear_time():
    # Plain argparse on CPython 3.10-3.12 takes O(n^2) over n repeats of
    # --at: about 64 times as long for 8 times the flags. Linear is about 8.
    parser = cli._build_parser()

    def best_of_three(n):
        argv = ["cdf", "model.json", *(token for i in range(n) for token in ("--at", f"leaf{i}=0"))]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            args = parser.parse_args(argv)
            times.append(time.perf_counter() - start)
        assert args.at == argv[3::2]
        return min(times)

    assert best_of_three(8 * 500) / best_of_three(500) < 20


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


def test_pretty_reports_with_lists(depth3_path):
    # A list of dicts prints each dict one level deeper, then a blank line;
    # a list of numbers prints one "- value" line each.
    proc = run_cli("verify", depth3_path, "--draws", "20000", "--seed", "1", "--pretty")
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    checks = json.loads(run_cli("verify", depth3_path, "--draws", "20000", "--seed", "1").stdout)["results"]["checks"]
    assert [line for line in lines if line.startswith("      name: ")] == [f"      name: {c['name']!r}" for c in checks]
    assert lines.count("") == len(checks)
    args = ("stable", "sample", "--lambda", "0.3", "--draws", "5", "--seed", "1")
    draws = payload(run_cli(*args))["results"]["draws"]
    proc = run_cli(*args, "--pretty")
    assert proc.returncode == 0
    assert [line for line in proc.stdout.splitlines() if line.startswith("    - ")] == [f"    - {d}" for d in draws]


@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_nonfinite_report_exits_one(pretty):
    # log Z = eta / lambda passes float range at lambda = 1e-300: the second draw is inf
    proc = run_cli("stable", "sample", "--lambda", "1e-300", "--draws", "3", *pretty)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error: results.draws[1] is inf" in proc.stderr and "Traceback" not in proc.stderr


def test_stable_sample_overflow_prints_only_its_error():
    # the Kanter draw overflows to +inf without a numpy RuntimeWarning
    proc = run_cli("stable", "sample", "--lambda", "1e-300", "--draws", "3", "--threads", "2")
    assert proc.returncode == 1
    assert proc.stderr == "error: results.draws[1] is inf; a report holds finite numbers only\n"


@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_frechet_corr_at_subnormal_lambda(pretty):
    # The pair's factor is drawn as eta = lambda * log Z, finite at any lambda,
    # so both noise columns are the same eta and correlate exactly: no NaN and
    # no numpy RuntimeWarning.
    proc = run_cli("frechet-corr", "--alpha", "3", "--lambda", "1e-320", "--mc", "100", *pretty)
    assert proc.returncode == 0
    assert proc.stderr == ""
    if pretty:
        assert "  mc_estimate: 1.0" in proc.stdout.splitlines()
    else:
        assert json.loads(proc.stdout)["results"]["mc_estimate"] == 1.0


@pytest.mark.parametrize("at, message", [
    (("--at", "1=0", "--at", "2=0"), "no bound for leaves ['3']"),
    (("--at", "1=0", "--at", "2=0", "--at", "3=0", "--at", "nope=1"), "bound given for non-leaves ['nope']"),
    (("--at", "1=0", "--at", "2=0", "--at", "3=0", "--at", "A=1"), "bound given for non-leaves ['A']"),
    (("--at", "1=0", "--at", "2=nan", "--at", "3=0"), "non-finite bound for ['2']"),
])
def test_cdf_bound_map_names_the_leaves_at_fault(single_layer_path, at, message):
    proc = run_cli("cdf", single_layer_path, *at)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_grad_check_reports_the_tolerance_verify_works_out(depth3_path):
    from nestlogit.verify import gradient_tolerance

    report = payload(run_cli("grad-check", depth3_path))
    assert report["inputs"] == {"path": depth3_path}
    assert report["results"]["tolerance"] == gradient_tolerance(load_model(depth3_path))


def test_density_deep_left_tail_is_positive():
    # an alternating series printed -0.203 here, where the density is 3.9e-9
    results = payload(run_cli("stable", "density", "--lambda", "0.5", "--x", "0.01"))["results"]
    assert_allclose(results["density"], results["closed_form"], rtol=1e-13)
    assert results["density"] > 0.0 and "precision_loss" not in results


def test_density_near_lambda_one_exits_zero():
    # a series ran out of terms here; the integral has no budget to run out of
    results = payload(run_cli("stable", "density", "--lambda", "0.9999999999", "--x", "1"))["results"]
    assert math.isfinite(results["density"]) and results["density"] > 0.0


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("probs").returncode == 1  # missing path
    proc = run_cli("probs", "/nonexistent/model.json")
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr


PROBS_MC = ("probs", "{model}", "--method", "mc", "--draws", "100")
FRECHET = ("frechet-corr", "--alpha", "3", "--lambda", "0.5")
FRECHET_MC = FRECHET + ("--mc", "100")
GRAD_CHECK = ("grad-check", "{model}")
LAPLACE = ("stable", "laplace", "--lambda", "0.5", "--draws", "10")
DENSITY = ("stable", "density", "--lambda", "0.5", "--x", "1")
# Commands that must reject each flag value; {model} is the depth-3 file.
BAD_VALUES = {
    ("--seed", "-1"): (PROBS_MC, FRECHET_MC, FRECHET),
    ("--seed", "18446744073709551616"): (PROBS_MC, FRECHET_MC, FRECHET),
    ("--threads", "0"): (PROBS_MC, FRECHET_MC),
    ("--threads", "-3"): (PROBS_MC, FRECHET_MC),
    ("--draws", "-1"): (("stable", "sample", "--lambda", "0.5"),),
    ("--draws", "0"): (("stable", "laplace", "--lambda", "0.5", "--t", "1"),),
    ("--mc", "0"): (FRECHET,),
    ("--alpha", "inf"): (FRECHET, FRECHET_MC),
    ("--alpha", "nan"): (FRECHET, FRECHET_MC),
    ("--alpha", "0"): (FRECHET, FRECHET_MC),
    ("--alpha", "-1"): (FRECHET, FRECHET_MC),
    # grad-check works out its step and tolerance, so it has neither flag:
    # argparse refuses them as unrecognized, naming flag and value.
    ("--step", "0"): (GRAD_CHECK,),
    ("--step", "abc"): (GRAD_CHECK,),
    ("--tol", "nan"): (GRAD_CHECK,),
    ("--tol", "inf"): (GRAD_CHECK,),
    ("--tol", "abc"): (GRAD_CHECK,),
    ("--x", "0"): (DENSITY,),
    ("--x", "-1"): (DENSITY,),
    ("--x", "nan"): (DENSITY,),
    ("--x", "inf"): (DENSITY,),
    ("--x", "abc"): (DENSITY,),
    ("--t", "-3"): (LAPLACE,),
    ("--t", "nan"): (LAPLACE,),
}


@pytest.mark.parametrize("flag, value", list(BAD_VALUES))
def test_bad_seed_or_threads_exit_one(depth3_path, flag, value):
    for command in BAD_VALUES[flag, value]:
        args = [depth3_path if word == "{model}" else word for word in command]
        proc = run_cli(*args, flag, value)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert flag in proc.stderr and value in proc.stderr  # named at parse time


def test_laplace_overflowing_product_is_silent():
    # t Z past float range is inf, and exp(-inf) = 0 is the exact answer.
    proc = run_cli("stable", "laplace", "--lambda", "0.5", "--t", "1e308", "--draws", "10")
    results = payload(proc)["results"]
    assert proc.stderr == ""
    assert results["estimate"] == results["exact"] == 0.0


def test_laplace_at_zero_is_one_even_past_overflowing_draws():
    # At lambda 0.01 some draws overflow to inf, where -0 * inf is nan;
    # E[exp(-0 Z)] = 1 exactly whatever Z is.
    proc = run_cli("stable", "laplace", "--lambda", "0.01", "--t", "0", "--draws", "100000", "--seed", "1")
    results = payload(proc)["results"]
    assert proc.stderr == ""
    assert results["estimate"] == results["exact"] == 1.0 and results["std_error"] == 0.0


def test_one_draw_exits_one_without_a_standard_error(depth3_path):
    # One draw printed a standard error of 0.0 for every estimate, and then
    # an error that named no flag. Both commands now name --draws and its floor.
    proc = run_cli("probs", depth3_path, "--method", "mixed", "--draws", "1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: argument --draws: must be an integer in [2, inf) with --method mixed, got '1'\n"
    proc = run_cli("stable", "laplace", "--lambda", "0.5", "--t", "1", "--draws", "1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.endswith("nestlogit stable laplace: error: argument --draws: must be an integer in [2, inf), got '1'\n")
    # Two draws are enough for both, and mc needs no standard error floor.
    assert run_cli("probs", depth3_path, "--method", "mixed", "--draws", "2").returncode == 0
    assert run_cli("stable", "laplace", "--lambda", "0.5", "--t", "1", "--draws", "2").returncode == 0
    assert run_cli("probs", depth3_path, "--method", "mc", "--draws", "1").returncode == 0


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


HUGE = "1000000000000000"  # 10^15 draws: petabytes, refused outright


@pytest.mark.parametrize("command, flag", [
    (("sample", "{model}", "--out", "{out}"), "--draws"),
    (("probs", "{model}", "--method", "mc"), "--draws"),
    (("probs", "{model}", "--method", "mixed", "--threads", "2"), "--draws"),
    (FRECHET, "--mc"),
    (("stable", "sample", "--lambda", "0.5"), "--draws"),
    (("stable", "laplace", "--lambda", "0.5", "--t", "1"), "--draws"),
    (("verify", "{model}"), "--draws"),
])
def test_draws_past_memory_exit_one(depth3_path, tmp_path, command, flag):
    out = tmp_path / "noise.csv"
    args = [{"{model}": depth3_path, "{out}": str(out)}.get(word, word) for word in command]
    proc = run_cli(*args, flag, HUGE)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"{flag} {HUGE}" in proc.stderr and "memory" in proc.stderr
    assert proc.stdout == "" and not out.exists()
