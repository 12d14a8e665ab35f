"""Write reference.json: the analytic results the gate compares against.

    python3 bench/record_reference.py

Analytic reports and values come from the program at the commit where this
runs. Stable densities come from outside it: the lambda = 1/2 closed form
and Kanter's integral
    f(x) = lam/((1-lam) pi) x^(-1/(1-lam)) int_0^pi a(u) exp(-a(u) x^(-lam/(1-lam))) du,
    a(u) = sin((1-lam)u) sin(lam u)^(lam/(1-lam)) / sin(u)^(1/(1-lam)),
evaluated with scipy.integrate.quad and cross-checked against the closed
form at lambda = 1/2.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from scipy.integrate import quad  # noqa: E402

import workloads as wl  # noqa: E402


def kanter_density(lam: float, x: float) -> float:
    def a(u):
        return (math.sin((1 - lam) * u) * math.sin(lam * u) ** (lam / (1 - lam))
                / math.sin(u) ** (1 / (1 - lam)))

    scale = x ** (-lam / (1 - lam))
    integral, _ = quad(lambda u: a(u) * math.exp(-a(u) * scale), 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=500)
    return lam / ((1 - lam) * math.pi) * x ** (-1 / (1 - lam)) * integral


def closed_form_half(x: float) -> float:
    return 0.5 / math.sqrt(math.pi) * x**-1.5 * math.exp(-0.25 / x)


def report(argv) -> dict:
    out = wl.run_in_process(argv)
    if out.rc != 0:
        raise SystemExit(f"reference op {argv} failed: {out.stderr}")
    return json.loads(out.stdout)


def main() -> None:
    import nestlogit as nl

    ref = {"density": {}}
    for lam, x, _ in wl.DENSITIES:
        value = closed_form_half(x) if lam == 0.5 else kanter_density(lam, x)
        if lam == 0.5:
            check = kanter_density(lam, x)
            if abs(check - value) > 1e-9 * value:
                raise SystemExit(f"Kanter integral {check!r} disagrees with the closed form {value!r} at x={x}")
        ref["density"][f"{lam}@{x}"] = value

    work = wl.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    for name in (wl.DEPTH3, wl.SINGLE):
        shutil.copyfile(wl.ROOT / "demos" / "models" / name, name)
    depth3 = {name: report(argv) for name, argv in wl.depth3_analytic().items()}
    model = nl.load_model(wl.DEPTH3)
    depth3["verify_cdf"] = [nl.cdf(model, b) for b in wl.verify_grids(model.tree.leaves)]
    ref["depth3-cli"] = depth3

    model = wl.wide_model()
    nl.save_model(model, wl.WIDE)
    leaves = list(model.tree.leaves)
    wide = {name: report(argv) for name, argv in wl.wide_analytic(leaves).items()}
    wide["digest"] = wl.model_digest(model)
    wide["verify_cdf"] = [nl.cdf(model, b) for b in wl.verify_grids(leaves)]
    ref["wide-tree"] = wide
    os.chdir(HERE)

    model = wl.chain_model()
    leaves = list(model.tree.leaves)
    reevals = []
    for leaf, value in wl.reevaluations(leaves, wl.SIZES["full"]["reevals"]):
        probs = nl.choice_probs(nl.with_utilities(model, {leaf: value}))
        reevals.append({"probs": {k: probs[k] for k in wl.CHECK_LEAVES + [leaf]}, "total": math.fsum(probs.values())})
    probs = nl.choice_probs(model)
    ref["deep-chain"] = {
        "probs": [probs[leaf] for leaf in leaves],
        "emax": nl.emax(model),
        "cdf": nl.cdf(model, {leaf: wl.CHAIN_BOUND for leaf in leaves}),
        "reevals": reevals,
    }

    with open(wl.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {wl.REFERENCE}")


if __name__ == "__main__":
    main()
