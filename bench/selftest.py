"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 bench/selftest.py

Checks that
1. BENCHMARK.json names the workloads and metrics the runner emits, and
   every run emits each of its metrics with its unit;
2. the correctness gate counts a deliberately perturbed result, and an
   operation that raises, as failed operations;
3. traced per-layer counts are identical across two runs of one seed, and
   between the two seeds of one traced run;
4. a directory holding only BENCHMARK.json and bench/ makes run.py exit
   non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import warnings

import run  # first: fixes the BLAS thread count before numpy is imported

run._import_package()

from nfnls.errors import DivergenceError  # noqa: E402
from tracer import metric_units, size_counts  # noqa: E402

SEED = 5


def quiet(_line):
    pass


def expect(ok, what):
    if not ok:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def _bad_errors(r):
    return {**r, "errors": {1: r["errors"][1], 2: 1.0}}


def _raise(_r):
    raise DivergenceError("injected by the self-test")


PERTURB = {
    "compliant_solve": _bad_errors,
    "live_compare": _bad_errors,
    "tree_certify": lambda r: {"worst": {J: 1.0 for J in r["worst"]}},
    "tree_remainder": lambda r: {"linf": {1: r["linf"][1], 2: 2.0 * r["linf"][1], 3: 0.0}},
}


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES,
        "BENCHMARK.json workloads match the runner",
    )
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end-to-end metrics match the runner")
    expect(per == metric_units(), "BENCHMARK.json per-layer metrics match the tracer")
    return e2e, per


def emitted(result, units):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    finite = all(math.isfinite(v["value"]) for v in result["metrics"].values())
    return got == units and finite


def main():
    warnings.filterwarnings("ignore", message=r"dt=.* is coarse")
    e2e, per = check_spec()
    for name in run.WORKLOAD_NAMES:
        r = run.run_benchmark(name, SEED, 0.01, False, tiny=True, log=quiet)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{name}: tiny run passes")
        expect(emitted(r, e2e), f"{name}: every end-to-end metric emitted with its unit")
        expect(
            all(r["metrics"][k]["value"] > 0 for k in e2e), f"{name}: end-to-end metrics nonzero"
        )

        bad = run.run_benchmark(name, SEED, 0.01, False, tiny=True, perturb=PERTURB[name], log=quiet)
        expect(
            not bad["correct"] and bad["failed"] == bad["attempted"] >= 1,
            f"{name}: perturbed result counted as failed",
        )

        a = run.run_benchmark(name, SEED, 0.01, True, tiny=True, log=quiet)
        b = run.run_benchmark(name, SEED, 0.01, True, tiny=True, log=quiet)
        expect(emitted(a, per), f"{name}: every per-layer metric emitted with its unit")
        counts_a = size_counts({k: v["value"] for k, v in a["metrics"].items()})
        counts_b = size_counts({k: v["value"] for k, v in b["metrics"].items()})
        expect(counts_a == counts_b, f"{name}: traced counts identical across two runs of one seed")
        expect(
            a["metrics"]["trace.count_mismatches"]["value"] == 0,
            f"{name}: traced counts identical between seeds {SEED} and {SEED + 1}",
        )

    raised = run.run_benchmark("tree_certify", SEED, 0.01, False, tiny=True, perturb=_raise, log=quiet)
    expect(raised["failed"] == raised["attempted"] >= 1, "an operation that raises counts as failed")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    args = ["--workload", "tree_certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=bare, capture_output=True, text=True, timeout=60
    )
    shutil.rmtree(bare)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without the package source: non-zero exit and no result",
    )
    print("selftest passed")


if __name__ == "__main__":
    main()
