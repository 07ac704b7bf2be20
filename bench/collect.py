"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 bench/collect.py --out FILE [--label TEXT]

For every workload: 10 untraced runs with seeds 1..10, then one traced run
with seed 1.  Each end-to-end metric gets its median, quartiles
(``statistics.quantiles(n=4)``), sample count and the spread (q3 - q1) /
median; the traced run gives the per-layer metrics that are not zero, and its
``trace.wall_s`` sits next to the untraced ``wall_s`` so the tracing overhead
shows.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

RUNS = 10
RUN_TIMEOUT_S = 900


def bench_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    run._import_package()
    point = {"label": args.label, "run_seconds": seconds, "env": run.environment(), "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        results = [bench_once(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = bench_once(name, 1, seconds, 1)
        e2e = {
            m: run.summary([r["metrics"][m]["value"] for r in results]) for m in run.END_TO_END_UNITS
        }
        point["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "wall_s_untraced_vs_traced": [
                e2e["wall_s"]["median"], traced["metrics"]["trace.wall_s"]["value"]
            ],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items() if v["value"]},
        }
        print(
            name, json.dumps({m: [round(s["median"], 4), round(s["spread"], 4)] for m, s in e2e.items()}),
            flush=True,
        )
    args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
