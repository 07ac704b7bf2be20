"""nfnls benchmark: one workload per run, closed loop, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  After set-up, operations run one at a time: a new one starts
only while it is expected to finish within ``--seconds`` (at least one
always runs).  Every result is checked; an operation that raises or fails
its check counts in ``failed`` and is printed with the stage it came from.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from an outside-in trace (see tracer.py).  A traced run alternates
seeds N and N+1 and runs at least one operation of each, so the size-only
counts of two seeds can be compared.  The last line of standard output is
the JSON result; a traced run writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import os

# fixed before numpy is imported, so the numbers measure the program and not
# the scheduler
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, metric_units, size_counts  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("compliant_solve", "live_compare", "tree_certify", "tree_remainder")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    """Import nfnls from this checkout's src/, or exit without a result."""
    if not (SRC / "nfnls" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}/nfnls; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nfnls

    if Path(nfnls.__file__).resolve().parent != (SRC / "nfnls").resolve():
        sys.exit(f"error: nfnls imported from {nfnls.__file__}, not from {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "controls": "no CPU pinning, frequency control or cache dropping",
    }


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {cmd} exited with {code}")
    return ready - t0


def _clear_caches():
    """Empty the package's memo caches, so every operation starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "nfnls" or name.startswith("nfnls."):
            for val in list(vars(mod).values()):
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def summary(values):
    """Median, quartiles (``statistics.quantiles(n=4)``), sample count and
    spread (q3 - q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med}


def per_layer_metrics(tracer, op_seeds: list[int]):
    """Per-op means of the traced layer metrics, and the names of the
    size-only counts that differ between the seeds."""
    rows = tracer.op_metrics()
    rows = [rows.get(op, {}) for op in range(len(op_seeds))]
    metrics = {
        name: statistics.fmean(row.get(name, 0) for row in rows) for name in metric_units()
    }
    by_seed: dict = {}
    for s, row in zip(op_seeds, rows):
        by_seed.setdefault(s, size_counts(row))
    first, *others = by_seed.values()
    mismatches = sorted(
        {k for other in others for k in first.keys() | other.keys() if first.get(k) != other.get(k)}
    )
    metrics["trace.count_mismatches"] = len(mismatches)
    return metrics, mismatches


def run_benchmark(workload, seed, seconds, trace, tiny=False, perturb=None, log=print):
    """One benchmark run; returns the result object printed as the last line.

    ``tiny`` and ``perturb`` (applied to each result before its check) exist
    for the self-test only.
    """
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    setup = [] if trace else [probe_setup(workload, seed, tiny) for _ in range(SETUP_PROBES)]
    seeds = [seed, seed + 1] if trace else [seed]
    inputs = {s: wl.prepare(s, tiny) for s in seeds}

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    durations, completed, op_seeds, failed = [], [], [], 0
    started = time.perf_counter()
    try:
        while True:
            op = len(durations)
            s = seeds[op % len(seeds)]
            _clear_caches()
            stage = ["start"]
            problems, raised = [], False
            t0 = time.perf_counter()
            try:
                if tracer:
                    result = tracer.run_op(op, wl.run, inputs[s], stage)
                else:
                    result = wl.run(inputs[s], stage)
                dt = time.perf_counter() - t0
                stage[0] = "check"
                if perturb:
                    result = perturb(result)
                problems = wl.check(inputs[s], result)
            except Exception as exc:  # counted and reported, never dropped
                dt = time.perf_counter() - t0
                raised = True
                problems = [f"{type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
            durations.append(dt)
            op_seeds.append(s)
            if not raised:
                completed.append(dt)
            if problems:
                failed += 1
                log(f"FAILED op={op} seed={s} stage={stage[0]}: {'; '.join(problems)}")
            else:
                log(f"op={op} seed={s} seconds={dt:.4f} result={_brief(result)}")
            elapsed = time.perf_counter() - started
            enough = op + 1 >= len(seeds)
            if enough and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if trace:
        metrics, mismatches = per_layer_metrics(tracer, op_seeds)
        for name in mismatches:
            log(f"COUNT DIFFERS between seeds {seeds}: {name}")
        units = metric_units()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        timings = {"wall_s": summary(completed or durations), "setup_s": summary(setup)}
        for name, summ in timings.items():
            log(
                f"{name}: median={summ['median']:.4f} q1={summ['q1']:.4f} "
                f"q3={summ['q3']:.4f} n={summ['n']}"
            )
        metrics = {
            "setup_s": timings["setup_s"]["median"],
            "wall_s": timings["wall_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    log("env " + json.dumps(environment()))
    return {
        "correct": failed == 0,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def _brief(result) -> str:
    return json.dumps(result, default=float, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    _import_package()
    warnings.filterwarnings("ignore", message=r"dt=.* is coarse")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
