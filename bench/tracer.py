"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces each traced function with a timing wrapper, both
on its own module and under every name another package module imported it as
(``normal_form.q_tree``, ``harness.solve``, ...), so calls between modules and
within one module are all seen.  Nothing inside ``src/`` is changed.

Each call becomes a span ``(name, start, end, parent, op, extra)`` kept in
memory; ``extra`` is the size of the returned collection for the counted
functions and the all-zero flag for the state-returning ones.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# module -> traced public functions.  modulation is absent: no workload's hot
# path calls it (the solver computes its norms with BoxedState.lq_norm).
LAYERS = {
    "grids": ("forward", "inverse", "free_propagate"),
    "resonance": ("enumerate_triples",),
    "trees": ("enumerate_index_functions", "sample_index_functions"),
    "multilinear": ("q_tree", "certify_tree_bound"),
    "normal_form": (
        "n21_state", "n4_state", "n31_state",
        "generation_n0", "generation_nr", "generation_n1",
        "apply_resonant", "apply_n12", "boxed_cubic", "remainder_n2",
        "gamma_partial", "solve",
    ),
    "harness": ("split_step_solve", "compare_with_reference"),
}

# functions whose returned list length is a work count, and its metric name
SIZE_COUNTS = {
    "resonance.enumerate_triples": "rows",
    "trees.enumerate_index_functions": "assignments",
    "trees.sample_index_functions": "samples",
}

# boundary and insert operators: share of calls whose returned state is zero
ZERO_FRAC = {
    f"normal_form.{f}"
    for f in ("n21_state", "n4_state", "n31_state", "generation_n0", "generation_nr", "generation_n1")
}

# inclusive time (span with its children) where the share of a solve matters
TOTAL_TIME = {
    f"normal_form.{f}" for f in ("n21_state", "n4_state", "n31_state", "solve")
}


OP_SPAN = "bench.op"


def metric_units() -> dict:
    """Every per-layer metric, in report order, with its unit."""
    units = {}
    for mod, funcs in LAYERS.items():
        for f in funcs:
            name = f"{mod}.{f}"
            units[f"{name}.s"] = "s"
            units[f"{name}.calls"] = "count"
            if name in TOTAL_TIME:
                units[f"{name}.total_s"] = "s"
            if name in SIZE_COUNTS:
                units[f"{name}.{SIZE_COUNTS[name]}"] = "count"
            if name in ZERO_FRAC:
                units[f"{name}.zero_frac"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.count_mismatches"] = "count"
    return units


def size_counts(row: dict) -> dict:
    """The metrics of one op's row that depend only on input sizes."""
    return {
        k: v for k, v in row.items()
        if k.endswith(".calls") or k.rsplit(".", 1)[-1] in SIZE_COUNTS.values()
    }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = SIZE_COUNTS.get(name)
        zero = name in ZERO_FRAC

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.op, None]
            if count:
                spans[idx][5] = len(out)
            elif zero:
                spans[idx][5] = not np.any(out.data)
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nfnls" or n.startswith("nfnls.")]
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules[f"nfnls.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as benchmark operation ``op``, inside one span."""
        self.op = op
        return self._wrap(OP_SPAN, fn)(*args)

    def op_metrics(self) -> dict:
        """{op: {metric: value}} for every metric of ``metric_units`` that
        the op's spans give (absent ones are zero)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict = {}
        for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
            rec = agg.setdefault(op, {}).setdefault(name, [0.0, 0.0, 0, 0])
            rec[0] += end - start - child[i]
            rec[1] += end - start
            rec[2] += 1
            rec[3] += int(extra or 0)
        out = {}
        for op, recs in agg.items():
            row = out[op] = {"trace.wall_s": recs.pop(OP_SPAN)[1]}
            for name, (self_s, total_s, calls, extra) in recs.items():
                row[f"{name}.s"] = self_s
                row[f"{name}.calls"] = calls
                if name in TOTAL_TIME:
                    row[f"{name}.total_s"] = total_s
                if name in SIZE_COUNTS:
                    row[f"{name}.{SIZE_COUNTS[name]}"] = extra
                if name in ZERO_FRAC:
                    row[f"{name}.zero_frac"] = extra / calls
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, op index, extra."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

