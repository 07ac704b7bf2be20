"""The four benchmark workloads: inputs from a seed, one operation, its check.

Each workload is a ``Workload`` with three functions:

* ``prepare(seed, tiny)`` builds the inputs (grid, parameters, initial data)
  from the seed alone; the same seed gives the same inputs.
* ``run(inputs, stage)`` performs one operation through the package's public
  API and returns its result.  ``stage[0]`` is kept up to date with the call
  in progress, so a failure can be reported with the stage it came from.
* ``check(inputs, result)`` returns the failed correctness checks (empty when
  the result is right).

``tiny=True`` selects sizes that run in a few seconds; only the self-test
uses them.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# traced functions are called through their modules, where the tracer
# replaces them
from nfnls import harness, multilinear, normal_form, trees
from nfnls.grids import Field, make_grid
from nfnls.normal_form import BoxedState, SolverParams, choose_parameters


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# compare workloads: harness.compare_with_reference at J in {1, 2}


@dataclass(frozen=True)
class CompareInputs:
    cfg: harness.ExperimentConfig
    params: SolverParams
    u0: object


def _seeded_gaussian(cfg, seed):
    """The config's Gaussian, moved by a seeded whole number of samples and
    turned by a seeded global phase.

    Both are exact symmetries of the equation and of every operator, so the
    seed changes the numbers the solver sees but not its work: box norms,
    active window, alive sets and the Picard iteration count stay those of
    the plain Gaussian.  (An independent random phase per box changes the
    nonlinear interactions, and with them the iteration count.)
    """
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    u = harness.gaussian_field(grid, amplitude=cfg.amplitude, width=cfg.width)
    rng = np.random.default_rng(seed)
    turn = np.exp(2j * np.pi * rng.random())
    return Field(grid=grid, samples=turn * np.roll(u.samples, rng.integers(grid.M)))


@contextmanager
def _initial_data(u0):
    """Hand ``u0`` to compare_with_reference, which builds its data from
    harness.gaussian_field; restored on exit."""
    original = harness.gaussian_field

    def seeded(grid, amplitude=1.0, width=1.0):
        if grid != u0.grid:
            raise ValueError("seeded initial data built on another grid")
        return u0

    harness.gaussian_field = seeded
    try:
        yield
    finally:
        harness.gaussian_field = original


def _run_compare(inputs, stage):
    stage[0] = "compare_with_reference"
    with _initial_data(inputs.u0):
        errors, reports = harness.compare_with_reference(
            inputs.cfg, inputs.params, J_values=(1, 2)
        )
    return {
        "errors": errors,
        "iterations": {J: rep["iterations"] for J, rep in reports.items()},
        "ratios": {J: list(rep["ratios"]) for J, rep in reports.items()},
    }


def _compliant_prepare(seed, tiny=False):
    # criterion 9's fixture (acceptance config) without J=3
    B, n_max, K = (8, 16, 2) if tiny else (16, 32, 16)
    cfg = harness.ExperimentConfig(
        kind="compare", grid_B=B, grid_n_max=n_max, amplitude=0.01, K=K
    )
    params = choose_parameters(1.0, 2.0, J=2, K=K)
    return CompareInputs(cfg, params, _seeded_gaussian(cfg, seed))


def _compliant_check(inputs, result):
    # criteria 9 and 10
    err, ratios = result["errors"], result["ratios"][2]
    failed = [f"rel_err J={J} = {e:.3e} > 1e-3" for J, e in err.items() if not e <= 1e-3]
    if not err[2] <= err[1] + 1e-12:
        failed.append(f"rel_err J=2 {err[2]:.3e} above J=1 {err[1]:.3e}")
    if not (ratios and all(r <= 0.5 for r in ratios)):
        failed.append(f"J=2 contraction ratios {ratios} not all <= 0.5")
    return failed


def _live_prepare(seed, tiny=False):
    # test_constants_visible_at_moderate_threshold: every boundary and insert
    # term is nonzero
    cfg = harness.ExperimentConfig(
        kind="compare", grid_B=8, grid_n_max=16, amplitude=0.5, width=2.0
    )
    params = SolverParams(
        J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=3 if tiny else 6,
        picard_tol=1e-13, window=4 if tiny else 6, support_trim=1e-8,
    )
    return CompareInputs(cfg, params, _seeded_gaussian(cfg, seed))


def _live_check(inputs, result):
    e1, e2 = result["errors"][1], result["errors"][2]
    failed = []
    if not e2 < 0.05 * e1:
        failed.append(f"rel_err J=2 {e2:.3e} not below 0.05 * J=1 {e1:.3e}")
    if not e2 < 1e-6:
        failed.append(f"rel_err J=2 {e2:.3e} not below 1e-6")
    return failed


# ---------------------------------------------------------------------------
# tree workloads: criterion 5 (sampling + q_tree) and criterion 8 (recursion)


@dataclass(frozen=True)
class CertifyInputs:
    seed: int
    grid: object
    c_fir: float
    J_values: tuple
    samples: int


def _certify_prepare(seed, tiny=False):
    # the gap-kernel constant that the criterion-5 bound is built from
    c_fir = max(harness.fir_constant_sweep(B, trials=4, seed=0)[0] for B in (8, 16))
    return CertifyInputs(
        seed=seed,
        grid=make_grid(4, 32),
        c_fir=c_fir,
        J_values=(2,) if tiny else (2, 3),
        samples=5 if tiny else 50,
    )


def _certify_run(inputs, stage):
    # The sampler keeps criterion 5's own stream: rejection-sampling attempts
    # vary with the stream, and with them about 10% of the run time.  The
    # seed drives the random leaf bands of the certification.
    sampler = np.random.default_rng(2)
    rng = np.random.default_rng(inputs.seed)
    worst = {}
    for J in inputs.J_values:
        w = 0.0
        for k, tree in enumerate(trees.enumerate_trees(J)):
            stage[0] = f"sample_index_functions J={J} tree={k}"
            assigns = trees.sample_index_functions(
                tree, 0, 8, 2.0, inputs.samples, sampler,
                min_denominator=1.0, comparability=0.5, max_attempts=2_000_000,
            )
            stage[0] = f"certify_tree_bound J={J} tree={k}"
            for a in assigns:
                w = max(w, multilinear.certify_tree_bound(tree, a, 3, inputs.grid, rng))
        worst[J] = w
    return {"worst": worst}


def _certify_check(inputs, result):
    failed = []
    for J, w in result["worst"].items():
        bound = 4.0 * inputs.c_fir**J
        if not w <= bound:
            failed.append(f"J={J}: tree-kernel constant {w:.5f} > {bound:.5f}")
    return failed


@dataclass(frozen=True)
class RemainderInputs:
    state: BoxedState
    allowed: list
    window: int


def _remainder_prepare(seed, tiny=False):
    # criterion 8: sparse support, every node restricted to what it can reach
    n_max = 64
    support, window = ([-2, 0, 2, 9, 12], 16) if tiny else ([-2, 0, 2, 22, 27], 48)
    reach = {
        a - b + c + d
        for a in support for b in support for c in support for d in (-1, 0, 1)
        if abs(a - b + c + d) < n_max
    }
    rng = np.random.default_rng(seed)
    data = np.zeros((2 * n_max, 4), dtype=complex)
    for n in support:
        data[n + n_max] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = BoxedState(make_grid(4, n_max), data, 0.0)
    return RemainderInputs(v.scaled(0.5 / v.lq_norm(2.0)), sorted(set(support) | reach), window)


def _remainder_run(inputs, stage):
    norms = {}
    for J in (1, 2, 3):
        stage[0] = f"remainder_n2 J={J}"
        norms[J] = normal_form.remainder_n2(
            inputs.state, J, 1.0, window=inputs.window, allowed_all=inputs.allowed
        ).lq_norm(math.inf)
    return {"linf": norms}


def _remainder_check(inputs, result):
    v = result["linf"]
    if v[1] > v[2] > v[3] and v[2] > 0:
        return []
    return [f"linf norms {v[1]:.3e}, {v[2]:.3e}, {v[3]:.3e} not strictly decreasing"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compliant_solve", _compliant_prepare, _run_compare, _compliant_check),
        Workload("live_compare", _live_prepare, _run_compare, _live_check),
        Workload("tree_certify", _certify_prepare, _certify_run, _certify_check),
        Workload("tree_remainder", _remainder_prepare, _remainder_run, _remainder_check),
    )
}
