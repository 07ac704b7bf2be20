"""Reference solver, certification suites, convergence studies and reports.

The ground-truth oracle is Strang split-step: exact free flow for half a
step, exact pointwise nonlinear phase rotation for a full step, half free
flow again, on coefficients in numpy's unshifted FFT order; the half steps
between two rotations are one multiply.  Both substeps are unitary, so the
discrete L2 norm is conserved to rounding; drift beyond 1e-4, measured before
each trailing half step (of modulus one), aborts the run as a numerical
failure.  For solver comparisons the oracle runs at 4x the grid resolution
and 1/16 the time step of the normal-form run, so any disagreement is
attributed to the normal-form path.

``run_experiment`` executes one named suite deterministically (seeded) and
returns a ``RunReport``: a config echo, one record per check (name, anchor,
measured value, bound, pass flag), the empirical constants registry, and
timing.  Reports serialize to versioned JSON (schema ``report_v1``) plus CSV
tables; identical config and seed reproduce the report byte for byte apart
from the timing block.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, PreconditionError
from .grids import Field, Spectrum, forward, free_propagate, inverse, make_grid
from .modulation import (
    modulation_norm,
    multiplier_bound_check,
    norm_equivalence_ratio,
)
from .multilinear import certify_tree_bound
from .normal_form import (
    DEFAULT_EMPIRICAL_C,
    BoxedState,
    SolverParams,
    Trajectory,
    _contraction,
    apply_n11,
    apply_resonant,
    choose_parameters,
    n21_state,
    solve,
)
from .resonance import divisor_sieve
from .trees import (
    J_MAX_ENUMERATION, double_factorial_odd, dump_chronicle, enumerate_trees, sample_index_functions,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "split_step_solve",
    "run_experiment",
    "gaussian_field",
    "fir_constant_sweep",
    "lemma_constants",
    "compare_with_reference",
]

REPORT_SCHEMA = "report_v1"


# ---------------------------------------------------------------------------
# reference solver


def split_step_solve(
    u0: Field,
    dt: float,
    steps: int,
    sign: int = +1,
) -> Trajectory:
    """Strang split-step for i u_t - u_xx + sign*|u|^2 u = 0.

    Kinetic half-steps multiply bin xi by exp(+i*(dt/2)*xi^2) (the free flow
    of the equation); the nonlinear step rotates u -> u * exp(i*sign*|u|^2*dt)
    pointwise, the sample scale folded into its factor.  The half-steps between
    rotations merge except where a state is recorded: every max(1, steps // 16)
    steps (about 16 snapshots) and at the last step, as u-picture box states.
    """
    g = u0.grid
    record_every = max(1, steps // 16)
    xi2 = (np.arange(g.M) - g.M // 2) ** 2 / g.bins_per_box**2
    half = np.fft.ifftshift(np.exp(1j * (dt / 2.0) * xi2))
    full = half * half
    kick = sign * dt * (g.M / (np.sqrt(2.0 * np.pi) * g.bins_per_box)) ** 2
    F0 = forward(u0)
    coeffs = np.fft.ifftshift(F0.coeffs) * half
    norm0 = math.sqrt(np.vdot(coeffs, coeffs).real)
    times = [0.0]
    states = [BoxedState.from_spectrum(F0, 0.0)]
    turn = np.empty(g.M, dtype=complex)
    for step in range(1, steps + 1):
        w = np.fft.ifft(coeffs)
        phase = kick * (w.real**2 + w.imag**2)
        np.cos(phase, out=turn.real)
        np.sin(phase, out=turn.imag)
        coeffs = np.fft.fft(w * turn)
        drift = abs(math.sqrt(np.vdot(coeffs, coeffs).real) - norm0) / max(norm0, 1e-300)
        if drift > 1e-4:
            raise NumericalFailureError(f"L2 drift {drift:g} at step {step}")
        if step % record_every == 0 or step == steps:
            coeffs *= half
            times.append(step * dt)
            states.append(BoxedState(g, np.fft.fftshift(coeffs).reshape(2 * g.n_max, -1), step * dt))
            coeffs *= half
        else:
            coeffs *= full
    return Trajectory(times=np.array(times), states=tuple(states))


def gaussian_field(grid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    """amplitude * exp(-(x/width)^2), centered on the periodic cell."""
    x = grid.sample_points()
    xc = np.where(x < grid.L / 2, x, x - grid.L)
    return Field(grid=grid, samples=amplitude * np.exp(-((xc / width) ** 2)) + 0j)


# ---------------------------------------------------------------------------
# config and report containers

def _field(key: str) -> str:
    """The field behind a config key: solver.J is J, grid.B is grid_B."""
    return key.removeprefix("solver.").replace(".", "_")


# value types a config key accepts, by the annotation of its field (bools,
# though ints in Python, are rejected everywhere)
_ACCEPTED = {"int": (int,), "float": (int, float), "str": (str,), "str | None": (str, type(None))}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str | None = None
    grid_B: int = 16
    grid_n_max: int = 32
    J: int = 2
    q: float = 2.0
    s: float = 0.0
    R: float = 1.0
    K: int = 16
    sign: int = +1
    eps: float = 0.2
    amplitude: float = 0.01
    width: float = 1.0
    trees_J: int = 4

    @staticmethod
    def from_mapping(kind: str, kv: dict) -> "ExperimentConfig":
        """The config of ``kind`` from file keys: each spelled one way, each read by the suite."""
        types = {f.name: f.type for f in fields(ExperimentConfig)}
        if kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(f"unknown experiment kind {kind!r}")
        reads = ("seed", "out") + _SUITES[kind][1]
        cfg = ExperimentConfig(kind=kind)
        for key, val in kv.items():
            if key not in reads:
                raise ConfigurationError(f"the {kind} suite reads no key {key!r}; it reads {reads}")
            name = _field(key)
            if isinstance(val, bool) or not isinstance(val, _ACCEPTED[types[name]]):
                raise ConfigurationError(f"config key {key!r} needs {types[name]}, got {val!r}")
            setattr(cfg, name, val)
        return cfg

    def echo(self) -> dict:
        """The seed and the fields the kind's suite reads: all that determine the report."""
        names = ["seed"] + [_field(key) for key in _SUITES[self.kind][1]]
        return {k: getattr(self, k) for k in sorted(names)}


@dataclass
class RunReport:
    kind: str
    config: dict
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def add_check(self, name, anchor, measured, bound, passed, direction="<="):
        self.checks.append(
            {
                "name": name,
                "anchor": anchor,
                "measured": None if measured is None else float(measured),
                "bound": None if bound is None else float(bound),
                "direction": direction,
                "passed": bool(passed),
            }
        )

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "config": self.config,
            "checks": self.checks,
            "constants": self.constants,
            "all_passed": self.all_passed(),
            "timing": self.timing,
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=float)

    def table_csv(self, name: str) -> str:
        header, rows = self.tables[name]
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()

    def write(self, out_dir: str):
        d = pathlib.Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        (d / "report.json").write_text(self.to_json())
        for name in self.tables:
            (d / f"{name}.csv").write_text(self.table_csv(name))


# ---------------------------------------------------------------------------
# certification pieces (shared with the acceptance suite)


def fir_constant_sweep(B: int, gaps=(2, 3, 5, 10, 25, 50), trials: int = 4, seed: int = 0):
    """(sup, rows): per row (g1, g3, value) the largest of ``_fir_probe_norms``."""
    best = _fir_probe_norms(B, gaps, trials, seed).max(axis=2)
    rows = [(g1, g3, float(v)) for g1, row in zip(gaps, best) for g3, v in zip(gaps, row)]
    return max(r[2] for r in rows), rows


def _fir_probe_norms(B: int, gaps, trials: int, seed: int) -> np.ndarray:
    """||q1_tilde|| * g1 * g3 per row (g1, g3) and probe, a (g1, g3, probe) array:
    row (g1, g3) is the gap kernel at t = 0 on n = 0, n1 = -g1, n3 = g3, n2 = n1 + n3,
    on the coherent (all-ones) unit bands (probe 0) and on ``trials`` random unit
    band triples, drawn with one ``standard_normal`` call in row, trial, slot
    order (real part, then imaginary), one g1 row per batch of the gap pass's
    factorisation: out[a] = sum_k FX.FY.G^ with X = u1/d1, Y = u3/d3 and G^ the
    middle band contracted with ``_contraction(B)[1]`` (slack 0), times 1/(2 pi B^2).
    """
    if min(gaps) <= 1:
        raise PreconditionError(f"gaps {tuple(gaps)} include a resonant one: singular kernel")
    z = np.random.default_rng(seed).standard_normal((len(gaps), len(gaps), trials, 3, 2, B))
    ones = np.ones((len(gaps), len(gaps), 1, 3, B), dtype=np.complex128)
    probes = np.concatenate([ones, z[..., 0, :] + 1j * z[..., 1, :]], axis=2)
    probes /= np.sqrt(np.sum(np.abs(probes) ** 2, axis=-1, keepdims=True) / B)
    diff = (np.arange(B)[:, None] - np.arange(B)[None, :]) / B  # (a - b) / B
    gap3 = np.array(gaps, dtype=float)[:, None, None, None]
    W = _contraction(B)[1]
    norms = []
    for g1, (u1, u2, u3) in zip(gaps, np.moveaxis(probes, 3, 1)):  # slots' (g3, probe, bin) blocks
        X, Y = u1[:, :, None, :] / (g1 + diff), u3[:, :, None, :] / (diff - gap3)
        xy = np.fft.fft(X, 2 * B) * np.fft.fft(Y, 2 * B)  # zero-padded to 2B
        band = np.einsum("gpak,gpak->gpa", xy, np.tensordot(np.conj(u2[..., ::-1]), W, 1))
        norms.append(np.sqrt(np.sum(np.abs(band / (2.0 * np.pi * B * B)) ** 2, axis=-1) / B) * g1 * gap3[..., 0, 0])
    return np.stack(norms)


def random_boxed_state(grid, rng, span, q, norm=1.0, t=0.0):
    data = np.zeros((2 * grid.n_max, grid.bins_per_box), dtype=complex)
    for n in range(-span, span + 1):
        data[n + grid.n_max] = rng.standard_normal(grid.bins_per_box) + 1j * rng.standard_normal(
            grid.bins_per_box
        )
    st = BoxedState(grid, data, t)
    return st.scaled(norm / st.lq_norm(q))


def lemma_constants(cfg: ExperimentConfig, rng):
    """Measured constants of the operator estimates, q from the config."""
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    q = cfg.q
    qp = math.inf if q == 1.0 else q / (q - 1.0)
    inv_qp = 0.0 if qp == math.inf else 1.0 / qp
    consts = {}
    # resonant cubic bound
    best = 0.0
    for _ in range(6):
        v = random_boxed_state(grid, rng, 6, q)
        best = max(best, apply_resonant(v, window=8).lq_norm(q))
    consts["resonant_cubic"] = best
    # low-set growth and boundary decay in the threshold
    grow, decay = 0.0, 0.0
    v = random_boxed_state(grid, rng, 10, q)
    for N in (4.0, 16.0, 64.0):
        grow = max(grow, apply_n11(v, N, window=12).lq_norm(q) / N**inv_qp)
        decay = max(decay, n21_state(v, N, window=12).lq_norm(q) / N ** (inv_qp - 1.0))
    consts["lowset_growth"] = grow
    consts["boundary_decay"] = decay
    return consts


def compare_with_reference(cfg: ExperimentConfig, params: SolverParams, J_values=(1, 2, 3)):
    """Relative L2 error of the fixed point against the refined split-step oracle."""
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    u0 = gaussian_field(grid, amplitude=cfg.amplitude, width=cfg.width)
    fine = make_grid(cfg.grid_B, 4 * cfg.grid_n_max)
    shift = (fine.M - grid.M) // 2
    c = np.zeros(fine.M, dtype=complex)
    c[shift : shift + grid.M] = forward(u0).coeffs
    u0_fine = inverse(Spectrum(grid=fine, coeffs=c))
    steps = 16 * params.K
    ref = split_step_solve(u0_fine, params.T / steps, steps, sign=params.sign)
    ref_final = ref.states[-1].to_spectrum().coeffs[shift : shift + grid.M]
    ref_norm = float(np.sqrt(np.sum(np.abs(ref_final) ** 2) / grid.bins_per_box))
    errors = {}
    reports = {}
    for J in J_values:
        traj, rep = solve(u0, replace(params, J=J))
        final = traj.states[-1].to_spectrum().coeffs
        err = float(np.sqrt(np.sum(np.abs(final - ref_final) ** 2) / grid.bins_per_box))
        errors[J] = err / ref_norm
        reports[J] = rep
    return errors, reports


# ---------------------------------------------------------------------------
# suites


def _suite_trees(cfg, rep, rng):
    # none: no check, the report would pass vacuously; past the guard: fails late
    if not 1 <= cfg.trees_J <= J_MAX_ENUMERATION:
        raise ConfigurationError(f"trees.J must be in [1, {J_MAX_ENUMERATION}], got {cfg.trees_J}")
    rows = []
    for J in range(1, cfg.trees_J + 1):
        trees = enumerate_trees(J)
        want = double_factorial_odd(J)
        rep.add_check(
            f"tree-count-J{J}", "chronicle-census", len(trees), want,
            len(trees) == want, "==",
        )
        sizes_ok = all(
            t.size() == 3 * J + 1 and len(t.terminal_ids()) == 2 * J + 1 for t in trees
        )
        rep.add_check(f"tree-sizes-J{J}", "node-census", int(sizes_ok), 1, sizes_ok, "==")
        rows.extend((J, dump_chronicle(t)) for t in trees[:64])
    rep.tables["chronicles"] = (["J", "chronicle"], rows)


def _suite_norms(cfg, rep, rng):
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    ratios = []
    for _ in range(50):
        st = random_boxed_state(grid, rng, 8, 2.0)
        ratios.append(norm_equivalence_ratio(st.to_spectrum(), cfg.s, cfg.q))
    spread = max(ratios) / min(ratios)
    rep.constants["norm_equivalence_spread"] = spread
    rep.add_check("norm-equivalence-spread", "window-exchange", spread, 4.0, spread <= 4.0)
    emb_ok = True
    for _ in range(20):
        F = random_boxed_state(grid, rng, 8, 2.0).to_spectrum()
        if modulation_norm(F, 0.0, math.inf) > modulation_norm(F, 0.0, cfg.q) + 1e-12:
            emb_ok = False
    rep.add_check("sup-box-below-lq", "sequence-embedding", int(emb_ok), 1, emb_ok, "==")
    rows = [(i, r) for i, r in enumerate(ratios)]
    rep.tables["equivalence_ratios"] = (["trial", "ratio"], rows)


def _suite_verify_lemmas(cfg, rep, rng):
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    # free flow unitarity
    drift = 0.0
    for _ in range(20):
        F = random_boxed_state(grid, rng, 10, 2.0).to_spectrum()
        for t in (0.1, 1.0, 10.0):
            drift = max(drift, abs(free_propagate(F, t).l2_norm() - F.l2_norm()) / F.l2_norm())
    rep.add_check("free-flow-unitarity", "modulus-one-symbol", drift, 1e-10, drift <= 1e-10)
    # multiplier uniformity across boxes
    shape = rng.standard_normal(grid.bins_per_box) + 1j * rng.standard_normal(grid.bins_per_box)
    ratios = []
    for n in range(-30, 31, 5):
        coeffs = np.zeros(grid.M, dtype=complex)
        coeffs[grid.box_slice(n)] = shape
        f = inverse(Spectrum(grid=grid, coeffs=coeffs))
        lhs, rhs = multiplier_bound_check(f, n, 2, math.inf)
        ratios.append(lhs / rhs)
    unif = max(ratios) / min(ratios)
    rep.constants["multiplier_constant"] = max(ratios)
    rep.add_check("multiplier-box-uniformity", "translation-invariance", unif, 1.05, unif <= 1.05)
    # divisor growth proxy
    sieve = divisor_sieve(100_000)
    m = np.arange(1, 100_001)
    dmax = float(np.max(sieve[1:] / m**cfg.eps))
    rep.constants["divisor_growth"] = dmax
    rep.add_check("divisor-growth", "divisor-counting", dmax, 120.0, dmax <= 120.0)
    # bilinear gap decay and refinement stability
    supB, rows = fir_constant_sweep(cfg.grid_B // 2, trials=3, seed=cfg.seed)
    sup2B, _ = fir_constant_sweep(cfg.grid_B, trials=3, seed=cfg.seed)
    rep.constants["gap_kernel_constant"] = max(supB, sup2B)
    stab = sup2B / supB
    rep.add_check("gap-kernel-refinement", "bilinear-gap-decay", stab, 2.0,
                  0.5 <= stab <= 2.0, "in [1/2, 2]")
    rep.tables["gap_kernel"] = (["gap1", "gap3", "measured"], rows)
    # operator constants
    consts = lemma_constants(cfg, rng)
    rep.constants.update(consts)
    c_emp = max(
        consts["resonant_cubic"], consts["lowset_growth"], consts["boundary_decay"],
        rep.constants["gap_kernel_constant"],
    )
    rep.constants["empirical_c"] = c_emp
    rep.add_check(
        "recorded-constant-covers-measured", "constant-registry",
        c_emp, DEFAULT_EMPIRICAL_C, c_emp <= DEFAULT_EMPIRICAL_C,
    )
    # the separate largeness condition (boundary-series constant), reported
    params = choose_parameters(cfg.R, cfg.q)
    qp = math.inf if cfg.q == 1.0 else cfg.q / (cfg.q - 1.0)
    expo = -0.01 if qp == math.inf else (1.0 - qp) / (100.0 * qp)
    small = consts["boundary_decay"] * params.N**expo
    rep.add_check("threshold-largeness", "series-tail-smallness", small, 0.1, small < 0.1)
    # tree kernel certification at J=2, small B
    cert_grid = make_grid(4, 32)
    worst = 0.0
    for tree in enumerate_trees(2):
        assigns = sample_index_functions(tree, 0, 8, 2.0, 5, rng)
        for a in assigns:
            worst = max(worst, certify_tree_bound(tree, a, 3, cert_grid, rng))
    supF, _ = fir_constant_sweep(4, gaps=(2, 3, 5, 10), trials=3, seed=cfg.seed)
    rep.constants["tree_kernel_J2"] = worst
    rep.add_check(
        "tree-kernel-bound-J2", "kernel-denominator-bound",
        worst, 4.0 * supF**2, worst <= 4.0 * supF**2,
    )


def _suite_converge(cfg, rep, rng):
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    u0 = gaussian_field(grid, amplitude=0.5)
    T = 0.2
    finest = split_step_solve(u0, T / 512, 512, sign=cfg.sign).states[-1].data
    errs = []
    for steps in (32, 64, 128):
        out = split_step_solve(u0, T / steps, steps, sign=cfg.sign).states[-1].data
        errs.append(float(np.max(np.abs(out - finest))))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    rep.constants["strang_orders"] = [r1, r2]
    for i, r in enumerate((r1, r2)):
        rep.add_check(
            f"strang-second-order-{i}", "splitting-self-convergence",
            r, 4.0, 4.0 / 1.5 <= r <= 4.0 * 1.5, "approx 4",
        )
    rep.tables["self_convergence"] = (["steps", "error"], list(zip((32, 64, 128), errs)))


def _suite_solve(cfg, rep, rng):
    params = choose_parameters(cfg.R, cfg.q, J=cfg.J, s=cfg.s, K=cfg.K, sign=cfg.sign)
    grid = make_grid(cfg.grid_B, cfg.grid_n_max)
    u0 = gaussian_field(grid, amplitude=cfg.amplitude, width=cfg.width)
    traj, info = solve(u0, params)
    rep.constants["picard_iterations"] = info["iterations"]
    rep.constants["contraction_ratios"] = info["ratios"]
    ok = all(r <= 0.5 for r in info["ratios"][:])
    rep.add_check("picard-contraction", "fixed-point-contraction",
                  max(info["ratios"]) if info["ratios"] else 0.0, 0.5, ok)
    rep.tables["contraction"] = (
        ["iteration", "difference"],
        list(enumerate(info["diffs"])),
    )


def _suite_compare(cfg, rep, rng):
    params = choose_parameters(cfg.R, cfg.q, s=cfg.s, K=cfg.K, sign=cfg.sign)
    errors, _ = compare_with_reference(cfg, params, J_values=(1, 2, 3))
    for J, err in errors.items():
        rep.add_check(f"solver-agreement-J{J}", "reference-comparison", err, 1e-3, err <= 1e-3)
    mono = errors[2] <= errors[1] + 1e-12 and errors[3] <= errors[2] + 1e-12
    rep.add_check("error-nonincreasing-in-depth", "partial-sum-refinement",
                  int(mono), 1, mono, "==")
    rep.tables["errors"] = (["J", "relative_error"], sorted(errors.items()))


# each kind's suite and the config keys it reads, besides seed and out
_GRID = ("grid.B", "grid.n_max")
_SOLVER = _GRID + (
    "solver.R", "solver.q", "solver.s", "solver.K", "solver.sign", "amplitude", "width",
)
_SUITES = {
    "verify_lemmas": (_suite_verify_lemmas, _GRID + ("solver.q", "solver.R", "solver.eps")),
    "converge": (_suite_converge, _GRID + ("solver.sign",)),
    "solve": (_suite_solve, _SOLVER + ("solver.J",)),
    "compare": (_suite_compare, _SOLVER),
    "trees": (_suite_trees, ("trees.J",)),
    "norms": (_suite_norms, _GRID + ("solver.s", "solver.q")),
}
EXPERIMENT_KINDS = tuple(_SUITES)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute one suite; deterministic given config and seed."""
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigurationError(f"unknown experiment kind {cfg.kind!r}")
    rng = np.random.default_rng(cfg.seed)
    rep = RunReport(kind=cfg.kind, config=cfg.echo())
    t0 = time.perf_counter()
    suite = _SUITES[cfg.kind][0]
    try:
        suite(cfg, rep, rng)
    except ConfigurationError:
        raise
    except Exception as exc:  # recorded as a failure, run continues
        rep.add_check("suite-completed", "runner", None, None, False)
        rep.constants["suite_error"] = f"{type(exc).__name__}: {exc}"
    rep.timing["seconds"] = time.perf_counter() - t0
    if cfg.out:
        rep.write(cfg.out)
    return rep
