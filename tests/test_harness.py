"""Reference solver, experiment runner, report determinism, CLI."""

import json

import numpy as np
import pytest

from nfnls import harness, normal_form
from nfnls.cli import main as cli_main, parse_config_text
from nfnls.errors import ConfigurationError, DivergenceError, PreconditionError
from nfnls.grids import Field, forward, free_propagate, inverse, make_grid
from nfnls.harness import (
    ExperimentConfig,
    compare_with_reference,
    fir_constant_sweep,
    gaussian_field,
    random_boxed_state,
    run_experiment,
    split_step_solve,
)
from nfnls.normal_form import choose_parameters, solve
from nfnls.trees import J_MAX_ENUMERATION
from oracles import loop_fir_constant_sweep, loop_fir_probe_norms, shifted_split_step_solve

G = make_grid(16, 32)


def test_split_step_zero_data():
    u0 = Field(grid=G, samples=np.zeros(G.M, complex))
    traj = split_step_solve(u0, 1e-3, 32)
    for st in traj.states:
        assert np.all(st.data == 0)


@pytest.mark.parametrize(
    "sign,steps,norm", [(+1, 32, 2.0), (-1, 32, 2.0), (+1, 1, 2.0), (-1, 37, 2.0), (+1, 16, 0.0)]
)
def test_split_step_matches_shifted_oracle(sign, steps, norm):
    # unshifted order, scale folded into the kick and merged half steps against
    # both half steps and the scale round trip at every step, on asymmetric data
    grid = make_grid(8, 16)
    rng = np.random.default_rng(steps)
    u0 = inverse(random_boxed_state(grid, rng, 6, 2.0, norm=norm).to_spectrum())
    dt = 3e-4
    got = split_step_solve(u0, dt, steps, sign)
    want = shifted_split_step_solve(u0, dt, steps, sign)
    recorded = np.r_[np.arange(0, steps, max(1, steps // 16)), steps]
    assert np.array_equal(got.times, recorded * dt)
    assert np.array_equal(got.times, want.times)
    for a, b in zip(got.states, want.states, strict=True):
        assert a.time == b.time
        assert np.linalg.norm(a.data - b.data) <= 1e-13 * np.linalg.norm(b.data)


def test_split_step_linear_limit_matches_free_flow():
    u0 = gaussian_field(G, amplitude=1e-6)
    steps = 10_000
    traj = split_step_solve(u0, 1.0 / steps, steps)
    got = traj.states[-1].to_spectrum()
    want = free_propagate(forward(u0), 1.0, direction=-1)
    err = np.max(np.abs(got.coeffs - want.coeffs)) / np.max(np.abs(want.coeffs))
    assert err < 1e-6


def test_split_step_l2_conservation_long_run():
    u0 = gaussian_field(G, amplitude=0.5)
    norm0 = forward(u0).l2_norm()
    traj = split_step_solve(u0, 1e-4, 10_000)
    for st in traj.states:
        assert abs(st.to_spectrum().l2_norm() - norm0) / norm0 < 1e-8


@pytest.mark.parametrize(
    "B, gaps, trials, seed",
    [
        (8, (2, 3, 5, 10, 25, 50), 4, 0),
        (16, (2, 3, 5, 10, 25, 50), 4, 0),
        (4, (2, 3, 5, 10), 3, 0),
        (16, (2, 3, 5, 10, 25, 50), 3, 5),
    ],
)
def test_fir_constant_sweep_matches_per_triple_loop(B, gaps, trials, seed):
    sup, rows = fir_constant_sweep(B, gaps, trials, seed)
    want_sup, want = loop_fir_constant_sweep(B, gaps, trials, seed)
    assert [r[:2] for r in rows] == [r[:2] for r in want]
    np.testing.assert_allclose([r[2] for r in rows], [r[2] for r in want], rtol=1e-13, atol=0)
    assert sup == pytest.approx(want_sup, rel=1e-13, abs=0)
    # every probe, not only the row maxima, which the coherent probe sets
    # (its all-ones middle band is its own reversal)
    got = harness._fir_probe_norms(B, gaps, trials, seed)
    np.testing.assert_allclose(got, loop_fir_probe_norms(B, gaps, trials, seed), rtol=1e-13, atol=0)
    assert got.shape == (len(gaps), len(gaps), trials + 1)


def test_fir_constant_sweep_rejects_resonant_gaps():
    with pytest.raises(PreconditionError):
        fir_constant_sweep(4, gaps=(2, 1, 5), trials=1)


def test_strang_self_convergence_suite():
    rep = run_experiment(ExperimentConfig(kind="converge", grid_B=16, grid_n_max=16))
    assert rep.all_passed()
    r1, r2 = rep.constants["strang_orders"]
    assert 4.0 / 1.5 <= r2 <= 4.0 * 1.5


def test_verify_lemmas_suite_passes():
    rep = run_experiment(ExperimentConfig(kind="verify_lemmas", seed=0))
    assert rep.all_passed(), [c for c in rep.checks if not c["passed"]]
    assert rep.constants["empirical_c"] <= 0.35


def test_trees_suite_counts():
    rep = run_experiment(ExperimentConfig(kind="trees", trees_J=4))
    assert rep.all_passed()
    got = {c["name"]: c for c in rep.checks}
    assert got["tree-count-J4"]["measured"] == 105


def test_norms_suite():
    rep = run_experiment(ExperimentConfig(kind="norms", grid_B=16, grid_n_max=16, seed=3))
    assert rep.all_passed()
    assert rep.constants["norm_equivalence_spread"] <= 4.0


def test_report_determinism_excluding_timing():
    cfg = dict(kind="norms", grid_B=8, grid_n_max=16, seed=11)
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    da.pop("timing"), db.pop("timing")
    assert da == db


def test_solver_contraction_small_gaussian():
    params = choose_parameters(1.0, 2.0, J=2, K=8)
    u0 = gaussian_field(G, amplitude=0.01)
    traj, info = solve(u0, params)
    assert info["ratios"] and max(info["ratios"]) <= 0.5
    assert np.isclose(traj.times[-1], params.T)


def test_solver_agreement_with_reference_small():
    cfg = ExperimentConfig(kind="compare", grid_B=16, grid_n_max=16, amplitude=0.01, K=8)
    params = choose_parameters(1.0, 2.0, J=2, K=8)
    errors, _ = compare_with_reference(cfg, params, J_values=(1, 2))
    assert errors[1] <= 1e-3 and errors[2] <= 1e-3
    assert errors[2] <= errors[1] + 1e-12


def test_constants_visible_at_moderate_threshold():
    # Non-compliant diagnostic parameters (documented): moderate threshold so
    # the boundary and insert terms are nonempty; the level-2 partial sum must
    # then beat the level-1 one against the reference, which pins the exact
    # assembly constants (any wrong sign/factor makes J=2 worse than J=1).
    from nfnls.normal_form import SolverParams

    cfg = ExperimentConfig(
        kind="compare", grid_B=8, grid_n_max=16, amplitude=0.5, width=2.0
    )
    params = SolverParams(
        J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=6, picard_tol=1e-13,
        window=6, support_trim=1e-8,
    )
    errors, _ = compare_with_reference(cfg, params, J_values=(1, 2))
    # measured: err(J=1) ~ 9e-6, err(J=2) ~ 5e-8; generous 20x headroom
    assert errors[2] < 0.05 * errors[1]
    assert errors[2] < 1e-6


def test_cli_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\n# comment\ntrees.J = 3\n")
    out = tmp_path / "out"
    code = cli_main(["trees", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == "report_v1"
    assert doc["all_passed"] is True
    assert (out / "chronicles.csv").exists()


@pytest.mark.parametrize("J", [0, -2, J_MAX_ENUMERATION + 1])
def test_cli_rejects_trees_without_generations(tmp_path, J, monkeypatch):
    # no generation means no check, which would report all_passed; past the
    # enumeration guard the input is rejected before any tree is built
    def no_enumeration(J):
        raise AssertionError("trees enumerated for an out-of-range trees.J")

    monkeypatch.setattr(harness, "enumerate_trees", no_enumeration)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trees.J = {J}\n")
    assert cli_main(["trees", "--config", str(cfg)]) == 2


def test_config_parser_types():
    kv = parse_config_text('a = 1\nb = 2.5\nc = true\nd = "hello"\ne = none\n')
    assert kv == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e": None}


@pytest.mark.parametrize(
    "key", ["solver.N", "solver.T", "solver.window", "solver.picard_tol", "N", "T", "window", "picard_tol"]
)
def test_config_rejects_keys_no_suite_reads(key):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_mapping("solve", {key: 1.0})


@pytest.mark.parametrize(
    "kind,key",
    [("converge", "solver.q"), ("converge", "solver.J"), ("converge", "amplitude"),
     ("compare", "solver.J"), ("trees", "grid.B"), ("norms", "solver.K"),
     ("solve", "grid_B"), ("solve", "J"), ("solve", "kind")],
)
def test_config_rejects_keys_the_kind_does_not_read(kind, key):
    # a key acts or is rejected, and each key has one spelling (grid_B and J
    # are the fields behind grid.B and solver.J)
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig.from_mapping(kind, {key: 3})


@pytest.mark.parametrize(
    "key,val",
    [("grid.B", 16.5), ("grid.n_max", "32"), ("solver.K", True), ("seed", 1.0),
     ("solver.q", "2"), ("amplitude", None), ("out", 3)],
)
def test_config_rejects_mistyped_values(key, val):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_mapping("solve", {key: val})


@pytest.mark.parametrize(
    "kind,echoed",
    [("verify_lemmas", "grid_B grid_n_max q R eps"), ("converge", "grid_B grid_n_max sign"),
     ("solve", "grid_B grid_n_max R q s K sign amplitude width J"),
     ("compare", "grid_B grid_n_max R q s K sign amplitude width"), ("trees", "trees_J"),
     ("norms", "grid_B grid_n_max s q")],
)
def test_config_echo_holds_seed_and_the_keys_the_suite_reads(kind, echoed):
    assert set(ExperimentConfig(kind=kind).echo()) == {"seed", *echoed.split()}


def test_trees_report_echoes_no_grid_or_solver_field():
    rep = run_experiment(ExperimentConfig.from_mapping("trees", {"trees.J": 2}))
    assert rep.config == {"seed": 0, "trees_J": 2}


def test_config_accepts_typed_values():
    cfg = ExperimentConfig.from_mapping(
        "solve", {"grid.B": 8, "solver.q": 2, "amplitude": 0.5, "out": "dir", "seed": 3}
    )
    assert (cfg.grid_B, cfg.q, cfg.amplitude, cfg.out, cfg.seed) == (8, 2, 0.5, "dir", 3)


def test_solve_suite_uses_configured_width(monkeypatch):
    seen = []

    def spy(grid, amplitude=1.0, width=1.0):
        seen.append(width)
        raise RuntimeError("stop after the initial data")

    monkeypatch.setattr(harness, "gaussian_field", spy)
    rep = run_experiment(ExperimentConfig(kind="solve", grid_B=8, grid_n_max=16, width=2.5))
    assert seen == [2.5]
    assert rep.constants["suite_error"] == "RuntimeError: stop after the initial data"


@pytest.mark.parametrize("kind", ["solve", "compare"])
def test_solver_s_reaches_solve(monkeypatch, kind):
    seen = []

    def spy(u0, params):
        seen.append(params.s)
        raise RuntimeError("stop before the fixed point")

    monkeypatch.setattr(harness, "solve", spy)
    cfg = ExperimentConfig.from_mapping(
        kind, {"grid.B": 8, "grid.n_max": 16, "solver.K": 2, "solver.s": 0.75}
    )
    rep = run_experiment(cfg)
    assert seen == [0.75]
    assert rep.constants["suite_error"] == "RuntimeError: stop before the fixed point"


def test_compare_keeps_picard_iteration_limit(monkeypatch):
    # the tiny compliant inputs do not converge in one Picard iteration
    cfg = ExperimentConfig(kind="compare", grid_B=8, grid_n_max=16, amplitude=0.01, K=2)
    monkeypatch.setattr(normal_form, "PICARD_MAX_ITER", 1)
    params = choose_parameters(1.0, 2.0, J=2, K=2)
    u0 = gaussian_field(make_grid(8, 16), amplitude=0.01)
    with pytest.raises(DivergenceError, match="no convergence in 1 iterations"):
        solve(u0, params)
    with pytest.raises(DivergenceError, match="no convergence in 1 iterations"):
        compare_with_reference(cfg, params, J_values=(1, 2))


def test_report_independent_of_output_directory(tmp_path):
    docs = []
    for name in ("a", "b"):
        run_experiment(ExperimentConfig(kind="trees", trees_J=2, out=str(tmp_path / name)))
        doc = json.loads((tmp_path / name / "report.json").read_text())
        doc.pop("timing")
        docs.append(doc)
    assert "out" not in docs[0]["config"]
    assert docs[0] == docs[1]
