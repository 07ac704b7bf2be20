"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also asserts its criterion so the suite gates the build.
"""

import math
import time

import numpy as np
import pytest

from nfnls.grids import Spectrum, free_propagate, make_grid
from nfnls.harness import (
    ExperimentConfig,
    compare_with_reference,
    fir_constant_sweep,
)
from nfnls.modulation import modulation_norm
from nfnls.multilinear import certify_tree_bound
from nfnls.normal_form import (
    BoxedState,
    Trajectory,
    apply_n11,
    apply_n12,
    apply_resonant,
    boxed_cubic,
    choose_parameters,
    gamma_partial,
    remainder_n2,
    _chain_possible,
)
from nfnls.resonance import PRODUCT, phase_phi
from nfnls.trees import (
    double_factorial_odd,
    enumerate_trees,
    sample_index_functions,
)
from oracles import gap_pass_reference, q1_table_sum, triple_table


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_tree_combinatorics():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for J in range(1, 7):
        trees = enumerate_trees(J)
        counts.append(len(trees))
        ok &= len(trees) == double_factorial_odd(J)
        ok &= all(
            t.size() == 3 * J + 1 and len(t.terminal_ids()) == 2 * J + 1 for t in trees
        )
    dt = time.perf_counter() - t0
    ok &= counts == [1, 3, 15, 105, 945, 10395] and dt < 5.0
    assert verdict(1, ok, f"counts={counts}, {dt:.2f}s")


def test_criterion_02_phase_identity():
    rng = np.random.default_rng(0)
    xi1, xi2, xi3 = rng.uniform(-100, 100, size=(3, 10_000))
    xi = xi1 - xi2 + xi3
    lhs = phase_phi(xi, xi1, xi2, xi3)
    rhs = 2.0 * (xi - xi1) * (xi - xi3)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)))
    ok = worst < 1e-12
    assert verdict(2, ok, f"max relative defect {worst:.2e} over 10^4 tuples")


def test_criterion_03_propagator_unitarity_and_norm_invariance():
    g = make_grid(16, 32)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        c = rng.standard_normal(g.M) + 1j * rng.standard_normal(g.M)
        F = Spectrum(grid=g, coeffs=c)
        base_l2 = F.l2_norm()
        base_mod = modulation_norm(F, 0.0, 2.0)
        for t in (0.1, 1.0, 10.0):
            P = free_propagate(F, t)
            worst = max(worst, abs(P.l2_norm() - base_l2) / base_l2)
            worst = max(worst, abs(modulation_norm(P, 0.0, 2.0) - base_mod) / base_mod)
    ok = worst <= 1e-10
    assert verdict(3, ok, f"max relative drift {worst:.2e}")


@pytest.fixture(scope="module")
def fir_constants():
    sup8, _ = fir_constant_sweep(8, trials=4, seed=0)
    sup16, _ = fir_constant_sweep(16, trials=4, seed=0)
    return sup8, sup16


def test_criterion_04_gap_kernel_certification(fir_constants):
    t0 = time.perf_counter()
    sup8, sup16 = fir_constants
    dt = time.perf_counter() - t0
    stable = 0.5 <= sup16 / sup8 <= 2.0
    ok = np.isfinite(sup8) and np.isfinite(sup16) and stable and dt < 60.0
    assert verdict(
        4, ok, f"C={sup8:.4f} (B=8), {sup16:.4f} (B=16), ratio {sup16/sup8:.3f}"
    )


def test_criterion_05_tree_kernel_certification(fir_constants):
    t0 = time.perf_counter()
    C_fir = max(fir_constants)
    grid = make_grid(4, 32)
    rng = np.random.default_rng(2)
    ok = True
    worst = {}
    for J in (2, 3):
        bound = 4.0 * C_fir**J
        w = 0.0
        for tree in enumerate_trees(J):
            assigns = sample_index_functions(
                tree, 0, 8, 2.0, 50, rng,
                min_denominator=1.0, comparability=0.5, max_attempts=2_000_000,
            )
            for a in assigns:
                w = max(w, certify_tree_bound(tree, a, 3, grid, rng))
        worst[J] = (w, bound)
        ok &= w <= bound
    dt = time.perf_counter() - t0
    ok &= dt < 600.0
    assert verdict(
        5, ok,
        f"J=2: {worst[2][0]:.4f}<={worst[2][1]:.4f}, "
        f"J=3: {worst[3][0]:.5f}<={worst[3][1]:.5f}, {dt:.0f}s",
    )


def test_criterion_06_decomposition_identity():
    g = make_grid(16, 32)
    rng = np.random.default_rng(3)
    N = 12.0
    worst = 0.0
    for _ in range(20):
        data = np.zeros((2 * g.n_max, g.bins_per_box), dtype=complex)
        for n in range(-6, 7):
            data[n + g.n_max] = 0.2 * (
                rng.standard_normal(g.bins_per_box)
                + 1j * rng.standard_normal(g.bins_per_box)
            )
        v = BoxedState(g, data, float(rng.uniform(0, 1)))
        cub = boxed_cubic(v)
        lhs = (
            apply_resonant(v, window=8)
            .plus(apply_n11(v, N, window=8))
            .plus(apply_n12(v, N, window=8))
        )
        worst = max(
            worst, float(np.max(np.abs(lhs.data - cub.data)) / np.max(np.abs(cub.data)))
        )
    ok = worst < 1e-8
    assert verdict(6, ok, f"max relative defect {worst:.2e} over 20 states")


def _criterion7_norms(v, N, W, q):
    # N11 and the boundary N21 over the product-phase sets, by the references
    g = v.grid
    n11 = BoxedState(g, q1_table_sum(v, 0.0, triple_table(g.n_max, W, N, "A_N", PRODUCT)), 0.0)
    n0 = BoxedState(g, gap_pass_reference(v, 0.0, N, W, convention=PRODUCT), 0.0)
    return n11.lq_norm(q), n0.lq_norm(q)


def test_criterion_07_threshold_exponents():
    # Fixed protocol (chosen before outcomes; see the notes ledger): product
    # phase convention, flat random state on boxes |n| <= 8 (seed 0), B = 8,
    # window 16.  N = 4 is arithmetically void for non-resonant tuples
    # (|2(n-n1)(n-n3)| >= 8), so the live power-law step is 16 -> 64; growth
    # is one-sided, decay is the two-sided bracket.
    B, n_max, W = 8, 40, 16
    g = make_grid(B, n_max)
    rng = np.random.default_rng(0)
    data = np.zeros((2 * n_max, B), dtype=complex)
    for n in range(-8, 9):
        data[n + n_max] = rng.standard_normal(B) + 1j * rng.standard_normal(B)
    v0 = BoxedState(g, data, 0.0)

    def low_count(N):  # |A_N| over the output boxes |n| <= 25
        return int(np.count_nonzero(np.abs(triple_table(n_max, W, N, "A_N", PRODUCT)[0]) <= 25))

    void_4 = low_count(4.0)
    counts = {N: low_count(N) for N in (16.0, 64.0)}
    count_secant = math.log(counts[64.0] / counts[16.0]) / math.log(4.0)

    ok = True
    lines = [f"|A_4|={void_4} (void anchor), count secant 16->64 = {count_secant:.2f}"]
    for q in (1.5, 2.0):
        qp = q / (q - 1.0)
        v = v0.scaled(1.0 / v0.lq_norm(q))
        a11, a0 = _criterion7_norms(v, 16.0, W, q)
        b11, b0 = _criterion7_norms(v, 64.0, W, q)
        grow = b11 / a11
        grow_bound = 4.0 ** (1.0 / qp + 0.2)
        dec = b0 / a0
        dec_lo = 4.0 ** (1.0 / qp - 1.0 - 0.2)
        dec_hi = 4.0 ** (1.0 / qp - 1.0 + 0.2)
        g_ok = grow <= grow_bound
        d_ok = dec_lo <= dec <= dec_hi
        # mechanism evidence: the exact Hoelder assembly behind the estimate
        holder = counts[64.0] ** (1.0 / qp) * _holder_mass(v, 64.0, W, q) >= b11
        lines.append(
            f"q={q}: growth {grow:.2f}<={grow_bound:.2f} [{g_ok}], "
            f"decay {dec_lo:.3f}<={dec:.3f}<={dec_hi:.3f} [{d_ok}], "
            f"assembly-inequality [{holder}]"
        )
        ok &= g_ok and d_ok
    assert verdict(7, ok, "; ".join(lines))


def _holder_mass(v, N, W, q):
    # (sum over the low set of prod ||v_ni||^q)^(1/q), the second Hoelder factor
    g = v.grid
    _, n1, n2, n3 = triple_table(g.n_max, W, N, "A_N", PRODUCT)
    norms = v.box_norms()
    prod = norms[n1 + g.n_max] * norms[n2 + g.n_max] * norms[n3 + g.n_max]
    return float(np.sum(prod**q) ** (1.0 / q))


def criterion8_inputs():
    """Criterion 8's state (sparse support S) and the boxes every node may use."""
    grid = make_grid(4, 64)
    S = [-2, 0, 2, 22, 27]
    reach = sorted(
        {
            a - b + c + d
            for a in S
            for b in S
            for c in S
            for d in (-1, 0, 1)
            if abs(a - b + c + d) < 64
        }
    )
    allowed = sorted(set(S) | set(reach))
    rng = np.random.default_rng(7)
    data = np.zeros((2 * 64, 4), dtype=complex)
    for n in S:
        data[n + 64] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = BoxedState(grid, data, 0.0)
    return v.scaled(0.5 / v.lq_norm(2.0)), allowed


def test_criterion_08_remainder_decay():
    v, allowed = criterion8_inputs()
    vals = {}
    for J in (1, 2, 3):
        vals[J] = remainder_n2(v, J, 1.0, window=48, allowed_all=allowed).lq_norm(math.inf)
    ok = vals[1] > vals[2] > vals[3] and vals[2] > 0
    live3 = _chain_possible(3, 1.0, 48)
    assert verdict(
        8, ok,
        f"linf norms {vals[1]:.3e} > {vals[2]:.3e} > {vals[3]:.3e}; level 3 "
        f"{'live' if live3 else 'structurally empty'} (_chain_possible(3, 1, 48) = {live3})",
    )


def test_criterion_08_level_three_structurally_empty():
    # the level-3 barrier 7^3 * 248^0.99 exceeds 3 * max|Phi| at window 48, so
    # criterion 8's v2 > v3 holds against an all-zero level
    v, allowed = criterion8_inputs()
    assert _chain_possible(3, 1.0, 48) is False
    assert np.all(remainder_n2(v, 3, 1.0, window=48, allowed_all=allowed).data == 0)


@pytest.fixture(scope="module")
def solver_run():
    cfg = ExperimentConfig(kind="compare", grid_B=16, grid_n_max=32, amplitude=0.01, K=16)
    params = choose_parameters(1.0, 2.0, J=2, K=16)
    errors, reports = compare_with_reference(cfg, params, J_values=(1, 2, 3))
    return params, errors, reports


def test_criterion_09_solver_agreement(solver_run):
    t0 = time.perf_counter()
    params, errors, _ = solver_run
    ok = errors[2] <= 1e-3
    ok &= errors[2] <= errors[1] + 1e-12 and errors[3] <= errors[2] + 1e-12
    dt = time.perf_counter() - t0
    assert verdict(
        9, ok,
        f"relative errors J1={errors[1]:.2e}, J2={errors[2]:.2e}, "
        f"J3={errors[3]:.2e} at T={params.T:.3g}",
    )


def test_criterion_10_contraction(solver_run):
    _, _, reports = solver_run
    ratios = reports[2]["ratios"]
    ok = len(ratios) >= 1 and all(r <= 0.5 for r in ratios)
    assert verdict(10, ok, f"ratios {['%.2e' % r for r in ratios]}")


def test_criterion_11_gamma_bound():
    rng = np.random.default_rng(11)
    worst_margin = math.inf
    ok = True
    for i in range(20):
        q = 2.0 if i % 2 == 0 else 1.5
        params = choose_parameters(1.0, q, J=2, K=8)
        g = make_grid(16, 32)

        def rand_state(bound):
            data = np.zeros((2 * g.n_max, g.bins_per_box), dtype=complex)
            for n in range(-6, 7):
                data[n + g.n_max] = rng.standard_normal(g.bins_per_box) + 1j * rng.standard_normal(
                    g.bins_per_box
                )
            st = BoxedState(g, data, 0.0)
            return st.scaled(bound * float(rng.uniform(0.4, 1.0)) / st.lq_norm(q))

        v0 = rand_state(params.R)
        a = rand_state(params.R_tilde)
        b = rand_state(params.R_tilde)
        times = np.linspace(0.0, params.T, params.K + 1)
        states = []
        for k, t in enumerate(times):
            lam = k / params.K
            st = BoxedState(g, (1 - lam) * a.data + lam * b.data, t)
            states.append(st.scaled(min(1.0, params.R_tilde / st.lq_norm(q))))
        traj = Trajectory(times=times, states=tuple(states))
        out = gamma_partial(v0, traj, params)
        measured = max(st.lq_norm(q) for st in out.states)
        bound = 1.1 * params.R + 0.2 * params.R_tilde
        ok &= measured <= bound
        worst_margin = min(worst_margin, bound - measured)
    assert verdict(11, ok, f"20 pairs, worst margin to (11/10)R + R~/5: {worst_margin:.3f}")
