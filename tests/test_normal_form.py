"""Operator family assembly: splits, inserts, partial sums, parameters."""

import math
from dataclasses import replace
from functools import cache, cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfnls.errors import (
    ConfigurationError,
    DomainError,
    PreconditionError,
    ResourceGuardError,
)
from nfnls.grids import forward, make_grid
from nfnls.harness import gaussian_field
from nfnls.multilinear import BandTuple, q_tree
import nfnls.multilinear as multilinear
import nfnls.normal_form as normal_form
from nfnls.normal_form import (
    BoxedState,
    SolverParams,
    Trajectory,
    apply_n11,
    apply_n12,
    apply_resonant,
    boxed_cubic,
    choose_parameters,
    gamma_partial,
    generation_n0,
    generation_n1,
    generation_nr,
    n3_state,
    n4_state,
    n21_state,
    n22_state,
    n31_state,
    n32_state,
    remainder_n2,
    resonant_r1,
    resonant_r2,
    solve,
    threshold_from_bound,
    _chain_possible,
    _contraction,
    _integrand,
    _mirror_fold,
    _Node,
    _tree_level_sum,
)
from nfnls.resonance import PRODUCT, QUARTIC, enumerate_triples, expand_triples, phase_table, phase_value
from nfnls.trees import enumerate_index_functions, enumerate_trees
from oracles import (
    InnerSums, gap_pass_reference, padded_boxed_cubic, q1_table_sum, resonant_reference,
    tree_level_reference, triple_table,
)

G = make_grid(16, 32)


def random_state(rng, span=6, amp=0.1, t=0.0, grid=G):
    data = np.zeros((2 * grid.n_max, grid.bins_per_box), dtype=complex)
    for n in range(-span, span + 1):
        data[n + grid.n_max] = amp * (
            rng.standard_normal(grid.bins_per_box)
            + 1j * rng.standard_normal(grid.bins_per_box)
        )
    return BoxedState(grid, data, t)


def assert_close(got, want, rel):
    """got equals a nonzero want to rel times the largest modulus of want."""
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= rel * scale


def level_weights(j, sigma):
    """(boundary, insert) weights of level j: i*sigma * (-i*sigma)^(j-2) *
    (i/2)^(j-1), and -i*sigma times it (the normal_form module docstring)."""
    w = 1j * sigma * (-1j * sigma) ** (j - 2) * (0.5j) ** (j - 1)
    return w, -1j * sigma * w


def trimmed(state, rel):
    """The state with the bands below rel * its largest band norm zeroed."""
    norms = state.box_norms()
    return BoxedState(state.grid, np.where(norms[:, None] >= rel * norms.max(), state.data, 0.0), state.time)


def test_zero_state_maps_to_zero():
    z = BoxedState.zero(G, 0.2)
    for op in (
        lambda v: apply_resonant(v, window=6),
        lambda v: apply_n11(v, 8.0, window=6),
        lambda v: apply_n12(v, 8.0, window=6),
        lambda v: n21_state(v, 8.0, window=6),
        lambda v: n4_state(v, 8.0, window=6),
        lambda v: n31_state(v, 8.0, window=6),
        lambda v: remainder_n2(v, 1, 8.0, window=6),
    ):
        assert np.all(op(z).data == 0)


def test_threshold_split_just_below_max_phase():
    # window 2: the largest |Phi| is 45, so N = 44 leaves a live high-phase set
    rng = np.random.default_rng(10)
    v = random_state(rng, span=2, t=0.3)
    N, window = 44.0, 2
    cub = boxed_cubic(v)
    lhs = (
        apply_resonant(v, window=window)
        .plus(apply_n11(v, N, window=window))
        .plus(apply_n12(v, N, window=window))
    )
    assert np.max(np.abs(lhs.data - cub.data)) < 1e-8 * np.max(np.abs(cub.data))
    assert np.any(n21_state(v, N, window=window).data != 0)


@pytest.mark.parametrize("B,n_max", [(4, 8), (8, 16), (16, 32)])
def test_boxed_cubic_matches_padded_oracle(B, n_max):
    # the unshifted 4M transform with the phase on M bins against the padded
    # Grid/Field/Spectrum form, at the state's time and at another
    grid = make_grid(B, n_max)
    v = random_state(np.random.default_rng(B), span=n_max - 1, t=0.37, grid=grid)
    for t in (None, 1.3):
        got, want = boxed_cubic(v, t), padded_boxed_cubic(v, t)
        assert got.time == want.time
        assert np.linalg.norm(got.data - want.data) <= 1e-13 * np.linalg.norm(want.data)


def test_max_abs_phase_is_window_maximum():
    # the tree path's prefilter bounds the level-2 prefix by twice the exact
    # maximum of |Phi| over the window's slack shell: at J = 2 it holds for
    # the largest N whose barrier 5^3 (floor(N) + 1)^0.99 stays below that
    # bound and fails for N + 1
    for w in range(1, 13):
        lim = 3 * w + 1  # every root box, as in the triple tables with n_max > 3w+1
        boxes = np.arange(-lim, lim + 1)
        rows, n1, n2, n3 = expand_triples(boxes, w)
        bound = 2 * np.max(np.abs(phase_value(boxes[rows], n1, n2, n3, QUARTIC)))
        N = math.ceil((bound / 125) ** (1 / 0.99)) - 2
        assert _chain_possible(2, N, w) and not _chain_possible(2, N + 1, w)


def test_no_insert_built_when_high_phase_set_empty(monkeypatch):
    rng = np.random.default_rng(11)
    v = random_state(rng, span=6)
    N = choose_parameters(1.0, 2.0).N

    def refuse(*args, **kwargs):
        raise AssertionError("insert built for an empty high-phase set")

    monkeypatch.setattr(_Node, "resonant", property(refuse))
    monkeypatch.setattr(_Node, "buckets", property(refuse))
    for op in (n4_state, n3_state, n31_state, n32_state, n22_state, n21_state, apply_n12):
        assert np.all(op(v, N, window=13).data == 0)
    _, boundary = _integrand(v, SolverParams(J=2, N=N, T=1.0, q=2.0, window=13))
    assert np.all(boundary.data == 0)


# ---------------------------------------------------------------------------
# the q1 table sums against q1 per row over the reference triple tables

# each set's public operator: (state, N, t, window) -> BoxedState
Q1_OPS = {
    "resonant_R1": lambda v, N, t, w: resonant_r1(v, t, w),
    "resonant_R2": lambda v, N, t, w: apply_resonant(v, t, w),
    "A_N": apply_n11,
    "A_N_complement": apply_n12,
}


def q1_reference(v, t, N, window, mode):
    """q1 summed over the reference table of ``mode``; over R2 that is R2 - R1."""
    return q1_table_sum(v, t, triple_table(v.grid.n_max, window, N, mode))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    n_max=st.sampled_from([8, 16]),
    window=st.integers(1, 7),
    t=st.floats(0.0, 1.0),
)
def test_resonant_one_pass_is_r2_minus_r1(seed, B, n_max, window, t):
    # the resonant set summed once is R2 (overlap twice) less R1; n_max = 8
    # clips the output boxes from window 3 on
    rng = np.random.default_rng(seed)
    grid = make_grid(B, n_max)
    data = np.zeros((2 * n_max, B), dtype=complex)
    boxes = rng.choice(np.arange(n_max - window, n_max + window), size=window + 1, replace=False)
    data[boxes] = rng.standard_normal((len(boxes), B)) + 1j * rng.standard_normal((len(boxes), B))
    v = BoxedState(grid, data, t)
    assert_close(apply_resonant(v, t, window).data, resonant_reference(v, t, window), 1e-14)


@pytest.mark.parametrize("chunk", [128, 12])
@pytest.mark.parametrize("mode", ["resonant_R2", "resonant_R1", "A_N", "A_N_complement"])
def test_sum_q1_over_matches_per_row_picks(mode, chunk, monkeypatch):
    # the spectra summed per (box, slack) before one inverse FFT, in one chunk
    # and in many, give q1 per row summed over the set
    monkeypatch.setattr(normal_form, "ROW_CHUNK", chunk)
    v = random_state(np.random.default_rng(21), span=5, t=0.3)
    assert_close(Q1_OPS[mode](v, 12.0, 0.3, 7).data, q1_reference(v, 0.3, 12.0, 7, mode), 1e-14)


def test_r1_single_band_matches_brute_force():
    rng = np.random.default_rng(1)
    data = np.zeros((2 * G.n_max, G.bins_per_box), dtype=complex)
    data[G.n_max] = rng.standard_normal(G.bins_per_box) + 1j * rng.standard_normal(
        G.bins_per_box
    )
    v = BoxedState(G, data, 0.1)
    assert_close(resonant_r1(v, window=4).data, q1_reference(v, 0.1, None, 4, "resonant_R1"), 1e-12)


def test_r2_weights_doubly_matched_twice():
    # R1, the doubly matched triples, is inside R2
    v = random_state(np.random.default_rng(2), span=3)
    want = sum(q1_reference(v, 0.0, None, 5, mode) for mode in ("resonant_R2", "resonant_R1"))
    assert_close(resonant_r2(v, window=5).data, want, 1e-12)


@pytest.mark.parametrize("convention", [QUARTIC, PRODUCT])
@pytest.mark.parametrize("mode", ["resonant_R1", "resonant_R2", "A_N", "A_N_complement"])
def test_triple_table_identical_to_per_n_tables(mode, convention):
    # the reference tables, of the package's sets and of criterion 7's
    # product-phase sets, against enumerate_triples box by box (the product
    # sets split its non-resonant triples by 2(n - n1)(n - n3)); n_max = 8
    # clips the output boxes at n_max - 1 < 3 * window + 1, n_max = 64 does
    # not; N = inf is the whole non-resonant set, N = 1000 empties A_N^c
    cases = [(8, 4, 12.0), (64, 5, 12.0), (16, 3, math.inf), (16, 3, 1000.0), (4, 1, 2.0)]
    for n_max, window, N in cases:
        lim = min(3 * window + 1, n_max - 1)
        rows = []
        for n in range(-lim, lim + 1):
            if convention == QUARTIC or mode.startswith("resonant"):
                rows += enumerate_triples(n, window, N, mode)
                continue
            for tr in enumerate_triples(n, window, math.inf, "A_N"):
                if (abs(phase_value(*tr, PRODUCT)) <= N) == (mode == "A_N"):
                    rows.append(tr)
        want = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        for g, w in zip(triple_table(n_max, window, N, mode, convention), want):
            np.testing.assert_array_equal(g, w)


LIVE_CASES = [(16, 5, (-4, -1, 0, 3, 5, 9)), (8, 6, (-7, -6, 2)), (64, 48, (-2, 0, 2, 22, 27)),
              (16, 3, ())]


@pytest.mark.parametrize("mode", ["resonant_R2", "A_N", "A_N_complement"])
def test_live_triple_table_is_the_masked_full_table(mode):
    # expanded from the live boxes only: the rows of the full table whose
    # children are all live, in the same order; boxes outside the window and
    # an empty live set included.  A_N (|m| <= 12) and A_N^c (|m| > 12) are
    # read off the live phase table, whose rows are the non-resonant ones;
    # R2 is the rest of the live expansion, which the phase table drops
    nonempty = 0
    for n_max, window, live in LIVE_CASES:
        full = triple_table(n_max, window, 12.0, mode)
        keep = np.all(np.isin(np.stack(full[1:4]), live), axis=0)
        lim = min(3 * window + 1, n_max - 1)
        boxes = np.arange(-lim, lim + 1)
        if mode == "resonant_R2":
            rows, c1, c2, c3 = expand_triples(boxes, window, (live,) * 3)
            n = boxes[rows]
            res = (np.abs(c1 - n) <= 1) | (np.abs(c3 - n) <= 1)
            got = (n[res], c1[res], c2[res], c3[res])
        else:
            tab = phase_table(tuple(boxes.tolist()), window, (live,) * 3, 1)
            if mode == "A_N_complement":
                _, pos = tab.outside(np.arange(len(boxes)), -13.0, 13.0, math.inf)
            else:
                i, j = tab.span(boxes, -12.0, 12.0)
                pos = np.sort(np.concatenate([tab.order[:0]] + [tab.order[a:b] for a, b in zip(i, j)]))
            got = (boxes[tab.row[pos]], tab.c1[pos], tab.c2[pos], tab.c3[pos])
        for g, w in zip(got, full):
            np.testing.assert_array_equal(g, w[keep])
        nonempty += len(got[0]) > 0
    assert nonempty >= 2


@pytest.mark.parametrize("sign", [1, -1])
def test_live_phase_table_is_the_masked_full_table(sign):
    # expanded from the live boxes only: the rows of the full non-resonant
    # table whose children are all live, in the same order; boxes outside the
    # window and an empty live set included
    nonempty = 0
    for n_max, window, live in LIVE_CASES:
        n, n1, n2, n3 = triple_table(n_max, window, math.inf, "A_N")
        keep = np.all(np.isin(np.stack([n1, n2, n3]), live), axis=0)
        lim = min(3 * window + 1, n_max - 1)
        tab = phase_table(tuple(range(-lim, lim + 1)), window, (live,) * 3, sign)
        got = (tab.parents[tab.row], tab.c1, tab.c2, tab.c3, tab.m)
        want = (n, n1, n2, n3, sign * phase_value(n, n1, n2, n3))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w[keep])
        nonempty += len(tab.row) > 0
    assert nonempty >= 2


@pytest.mark.parametrize("mode", ["resonant_R2", "resonant_R1", "A_N", "A_N_complement"])
def test_triple_tables_and_inner_split_are_closed_under_the_mirror(mode):
    # the q1 sums and the gap pass fold each row with its mirror (n, n3, n2,
    # n1): the tables, and the live phase tables split at |phase| = 12 as the
    # inner sums are, hold both, and the fold weighs 2 on the row with
    # n1 < n3, 1 on n1 = n3 and 0 on n1 > n3
    tables = []
    for n_max, window, N in [(8, 4, 12.0), (64, 5, 12.0), (16, 3, math.inf), (16, 6, 16.0)]:
        tables.append(triple_table(n_max, window, None if mode.startswith("resonant") else N, mode))
    for n_max, window, live in LIVE_CASES:
        lim = min(3 * window + 1, n_max - 1)
        tab = phase_table(tuple(range(-lim, lim + 1)), window, (live,) * 3, 1)
        high = np.abs(tab.m) > 12.0
        tables += [tuple(c[k] for c in (tab.parents[tab.row], tab.c1, tab.c2, tab.c3)) for k in (~high, high)]
    assert sum(len(table[0]) > 0 for table in tables) >= 5
    for table in tables:
        n, n1, n2, n3 = table
        assert set(zip(*table)) == set(zip(n, n3, n2, n1))
        folded = _mirror_fold(*table)
        for got, want in zip(folded[:4], table):
            assert np.array_equal(got, want)
        assert np.array_equal(folded[4], np.where(n1 == n3, 1, np.where(n1 < n3, 2, 0)))


# ---------------------------------------------------------------------------
# the generation-one operators against the gap-pass reference


# the live compare config; N just below max|Phi| of window 2; the smallest
# window where n32_state != 0
GENERATION_ONE_CONFIGS = [
    (make_grid(8, 16), 5, 16.0, 6),
    (G, 2, 44.0, 2),
    (make_grid(4, 64), 14, 1.0, 14),
]


def generation_one_pairs(v, t, N, window):
    """{operator: (its data, the gap-pass reference)} at generation one."""
    inner = InnerSums(v, t, window)
    res = resonant_reference(v, t, window)

    def nonresonant(which):
        return lambda boxes, mu1, sign: inner.insert(which, boxes, sign, mu1, mu1, 1)

    ref = {
        n21_state: gap_pass_reference(v, t, N, window),
        n4_state: gap_pass_reference(v, t, N, window, lambda boxes, mu1, sign: res[boxes + v.grid.n_max]),
        n3_state: gap_pass_reference(v, t, N, window, nonresonant("all")),
        n31_state: gap_pass_reference(v, t, N, window, nonresonant("low")),
        n32_state: gap_pass_reference(v, t, N, window, nonresonant("high")),
    }
    ref[n22_state] = ref[n4_state] + ref[n3_state]
    return {op: (op(v, N, t, window).data, want) for op, want in ref.items()}


@cache
def generation_one_case(grid, span, N, window):
    """A random state of a generation-one config at t = 0.2, and its pairs."""
    v = random_state(np.random.default_rng(15), span=span, t=0.2, grid=grid)
    return v, generation_one_pairs(v, 0.2, N, window)


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_generation_one_operators_match_per_slot_oracle(grid, span, N, window):
    _, pairs = generation_one_case(grid, span, N, window)
    for op, (got, want) in pairs.items():
        if op is n32_state and window < 14:
            assert not np.any(want) and not np.any(got)  # structurally empty below window 14
            continue
        assert_close(got, want, 1e-13)


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_fused_generation_one_inserts(grid, span, N, window):
    # the J = 2 integrand takes the boundary and the resonant and low-set
    # inserts from one gap pass less N32, and N12 from the node's inner sums
    v, pairs = generation_one_case(grid, span, N, window)
    total, boundary = _integrand(v, SolverParams(J=2, N=N, T=1.0, q=2.0, window=window))
    w_bnd, w_ins = level_weights(2, 1)
    n12 = q1_reference(v, 0.2, N, window, "A_N_complement")
    inserts = pairs[n4_state][1] + pairs[n31_state][1]
    assert_close(boundary.data, w_bnd * pairs[n21_state][1], 1e-13)
    assert_close(total.data, 1j * (padded_boxed_cubic(v).data - n12) + w_ins * inserts, 1e-13)


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_tree_pass_at_one_generation_is_the_gap_pass(grid, span, N, window):
    # the J = 1 tree kernel, which gives N32, on the boundary and every
    # per-box insert
    v, pairs = generation_one_case(grid, span, N, window)
    node = _Node(v, 0.2, window)
    kinds = {n21_state: {}, n4_state: dict(resonant=True), n3_state: dict(which="all"),
             n22_state: dict(resonant=True, which="all")}
    for op, kw in kinds.items():
        assert_close(_tree_level_sum(node, 1, N, **kw).data, pairs[op][1], 1e-13)


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_n12_from_shared_rows_matches_apply_n12(grid, span, N, window):
    # the integrand's N12: the node's inner sums above the threshold
    v, _ = generation_one_case(grid, span, N, window)
    assert_close(_Node(v, 0.2, window).inner(N)[1], apply_n12(v, N, 0.2, window).data, 1e-15)


def high_pass_cases():
    """(J, state, N, window): the generation-one configs and a window-3
    config at J = 1; the sparse tree-path states at J = 2."""
    rng = np.random.default_rng(24)
    for grid, span, N, window in GENERATION_ONE_CONFIGS + [(make_grid(8, 16), 2, 6.0, 3)]:
        yield 1, random_state(rng, span=span, t=0.2, grid=grid), N, window
    v, _ = tiny_remainder_inputs()
    yield 2, v.at_time(0.37), 1.0, 16
    yield 2, roots_outside_state(), 0.0, 15


@pytest.mark.parametrize("case", range(6))
def test_high_tree_pass_needs_the_next_chain_step(case, monkeypatch):
    # with the prefilter off, a nonzero "high" pass at J needs a possible
    # chain of J + 1 levels; window 14, N = 1 is nonzero at J = 1
    J, v, N, window = list(high_pass_cases())[case]
    monkeypatch.setattr(normal_form, "_chain_possible", lambda *args: True)
    got = _tree_level_sum(_Node(v, v.time, window), J, N, which="high").data
    assert _chain_possible(J + 1, N, window) or not np.any(got)
    assert np.any(got) == ((J, N, window) == (1, 1.0, 14))


def test_live_config_builds_no_inner_buckets(monkeypatch):
    # the live compare state: N32 is structurally empty at window 6, so the
    # J = 2 integrand and the full inserts read only per-box inner sums; the
    # gap pass builds no buckets where N32 is live either (window 14)
    grid = make_grid(8, 16)
    u0 = gaussian_field(grid, amplitude=0.5, width=2.0)
    v = trimmed(BoxedState.from_spectrum(forward(u0), 0.01), 1e-8)
    params = SolverParams(J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=6, window=6)
    grid, span, N, window = GENERATION_ONE_CONFIGS[2]
    w, _ = generation_one_case(grid, span, N, window)

    def refuse(*args, **kwargs):
        raise AssertionError("inner phase buckets built")

    monkeypatch.setattr(_Node, "buckets", property(refuse))
    total, boundary = _integrand(v, params)
    assert np.any(total.data != 0) and np.any(boundary.data != 0)
    for op in (n3_state, n22_state):
        assert np.any(op(v, 16.0, 0.01, 6).data != 0)
    assert np.any(n22_state(w, N, 0.2, window).data != 0)


@pytest.mark.parametrize("B", [4, 8, 16])
def test_contraction_table_equals_inverse_fft_and_pick(B):
    # random spectra, whose inverse FFTs have a nonzero wrap-around term
    rng = np.random.default_rng(B)
    T = 9
    P = rng.standard_normal((T, B, 2 * B)) + 1j * rng.standard_normal((T, B, 2 * B))
    g2 = rng.standard_normal((T, B)) + 1j * rng.standard_normal((T, B))
    slack = np.arange(T) % 3
    conv = np.fft.ifft(P)
    want = np.zeros((T, B), dtype=complex)
    for t in range(T):
        for a in range(B):
            for j in range(B):
                m = slack[t] * B - 1 + a - j
                if 0 <= m <= 2 * B - 2:
                    want[t, a] += conv[t, a, m] * g2[t, j]
    W = _contraction(B)
    got = np.einsum("tak,tak->ta", P, np.einsum("tj,tjak->tak", g2, W[slack]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    s, j, a = np.ogrid[:3, :B, :B]
    m = s * B - 1 + a - j
    assert W.shape == (3, B, B, 2 * B)
    assert np.all(W[(m < 0) | (m > 2 * B - 2)] == 0)


def fold_state(rng, B, dead, outside):
    """Random bands on 32 boxes, a fraction ``dead`` of them zero, and box
    ``outside`` live (as a box outside the window)."""
    data = rng.standard_normal((32, B)) + 1j * rng.standard_normal((32, B))
    data[rng.random(32) < dead] = 0.0
    data[outside + 16] = rng.standard_normal(B)
    return BoxedState(make_grid(B, 16), data, 0.2)


def assert_folded_sum(got, want, rel, v, table, slots):
    # the output boxes without a row of at least ``slots`` live bands stay
    # exactly 0.0; where the terms cancel to rounding noise, the scale is
    # floored at a cubic term's size
    alive = np.any(v.data != 0, axis=1)
    live = sum(alive[b + v.grid.n_max] for b in table[1:]) >= slots
    assert np.all(np.delete(got, table[0][live] + v.grid.n_max, axis=0) == 0)
    scale = max(np.max(np.abs(want)), 1e-3 * np.max(np.abs(v.data)) ** 3)
    assert np.max(np.abs(got - want)) <= rel * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), B=st.sampled_from([2, 4, 8]), dead=st.sampled_from([0.3, 0.8]))
def test_folded_gap_pass_matches_per_row_oracle(seed, B, dead):
    # the window's A_N^c table, whose row groups fold with their mirrors, on
    # sparse states with box -4 live outside window 3, as at the live compare
    # config; a row needs two live slots
    v = fold_state(np.random.default_rng(seed), B, dead, -4)
    table = triple_table(16, 3, 4.0, "A_N_complement")
    for got, want in generation_one_pairs(v, 0.2, 4.0, 3).values():
        assert_folded_sum(got, want, 1e-13, v, table, 2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    dead=st.sampled_from([0.3, 0.8]),
    mode=st.sampled_from(["resonant_R2", "resonant_R1", "A_N", "A_N_complement"]),
)
def test_folded_sum_q1_over_matches_per_row_oracle(seed, B, dead, mode):
    # the folded tables of window 4 with box -5 live outside it: a child set
    # of the node's inner table that no child reaches; the inner sums split
    # at |phase| = 8 are A_N and A_N^c
    v = fold_state(np.random.default_rng(seed), B, dead, -5)
    pairs = [(Q1_OPS[mode](v, 8.0, 0.2, 4).data, mode)]
    pairs += zip(_Node(v, 0.2, 4).inner(8.0), ("A_N", "A_N_complement"))
    for got, mode in pairs:
        want = q1_reference(v, 0.2, 8.0, 4, mode)
        assert_folded_sum(got, want, 1e-14, v, triple_table(16, 4, 8.0, mode), 3)


@cache
def live_set_case(dead):
    """A random state at t = 0.3 on 13 boxes, the boxes ``dead`` zeroed, and
    its references at N = 9, window 5: {operator: wanted data}."""
    grid, t, N, window = make_grid(4, 16), 0.3, 9.0, 5
    v = random_state(np.random.default_rng(31), span=6, t=t, grid=grid)
    v = BoxedState(grid, np.where(np.isin(np.arange(-16, 16), dead)[:, None], 0.0, v.data), t)
    inner, res = InnerSums(v, t, window), resonant_reference(v, t, window)
    return v, {
        apply_n12: q1_reference(v, t, N, window, "A_N_complement"),
        apply_resonant: res,
        n21_state: gap_pass_reference(v, t, N, window),
        n22_state: gap_pass_reference(
            v, t, N, window, lambda boxes, mu1, sign: res[boxes + 16] + inner.sum(boxes)
        ),
    }


@pytest.mark.parametrize("chunk", [128, 12])
def test_row_plans_follow_the_live_set(chunk, monkeypatch):
    # the row plans are cached per live set: two states on one grid, window
    # and N, B's live boxes a subset of A's, taken as B, A, B, A.  A plan of
    # A serving B only adds rows of zero terms; one of B serving A drops rows
    monkeypatch.setattr(normal_form, "ROW_CHUNK", chunk)
    cases = [live_set_case((-4, 1, 3)), live_set_case(())]
    for v, refs in cases + cases:
        for op, want in refs.items():
            args = (v, 0.3, 5) if op is apply_resonant else (v, 9.0, 0.3, 5)
            assert_close(op(*args).data, want, 1e-14 if op in (apply_n12, apply_resonant) else 1e-13)


@pytest.mark.parametrize("grid, span, window", [(make_grid(8, 16), 5, 6), (make_grid(4, 64), 14, 14)])
def test_state_gathered_q1_rows_equal_per_row_transforms(grid, span, window):
    # the tree path's inner buckets hold q1 rows gathered from per-box
    # transforms of the state; per box they sum to the per-row transforms
    v = random_state(np.random.default_rng(17), span=span, t=0.2, grid=grid)
    boxes = np.arange(-3 * window - 1, 3 * window + 2)
    got = _Node(v, 0.2, window).buckets.sum(boxes)
    assert_close(got, InnerSums(v, 0.2, window).sum(boxes), 1e-14)


def test_resonant_norm_cubic_bound():
    rng = np.random.default_rng(3)
    for q in (1.5, 2.0):
        for _ in range(5):
            v = random_state(rng, span=5)
            nv = v.lq_norm(q)
            for op in (apply_resonant,):
                r = op(v, window=7)
                assert r.lq_norm(q) <= 5.0 * nv**3


def test_n11_empty_below_minimal_phase():
    rng = np.random.default_rng(4)
    v = random_state(rng, span=5)
    # smallest nonzero |Phi| over the window is >= 1 on the integer lattice
    out = apply_n11(v, 0.5, window=5)
    nonres = enumerate_triples(0, 5, 0.5, "A_N")
    assert nonres == []
    assert np.all(out.data == 0)


def test_n21_matches_per_triple_oracle():
    v = random_state(np.random.default_rng(5), span=4, t=0.25)
    assert_close(n21_state(v, 10.0, window=5).data, gap_pass_reference(v, 0.25, 10.0, 5), 1e-13)


def test_fd_identity_n12_vs_n21():
    # frozen state: d/dt n21 = -2i * n12
    rng = np.random.default_rng(6)
    v = random_state(rng, span=4)
    N, t0, dt = 10.0, 0.3, 2e-5
    plus = n21_state(v, N, t0 + dt, window=5)
    minus = n21_state(v, N, t0 - dt, window=5)
    fd = (plus.data - minus.data) / (2 * dt)
    want = -2j * apply_n12(v, N, t0, window=5).data
    assert np.max(np.abs(fd - want)) < 1e-6 * np.max(np.abs(want))


def test_n4_matches_direct_insert_loop():
    v = random_state(np.random.default_rng(7), span=3, t=0.15)
    res = resonant_reference(v, 0.15, 4)
    want = gap_pass_reference(v, 0.15, 8.0, 4, lambda boxes, mu1, sign: res[boxes + G.n_max])
    assert_close(n4_state(v, 8.0, window=4).data, want, 1e-13)


def test_n31_n32_match_slow_oracle_and_partition():
    # below window 14 the high joint-phase part is empty, so N31 is N3
    v = random_state(np.random.default_rng(8), span=2, t=0.05, grid=make_grid(8, 16))
    pairs = generation_one_pairs(v, 0.05, 6.0, 3)
    for op in (n31_state, n3_state, n22_state):
        assert_close(*pairs[op], 1e-13)
    assert not np.any(pairs[n32_state][0]) and not np.any(pairs[n32_state][1])


def test_inner_buckets_sum_matches_masked_per_box_sum():
    # a sparse support leaves gaps between the indexed output boxes; the
    # queries reach below, between and above them
    g = make_grid(4, 32)
    support = (-5, 0, 5)
    rng = np.random.default_rng(12)
    data = np.zeros((2 * g.n_max, g.bins_per_box), dtype=complex)
    for n in support:
        data[n + g.n_max] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t, window = 0.1, 6
    v = BoxedState(g, data, t)
    node, ref = _Node(v, t, window), InnerSums(v, t, window)

    query_boxes = np.arange(-25, 26)
    indexed = set(ref.rows)
    assert query_boxes[0] < min(indexed) and query_boxes[-1] > max(indexed)
    assert any(min(indexed) < m < max(indexed) and m not in indexed for m in query_boxes)
    boxes, los, his = [], [], []
    for m in query_boxes:
        phases = ref.rows[m][0] if m in indexed else [0]
        a, b = min(phases), max(phases)
        intervals = [
            (-math.inf, math.inf),
            (-math.inf, (a + b) / 2 + 0.5),  # non-integer upper bound
            (a + 0.25, math.inf),  # non-integer lower bound
            (a - 7.5, b + 7.5),  # covers every phase of the box
            (b + 0.5, b + 30.0),  # above every phase: empty
            (a - 30.0, a - 0.5),  # below every phase: empty
            (a + 0.25, a + 0.75),  # no integer inside: empty
            (phases[0], phases[0]),  # one integer phase
        ] + [tuple(sorted(rng.uniform(a - 5, b + 5, 2))) for _ in range(4)]
        for lo, hi in intervals:
            boxes.append(m)
            los.append(lo)
            his.append(hi)
    boxes, los, his = np.array(boxes), np.array(los), np.array(his)
    assert_close(node.buckets.sum(boxes, los, his), ref.sum(boxes, los, his), 1e-12)

    # the level-1 low set and its complement; radii 125 * max(|mu_prev|,
    # |mu_first|)^0.99 up to ~250 leave rows of phase up to ~280 on both
    # sides; and per box a radius 0.005 below its largest phase, where the
    # center -sign * mu_prev = -0.01 * sign decides that row's side
    mu_prev = rng.integers(-2, 3, len(boxes)).astype(float)
    mu_first = rng.integers(-2, 3, len(boxes)).astype(float)
    edge = np.array([m for m in sorted(indexed) if ref.rows[m][0][-1] > 2])
    top = np.array([ref.rows[m][0][-1] for m in edge], dtype=float)
    boxes = np.concatenate([boxes, edge])
    mu_prev = np.concatenate([mu_prev, np.full(len(edge), 0.01)])
    mu_first = np.concatenate([mu_first, ((top - 0.005) / 125) ** (1 / 0.99)])
    for sign in (+1, -1):
        for which in ("low", "high"):
            got = node.inserts(boxes, None, False, which, sign, mu_prev, mu_first, 1)
            want = ref.insert(which, boxes, sign, mu_prev, mu_first, 1)
            assert_close(got, want, 1e-12)
        # where the low set holds the box's whole run, "high" is exactly zero:
        # the tree pass's liveness test reads these rows
        whole = np.any(ref.sum(boxes) != 0, axis=1) & ~np.any(want != 0, axis=1)
        assert whole.any() and not whole.all()
        assert np.all(got[whole] == 0.0)


def test_generation_ops_empty_at_compliant_threshold():
    rng = np.random.default_rng(9)
    v = random_state(rng, span=6)
    p = choose_parameters(1.0, 2.0)
    for J in (1, 2):
        assert np.all(generation_n0(v, J, p.N, window=10).data == 0)
        assert np.all(generation_nr(v, J, p.N, window=10).data == 0)
        assert np.all(generation_n1(v, J, p.N, window=10).data == 0)


def test_threshold_examples_and_monotonicity():
    assert threshold_from_bound(1.0, 2.0) == 5.0
    assert threshold_from_bound(2.0, 2.0) == 67.0
    with pytest.raises(DomainError):
        threshold_from_bound(1.0, 3.0)
    prev_N, prev_T = 0.0, math.inf
    for R in (1.0, 1.5, 2.0, 3.0):
        p = choose_parameters(R, 2.0)
        assert p.N >= prev_N
        assert p.T <= prev_T
        prev_N, prev_T = p.N, p.T
    # q = 1 limit exponent is 100/99
    assert threshold_from_bound(1.0, 1.0) == float(np.ceil(2 ** (100 / 99)))


def test_params_validation():
    p = choose_parameters(1.0, 2.0)
    with pytest.raises(ConfigurationError):
        SolverParams(J=2, N=3.0, T=p.T, q=2.0).validate()  # N below the bound
    with pytest.raises(ConfigurationError):
        SolverParams(J=2, N=p.N, T=1e6, q=2.0).validate()  # T too large
    with pytest.raises(DomainError):
        choose_parameters(0.5, 2.0)


@pytest.mark.parametrize("field, value", [("support_trim", -1.0), ("window", 0)])
def test_negative_trim_and_window_below_one_are_rejected(field, value):
    # a negative trim acted as no trim; window 0 failed at the first node
    p = replace(choose_parameters(1.0, 2.0, K=4), **{field: value})
    with pytest.raises(ConfigurationError, match=field):
        p.validate()
    with pytest.raises(ConfigurationError, match=field):
        solve(BoxedState.zero(make_grid(8, 16)), p)


def test_gamma_zero_fixed_point_and_guarded_windows():
    p = choose_parameters(1.0, 2.0, K=4)
    times = np.linspace(0.0, p.T, p.K + 1)
    z = BoxedState.zero(G)
    traj = Trajectory(times=times, states=tuple(z.at_time(t) for t in times))
    out = gamma_partial(z, traj, p)
    for st in out.states:
        assert np.all(st.data == 0)


def test_n0_decay_within_factor_three():
    # boundary sums at N and 4N drop by about 4^(1/q'-1), within factor 3
    rng = np.random.default_rng(12)
    g = make_grid(8, 40)
    data = np.zeros((80, 8), dtype=complex)
    for n in range(-8, 9):
        data[n + 40] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = BoxedState(g, data, 0.0)
    for q in (1.5, 2.0):
        qp = q / (q - 1.0)
        vn = v.scaled(1.0 / v.lq_norm(q))
        ratio = (
            n21_state(vn, 64.0, window=16).lq_norm(q)
            / n21_state(vn, 16.0, window=16).lq_norm(q)
        )
        ideal = 4.0 ** (1.0 / qp - 1.0)
        assert ideal / 3.0 <= ratio <= ideal * 3.0


def test_remainder_support_arithmetic():
    # the level-2 tail has 5 data leaves: its output lives inside the 5-fold
    # near-sum reach of the band support (one band alone is non-resonantly
    # sterile and gives the empty tail)
    rng = np.random.default_rng(13)
    g = make_grid(4, 64)
    supp = [0, 5, 9]
    data = np.zeros((128, 4), dtype=complex)
    for n in supp:
        data[64 + n] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = BoxedState(g, data, 0.0)
    out = remainder_n2(v, 1, 1.0, window=20)
    hot = set((np.flatnonzero(out.box_norms() > 0) - 64).tolist())
    reach5 = {
        a - b + c - d + e + s
        for a in supp for b in supp for c in supp for d in supp for e in supp
        for s in (-2, -1, 0, 1, 2)
    }
    assert hot and hot <= reach5

    single = np.zeros((128, 4), dtype=complex)
    single[64 + 2] = 1.0
    empty = remainder_n2(BoxedState(g, single, 0.0), 1, 1.0, window=8)
    assert np.all(empty.data == 0)


def test_solve_zero_data_single_iteration():
    p = choose_parameters(1.0, 2.0, K=4)
    g = make_grid(8, 16)
    z = BoxedState.zero(g)
    traj, info = solve(z, p)
    assert info["iterations"] == 1
    for st in traj.states:
        assert np.all(st.data == 0)


def test_solve_evaluates_node_zero_once(monkeypatch):
    # the live compare inputs (test_harness.test_constants_visible_at_moderate_threshold):
    # v(0) = v0 at every iterate, so node 0 maps to v0 exactly and its
    # integrand, which also gives the time-zero boundary, is evaluated once
    grid = make_grid(8, 16)
    u0 = gaussian_field(grid, amplitude=0.5, width=2.0)
    params = SolverParams(
        J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=6, picard_tol=1e-13,
        window=6, support_trim=1e-8,
    )
    calls = []

    def counted(state, params):
        calls.append(state.time)
        return _integrand(state, params)

    monkeypatch.setattr(normal_form, "_integrand", counted)
    traj, report = solve(u0, params)
    assert report["iterations"] == 6
    assert len(calls) == 1 + report["iterations"] * params.K
    assert calls.count(0.0) == 1
    v0 = trimmed(BoxedState.from_spectrum(forward(u0)), params.support_trim)
    assert np.array_equal(traj.states[0].data, v0.data)

    # public gamma_partial on a trajectory that starts elsewhere: node 0 is
    # v0 - B(v0) + B(v(0)), with B the weighted level-2 boundary
    times = np.linspace(0.0, params.T, params.K + 1)
    w = v0.scaled(1.1)
    out = gamma_partial(v0, Trajectory(times, tuple(w.at_time(t) for t in times)), params)
    w_bnd, _ = level_weights(2, params.sign)
    jump = n21_state(w, params.N, 0.0, params.window).plus(
        n21_state(v0, params.N, 0.0, params.window), -1.0
    )
    want = v0.data + w_bnd * jump.data
    assert np.any(jump.data != 0)
    assert np.max(np.abs(out.states[0].data - want)) <= 1e-15 * np.max(np.abs(want))
    same = gamma_partial(v0, Trajectory(times, tuple(v0.at_time(t) for t in times)), params)
    assert np.array_equal(same.states[0].data, v0.data)


def test_choose_parameters_q1_limit():
    p = choose_parameters(1.0, 1.0)
    assert p.N == float(np.ceil((2 * 16.0) ** (100.0 / 99.0)))
    assert p.T > 0
    p.validate()


def test_gamma_constant_when_no_interactions():
    # far-separated single occupied boxes: no triple can land near them
    p = choose_parameters(1.0, 2.0, K=4)
    data = np.zeros((2 * G.n_max, G.bins_per_box), dtype=complex)
    data[G.n_max + 20, 3] = 1e-3
    v0 = BoxedState(G, data, 0.0)
    # the only triples live at n1=n2=n3=20 which is resonant; with window
    # forced to exclude everything the map returns v0 exactly
    times = np.linspace(0.0, p.T, p.K + 1)
    traj = Trajectory(times=times, states=tuple(v0.at_time(t) for t in times))
    out = gamma_partial(v0, traj, p)
    drift = max(
        np.max(np.abs(st.data - v0.data)) for st in out.states
    )
    # self-interaction of a single box is resonant-only and O(amp^3 * T)
    assert drift < 1e-9 * np.max(np.abs(v0.data)) + 5e-12


# ---------------------------------------------------------------------------
# the batched tree-level sum against one q_tree call per index function


def tiny_remainder_inputs():
    """Criterion 8 at small size: a sparse support, window 16, and the boxes
    every node may use."""
    g = make_grid(4, 64)
    support = [-2, 0, 2, 9, 12]
    reach = {a - b + c + d for a in support for b in support for c in support for d in (-1, 0, 1)}
    rng = np.random.default_rng(1)
    data = np.zeros((128, 4), dtype=complex)
    for n in support:
        data[n + 64] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = BoxedState(g, data, 0.0)
    return v.scaled(0.5 / v.lq_norm(2.0)), sorted(set(support) | reach)


# the reference's mode strings as the tree path's insert keywords
TREE_INSERTS = {
    "n0": {},
    "nr": {"resonant": True},
    "n1": {"which": "low"},
    "rem": {"which": "all"},
    "nr+n1": {"resonant": True, "which": "low"},
}


def batched_tree_level_sum(v, J, t, mode, allowed):
    """The public operator where it reaches the tree path, else the private sum."""
    if J >= 2 and allowed is None and mode != "nr+n1":
        op = {"n0": generation_n0, "nr": generation_nr, "n1": generation_n1, "rem": remainder_n2}
        return op[mode](v, J, 1.0, t, 16)
    if mode == "rem":
        return remainder_n2(v, J, 1.0, t, 16, allowed_all=allowed)
    return _tree_level_sum(_Node(v, t, 16), J, 1.0, **TREE_INSERTS[mode], allowed_all=allowed)


@cache
def tree_reference(J, t, mode, restricted):
    """The tree-level reference on the tiny remainder inputs."""
    v, allowed = tiny_remainder_inputs()
    return tree_level_reference(v, J, 1.0, t, 16, mode, allowed if restricted else None).data


# the nonzero cases: every mode at J = 1; at J = 2 the chain filter leaves only
# index functions whose low-set and unrestricted inserts are live
LIVE_TREE_CASES = {
    ("n0", 1), ("nr", 1), ("n1", 1), ("rem", 1), ("nr+n1", 1), ("n1", 2), ("rem", 2), ("nr+n1", 2),
}


@pytest.mark.parametrize("t", [0.0, 0.37])
@pytest.mark.parametrize("restricted", [True, False])
@pytest.mark.parametrize("J", [1, 2])
@pytest.mark.parametrize("mode", ["n0", "nr", "n1", "rem", "nr+n1"])
def test_batched_tree_level_sum_matches_per_assignment_oracle(mode, J, restricted, t):
    # "nr+n1" is the fused resonant and low-set insert pass of the integrand,
    # against the sum of the two references
    v, allowed = tiny_remainder_inputs()
    allowed = allowed if restricted else None
    got = batched_tree_level_sum(v.at_time(t), J, t, mode, allowed).data
    want = sum(tree_reference(J, t, m, restricted) for m in mode.split("+"))
    if (mode, J) in LIVE_TREE_CASES:
        assert_close(got, want, 1e-13)
    else:
        assert not np.any(want) and not np.any(got)


ROOTS_OUTSIDE_SUPPORT = (-13, -6, 0, 8, 13)


def roots_outside_state():
    """A sparse state at t = 0.1 whose level-3 boundary (N = 0, window 15)
    reaches roots outside the three-fold sums of its boxes."""
    g = make_grid(4, 64)
    rng = np.random.default_rng(3)
    data = np.zeros((2 * g.n_max, g.bins_per_box), dtype=complex)
    for n in ROOTS_OUTSIDE_SUPPORT:
        data[n + g.n_max] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return BoxedState(g, data, 0.1)


def test_tree_level_sum_reaches_roots_outside_the_leaf_box_sums():
    # internal nodes have no box set, so a root need not lie within 1 of a
    # three-fold sum of the occupied boxes: here roots -16, -3 and 11 do not,
    # yet carry index functions
    v = roots_outside_state()
    g, t, support = v.grid, v.time, ROOTS_OUTSIDE_SUPPORT
    got = generation_n0(v, 2, 0.0, t, 15).data
    want = tree_level_reference(v, 2, 0.0, t, 15, "n0").data
    sums = {a - b + c + d for a in support for b in support for c in support for d in (-1, 0, 1)}
    outside = np.array([-16, -3, 11])
    assert not sums & set(outside.tolist())
    assert np.all(np.any(want[outside + g.n_max] != 0, axis=1))
    assert_close(got, want, 1e-12)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("case", ["inserts", "boundary"])
def test_level_three_integrand_is_the_weighted_operator_sum(case, sigma):
    # the J = 3 integrand and boundary against the public operators with the
    # level weights, on states where the level-3 inserts, or the level-3
    # boundary, are nonzero
    if case == "inserts":
        v, _ = tiny_remainder_inputs()
        v, N, window = v.at_time(0.37), 1.0, 16
    else:
        v, N, window = roots_outside_state(), 0.0, 15
    t = v.time
    params = SolverParams(J=3, N=N, T=1.0, q=2.0, sign=sigma, window=window)
    got, got_bnd = _integrand(v, params)

    (b2, i2), (b3, i3) = (level_weights(j, sigma) for j in (2, 3))
    level3_inserts = generation_nr(v, 2, N, t, window).plus(generation_n1(v, 2, N, t, window))
    level3_boundary = generation_n0(v, 2, N, t, window)
    want = (
        boxed_cubic(v, t).plus(apply_n12(v, N, t, window), -1.0).scaled(1j * sigma)
        .plus(n4_state(v, N, t, window).plus(n31_state(v, N, t, window)), i2)
        .plus(level3_inserts, i3)
    )
    want_bnd = n21_state(v, N, t, window).scaled(b2).plus(level3_boundary, b3)
    for a, b in ((got, want), (got_bnd, want_bnd)):
        assert np.max(np.abs(a.data - b.data)) <= 1e-13 * np.max(np.abs(b.data))
    # the live level-3 term stands far above the tolerance, so a wrong weight shows
    if case == "inserts":
        live, total = i3 * level3_inserts.data, want
    else:
        live, total = b3 * level3_boundary.data, want_bnd
    assert np.max(np.abs(live)) >= 1e-11 * np.max(np.abs(total.data))


def test_level_three_integrand_builds_each_insert_state_once(monkeypatch):
    # level 2's gap pass and level 3's two tree passes evaluate at one node,
    # which builds the resonant insert and the inner phase buckets once, on a
    # state whose level-3 inserts are live
    v, _ = tiny_remainder_inputs()
    built = {"resonant": 0, "buckets": 0}
    for name in built:

        def build(node, name=name, original=getattr(_Node, name).func):
            built[name] += 1
            return original(node)

        prop = cached_property(build)
        prop.__set_name__(_Node, name)
        monkeypatch.setattr(_Node, name, prop)
    _integrand(v.at_time(0.37), SolverParams(J=3, N=1.0, T=1.0, q=2.0, window=16))
    assert built == {"resonant": 1, "buckets": 1}


def test_tree_level_sum_assignment_guard(monkeypatch):
    v, allowed = tiny_remainder_inputs()
    monkeypatch.setattr(normal_form, "ASSIGNMENT_GUARD", 200)
    with pytest.raises(ResourceGuardError):
        remainder_n2(v, 2, 1.0, window=16, allowed_all=allowed)


def test_tree_level_sum_singular_prefix_and_zero_inserts(monkeypatch):
    # a prefix floor no tuple clears: nonzero data raise as in q_tree, and
    # rows whose insert is exactly zero never reach the check
    v, allowed = tiny_remainder_inputs()
    monkeypatch.setattr(multilinear, "MIN_PREFIX_DENOMINATOR", 1e6)
    with pytest.raises(PreconditionError, match="singular prefix") as batched:
        remainder_n2(v, 1, 1.0, window=16, allowed_all=allowed)
    tree = enumerate_trees(1)[0]
    assign = next(
        a for a in enumerate_index_functions(
            tree, 0, 16, 1.0, allowed_boxes={b: [-2, 0, 2, 9, 12] for b in tree.terminal_ids()}
        )
        if all(np.any(v.band(a.freq[b]).coeffs) for b in tree.terminal_ids())
    )
    bands = tuple(v.band(assign.freq[b]) for b in tree.terminal_ids())
    with pytest.raises(PreconditionError) as single:
        q_tree(tree, assign, BandTuple(bands, (False, True, False)), 0.0)
    assert str(batched.value) == str(single.value)

    def no_inserts(node, boxes, *args):
        return np.zeros((len(boxes), v.grid.bins_per_box), dtype=complex)

    monkeypatch.setattr(_Node, "inserts", no_inserts)
    for J in (1, 2):
        assert not np.any(remainder_n2(v, J, 1.0, window=16, allowed_all=allowed).data)
