"""Operator family assembly: splits, inserts, partial sums, parameters."""

import math
from dataclasses import replace
from functools import cached_property

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
from nfnls.grids import make_grid
from nfnls.multilinear import BandTuple, q1, q_tree
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
    threshold_from_bound,
    _contraction,
    _coupled_insert_rows,
    _gap_index,
    _generation_one,
    _generation_one_low,
    _InnerBuckets,
    _low_set,
    _max_abs_phase,
    _mirror_fold,
    _Node,
    _output_boxes,
    _q1_rows,
    _sum_q1_over,
    _tree_level_sum,
    _triple_table,
)
from nfnls.resonance import PRODUCT, QUARTIC, enumerate_triples, expand_triples, phase_table, phase_value
from nfnls.trees import enumerate_index_functions, enumerate_trees
from oracles import (
    bucket_boxes, c_set_member, gather_q1_tilde_rows, ifft_pick_generation_one, merged_resonant_table,
    per_assignment_tree_level_sum, per_n_triple_table, per_row_q1_rows, per_row_sum_q1_over,
    padded_boxed_cubic, per_slot_inserts, per_slot_n21, per_triple_gap_sum, product_triple_table,
    q1_tilde, rowwise_q1_tilde_rows, scatter, slow_n3_oracle,
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


def test_decomposition_identity_20_states():
    rng = np.random.default_rng(0)
    N = 12.0
    for _ in range(20):
        v = random_state(rng, span=6, t=float(rng.uniform(0, 1)))
        cub = boxed_cubic(v)
        lhs = (
            apply_resonant(v, window=8)
            .plus(apply_n11(v, N, window=8))
            .plus(apply_n12(v, N, window=8))
        )
        scale = np.max(np.abs(cub.data))
        assert np.max(np.abs(lhs.data - cub.data)) < 1e-8 * scale


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
    for w in range(1, 13):
        lim = 3 * w + 1  # every root box, as in _triple_table with n_max > 3w+1
        boxes = np.arange(-lim, lim + 1)
        rows, n1, n2, n3 = expand_triples(boxes, w)
        phase = phase_value(boxes[rows], n1, n2, n3, QUARTIC)
        assert np.max(np.abs(phase)) == _max_abs_phase(w)


def test_no_insert_built_when_high_phase_set_empty(monkeypatch):
    rng = np.random.default_rng(11)
    v = random_state(rng, span=6)
    N = choose_parameters(1.0, 2.0).N

    def refuse(*args, **kwargs):
        raise AssertionError("insert built for an empty high-phase set")

    monkeypatch.setattr(_Node, "resonant", property(refuse))
    monkeypatch.setattr(normal_form, "_InnerBuckets", refuse)
    for op in (n4_state, n3_state, n31_state, n32_state, n22_state, n21_state):
        assert np.all(op(v, N, window=13).data == 0)
    first = _generation_one_low(_Node(v, 0.0, 13), N, resonant=True)
    for part in first:
        assert np.all(part.data == 0)


# ---------------------------------------------------------------------------
# the row kernels and the generation-one pass against the forms before the
# shared gap pass: per-row transforms, one gap-kernel run per slot


# the live compare config; N just below max|Phi| of window 2; the smallest
# window where n32_state != 0
GENERATION_ONE_CONFIGS = [
    (make_grid(8, 16), 5, 16.0, 6),
    (G, 2, 44.0, 2),
    (make_grid(4, 64), 14, 1.0, 14),
]
# the gap pass's insert kinds: none (the boundary), resonant, all, both
GAP_PASS_INSERTS = [{}, dict(resonant=True), dict(which="all"), dict(resonant=True, which="all")]


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_fused_generation_one_inserts(grid, span, N, window):
    # one gap pass less the J = 1 tree pass on the high set (N32) gives the
    # boundary and generation_nr + generation_n1 at J = 1
    rng = np.random.default_rng(14)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    got = _generation_one_low(_Node(v, 0.2, window), N, resonant=True)
    want_bnd = per_slot_n21(v, 0.2, N, window)
    want_ins = per_slot_inserts(v, 0.2, N, window, resonant=True) + per_slot_inserts(
        v, 0.2, N, window, which="low"
    )
    for part, want in ((got.boundary, want_bnd), (got.inserts, want_ins)):
        assert np.any(want != 0) and np.any(part.data != 0)
        assert np.max(np.abs(part.data - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_generation_one_operators_match_per_slot_oracle(grid, span, N, window):
    rng = np.random.default_rng(15)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    ops = {
        n4_state: dict(resonant=True),
        n3_state: dict(which="all"),
        n31_state: dict(which="low"),
        n32_state: dict(which="high"),
    }
    for op, kw in ops.items():
        got = op(v, N, 0.2, window).data
        want = per_slot_inserts(v, 0.2, N, window, **kw)
        scale = np.max(np.abs(want))
        if op is n32_state and window < 14:
            assert scale == 0 and np.all(got == 0)  # structurally empty below window 14
            continue
        assert scale > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_gap_pass_matches_inverse_fft_pick_oracle(grid, span, N, window):
    # per-box inserts and the contraction table give the numbers of per-row
    # inserts, per-row transforms and the inverse-FFT picks
    rng = np.random.default_rng(18)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    for kw in GAP_PASS_INSERTS:
        got = _generation_one(_Node(v, 0.2, window), N, **kw)
        want_bnd, want_ins = ifft_pick_generation_one(v, 0.2, N, window, **kw)
        assert np.any(want_bnd != 0)
        assert np.max(np.abs(got.boundary.data - want_bnd)) <= 1e-13 * np.max(np.abs(want_bnd))
        if kw:
            scale = np.max(np.abs(want_ins))
            assert scale > 0
            assert np.max(np.abs(got.inserts.data - want_ins)) <= 1e-13 * scale


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_tree_pass_at_one_generation_is_the_gap_pass(grid, span, N, window):
    # the J = 1 tree kernel, which gives N32, equals the gap pass on the
    # boundary and every per-box insert
    rng = np.random.default_rng(23)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    node = _Node(v, 0.2, window)
    for kw in GAP_PASS_INSERTS:
        first = _generation_one(node, N, **kw)
        want = (first.inserts if kw else first.boundary).data
        got = _tree_level_sum(node, 1, N, **kw).data
        assert np.any(want != 0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def high_pass_cases():
    """(J, state, N, window): the generation-one configs and N31/N32's slow
    oracle config at J = 1; the sparse tree-path states at J = 2."""
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
    chain_possible = normal_form._chain_possible
    monkeypatch.setattr(normal_form, "_chain_possible", lambda *args: True)
    got = _tree_level_sum(_Node(v, v.time, window), J, N, which="high").data
    assert chain_possible(J + 1, N, window) or not np.any(got)
    assert np.any(got) == ((J, N, window) == (1, 1.0, 14))


def test_live_config_builds_no_inner_buckets(monkeypatch):
    # the live compare state: N32 is structurally empty at window 6, so the
    # J = 2 integrand and the full inserts read only per-box inner sums; the
    # gap pass builds no buckets where N32 is live either (window 14)
    from nfnls.grids import forward
    from nfnls.harness import gaussian_field

    grid = make_grid(8, 16)
    u0 = gaussian_field(grid, amplitude=0.5, width=2.0)
    v = normal_form._trim_state(BoxedState.from_spectrum(forward(u0), 0.01), 1e-8)
    params = SolverParams(J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=6, window=6)

    def refuse(*args, **kwargs):
        raise AssertionError("inner phase buckets built")

    monkeypatch.setattr(normal_form, "_InnerBuckets", refuse)
    total, boundary = normal_form._integrand(v, params)
    assert np.any(total.data != 0) and np.any(boundary.data != 0)
    for op in (n3_state, n22_state):
        assert np.any(op(v, 16.0, 0.01, 6).data != 0)
    grid, span, N, window = GENERATION_ONE_CONFIGS[2]
    w = random_state(np.random.default_rng(14), span=span, t=0.2, grid=grid)
    first = _generation_one(_Node(w, 0.2, window), N, resonant=True, which="all")
    assert np.any(first.inserts.data != 0)


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


def test_scatter_rows_segment_sum_matches_add_at():
    rng = np.random.default_rng(19)
    grid = make_grid(4, 8)
    n = np.sort(rng.integers(-8, 8, 300))
    bands = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
    want = scatter(grid, n, bands)
    scale = np.max(np.abs(want))
    out = np.ones_like(want)
    normal_form._scatter_rows(grid, n, bands, out)
    assert np.max(np.abs(out - 1 - want)) <= 1e-14 * scale


def test_scattered_rows_are_non_decreasing_in_n():
    # the precondition of _scatter_rows: the triple tables, the rows of a
    # node's inner table and the gap pass's group rows come in order of n
    rng = np.random.default_rng(25)
    for grid, span, N, window in GENERATION_ONE_CONFIGS:
        node = _Node(random_state(rng, span=span, t=0.2, grid=grid), 0.2, window)
        tab, gt = node.inner_table, normal_form._gap_table(grid, window, N)
        modes = ("resonant_R1", "resonant_R2", "A_N", "A_N_complement")
        columns = [_triple_table(grid.n_max, window, N, m)[0] for m in modes]
        columns += [tab.parents[tab.row], gt.rows[0][gt.group_row]]
        assert len(tab.row) and len(gt.group_row)
        for n in columns:
            assert np.all(np.diff(n) >= 0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    n_max=st.sampled_from([8, 16]),
    window=st.integers(1, 7),
    t=st.floats(0.0, 1.0),
)
def test_resonant_one_pass_is_r2_minus_r1(seed, B, n_max, window, t):
    # the resonant set summed once is R2 (overlap twice) less R1, summed as
    # one weighted table; n_max = 8 clips the output boxes from window 3 on
    rng = np.random.default_rng(seed)
    grid = make_grid(B, n_max)
    data = np.zeros((2 * n_max, B), dtype=complex)
    boxes = rng.choice(np.arange(n_max - window, n_max + window), size=window + 1, replace=False)
    data[boxes] = rng.standard_normal((len(boxes), B)) + 1j * rng.standard_normal((len(boxes), B))
    v = BoxedState(grid, data, t)
    node = _Node(v, t, window)
    want = per_row_sum_q1_over(node, merged_resonant_table(n_max, node.window))
    got = apply_resonant(v, t, window).data
    assert np.any(want != 0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    r2, r1 = (
        set(zip(*_triple_table(n_max, node.window, None, m))) for m in ("resonant_R2", "resonant_R1")
    )
    assert r1 and r1 < r2


@pytest.mark.parametrize("chunk", [128, 12])
@pytest.mark.parametrize("mode", ["resonant_R2", "resonant_R1", "A_N", "A_N_complement"])
def test_sum_q1_over_matches_per_row_picks(mode, chunk, monkeypatch):
    # the spectra summed per (box, slack) before one inverse FFT give the sum
    # of the per-row picks
    monkeypatch.setattr(normal_form, "ROW_CHUNK", chunk)
    rng = np.random.default_rng(21)
    v = random_state(rng, span=5, t=0.3)
    node = _Node(v, 0.3, 7)
    table = _triple_table(G.n_max, 7, 12.0, mode)
    if chunk == 12:  # more than one chunk of summed spectra
        assert np.count_nonzero(node.live(*table[1:4]) == 3) > chunk * G.bins_per_box // 2
    want = per_row_sum_q1_over(node, table)
    got = _sum_q1_over(node, _mirror_fold(*table))
    assert np.any(want != 0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def random_gap_table(rng, window, groups):
    """Distinct rows (n, n1, n2, n3) in random order: per (n, n1, n3) group
    one, two or three slacks in turn, at random."""
    seen, rows = set(), []
    while len(seen) < groups:
        n1, n3, m = rng.integers(-window, window + 1, 3)
        n = n1 + n3 - m
        if n in (n1, n3) or (n, n1, n3) in seen:
            continue
        slacks = rng.choice(3, len(seen) % 3 + 1, replace=False)
        seen.add((n, n1, n3))
        rows += [(n, n1, m + s - 1, n3) for s in slacks]
    return tuple(np.array(rows)[rng.permutation(len(rows))].T)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    groups=st.integers(1, 30),
    window=st.sampled_from([3, 10]),
    chunk=st.integers(1, 9),
    kw=st.sampled_from(GAP_PASS_INSERTS),
)
def test_grouped_gap_pass_matches_per_row_oracle_on_random_tables(seed, B, groups, window, chunk, kw):
    # rows on boxes |n1|, |n3|, |m| <= 3; the slot boxes' inner sums reach
    # window 3 or 10
    rng = np.random.default_rng(seed)
    grid = make_grid(B, 16)
    table = random_gap_table(rng, 3, groups)
    n, n1, n2, n3 = table
    data = rng.standard_normal((32, B)) + 1j * rng.standard_normal((32, B))
    data[rng.random(32) < 0.3] = 0.0  # some dead boxes
    v = BoxedState(grid, data, 0.2)
    # the groups partition the rows: one (n, n1, n3) and both pairs per
    # group, in order of n, and the key holds m and the rows per slack
    gt = _gap_index(grid, table)
    trip = np.stack([n, n1, n3], axis=1)
    first = gt.group_row[gt.group]
    assert len(np.unique(trip, axis=0)) == len(gt.group_row) == groups
    assert np.array_equal(trip[first], trip)
    assert np.array_equal(gt.pair1[first], gt.pair1) and np.array_equal(gt.pair3[first], gt.pair3)
    assert np.all(np.diff(n[gt.group_row]) >= 0)
    count = np.zeros((groups, 3), dtype=int)
    np.add.at(count, (gt.group, n - (n1 - n2 + n3) + 1), 1)
    assert np.array_equal(gt.keys[gt.group_key], np.column_stack([(n1 + n3 - n)[gt.group_row], count]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normal_form, "ROW_CHUNK", chunk)
        mp.setattr(normal_form, "_gap_table", lambda *args: gt)
        got = _generation_one(_Node(v, 0.2, window), 0.0, **kw)
    want_bnd, want_ins = ifft_pick_generation_one(v, 0.2, 0.0, window, table=table, **kw)
    parts = [(got.boundary.data, want_bnd)] + ([(got.inserts.data, want_ins)] if kw else [])
    for part, want in parts:
        assert np.max(np.abs(part - want)) <= 1e-13 * cubic_scale(want, v)


# ---------------------------------------------------------------------------
# the n1 <-> n3 fold of the gap pass and of the q1 sums, against the per-row
# oracles, which evaluate both rows of a mirrored pair


def mirrored(table):
    """The table with the mirror (n, n3, n2, n1) of every row added, each row
    once, lexicographic."""
    n, n1, n2, n3 = table
    rows = np.concatenate([np.stack([n, n1, n2, n3], axis=1), np.stack([n, n3, n2, n1], axis=1)])
    return tuple(np.unique(rows, axis=0).T)


def random_q1_table(rng, rows):
    """Random rows (n, n1, n2, n3) on the slack shell, duplicates allowed,
    lexicographic (so non-decreasing in n)."""
    c = rng.integers(-4, 5, (rows, 3))
    n = c[:, 0] - c[:, 1] + c[:, 2] + rng.integers(-1, 2, rows)
    table = np.column_stack([n, c])
    return tuple(table[np.lexsort(table.T[::-1])].T)


def fold_state(rng, B, dead, outside=None):
    """Random bands on 32 boxes, a fraction ``dead`` of them zero; box
    ``outside``, when given, live (as a box outside the window)."""
    data = rng.standard_normal((32, B)) + 1j * rng.standard_normal((32, B))
    data[rng.random(32) < dead] = 0.0
    if outside is not None:
        data[outside + 16] = rng.standard_normal(B)
    return BoxedState(make_grid(B, 16), data, 0.2)


def cubic_scale(want, v):
    """The scale of an operator sum: the sum's, or where the terms cancel to
    rounding noise (a sparse state or a random table), a floor at the size of
    a cubic term of the state."""
    return max(np.max(np.abs(want)), 1e-3 * np.max(np.abs(v.data)) ** 3)


def assert_folded_sum(got, want, rel, v):
    # the output boxes without a live row stay exactly 0.0
    assert np.all(got[~np.any(want != 0, axis=1)] == 0)
    assert np.max(np.abs(got - want)) <= rel * cubic_scale(want, v)


FOLD_KINDS = ["symmetric", "random", "one row", "window"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    kind=st.sampled_from(FOLD_KINDS),
    groups=st.integers(1, 30),
    dead=st.sampled_from([0.3, 0.8]),
    kw=st.sampled_from(GAP_PASS_INSERTS),
)
def test_folded_gap_pass_matches_per_row_oracle(seed, B, kind, groups, dead, kw):
    # symmetric tables fold every group with n1 != n3; random and one-row
    # tables fold only the mirrors they happen to hold; the window's A_N^c
    # table with a live box outside the window, as at the live compare config
    rng = np.random.default_rng(seed)
    window = 3
    table = {
        "symmetric": lambda: mirrored(random_gap_table(rng, window, groups)),
        "random": lambda: random_gap_table(rng, window, groups),
        "one row": lambda: tuple(c[:1] for c in random_gap_table(rng, window, 1)),
        "window": lambda: _triple_table(16, window, 4.0, "A_N_complement"),
    }[kind]()
    v = fold_state(rng, B, dead, -window - 1 if kind == "window" else None)
    gt = _gap_index(v.grid, table)
    n1, n3 = gt.rows[1], gt.rows[3]
    r = gt.group_row
    assert gt.group_weight.sum() == len(r) and set(gt.group_weight.tolist()) <= {0, 1, 2}
    if kind in ("symmetric", "window"):
        want_weight = np.where(n1[r] == n3[r], 1, np.where(n1[r] < n3[r], 2, 0))
        assert np.array_equal(gt.group_weight, want_weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normal_form, "_gap_table", lambda *args: gt)
        got = _generation_one(_Node(v, 0.2, window), 4.0, **kw)
    want_bnd, want_ins = ifft_pick_generation_one(v, 0.2, 4.0, window, table=table, **kw)
    assert_folded_sum(got.boundary.data, want_bnd, 1e-13, v)
    if kw:
        assert_folded_sum(got.inserts.data, want_ins, 1e-13, v)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.sampled_from([2, 4, 8]),
    kind=st.sampled_from(FOLD_KINDS),
    rows=st.integers(1, 200),
    dead=st.sampled_from([0.3, 0.8]),
    mode=st.sampled_from(["resonant_R2", "resonant_R1", "A_N", "A_N_complement"]),
)
def test_folded_sum_q1_over_matches_per_row_oracle(seed, B, kind, rows, dead, mode):
    # _sum_q1_over reads folded tables: the four-column ones are folded here,
    # the cached ones (_q1_table, the inner split) come folded; at the window, the live box
    # outside it is a child set of the inner table that no child reaches
    rng = np.random.default_rng(seed)
    window = 4
    table = {
        "symmetric": lambda: mirrored(random_q1_table(rng, rows)),
        "random": lambda: random_q1_table(rng, rows),
        "one row": lambda: random_q1_table(rng, 1),
        "window": lambda: _triple_table(16, window, 8.0, mode),
    }[kind]()
    v = fold_state(rng, B, dead, -window - 1 if kind == "window" else None)
    node = _Node(v, 0.2, window)
    want = per_row_sum_q1_over(node, table)
    assert_folded_sum(_sum_q1_over(node, _mirror_fold(*table)), want, 1e-14, v)
    if kind == "window":
        assert_folded_sum(_sum_q1_over(node, normal_form._q1_table(16, window, 8.0, mode)), want, 1e-14, v)
        tab = node.inner_table
        high = np.abs(tab.m) > 8.0
        for k, got in zip((~high, high), node.inner(8.0)):
            want = per_row_sum_q1_over(node, (tab.parents[tab.row][k], tab.c1[k], tab.c2[k], tab.c3[k]))
            assert_folded_sum(got, want, 1e-14, v)


def assert_closed_and_folded(table, folded):
    # closed under n1 <-> n3, and folded onto the rows n1 <= n3: weight 2 off
    # the diagonal, 1 on it, 0 on the rows n1 > n3
    n, n1, n2, n3 = table
    assert set(zip(*table)) == set(zip(n, n3, n2, n1))
    for got, want in zip(folded[:4], table):
        assert np.array_equal(got, want)
    assert np.array_equal(folded[4], np.where(n1 == n3, 1, np.where(n1 < n3, 2, 0)))


@pytest.mark.parametrize("mode", ["resonant_R2", "resonant_R1", "A_N", "A_N_complement"])
def test_triple_tables_and_inner_split_are_closed_under_the_mirror(mode):
    nonempty = 0
    for n_max, window, N in [(8, 4, 12.0), (64, 5, 12.0), (16, 3, math.inf), (16, 6, 16.0)]:
        key = None if mode.startswith("resonant") else N
        table = _triple_table(n_max, window, key, mode)
        assert_closed_and_folded(table, normal_form._q1_table(n_max, window, key, mode))
        nonempty += len(table[0]) > 0
    assert nonempty >= 3
    for n_max, window, live in LIVE_CASES:
        tab = phase_table(tuple(_output_boxes(n_max, window).tolist()), window, (live,) * 3, 1)
        high = np.abs(tab.m) > 12.0
        for k, folded in zip((~high, high), normal_form._inner_split(tab, 12.0)):
            assert_closed_and_folded((tab.parents[tab.row][k], tab.c1[k], tab.c2[k], tab.c3[k]), folded)


@pytest.mark.parametrize("grid, span, N, window", GENERATION_ONE_CONFIGS)
def test_n12_from_shared_rows_matches_apply_n12(grid, span, N, window):
    rng = np.random.default_rng(16)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    got = _generation_one(_Node(v, 0.2, window), N, which="all").n12.data
    want = apply_n12(v, N, 0.2, window).data
    assert np.any(want != 0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("grid, span, window", [(make_grid(8, 16), 5, 6), (make_grid(4, 64), 14, 14)])
def test_state_gathered_q1_rows_equal_per_row_transforms(grid, span, window):
    # per-box transforms gathered by row are the per-row transforms of the
    # same bands; the per-row exp of the old kernel agrees to round-off
    rng = np.random.default_rng(17)
    v = random_state(rng, span=span, t=0.2, grid=grid)
    node = _Node(v, 0.2)
    n, n1, n2, n3 = _triple_table(grid.n_max, window, math.inf, "A_N")
    assert len(n) > normal_form.ROW_CHUNK
    bands = [v.data[b + grid.n_max] for b in (n1, n2, n3)]
    got = _q1_rows(node, n, n1, n2, n3)

    def table_u(B, t, bands, boxes):
        phase = node.phase[boxes + grid.n_max]
        return bands * (phase if t > 0 else np.conj(phase))

    assert np.array_equal(got, per_row_q1_rows(grid, 0.2, *bands, n, n1, n2, n3, to_u=table_u))
    want = per_row_q1_rows(grid, 0.2, *bands, n, n1, n2, n3)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_r1_single_band_matches_brute_force():
    rng = np.random.default_rng(1)
    data = np.zeros((2 * G.n_max, G.bins_per_box), dtype=complex)
    data[G.n_max] = rng.standard_normal(G.bins_per_box) + 1j * rng.standard_normal(
        G.bins_per_box
    )
    v = BoxedState(G, data, 0.1)
    got = resonant_r1(v, window=4).band(0)
    acc = np.zeros(G.bins_per_box, dtype=complex)
    for tr in enumerate_triples(0, 4, mode="resonant_R1"):
        acc += q1(0, v.band(tr.n1), v.band(tr.n2), v.band(tr.n3), 0.1).coeffs
    assert np.max(np.abs(got.coeffs - acc)) < 1e-12 * max(np.max(np.abs(acc)), 1e-30)


def test_r2_weights_doubly_matched_twice():
    rng = np.random.default_rng(2)
    v = random_state(rng, span=3)
    got = resonant_r2(v, window=5).band(0)
    acc = np.zeros(G.bins_per_box, dtype=complex)
    for tr in enumerate_triples(0, 5, mode="resonant_R2"):
        w = 2.0 if (abs(tr.n1) <= 1 and abs(tr.n3) <= 1) else 1.0
        acc += w * q1(0, v.band(tr.n1), v.band(tr.n2), v.band(tr.n3), 0.0).coeffs
    assert np.max(np.abs(got.coeffs - acc)) < 1e-12 * np.max(np.abs(acc))


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
    rng = np.random.default_rng(5)
    v = random_state(rng, span=4, t=0.25)
    N = 10.0
    got = n21_state(v, N, window=5)
    want = per_triple_gap_sum(v, N, 0.25, 5)
    assert np.max(np.abs(got.data - want)) < 1e-10 * np.max(np.abs(want))


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
    rng = np.random.default_rng(7)
    v = random_state(rng, span=3, t=0.15)
    N = 8.0
    got = n4_state(v, N, window=4)
    w = apply_resonant(v, 0.15, window=4)
    want = per_triple_gap_sum(v, N, 0.15, 4, lambda m, mu1, sign: w.band(m).coeffs)
    assert np.max(np.abs(got.data - want)) < 1e-10 * np.max(np.abs(want))


def test_n31_n32_match_slow_oracle_and_partition():
    rng = np.random.default_rng(8)
    v = random_state(rng, span=2, t=0.05, grid=make_grid(8, 16))
    N, window = 6.0, 3

    def in_c1(mu1, mu2s):
        return c_set_member(1, mu1, mu1 + mu2s, mu1)

    low = n31_state(v, N, window=window)
    high = n32_state(v, N, window=window)
    full = n3_state(v, N, window=window)
    want_low = slow_n3_oracle(v, N, 0.05, window, in_c1)
    scale = max(np.max(np.abs(want_low)), np.max(np.abs(full.data)))
    assert np.max(np.abs(low.data - want_low)) < 1e-10 * scale
    # exact partition: low + high == full
    assert np.max(np.abs(low.data + high.data - full.data)) < 1e-10 * scale
    # and n22 = n4 + n3 by construction, value-checked
    n22 = n22_state(v, N, window=window)
    n4 = n4_state(v, N, window=window)
    assert np.max(np.abs(n22.data - n4.data - full.data)) < 1e-12 * scale
    # window 14 is the smallest where the high joint-phase part is nonzero
    v = random_state(rng, span=14, t=0.05, grid=make_grid(4, 64))
    low, high, full = (op(v, 1.0, window=14) for op in (n31_state, n32_state, n3_state))
    assert np.any(high.data != 0)
    scale = np.max(np.abs(full.data))
    assert np.max(np.abs(low.data + high.data - full.data)) < 1e-10 * scale


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
    buckets = _InnerBuckets(_Node(v, t, window))

    query_boxes = np.arange(-25, 26)
    indexed = bucket_boxes(buckets)
    assert query_boxes[0] < min(indexed) and query_boxes[-1] > max(indexed)
    assert any(min(indexed) < m < max(indexed) and m not in indexed for m in query_boxes)
    rows = {}
    for m in query_boxes:
        rows[m] = [
            (phase_value(*tr), q1(m, v.band(tr.n1), v.band(tr.n2), v.band(tr.n3), t).coeffs)
            for tr in enumerate_triples(int(m), window, math.inf, "A_N")
            if {tr.n1, tr.n2, tr.n3} <= set(support)
        ]

    def masked(m, lo, hi):
        acc = np.zeros(g.bins_per_box, dtype=complex)
        for mu, band in rows[m]:
            if lo <= mu <= hi:
                acc += band
        return acc

    boxes, los, his = [], [], []
    for m in query_boxes:
        phases = [mu for mu, _ in rows[m]] or [0]
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
    want = np.array([masked(m, lo, hi) for m, lo, hi in zip(boxes, los, his)])
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(buckets.sum(boxes, los, his) - want)) <= 1e-12 * scale
    totals = np.array([masked(m, -math.inf, math.inf) for m in query_boxes])
    assert np.max(np.abs(buckets.sum(query_boxes) - totals)) <= 1e-12 * scale

    # "low" + "high" == the whole run; radii 125 * max(|mu_prev|, |mu_first|)^0.99
    # up to ~250 leave rows of phase up to ~280 on both sides
    mu_prev = rng.integers(-2, 3, len(boxes)).astype(float)
    mu_first = rng.integers(-2, 3, len(boxes)).astype(float)
    for sign in (+1, -1):
        parts = [
            _coupled_insert_rows(buckets, sign, boxes, mu_prev, mu_first, 1, which)
            for which in ("low", "high")
        ] + [buckets.sum(boxes)]
        assert np.any(parts[0] != 0) and np.any(parts[1] != 0)
        assert np.max(np.abs(parts[0] + parts[1] - parts[2])) <= 1e-15 * np.max(
            np.abs(parts[2])
        )
        # where the low set holds the box's whole run, "high" is exactly zero:
        # the tree pass's liveness test reads these rows
        lo, hi = _low_set(sign, mu_prev, mu_first, 1)
        (i, j), (i_all, j_all) = buckets.table.span(boxes, lo, hi), buckets.table.span(boxes)
        whole = (i == i_all) & (j == j_all)
        assert whole.any() and not whole.all()
        assert np.all(parts[1][whole] == 0.0)


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
    from nfnls.normal_form import solve

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
    from nfnls.normal_form import solve

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
    # generation-one pass, which also gives the time-zero boundary, runs once
    from nfnls.grids import forward
    from nfnls.harness import gaussian_field
    from nfnls.normal_form import solve

    grid = make_grid(8, 16)
    u0 = gaussian_field(grid, amplitude=0.5, width=2.0)
    params = SolverParams(
        J=2, N=16.0, T=0.03, q=2.0, R=1.0, R_tilde=1.0, K=6, picard_tol=1e-13,
        window=6, support_trim=1e-8,
    )
    calls = []
    gen1 = normal_form._generation_one

    def counted(*args, **kwargs):
        calls.append(args[0].t)
        return gen1(*args, **kwargs)

    monkeypatch.setattr(normal_form, "_generation_one", counted)
    traj, report = solve(u0, params)
    assert report["iterations"] == 6
    assert len(calls) == 1 + report["iterations"] * params.K
    assert calls.count(0.0) == 1
    v0 = normal_form._trim_state(BoxedState.from_spectrum(forward(u0)), params.support_trim)
    assert np.array_equal(traj.states[0].data, v0.data)

    # public gamma_partial on a trajectory that starts elsewhere: node 0 is
    # v0 - B(v0) + B(v(0)), with B the weighted level-2 boundary
    times = np.linspace(0.0, params.T, params.K + 1)
    w = v0.scaled(1.1)
    out = gamma_partial(v0, Trajectory(times, tuple(w.at_time(t) for t in times)), params)
    w_bnd, _ = normal_form._level_weights(2, params.sign)
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


def gap_kernel_rows(rng, T):
    """T rows (n, n1, n2, n3) cycling through slack -1, 0, 1 and both signs
    of the gaps n - n1 and n - n3 (each of size 2..5)."""
    k = np.arange(T)
    dd = k % 3 - 1
    s1 = np.where(k // 3 % 2, 1, -1)
    s3 = np.where(k // 6 % 2, 1, -1)
    n = rng.integers(-6, 7, T)
    n1 = n - s1 * rng.integers(2, 6, T)
    n3 = n - s3 * rng.integers(2, 6, T)
    return n, n1, n1 + n3 - n + dd, n3


@pytest.mark.parametrize("B", [4, 8, 16])
def test_gap_kernel_matches_gather_and_per_triple_oracles(B, monkeypatch):
    # the boundary of the gap pass, row by row (one-row tables) and over
    # tables below, equal to and not a multiple of the chunk
    grid = make_grid(B, 32)
    rng = np.random.default_rng(B)
    t, chunk = 0.37, 12
    monkeypatch.setattr(normal_form, "ROW_CHUNK", chunk)
    data = rng.standard_normal((2 * grid.n_max, B)) + 1j * rng.standard_normal((2 * grid.n_max, B))
    v = BoxedState(grid, data, t)

    def band(box):
        return v.band(int(box))

    def boundary(table):
        monkeypatch.setattr(normal_form, "_gap_table", lambda *args: _gap_index(grid, table))
        return _generation_one(_Node(v, t), None).boundary.data

    for T in (5, chunk, 29):
        n, n1, n2, n3 = gap_kernel_rows(rng, T)
        stacks = [data[b + grid.n_max] for b in (n1, n2, n3)]
        per_triple = np.array([
            q1_tilde(int(n[i]), band(n1[i]), band(n2[i]), band(n3[i]), t).coeffs
            for i in range(T)
        ])
        got = np.array([
            boundary(tuple(a[i : i + 1] for a in (n, n1, n2, n3)))[n[i] + grid.n_max]
            for i in range(T)
        ])
        for want in (
            gather_q1_tilde_rows(grid, t, *stacks, n, n1, n2, n3),
            rowwise_q1_tilde_rows(grid, t, *stacks, n, n1, n2, n3),
            per_triple,
        ):
            scale = np.max(np.abs(want), axis=1)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * scale)
        want = scatter(grid, n, per_triple)
        got = boundary((n, n1, n2, n3))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("convention", [QUARTIC, PRODUCT])
@pytest.mark.parametrize("mode", ["resonant_R1", "resonant_R2", "A_N", "A_N_complement"])
def test_triple_table_identical_to_per_n_tables(mode, convention):
    # n_max = 8 clips the output boxes at n_max - 1 < 3 * window + 1; n_max = 64
    # does not; N = inf is the whole non-resonant set, N = 1000 empties A_N^c
    cases = [(8, 4, 12.0), (64, 5, 12.0), (16, 3, math.inf), (16, 3, 1000.0), (4, 1, 2.0)]
    for n_max, window, N in cases:
        key = None if mode.startswith("resonant") else N
        got = (_triple_table if convention == QUARTIC else product_triple_table)(n_max, window, key, mode)
        want = per_n_triple_table(n_max, window, key, mode, convention)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
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
        full = _triple_table(n_max, window, 12.0, mode)
        keep = np.all(np.isin(np.stack(full[1:4]), live), axis=0)
        boxes = _output_boxes(n_max, window)
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
            assert g.dtype == w.dtype
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
        n, n1, n2, n3 = _triple_table(n_max, window, math.inf, "A_N")
        keep = np.all(np.isin(np.stack([n1, n2, n3]), live), axis=0)
        lim = min(3 * window + 1, n_max - 1)  # the output boxes of _triple_table
        tab = phase_table(tuple(range(-lim, lim + 1)), window, (live,) * 3, sign)
        got = (tab.parents[tab.row], tab.c1, tab.c2, tab.c3, tab.m)
        want = (n, n1, n2, n3, sign * phase_value(n, n1, n2, n3))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w[keep])
        nonempty += len(tab.row) > 0
    assert nonempty >= 2


# ---------------------------------------------------------------------------
# the batched tree-level sum against one enumeration per (tree, root, insert
# leaf) and one q_tree call per index function


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


# the oracle's mode strings as the tree path's insert keywords
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
    # against the sum of the two per-assignment oracles
    v, allowed = tiny_remainder_inputs()
    allowed = allowed if restricted else None
    got = batched_tree_level_sum(v.at_time(t), J, t, mode, allowed).data
    want = sum(
        per_assignment_tree_level_sum(v, J, 1.0, t, 16, m, allowed).data for m in mode.split("+")
    )
    if (mode, J) in LIVE_TREE_CASES:
        assert np.any(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
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
    want = per_assignment_tree_level_sum(v, 2, 0.0, t, 15, "n0").data
    sums = {a - b + c + d for a in support for b in support for c in support for d in (-1, 0, 1)}
    outside = np.array([-16, -3, 11])
    assert not sums & set(outside.tolist())
    assert np.all(np.any(want[outside + g.n_max] != 0, axis=1))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    got, got_bnd = normal_form._integrand(v, params)

    (b2, i2), (b3, i3) = (normal_form._level_weights(j, sigma) for j in (2, 3))
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
    built = {"resonant": 0, "_InnerBuckets": 0}

    def counted(name, original):
        def build(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)

        return build

    resonant = cached_property(counted("resonant", _Node.resonant.func))
    resonant.__set_name__(_Node, "resonant")
    monkeypatch.setattr(_Node, "resonant", resonant)
    buckets = counted("_InnerBuckets", normal_form._InnerBuckets)
    monkeypatch.setattr(normal_form, "_InnerBuckets", buckets)
    params = SolverParams(J=3, N=1.0, T=1.0, q=2.0, window=16)
    normal_form._integrand(v.at_time(0.37), params)
    assert built == {"resonant": 1, "_InnerBuckets": 1}


def test_tree_level_sum_assignment_guard(monkeypatch):
    v, allowed = tiny_remainder_inputs()
    monkeypatch.setattr(normal_form, "ASSIGNMENT_GUARD", 200)
    with pytest.raises(ResourceGuardError):
        remainder_n2(v, 2, 1.0, window=16, allowed_all=allowed)
    with pytest.raises(ResourceGuardError):
        per_assignment_tree_level_sum(v, 2, 1.0, 0.0, 16, "rem", allowed)


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
