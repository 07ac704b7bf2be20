"""Phase identities, divisor counting, and frequency-set enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfnls.errors import DomainError
from nfnls.resonance import (
    _EXPANSION_BLOCK,
    PRODUCT,
    QUARTIC,
    PhaseTable,
    divisor_sieve,
    enumerate_triples,
    expand_triples,
    phase_phi,
    phase_value,
)
from oracles import (
    brute_triples, c_chain_ok, c_set_member, cube_expand_triples, divisor_choice_count,
    divisor_count,
)
from test_acceptance import criterion8_inputs


def test_phase_phi_pinned_values():
    assert phase_phi(0, 0, 0, 0) == 0
    # xi1=3, xi2=1, xi3=2 -> xi=4: 16-9+1-4 = 4 = 2*(4-3)*(4-2)
    assert phase_phi(4, 3, 1, 2) == 4 == 2 * (4 - 3) * (4 - 2)
    # xi1=5, xi2=2, xi3=1 -> xi=4: -6 = 2*(-1)*(3)
    assert phase_phi(4, 5, 2, 1) == -6 == 2 * (4 - 5) * (4 - 1)


def test_phase_factorization_identity_10k():
    rng = np.random.default_rng(0)
    xi1, xi2, xi3 = rng.uniform(-50, 50, size=(3, 10_000))
    xi = xi1 - xi2 + xi3
    lhs = phase_phi(xi, xi1, xi2, xi3)
    rhs = 2.0 * (xi - xi1) * (xi - xi3)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(1.0 + np.abs(lhs))


def test_phase_conventions_differ_only_off_surface():
    assert phase_value(4, 3, 1, 2, QUARTIC) == phase_value(4, 3, 1, 2, PRODUCT)
    # slack delta = 1: n1 - n2 + n3 = n - 1
    n, n1, n3 = 0, 5, 3
    n2 = n1 + n3 - n + 1
    q = phase_value(n, n1, n2, n3, QUARTIC)
    p = phase_value(n, n1, n2, n3, PRODUCT)
    assert q != p
    assert q - p == 2 * (n1 + n3 - n) + 1  # delta*(2*(n1+n3-n)+delta) with delta=1


@pytest.mark.parametrize("m,d", [(1, 1), (12, 6), (36, 9)])
def test_divisor_count_pinned(m, d):
    brute = sum(1 for k in range(1, m + 1) if m % k == 0)
    assert brute == d
    assert divisor_count(m) == d


def test_divisor_count_matches_sieve():
    sieve = divisor_sieve(2000)
    for m in (1, 2, 17, 128, 1000, 1999, 2000):
        assert divisor_count(m) == sieve[m]
    with pytest.raises(DomainError):
        divisor_count(0)


def test_divisor_growth_and_multiplicativity():
    sieve = divisor_sieve(1_000_000)
    m = np.arange(1, 1_000_001)
    ratios = sieve[1:] / m**0.2
    peak = int(m[np.argmax(ratios)])
    assert np.isfinite(ratios.max())
    assert sieve[peak] / peak**0.2 == ratios.max()
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 1000:
        a = int(rng.integers(1, 1000))
        b = int(rng.integers(1, 1000))
        if np.gcd(a, b) != 1:
            continue
        assert sieve[a * b] == sieve[a] * sieve[b]
        checked += 1


def test_enumeration_matches_brute_force():
    for n in (-2, 0, 3):
        for mode in ("resonant_R1", "resonant_R2", "A_N", "A_N_complement"):
            got = enumerate_triples(n, 6, N=10.0, mode=mode)
            want = brute_triples(n, 6, 10.0, mode)
            assert got == want


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(-20, 20),
    window=st.integers(1, 6),
    N=st.floats(0.0, 200.0),
    mode=st.sampled_from(["resonant_R1", "resonant_R2", "A_N", "A_N_complement"]),
)
def test_enumeration_matches_brute_force_property(n, window, N, mode):
    got = enumerate_triples(n, window, N=N, mode=mode)
    assert got == brute_triples(n, window, N, mode)


BOUND = st.one_of(
    st.integers(-150, 150).map(float),
    st.floats(-150.0, 150.0),
    st.sampled_from([-math.inf, math.inf]),
)
CHILD_SET = st.none() | st.sets(st.integers(-6, 6), max_size=9).map(tuple)


@settings(max_examples=150, deadline=None)
@given(
    parents=st.sets(st.integers(-16, 16), max_size=6).map(sorted),
    window=st.integers(1, 5),
    child_sets=st.tuples(CHILD_SET, CHILD_SET, CHILD_SET),
    sign=st.sampled_from([1, -1]),
    intervals=st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=5),
    extra=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
)
def test_phase_table_span_matches_masked_count(parents, window, child_sets, sign, intervals, extra):
    # any box may be asked for: the parents, boxes below, between and above
    # them, and boxes without children; any interval, empty ones included
    tab = PhaseTable(parents, window, child_sets, sign)
    edges = [parents[0] - 1, parents[-1] + 1] if parents else []
    boxes = sorted(set(parents) | set(edges) | set(extra))
    pairs = [(b, lo, hi) for b in boxes for lo, hi in intervals]
    q, lo, hi = (np.array(c) for c in zip(*pairs))
    i, j = tab.span(q, lo, hi)
    fa = tab.parents[tab.row]
    for t, (b, a, z) in enumerate(pairs):
        idx = np.flatnonzero((fa == b) & (tab.m >= a) & (tab.m <= z))
        want = idx[np.argsort(tab.m[idx], kind="stable")]  # by m, ties lexicographic
        assert j[t] - i[t] == len(want)
        np.testing.assert_array_equal(tab.order[i[t] : j[t]], want)


def assert_same_columns(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@st.composite
def expansion_case(draw):
    # unsorted parents with duplicates and boxes beyond reach 3 * window + 1;
    # sets None, empty, or with members outside the window; one slot (each in
    # turn) sparse, so every slot gets solved for, ties included
    window = draw(st.integers(1, 12))
    reach = 3 * window + 1
    parents = draw(st.lists(st.integers(-reach - 4, reach + 4), min_size=1, max_size=40))
    box = st.integers(-window - 3, window + 3)
    sets = [draw(st.none() | st.sets(box, max_size=2 * window + 7).map(tuple)) for _ in range(3)]
    sparse = draw(st.sampled_from([0, 1, 2]))
    sets[sparse] = draw(st.none() | st.sets(box, max_size=3).map(tuple))
    return parents, window, tuple(sets)


@settings(max_examples=300, deadline=None)
@given(case=expansion_case())
def test_expand_triples_matches_cube_expansion(case):
    parents, window, child_sets = case
    got = expand_triples(parents, window, child_sets)
    assert_same_columns(got, cube_expand_triples(parents, window, child_sets))


def test_expand_triples_sorts_across_blocks():
    # c3 is the sparse slot, so the engine solves for c1 and sorts each block;
    # its 1,500 * 81 * 3 * 3 cells fill two blocks
    window, sparse = 40, (-7, 3, 40)
    parents = np.random.default_rng(23).integers(-125, 126, 1_500)
    assert 1 < len(parents) * (2 * window + 1) * len(sparse) * 3 / _EXPANSION_BLOCK <= 2
    child_sets = (None, None, sparse)
    got = expand_triples(parents, window, child_sets)
    assert_same_columns(got, cube_expand_triples(parents, window, child_sets))


def test_phase_table_peak_memory_on_criterion_8_roots():
    # criterion 8's root generation: the 127 output boxes of window 48, two
    # children on the reachable set (59 boxes in the window) and one on the
    # 5-box support; solving for a 59-box slot expands 127 * 59 * 5 * 3 cells,
    # where solving for the support slot took about 25 MB of scratch
    state, allowed = criterion8_inputs()
    support = tuple(np.flatnonzero(state.box_norms() > 0) - state.grid.n_max)
    roots = np.arange(-63, 64)  # the output boxes |n| <= min(3 * 48 + 1, 63)
    assert (len(support), len(roots)) == (5, 127)
    tracemalloc.start()
    try:
        PhaseTable(roots, 48, (allowed, allowed, support), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"PhaseTable peak {peak / 1e6:.1f} MB"


def test_r1_window1_finitely_many():
    got = enumerate_triples(0, 1, mode="resonant_R1")
    want = brute_triples(0, 1, None, "resonant_R1")
    assert got == want
    assert all(abs(t.n1) <= 1 and abs(t.n3) <= 1 for t in got)
    assert 0 < len(got) <= 27


def test_complement_empty_when_threshold_exceeds_window_bound():
    got = enumerate_triples(0, 5, N=1000.0, mode="A_N_complement")
    assert got == []


def test_partition_counts():
    n, window, N = 1, 6, 12.0
    total = 0
    r = range(-window, window + 1)
    for n1 in r:
        for n2 in r:
            for n3 in r:
                if abs((n1 - n2 + n3) - n) <= 1:
                    total += 1
    r1 = enumerate_triples(n, window, mode="resonant_R1")
    r2 = enumerate_triples(n, window, mode="resonant_R2")
    an = enumerate_triples(n, window, N=N, mode="A_N")
    anc = enumerate_triples(n, window, N=N, mode="A_N_complement")
    # resonant union + the two non-resonant pieces partition all triples
    assert len(r2) + len(an) + len(anc) == total
    assert set(r1) <= set(r2)
    assert not (set(an) & set(anc))


def test_complement_constraints_per_triple():
    N = 8.0
    for t in enumerate_triples(0, 6, N=N, mode="A_N_complement"):
        assert abs(phase_value(*t)) > N
        assert abs(t.n1 - t.n) > 1 and abs(t.n3 - t.n) > 1
    for t in enumerate_triples(0, 6, mode="resonant_R2"):
        assert abs(t.n1 - t.n) <= 1 or abs(t.n3 - t.n) <= 1


def test_denominator_floor_off_resonance():
    # gaps >= 2 in boxes force |xi - xi1| >= 1 over the whole cell
    for t in enumerate_triples(0, 5, N=2.0, mode="A_N_complement"):
        for gap_box in (t.n - t.n1, t.n - t.n3):
            lo = min(abs(gap_box - 1), abs(gap_box + 1))  # worst bin offsets
            assert lo >= 1


def test_c_set_member_examples():
    # J=1, mu1=200, mu2=-190 -> mu~2 = 10: 10 <= 125*200^0.99 -> member
    assert c_set_member(1, 200.0, 10.0, 200.0)
    # huge second phase -> not member
    assert not c_set_member(1, 200.0, 200.0 + 1e6, 200.0)
    # zero left side always member
    assert c_set_member(1, 5.0, 0.0, 5.0)
    # constant is exactly (2J+3)^3
    mu1 = 100.0
    edge = 125.0 * mu1**0.99
    assert c_set_member(1, mu1, edge * (1 - 1e-12), mu1)
    assert not c_set_member(1, mu1, edge * (1 + 1e-12), mu1)


def test_c_chain():
    # chain passes iff every generation j>=2 avoids C_{j-1}
    mu1 = 300.0
    mu2 = 126.0 * mu1**0.99  # just above the 5^3 barrier
    mu3 = 344.0 * mu2**0.99  # just above the 7^3 barrier
    assert c_chain_ok([mu1, mu2, mu3])
    assert not c_chain_ok([mu1, 10.0, mu3])
    assert not c_chain_ok([mu1, mu2, 300.0 * mu2**0.99])


def test_divisor_choice_count_examples_and_brute():
    assert divisor_choice_count(0, 3, 50) == 0  # odd
    assert divisor_choice_count(0, 2, 50) == 2  # (1,1) and (-1,-1) gaps
    for n, mu, window in [(0, 24, 40), (2, -16, 20), (1, 12, 4), (0, 0, 3)]:
        brute = sum(
            1
            for n1 in range(-window, window + 1)
            for n3 in range(-window, window + 1)
            if 2 * (n - n1) * (n - n3) == mu
        )
        assert divisor_choice_count(n, mu, window) == brute


def test_divisor_choice_bound():
    for mu in (2, 12, 24, 60):
        cnt = divisor_choice_count(0, mu, 10_000)
        assert cnt <= 2 * divisor_count(mu // 2)
