"""Tree enumeration, chronicles, signs, and index-function machinery."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nfnls import normal_form, trees
from nfnls.errors import BoxRangeError, DomainError, ResourceGuardError
from nfnls.normal_form import _chain_possible, remainder_n2
from nfnls.resonance import enumerate_triples, phase_value
from nfnls.trees import (
    SAMPLE_BLOCK,
    _frontier,
    build_tree,
    compute_signs,
    double_factorial_odd,
    dump_chronicle,
    enumerate_index_functions,
    enumerate_trees,
    sample_index_functions,
)
from oracles import (
    assignment_from_freqs, c_chain_ok, generation_tuples, internal_ids, reference_frontier,
    reference_index_functions, sampler_valid_assignments,
)


def unchained(mp):
    """Patch the package's C-set radius to -inf: every child clears it, so the
    frontier keeps what the oracles keep with cJ_filter = "none"."""
    mp.setattr(trees, "c_set_radius", lambda J, mu_J, mu_1: np.full(np.shape(mu_J), -np.inf))


@pytest.mark.parametrize("J,count", [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945), (6, 10395)])
def test_tree_counts_double_factorial(J, count):
    assert double_factorial_odd(J) == count
    trees = enumerate_trees(J)
    assert len(trees) == count
    # no duplicate chronicles
    assert len({t.chronicle for t in trees}) == count


def test_tree_size_laws():
    for J in (1, 2, 3, 4):
        for t in enumerate_trees(J):
            assert t.size() == 3 * J + 1
            assert len(internal_ids(t)) == J
            assert len(t.terminal_ids()) == 2 * J + 1


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_trees(7)


def test_chronicle_round_trip():
    for J in (1, 2, 3, 4):
        for t in enumerate_trees(J):
            again = build_tree(t.chronicle)
            assert again.chronicle == t.chronicle
            assert again.nodes == t.nodes


def test_partial_order_axioms():
    # unique root; ancestor chains of any node are totally ordered
    for t in enumerate_trees(4):
        roots = [n.idx for n in t.nodes if n.parent is None]
        assert roots == [0]
        for n in t.nodes:
            chain = []
            cur = n.parent
            while cur is not None:
                chain.append(cur)
                cur = t.nodes[cur].parent
            born = [t.nodes[i].generation_born for i in [n.idx] + chain]
            assert all(a > b for a, b in zip(born, born[1:]))
            # each ancestor is an ancestor of the previous one
            for a, b in zip(chain, chain[1:]):
                assert t.nodes[a].parent == b or b in _ancestors(t, a)


def _ancestors(t, i):
    out = []
    cur = t.nodes[i].parent
    while cur is not None:
        out.append(cur)
        cur = t.nodes[cur].parent
    return out


def test_dump_format_golden():
    # depth-first expansion order: new children are visited before old siblings
    assert [dump_chronicle(t) for t in enumerate_trees(1)] == ["(0)"]
    assert [dump_chronicle(t) for t in enumerate_trees(2)] == ["(0 1)", "(0 2)", "(0 3)"]
    assert [dump_chronicle(t) for t in enumerate_trees(3)] == [
        "(0 1 4)", "(0 1 5)", "(0 1 6)", "(0 1 2)", "(0 1 3)",
        "(0 2 1)", "(0 2 4)", "(0 2 5)", "(0 2 6)", "(0 2 3)",
        "(0 3 1)", "(0 3 2)", "(0 3 4)", "(0 3 5)", "(0 3 6)",
    ]


def test_signs_generation_one():
    t = enumerate_trees(1)[0]
    s = compute_signs(t)
    assert s.psgn == (+1, +1, -1, +1)
    assert s.fsgn == s.psgn


def test_middle_of_middle_flips_back():
    # expand the root, then its middle child (id 2)
    t = build_tree([0, 2])
    s = compute_signs(t)
    mid_of_mid = t.nodes[2].children[1]
    assert s.psgn[mid_of_mid] == -1
    assert s.fsgn[mid_of_mid] == +1


def test_fsgn_parity_rule_exhaustive():
    for J in (1, 2, 3):
        for t in enumerate_trees(J):
            s = compute_signs(t)
            for node in t.nodes:
                mids = sum(1 for a in _ancestors(t, node.idx) if t.nodes[a].position == 1)
                assert s.fsgn[node.idx] * s.psgn[node.idx] == (-1) ** mids


def test_generation_frequencies_track_expanded_terminal():
    # the node expanded at generation j was a terminal of the previous tree
    for t in enumerate_trees(4):
        for j, a in enumerate(t.chronicle):
            if j == 0:
                assert a == 0
            else:
                prev = build_tree(t.chronicle[:j])
                assert a in prev.terminal_ids()


def test_index_functions_match_complement_triples_at_J1():
    t = enumerate_trees(1)[0]
    window, N = 3, 2.0
    assigns = enumerate_index_functions(t, 0, window, N)
    got = sorted((a.freq[1], a.freq[2], a.freq[3]) for a in assigns)
    want = sorted((tr.n1, tr.n2, tr.n3) for tr in enumerate_triples(0, window, N, "A_N_complement"))
    assert got == want


def test_index_functions_empty_when_threshold_unreachable():
    t = enumerate_trees(1)[0]
    window = 3
    # |Phi| within the window cannot exceed 2*(2w)^2 + slack
    N = 2 * (2 * window) ** 2 * 2.0
    assert enumerate_index_functions(t, 0, window, N) == []


def test_index_function_invariants_and_phases(monkeypatch):
    unchained(monkeypatch)
    t = build_tree([0, 1])
    window, N = 6, 2.0
    assigns = enumerate_index_functions(t, 0, window, N)
    assert assigns
    signs = compute_signs(t)
    for a in assigns[::501]:
        for fa, c1, c2, c3 in generation_tuples(a):
            assert abs((c1 - c2 + c3) - fa) <= 1
            assert abs(fa - c1) > 1 and abs(fa - c3) > 1
        # signed phases recompute from the freq map
        again = assignment_from_freqs(t, a.freq, signs=signs)
        assert again.phases == a.phases
        mt = np.cumsum(a.phases.mu)
        assert tuple(mt) == a.phases.mu_tilde
        assert tuple(np.cumprod(mt)) == a.phases.mu_hat
        assert abs(a.phases.mu[0]) > N


def test_chain_filter_matches_manual_filter_and_is_nonempty():
    # sparse leaf support engineered so the 5^3 barrier is actually clearable:
    # root tuple (2,-1,-2) has phase -7, the inner tuple (24,44,22) under
    # fa=2 has phase 880, and |-7+880| = 873 > 125*7^0.99
    t = build_tree([0, 1])
    allowed = {b: [-2, -1, 2, 22, 24, 44] for b in t.terminal_ids()}
    kw = dict(window=46, N=2.0, allowed_boxes=allowed)
    unfiltered = reference_index_functions(t, 0, cJ_filter="none", **kw)
    chained = enumerate_index_functions(t, 0, **kw)
    manual = [a for a in unfiltered if c_chain_ok(a.phases.mu_tilde)]
    assert {a.freq for a in chained} == {a.freq for a in manual}
    assert chained
    for a in chained:
        assert all(h != 0 for h in a.phases.mu_hat)


def test_middle_expansion_signs_phase():
    # expanding the middle child flips the sign of the second phase
    t = build_tree([0, 2])
    freq = [0] * t.size()
    freq[0] = 0
    freq[1], freq[2], freq[3] = 5, 2, -3  # root children
    k1, k2, k3 = t.nodes[2].children
    freq[k1], freq[k2], freq[k3] = 6, 1, -3  # children of the middle node
    a = assignment_from_freqs(t, freq)
    assert a.phases.mu[0] == phase_value(0, 5, 2, -3)
    assert a.phases.mu[1] == -phase_value(2, 6, 1, -3)


def test_prefix_products_vs_descendant_sums_on_sibling_tree():
    # chronicle-order prefix sums and the descendant-complement sums coincide
    # on chain trees but differ when siblings are expanded
    chain = build_tree([0, 1, 4])
    sib = build_tree([0, 1, 3])

    def yeah_mu_tilde(tree, phases):
        # sum of mu over internal nodes that are NOT strict descendants
        per_node = dict(zip(tree.chronicle, phases))
        out = {}
        for a in tree.chronicle:
            total = 0
            for b in tree.chronicle:
                if a not in _ancestors(tree, b):
                    total += per_node[b]
            out[a] = total
        return [out[a] for a in tree.chronicle]

    mu = [7, 11, 13]
    for tree, equal in ((chain, True), (sib, False)):
        chron_prefix = list(np.cumsum(mu))
        via_descendants = yeah_mu_tilde(tree, mu)
        assert (via_descendants == chron_prefix) == equal


def test_sampled_assignments_respect_floor():
    rng = np.random.default_rng(3)
    for ch in ([0, 1], [0, 2, 4]):
        t = build_tree(ch)
        assigns = sample_index_functions(t, 0, 14, 2.0, 20, rng, min_denominator=1.0)
        assert len(assigns) == 20
        for a in assigns:
            # integer product prefixes clear the floor by more than the slop
            mp = np.cumsum(a.phases.mu_product)
            assert np.all(np.abs(mp) >= 2.0)
            for fa, c1, c2, c3 in generation_tuples(a):
                assert abs(fa - c1) > 1 and abs(fa - c3) > 1


def test_sampled_assignments_respect_every_predicate_with_comparability():
    rng = np.random.default_rng(4)
    window, N, floor, comparability = 8, 2.0, 1.0, 0.5
    for ch in ([0, 1], [0, 2], [0, 2, 4], [0, 3, 1]):
        t = build_tree(ch)
        assigns = sample_index_functions(
            t, 0, window, N, 20, rng, min_denominator=floor,
            comparability=comparability, max_attempts=2_000_000,
        )
        assert len(assigns) == 20
        for a in assigns:
            assert abs(a.phases.mu[0]) > N
            prefix, slop = 0, 0
            for (fa, c1, c2, c3), mp in zip(generation_tuples(a), a.phases.mu_product):
                assert abs(fa - c1) > 1 and abs(fa - c3) > 1
                assert abs(c1 - c2 + c3 - fa) <= 1
                assert -window <= c2 <= window
                # the continuous-prefix condition, with the signed product phases
                prefix += mp
                slop += 2 * (abs(fa - c1) + abs(fa - c3) + 1)
                pref = abs(prefix) / 2
                assert pref - slop / 2 >= max(floor, comparability * pref)


# ---------------------------------------------------------------------------
# the frontier against the reference frontier


def _same_assignments(got, want):
    got = sorted(got, key=lambda a: a.freq)
    want = sorted(want, key=lambda a: a.freq)
    assert [a.freq for a in got] == [a.freq for a in want]
    assert [a.phases for a in got] == [a.phases for a in want]
    assert all(a.n_root == b.n_root and a.tree is b.tree for a, b in zip(got, want))


# (J, window, N, roots): windows 2-3 keep the reference recursion fast at J = 3
FRONTIER_CASES = [
    (1, 3, 2.0, (-4, 0, 1, 5)),
    (1, 5, 9.0, (-3, 0, 2)),
    (2, 3, 2.0, (-2, 0, 3)),
    (2, 4, 12.0, (0, 1)),
    (3, 2, 0.5, (-1, 0, 2)),
    (3, 3, 14.0, (1,)),
]


# "none": the oracle's unfiltered set, against the package with an unreachable
# C set (``unchained``)
@pytest.mark.parametrize("cJ_filter", ["C_complement_chain", "none"])
@pytest.mark.parametrize("J,window,N,roots", FRONTIER_CASES)
def test_frontier_matches_reference_recursion(J, window, N, roots, cJ_filter, monkeypatch):
    if cJ_filter == "none":
        unchained(monkeypatch)
    nonempty = 0
    for tree in enumerate_trees(J):
        for n_root in roots:
            args = (tree, n_root, window, N)
            got = enumerate_index_functions(*args)
            _same_assignments(got, reference_index_functions(*args, cJ_filter=cJ_filter))
            nonempty += bool(got)
    # the chain barrier (2j+1)^3 |mu|^0.99 is out of reach in windows this
    # small, so the chain filter is exercised nonempty by the sparse cases below
    assert nonempty or (cJ_filter != "none" and J > 1)


@pytest.mark.parametrize("cJ_filter", ["C_complement_chain", "none"])
def test_frontier_matches_reference_with_allowed_boxes(cJ_filter, monkeypatch):
    # a sparse support, on the leaves only and per node
    if cJ_filter == "none":
        unchained(monkeypatch)
    leaf_set = [-2, 0, 3]
    inner = {-3, -1, 1, 4}
    window, N = 5, 1.0
    nonempty = 0
    for J in (1, 2, 3):
        for tree in enumerate_trees(J):
            per_node = {a: inner for a in tree.chronicle[1:]}
            per_node.update({b: leaf_set for b in tree.terminal_ids()})
            per_node[tree.terminal_ids()[0]] = None  # None: the full window
            leaves = {b: leaf_set for b in tree.terminal_ids()}
            for allowed in (leaves, per_node):
                for n_root in (0, 2):
                    got = enumerate_index_functions(tree, n_root, window, N, allowed)
                    want = reference_index_functions(tree, n_root, window, N, allowed, cJ_filter)
                    _same_assignments(got, want)
                    nonempty += bool(got)
    assert nonempty


@pytest.mark.parametrize("cJ_filter", ["C_complement_chain", "none"])
def test_frontier_matches_reference_where_the_chain_is_clearable(cJ_filter, monkeypatch):
    # J = 2: the engineered support of the chain-filter test, on the leaves
    if cJ_filter == "none":
        unchained(monkeypatch)
    t = build_tree([0, 1])
    kw = dict(window=46, N=2.0, allowed_boxes={b: [-2, -1, 2, 22, 24, 44] for b in t.terminal_ids()})
    got = enumerate_index_functions(t, 0, **kw)
    assert got
    _same_assignments(got, reference_index_functions(t, 0, cJ_filter=cJ_filter, **kw))
    # J = 3 chain tree, per-node sets: mu1 = -7, mu2 = 880 clears 5^3 * 7^0.99,
    # and the third tuple (24; -350, 24, 398) has phase -279752, which clears
    # 7^3 * 873^0.99
    t = build_tree([0, 1, 4])
    base = {1: 2, 2: -1, 3: -2, 4: 24, 5: 44, 6: 22, 7: -350, 8: 24, 9: 398}
    sets = {k: {v - 1, v, v + 1, v + 5} for k, v in base.items()}
    kw = dict(window=400, N=2.0, allowed_boxes=sets)
    got = enumerate_index_functions(t, 0, **kw)
    assert got
    _same_assignments(got, reference_index_functions(t, 0, cJ_filter=cJ_filter, **kw))


# ---------------------------------------------------------------------------
# the multi-root frontier against the reference frontier


def _same_frontier(got, want):
    """The frontier's box rows are the reference's, want = (freq, mu, mu_p)."""
    assert got.dtype == want[0].dtype
    assert np.array_equal(got, want[0])


def _leaf_set(tree, allowed):
    leaves = set(tree.terminal_ids())
    return lambda c: allowed if c in leaves else None


# (J, window, N, roots): roots include the outermost reachable boxes +-(3w+1)
MULTI_ROOT_CASES = [
    (1, 3, 2.0, (-10, -3, -1, 0, 2, 5, 10)),
    (1, 6, 9.0, (-19, -1, 0, 4, 19)),
    (2, 3, 2.0, (-10, -3, 0, 2, 5)),
    (2, 4, 12.0, (-1, 0, 2)),
    (3, 2, 0.5, (-7, -1, 0, 2, 7)),
    (3, 3, 14.0, (0, 2)),
]


@pytest.mark.parametrize("J,window,N,roots", MULTI_ROOT_CASES)
def test_multi_root_frontier_is_concatenated_enumerations(J, window, N, roots):
    # one frontier from many roots = the per-root enumerations, in root order
    leaf_set = [-2, 0, 1, 3]
    nonempty = 0
    for tree in enumerate_trees(J):
        per_node = {a: {-3, -1, 0, 2, 4} for a in tree.chronicle[1:]}
        per_node.update({b: leaf_set for b in tree.terminal_ids()})
        per_node[tree.terminal_ids()[-1]] = None
        for node_set in (_leaf_set(tree, None), _leaf_set(tree, leaf_set), per_node.get):
            for cJ_filter in ("C_complement_chain", "none"):
                args = (window, N, node_set, 2_000_000)
                per_root = [reference_frontier(tree, [r], *args, cJ_filter) for r in roots]
                want = [np.concatenate(cols) for cols in zip(*per_root)]
                with pytest.MonkeyPatch.context() as mp:
                    if cJ_filter == "none":
                        unchained(mp)
                    _same_frontier(_frontier(tree, roots, *args), want)
                nonempty += len(want[0]) > 0
    assert nonempty


def _replay_criterion8_frontiers(monkeypatch):
    """(args, new frontier, reference frontier) of every frontier call of
    criterion 8's remainder_n2 at J = 1 and 2."""
    from test_acceptance import criterion8_inputs

    calls = []

    def both(*args):
        got = _frontier(*args)
        calls.append((args, got, reference_frontier(*args)))
        return got

    monkeypatch.setattr(normal_form, "_frontier", both)
    v, allowed = criterion8_inputs()
    for J in (1, 2):
        remainder_n2(v, J, 1.0, window=48, allowed_all=allowed)
    return calls


def test_frontier_matches_reference_on_criterion_8(monkeypatch):
    calls = _replay_criterion8_frontiers(monkeypatch)
    assert {args[0].J for args, _, _ in calls} == {1, 2}
    for args, got, want in calls:
        _same_frontier(got, want)
    # the chain is live at J = 2: some generation-2 rows survive it
    assert sum(len(got) for args, got, _ in calls if args[0].J == 2) > 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_frontier_matches_reference_property(data):
    J = data.draw(st.integers(1, 3), label="J")
    window = data.draw(st.integers(1, 6), label="window")
    tree = data.draw(st.sampled_from(enumerate_trees(J)), label="tree")
    reach = 3 * window + 1
    roots = data.draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=4), label="roots")
    # per-node box sets, boxes outside the window included; None: the full window
    box_set = st.frozensets(st.integers(-window - 1, window + 1), min_size=window + 1)
    node_set = st.none() | st.none() | box_set
    sets = {c: data.draw(node_set, label=f"set {c}") for c in range(1, tree.size())}
    # thresholds on integer phase boundaries, and below zero
    N = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 14.0]), label="N")
    cJ_filter = data.draw(st.sampled_from(["C_complement_chain", "none"]), label="filter")
    # the true C-set radius is out of reach in windows this small; a scaled
    # max(|mu~_j|, |mu_1|) keeps chain survivors and puts phases exactly on it
    scale = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.5]), label="radius scale")
    args = (tree, roots, window, N, sets.get, 5_000)
    with pytest.MonkeyPatch.context() as mp:
        if scale is not None:

            def radius(J, mu_tilde_J, mu_1):
                return scale * np.maximum(abs(mu_tilde_J), abs(mu_1)).astype(float)

            mp.setattr(oracles, "c_set_radius", radius)
            mp.setattr(trees, "c_set_radius", radius)
        if cJ_filter == "none":
            unchained(mp)
        try:
            want = reference_frontier(*args, cJ_filter)
        except ResourceGuardError:
            with pytest.raises(ResourceGuardError):
                _frontier(*args)
            return
        _same_frontier(_frontier(*args), want)


def test_frontier_guard_raises_at_the_exact_count_before_gathering(monkeypatch):
    # every generation's exact row count passes as max_count, one less raises,
    # and the raising generation gathers nothing: its phase table's child
    # columns are never indexed
    full = build_tree([0, 2, 5])
    leaf_set = {-2, -1, 1, 2}
    unchained(monkeypatch)
    args = (2, 0.5, lambda c: leaf_set if c in (1, 3, 8) else None)
    gathers = []

    class Gathered(np.ndarray):
        def __getitem__(self, key):
            gathers.append(1)
            return np.asarray(self)[key]

    class RecordingTable(trees.PhaseTable):
        def __init__(self, *a):
            super().__init__(*a)
            self.c1, self.c2, self.c3 = (c.view(Gathered) for c in (self.c1, self.c2, self.c3))

    monkeypatch.setattr(trees, "PhaseTable", RecordingTable)
    counts = []
    for g in range(1, full.J + 1):
        tree = build_tree(full.chronicle[:g])  # the frontier of the first g generations
        counts.append(len(_frontier(tree, [-1, 0, 3], *args, 10**9)))
        assert counts == sorted(set(counts)), "row counts must grow"
        got = _frontier(tree, [-1, 0, 3], *args, counts[-1])
        _same_frontier(got, reference_frontier(tree, [-1, 0, 3], *args, counts[-1], "none"))
        gathers.clear()
        with pytest.raises(ResourceGuardError):
            _frontier(tree, [-1, 0, 3], *args, counts[-1] - 1)
        assert len(gathers) == 3 * (g - 1)  # c1, c2, c3 of every earlier generation
    assert counts[0] > 0


def test_every_row_handed_to_a_later_generation_keeps_a_child(monkeypatch):
    # the frontier drops a row before gathering it when the chain leaves it
    # no child at the next generation, so from generation 2 on every row the
    # phase table's tail search sees keeps at least one child
    from test_acceptance import criterion8_inputs

    frontiers = []  # per frontier call, per generation: (rows handed, rows kept)
    outside = trees.PhaseTable.outside

    def spy(self, block, *rest):
        rows, pos = outside(self, block, *rest)
        frontiers[-1].append((len(block), np.unique(rows)))
        return rows, pos

    def frontier(tree, *rest):
        frontiers.append([])
        return _frontier(tree, *rest)

    monkeypatch.setattr(trees.PhaseTable, "outside", spy)
    monkeypatch.setattr(normal_form, "_frontier", frontier)
    v, allowed = criterion8_inputs()
    remainder_n2(v, 2, 1.0, window=48, allowed_all=allowed)
    assert frontiers and all(len(gens) == 2 for gens in frontiers)
    for J, window, N, roots in FRONTIER_CASES:
        if J == 3:
            for tree in enumerate_trees(J):
                frontier(tree, roots, window, N, lambda c: None, 2_000_000)
                assert len(frontiers[-1]) == 3
    handed = 0
    for gens in frontiers:
        for count, kept in gens[1:]:
            assert np.array_equal(kept, np.arange(count)), f"{count - len(kept)} of {count} rows died"
            handed += count
    assert handed  # criterion 8's chain keeps some generation-2 rows


def test_frontier_peak_memory_on_criterion_8():
    # criterion 8's J = 2 tree pass: the rows the chain kills at generation 2
    # (about 40,000 in each of six frontiers) are never gathered; gathering
    # them took the peak to about 10 MB, against 6 MB without them
    from test_acceptance import criterion8_inputs

    v, allowed = criterion8_inputs()
    tracemalloc.start()
    try:
        remainder_n2(v, 2, 1.0, window=48, allowed_all=allowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6, f"remainder_n2 peak {peak / 1e6:.1f} MB"


def test_chain_possible_wherever_the_frontier_is_nonempty(monkeypatch):
    # _chain_possible is a necessary prefilter only: it may say True where the
    # frontier is empty, never False where it is not
    seen = 0
    for J, window, N, roots in FRONTIER_CASES:
        for tree in enumerate_trees(J):
            freq = _frontier(tree, roots, window, N, lambda c: None, 2_000_000)
            if len(freq):
                seen += 1
                assert _chain_possible(J, N, window)
    for args, got, _ in _replay_criterion8_frontiers(monkeypatch):
        if len(got):
            seen += 1
            assert _chain_possible(args[0].J, args[3], args[2])
    assert seen


def test_public_enumeration_still_raises_typed_errors():
    t = build_tree([0, 1])
    with pytest.raises(BoxRangeError):
        enumerate_index_functions(t, 0, 0, 2.0)
    with pytest.raises(BoxRangeError):
        enumerate_index_functions(t, 14, 4, 2.0)
    with pytest.raises(ResourceGuardError):
        enumerate_index_functions(t, 0, 4, 2.0, max_count=10)


def test_index_enumeration_guard(monkeypatch):
    unchained(monkeypatch)
    t = build_tree([0, 1])
    full = enumerate_index_functions(t, 0, 4, 2.0)
    assert len(full) > 100
    assert len(enumerate_index_functions(t, 0, 4, 2.0, max_count=len(full))) == len(full)
    with pytest.raises(ResourceGuardError):
        enumerate_index_functions(t, 0, 4, 2.0, max_count=len(full) - 1)


# ---------------------------------------------------------------------------
# the batched sampler against its valid set: the unfiltered reference
# frontier, filtered by the sampler's product-prefix predicate


def chi_square_upper_tail(stat, df):
    """P(chi2_df >= stat) by the Wilson-Hilferty cube-root normal approximation."""
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


# (chronicle, window, comparability, valid-set size): a side and a middle
# expansion; comparability 0.5 empties both at window 4 (and the side one at 6)
EXACT_SAMPLER_CASES = [
    ((0, 1), 4, 0.0, 144),
    ((0, 2), 4, 0.0, 476),
    ((0, 1), 7, 0.5, 1530),
    ((0, 2), 6, 0.5, 868),
]
P_VALUE_FLOOR = 1e-3


@pytest.mark.parametrize("chronicle,window,comparability,size", EXACT_SAMPLER_CASES)
def test_sampler_support_and_uniformity_match_brute_force(chronicle, window, comparability, size):
    tree = build_tree(chronicle)
    kw = dict(min_denominator=1.0, comparability=comparability)
    valid = sampler_valid_assignments(tree, 0, window, 2.0, **kw)
    assert len(valid) == size
    # 20 draws per valid assignment: a cell is missed with probability e^-20
    draws = sample_index_functions(
        tree, 0, window, 2.0, 20 * size, np.random.default_rng(11), max_attempts=50_000_000, **kw
    )
    assert all(valid[a.freq] == a.phases for a in draws)
    counts = Counter(a.freq for a in draws)
    assert set(counts) == set(valid)
    expected = len(draws) / size
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi_square_upper_tail(stat, size - 1) > P_VALUE_FLOOR


def test_chi_square_tail_rejects_a_skewed_sample():
    # the uniformity check above can fail: half the cells drawn twice as often
    counts = [30] * 100 + [15] * 100
    expected = sum(counts) / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert chi_square_upper_tail(stat, len(counts) - 1) < 1e-6
    assert 0.4 < chi_square_upper_tail(199.0, 199) < 0.6


def test_sampler_guards():
    t = build_tree([0, 1])
    rng = np.random.default_rng(0)
    with pytest.raises(BoxRangeError):
        sample_index_functions(t, 0, 0, 2.0, 1, rng)
    with pytest.raises(BoxRangeError):
        sample_index_functions(t, 14, 4, 2.0, 1, rng)
    with pytest.raises(BoxRangeError):
        sample_index_functions(t, -14, 4, 2.0, 1, rng)
    with pytest.raises(DomainError):
        sample_index_functions(t, 0, 4, 2.0, -1, rng)
    with pytest.raises(DomainError):
        sample_index_functions(t, 0, 4, 2.0, 1, rng, max_attempts=0)
    assert sample_index_functions(t, 13, 4, 2.0, 0, rng) == []


def test_sampler_raises_when_nothing_is_valid():
    # comparability 0.5 empties the side expansion at window 6 (brute force)
    t = build_tree([0, 1])
    kw = dict(min_denominator=1.0, comparability=0.5)
    assert sampler_valid_assignments(t, 0, 6, 2.0, **kw) == {}
    with pytest.raises(ResourceGuardError):
        sample_index_functions(t, 0, 6, 2.0, 1, np.random.default_rng(0), max_attempts=100_000, **kw)


class RecordingRng:
    """A Generator that keeps every array of integers it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, low, high, size=None):
        out = self.rng.integers(low, high, size=size)
        self.draws.append(out)
        return out


def test_sampler_max_attempts_is_exact():
    # J = 1: each block draws (c1, c3, delta) once, so the draws are the attempts
    t = build_tree([0])
    valid = sampler_valid_assignments(t, 0, 4, 2.0, 1.0, 0.0)
    max_attempts = SAMPLE_BLOCK + 100  # the second block is capped at 100
    rec = RecordingRng(5)
    with pytest.raises(ResourceGuardError):
        sample_index_functions(t, 0, 4, 2.0, max_attempts, rec, max_attempts=max_attempts)
    c1, c3, delta = (np.concatenate(rec.draws[k::3]) for k in range(3))
    assert len(c1) == max_attempts
    freqs = [(0, a, a + b - d, b) for a, b, d in zip(c1.tolist(), c3.tolist(), delta.tolist())]
    accepted = [f for f in freqs if f in valid]
    assert 0 < len(accepted) < max_attempts
    got = sample_index_functions(
        t, 0, 4, 2.0, len(accepted), np.random.default_rng(5), max_attempts=max_attempts
    )
    assert [a.freq for a in got] == accepted  # in attempt order
    with pytest.raises(ResourceGuardError):
        sample_index_functions(
            t, 0, 4, 2.0, len(accepted) + 1, np.random.default_rng(5), max_attempts=max_attempts
        )


def test_sampler_same_seed_same_output():
    for ch in ([0, 1], [0, 2, 4]):
        t = build_tree(ch)
        kw = dict(min_denominator=1.0, comparability=0.5, max_attempts=2_000_000)
        one = sample_index_functions(t, 0, 8, 2.0, 30, np.random.default_rng(9), **kw)
        two = sample_index_functions(t, 0, 8, 2.0, 30, np.random.default_rng(9), **kw)
        assert one == two
