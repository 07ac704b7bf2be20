"""Kernel operators: trilinear products, gap kernels, tree operators."""

import numpy as np
import pytest

from nfnls import multilinear
from nfnls.errors import PreconditionError, ResourceGuardError
from nfnls.grids import make_grid
from nfnls.modulation import BandCoefficients
from nfnls.multilinear import (
    BandTuple,
    certify_tree_bound,
    q1,
    q_tree,
)
from nfnls.trees import (
    build_tree,
    compute_signs,
    enumerate_index_functions,
    enumerate_trees,
    sample_index_functions,
)
from oracles import (
    assignment_from_freqs, coherent_band, generation_tuples, loop_certify_tree_bound, mesh_q_tree,
    per_row_q1_rows, physical_q1_oracle, q1_tilde, random_band, reference_index_functions,
)

G = make_grid(16, 32)
B = G.bins_per_box


def band(n, coeffs=None, grid=G, rng=None):
    if coeffs is None:
        coeffs = rng.standard_normal(grid.bins_per_box) + 1j * rng.standard_normal(
            grid.bins_per_box
        )
    c = np.zeros(grid.bins_per_box, dtype=complex)
    c[: len(np.atleast_1d(coeffs))] = coeffs
    return BandCoefficients(
        box_index=n, grid=grid, coeffs=np.atleast_1d(coeffs) if len(np.atleast_1d(coeffs)) == grid.bins_per_box else c,
        start_bin=n * grid.bins_per_box,
    )


def single_bin_band(n, offset, value, grid=G):
    c = np.zeros(grid.bins_per_box, dtype=complex)
    c[offset] = value
    return BandCoefficients(box_index=n, grid=grid, coeffs=c, start_bin=n * grid.bins_per_box)


def test_q1_zero_and_multilinear():
    rng = np.random.default_rng(0)
    z = band(3, np.zeros(B))
    b1, b3 = band(3, rng=rng), band(-4, rng=rng)
    out = q1(0, b1, z, b3, 0.7)
    assert np.all(out.coeffs == 0)
    # additivity + homogeneity in slot 1
    a, c = band(3, rng=rng), band(3, rng=rng)
    b2 = band(2, rng=rng)
    lhs = q1(4, band(3, a.coeffs + 2.5j * c.coeffs), b2, b3, 0.3).coeffs
    rhs = q1(4, a, b2, b3, 0.3).coeffs + 2.5j * q1(4, c, b2, b3, 0.3).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1e-30)


def test_q1_single_bin_convolution_by_hand():
    # bands concentrated at xi1=3, xi2=1, xi3=2: product sits at xi=4 exactly
    b1 = single_bin_band(3, 0, 2.0)
    b2 = single_bin_band(1, 0, 3.0 - 1.0j)
    b3 = single_bin_band(2, 0, 1.5j)
    hot = q1(4, b1, b2, b3, 0.0)
    cold = q1(10, b1, b2, b3, 0.0)
    assert np.all(cold.coeffs == 0)
    idx = np.flatnonzero(np.abs(hot.coeffs) > 0)
    assert list(idx) == [0]  # bin 4B exactly
    expect = 2.0 * np.conj(3.0 - 1.0j) * 1.5j / (2 * np.pi * B * B)
    assert hot.coeffs[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.6])
def test_q1_matches_physical_padded_product(t):
    rng = np.random.default_rng(1)
    b1, b2, b3 = band(5, rng=rng), band(-2, rng=rng), band(1, rng=rng)
    for n in (7, 8, 9):
        want = physical_q1_oracle(n, b1, b2, b3, t, G)
        scale = max(np.max(np.abs(want)), 1e-30)
        boxes = (np.array([k]) for k in (n, 5, -2, 1))
        rows = per_row_q1_rows(G, t, *(b.coeffs[None] for b in (b1, b2, b3)), *boxes)
        for got in (q1(n, b1, b2, b3, t).coeffs, rows[0]):
            assert np.max(np.abs(got - want)) < 1e-10 * scale


def test_q1_norm_bound_over_random_triples():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        b1 = random_band(G, 3, rng)
        b2 = random_band(G, -1, rng)
        b3 = random_band(G, 2, rng)
        out = q1(4, b1, b2, b3, 0.2)
        worst = max(worst, out.l2_norm())
    coh = q1(4, coherent_band(G, 3), coherent_band(G, -1), coherent_band(G, 2), 0.0)
    # the coherent probe dominates the random draws and stays O(1)
    assert worst <= coh.l2_norm() * 1.5
    assert coh.l2_norm() < 1.0


def test_q1_tilde_zero_and_resonant_guard():
    rng = np.random.default_rng(3)
    z = band(4, np.zeros(B))
    out = q1_tilde(0, band(4, rng=rng), z, band(-4, rng=rng), 0.1)
    assert np.all(out.coeffs == 0)
    with pytest.raises(PreconditionError):
        q1_tilde(0, band(1, rng=rng), band(0, rng=rng), band(-4, rng=rng), 0.1)


def test_q1_tilde_fd_identity_minus_2i_q1():
    # frozen band inputs: d/dt q1_tilde = -2i * q1 exactly
    rng = np.random.default_rng(4)
    b1, b2, b3 = band(4, rng=rng), band(1, rng=rng), band(-3, rng=rng)
    n, t0, dt = 0, 0.3, 2e-5
    plus = q1_tilde(n, b1, b2, b3, t0 + dt).coeffs
    minus = q1_tilde(n, b1, b2, b3, t0 - dt).coeffs
    fd = (plus - minus) / (2 * dt)
    want = -2j * q1(n, b1, b2, b3, t0).coeffs
    assert np.max(np.abs(fd - want)) < 1e-6 * np.max(np.abs(want))


def fir_ratio(gap1, gap3, grid, trials=6, seed=5):
    """sup over probes of ||q1_tilde|| * gap1 * gap3 / prod ||v||."""
    rng = np.random.default_rng(seed)
    n = 0
    n1, n3 = n - gap1, n + gap3
    n2 = n1 + n3 - n
    best = 0.0
    probes = [
        (coherent_band(grid, n1), coherent_band(grid, n2), coherent_band(grid, n3))
    ]
    for _ in range(trials):
        probes.append(
            (random_band(grid, n1, rng), random_band(grid, n2, rng), random_band(grid, n3, rng))
        )
    for b1, b2, b3 in probes:
        out = q1_tilde(n, b1, b2, b3, 0.0)
        best = max(best, out.l2_norm() * gap1 * gap3)
    return best


def test_fir_sweep_bounded_and_refinement_stable():
    gaps = [2, 3, 5, 10, 25, 50]
    g1 = make_grid(8, 64)
    g2 = make_grid(16, 64)
    sup1 = max(fir_ratio(a, b, g1) for a in gaps for b in gaps)
    sup2 = max(fir_ratio(a, b, g2) for a in gaps for b in gaps)
    assert np.isfinite(sup1) and np.isfinite(sup2)
    assert 0.5 <= sup2 / sup1 <= 2.0


def test_q_tree_j1_reduces_to_q1_tilde():
    rng = np.random.default_rng(6)
    tree = enumerate_trees(1)[0]
    freq = [0, 4, 1, -3]
    assign = assignment_from_freqs(tree, freq)
    b1, b2, b3 = band(4, rng=rng), band(1, rng=rng), band(-3, rng=rng)
    tup = BandTuple(bands=(b1, b2, b3), conjugated=(False, True, False))
    for t in (0.0, 0.4):
        got = q_tree(tree, assign, tup, t).coeffs
        want = q1_tilde(0, b1, b2, b3, t).coeffs
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_q_tree_rejects_flags_that_disagree_with_signs():
    # leaf 2 is the conjugated middle slot (fsgn = -1); flags that leave it
    # plain, or conjugate a plain leaf, are refused instead of giving a wrong band
    rng = np.random.default_rng(5)
    tree = enumerate_trees(1)[0]
    assign = assignment_from_freqs(tree, [0, 3, 6, 3])
    bands = (band(3, rng=rng), band(6, rng=rng), band(3, rng=rng))
    assert np.any(q_tree(tree, assign, BandTuple(bands, (False, True, False)), 0.2).coeffs)
    for flags in [(False, False, False), (True, True, False), (False, True, True)]:
        with pytest.raises(PreconditionError, match="conjugation flags disagree"):
            q_tree(tree, assign, BandTuple(bands, flags), 0.2)


def test_q_tree_left_expansion_denominator_hand_check():
    # single-bin (bin-aligned) leaves make the kernel denominators exactly
    # the integer products m1*(m1+m2)
    tree = build_tree([0, 1])
    freq = [0] * tree.size()
    freq[0] = 0
    freq[1], freq[2], freq[3] = 7, 4, -3  # root children: n1, n2, n3
    k1, k2, k3 = tree.nodes[1].children
    freq[k1], freq[k2], freq[k3] = 3, -1, 3  # children of n1
    assign = assignment_from_freqs(tree, freq)
    leaves = [single_bin_band(3, 0, 1.0), single_bin_band(-1, 0, 1.0),
              single_bin_band(3, 0, 1.0), single_bin_band(4, 0, 1.0),
              single_bin_band(-3, 0, 1.0)]
    tup = BandTuple(bands=tuple(leaves), conjugated=(False, True, False, True, False))
    out = q_tree(tree, assign, tup, 0.0)
    m1 = (0 - 7) * (0 - (-3))
    m2 = (7 - 3) * (7 - 3)
    expect = (2 * np.pi * B * B) ** (-2) / (m1 * (m1 + m2))
    idx = np.flatnonzero(np.abs(out.coeffs) > 0)
    assert list(idx) == [0]
    assert out.coeffs[0] == pytest.approx(expect, rel=1e-12)
    assert abs(m1 * (m1 + m2)) == abs(m1) * abs(m1 + m2)


def test_q_tree_middle_expansion_flips_second_phase():
    # expanding the conjugated (middle) child gives denominator m1*(m1 - m2)
    tree = build_tree([0, 2])
    freq = [0] * tree.size()
    freq[0] = 0
    freq[1], freq[2], freq[3] = 7, 4, -3
    k1, k2, k3 = tree.nodes[2].children
    freq[k1], freq[k2], freq[k3] = 8, 1, -3  # children of n2: 8-1-3 = 4
    assign = assignment_from_freqs(tree, freq)
    signs = compute_signs(tree)
    fl = [signs.fsgn[b] == -1 for b in tree.terminal_ids()]
    leaves = [single_bin_band(7, 0, 1.0), single_bin_band(8, 0, 1.0),
              single_bin_band(1, 0, 1.0), single_bin_band(-3, 0, 1.0),
              single_bin_band(-3, 0, 1.0)]
    tup = BandTuple(bands=tuple(leaves), conjugated=tuple(fl))
    out = q_tree(tree, assign, tup, 0.0)
    m1 = (0 - 7) * (0 - (-3))
    m2 = (4 - 8) * (4 - (-3))
    expect = (2 * np.pi * B * B) ** (-2) / (m1 * (m1 - m2))
    assert out.coeffs[0] == pytest.approx(expect, rel=1e-12)


def test_q_tree_zero_leaf_and_multilinearity():
    rng = np.random.default_rng(7)
    tree = build_tree([0, 1])
    assign = sample_index_functions(tree, 0, 10, 2.0, 1, rng)[0]
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    bands = [random_band(G, assign.freq[b], rng) for b in leaf_ids]
    zeroed = list(bands)
    zeroed[2] = band(assign.freq[leaf_ids[2]], np.zeros(B))
    out0 = q_tree(tree, assign, BandTuple(tuple(zeroed), flags), 0.2)
    assert np.all(out0.coeffs == 0)
    # homogeneity in slot 0
    scaled = list(bands)
    scaled[0] = BandCoefficients(
        box_index=bands[0].box_index, grid=G, coeffs=3.0 * bands[0].coeffs,
        start_bin=bands[0].start_bin,
    )
    a = q_tree(tree, assign, BandTuple(tuple(scaled), flags), 0.2).coeffs
    bb = q_tree(tree, assign, BandTuple(tuple(bands), flags), 0.2).coeffs
    assert np.max(np.abs(a - 3.0 * bb)) < 1e-10 * max(np.max(np.abs(bb)), 1e-30)


def test_q_tree_phase_peeling():
    # with leaves held fixed in the u-picture, exp(+i t xi^2) * output is t-free
    rng = np.random.default_rng(8)
    tree = build_tree([0, 3])
    assign = sample_index_functions(tree, 0, 10, 2.0, 1, rng)[0]
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    u_bands = [random_band(G, assign.freq[b], rng) for b in leaf_ids]
    peeled = []
    for t in (0.0, 0.3, 1.0):
        v_bands = []
        for ub in u_bands:
            xi = ub.frequencies()
            v_bands.append(
                BandCoefficients(
                    box_index=ub.box_index, grid=G,
                    coeffs=ub.coeffs * np.exp(-1j * t * xi * xi),
                    start_bin=ub.start_bin,
                )
            )
        out = q_tree(tree, assign, BandTuple(tuple(v_bands), flags), t)
        xi_out = out.frequencies()
        peeled.append(out.coeffs * np.exp(1j * t * xi_out * xi_out))
    scale = np.max(np.abs(peeled[0]))
    for p in peeled[1:]:
        assert np.max(np.abs(p - peeled[0])) < 1e-9 * scale


def test_reality_symmetry_q1():
    # conjugating all inputs and reflecting all boxes conjugates the output
    # (bands are kept off the first bin so the lattice reflection is exact)
    rng = np.random.default_rng(9)

    def interior_band(n):
        c = rng.standard_normal(B) + 1j * rng.standard_normal(B)
        c[0] = 0.0
        return BandCoefficients(box_index=n, grid=G, coeffs=c, start_bin=n * B)

    def reflect(bnd):
        c = np.zeros(B, dtype=complex)
        c[1:] = np.conj(bnd.coeffs[1:][::-1])
        return BandCoefficients(
            box_index=-bnd.box_index - 1, grid=G, coeffs=c,
            start_bin=(-bnd.box_index - 1) * B,
        )

    b1, b2, b3 = interior_band(4), interior_band(1), interior_band(-3)
    n, t = 0, 0.37
    out = q1(n, b1, b2, b3, t)
    mirrored = q1(-n - 1, reflect(b1), reflect(b2), reflect(b3), -t)
    want = np.conj(out.coeffs[1:][::-1])
    # mirrored bin 0 reflects out of box n and is excluded
    assert np.max(np.abs(mirrored.coeffs[1:] - want)) < 1e-10 * max(np.max(np.abs(want)), 1e-30)


def test_certify_tree_bound_j1_consistent_with_fir():
    rng = np.random.default_rng(10)
    grid = make_grid(8, 32)
    tree = enumerate_trees(1)[0]
    assign = assignment_from_freqs(tree, [0, 5, 2, -3])
    measured = certify_tree_bound(tree, assign, trials=10, grid=grid, rng=rng)
    sup_fir = max(fir_ratio(a, b, grid) for a in (3, 5) for b in (3, 5))
    assert measured <= 4.0 * sup_fir
    # doubling one leaf norm doubles the measured output norm
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    bands = [coherent_band(grid, assign.freq[b]) for b in leaf_ids]
    base = q_tree(tree, assign, BandTuple(tuple(bands), flags), 0.0).l2_norm()
    bands[1] = BandCoefficients(
        box_index=bands[1].box_index, grid=grid, coeffs=2.0 * bands[1].coeffs,
        start_bin=bands[1].start_bin,
    )
    doubled = q_tree(tree, assign, BandTuple(tuple(bands), flags), 0.0).l2_norm()
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_certify_refinement_stability():
    rng = np.random.default_rng(11)
    tree = build_tree([0, 1])
    assign = sample_index_functions(tree, 0, 8, 2.0, 1, rng)[0]
    vals = {}
    for Bq in (4, 8):
        grid = make_grid(Bq, 32)
        vals[Bq] = certify_tree_bound(tree, assign, trials=5, grid=grid,
                                      rng=np.random.default_rng(12))
    assert 0.5 <= vals[8] / vals[4] <= 2.0


def test_kernel_guards():
    rng = np.random.default_rng(13)
    tree4 = build_tree([0, 1, 4, 7])
    with pytest.raises(ResourceGuardError):
        q_tree(tree4, assignment_from_freqs(tree4, [0] * tree4.size()), None, 0.0)
    tree3 = build_tree([0, 1, 4])
    assign = sample_index_functions(tree3, 0, 8, 2.0, 1, rng, max_attempts=500_000)[0]
    signs = compute_signs(tree3)
    leaf_ids = tree3.terminal_ids()
    big = make_grid(16, 32)
    tup = BandTuple(
        bands=tuple(coherent_band(big, assign.freq[b]) for b in leaf_ids),
        conjugated=tuple(signs.fsgn[b] == -1 for b in leaf_ids),
    )
    with pytest.raises(ResourceGuardError):
        q_tree(tree3, assign, tup, 0.0)


# ---------------------------------------------------------------------------
# the tree operator and the certification against the full-mesh operator and
# the draw-by-draw certification


def _rel_err(got, want):
    scale = np.max(np.abs(want))
    if scale == 0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def _sampled(tree, count, rng, window=8):
    return sample_index_functions(
        tree, 0, window, 2.0, count, rng,
        min_denominator=1.0, comparability=0.5, max_attempts=2_000_000,
    )


def _sparse_enumerated(tree, count):
    """Criterion-8 plans: leaves on a sparse support, one insert leaf and the
    internal nodes on its reach."""
    support = {-2, 0, 2, 22, 27}
    reach = support | {a - b + c + d for a in support for b in support
                       for c in support for d in (-1, 0, 1)}
    leaf_ids = tree.terminal_ids()
    out = []
    for insert in leaf_ids:
        plan = {a: reach for a in tree.chronicle[1:]}
        plan.update({b: support for b in leaf_ids})
        plan[insert] = reach
        for n_root in (0, 24):
            out += enumerate_index_functions(tree, n_root, 48, 1.0, allowed_boxes=plan)[:count]
    return out


def recursion_order(assign):
    return [c for _, c1, c2, c3 in generation_tuples(assign) for c in (c1, c3, c2)]


def _tree_cases():
    rng = np.random.default_rng(20)
    for J in (1, 2, 3):
        for k, tree in enumerate(enumerate_trees(J)):
            assigns = _sampled(tree, 2, rng)
            # unfiltered chains also reach singular prefix denominators; in
            # the order of a recursion over (c1, c3, c2) per generation
            window = 4 if J <= 2 else 2
            unfiltered = reference_index_functions(tree, 1, window, 2.0, cJ_filter="none")
            assigns += sorted(unfiltered, key=recursion_order)[::97][:4]
            if J <= 2:  # criterion 8's level 3 is structurally empty
                assigns += _sparse_enumerated(tree, 1)
            yield pytest.param(tree, assigns, id=f"J{J}-tree{k}")


@pytest.mark.parametrize("tree,assigns", list(_tree_cases()))
def test_q_tree_matches_mesh_oracle(tree, assigns):
    rng = np.random.default_rng(21)
    grid = make_grid(4, 32)
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    assert assigns
    for assign in assigns:
        bands = [random_band(grid, assign.freq[b], rng) for b in leaf_ids]
        zeroed = list(bands)
        dead = int(rng.integers(len(leaf_ids)))
        zeroed[dead] = band(assign.freq[leaf_ids[dead]], np.zeros(4), grid=grid)
        for tup_bands in (bands, zeroed):
            tup = BandTuple(tuple(tup_bands), flags)
            for t in (0.0, 0.37):
                try:
                    want = mesh_q_tree(tree, assign, tup, t)
                except PreconditionError:
                    with pytest.raises(PreconditionError, match="singular prefix"):
                        q_tree(tree, assign, tup, t)
                    continue
                got = q_tree(tree, assign, tup, t).coeffs
                assert _rel_err(got, want) <= 1e-14


@pytest.mark.parametrize("J", [2, 3])
def test_certify_tree_bound_matches_loop_oracle_and_stream(J, monkeypatch):
    # every draw, not only the maximum, which the coherent draw mostly sets:
    # the batch evaluator's per-draw output norms, times the denominator,
    # against the draw-by-draw values
    grid = make_grid(4, 32)
    sampler = np.random.default_rng(22)
    batches = []
    evaluate = multilinear._evaluate

    def recorded(*args, **kwargs):
        batches.append(evaluate(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(multilinear, "_evaluate", recorded)
    for tree in enumerate_trees(J)[:4]:
        for assign in _sampled(tree, 2, sampler):
            rng = np.random.default_rng(23)
            oracle_rng = np.random.default_rng(23)
            batches.clear()
            got = certify_tree_bound(tree, assign, 3, grid, rng)
            want = loop_certify_tree_bound(tree, assign, 3, grid, oracle_rng)
            norms = np.sqrt(np.sum(np.abs(batches[0]) ** 2, axis=1) / grid.bins_per_box)
            assert len(batches) == 1 and len(norms) == len(want) == 4
            assert abs(got - want.max()) <= 1e-14 * want.max()
            assert np.all(np.abs(norms * got / norms.max() - want) <= 1e-14 * want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_q_tree_singular_prefix_precondition(monkeypatch):
    # the single-bin tuple of the hand check: prefixes m1 = -21, m1 + m2 = -5;
    # the floor is read at call time
    tree = build_tree([0, 1])
    freq = [0, 7, 4, -3, 3, -1, 3]
    assign = assignment_from_freqs(tree, freq)
    flags = (False, True, False, True, False)
    leaves = [single_bin_band(f, 0, 1.0) for f in (3, -1, 3, 4, -3)]
    tup = BandTuple(tuple(leaves), flags)
    monkeypatch.setattr(multilinear, "MIN_PREFIX_DENOMINATOR", 6.0)
    with pytest.raises(PreconditionError, match="singular prefix"):
        q_tree(tree, assign, tup, 0.0)
    monkeypatch.setattr(multilinear, "MIN_PREFIX_DENOMINATOR", 4.0)
    assert np.any(q_tree(tree, assign, tup, 0.0).coeffs)
    monkeypatch.setattr(multilinear, "MIN_PREFIX_DENOMINATOR", 6.0)
    leaves[3] = single_bin_band(4, 0, 0.0)
    out = q_tree(tree, assign, BandTuple(tuple(leaves), flags), 0.0)
    assert not np.any(out.coeffs)
    # coherent bands: every surviving tuple carries data, so a large floor raises
    monkeypatch.setattr(multilinear, "MIN_PREFIX_DENOMINATOR", 1e6)
    grid = make_grid(4, 32)
    coherent = [coherent_band(grid, f) for f in (3, -1, 3, 4, -3)]
    with pytest.raises(PreconditionError, match="singular prefix"):
        q_tree(tree, assign, BandTuple(tuple(coherent), flags), 0.0)
    coherent[3] = band(4, np.zeros(4), grid=grid)
    out = q_tree(tree, assign, BandTuple(tuple(coherent), flags), 0.0)
    assert not np.any(out.coeffs)


@pytest.mark.parametrize("tree,assigns", list(_tree_cases()))
def test_slack_plan_equals_per_assignment_plan(tree, assigns):
    # all-ones leaves: every tuple inside the windows adds its kernel alone,
    # so the plan's tuples and kernels show without cancellation
    grid = make_grid(4, 32)
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    for assign in assigns:
        tup = BandTuple(tuple(coherent_band(grid, assign.freq[b]) for b in leaf_ids), flags)
        try:
            want = mesh_q_tree(tree, assign, tup, 0.0)
        except PreconditionError:
            continue
        assert _rel_err(q_tree(tree, assign, tup, 0.0).coeffs, want) <= 1e-14
