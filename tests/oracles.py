"""Reference forms for the tests: each computes what a package operator or
set computes, by another method (scalar loops, brute force, or the per-row
and per-assignment paths the batched kernels replaced).  The package imports
nothing from here."""

import math
from typing import NamedTuple

import numpy as np

import nfnls.normal_form as normal_form
from nfnls.errors import DomainError, NumericalFailureError, PreconditionError, ResourceGuardError
from nfnls.grids import Field, Spectrum, forward, free_propagate, inverse, make_grid
from nfnls.modulation import BandCoefficients, reconstruct
from nfnls.multilinear import BandTuple, _check_band, _conj_reversed, _u_block, q1, q_tree
from nfnls.normal_form import (
    BoxedState, Trajectory, _chain_possible, _coupled_insert_rows, _gap_index, _gap_table, _InnerBuckets,
    _Node, _output_boxes, _q1_rows, _tree_sign, _triple_table, apply_resonant,
)
from nfnls.resonance import (
    _EXPANSION_BLOCK, PRODUCT, QUARTIC, FrequencyTriple, _in_window, _mode_mask, c_set_radius,
    enumerate_triples, expand_triples, phase_value,
)
from nfnls.trees import (
    IndexAssignment, PhaseRecord, compute_signs, enumerate_index_functions, enumerate_trees,
)


# ---------------------------------------------------------------------------
# resonance: divisor counts, the C sets and the triple sets


def divisor_count(m: int) -> int:
    """Exact number of divisors d(m) by trial division, m >= 1."""
    if m < 1:
        raise DomainError(f"divisor_count needs m >= 1, got {m}")
    count = 1
    rem = m
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if rem > 1:
        count *= 2
    return count


def divisor_choice_count(n: int, mu: int, window: int) -> int:
    """Number of (n1, n3) in [-window, window]^2 with 2*(n-n1)*(n-n3) == mu.

    Zero for odd mu (parity obstruction); for even nonzero mu the count is
    bounded by 2*d(|mu|/2).  mu == 0 counts the degenerate pairs where a gap
    vanishes.
    """
    if mu % 2 != 0:
        return 0
    half = mu // 2
    lo, hi = -window, window
    if half == 0:
        count = 0
        for n1 in range(lo, hi + 1):
            for n3 in range(lo, hi + 1):
                if (n - n1) * (n - n3) == 0:
                    count += 1
        return count
    count = 0
    a = 1
    while a * a <= abs(half):
        if half % a == 0:
            for d1 in {a, -a, half // a, -(half // a)}:
                d3, r = divmod(half, d1)
                if r != 0:
                    continue
                n1, n3 = n - d1, n - d3
                if lo <= n1 <= hi and lo <= n3 <= hi:
                    count += 1
        a += 1
    return count


def c_set_member(J: int, mu_tilde_J: float, mu_tilde_J1: float, mu_1: float) -> bool:
    """Membership in C_J for the prefix phases.

    C_J = {|mu~_{J+1}| <= (2J+3)^3 |mu~_J|^{1-1/100}}
        union {|mu~_{J+1}| <= (2J+3)^3 |mu_1|^{1-1/100}},
    with exponent exactly 1 - 1/100; J = 1 gives the constant 5^3.  Works
    elementwise on arrays of phases.
    """
    return abs(mu_tilde_J1) <= c_set_radius(J, mu_tilde_J, mu_1)


def c_chain_ok(mu_tilde: "np.ndarray | list[float]") -> bool:
    """True iff generations 2..J all avoid their C sets (the complement chain).

    ``mu_tilde`` holds the signed prefix phases mu~_1..mu~_J in chronicle
    order; generation j is checked against C_{j-1}.
    """
    mt = list(mu_tilde)
    for j in range(1, len(mt)):
        if c_set_member(j, mt[j - 1], mt[j], mt[0]):
            return False
    return True


def cube_expand_triples(parents, window, child_sets=(None, None, None)):
    """expand_triples over the full (parent, c1, c2, slack) cube, solving for
    c3 whatever the set sizes, in blocks of _EXPANSION_BLOCK cells."""
    parents = np.asarray(parents, dtype=np.int64).reshape(-1)
    full = np.arange(-window, window + 1, dtype=np.int64)
    ok1, ok2, ok3 = (_in_window(s, window) for s in child_sets)
    s1, s2 = full[ok1], full[ok2]
    # c3 = c2 - c1 + parent + slack, slack -1, 0, 1: c3 ascends in the last axis
    lift = (s2[:, None] + np.array([-1, 0, 1]))[None] - s1[:, None, None]
    step = max(1, _EXPANSION_BLOCK // max(1, lift.size))
    cols = [tuple(np.zeros(0, dtype=np.int64) for _ in range(4))]
    for lo in range(0, len(parents), step):
        c3 = lift[None] + parents[lo : lo + step, None, None, None]
        hit = (np.abs(c3) <= window) & ok3[np.clip(c3 + window, 0, 2 * window)]
        r, i1, i2, _ = np.nonzero(hit)
        cols.append((r + lo, s1[i1], s2[i2], c3[hit]))
    return tuple(np.concatenate(c) for c in zip(*cols))


def brute_triples(n, window, N, mode, convention=QUARTIC):
    out = []
    r = range(-window, window + 1)
    for n1 in r:
        for n2 in r:
            for n3 in r:
                if abs((n1 - n2 + n3) - n) > 1:
                    continue
                near1 = abs(n1 - n) <= 1
                near3 = abs(n3 - n) <= 1
                phi = phase_value(n, n1, n2, n3, convention)
                if mode == "resonant_R1" and (near1 and near3):
                    out.append(FrequencyTriple(n, n1, n2, n3))
                elif mode == "resonant_R2" and (near1 or near3):
                    out.append(FrequencyTriple(n, n1, n2, n3))
                elif mode == "A_N" and not near1 and not near3 and abs(phi) <= N:
                    out.append(FrequencyTriple(n, n1, n2, n3))
                elif mode == "A_N_complement" and not near1 and not near3 and abs(phi) > N:
                    out.append(FrequencyTriple(n, n1, n2, n3))
    return sorted(out)


def per_n_triple_table(n_max, window, N, mode, convention):
    """The triple table built per output box from enumerate_triples, or from
    the brute force under the product phase (reference)."""
    out_lim = min(3 * window + 1, n_max - 1)

    def per_n(n):
        if convention == QUARTIC:
            return enumerate_triples(n, window, N, mode)
        return brute_triples(n, window, N, mode, convention)

    rows = [tuple(tr) for n in range(-out_lim, out_lim + 1) for tr in per_n(n)]
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return tuple(arr[:, i].copy() for i in range(4))


def product_triple_table(n_max, window, N, mode):
    """The triple table of ``mode`` over all output boxes under the product
    phase 2*(n-n1)*(n-n3): one expansion masked as in
    ``normal_form._triple_table``, the phase sets split by the product phase
    (criterion 7's fixed protocol)."""
    boxes = _output_boxes(n_max, window)
    rows, n1, n2, n3 = expand_triples(boxes, window)
    n = boxes[rows]
    if mode.startswith("resonant"):
        keep = _mode_mask(n, n1, n2, n3, mode, N)
    else:
        inside = np.abs(phase_value(n, n1, n2, n3, PRODUCT)) <= N
        keep = (np.abs(n1 - n) > 1) & (np.abs(n3 - n) > 1) & (inside == (mode == "A_N"))
    return n[keep], n1[keep], n2[keep], n3[keep]


def merged_resonant_table(n_max, window):
    """R2 - R1 as one weighted table (n, n1, n2, n3, weight): the R2 rows with
    weight two on the doubly matched overlap and one elsewhere, the R1 rows
    with weight -1, sorted stably by n (reference for the resonant set)."""
    r2, r1 = (_triple_table(n_max, window, None, m) for m in ("resonant_R2", "resonant_R1"))
    doubly = (np.abs(r2[1] - r2[0]) <= 1) & (np.abs(r2[3] - r2[0]) <= 1)
    cols = [np.concatenate(pair) for pair in zip(r2 + (1.0 + doubly,), r1 + (-np.ones(len(r1[0])),))]
    order = np.argsort(cols[0], kind="stable")
    return tuple(c[order] for c in cols)


# ---------------------------------------------------------------------------
# trees: index functions, their enumeration and their sampling


def internal_ids(tree):
    """The ids of the nodes with children."""
    return tuple(node.idx for node in tree.nodes if node.children is not None)


def generation_tuples(assign):
    """(freq(a), freq(a1), freq(a2), freq(a3)) per generation, chronicle order."""
    out = []
    for a in assign.tree.chronicle:
        c1, c2, c3 = assign.tree.nodes[a].children
        out.append((assign.freq[a], assign.freq[c1], assign.freq[c2], assign.freq[c3]))
    return out


def assignment_from_freqs(tree, freq, signs=None):
    """Package a frequency map, recomputing the signed phase record."""
    signs = signs or compute_signs(tree)
    mu, mu_p = [], []
    for a in tree.chronicle:
        c1, c2, c3 = tree.nodes[a].children
        tup = (freq[a], freq[c1], freq[c2], freq[c3])
        mu.append(signs.fsgn[a] * phase_value(*tup))
        mu_p.append(signs.fsgn[a] * phase_value(*tup, PRODUCT))
    return IndexAssignment(
        tree=tree, freq=tuple(int(f) for f in freq), phases=PhaseRecord(tuple(mu), tuple(mu_p))
    )


def _reference_child_choices(fa, window, child_sets):
    lo, hi = -window, window

    def rng(allowed):
        if allowed is not None:
            return [b for b in allowed if lo <= b <= hi]
        return range(lo, hi + 1)

    s2 = child_sets[1]
    for c1 in rng(child_sets[0]):
        if abs(c1 - fa) <= 1:
            continue
        for c3 in rng(child_sets[2]):
            if abs(c3 - fa) <= 1:
                continue
            for c2 in (c1 + c3 - fa - 1, c1 + c3 - fa, c1 + c3 - fa + 1):
                if not (lo <= c2 <= hi):
                    continue
                if s2 is not None and c2 not in s2:
                    continue
                yield c1, c2, c3


def reference_index_functions(
    tree, n_root, window, N, allowed_boxes=None, cJ_filter="C_complement_chain"
):
    """enumerate_index_functions as one recursion over scalar candidates;
    cJ_filter = "none" drops the complement chain (the unfiltered set)."""
    signs = compute_signs(tree)
    chron = tree.chronicle
    node_set = dict(allowed_boxes or {}).get
    out = []
    freq = [0] * tree.size()
    freq[0] = n_root

    def recurse(j, mu):
        if j == len(chron):
            out.append(assignment_from_freqs(tree, freq, signs))
            return
        a = chron[j]
        fa = freq[a]
        kids = tree.nodes[a].children
        sign = signs.fsgn[a]
        for c1, c2, c3 in _reference_child_choices(fa, window, [node_set(c) for c in kids]):
            m = sign * phase_value(fa, c1, c2, c3)
            if j == 0:
                if abs(m) <= N:
                    continue
            elif cJ_filter == "C_complement_chain":
                prev = sum(mu)
                if c_set_member(j, prev, prev + m, mu[0]):
                    continue
            freq[kids[0]], freq[kids[1]], freq[kids[2]] = c1, c2, c3
            recurse(j + 1, mu + [m])

    recurse(0, [])
    return out


def reference_frontier(tree, roots, window, N, node_set, max_count, cJ_filter="C_complement_chain"):
    """trees._frontier as masks over every candidate child of every row;
    cJ_filter = "none" drops the complement chain."""
    signs = compute_signs(tree)
    freq = np.zeros((len(roots), tree.size()), dtype=np.int64)
    freq[:, 0] = roots
    mu = mu_p = np.zeros((len(roots), 0), dtype=np.int64)
    for j, a in enumerate(tree.chronicle):
        kids = list(tree.nodes[a].children)
        rows, c1, c2, c3 = expand_triples(freq[:, a], window, [node_set(c) for c in kids])
        fa = freq[rows, a]
        m = signs.fsgn[a] * phase_value(fa, c1, c2, c3)
        keep = (np.abs(c1 - fa) > 1) & (np.abs(c3 - fa) > 1)
        if j == 0:
            keep &= np.abs(m) > N
        elif cJ_filter == "C_complement_chain":
            prev = mu[rows].sum(axis=1)
            keep &= ~c_set_member(j, prev, prev + m, mu[rows, 0])
        rows, c1, c2, c3, fa, m = (x[keep] for x in (rows, c1, c2, c3, fa, m))
        if len(rows) > max_count:
            raise ResourceGuardError(f"index enumeration exceeded {max_count} assignments")
        mp = signs.fsgn[a] * phase_value(fa, c1, c2, c3, PRODUCT)
        freq = freq[rows]
        freq[:, kids] = np.stack([c1, c2, c3], axis=1)
        mu, mu_p = np.column_stack([mu[rows], m]), np.column_stack([mu_p[rows], mp])
    return freq, mu, mu_p


def reference_sample_index_functions(
    tree, n_root, window, N, count, rng,
    min_denominator=1.0, comparability=0.0, max_attempts=200_000,
):
    """sample_index_functions as one scalar loop over attempts."""
    signs = compute_signs(tree)
    out = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        freq = [0] * tree.size()
        freq[0] = n_root
        mu_p = []
        slop = 0
        for j, a in enumerate(tree.chronicle):
            fa = freq[a]
            kids = tree.nodes[a].children
            sign = signs.fsgn[a]
            c1 = int(rng.integers(-window, window + 1))
            c3 = int(rng.integers(-window, window + 1))
            if abs(c1 - fa) <= 1 or abs(c3 - fa) <= 1:
                break
            delta = int(rng.integers(-1, 2))
            c2 = c1 + c3 - fa - delta
            if not (-window <= c2 <= window):
                break
            if j == 0 and abs(phase_value(fa, c1, c2, c3)) <= N:
                break
            mu_p.append(sign * phase_value(fa, c1, c2, c3, PRODUCT))
            slop += 2 * (abs(fa - c1) + abs(fa - c3) + 1)
            pref = abs(sum(mu_p)) / 2.0
            if pref - slop / 2.0 < max(min_denominator, comparability * pref):
                break
            freq[kids[0]], freq[kids[1]], freq[kids[2]] = c1, c2, c3
        else:  # every generation accepted
            out.append(assignment_from_freqs(tree, freq, signs))
    if len(out) < count:
        raise ResourceGuardError(f"could only sample {len(out)}/{count}")
    return out


def brute_valid_assignments(tree, n_root, window, N, min_denominator, comparability):
    """{freq: PhaseRecord} over every accepted sequence of draws (c1, c3, delta)."""
    signs = compute_signs(tree)
    out = {}
    freq = [0] * tree.size()
    freq[0] = n_root

    def recurse(j, mu, mu_p, slop):
        if j == tree.J:
            out[tuple(freq)] = PhaseRecord(tuple(mu), tuple(mu_p))
            return
        a = tree.chronicle[j]
        fa = freq[a]
        kids = tree.nodes[a].children
        sign = signs.fsgn[a]
        for c1 in range(-window, window + 1):
            for c3 in range(-window, window + 1):
                for delta in (-1, 0, 1):
                    c2 = c1 + c3 - fa - delta
                    m = sign * phase_value(fa, c1, c2, c3)
                    mp = sign * phase_value(fa, c1, c2, c3, PRODUCT)
                    s = slop + 2 * (abs(fa - c1) + abs(fa - c3) + 1)
                    pref = abs(sum(mu_p) + mp) / 2.0
                    if (
                        abs(c1 - fa) <= 1 or abs(c3 - fa) <= 1 or abs(c2) > window
                        or (j == 0 and abs(m) <= N)
                        or pref - s / 2.0 < max(min_denominator, comparability * pref)
                    ):
                        continue
                    freq[kids[0]], freq[kids[1]], freq[kids[2]] = c1, c2, c3
                    recurse(j + 1, mu + [m], mu_p + [mp], s)

    recurse(0, [], [], 0)
    return out


# ---------------------------------------------------------------------------
# grids and multilinear: the Gaussian's transform, the tree symbol, unit probe
# bands, the per-triple gap kernel and its constant sweep, q1 and the tree
# operators


def gaussian_unitary_transform(xi):
    # closed form of the unitary transform of exp(-x^2)
    return np.exp(-(xi**2) / 4.0) / np.sqrt(2.0)


class SymbolEvaluation(NamedTuple):
    """One kernel evaluation: value and the prefix denominators it used."""

    value: complex
    denominators: tuple[float, ...]


def rho_symbol(tree, assign, xi_leaves, signs=None) -> SymbolEvaluation:
    """Point evaluation of the tree kernel at continuous leaf frequencies.

    Sharp windows at internal nodes (zero value if any propagated frequency
    leaves its box); returns the prefix denominators actually used.
    """
    signs = signs or compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    xi: dict[int, float] = {b: float(x) for b, x in zip(leaf_ids, xi_leaves)}

    def xi_of(node_id: int) -> float:
        if node_id in xi:
            return xi[node_id]
        c1, c2, c3 = tree.nodes[node_id].children
        xi[node_id] = xi_of(c1) - xi_of(c2) + xi_of(c3)
        return xi[node_id]

    window_ok = all(
        assign.freq[a] <= xi_of(a) < assign.freq[a] + 1 for a in tree.chronicle
    )
    denoms = []
    pref = 0.0
    for a in tree.chronicle:
        c1, _, c3 = tree.nodes[a].children
        pref += signs.fsgn[a] * (xi_of(a) - xi_of(c1)) * (xi_of(a) - xi_of(c3))
        denoms.append(pref)
    if not window_ok:
        return SymbolEvaluation(value=0.0 + 0.0j, denominators=tuple(denoms))
    val = 1.0
    for d in denoms:
        val /= d
    return SymbolEvaluation(value=complex(val), denominators=tuple(denoms))


def unit_band(grid, n, coeffs):
    """Band at box n from raw coefficients, L2-normalized."""
    c = np.asarray(coeffs, dtype=np.complex128)
    nrm = np.sqrt(np.sum(np.abs(c) ** 2) / grid.bins_per_box)
    if nrm == 0:
        raise PreconditionError("cannot normalize the zero band")
    return BandCoefficients(
        box_index=n, grid=grid, coeffs=c / nrm, start_bin=n * grid.bins_per_box
    )


def coherent_band(grid, n):
    """All-ones unit band: the sup-seeking probe for the kernel bounds."""
    return unit_band(grid, n, np.ones(grid.bins_per_box))


def random_band(grid, n, rng):
    B = grid.bins_per_box
    return unit_band(grid, n, rng.standard_normal(B) + 1j * rng.standard_normal(B))


def q1_tilde(n, b1, b2, b3, t):
    """Gap-kernel trilinear operator on one non-resonant tuple.

    Output bin xi gets (2*pi*B^2)^{-1} * exp(-i*t*xi^2) times the double sum
    of u1(xi1) * conj(u2)(xi-xi1-xi3) * u3(xi3) / ((xi-xi1)*(xi-xi3)); the
    gaps |n-n1| > 1, |n-n3| > 1 keep the denominator >= 1 in modulus.
    """
    g = b1.grid
    _check_band(b1, g)
    _check_band(b2, g)
    _check_band(b3, g)
    n1 = b1.box_index
    n3 = b3.box_index
    if abs(n - n1) <= 1 or abs(n - n3) <= 1:
        raise PreconditionError(
            f"resonant tuple (n={n}, n1={n1}, n3={n3}): kernel would be singular"
        )
    B = g.bins_per_box
    u1 = _u_block(b1, t)
    u3 = _u_block(b3, t)
    g2, g2_start = _conj_reversed(_u_block(b2, t), b2.start_bin)

    k_out = n * B + np.arange(B)
    k1 = b1.start_bin + np.arange(B)
    k3 = b3.start_bin + np.arange(B)
    # gather conj-u2 at k_out - k1 - k3
    idx = k_out[:, None, None] - k1[None, :, None] - k3[None, None, :] - g2_start
    valid = (idx >= 0) & (idx < B)
    g2_val = np.where(valid, g2[np.clip(idx, 0, B - 1)], 0.0)
    d1 = (k_out[:, None] - k1[None, :]) / B
    d3 = (k_out[:, None] - k3[None, :]) / B
    out = np.einsum("b,c,abc,ab,ac->a", u1, u3, g2_val, 1.0 / d1, 1.0 / d3)
    xi_out = k_out / B
    out *= np.exp(-1j * t * xi_out * xi_out) / (2.0 * np.pi * B * B)
    return BandCoefficients(box_index=n, grid=g, coeffs=out, start_bin=n * B)


def loop_fir_probe_norms(B, gaps=(2, 3, 5, 10, 25, 50), trials=4, seed=0):
    """``harness._fir_probe_norms`` one (g1, g3) row and one probe at a time:
    the (g1, g3, probe) array of ||q1_tilde|| * g1 * g3."""
    grid = make_grid(B, max(gaps) + 14)
    rng = np.random.default_rng(seed)
    norms = np.zeros((len(gaps), len(gaps), trials + 1))
    for i, g1 in enumerate(gaps):
        for j, g3 in enumerate(gaps):
            n, n1, n3 = 0, -g1, g3
            n2 = n1 + n3 - n
            probes = [(coherent_band(grid, n1), coherent_band(grid, n2), coherent_band(grid, n3))]
            probes += [
                (random_band(grid, n1, rng), random_band(grid, n2, rng), random_band(grid, n3, rng))
                for _ in range(trials)
            ]
            for p, (b1, b2, b3) in enumerate(probes):
                norms[i, j, p] = q1_tilde(n, b1, b2, b3, 0.0).l2_norm() * g1 * g3
    return norms


def loop_fir_constant_sweep(B, gaps=(2, 3, 5, 10, 25, 50), trials=4, seed=0):
    """``harness.fir_constant_sweep`` from the per-probe loop."""
    best = loop_fir_probe_norms(B, gaps, trials, seed).max(axis=2)
    rows = [(g1, g3, float(v)) for g1, row in zip(gaps, best) for g3, v in zip(gaps, row)]
    return max(r[2] for r in rows), rows


def physical_q1_oracle(n, b1, b2, b3, t, grid):
    """box_n(S(t)[S(-t)b1 * conj(S(-t)b2) * S(-t)b3]) on a 4x padded grid."""
    pad = make_grid(grid.bins_per_box, 4 * grid.n_max)
    shift = (pad.M - grid.M) // 2

    def embed(bnd):
        c = np.zeros(pad.M, dtype=complex)
        full = reconstruct(bnd).coeffs
        c[shift : shift + grid.M] = full
        return Spectrum(grid=pad, coeffs=c)

    us = [inverse(free_propagate(embed(b), t, direction=-1)) for b in (b1, b2, b3)]
    prod = us[0].samples * np.conj(us[1].samples) * us[2].samples
    F = free_propagate(forward(Field(grid=pad, samples=prod)), t, direction=+1)
    sl = pad.box_slice(n)
    return F.coeffs[sl]


def mesh_q_tree(tree, assign, leaves, t, min_denominator=0.5):
    """q_tree on the full B^(2J+1) leaf-bin mesh, masked node by node."""
    B = leaves.bands[0].grid.bins_per_box
    leaf_ids = tree.terminal_ids()
    L = len(leaf_ids)
    signs = compute_signs(tree)
    K = {}
    values = None
    for i, b in enumerate(leaf_ids):
        band = leaves.bands[i]
        _check_band(band, leaves.bands[0].grid)
        assert band.box_index == assign.freq[b]
        shape = [1] * L
        shape[i] = B
        K[b] = (band.start_bin + np.arange(B)).reshape(shape)
        ub = _u_block(band, t)
        if leaves.conjugated[i]:
            ub = np.conj(ub)
        v = ub.reshape(shape)
        values = v if values is None else values * v

    def k_of(node_id):
        if node_id not in K:
            c1, c2, c3 = tree.nodes[node_id].children
            K[node_id] = k_of(c1) - k_of(c2) + k_of(c3)
        return K[node_id]

    mask = values != 0
    for a in tree.chronicle:
        ka = k_of(a)
        na = assign.freq[a]
        mask = mask & (ka >= na * B) & (ka < (na + 1) * B)
    kernel = np.ones((1,) * L)
    prefix = np.zeros((1,) * L)
    for a in tree.chronicle:
        c1, _, c3 = tree.nodes[a].children
        m = signs.fsgn[a] * ((k_of(a) - k_of(c1)) / B) * ((k_of(a) - k_of(c3)) / B)
        prefix = prefix + m
        if np.any(mask & (np.abs(prefix) < min_denominator)):
            raise PreconditionError(
                "singular prefix denominator met by nonzero data inside the windows"
            )
        kernel = kernel / np.where(mask & (prefix != 0), prefix, 1.0)
    contrib = np.where(mask, values * kernel, 0.0) * (2.0 * np.pi * B * B) ** (-tree.J)
    flat_idx = (np.broadcast_to(k_of(0), contrib.shape) - assign.n_root * B).ravel()
    flat = contrib.ravel()
    keep = (flat_idx >= 0) & (flat_idx < B)
    out = np.zeros(B, dtype=np.complex128)
    np.add.at(out, flat_idx[keep], flat[keep])
    xi_out = (assign.n_root * B + np.arange(B)) / B
    return out * np.exp(-1j * t * xi_out * xi_out)


def per_assignment_tree_plan(tree, assign, B):
    """The surviving tuples of one index function, joined on absolute bins:
    (leaf offsets, kernel, root bins, smallest prefix moduli)."""
    signs = compute_signs(tree)
    bins = np.arange(B)
    sub = {b: (assign.freq[b] * B + bins, [bins], {}) for b in tree.terminal_ids()}
    for a in reversed(tree.chronicle):
        (k1, o1, m1), (k2, o2, m2), (k3, o3, m3) = (
            sub.pop(c) for c in tree.nodes[a].children
        )
        ka = k1[:, None, None] - k2[None, :, None] + k3[None, None, :]
        na = assign.freq[a]
        i1, i2, i3 = np.nonzero((ka >= na * B) & (ka < (na + 1) * B))
        k = ka[i1, i2, i3]
        m = {j: col[i1] for j, col in m1.items()}
        m.update({j: col[i2] for j, col in m2.items()})
        m.update({j: col[i3] for j, col in m3.items()})
        m[a] = signs.fsgn[a] * ((k - k1[i1]) / B) * ((k - k3[i3]) / B)
        offsets = [o[i1] for o in o1] + [o[i2] for o in o2] + [o[i3] for o in o3]
        sub[a] = (k, offsets, m)
    k, offsets, m = sub[0]
    kernel, prefix, min_prefix = 1.0, 0.0, np.inf
    for a in tree.chronicle:
        prefix = prefix + m[a]
        min_prefix = np.minimum(min_prefix, np.abs(prefix))
        kernel = kernel / np.where(prefix != 0, prefix, 1.0)
    return offsets, kernel, k - assign.n_root * B, min_prefix


def loop_certify_tree_bound(tree, assign, trials, grid, rng):
    """Certification one draw at a time: coherent first, then random bands, at t = 0."""
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    den = 1.0
    for mt in np.cumsum(np.asarray(assign.phases.mu_product) / 2.0):
        den *= abs(mt)
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    measured = 0.0
    for kind in ["coherent"] + ["random"] * trials:
        if kind == "coherent":
            bands = [coherent_band(grid, assign.freq[b]) for b in leaf_ids]
        else:
            bands = [random_band(grid, assign.freq[b], rng) for b in leaf_ids]
        out = mesh_q_tree(tree, assign, BandTuple(tuple(bands), flags), 0.0)
        measured = max(measured, float(np.sqrt(np.sum(np.abs(out) ** 2) / grid.bins_per_box)) * den)
    return measured


# ---------------------------------------------------------------------------
# normal_form: row kernels, the generation-one pass and the tree-level sums


def padded_boxed_cubic(state, t=None):
    """box_n(S(t)[|S(-t)v|^2 S(-t)v]) through a padded Grid, Field and Spectrum
    in ascending frequency order, with the free flows over all 4M bins."""
    g = state.grid
    t = state.time if t is None else t
    pad = make_grid(g.bins_per_box, 4 * g.n_max)
    shift = (pad.M - g.M) // 2
    c = np.zeros(pad.M, dtype=complex)
    c[shift : shift + g.M] = state.data.reshape(-1)
    u = inverse(free_propagate(Spectrum(grid=pad, coeffs=c), t, direction=-1))
    h = u.samples * np.conj(u.samples) * u.samples
    F = free_propagate(forward(Field(grid=pad, samples=h)), t, direction=+1)
    sliced = F.coeffs[shift : shift + g.M]
    return BoxedState(g, sliced.reshape(2 * g.n_max, g.bins_per_box), t)


def per_row_u(B, t, v, n):
    """Bands v at boxes n times exp(i t xi^2), one exp per row."""
    xi = (n[:, None] * B + np.arange(B)) / B
    return v * np.exp(1j * t * xi * xi)


def per_row_q1_rows(grid, t, v1, v2, v3, n, n1, n2, n3, to_u=per_row_u):
    """Batched q1 with the three band transforms taken row by row."""
    B = grid.bins_per_box
    u1 = to_u(B, t, v1, n1)
    u3 = to_u(B, t, v3, n3)
    g2 = np.conj(to_u(B, t, v2, n2)[:, ::-1])
    L = 4 * B
    conv = np.fft.ifft(
        np.fft.fft(u1, L, axis=1) * np.fft.fft(g2, L, axis=1) * np.fft.fft(u3, L, axis=1),
        axis=1,
    )
    d = n - (n1 - n2 + n3)
    idx = (d[:, None] + 1) * B - 1 + np.arange(B)
    out = np.take_along_axis(conv, idx, axis=1)
    return to_u(B, -t, out, n) / (2.0 * np.pi * B * B)


def _gap_chunk(B, t, v1, v2, v3, n, n1, n2, n3):
    """A chunk of gap-kernel rows: u1, u3, the gaps d1, d3 over (row, a, b)
    and the conjugated middle band placed in a 3B buffer by the row's slack."""
    u1, u3 = per_row_u(B, t, v1, n1), per_row_u(B, t, v3, n3)
    g2 = np.conj(per_row_u(B, t, v2, n2)[:, ::-1])
    a_min_b = (np.arange(B)[:, None] - np.arange(B)[None, :]) / B  # (a, b)
    d1 = (n - n1)[:, None, None] + a_min_b[None]  # (t, a, b)
    d3 = (n - n3)[:, None, None] + a_min_b[None]
    padded = np.zeros((len(n), 3 * B), dtype=np.complex128)
    cols = (1 - n + (n1 - n2 + n3))[:, None] * B + np.arange(B)
    np.put_along_axis(padded, cols, g2, axis=1)
    return u1, u3, d1, d3, padded


def rowwise_q1_tilde_rows(grid, t, v1, v2, v3, n, n1, n2, n3, chunk=512):
    """The gap kernel with X = u1/d1 and Y = u3/d3 formed and transformed row
    by row (the Toeplitz-factored form before per-pair transforms)."""
    B = grid.bins_per_box
    out = np.zeros((len(n), B), dtype=np.complex128)
    gidx = 2 * B - 1 + np.arange(B)[:, None] - np.arange(2 * B - 1)[None, :]  # (a, m)
    for lo in range(0, len(n), chunk):
        sl = slice(lo, lo + chunk)
        u1, u3, d1, d3, padded = _gap_chunk(B, t, *(x[sl] for x in (v1, v2, v3, n, n1, n2, n3)))
        conv = np.fft.ifft(
            np.fft.fft(u1[:, None, :] / d1, 2 * B) * np.fft.fft(u3[:, None, :] / d3, 2 * B)
        )[..., : 2 * B - 1]
        out[sl] = np.einsum("tam,tam->ta", conv, padded[:, gidx])
    return per_row_u(B, -t, out, n) / (2.0 * np.pi * B * B)


def gather_q1_tilde_rows(grid, t, v1, v2, v3, n, n1, n2, n3, chunk=512):
    """The gap kernel as the (b, c) double sum over a (chunk, B, B, B) gather
    of the middle band (reference for the convolution form)."""
    B = grid.bins_per_box
    out = np.zeros((len(n), B), dtype=np.complex128)
    gidx = (
        2 * B - 1
        + np.arange(B)[:, None, None]
        - np.arange(B)[None, :, None]
        - np.arange(B)[None, None, :]
    )  # (a, b, c) into a 3B buffer
    for lo in range(0, len(n), chunk):
        sl = slice(lo, lo + chunk)
        u1, u3, d1, d3, padded = _gap_chunk(B, t, *(x[sl] for x in (v1, v2, v3, n, n1, n2, n3)))
        out[sl] = np.einsum(
            "tb,tc,tabc,tab,tac->ta", u1, u3, padded[:, gidx], 1.0 / d1, 1.0 / d3, optimize=True
        )
    return per_row_u(B, -t, out, n) / (2.0 * np.pi * B * B)


def scatter(grid, n, bands, w=None):
    out = np.zeros((2 * grid.n_max, grid.bins_per_box), dtype=complex)
    np.add.at(out, n + grid.n_max, bands if w is None else bands * w[:, None])
    return out


def bucket_inserts(buckets, sign, boxes, mu_prev, mu_first, J, which):
    """Insert rows read off the per-row bands of the inner phase buckets: the
    box's whole run for which = "all", else the level-J low set or its
    complement."""
    if which == "all":
        return buckets.sum(boxes)
    return _coupled_insert_rows(buckets, sign, boxes, mu_prev, mu_first, J, which)


def bucket_boxes(buckets):
    """The boxes with at least one row in the buckets' phase table."""
    tab = buckets.table
    return set(tab.parents[tab.stop > tab.start].tolist())


def per_slot_n21(v, t, N, window):
    g = v.grid
    alive = np.any(v.data != 0, axis=1)
    n, n1, n2, n3 = _triple_table(g.n_max, window, N, "A_N_complement")
    keep = alive[n1 + g.n_max] & alive[n2 + g.n_max] & alive[n3 + g.n_max]  # live rows
    n, n1, n2, n3 = (a[keep] for a in (n, n1, n2, n3))
    bands = rowwise_q1_tilde_rows(
        g, t, *(v.data[b + g.n_max] for b in (n1, n2, n3)), n, n1, n2, n3
    )
    return scatter(g, n, bands)


def per_slot_inserts(v, t, N, window, resonant=False, which=None):
    """sum over the high-phase set and the three slots of
    fsgn(slot) * q1_tilde(... insert at slot ...), one gap-kernel run per slot
    over the rows whose other two slots are live."""
    g = v.grid
    n, n1, n2, n3 = _triple_table(g.n_max, window, N, "A_N_complement")
    alive = np.any(v.data != 0, axis=1)
    res = apply_resonant(v, t, window).data if resonant else None
    buckets = _InnerBuckets(_Node(v, t, window)) if which is not None else None
    total = np.zeros_like(v.data)
    for slot, (a, b) in enumerate(((n2, n3), (n1, n3), (n1, n2))):
        keep = alive[a + g.n_max] & alive[b + g.n_max]
        nk, n1k, n2k, n3k = (x[keep] for x in (n, n1, n2, n3))
        boxes = (n1k, n2k, n3k)[slot]
        rows = np.zeros((len(nk), g.bins_per_box), dtype=complex)
        if resonant:
            rows += res[boxes + g.n_max]
        if which is not None:
            mu1 = phase_value(nk, n1k, n2k, n3k, QUARTIC)
            sign = (+1, -1, +1)[slot]
            rows += bucket_inserts(buckets, sign, boxes, mu1, mu1, 1, which)
        stacks = [v.data[x + g.n_max] for x in (n1k, n2k, n3k)]
        stacks[slot] = rows
        bands = rowwise_q1_tilde_rows(g, t, *stacks, nk, n1k, n2k, n3k)
        total += (+1, -1, +1)[slot] * scatter(g, nk, bands)
    return total


def ifft_pick_generation_one(state, t, N, window, resonant=False, which=None, table=None):
    """The gap pass row by row, with per-row inserts: every (row, slot) pair
    searches its insert and transforms it, and two inverse FFTs per chunk
    with a pick of the valid terms replace the contraction table (test
    oracle).  ``table`` replaces A_N^c of the window, as a patched
    ``normal_form._gap_table`` does in the gap pass."""
    g = state.grid
    B = g.bins_per_box
    node = _Node(state, t, window)
    w = node.window
    gt = _gap_table(g, w, N) if table is None else _gap_index(g, table)
    n, n1, n2, n3 = gt.rows
    slack = n - (n1 - n2 + n3) + 1
    mu1 = phase_value(n, n1, n2, n3, QUARTIC)
    sel = np.flatnonzero(node.live(n1, n2, n3) >= 2)
    # cidx[s, a, j]: flat index a * 2B + m of the term m = sB - 1 + a - j in a
    # row's (B, 2B) block, or of the zeroed wrap-around term 2B - 1
    a, j = np.arange(B)[:, None], np.arange(B)[None, :]
    m = np.arange(3)[:, None, None] * B - 1 + a - j
    cidx = 2 * B * a + np.where((m >= 0) & (m <= 2 * B - 2), m, 2 * B - 1)
    bnd, ins = np.zeros_like(state.data), np.zeros_like(state.data)
    res = apply_resonant(state, t, w).data if resonant else None
    buckets = _InnerBuckets(node) if which is not None else None

    def inserted(boxes, sign, mu):
        rows = boxes + g.n_max
        bands = res[rows] if resonant else 0.0
        if which is not None:
            bands = bands + bucket_inserts(buckets, sign, boxes, mu, mu, 1, which)
        return bands * node.phase[rows]

    F = np.fft.fft(node.u[gt.pair_box][:, None, :] * gt.inv_gaps[gt.pair_gap], 2 * B)
    for lo in range(0, len(sel), 128):
        r = sel[lo : lo + 128]
        fx, fy = F[gt.pair1[r]], F[gt.pair3[r]]
        pick = cidx[slack[r]] + 2 * B * B * np.arange(len(r))[:, None, None]
        g2 = node.g[n2[r] + g.n_max, :, None]
        xy = np.fft.ifft(fx * fy)
        xy[..., -1] = 0.0
        xy = xy.reshape(-1)[pick]
        bnd += scatter(g, n[r], node.out((xy @ g2)[..., 0], n[r]))
        x1, x3 = np.split(inserted(np.append(n1[r], n3[r]), +1, np.tile(mu1[r], 2)), 2)
        x2 = inserted(n2[r], -1, mu1[r])
        fx1 = np.fft.fft(x1[:, None, :] * gt.inv_gaps[gt.pair_gap[gt.pair1[r]]], 2 * B)
        fy3 = np.fft.fft(x3[:, None, :] * gt.inv_gaps[gt.pair_gap[gt.pair3[r]]], 2 * B)
        outer = np.fft.ifft(fx1 * fy + fx * fy3)
        outer[..., -1] = 0.0
        band = outer.reshape(-1)[pick] @ g2 - xy @ np.conj(x2[:, ::-1, None])
        ins += scatter(g, n[r], node.out(band[..., 0], n[r]))
    return bnd, ins


def per_row_sum_q1_over(node, table):
    """The q1 table sum with one inverse FFT and pick per row (test oracle);
    a fifth column of ``table`` weights the rows."""
    keep = node.live(*table[1:4]) == 3
    n, n1, n2, n3, *w = (a[keep] for a in table)
    return scatter(node.grid, n, _q1_rows(node, n, n1, n2, n3), *w)


def per_triple_gap_sum(v, N, t, window, insert=None):
    """The q1_tilde sum over A_N^c one triple at a time; with ``insert``, the
    sum over the three slots of fsgn(slot) * q1_tilde with the slot's band
    replaced by insert(box, mu1, fsgn(slot))."""
    g = v.grid
    want = np.zeros_like(v.data)
    for n in range(-3 * window - 1, 3 * window + 2):
        if abs(n) >= g.n_max:
            continue
        for tr in enumerate_triples(n, window, N, "A_N_complement"):
            bands = [v.band(tr.n1), v.band(tr.n2), v.band(tr.n3)]
            if insert is None:
                want[n + g.n_max] += q1_tilde(n, *bands, t).coeffs
                continue
            for slot, sign in ((0, +1), (1, -1), (2, +1)):
                m = (tr.n1, tr.n2, tr.n3)[slot]
                ins = insert(m, phase_value(*tr), sign)
                slots = list(bands)
                slots[slot] = BandCoefficients(
                    box_index=m, grid=g, coeffs=ins, start_bin=m * g.bins_per_box
                )
                want[n + g.n_max] += sign * q1_tilde(n, *slots, t).coeffs
    return want


def slow_n3_oracle(v, N, t, window, keep):
    """Direct double loop over outer complement triples and inner triples.

    keep(mu1, mu2_signed) decides membership of the joint phase set.
    """

    def inner_band(m, mu1, sign):
        acc = np.zeros(v.grid.bins_per_box, dtype=complex)
        for itr in enumerate_triples(m, window, math.inf, "A_N"):
            if keep(mu1, sign * phase_value(*itr)):
                acc += q1(m, v.band(itr.n1), v.band(itr.n2), v.band(itr.n3), t).coeffs
        return acc

    return per_triple_gap_sum(v, N, t, window, inner_band)


def per_assignment_tree_level_sum(state, J, N, t, window, mode, allowed_all=None):
    g = state.grid
    w = _Node(state, t, window).window
    out = BoxedState.zero(g, t)
    if not _chain_possible(J, N, w):
        return out
    boxes_axis = np.arange(-g.n_max, g.n_max)
    active = {int(b) for b in boxes_axis[state.box_norms() > 0]}
    if not active:
        return out
    if mode == "nr":
        insert_state = apply_resonant(state, t, w)
        insert_boxes = {int(b) for b in boxes_axis[insert_state.box_norms() > 0]}
    elif mode in ("n1", "rem"):
        buckets = _InnerBuckets(_Node(state, t, w))
        insert_boxes = bucket_boxes(buckets)
    internal_allowed = set(allowed_all) if allowed_all is not None else None
    if allowed_all is not None:
        active &= set(allowed_all)
        if mode != "n0":
            insert_boxes &= set(allowed_all)
    data = np.zeros_like(state.data)
    out_lim = min(3 * w + 1, g.n_max - 1)
    count = 0
    for tree in enumerate_trees(J):
        signs = compute_signs(tree)
        tsign = _tree_sign(tree, signs)
        leaf_ids = tree.terminal_ids()
        flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
        base_plan = {a: internal_allowed for a in tree.chronicle[1:]}
        base_plan.update({b: active for b in leaf_ids})
        if mode == "n0":
            plans = [(None, base_plan)]
        else:
            plans = []
            for li, leaf in enumerate(leaf_ids):
                p = dict(base_plan)
                p[leaf] = insert_boxes
                plans.append((li, p))
        for n_root in range(-out_lim, out_lim + 1):
            for li, plan in plans:
                assigns = enumerate_index_functions(
                    tree, n_root, w, N, allowed_boxes=plan,
                    max_count=normal_form.ASSIGNMENT_GUARD,
                )
                count += len(assigns)
                if count > normal_form.ASSIGNMENT_GUARD:
                    raise ResourceGuardError("tree-level operator sum exceeded the assignment guard")
                if li is None:
                    for assign in assigns:
                        base = [state.band(assign.freq[b]) for b in leaf_ids]
                        band = q_tree(tree, assign, BandTuple(tuple(base), flags), t)
                        data[n_root + g.n_max] += tsign * band.coeffs
                    continue
                leaf = leaf_ids[li]
                boxes = np.array([a.freq[leaf] for a in assigns], dtype=np.int64)
                if mode == "nr":
                    inserts = insert_state.data[boxes + g.n_max]
                else:
                    inserts = bucket_inserts(
                        buckets, signs.fsgn[leaf], boxes,
                        np.array([float(a.phases.mu_tilde[-1]) for a in assigns]),
                        np.array([float(a.phases.mu[0]) for a in assigns]),
                        J, "all" if mode == "rem" else "low",
                    )
                for assign, ins in zip(assigns, inserts):
                    if not np.any(ins):
                        continue
                    box = assign.freq[leaf]
                    bands = [state.band(assign.freq[b]) for b in leaf_ids]
                    bands[li] = BandCoefficients(
                        box_index=box, grid=g, coeffs=ins, start_bin=box * g.bins_per_box
                    )
                    band = q_tree(tree, assign, BandTuple(tuple(bands), flags), t)
                    data[n_root + g.n_max] += tsign * signs.fsgn[leaf] * band.coeffs
    return BoxedState(g, data, t)


# ---------------------------------------------------------------------------
# harness: the split-step oracle


def shifted_split_step_solve(u0, dt, steps, sign=+1):
    """Strang split-step on ascending-order coefficients: both kinetic
    half-steps at every step, the sample scale applied and removed around
    each nonlinear rotation, the drift checked after the trailing half."""
    g = u0.grid
    record_every = max(1, steps // 16)
    half = np.exp(1j * (dt / 2.0) * (np.arange(g.M) - g.M // 2) ** 2 / g.bins_per_box**2)
    coeffs = forward(u0).coeffs.copy()
    norm0 = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    times = [0.0]
    states = [BoxedState.from_spectrum(Spectrum(grid=g, coeffs=coeffs), 0.0)]
    samples_scale = g.M / (np.sqrt(2.0 * np.pi) * g.bins_per_box)
    for step in range(1, steps + 1):
        coeffs = coeffs * half
        u = np.fft.ifft(np.fft.ifftshift(coeffs)) * samples_scale
        u = u * np.exp(1j * sign * dt * np.abs(u) ** 2)
        coeffs = np.fft.fftshift(np.fft.fft(u)) / samples_scale
        coeffs = coeffs * half
        drift = abs(float(np.sqrt(np.sum(np.abs(coeffs) ** 2))) - norm0) / max(norm0, 1e-300)
        if drift > 1e-4:
            raise NumericalFailureError(f"L2 drift {drift:g} at step {step}")
        if step % record_every == 0 or step == steps:
            times.append(step * dt)
            states.append(BoxedState.from_spectrum(Spectrum(grid=g, coeffs=coeffs), step * dt))
    return Trajectory(times=np.array(times), states=tuple(states))
