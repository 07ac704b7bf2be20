"""Reference forms for the tests: one per operator family, each written on
the package's public names only and computing by another method what the
package computes.  The package imports nothing from here.

* triple sets: ``cube_expand_triples``, the slack shell over the whole
  (parent, n1, n2, slack) cube, masked by the set predicates of ``in_set``;
  ``brute_triples`` (one box) and ``triple_table`` (all output boxes) read it.
* index functions: ``reference_frontier``, every candidate child of every
  row taken from the cube and masked; ``reference_index_functions`` and
  ``sampler_valid_assignments`` read it.
* q1 table sums: ``q1_table_sum``, q1 per row with the three band
  transforms taken row by row (``per_row_q1_rows``).
* the gap pass: ``gap_pass_reference``, the gap kernel over A_N^c with the
  X = u1/d1 and Y = u3/d3 factors transformed row by row
  (``rowwise_q1_tilde_rows``), one run per inserted slot; ``q1_tilde`` is one
  row of it.  The non-resonant inserts are the phase-sorted per-box inner
  sums of ``InnerSums``.
* tree-level sums: ``tree_level_reference``, one ``q_tree`` call per index
  function of the reference frontier, with the inserts of ``InnerSums``;
  ``q_tree`` itself is pinned to ``mesh_q_tree``, the full leaf-bin mesh.
* ``boxed_cubic`` (and ``q1``): the physical-space product on a 4x padded
  grid (``padded_boxed_cubic``, ``physical_q1_oracle``).
* the split-step: ``shifted_split_step_solve``.

A new kernel is pinned to the reference of its family, not to the kernel it
replaces.
"""

import math

import numpy as np

from nfnls.errors import DomainError, NumericalFailureError, PreconditionError, ResourceGuardError
from nfnls.grids import Field, Spectrum, forward, free_propagate, inverse, make_grid
from nfnls.modulation import BandCoefficients, reconstruct
from nfnls.multilinear import BandTuple, q_tree
from nfnls.normal_form import BoxedState, Trajectory
from nfnls.resonance import PRODUCT, QUARTIC, FrequencyTriple, c_set_radius, phase_value
from nfnls.trees import IndexAssignment, PhaseRecord, compute_signs, enumerate_trees

# cells of the cube expansion per block of parents
CUBE_BLOCK = 1 << 20
# rows per batch of the row kernels
ROWS = 4096


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
    """expand_triples over the full (parent, c1, c2, slack) cube: c3 = c2 - c1
    + parent + slack, kept inside the window and its set; lexicographic in
    (row, c1, c2, c3)."""
    parents = np.asarray(parents, dtype=np.int64).reshape(-1)
    full = np.arange(-window, window + 1, dtype=np.int64)
    ok1, ok2, ok3 = (np.ones(len(full), bool) if s is None else np.isin(full, list(s)) for s in child_sets)
    s1, s2 = full[ok1], full[ok2]
    # c3 ascends with the slack, the last axis
    lift = (s2[:, None] + np.array([-1, 0, 1]))[None] - s1[:, None, None]
    step = max(1, CUBE_BLOCK // max(1, lift.size))
    cols = [tuple(np.zeros(0, dtype=np.int64) for _ in range(4))]
    for lo in range(0, len(parents), step):
        c3 = lift[None] + parents[lo : lo + step, None, None, None]
        hit = (np.abs(c3) <= window) & ok3[np.clip(c3 + window, 0, 2 * window)]
        r, i1, i2, _ = np.nonzero(hit)
        cols.append((r + lo, s1[i1], s2[i2], c3[hit]))
    return tuple(np.concatenate(c) for c in zip(*cols))


def in_set(n, n1, n2, n3, mode, N, convention=QUARTIC):
    """Membership of triple columns in a frequency set: R1 has both gaps n - n1
    and n - n3 within 1, R2 either; A_N neither and |phase| <= N, A_N^c
    neither and |phase| > N."""
    near1, near3 = np.abs(n1 - n) <= 1, np.abs(n3 - n) <= 1
    if mode == "resonant_R1":
        return near1 & near3
    if mode == "resonant_R2":
        return near1 | near3
    inside = np.abs(phase_value(n, n1, n2, n3, convention)) <= N
    return ~near1 & ~near3 & (inside == (mode == "A_N"))


def brute_triples(n, window, N, mode, convention=QUARTIC):
    """The triples of box n in the set ``mode``, lexicographic."""
    _, n1, n2, n3 = cube_expand_triples([n], window)
    keep = in_set(n, n1, n2, n3, mode, N, convention)
    return [FrequencyTriple(n, *row) for row in zip(n1[keep].tolist(), n2[keep].tolist(), n3[keep].tolist())]


def triple_table(n_max, window, N, mode, convention=QUARTIC):
    """The rows (n, n1, n2, n3) of the set ``mode`` over the output boxes
    |n| <= min(3 * window + 1, n_max - 1), lexicographic."""
    lim = min(3 * window + 1, n_max - 1)
    boxes = np.arange(-lim, lim + 1, dtype=np.int64)
    rows, n1, n2, n3 = cube_expand_triples(boxes, window)
    n = boxes[rows]
    keep = in_set(n, n1, n2, n3, mode, N, convention)
    return n[keep], n1[keep], n2[keep], n3[keep]


# ---------------------------------------------------------------------------
# trees: index functions and the sampler's valid set


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


def reference_frontier(tree, roots, window, N, node_set, max_count, cJ_filter="C_complement_chain"):
    """Every index function of every root as (freq, mu, mu_product) rows: each
    generation masks every candidate child of every row (``cube_expand_triples``)
    by non-resonance, |mu_1| > N at the root and the complement chain after it;
    cJ_filter = "none" drops the chain.  ``node_set(c)`` is node c's box set
    (None: the full window)."""
    signs = compute_signs(tree)
    freq = np.zeros((len(roots), tree.size()), dtype=np.int64)
    freq[:, 0] = roots
    mu = mu_p = np.zeros((len(roots), 0), dtype=np.int64)
    for j, a in enumerate(tree.chronicle):
        kids = list(tree.nodes[a].children)
        rows, c1, c2, c3 = cube_expand_triples(freq[:, a], window, [node_set(c) for c in kids])
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


def reference_index_functions(tree, n_root, window, N, allowed_boxes=None, cJ_filter="C_complement_chain"):
    """enumerate_index_functions read off the reference frontier of one root."""
    freq, mu, mu_p = reference_frontier(
        tree, [n_root], window, N, dict(allowed_boxes or {}).get, math.inf, cJ_filter
    )
    return [
        IndexAssignment(tree=tree, freq=tuple(f), phases=PhaseRecord(tuple(m), tuple(p)))
        for f, m, p in zip(freq.tolist(), mu.tolist(), mu_p.tolist())
    ]


def sampler_valid_assignments(tree, n_root, window, N, min_denominator, comparability):
    """{freq: PhaseRecord} of every assignment sample_index_functions accepts:
    the unfiltered reference frontier, kept where every generation's product
    prefix clears max(min_denominator, comparability * prefix) by its slop."""
    freq, mu, mu_p = reference_frontier(tree, [n_root], window, N, lambda c: None, math.inf, "none")
    kids = np.array([tree.nodes[a].children for a in tree.chronicle])
    fa = freq[:, list(tree.chronicle)]
    slop = np.cumsum(2 * (np.abs(fa - freq[:, kids[:, 0]]) + np.abs(fa - freq[:, kids[:, 2]]) + 1), axis=1)
    pref = np.abs(np.cumsum(mu_p, axis=1)) / 2.0
    ok = np.all(pref - slop / 2.0 >= np.maximum(min_denominator, comparability * pref), axis=1)
    return {
        tuple(f): PhaseRecord(tuple(m), tuple(p))
        for f, m, p in zip(freq[ok].tolist(), mu[ok].tolist(), mu_p[ok].tolist())
    }


# ---------------------------------------------------------------------------
# grids and multilinear: the Gaussian's transform, unit probe bands, the
# physical-space products, the tree operator on the full mesh and its
# certification, the gap-kernel constant sweep


def gaussian_unitary_transform(xi):
    # closed form of the unitary transform of exp(-x^2)
    return np.exp(-(xi**2) / 4.0) / np.sqrt(2.0)


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


def physical_product(grid, t, c1, c2, c3):
    """(pad, coefficients) of S(t)[S(-t)u1 * conj(S(-t)u2) * S(-t)u3] on a 4x
    padded grid, from three coefficient arrays of ``grid`` in ascending order,
    the free flows taken over all padded bins."""
    pad = make_grid(grid.bins_per_box, 4 * grid.n_max)
    shift = (pad.M - grid.M) // 2
    u = []
    for c in (c1, c2, c3):
        full = np.zeros(pad.M, dtype=complex)
        full[shift : shift + grid.M] = c
        u.append(inverse(free_propagate(Spectrum(grid=pad, coeffs=full), t, direction=-1)).samples)
    F = free_propagate(forward(Field(grid=pad, samples=u[0] * np.conj(u[1]) * u[2])), t, direction=+1)
    return pad, F.coeffs


def physical_q1_oracle(n, b1, b2, b3, t, grid):
    """box_n(S(t)[S(-t)b1 * conj(S(-t)b2) * S(-t)b3]) on a 4x padded grid."""
    pad, F = physical_product(grid, t, *(reconstruct(b).coeffs for b in (b1, b2, b3)))
    return F[pad.box_slice(n)]


def padded_boxed_cubic(state, t=None):
    """box_n(S(t)[|S(-t)v|^2 S(-t)v]) on a 4x padded grid."""
    g = state.grid
    t = state.time if t is None else t
    c = state.data.reshape(-1)
    pad, F = physical_product(g, t, c, c, c)
    shift = (pad.M - g.M) // 2
    return BoxedState(g, F[shift : shift + g.M].reshape(2 * g.n_max, g.bins_per_box), t)


def mesh_q_tree(tree, assign, leaves, t, min_denominator=0.5):
    """q_tree on the full B^(2J+1) leaf-bin mesh, masked node by node."""
    grid = leaves.bands[0].grid
    B = grid.bins_per_box
    leaf_ids = tree.terminal_ids()
    L = len(leaf_ids)
    signs = compute_signs(tree)
    K = {}
    values = None
    for i, b in enumerate(leaf_ids):
        band = leaves.bands[i]
        assert band.grid == grid and band.box_index == assign.freq[b]
        shape = [1] * L
        shape[i] = B
        K[b] = (band.start_bin + np.arange(B)).reshape(shape)
        xi = band.frequencies()
        ub = band.coeffs * np.exp(1j * t * xi * xi)
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


def loop_certify_tree_bound(tree, assign, trials, grid, rng):
    """certify_tree_bound one draw at a time, at t = 0: ||mesh_q_tree|| * den
    of every draw, the coherent one first, then the random ones."""
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    den = 1.0
    for mt in np.cumsum(np.asarray(assign.phases.mu_product) / 2.0):
        den *= abs(mt)
    flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
    values = []
    for kind in ["coherent"] + ["random"] * trials:
        if kind == "coherent":
            bands = [coherent_band(grid, assign.freq[b]) for b in leaf_ids]
        else:
            bands = [random_band(grid, assign.freq[b], rng) for b in leaf_ids]
        out = mesh_q_tree(tree, assign, BandTuple(tuple(bands), flags), 0.0)
        values.append(float(np.sqrt(np.sum(np.abs(out) ** 2) / grid.bins_per_box)) * den)
    return np.array(values)


def q1_tilde(n, b1, b2, b3, t):
    """The gap kernel on one non-resonant tuple: one row of
    ``rowwise_q1_tilde_rows``, zero off the slack shell."""
    g = b1.grid
    n1, n2, n3 = b1.box_index, b2.box_index, b3.box_index
    if abs(n - n1) <= 1 or abs(n - n3) <= 1:
        raise PreconditionError(
            f"resonant tuple (n={n}, n1={n1}, n3={n3}): kernel would be singular"
        )
    coeffs = np.zeros(g.bins_per_box, dtype=np.complex128)
    if abs(n1 - n2 + n3 - n) <= 1:
        rows = (np.array([x]) for x in (n, n1, n2, n3))
        coeffs = rowwise_q1_tilde_rows(g, t, *(b.coeffs[None] for b in (b1, b2, b3)), *rows)[0]
    return BandCoefficients(box_index=n, grid=g, coeffs=coeffs, start_bin=n * g.bins_per_box)


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


# ---------------------------------------------------------------------------
# normal_form: the q1 table sums, the gap pass and the tree-level sums


def per_row_u(B, t, v, n):
    """Bands v at boxes n times exp(i t xi^2), one exp per row."""
    xi = (n[:, None] * B + np.arange(B)) / B
    return v * np.exp(1j * t * xi * xi)


def per_row_q1_rows(grid, t, v1, v2, v3, n, n1, n2, n3):
    """q1 per row, the three band transforms taken row by row."""
    B = grid.bins_per_box
    u1 = per_row_u(B, t, v1, n1)
    u3 = per_row_u(B, t, v3, n3)
    g2 = np.conj(per_row_u(B, t, v2, n2)[:, ::-1])
    L = 4 * B
    conv = np.fft.ifft(
        np.fft.fft(u1, L, axis=1) * np.fft.fft(g2, L, axis=1) * np.fft.fft(u3, L, axis=1),
        axis=1,
    )
    d = n - (n1 - n2 + n3)
    idx = (d[:, None] + 1) * B - 1 + np.arange(B)
    out = np.take_along_axis(conv, idx, axis=1)
    return per_row_u(B, -t, out, n) / (2.0 * np.pi * B * B)


def scatter(grid, n, bands):
    out = np.zeros((2 * grid.n_max, grid.bins_per_box), dtype=complex)
    np.add.at(out, n + grid.n_max, bands)
    return out


def q1_table_sum(state, t, table):
    """q1 summed over the rows (n, n1, n2, n3) of ``table`` whose three bands
    are live, per output box."""
    g = state.grid
    alive = np.any(state.data != 0, axis=1)
    keep = alive[table[1] + g.n_max] & alive[table[2] + g.n_max] & alive[table[3] + g.n_max]
    n, n1, n2, n3 = (c[keep] for c in table)
    out = np.zeros_like(state.data)
    for lo in range(0, len(n), ROWS):
        rows = [c[lo : lo + ROWS] for c in (n, n1, n2, n3)]
        bands = per_row_q1_rows(g, t, *(state.data[b + g.n_max] for b in rows[1:]), *rows)
        out += scatter(g, rows[0], bands)
    return out


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
    """The gap kernel per row: X = u1/d1 and Y = u3/d3 transformed row by row,
    their linear convolution picked at the valid terms against the middle band."""
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


class InnerSums:
    """The non-resonant inserts: per output box m, the q1 bands of its
    triples (A_N at N = inf) with three live bands, sorted by phase, as
    prefix sums.  ``rows`` maps each box with such a triple to (phases,
    prefix sums)."""

    def __init__(self, state, t, window):
        g = state.grid
        n, n1, n2, n3 = triple_table(g.n_max, window, math.inf, "A_N")
        alive = np.any(state.data != 0, axis=1)
        keep = alive[n1 + g.n_max] & alive[n2 + g.n_max] & alive[n3 + g.n_max]
        n, n1, n2, n3 = (c[keep] for c in (n, n1, n2, n3))
        bands = per_row_q1_rows(g, t, *(state.data[b + g.n_max] for b in (n1, n2, n3)), n, n1, n2, n3)
        mu = phase_value(n, n1, n2, n3)
        self.B = g.bins_per_box
        self.rows = {}
        for m in np.unique(n).tolist():
            r = np.flatnonzero(n == m)
            order = np.argsort(mu[r], kind="stable")
            prefix = np.zeros((len(r) + 1, self.B), dtype=complex)
            np.cumsum(bands[r[order]], axis=0, out=prefix[1:])
            self.rows[m] = (mu[r[order]], prefix)

    def sum(self, boxes, lo=-np.inf, hi=np.inf):
        """(T, B): the bands of box boxes[k] with lo[k] <= phase <= hi[k]."""
        boxes = np.asarray(boxes)
        lo, hi = np.broadcast_to(lo, boxes.shape), np.broadcast_to(hi, boxes.shape)
        out = np.zeros((len(boxes), self.B), dtype=complex)
        for m in set(np.unique(boxes).tolist()) & set(self.rows):
            mu, prefix = self.rows[m]
            k = boxes == m
            out[k] = prefix[np.searchsorted(mu, hi[k], "right")] - prefix[np.searchsorted(mu, lo[k], "left")]
        return out

    def insert(self, which, boxes, sign=1, mu_prev=None, mu_first=None, J=1):
        """(T, B) insert rows: the whole inner sum of each box ("all"), its
        phases mu in the level-J low set |mu_prev + sign * mu| <=
        c_set_radius(J, mu_prev, mu_first) ("low"), or the rest ("high")."""
        total = self.sum(boxes)
        if which == "all":
            return total
        radius = c_set_radius(J, mu_prev, mu_first)
        center = -sign * np.asarray(mu_prev, dtype=float)
        low = self.sum(boxes, center - radius, center + radius)
        return low if which == "low" else total - low


def resonant_reference(state, t, window):
    """(R2 - R1)(v): q1 summed once over the resonant set R2."""
    return q1_table_sum(state, t, triple_table(state.grid.n_max, window, None, "resonant_R2"))


def gap_pass_reference(state, t, N, window, insert=None, convention=QUARTIC):
    """The gap kernel summed over A_N^c.  Without ``insert`` the boundary N21;
    with it, the sum over the three slots of fsgn(slot) times the kernel with
    the slot's band replaced by insert(boxes, mu1, fsgn(slot)), mu1 the rows'
    quartic phases.  Rows with a dead band are skipped."""
    g = state.grid
    alive = np.any(state.data != 0, axis=1)
    table = triple_table(g.n_max, window, N, "A_N_complement", convention)
    total = np.zeros_like(state.data)
    for slot, sign in [(None, 1)] if insert is None else [(0, 1), (1, -1), (2, 1)]:
        keep = np.all([alive[b + g.n_max] for k, b in enumerate(table[1:]) if k != slot], axis=0)
        n, n1, n2, n3 = (c[keep] for c in table)
        stacks = [state.data[b + g.n_max] for b in (n1, n2, n3)]
        if slot is not None:
            stacks[slot] = insert((n1, n2, n3)[slot], phase_value(n, n1, n2, n3), sign)
        total += sign * scatter(g, n, rowwise_q1_tilde_rows(g, t, *stacks, n, n1, n2, n3))
    return total


def tree_level_reference(state, J, N, t, window, mode, allowed_all=None):
    """The level-(J+1) tree sum, one q_tree call per index function of the
    reference frontier over every output box, each signed by the fsgn of the
    expanded nodes after the root.  mode "n0" is the boundary; otherwise one
    leaf carries the insert, times its fsgn: "nr" (R2 - R1)(v), "rem" the
    full inner sum, "n1" its level-J low set.
    ``allowed_all`` restricts every node to a box set."""
    g = state.grid
    boxes = np.arange(-g.n_max, g.n_max)
    active = set(boxes[state.box_norms() > 0].tolist())
    if mode == "nr":
        res = resonant_reference(state, t, window)
        insert_boxes = set(boxes[np.any(res != 0, axis=1)].tolist())
    elif mode != "n0":
        inner = InnerSums(state, t, window)
        insert_boxes = set(inner.rows)
    if allowed_all is not None:
        active &= set(allowed_all)
        if mode != "n0":
            insert_boxes &= set(allowed_all)
    lim = min(3 * window + 1, g.n_max - 1)
    data = np.zeros_like(state.data)
    for tree in enumerate_trees(J):
        signs = compute_signs(tree)
        leaf_ids = tree.terminal_ids()
        flags = tuple(signs.fsgn[b] == -1 for b in leaf_ids)
        tsign = math.prod(signs.fsgn[a] for a in tree.chronicle[1:])
        for li in [None] if mode == "n0" else range(len(leaf_ids)):
            sets = {a: allowed_all for a in tree.chronicle[1:]}
            sets.update({b: active for b in leaf_ids})
            if li is not None:
                sets[leaf_ids[li]] = insert_boxes
            freq, mu, mu_p = reference_frontier(tree, range(-lim, lim + 1), window, N, sets.get, math.inf)
            sign = tsign
            if li is not None:
                leaf = leaf_ids[li]
                sign *= signs.fsgn[leaf]
                if mode == "nr":
                    inserts = res[freq[:, leaf] + g.n_max]
                else:
                    which = {"rem": "all", "n1": "low"}[mode]
                    prev, first = mu.sum(axis=1), mu[:, 0]
                    inserts = inner.insert(which, freq[:, leaf], signs.fsgn[leaf], prev, first, J)
            for r, (f, m, mp) in enumerate(zip(freq.tolist(), mu.tolist(), mu_p.tolist())):
                bands = [state.band(f[b]) for b in leaf_ids]
                if li is not None:
                    if not np.any(inserts[r]):
                        continue
                    box = f[leaf_ids[li]]
                    bands[li] = BandCoefficients(
                        box_index=box, grid=g, coeffs=inserts[r], start_bin=box * g.bins_per_box
                    )
                assign = IndexAssignment(tree=tree, freq=tuple(f), phases=PhaseRecord(tuple(m), tuple(mp)))
                data[f[0] + g.n_max] += sign * q_tree(tree, assign, BandTuple(tuple(bands), flags), t).coeffs
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
