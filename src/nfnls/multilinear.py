"""Trilinear and tree-indexed multilinear operators on frequency bands.

All operators act on bands stored in the interaction picture (the v-picture,
where the free flow has been peeled off); conversion to the u-picture happens
at the operator boundary via the bin phases exp(+i*t*xi^2).

Band products are *linear* convolutions of coefficient blocks on the bin
lattice with quadrature weight 1/(2*pi*B^2) per trilinear product (the 2*pi
comes from the unitary transform normalization, one 1/B per integrated
frequency variable).  Because blocks convolve linearly there is no circular
aliasing; the padded-FFT physical product is the independent oracle, tested
equal.

* ``q1``       — box-projected product of the three propagated bands:
                 out = box_n( S(t)[ S(-t)b1 * conj(S(-t)b2) * S(-t)b3 ] ).
* ``q1_tilde`` — same numerator with kernel 1/((xi-xi1)*(xi-xi3)); requires
                 the non-resonant gaps |n-n1| > 1, |n-n3| > 1 so the
                 denominator stays >= 1 in modulus on the whole cell.  On
                 frozen band inputs d/dt q1_tilde = -2i * q1 exactly (the
                 differentiation-by-parts constant).
* ``q_tree``   — the generation-J operator: an explicit sum over all leaf
                 frequency-bin tuples, sharp windows at every internal node
                 evaluated on the upward-propagated natural frequencies,
                 conjugation per fsgn, and kernel 1/prod_j m~_j with m~_j the
                 chronicle prefix sums of the signed continuous half-phases
                 m_j = fsgn(a_j)*(xi_a - xi_a1)*(xi_a - xi_a3).  For J=1 this
                 reduces to q1_tilde bin by bin.

Kernel-exact evaluation is guarded: J <= 3 and B^(2J+1) within a flat budget
(the harness uses small B for J=3 cells).  The sums are deterministic (fixed
traversal and reduction order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    PreconditionError,
    ResourceGuardError,
)
from .grids import Grid
from .modulation import BandCoefficients
from .trees import IndexAssignment, OrderedTree, SignTable, compute_signs

__all__ = [
    "BandTuple",
    "SymbolEvaluation",
    "q1",
    "q1_tilde",
    "q_tree",
    "rho_symbol",
    "certify_tree_bound",
    "unit_band",
    "coherent_band",
    "random_band",
]

TREE_KERNEL_J_MAX = 3
TREE_KERNEL_BUDGET = 1 << 24  # max leaf-bin combinations per evaluation


@dataclass(frozen=True)
class BandTuple:
    """Leaf bands in depth-first order with their conjugation flags."""

    bands: tuple[BandCoefficients, ...]
    conjugated: tuple[bool, ...]


@dataclass(frozen=True)
class SymbolEvaluation:
    """One kernel evaluation: value and the prefix denominators it used."""

    value: complex
    denominators: tuple[float, ...]


def _check_band(b: BandCoefficients, grid: Grid):
    if b.grid != grid:
        raise GridMismatchError("band grids differ")
    if len(b.coeffs) != grid.bins_per_box:
        raise PreconditionError("operators need sharp (length-B) bands")


def _u_block(b: BandCoefficients, t: float) -> np.ndarray:
    """Interaction picture -> u picture on the band's bins."""
    xi = b.frequencies()
    return b.coeffs * np.exp(1j * t * xi * xi)


def _conj_reversed(block: np.ndarray, start_bin: int) -> tuple[np.ndarray, int]:
    """Block of conj(u)(x): bins negate and the values conjugate."""
    return np.conj(block[::-1]), -(start_bin + len(block) - 1)


def q1(
    n: int,
    b1: BandCoefficients,
    b2: BandCoefficients,
    b3: BandCoefficients,
    t: float,
) -> BandCoefficients:
    """Box-n projection of the propagated triple product, v-picture output."""
    g = b1.grid
    for b in (b2, b3):
        _check_band(b, g)
    _check_band(b1, g)
    B = g.bins_per_box
    u1 = _u_block(b1, t)
    u3 = _u_block(b3, t)
    g2, g2_start = _conj_reversed(_u_block(b2, t), b2.start_bin)
    conv = np.convolve(np.convolve(u1, g2), u3)
    start = b1.start_bin + g2_start + b3.start_bin
    out = np.zeros(B, dtype=np.complex128)
    lo = n * B - start
    a = max(lo, 0)
    bnd = min(lo + B, len(conv))
    if a < bnd:
        out[a - lo : bnd - lo] = conv[a:bnd]
    xi_out = (n * B + np.arange(B)) / B
    out *= np.exp(-1j * t * xi_out * xi_out) / (2.0 * np.pi * B * B)
    return BandCoefficients(box_index=n, grid=g, coeffs=out, start_bin=n * B)


def q1_tilde(
    n: int,
    b1: BandCoefficients,
    b2: BandCoefficients,
    b3: BandCoefficients,
    t: float,
) -> BandCoefficients:
    """Gap-kernel trilinear operator on a non-resonant tuple.

    Output bin xi gets (2*pi*B^2)^{-1} * exp(-i*t*xi^2) times the double sum
    of u1(xi1) * conj(u2)(xi-xi1-xi3) * u3(xi3) / ((xi-xi1)*(xi-xi3)).
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


def _tree_axes(tree: OrderedTree, B: int):
    """Per-leaf broadcast shapes for the full tensor mesh."""
    leaves = tree.terminal_ids()
    L = len(leaves)
    shapes = []
    for i in range(L):
        s = [1] * L
        s[i] = B
        shapes.append(tuple(s))
    return leaves, shapes


def q_tree(
    tree: OrderedTree,
    assign: IndexAssignment,
    leaves: BandTuple,
    t: float,
    min_denominator: float = 0.5,
) -> BandCoefficients:
    """Kernel-exact evaluation of the generation-J tree operator.

    Explicit sum over all leaf bin tuples: conjugation per fsgn, sharp window
    per internal node on the propagated natural frequency, kernel
    1/prod_j m~_j on signed continuous half-phase prefix sums, weight
    (2*pi*B^2)^{-J}.  Raises a resource guard for J > 3 or oversized meshes
    and a precondition error if a window-surviving combination drives any
    prefix denominator below ``min_denominator``.
    """
    J = tree.J
    if J > TREE_KERNEL_J_MAX:
        raise ResourceGuardError(f"kernel-exact path is capped at J={TREE_KERNEL_J_MAX}")
    grid = leaves.bands[0].grid
    B = grid.bins_per_box
    if B ** (2 * J + 1) > TREE_KERNEL_BUDGET:
        raise ResourceGuardError(
            f"mesh B^(2J+1) = {B ** (2 * J + 1)} exceeds the kernel budget"
        )
    leaf_ids, shapes = _tree_axes(tree, B)
    signs = compute_signs(tree)
    n_root = assign.n_root

    # integer bin meshes per node, built bottom-up (left - middle + right)
    K: dict[int, np.ndarray] = {}
    values = None
    for i, b in enumerate(leaf_ids):
        band = leaves.bands[i]
        _check_band(band, grid)
        if band.box_index != assign.freq[b]:
            raise PreconditionError("leaf band boxes must match the assignment")
        k = (band.start_bin + np.arange(B)).reshape(shapes[i])
        K[b] = k
        ub = _u_block(band, t)
        if leaves.conjugated[i]:
            if signs.fsgn[b] != -1:
                raise PreconditionError("conjugation flags disagree with the sign table")
            ub = np.conj(ub)
        v = ub.reshape(shapes[i])
        values = v if values is None else values * v

    def k_of(node_id: int) -> np.ndarray:
        if node_id in K:
            return K[node_id]
        c1, c2, c3 = tree.nodes[node_id].children
        K[node_id] = k_of(c1) - k_of(c2) + k_of(c3)
        return K[node_id]

    mask = values != 0
    for a in tree.chronicle:
        ka = k_of(a)
        na = assign.freq[a]
        mask = mask & (ka >= na * B) & (ka < (na + 1) * B)

    kernel = np.ones((1,) * len(leaf_ids))
    prefix = np.zeros((1,) * len(leaf_ids))
    for a in tree.chronicle:
        node = tree.nodes[a]
        c1, _, c3 = node.children
        m = (
            signs.fsgn[a]
            * ((k_of(a) - k_of(c1)) / B)
            * ((k_of(a) - k_of(c3)) / B)
        )
        prefix = prefix + m
        if np.any(mask & (np.abs(prefix) < min_denominator)):
            raise PreconditionError(
                "singular prefix denominator met by nonzero data inside the windows"
            )
        kernel = kernel / np.where(mask & (prefix != 0), prefix, 1.0)

    weight = (2.0 * np.pi * B * B) ** (-J)
    contrib = np.where(mask, values * kernel, 0.0) * weight
    k_root = np.broadcast_to(k_of(0), contrib.shape)
    flat_idx = (k_root - n_root * B).ravel()
    flat = contrib.ravel()
    keep = (flat_idx >= 0) & (flat_idx < B)
    out = np.zeros(B, dtype=np.complex128)
    np.add.at(out, flat_idx[keep], flat[keep])
    xi_out = (n_root * B + np.arange(B)) / B
    out = out * np.exp(-1j * t * xi_out * xi_out)
    return BandCoefficients(box_index=n_root, grid=grid, coeffs=out, start_bin=n_root * B)


def rho_symbol(
    tree: OrderedTree,
    assign: IndexAssignment,
    xi_leaves: np.ndarray,
    signs: SignTable | None = None,
) -> SymbolEvaluation:
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


def unit_band(grid: Grid, n: int, coeffs: np.ndarray) -> BandCoefficients:
    """Band at box n from raw coefficients, L2-normalized."""
    c = np.asarray(coeffs, dtype=np.complex128)
    nrm = np.sqrt(np.sum(np.abs(c) ** 2) / grid.bins_per_box)
    if nrm == 0:
        raise PreconditionError("cannot normalize the zero band")
    return BandCoefficients(
        box_index=n, grid=grid, coeffs=c / nrm, start_bin=n * grid.bins_per_box
    )


def coherent_band(grid: Grid, n: int) -> BandCoefficients:
    """All-ones unit band: the sup-seeking probe for the kernel bounds."""
    return unit_band(grid, n, np.ones(grid.bins_per_box))


def random_band(grid: Grid, n: int, rng: np.random.Generator) -> BandCoefficients:
    B = grid.bins_per_box
    return unit_band(grid, n, rng.standard_normal(B) + 1j * rng.standard_normal(B))


def certify_tree_bound(
    tree: OrderedTree,
    assign: IndexAssignment,
    trials: int,
    grid: Grid,
    rng: np.random.Generator,
    t: float = 0.0,
) -> float:
    """Measured sup of ||q_tree|| * |den| over unit-norm leaf tuples.

    ``den`` is the integer prefix-product denominator (the signed product
    half-phases in chronicle order), matching the kernel convention.  One
    coherent (all-ones) tuple is drawn first; the rest are random.
    """
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    den = 1.0
    for mt in np.cumsum(np.asarray(assign.phases.mu_product) / 2.0):
        den *= abs(mt)
    measured = 0.0
    draws = ["coherent"] + ["random"] * trials
    for kind in draws:
        bands = []
        for b in leaf_ids:
            n_b = assign.freq[b]
            if kind == "coherent":
                bands.append(coherent_band(grid, n_b))
            else:
                bands.append(random_band(grid, n_b, rng))
        tup = BandTuple(
            bands=tuple(bands),
            conjugated=tuple(signs.fsgn[b] == -1 for b in leaf_ids),
        )
        out = q_tree(tree, assign, tup, t)
        measured = max(measured, out.l2_norm() * den)
    return measured
