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

* ``q1``     — box-projected product of the three propagated bands:
               out = box_n( S(t)[ S(-t)b1 * conj(S(-t)b2) * S(-t)b3 ] ).
* ``q_tree`` — the generation-J operator: a sum over the leaf
               frequency-bin tuples that survive the sharp window of every
               internal node, evaluated on the upward-propagated natural
               frequencies, with conjugation per fsgn and kernel
               1/prod_j m~_j, m~_j the chronicle prefix sums of the signed
               continuous half-phases m_j = fsgn(a_j)*(xi_a - xi_a1)*(xi_a - xi_a3).
               For J=1 this is the gap kernel q1_tilde, q1's numerator over
               1/((xi-xi1)*(xi-xi3)) on the non-resonant gaps |n-n1| > 1,
               |n-n3| > 1, whose batched form is ``normal_form``'s gap pass.

The tree operator is split in two.  A node's window test depends only on its
slack f(a1) - f(a2) + f(a3) - f(a) in {-1, 0, 1} and on the bin offsets
within the boxes, so ``_slack_plan`` depends only on the tree, the slack
pattern (at most 3^J of them) and B: it joins the children's surviving
tuples bottom-up and keeps those inside every window (criterion 5's 750
index functions at B=4, J=3 keep a median of 201 and a mean of 563 of the
16,384 tuples), with their root bins and the bin-offset differences of
every node.  Plans are cached across calls.  Only the kernel 1/prod_j m~_j
depends on the boxes; it is computed per index function from the integer
bin differences.  The evaluator gathers the leaf products per tuple from a
(R, L, B) stack of leaf rows, applies each row's kernel and scatters the
rows to their root bins.  ``q_tree`` (one row), ``certify_tree_bound`` (one
index function, all its draws) and the tree-level sums of ``normal_form``
(every index function of a tree, grouped by slack pattern) share them.

Kernel-exact evaluation is guarded: J <= 3 and B^(2J+1) within a flat budget
(the harness uses small B for J=3 cells).  The sums are deterministic: the
tuples are summed in the lexicographic order of their leaf bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatchError,
    PreconditionError,
    ResourceGuardError,
)
from .grids import Grid
from .modulation import BandCoefficients
from .trees import IndexAssignment, OrderedTree, _generation_boxes, compute_signs

__all__ = [
    "BandTuple",
    "q1",
    "q_tree",
    "certify_tree_bound",
]

TREE_KERNEL_J_MAX = 3
TREE_KERNEL_BUDGET = 1 << 24  # max leaf-bin combinations per evaluation
MIN_PREFIX_DENOMINATOR = 0.5
# slack-pattern plans kept across calls: all 27 of one J = 3 tree
PLAN_CACHE = 27
# leaf-bin tuples times leaf rows per evaluation batch
EVAL_CHUNK = 1 << 16


@dataclass(frozen=True)
class BandTuple:
    """Leaf bands in depth-first order with their conjugation flags."""

    bands: tuple[BandCoefficients, ...]
    conjugated: tuple[bool, ...]


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


class _TreePlan(NamedTuple):
    """The leaf-bin tuples of one (tree, slack pattern) that survive every window.

    Row s reads bin ``offsets[i, s]`` of leaf i's box (leaves in depth-first
    order) and lands on bin ``root[s]`` of the root box.  At the j-th node a
    of the chronicle, with children a1, a3 and bin offsets o within their
    boxes, ``d1[j, s]`` = o_a - o_a1 and ``d3[j, s]`` = o_a - o_a3; the bin
    differences of an index function f are then k_a - k_a1 = (f(a) - f(a1))*B
    + d1 and k_a - k_a3 = (f(a) - f(a3))*B + d3.  ``fsgn[j, 0]`` signs that
    node's half-phase.  Rows are in the lexicographic order of their leaf
    offsets.  ``conjugated[i]`` says whether leaf i enters conjugated.  The
    bin arrays are int16 (B^3 <= budget keeps B <= 256), so cached plans
    stay small.
    """

    offsets: np.ndarray
    root: np.ndarray
    d1: np.ndarray
    d3: np.ndarray
    fsgn: np.ndarray
    conjugated: tuple[bool, ...]


@lru_cache(maxsize=PLAN_CACHE)
def _slack_plan(tree: OrderedTree, slack: tuple[int, ...], B: int) -> _TreePlan:
    """Join the children's surviving tuples bottom-up, window by window.

    ``slack[j]`` = f(a1) - f(a2) + f(a3) - f(a) at the j-th node a of the
    chronicle.  In reverse chronicle order every internal node's children are
    leaves or already joined, so each node takes the product of its three
    children's tuples and keeps the rows whose propagated bin offset
    o_a = o_a1 - o_a2 + o_a3 + slack*B lies in [0, B).
    """
    J = tree.J
    if J > TREE_KERNEL_J_MAX:
        raise ResourceGuardError(f"kernel-exact path is capped at J={TREE_KERNEL_J_MAX}")
    if B ** (2 * J + 1) > TREE_KERNEL_BUDGET:
        raise ResourceGuardError(
            f"mesh B^(2J+1) = {B ** (2 * J + 1)} exceeds the kernel budget"
        )
    signs = compute_signs(tree)
    leaf_ids = tree.terminal_ids()
    # per subtree: its root's bin offset, its leaves' offsets and the bin
    # differences (d1, d3) of its internal nodes, one row per surviving tuple
    bins = np.arange(B, dtype=np.int16)
    sub = {b: (bins, [bins], {}) for b in leaf_ids}
    for a, delta in zip(reversed(tree.chronicle), reversed(slack)):
        (o1, f1, e1), (o2, f2, e2), (o3, f3, e3) = (sub.pop(c) for c in tree.nodes[a].children)
        oa = o1[:, None, None] - o2[None, :, None] + o3[None, None, :] + delta * B
        i1, i2, i3 = np.nonzero((oa >= 0) & (oa < B))
        o = oa[i1, i2, i3]
        d = {j: (x[i1], y[i1]) for j, (x, y) in e1.items()}
        d.update({j: (x[i2], y[i2]) for j, (x, y) in e2.items()})
        d.update({j: (x[i3], y[i3]) for j, (x, y) in e3.items()})
        d[a] = (o - o1[i1], o - o3[i3])
        offsets = [f[i1] for f in f1] + [f[i2] for f in f2] + [f[i3] for f in f3]
        sub[a] = (o, offsets, d)
    root, offsets, d = sub[0]
    return _TreePlan(
        np.stack(offsets),
        root,
        np.stack([d[a][0] for a in tree.chronicle]),
        np.stack([d[a][1] for a in tree.chronicle]),
        np.array([[signs.fsgn[a]] for a in tree.chronicle]),
        tuple(signs.fsgn[b] == -1 for b in leaf_ids),
    )


def _node_gaps(tree: OrderedTree, freq: np.ndarray):
    """(A, J) slacks, f(a) - f(a1) and f(a) - f(a3) of the chronicle nodes of
    A rows of node boxes."""
    fa, c1, c2, c3 = _generation_boxes(tree, freq)
    return c1 - c2 + c3 - fa, fa - c1, fa - c3


def _kernel(plan: _TreePlan, gap1: np.ndarray, gap3: np.ndarray, B: int):
    """(A, S) kernels 1/prod_j m~_j and smallest prefix moduli min_j |m~_j|
    of A rows of box gaps, from the integer bin differences.

    The half-phases m_j are accumulated, and the kernel divided by the
    prefixes, in chronicle order.
    """
    k1 = gap1[:, :, None] * B + plan.d1
    k3 = gap3[:, :, None] * B + plan.d3
    prefix = np.cumsum(plan.fsgn * (k1 / B) * (k3 / B), axis=1)
    denominators = np.where(prefix != 0, prefix, 1.0)
    kernel = 1.0 / denominators[:, 0]
    for j in range(1, denominators.shape[1]):
        kernel = kernel / denominators[:, j]
    return kernel, np.abs(prefix).min(axis=1)


def _evaluate(plan, gap1, gap3, u, target, size, scale=1.0):
    """Root-box bins, before the output phase, of a (R, L, B) stack of leaf rows.

    Row r of ``u`` holds u-picture leaf values with the conjugations applied;
    it takes the kernel of row r of the box gaps (or of their only row) and
    is added, times ``scale``, into row ``target[r]`` of the (size, B)
    output.  Raises if nonzero data meet a prefix denominator below
    ``MIN_PREFIX_DENOMINATOR``.
    """
    R, L, B = u.shape
    weight = scale * (2.0 * np.pi * B * B) ** (-len(plan.fsgn))
    shared = len(gap1) == 1
    if shared:
        kernel, min_prefix = _kernel(plan, gap1, gap3, B)
    out = np.zeros(size * B, dtype=np.complex128)
    step = max(1, EVAL_CHUNK // max(1, len(plan.root)))
    for lo in range(0, R, step):
        sl = slice(lo, lo + step)
        if not shared:
            kernel, min_prefix = _kernel(plan, gap1[sl], gap3[sl], B)
        values = u[sl, 0].take(plan.offsets[0], axis=1)
        for i in range(1, L):
            values = values * u[sl, i].take(plan.offsets[i], axis=1)
        small = min_prefix < MIN_PREFIX_DENOMINATOR
        if small.any() and np.any(small & (values != 0)):
            raise PreconditionError(
                "singular prefix denominator met by nonzero data inside the windows"
            )
        contrib = (values * kernel * weight).ravel()
        idx = (plan.root + B * target[sl, None]).ravel()
        out.real += np.bincount(idx, weights=contrib.real, minlength=size * B)
        out.imag += np.bincount(idx, weights=contrib.imag, minlength=size * B)
    return out.reshape(size, B)


def _tree_sum(tree, freq, u, target, size, scale=1.0):
    """The tree operator of every row of index functions, summed by target row.

    Row r of ``freq`` (A, nodes) is an index function and row r of ``u`` (A,
    L, B) its u-picture leaf values with the conjugations applied; the
    result is the (size, B) sum of ``scale`` times row r's root-box bins,
    before the output phase, over the rows with target[r] = row.  Rows are
    evaluated per slack pattern, one plan each.
    """
    B = u.shape[2]
    slack, gap1, gap3 = _node_gaps(tree, freq)
    patterns, group = np.unique(slack, axis=0, return_inverse=True)
    out = np.zeros((size, B), dtype=np.complex128)
    for k, pattern in enumerate(patterns):
        rows = np.flatnonzero(group.reshape(-1) == k)
        plan = _slack_plan(tree, tuple(pattern.tolist()), B)
        out += _evaluate(plan, gap1[rows], gap3[rows], u[rows], target[rows], size, scale)
    return out


def _assignment_plan(tree: OrderedTree, assign: IndexAssignment, B: int):
    """The plan of one index function and its (1, J) box gaps."""
    slack, gap1, gap3 = _node_gaps(tree, np.array([assign.freq]))
    return _slack_plan(tree, tuple(slack[0].tolist()), B), gap1, gap3


def q_tree(
    tree: OrderedTree,
    assign: IndexAssignment,
    leaves: BandTuple,
    t: float,
) -> BandCoefficients:
    """Kernel-exact evaluation of the generation-J tree operator.

    Sum over the leaf bin tuples that survive the sharp window of every
    internal node on the propagated natural frequency (``_slack_plan``), with
    conjugation per fsgn, kernel 1/prod_j m~_j on signed continuous
    half-phase prefix sums and weight (2*pi*B^2)^{-J}.  Raises a resource
    guard for J > 3 or B^(2J+1) over the budget and a precondition error if
    a window-surviving tuple with nonzero data drives any prefix denominator
    below ``MIN_PREFIX_DENOMINATOR``.
    """
    if tree.J > TREE_KERNEL_J_MAX:  # checked before the leaves are read
        raise ResourceGuardError(f"kernel-exact path is capped at J={TREE_KERNEL_J_MAX}")
    grid = leaves.bands[0].grid
    B = grid.bins_per_box
    plan, gap1, gap3 = _assignment_plan(tree, assign, B)
    leaf_ids = tree.terminal_ids()
    u = np.empty((1, len(leaf_ids), B), dtype=np.complex128)
    for i, b in enumerate(leaf_ids):
        band = leaves.bands[i]
        _check_band(band, grid)
        if band.box_index != assign.freq[b]:
            raise PreconditionError("leaf band boxes must match the assignment")
        if band.start_bin != band.box_index * B:
            raise PreconditionError("tree operators need bands on the bins of their box")
        if leaves.conjugated[i] != plan.conjugated[i]:
            raise PreconditionError("conjugation flags disagree with the sign table")
        ub = _u_block(band, t)
        u[0, i] = np.conj(ub) if plan.conjugated[i] else ub
    out = _evaluate(plan, gap1, gap3, u, np.zeros(1, dtype=np.intp), 1)
    xi_out = (assign.n_root * B + np.arange(B)) / B
    out = out[0] * np.exp(-1j * t * xi_out * xi_out)  # u picture -> interaction picture
    return BandCoefficients(
        box_index=assign.n_root, grid=grid, coeffs=out, start_bin=assign.n_root * B
    )


def certify_tree_bound(
    tree: OrderedTree,
    assign: IndexAssignment,
    trials: int,
    grid: Grid,
    rng: np.random.Generator,
) -> float:
    """Measured sup of ||q_tree|| * |den| over unit-norm leaf tuples, at t = 0
    (the sup does not depend on t: the propagation phases are unimodular).

    ``den`` is the integer prefix-product denominator (the signed product
    half-phases in chronicle order), matching the kernel convention.  One
    coherent (all-ones) tuple comes first; the ``trials`` random tuples are
    drawn with one ``standard_normal`` call, which reads the stream in the
    order of a draw-by-draw, leaf-by-leaf loop of unit random bands (real
    part, then imaginary).  All draws are evaluated as one batch on the plan
    of the index function's slack pattern.
    """
    leaf_ids = tree.terminal_ids()
    B = grid.bins_per_box
    den = 1.0
    for mt in np.cumsum(np.asarray(assign.phases.mu_product) / 2.0):
        den *= abs(mt)
    plan, gap1, gap3 = _assignment_plan(tree, assign, B)
    z = rng.standard_normal((trials, len(leaf_ids), 2, B))
    drawn = z[:, :, 0] + 1j * z[:, :, 1]
    drawn = drawn / np.sqrt(np.sum(np.abs(drawn) ** 2, axis=-1, keepdims=True) / B)
    u = np.concatenate([np.ones((1, len(leaf_ids), B), dtype=np.complex128), drawn])
    conj = list(plan.conjugated)
    u[:, conj] = np.conj(u[:, conj])
    D = len(u)
    out = _evaluate(plan, gap1, gap3, u, np.arange(D), D)
    norms = np.sqrt(np.sum(np.abs(out) ** 2, axis=1) / B)
    return float(np.max(norms) * den)
