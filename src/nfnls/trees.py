"""Ordered ternary trees with growth chronicles, signs, and index functions.

A tree of generation J has J internal nodes, 2J+1 terminal nodes and 3J+1
nodes total.  Trees are kept together with their chronicle (the sequence of
node ids expanded at each generation): two trees of the same shape grown in a
different order are distinct objects.  Node ids are assigned in creation
order, so expanding a node at generation j always creates children
3(j-1)+1 .. 3(j-1)+3 (left, middle, right) and ids are stable across
enumeration runs.

Signs: psgn(a) = -1 exactly for middle children (+1 for the root), and
fsgn(a) = psgn(a) * (-1)^{#middle strict ancestors of a}, the root never
counting as a middle ancestor.  A terminal node carries a conjugated factor
exactly when fsgn = -1.

An index function assigns an integer box to every node such that at every
internal node a with children a1, a2, a3:

* freq(a1) - freq(a2) + freq(a3) is within 1 of freq(a)   (convolution slack),
* |freq(a) - freq(a1)| > 1 and |freq(a) - freq(a3)| > 1   (non-resonance),

and the root tuple has interaction phase above the threshold N.  The
per-generation phases are read off the boxes, signed by fsgn of the expanded
node (the conjugation flips the phase of everything inserted under a
conjugated slot), with prefix sums mu~_j and their running products mu^_j in
chronicle order.  The quartic phases decide membership; the certification
and the sampler read the product phases 2*(n-n1)*(n-n3).

Exhaustive enumeration runs generation by generation over an integer frontier
(one row per partial assignment, one column per node).  At each generation
the distinct parent boxes of the frontier are expanded once into a
``resonance.PhaseTable``, their non-resonant children sorted by signed phase.
The root threshold and the chain step then keep two tails of a row's block,
found by two searchsorted calls, so the exact row count is known before
anything is gathered (and checked against the guard there).  The frontier
then looks one generation ahead: it builds the next generation's table from
the kept children, and a child goes on only if the chain keeps one of its
own children there, which the smallest and largest phase of its block
decide; so no row reaches a generation where it has no child.  Rows are
independent, so one frontier serves any number of root boxes.
``IndexAssignment`` objects are built once, for the final frontier of one
root; the tree-level sums of ``normal_form`` read the integer frontier of
all their roots directly.

Random sampling is rejection over the same kind of frontier: a block of
attempts starts from the root row, and at each generation every surviving
row draws (c1, c3, delta) uniformly, sets c2 = c1 + c3 - freq(a) - delta and
is masked by the constraints.  One attempt still draws (c1, c3, delta) per
generation uniformly and independently, and (c1, c3, delta) -> (c1, c2, c3)
is one-to-one, so accepted attempts are uniform on the valid assignments,
as with one attempt at a time; only the order of the random stream differs.
Accepted rows are kept in attempt order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoxRangeError, DomainError, PreconditionError, ResourceGuardError
from .resonance import PRODUCT, PhaseTable, c_set_radius, phase_value

__all__ = [
    "TreeNode",
    "OrderedTree",
    "SignTable",
    "PhaseRecord",
    "IndexAssignment",
    "enumerate_trees",
    "build_tree",
    "compute_signs",
    "dump_chronicle",
    "enumerate_index_functions",
    "sample_index_functions",
    "double_factorial_odd",
]

J_MAX_ENUMERATION = 6
# rejection-sampling attempts drawn at once; each costs a few int64 columns,
# and 2^15 at once already shows in the peak RSS of criterion 5
SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class TreeNode:
    idx: int
    parent: int | None
    position: int  # 0 left, 1 middle, 2 right; -1 for the root
    children: tuple[int, int, int] | None
    generation_born: int


@dataclass(frozen=True)
class OrderedTree:
    nodes: tuple[TreeNode, ...]
    chronicle: tuple[int, ...]

    @property
    def J(self) -> int:
        return len(self.chronicle)

    def terminal_ids(self) -> tuple[int, ...]:
        """Terminal node ids in depth-first (left/middle/right) order."""
        out = []

        def walk(i):
            node = self.nodes[i]
            if node.children is None:
                out.append(i)
            else:
                for c in node.children:
                    walk(c)

        walk(0)
        return tuple(out)

    def size(self) -> int:
        return len(self.nodes)


def double_factorial_odd(J: int) -> int:
    """1*3*5*...*(2J-1)."""
    out = 1
    for j in range(1, J + 1):
        out *= 2 * j - 1
    return out


def _expand(nodes: list[TreeNode], chronicle: list[int], node_id: int) -> None:
    j = len(chronicle) + 1
    base = 3 * (j - 1)
    old = nodes[node_id]
    if old.children is not None:
        raise PreconditionError(f"node {node_id} is not terminal")
    kids = (base + 1, base + 2, base + 3)
    nodes[node_id] = TreeNode(old.idx, old.parent, old.position, kids, old.generation_born)
    for pos, c in enumerate(kids):
        nodes.append(TreeNode(c, node_id, pos, None, j))
    chronicle.append(node_id)


def build_tree(chronicle: Sequence[int]) -> OrderedTree:
    """Replay a chronicle into a tree; validates every expansion."""
    if len(chronicle) < 1 or chronicle[0] != 0:
        raise PreconditionError("a chronicle starts by expanding the root (id 0)")
    nodes: list[TreeNode] = [TreeNode(0, None, -1, None, 0)]
    chron: list[int] = []
    for a in chronicle:
        if not (0 <= a < len(nodes)):
            raise PreconditionError(f"chronicle names unknown node {a}")
        _expand(nodes, chron, a)
    return OrderedTree(nodes=tuple(nodes), chronicle=tuple(chron))


def enumerate_trees(J: int) -> list[OrderedTree]:
    """All chronicles of J generations: (2J-1)!! trees, stable order."""
    if J < 1:
        raise DomainError(f"need J >= 1, got {J}")
    if J > J_MAX_ENUMERATION:
        raise ResourceGuardError(f"J={J} exceeds the enumeration guard {J_MAX_ENUMERATION}")
    chronicles = [[0]]
    for _ in range(J - 1):
        grown = []
        for ch in chronicles:
            tree = build_tree(ch)
            for term in tree.terminal_ids():
                grown.append(ch + [term])
        chronicles = grown
    return [build_tree(ch) for ch in chronicles]


def dump_chronicle(tree: OrderedTree) -> str:
    """One-line debug form: chronicle node ids, parenthesized."""
    return "(" + " ".join(str(a) for a in tree.chronicle) + ")"


@dataclass(frozen=True)
class SignTable:
    psgn: tuple[int, ...]
    fsgn: tuple[int, ...]


def compute_signs(tree: OrderedTree) -> SignTable:
    """psgn by child position, fsgn by parity of middle strict ancestors."""
    n = tree.size()
    psgn = [0] * n
    fsgn = [0] * n
    middles = [0] * n  # number of middle strict ancestors

    def walk(i, mid_count):
        node = tree.nodes[i]
        psgn[i] = -1 if node.position == 1 else +1
        middles[i] = mid_count
        fsgn[i] = psgn[i] * (-1 if mid_count % 2 else +1)
        if node.children is not None:
            for c in node.children:
                walk(c, mid_count + (1 if node.position == 1 else 0))

    walk(0, 0)
    return SignTable(psgn=tuple(psgn), fsgn=tuple(fsgn))


@dataclass(frozen=True)
class PhaseRecord:
    """Signed per-generation phases of an index function, in chronicle order.

    ``mu`` holds the quartic phases, which decide membership, and
    ``mu_product`` the product phases 2*(n-n1)*(n-n3), which the certification
    reads; both carry the fsgn sign of the node expanded at that generation.
    ``mu_tilde``/``mu_hat`` are the prefix sums of ``mu`` and their running
    products.
    """

    mu: tuple[int, ...]
    mu_product: tuple[int, ...]

    @property
    def mu_tilde(self) -> tuple[int, ...]:
        return tuple(np.cumsum(np.asarray(self.mu, dtype=np.int64)).tolist())

    @property
    def mu_hat(self) -> tuple[int, ...]:
        return tuple(np.cumprod(self.mu_tilde).tolist())


@dataclass(frozen=True)
class IndexAssignment:
    tree: OrderedTree
    freq: tuple[int, ...]  # box per node id
    phases: PhaseRecord

    @property
    def n_root(self) -> int:
        return self.freq[0]


def enumerate_index_functions(
    tree: OrderedTree,
    n_root: int,
    window: int,
    N: float,
    allowed_boxes: dict | None = None,
    max_count: int = 2_000_000,
) -> list[IndexAssignment]:
    """Exhaustive index functions on ``tree`` with root box ``n_root``.

    Constraints: convolution slack and non-resonance at every internal node,
    |phase| > N at the root (same membership predicate as the generation-one
    complement set), and the complement chain
    |mu~_j| > (2j+1)^3 * max(|mu~_{j-1}|, |mu~_1|)^{0.99} for j = 2..J.

    ``allowed_boxes`` maps node ids to the box sets their frequencies must lie
    in (missing or None entries mean the full window).  More than
    ``max_count`` partial or complete assignments raise
    ``ResourceGuardError``.  Assignments come in lexicographic order of their
    generation triples in chronicle order.
    """
    if window < 1:
        raise BoxRangeError(f"window must be >= 1, got {window}")
    if abs(n_root) > 3 * window + 1:
        raise BoxRangeError(f"root box {n_root} unreachable from window {window}")
    node_set = (allowed_boxes or {}).get
    return _assignments(tree, _frontier(tree, [n_root], window, N, node_set, max_count))


def _frontier(tree, roots, window, N, node_set, max_count):
    """The complete frontier of every root: one row of node boxes per index
    function, one column per node.

    Rows are grouped by root in the order of ``roots`` and lexicographic
    within a root, so they are those of per-root enumerations, concatenated.
    ``node_set(c)`` is node c's box set (None: the full window).  More than
    ``max_count`` partial or complete rows raise ``ResourceGuardError``,
    before they are gathered.

    At each generation the distinct parent boxes of the frontier are expanded
    once (a ``resonance.PhaseTable``, built afresh per call: kept in
    ``resonance.phase_table`` across calls, the tables cut the
    ``tree_remainder`` benchmark's time by a further 3-5% but raised its peak
    RSS from 47.4 to 60.5 MB), and each
    generation keeps the children whose signed phase m lies outside an
    interval: |m| > N at the root, and |prev + m| > X with X the radius of
    the C set (``c_set_radius``) on the complement chain, prev and the radius
    read off the row's carried prefix and first phase.  So a row's children
    are two tails of its parent's block, sorted by m, found by two
    searchsorted calls (``PhaseTable.outside``); their lengths are the exact
    row count, checked against the guard.

    Then, before a child is gathered, the look-ahead: the next chronicle
    node's box is read for every kept child (its column is gathered once and
    reused), the next generation's table is built from those boxes (the
    parents it would have had anyway), and a child whose block there has no
    phase outside its own interval is dropped (``PhaseTable.reaches``).  At
    the chain's second step the radius is about 125 times the previous
    phase: criterion 8's J = 2 tree pass keeps 315 of 270,762 generation-one
    rows this way.  Only the surviving children are gathered; the result is
    the same rows in the same order.
    """
    signs = compute_signs(tree)

    def expand(a, boxes):
        """Node a's phase table over the distinct ``boxes``, and each box's
        parent index in it."""
        parents, block = np.unique(boxes, return_inverse=True)
        kids = tree.nodes[a].children
        return PhaseTable(parents, window, [node_set(c) for c in kids], signs.fsgn[a]), block

    # keep |m - center| > X for integer m: m <= center - F - 1 or
    # m >= center + F + 1 with F = floor(X)
    def bounds(center, F):
        return center - F - 1, center + F + 1

    freq = np.zeros((len(roots), tree.size()), dtype=np.int64)
    freq[:, 0] = roots
    table, block = expand(0, freq[:, 0])
    below, above = bounds(0.0, np.floor(float(N)))
    for j, a in enumerate(tree.chronicle):
        kids = tree.nodes[a].children
        cols = (table.c1, table.c2, table.c3)
        rows, pos = table.outside(block, below, above, max_count)
        m = table.m[pos]
        prev, first = (m, m) if j == 0 else (prev[rows] + m, first[rows])
        b = tree.chronicle[j + 1] if j + 1 < tree.J else None
        if b is not None:
            # look one generation ahead: node b's table from every kept
            # child, and only the children with a child of their own go on
            boxes = cols[kids.index(b)][pos] if b in kids else freq[rows, b]
            table, block = expand(b, boxes)
            below, above = bounds(-prev.astype(float), np.floor(c_set_radius(j + 1, prev, first)))
            live = table.reaches(block, below, above)
            rows, pos, boxes, block, below, above, prev, first = (
                x[live] for x in (rows, pos, boxes, block, below, above, prev, first)
            )
        freq = freq[rows]
        for c, col in zip(kids, cols):
            freq[:, c] = boxes if c == b else col[pos]
    return freq


def _generation_boxes(tree, freq):
    """(fa, c1, c2, c3): the (A, J) boxes of every chronicle node and of its
    three children, in A rows of node boxes."""
    kids = np.array([tree.nodes[a].children for a in tree.chronicle]).T
    return (freq[:, list(tree.chronicle)], *(freq[:, c] for c in kids))


def _phases(tree, freq):
    """(mu, mu_product): the (A, J) signed quartic and product phases of the
    chronicle nodes, in A rows of node boxes."""
    fa, c1, c2, c3 = _generation_boxes(tree, freq)
    fsgn = compute_signs(tree).fsgn
    sign = np.array([fsgn[a] for a in tree.chronicle])
    return sign * phase_value(fa, c1, c2, c3), sign * phase_value(fa, c1, c2, c3, PRODUCT)


def _assignments(tree, freq) -> list[IndexAssignment]:
    mu, mu_p = _phases(tree, freq)
    return [
        IndexAssignment(tree=tree, freq=tuple(f), phases=PhaseRecord(tuple(m), tuple(p)))
        for f, m, p in zip(freq.tolist(), mu.tolist(), mu_p.tolist())
    ]


def _phase_slop_bound(fa: int, c1: int, c3: int) -> int:
    """Upper bound on |continuous product phase - integer product phase| over a cell."""
    return 2 * (abs(fa - c1) + abs(fa - c3) + 1)


def sample_index_functions(
    tree: OrderedTree,
    n_root: int,
    window: int,
    N: float,
    count: int,
    rng: np.random.Generator,
    min_denominator: float = 1.0,
    comparability: float = 0.0,
    max_attempts: int = 200_000,
) -> list[IndexAssignment]:
    """Random index functions with nonsingular continuous denominators.

    Generation-by-generation rejection sampling, ``SAMPLE_BLOCK`` attempts at
    a time.  Beyond the index-function constraints, each signed
    product-prefix is required to clear ``min_denominator`` plus the
    accumulated bin-offset slop, so every continuous prefix denominator met
    by the kernel evaluation is at least ``min_denominator`` in modulus.  A
    nonzero ``comparability`` additionally demands the continuous prefixes
    stay at least that fraction of the integer ones (so integer denominator
    products certify the continuous kernel).  Accepted attempts are returned
    in attempt order; ``ResourceGuardError`` is raised iff fewer than
    ``count`` of the first ``max_attempts`` attempts are accepted.
    """
    if window < 1:
        raise BoxRangeError(f"window must be >= 1, got {window}")
    if abs(n_root) > 3 * window + 1:
        raise BoxRangeError(f"root box {n_root} unreachable from window {window}")
    if count < 0 or max_attempts < 1:
        raise DomainError(f"need count >= 0 and max_attempts >= 1, got {count}, {max_attempts}")
    signs = compute_signs(tree)
    out: list[IndexAssignment] = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        size = min(SAMPLE_BLOCK, max_attempts - attempts)
        attempts += size
        freq = _sample_block(tree, signs, n_root, window, N, size, rng, min_denominator, comparability)
        out += _assignments(tree, freq[: count - len(out)])
    if len(out) < count:
        raise ResourceGuardError(
            f"could only sample {len(out)}/{count} assignments in {max_attempts} attempts"
        )
    return out


def _sample_block(tree, signs, n_root, window, N, size, rng, min_denominator, comparability):
    """The accepted frontier of ``size`` attempts, in attempt order."""
    freq = np.zeros((1, tree.size()), dtype=np.int64)
    freq[0, 0] = n_root
    prefix = slop = np.zeros(1, dtype=np.int64)  # signed product prefix, slop
    rows = np.zeros(size, dtype=np.intp)  # every attempt starts from the root row
    for j, a in enumerate(tree.chronicle):
        kids = list(tree.nodes[a].children)
        fa = freq[rows, a]
        c1 = rng.integers(-window, window + 1, size=len(rows))
        c3 = rng.integers(-window, window + 1, size=len(rows))
        c2 = c1 + c3 - fa - rng.integers(-1, 2, size=len(rows))
        p = prefix[rows] + signs.fsgn[a] * phase_value(fa, c1, c2, c3, PRODUCT)
        s = slop[rows] + _phase_slop_bound(fa, c1, c3)
        # halved: continuous kernel denominators are prefix sums of
        # (xi-xi1)(xi-xi3), i.e. product phases over 2
        pref = np.abs(p) / 2.0
        keep = (np.abs(c1 - fa) > 1) & (np.abs(c3 - fa) > 1) & (np.abs(c2) <= window)
        keep &= pref - s / 2.0 >= np.maximum(min_denominator, comparability * pref)
        if j == 0:
            keep &= np.abs(phase_value(fa, c1, c2, c3)) > N
        rows, c1, c2, c3, prefix, slop = (x[keep] for x in (rows, c1, c2, c3, p, s))
        freq = freq[rows]
        freq[:, kids] = np.stack([c1, c2, c3], axis=1)
        rows = np.arange(len(freq))
    return freq
