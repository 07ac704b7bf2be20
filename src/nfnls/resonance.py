"""Interaction phases, the divisor sieve and the resonance frequency sets.

The quartic interaction phase is

    Phi(xi, xi1, xi2, xi3) = xi^2 - xi1^2 + xi2^2 - xi3^2,

which factors as 2*(xi - xi1)*(xi - xi3) on the convolution surface
xi = xi1 - xi2 + xi3.  Integer box triples satisfy the surface equation only
up to the near-match slack (n1 - n2 + n3 in {n-1, n, n+1}), so the quartic
value and the product 2*(n-n1)*(n-n3) differ on a thin shell.  The quartic
value decides set membership everywhere; the certification and the sampler
read the product value off the boxes, and ``phase_value`` evaluates either
convention.  The continuous kernels elsewhere always use the (exact there)
product form.

Set modes for :func:`enumerate_triples` (one predicate, ``_mode_mask``, also
used for the operator tables in ``normal_form``):

* ``resonant_R1`` — doubly matched: n1 ~ n and n3 ~ n.
* ``resonant_R2`` — singly-or-doubly matched union: n1 ~ n or n3 ~ n, the
  resonant set, each triple once (R2 itself counts the doubly matched overlap
  twice, so R2 - R1 sums this set once).
* ``A_N`` — non-resonant with |Phi| <= N.
* ``A_N_complement`` — non-resonant with |Phi| > N.

All enumeration goes through one array engine, :func:`expand_triples`: given
an array of parent boxes and an optional box set per child it returns, as
integer columns, every child triple on the slack shell inside the window, in
lexicographic order.  The modes above are masks on those columns
(``enumerate_triples`` and the operator tables).  The band C_J of radius
``c_set_radius`` is read from both sides, its complement by the frontier of
``trees`` and its inside by the low-set inserts of ``normal_form``, and both
search the one phase table, :class:`PhaseTable`: non-resonant children
sorted per parent box by signed phase, so a phase interval of any box is one
run found by two searchsorted calls.  Enumeration is window-bounded and
deterministic; truncation to the window is the sole deviation from infinite
sums.  All functions here are pure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BoxRangeError, DomainError, ResourceGuardError

__all__ = [
    "FrequencyTriple",
    "QUARTIC",
    "PRODUCT",
    "phase_phi",
    "phase_value",
    "divisor_sieve",
    "expand_triples",
    "PhaseTable",
    "phase_table",
    "enumerate_triples",
    "c_set_radius",
]

QUARTIC = "quartic"
PRODUCT = "product"
_MODES = ("resonant_R1", "resonant_R2", "A_N", "A_N_complement")

# candidate cells (parent x s_a x s_b x slack, s_a and s_b the two child slots
# not solved for) per expansion block: the engine's int64 scratch arrays hold
# at most this many entries each, about 8 MB, whatever the window
_EXPANSION_BLOCK = 1 << 20


class FrequencyTriple(NamedTuple):
    n: int
    n1: int
    n2: int
    n3: int


def phase_phi(xi: float, xi1: float, xi2: float, xi3: float) -> float:
    """Quartic phase xi^2 - xi1^2 + xi2^2 - xi3^2 (works on arrays too)."""
    return xi * xi - xi1 * xi1 + xi2 * xi2 - xi3 * xi3


def phase_value(n, n1, n2, n3, convention: str = QUARTIC):
    """Integer-tuple phase under the chosen convention.

    ``quartic`` evaluates Phi on the box labels; ``product`` evaluates
    2*(n-n1)*(n-n3).  They agree exactly when n1 - n2 + n3 == n and differ by
    the slack term otherwise.
    """
    if convention == QUARTIC:
        return phase_phi(n, n1, n2, n3)
    if convention == PRODUCT:
        return 2 * (n - n1) * (n - n3)
    raise DomainError(f"unknown phase convention {convention!r}")


def divisor_sieve(limit: int) -> np.ndarray:
    """d(m) for all 1 <= m <= limit; index 0 unused."""
    if limit < 1:
        raise DomainError(f"sieve limit must be >= 1, got {limit}")
    d = np.zeros(limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        d[k::k] += 1
    return d


def _in_window(allowed, window: int) -> np.ndarray:
    """Membership table over [-window, window] of a box set (None: every box)."""
    if allowed is None:
        return np.ones(2 * window + 1, dtype=bool)
    boxes = np.fromiter(allowed, dtype=np.int64)
    table = np.zeros(2 * window + 1, dtype=bool)
    table[boxes[np.abs(boxes) <= window] + window] = True
    return table


def expand_triples(parents, window: int, child_sets=(None, None, None)):
    """Every child triple of every parent box, as integer columns.

    Returns ``(row, c1, c2, c3)``: ``row`` indexes ``parents`` and
    c1 - c2 + c3 = parents[row] + slack with slack in {-1, 0, 1}, every child
    inside [-window, window] and, where ``child_sets[i]`` is not None, in that
    box set.  Rows come in lexicographic order of (row, c1, c2, c3).  The
    equation is solved for the slot whose in-window set is largest (c3 on a
    tie), and the candidates are expanded over the other two slots s_a, s_b
    and the slack, P * |s_a| * |s_b| * 3 cells for P parents, in blocks of
    parents, so the scratch memory stays bounded for any number of parents.
    """
    if window < 1:
        raise BoxRangeError(f"window must be >= 1, got {window}")
    parents = np.asarray(parents, dtype=np.int64).reshape(-1)
    full = np.arange(-window, window + 1, dtype=np.int64)
    ok = [_in_window(s, window) for s in child_sets]
    k = max((2, 0, 1), key=lambda i: ok[i].sum())
    a, b = (i for i in range(3) if i != k)
    sa, sb = full[ok[a]], full[ok[b]]
    # c_k = e_k * (parent + slack - e_a c_a - e_b c_b) with e = (1, -1, 1).
    # np.nonzero below yields the hits of one (row, c1, c2) with c3 ascending:
    # c3 is a loop axis, or for k = 2 rises with the slack; so the rows come
    # out lexicographic for k = 2, and any other k sorts each block stably by
    # (row, c1, c2)
    e = (1, -1, 1)
    lift = e[k] * (np.array([-1, 0, 1]) - e[a] * sa[:, None, None] - e[b] * sb[None, :, None])
    step = max(1, _EXPANSION_BLOCK // max(1, lift.size))
    cols = []
    for lo in range(0, len(parents), step):
        ck = lift[None] + e[k] * parents[lo : lo + step, None, None, None]
        hit = (np.abs(ck) <= window) & ok[k][np.clip(ck + window, 0, 2 * window)]
        r, ia, ib, _ = np.nonzero(hit)
        block = [r + lo, None, None, None]
        block[1 + a], block[1 + b], block[1 + k] = sa[ia], sb[ib], ck[hit]
        if k != 2:
            width = 2 * window + 1
            order = np.argsort((r * width + block[1]) * width + block[2], kind="stable")
            block = [c[order] for c in block]
        cols.append(block)
    if not cols:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    return tuple(np.concatenate(c) for c in zip(*cols))


class PhaseTable:
    """The non-resonant children of strictly increasing ``parents``, by phase.

    ``row`` (the parent's index), ``c1``, ``c2``, ``c3`` and ``m`` (the quartic
    phase times ``sign``) are in lexicographic order of (parent, c1, c2, c3).
    ``order`` sorts them by (parent, m), ties lexicographic; ``start``/``stop``
    are each parent's block in it.
    """

    def __init__(self, parents, window, child_sets, sign):
        self.parents = np.asarray(parents, dtype=np.int64).reshape(-1)
        row, c1, c2, c3 = expand_triples(self.parents, window, child_sets)
        fa = self.parents[row]
        nonres = (np.abs(c1 - fa) > 1) & (np.abs(c3 - fa) > 1)
        self.row, fa, self.c1, self.c2, self.c3 = (x[nonres] for x in (row, fa, c1, c2, c3))
        self.m = sign * phase_value(fa, self.c1, self.c2, self.c3)
        # keys parent * width + (m - offset), sorted; phase offsets run over
        # 1..width-2, so 0 and width-1 take clipped bounds and a box without
        # children falls between the blocks
        self._offset = int(self.m.min(initial=0)) - 1
        self._width = int(self.m.max(initial=0)) - self._offset + 2
        self.order = np.argsort(self.row * self._width + (self.m - self._offset), kind="stable")
        self._keys = fa[self.order] * self._width + (self.m[self.order] - self._offset)
        sizes = np.bincount(self.row, minlength=len(self.parents))
        self.stop = np.cumsum(sizes)
        self.start = self.stop - sizes

    def _find(self, boxes, bound, side):
        off = np.clip(bound - self._offset, 0, self._width - 1).astype(np.int64)
        return np.searchsorted(self._keys, boxes * self._width + off, side=side)

    def span(self, boxes, lo=-np.inf, hi=np.inf):
        """(i, j): the children of box boxes[t] with lo[t] <= m <= hi[t] are
        order[i[t]:j[t]], an empty run for a box that is not a parent.  The
        bounds may be non-integer, infinite or empty."""
        boxes = np.asarray(boxes, dtype=np.int64)
        i = self._find(boxes, np.ceil(lo), "left")
        j = self._find(boxes, np.floor(hi), "right")
        return i, np.maximum(i, j)

    def outside(self, block, below, above, max_count):
        """Children with m <= below or m >= above of rows with parent index
        ``block``, for integer-valued float bounds per row or shared.

        Returns the row of each kept child and its lexicographic position,
        sorted by (row, position); more than ``max_count`` of them raise
        ``ResourceGuardError`` before anything is gathered.
        """
        boxes = self.parents[block]
        start, stop = self.start[block], self.stop[block]
        left = self._find(boxes, below, "right")
        right = np.maximum(self._find(boxes, above, "left"), left)  # the tails never overlap
        starts = np.stack([start, right], axis=1).reshape(-1)
        sizes = np.stack([left - start, stop - right], axis=1).reshape(-1)
        total = int(sizes.sum())
        if total > max_count:
            raise ResourceGuardError(f"index enumeration exceeded {max_count} assignments")
        ends = np.cumsum(sizes)
        idx = np.arange(total) + np.repeat(starts - (ends - sizes), sizes)
        rows = np.repeat(np.arange(len(block)), sizes.reshape(-1, 2).sum(axis=1))
        stride = max(1, len(self.order))
        key = np.sort(rows * stride + self.order[idx])
        return key // stride, key % stride


# phase_table(parents, window, child_sets, sign): a cached
# PhaseTable, for hashable arguments (tuples of boxes, None for no set)
phase_table = lru_cache(maxsize=256)(PhaseTable)


def _mode_mask(n, n1, n2, n3, mode: str, thr: float | None):
    """Membership of the triple columns in the frequency set ``mode``."""
    if mode not in _MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if mode in ("A_N", "A_N_complement") and thr is None:
        raise DomainError(f"mode {mode} needs a threshold")
    near1 = np.abs(n1 - n) <= 1
    near3 = np.abs(n3 - n) <= 1
    if mode == "resonant_R1":
        return near1 & near3
    if mode == "resonant_R2":
        return near1 | near3
    inside = np.abs(phase_phi(n, n1, n2, n3)) <= thr
    return ~near1 & ~near3 & (inside == (mode == "A_N"))


def enumerate_triples(
    n: int,
    window: int,
    N: float | None = None,
    mode: str = "A_N_complement",
) -> list[FrequencyTriple]:
    """All triples (n1, n2, n3) in [-window, window]^3 with n1-n2+n3 ~ n, by mode.

    Exhaustive within the window, duplicate-free, lexicographic in
    (n1, n2, n3).
    """
    _, n1, n2, n3 = expand_triples([n], window)
    keep = _mode_mask(n, n1, n2, n3, mode, None if N is None else float(N))
    return [
        FrequencyTriple(n, *row)
        for row in np.stack([n1[keep], n2[keep], n3[keep]], axis=1).tolist()
    ]


def c_set_radius(J: int, mu_tilde_J, mu_1):
    """The radius (2J+3)^3 max(|mu~_J|, |mu_1|)^{1-1/100} of C_J around zero.

    |mu~_{J+1}| is in C_J iff it is at most this float; elementwise on arrays.
    """
    if J < 1:
        raise DomainError(f"generation index must be >= 1, got {J}")
    k = float(2 * J + 3) ** 3
    e = 1.0 - 1.0 / 100.0
    return np.maximum(k * abs(mu_tilde_J) ** e, k * abs(mu_1) ** e)
