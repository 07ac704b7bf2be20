"""Resonant/non-resonant operator family, partial sums, and the fixed-point solver.

States are box-indexed band collections in the interaction picture (v-picture).
The driving nonlinearity is the boxed cubic

    F(v)(n) = box_n( S(t)[ |S(-t)v|^2 * S(-t)v ] ),

split per output box into the resonant part (R2 - R1), the low-phase
non-resonant part N11 (|Phi| <= N) and the high-phase part N12 (|Phi| > N).
Differentiation by parts trades N12 for a boundary term (gap-kernel sums) plus
inserted lower-order terms; iterating produces the generation operators

* ``generation_n0(v, J, N)``  — boundary sums of the generation-J tree kernels,
* ``generation_nr(v, J, N)``  — same trees with a resonant insert at one leaf,
* ``generation_n1(v, J, N)``  — non-resonant insert restricted to the low set
                                |mu~_{J+1}| <= (2J+3)^3 max(|mu~_J|,|mu_1|)^{0.99},
* ``remainder_n2(v, J, N)``   — non-resonant insert with no phase restriction
                                (the dropped tail; only its norms are used).

These standalone operators follow the constant-free convention (scalar
prefactors dropped) but
do carry the structural signs (conjugation parity of inserted slots and of the
expansion chronicle), so the partial-sum assembly ``gamma_partial`` only has
to apply scalar level weights.  The assembly itself is constant-exact: with
nonlinearity sign sigma (equation i u_t - u_xx + sigma |u|^2 u = 0) each
substitution of the equation carries i*sigma and each differentiation by
parts carries i/2 relative to the plain gap kernels; the level-j weights are

    boundary:  i*sigma * (-i*sigma)^(j-2) * (i/2)^(j-1)
    inserts : -i*sigma * [same]

which the solver-versus-reference tests pin down.

Index sums are window-bounded (windows adapt to the state's active support in
the solver) and deterministic.  The triple tables over all output boxes come
from one ``resonance.expand_triples`` call masked by the set predicate, and
are cached across Picard iterations; the tree path enumerates index functions
with the same engine.  R2 counts the doubly matched triples twice and R1 takes
them off once, so R2 - R1 is one q1 pass over the resonant set (n1 ~ n or
n3 ~ n), summed per (output box, slack) before one inverse FFT.
Heavy paths are batched in numpy, ``ROW_CHUNK`` = 128 rows at a time.  Every
operator evaluates at a node (``_Node``), one state at one time and window:
the u-picture phases exp(i t xi^2) of every box come from one table, the
FFTs of q1's factors are taken once per box and gathered by row, and the
insert states are built once for every pass there.

Each quadrature node is evaluated once, and node 0, which is v0 at every
Picard iterate, once per solve: one level loop gives the node's integrand
together with the weighted boundary of every level.  At generation one a
single gap pass over the high-phase table A_N^c gives the boundary N21 and the
insert sums together, and no row takes a transform of its own: the gap factors
X = u1/d1 and Y = u3/d3 depend only on a (box, gap) pair and are transformed
once per pair, and one contraction table per B (``_contraction``) holds the
inverse FFT and the pick of the valid convolution terms, so the middle band
enters through a per-box contraction and the rows of an (n, n1, n3) group
contract once, against their sum, and a group and its mirror (n, n3, n1) once
together.  Every insert of the pass depends on its box alone: the resonant sum
plus the box's full inner sum.  What depends only on (grid, window, N) -- the
rows, phases, pair index with its 1/d factors, slacks, row groups and their
fold -- is cached.  So is what depends on the live boxes too: one row plan
per table and live set (``_q1_plan``, ``_inner_split``, ``_gap_plan``),
keyed on the table's own key, the node's live mask as bytes and the chunk
size in force, holds the kept rows in their chunks, their gather rows and
weights, and the runs of one output box they add into; a node only gathers,
multiplies and adds.  Under the solver's support trim the nodes of a solve
see a handful of live sets, so each plan is built once per solve, not per
node.  Plans are bounded ``lru_cache`` entries like the tables, which the
benchmark empties before each operation.  The high-phase table is also the only emptiness test: its plan is
None unless some high-phase row has two live slots, and only then are the
insert states and the contractions built, so at compliant thresholds, where
that set is empty on the active window, generation one costs one plan
lookup.  The non-resonant inserts read the live q1 rows of the one phase
table (``resonance.phase_table``, also the tree frontier's index) of the
output boxes over the live boxes: summed per box
spectrum first, split at |phase| = N, they give each box's full inner sum and
N12, the part of the integrand the boundary trades away.  Only the
phase-restricted inserts of the tree path keep per-row bands, in per-box prefix
sums by phase (``_InnerBuckets``).  N32, the insert outside the level-1 low
set, is the next chain step, so it is the J = 1 tree pass, and N31 = N3 - N32.
The resonant and non-resonant insert rows share the weight and the kernels
are linear in the inserted slot, so the integrand sends their sum through the
gap pass once (less N32), and through one tree pass per level j >= 3.  Generation >= 2 operators
use the kernel-exact tree path, skipped only when the complement chain cannot
hold inside the window: per tree and insert leaf, one index-function frontier
with every output box as a root (its exact tail count drops the roots without
an index function) and one batched tree-kernel evaluation
(``multilinear._tree_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    ResourceGuardError,
)
from .grids import Field, Grid, Spectrum, forward, free_propagate
from .modulation import BandCoefficients, modulation_norm
from .multilinear import _tree_sum
from .resonance import PhaseTable, _mode_mask, c_set_radius, expand_triples, phase_table
from .trees import _frontier, _phases, compute_signs, enumerate_trees

__all__ = [
    "BoxedState",
    "Trajectory",
    "SolverParams",
    "DEFAULT_EMPIRICAL_C",
    "boxed_cubic",
    "resonant_r1",
    "resonant_r2",
    "apply_resonant",
    "apply_n11",
    "apply_n12",
    "n21_state",
    "n22_state",
    "n4_state",
    "n3_state",
    "n31_state",
    "n32_state",
    "generation_n0",
    "generation_nr",
    "generation_n1",
    "remainder_n2",
    "gamma_partial",
    "threshold_from_bound",
    "choose_parameters",
    "solve",
]

# recorded empirical stand-in for the unnamed estimate constant; re-measured
# by the harness lemma suite (max over the certification sweeps) and stable at
# desk scale
DEFAULT_EMPIRICAL_C = 0.35

SUPPORT_FLOOR = 1e-14
PICARD_MAX_ITER = 25
ASSIGNMENT_GUARD = 400_000


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True)
class BoxedState:
    """Bands v_n for n in [-n_max, n_max) as one (2*n_max, B) array."""

    grid: Grid
    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.complex128)
        if d.shape != (2 * self.grid.n_max, self.grid.bins_per_box):
            raise GridMismatchError(f"state shape {d.shape} does not match grid")
        object.__setattr__(self, "data", d)

    @staticmethod
    def zero(grid: Grid, time: float = 0.0) -> "BoxedState":
        return BoxedState(grid, np.zeros((2 * grid.n_max, grid.bins_per_box), complex), time)

    @staticmethod
    def from_spectrum(F: Spectrum, time: float = 0.0) -> "BoxedState":
        g = F.grid
        return BoxedState(g, F.coeffs.reshape(2 * g.n_max, g.bins_per_box), time)

    def to_spectrum(self) -> Spectrum:
        return Spectrum(grid=self.grid, coeffs=self.data.reshape(-1))

    def band(self, n: int) -> BandCoefficients:
        g = self.grid
        return BandCoefficients(
            box_index=n,
            grid=g,
            coeffs=self.data[n + g.n_max],
            start_bin=n * g.bins_per_box,
        )

    def box_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.data) ** 2, axis=1) / self.grid.bins_per_box)

    def lq_norm(self, q: float, s: float = 0.0) -> float:
        return modulation_norm(self.to_spectrum(), s, q)

    def active_window(self) -> int:
        norms = self.box_norms()
        total = float(np.sqrt(np.sum(norms**2)))
        if total == 0.0:
            return 0
        g = self.grid
        boxes = np.arange(-g.n_max, g.n_max)
        # the largest band is at least total / sqrt(2 n_max), so hot is not empty
        hot = boxes[norms > SUPPORT_FLOOR * total]
        return int(max(abs(hot.min()), abs(hot.max())) + 1)

    def plus(self, other: "BoxedState", w: complex = 1.0) -> "BoxedState":
        return BoxedState(self.grid, self.data + w * other.data, self.time)

    def scaled(self, w: complex) -> "BoxedState":
        return BoxedState(self.grid, w * self.data, self.time)

    def at_time(self, t: float) -> "BoxedState":
        return BoxedState(self.grid, self.data, t)


@dataclass(frozen=True)
class Trajectory:
    """States on strictly increasing quadrature nodes, times[0] = 0."""

    times: np.ndarray
    states: tuple[BoxedState, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.states) or len(t) == 0:
            raise ConfigurationError("times and states must align")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ConfigurationError("times must start at 0 and strictly increase")
        object.__setattr__(self, "times", t)


# ---------------------------------------------------------------------------
# bin geometry and batched trilinear kernels

# batch size of the row kernels: ROW_CHUNK row groups of the gap pass, whose
# (ROW_CHUNK, B, 2B) temporaries it bounds; ROW_CHUNK q1 rows of per-row
# bands, or ROW_CHUNK * B / 2 of summed spectra (both 4B long)
ROW_CHUNK = 128


def _rows(grid: Grid, boxes: np.ndarray) -> np.ndarray:
    return boxes + grid.n_max


class _Node:
    """One state at one time and window: the context every operator evaluates in.

    ``t`` defaults to the state's time, the window to the state's active
    window (at least 1), clipped to the grid.  ``alive``, the one liveness
    test, marks the boxes that hold a nonzero band; ``boxes`` lists them and
    ``live_set``, the same mask as bytes, keys the row plans.
    ``phase[box] = exp(i t xi^2)`` on the bins of every box takes v into the
    u-picture (u = v * phase); its conjugate takes a row kernel's output back.
    ``fu`` and ``fg`` are the length-4B FFTs of u and of the reversed
    conjugate g = conj(u[::-1]), the outer and middle factors of q1.  Rows
    gather them by box, which gives the numbers a per-row transform gives.
    ``inner_table`` holds the live non-resonant rows: the phase table of the
    output boxes over the live boxes.  The insert states are ``resonant``,
    (R2 - R1)(v) summed at this node, as a node of the same time and window;
    ``inner(N)``, the q1 sums of the inner table per box; and ``buckets``,
    the ``_InnerBuckets`` of the phase-restricted inserts.  All of them are
    computed on first use, once per node (``inner`` once per N), so a node
    whose rows are all dead costs one plan lookup.
    """

    def __init__(self, state: BoxedState, t: float | None = None, window: int | None = None):
        self.state = state
        self.grid = state.grid
        self.data = state.data
        self.t = state.time if t is None else t
        window = max(state.active_window(), 1) if window is None else window
        self.window = min(window, state.grid.n_max - 1)
        self.alive = np.any(state.data != 0, axis=1)
        self._inner = {}

    @cached_property
    def boxes(self) -> tuple:
        return tuple((np.flatnonzero(self.alive) - self.grid.n_max).tolist())

    @cached_property
    def phase(self) -> np.ndarray:
        g = self.grid
        B = g.bins_per_box
        xi = (np.arange(-g.n_max, g.n_max)[:, None] * B + np.arange(B)) / B
        return np.exp(1j * self.t * xi * xi)

    @cached_property
    def u(self) -> np.ndarray:
        return self.data * self.phase

    @cached_property
    def g(self) -> np.ndarray:
        return np.conj(self.u[:, ::-1])

    @cached_property
    def fu(self) -> np.ndarray:
        return np.fft.fft(self.u, 4 * self.grid.bins_per_box, axis=1)

    @cached_property
    def fg(self) -> np.ndarray:
        return np.fft.fft(self.g, 4 * self.grid.bins_per_box, axis=1)

    @cached_property
    def resonant(self) -> "_Node":
        return _Node(_table_state(self, None, "resonant_R2"), self.t, self.window)

    @cached_property
    def inner_table(self) -> PhaseTable:
        parents = tuple(_output_boxes(self.grid.n_max, self.window).tolist())
        return phase_table(parents, self.window, (self.boxes,) * 3, 1)

    def inner(self, N) -> tuple:
        """(low, high): q1 summed per box over the inner table's rows with
        |phase| <= N and with |phase| > N (``_inner_split``), spectrum first.
        high is N12; low + high is each box's full inner sum."""
        if N not in self._inner:
            plans = _inner_split(self.inner_table, N, self.grid.n_max, _q1_chunk(self.grid))
            self._inner[N] = tuple(_sum_q1_over(self, plan) for plan in plans)
        return self._inner[N]

    @cached_property
    def buckets(self) -> "_InnerBuckets":
        return _InnerBuckets(self)

    def inserts(self, boxes, N, resonant, which, sign=1, mu_prev=None, mu_first=None, J=1):
        """(T, B) insert rows at boxes: (R2 - R1)(v) if ``resonant`` plus the
        non-resonant q1 bands on the ``which`` joint-phase set of level J if
        ``which`` is given -- each box's full inner sum for "all", the rows in
        or out of the level-J low set for "low" or "high"
        (``_coupled_insert_rows``); at least one of them is asked for."""
        rows = self.resonant.data[_rows(self.grid, boxes)] if resonant else None
        if which is not None:
            if which == "all":
                bands = sum(self.inner(N))[_rows(self.grid, boxes)]
            else:
                bands = _coupled_insert_rows(self.buckets, sign, boxes, mu_prev, mu_first, J, which)
            rows = bands if rows is None else rows + bands
        return rows

    @cached_property
    def live_set(self) -> bytes:
        return self.alive.tobytes()

    @staticmethod
    def live(live_set: bytes, n_max: int, *box_arrays) -> np.ndarray:
        """Per row, how many of its boxes hold a nonzero band in a node's
        ``live_set``: taken once per row plan, not per node."""
        alive = np.frombuffer(live_set, dtype=bool)
        count = np.zeros(len(box_arrays[0]), dtype=np.int8)
        for boxes in box_arrays:
            count += alive[boxes + n_max]
        return count

    def out(self, bands: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Row bands at output boxes n back in the v-picture, normalised."""
        B = self.grid.bins_per_box
        return bands * np.conj(self.phase[_rows(self.grid, n)]) / (2.0 * np.pi * B * B)

    def state_of(self, data: np.ndarray) -> BoxedState:
        return BoxedState(self.grid, data, self.t)


def _q1_rows(node: _Node, n, n1, n2, n3) -> np.ndarray:
    """Batched q1 on the node's bands: per-row output band at box n."""
    B = node.grid.bins_per_box
    out = np.empty((len(n), B), dtype=np.complex128)
    for lo in range(0, len(n), ROW_CHUNK):
        sl = slice(lo, lo + ROW_CHUNK)
        r1, r2, r3 = (_rows(node.grid, b[sl]) for b in (n1, n2, n3))
        conv = np.fft.ifft(node.fu[r1] * node.fg[r2] * node.fu[r3], axis=1)
        d = n[sl] - (n1[sl] - n2[sl] + n3[sl])
        out[sl] = np.take_along_axis(conv, (d[:, None] + 1) * B - 1 + np.arange(B), axis=1)
    return node.out(out, n)


# ---------------------------------------------------------------------------
# triple tables (cached across calls)


def _output_boxes(n_max: int, window: int) -> np.ndarray:
    """The output boxes |n| <= 3*window + 1 of a window, clipped to the grid."""
    lim = min(3 * window + 1, n_max - 1)
    return np.arange(-lim, lim + 1, dtype=np.int64)


@lru_cache(maxsize=256)
def _triple_table(n_max: int, window: int, N_key, mode: str):
    """The rows (n, n1, n2, n3) of a frequency set over all output boxes, as
    four integer columns, lexicographic in (n, n1, n2, n3)."""
    N = None if N_key is None else float(N_key)
    boxes = _output_boxes(n_max, window)
    rows, n1, n2, n3 = expand_triples(boxes, window)
    n = boxes[rows]
    keep = _mode_mask(n, n1, n2, n3, mode, N)
    return n[keep], n1[keep], n2[keep], n3[keep]


def _mirror_fold(n, n1, n2, n3) -> tuple:
    """The rows (n, n1, n2, n3) and a fifth column, their weights in the fold under
    n1 <-> n3: rows equal up to the swap weigh their number on the first of them,
    0 on the others."""
    cols = np.stack([n, np.minimum(n1, n3), n2, np.maximum(n1, n3)])
    cols -= cols.min(axis=1, initial=0, keepdims=True)
    key = np.ravel_multi_index(tuple(cols), tuple(cols.max(axis=1, initial=0) + 1))
    _, first, size = np.unique(key, return_index=True, return_counts=True)
    return n, n1, n2, n3, np.bincount(first, size, len(key))


@lru_cache(maxsize=256)
def _q1_table(n_max: int, window: int, N_key, mode: str) -> tuple:
    """``_triple_table`` with its ``_mirror_fold`` weights."""
    return _mirror_fold(*_triple_table(n_max, window, N_key, mode))


def _q1_chunk(grid: Grid) -> int:
    """Rows of 4B per chunk of a q1 table sum: (ROW_CHUNK, B, 2B) temporaries."""
    return max(ROW_CHUNK * grid.bins_per_box // 2, 1)


def _runs(rows: np.ndarray) -> tuple:
    """(starts, state rows) of the runs of one output box in non-decreasing
    ``rows``, as in every table lexicographic in n and in the gap pass's row
    groups: ``np.add.reduceat`` at the starts sums each box's rows."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return starts, rows[starts]


def _plan_q1_rows(n_max: int, chunk: int, n, n1, n2, n3, w) -> tuple:
    """The q1 plan of rows (n, n1, n2, n3) with weights w, what ``_sum_q1_over``
    reads: per slack s = n - (n1 - n2 + n3) + 1 and chunk of ``chunk`` of its
    rows, in table order, (s, the state rows of n1, n2 and n3, the weights as
    a column, and the chunk's ``_runs``)."""
    plan = []
    for s in range(3):
        rows = np.flatnonzero(n - (n1 - n2 + n3) == s - 1)
        for lo in range(0, len(rows), chunk):
            r = rows[lo : lo + chunk]
            plan.append((s, n1[r] + n_max, n2[r] + n_max, n3[r] + n_max, w[r, None], *_runs(n[r] + n_max)))
    return tuple(plan)


@lru_cache(maxsize=64)
def _q1_plan(n_max: int, window: int, N_key, mode: str, live_set: bytes, chunk: int) -> tuple:
    """The q1 plan of the (N, mode) table's rows with three live bands in
    ``live_set`` (``_Node.live_set``) and a nonzero fold weight."""
    n, n1, n2, n3, w = _q1_table(n_max, window, N_key, mode)
    keep = (_Node.live(live_set, n_max, n1, n2, n3) == 3) & (w > 0)
    return _plan_q1_rows(n_max, chunk, *(c[keep] for c in (n, n1, n2, n3, w)))


@lru_cache(maxsize=256)
def _inner_split(tab: PhaseTable, N, n_max: int, chunk: int) -> tuple:
    """The q1 plans of a node's inner table at |phase| <= N and > N.  The
    table is one per live set and its rows are live, so only the fold
    weight selects them."""
    n, n1, n2, n3, w = _mirror_fold(tab.parents[tab.row], tab.c1, tab.c2, tab.c3)
    splits = (np.abs(tab.m) <= N, np.abs(tab.m) > N)
    return tuple(_plan_q1_rows(n_max, chunk, *(c[k & (w > 0)] for c in (n, n1, n2, n3, w))) for k in splits)


class _GapTable(NamedTuple):
    """What the gap pass needs of a triple table that no state changes.

    Per row: ``pair1`` and ``pair3``, its (box, gap) pairs (n1, n-n1) and
    (n3, n-n3), which index ``pair_box`` (state rows) and ``pair_gap`` (rows
    of ``inv_gaps``, the factors 1 / (gap + (a-b)/B)); and ``group``, its
    (n, n1, n3) group, whose rows share both pairs and have n2 = m + slack - 1,
    m = n1 + n3 - n, slack = n - (n1 - n2 + n3) + 1 in {0, 1, 2} (which
    selects the contraction table ``_contraction(B)[slack]``).  Per group, in
    (n, n1, n3) order: ``group_row``, its first row, ``group_key``, its
    row of ``keys`` = (m, its rows at slack 0, 1, 2), and ``group_weight``, its
    ``_mirror_fold`` weight among the groups of its key (same middle bands).
    """

    rows: tuple
    pair1: np.ndarray
    pair3: np.ndarray
    pair_box: np.ndarray
    pair_gap: np.ndarray
    inv_gaps: np.ndarray
    group: np.ndarray
    group_row: np.ndarray
    group_key: np.ndarray
    group_weight: np.ndarray
    keys: np.ndarray


def _gap_index(grid: Grid, table) -> _GapTable:
    B = grid.bins_per_box
    n, n1, n2, n3 = table
    pairs = np.stack([np.concatenate([n1, n3]), np.concatenate([n - n1, n - n3])], axis=1)
    pairs, inverse = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    gap_values, pair_gap = np.unique(pairs[:, 1], return_inverse=True)
    a, b = np.arange(B)[:, None], np.arange(B)[None, :]
    slack = n - (n1 - n2 + n3) + 1
    trip = np.stack([n, n1, n3], axis=1)
    _, group_row, group = np.unique(trip, axis=0, return_index=True, return_inverse=True)
    count = np.bincount(3 * group.reshape(-1) + slack, minlength=3 * len(group_row))
    keys = np.column_stack([(n1 + n3 - n)[group_row], count.reshape(-1, 3)])
    keys, group_key = np.unique(keys, axis=0, return_inverse=True)
    return _GapTable(
        rows=table,
        pair1=inverse[: len(n)],
        pair3=inverse[len(n) :],
        pair_box=_rows(grid, pairs[:, 0]),
        pair_gap=pair_gap.reshape(-1),
        inv_gaps=1.0 / (gap_values[:, None, None] + (a - b) / B),
        group=group.reshape(-1),
        group_row=group_row,
        group_key=group_key.reshape(-1),
        group_weight=_mirror_fold(*trip[group_row, :2].T, group_key.reshape(-1), trip[group_row, 2])[4],
        keys=keys,
    )


@lru_cache(maxsize=256)
def _gap_table(grid: Grid, window: int, N_key) -> _GapTable:
    """The gap index of the high-phase table A_N^c of the window."""
    return _gap_index(grid, _triple_table(grid.n_max, window, N_key, "A_N_complement"))


class _GapPlan(NamedTuple):
    """The gap pass over the row groups of a ``_GapTable`` with a row of two
    live slots and a nonzero fold weight.

    Per group key, in key order: ``mid``, the state rows of the middle bands
    m - 1 + s of its slacks s (clipped to the grid), and ``count``, its rows
    at each slack.  Per chunk of ``ROW_CHUNK`` groups, in (n, n1, n3) order,
    ``chunks`` holds (pair1, pair3, key, fold weight, the chunk's ``_runs``).
    """

    table: _GapTable
    mid: np.ndarray
    count: np.ndarray
    chunks: tuple


@lru_cache(maxsize=64)
def _gap_plan(grid: Grid, window: int, N_key, live_set: bytes, chunk: int) -> _GapPlan | None:
    """The gap plan of the window's high-phase table in ``live_set``
    (``_Node.live_set``); None when no row has two live slots."""
    gt = _gap_table(grid, window, N_key)
    n, n1, n2, n3 = gt.rows
    sel = np.flatnonzero(_Node.live(live_set, grid.n_max, n1, n2, n3) >= 2)
    if not len(sel):
        return None
    groups = np.flatnonzero(np.bincount(gt.group[sel], minlength=len(gt.group_row)) * gt.group_weight)
    keys, key = np.unique(gt.group_key[groups], return_inverse=True)
    m, count = gt.keys[keys, :1], gt.keys[keys, 1:, None]
    mid = np.clip(_rows(grid, m - 1 + np.arange(3)), 0, 2 * grid.n_max - 1)
    chunks = []
    for lo in range(0, len(groups), chunk):
        sl = slice(lo, lo + chunk)
        r = gt.group_row[groups[sl]]
        weight = gt.group_weight[groups[sl], None, None]
        chunks.append((gt.pair1[r], gt.pair3[r], key[sl], weight, *_runs(_rows(grid, n[r]))))
    return _GapPlan(gt, mid, count, tuple(chunks))


@lru_cache(maxsize=None)
def _contraction(B: int) -> np.ndarray:
    """W[s, j, a, k] = exp(2 pi i m k / 2B) / 2B on m = sB - 1 + a - j in
    [0, 2B - 2], zero elsewhere.

    For a length-2B spectrum P[a, k] of a linear convolution C[a, m],
    sum_k P[a, k] sum_j g[j] W[s, j, a, k] = sum_j C[a, sB-1+a-j] g[j]: the
    inverse FFT and the pick of the valid terms in one table, which holds no
    wrap-around term m = 2B - 1.
    """
    s, j, a, k = np.ogrid[:3, :B, :B, : 2 * B]
    m = s * B - 1 + a - j
    w = np.exp(2j * np.pi * (m * k % (2 * B)) / (2 * B)) / (2 * B)
    return np.where((m >= 0) & (m <= 2 * B - 2), w, 0.0)


def _max_abs_phase(window: int) -> float:
    """Exact maximum of |Phi| over the slack shell of the window.

    The children lie in [-window, window] and the root in |n| <= 3*window + 1
    (the output boxes of ``_triple_table``); the maximum, (2w+1)(4w+1), is
    attained at n = 3w+1 with (n1, n2, n3) = (w, -w, w).
    """
    return float((2 * window + 1) * (4 * window + 1))


def _sum_q1_over(node: _Node, plan: tuple) -> np.ndarray:
    """Sum of q1 over the rows of a q1 plan (``_plan_q1_rows``).

    A row's band is a pick at (d + 1)B - 1, d = n - (n1 - n2 + n3), of the
    inverse FFT of its product spectrum, so the spectra are summed per (n, d)
    first: one inverse FFT and one pick per (box, slack).  Each row weighs its
    ``_mirror_fold`` weight: spectrum, d and liveness are symmetric under
    n1 <-> n3, so that is exact up to rounding.
    """
    g = node.grid
    B = g.bins_per_box
    if not plan:
        return np.zeros_like(node.data)
    spectra = np.zeros((3, 2 * g.n_max, 4 * B), dtype=np.complex128)
    for s, r1, r2, r3, w, starts, boxes in plan:
        prod = w * node.fu[r1] * node.fg[r2] * node.fu[r3]
        spectra[s, boxes] += np.add.reduceat(prod, starts, axis=0)
    conv = np.fft.ifft(spectra, axis=-1)
    bands = sum(conv[s][:, s * B - 1 + np.arange(B)] for s in range(3))
    return node.out(bands, np.arange(-g.n_max, g.n_max))


# ---------------------------------------------------------------------------
# generation-one operators


def boxed_cubic(state: BoxedState, t: float | None = None) -> BoxedState:
    """Full nonlinearity box_n(S(t)[|S(-t)v|^2 S(-t)v]) via a 4x padded FFT in
    unshifted order: the phase exp(i t xi^2) on the state's M bins only, one
    ifft, the pointwise cube, one fft, and the centre bins turned back."""
    g = state.grid
    t = state.time if t is None else t
    h = g.M // 2
    xi = (np.arange(g.M) - h) / g.bins_per_box
    phase = np.exp(1j * t * xi * xi)
    u = state.data.reshape(-1) * phase
    a = np.zeros(4 * g.M, dtype=complex)
    a[:h], a[-h:] = u[h:], u[:h]
    w = np.fft.ifft(a)
    c = np.fft.fft(w * (w.real**2 + w.imag**2))
    scale = (4 * g.M / (math.sqrt(2.0 * math.pi) * g.bins_per_box)) ** 2
    out = np.concatenate((c[-h:], c[:h])) * (np.conj(phase) * scale)
    return BoxedState(g, out.reshape(2 * g.n_max, g.bins_per_box), t)


def _table_state(node: _Node, N, mode) -> BoxedState:
    """q1 summed over the (N, mode) triple table of the node's window."""
    g = node.grid
    plan = _q1_plan(g.n_max, node.window, N, mode, node.live_set, _q1_chunk(g))
    return node.state_of(_sum_q1_over(node, plan))


def apply_resonant(state: BoxedState, t: float | None = None, window: int | None = None) -> BoxedState:
    """R2 - R1 over all boxes (the resonant part of the cubic): by
    inclusion-exclusion, one q1 pass over the resonant set n1 ~ n or n3 ~ n."""
    return _Node(state, t, window).resonant.state


def resonant_r1(state: BoxedState, t: float | None = None, window: int | None = None) -> BoxedState:
    return _table_state(_Node(state, t, window), None, "resonant_R1")


def resonant_r2(state: BoxedState, t: float | None = None, window: int | None = None) -> BoxedState:
    """R2 counts the doubly matched rows twice: the resonant set plus R1."""
    node = _Node(state, t, window)
    return node.resonant.state.plus(_table_state(node, None, "resonant_R1"))


def apply_n11(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    return _table_state(_Node(state, t, window), N, "A_N")


def apply_n12(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    return _table_state(_Node(state, t, window), N, "A_N_complement")


# ---------------------------------------------------------------------------
# the generation-one gap pass: boundary and inserts


class _InnerBuckets:
    """Live non-resonant q1 bands, summed over phase intervals per box.

    The rows are those of the node's ``inner_table``: the non-resonant
    triples of the output boxes whose three boxes hold nonzero bands, one q1
    band each.  ``prefix`` holds, parent box after parent box, a zero row and
    the running sums of the box's bands in the table's phase order (a cumsum
    per box, so small boxes do not cancel against large ones), and one more
    zero row; a ``span`` run of a box, shifted by the zero rows ahead of it,
    sums to the difference of two prefix rows, and to zero for a box without
    rows.
    """

    def __init__(self, node: _Node):
        self.table = tab = node.inner_table
        bands = _q1_rows(node, tab.parents[tab.row], tab.c1, tab.c2, tab.c3)
        self.prefix = np.zeros((len(bands) + len(tab.parents) + 1, bands.shape[1]), complex)
        for k in np.flatnonzero(tab.stop > tab.start):
            a, b = tab.start[k], tab.stop[k]
            np.cumsum(bands[tab.order[a:b]], axis=0, out=self.prefix[a + k + 1 : b + k + 1])

    def sum(self, boxes, lo=-np.inf, hi=np.inf) -> np.ndarray:
        """(T, B) band sums over the rows of box boxes[t] with lo[t] <= phase <= hi[t].

        The bounds may be non-integer or infinite.
        """
        i, j = self.table.span(boxes, lo, hi)
        k = np.searchsorted(self.table.parents, boxes)  # zero rows ahead of the box's rows
        return self.prefix[j + k] - self.prefix[i + k]


def _low_set(sign, mu_prev, mu_first, J):
    """Bounds [lo, hi] of the inner phases mu in the level-J low set
    |mu_prev + sign*mu| <= ``c_set_radius(J, mu_prev, mu_first)``."""
    K = c_set_radius(J, mu_prev, mu_first)
    center = -sign * np.asarray(mu_prev, dtype=float)
    return center - K, center + K


def _coupled_insert_rows(buckets, sign, boxes, mu_prev, mu_first, J, which):
    """(T, B) insert rows, restricted by the level-J phase set.

    ``sign`` is the conjugation sign the insert enters with: which = "low"
    keeps the ``_low_set``, "high" its complement, the box's whole sum less
    the low one; wherever the low set's run is the box's whole run, both are
    the same difference of two prefix rows, so the row is exactly 0.0.
    """
    lo, hi = _low_set(sign, mu_prev, mu_first, J)
    low = buckets.sum(boxes, lo, hi)
    return low if which == "low" else buckets.sum(boxes) - low


class _GenerationOne(NamedTuple):
    boundary: BoxedState
    inserts: BoxedState | None
    n12: BoxedState | None


def _generation_one(node: _Node, N, resonant=False, which=None):
    """Generation one at a node, in one pass over the high-phase rows.

    ``boundary`` is N21, the gap kernel summed over A_N^c.  ``inserts`` sums,
    over A_N^c and the three slots, fsgn(slot) * q1_tilde(... insert at
    slot ...), where the insert is (R2 - R1)(v) if ``resonant`` plus, if
    which = "all", the box's full non-resonant inner sum; it is None when
    neither is asked for.  ``n12`` is N12, the high-phase part of the same
    inner sums (``_Node.inner``), when ``which`` is given.  The phase-restricted
    inserts are the tree path's (N32 is its J = 1 pass).

    Per row, output bin a of the gap kernel sums u1[b] g2[j] u3[c] /
    (d1[a,b] d3[a,c]) over the bins with b + c = sB - 1 + a - j, where s - 1
    is the row's slack and d1 = (n-n1) + (a-b)/B, d3 = (n-n3) + (a-c)/B are
    the gaps.  With X[a,b] = u1[b]/d1 and Y[a,c] = u3[c]/d3 that is
    sum_j (X * Y)[a, sB-1+a-j] g2[j], where X * Y is the linear convolution
    over the last axis, whose zero-padded length-2B spectrum is FX.FY.  The
    contraction table W = ``_contraction(B)`` holds the inverse FFT and the
    pick of the valid terms, so the row's output is sum_k FX.FY.G^ with
    G^ = g2 @ W[s].  FX and FY depend only on the (box, gap) pair and are
    computed once per pair.  The rows of an (n, n1, n3) group share them, so
    a group contracts once against S = sum over its slacks s of
    G^[m + s - 1, s], m = n1 + n3 - n, which depends only on the group's key
    (``_GapTable``) and is computed once per key.

    A slot insert depends on the slot's box alone, so it is transformed with
    u, once per (box, gap) pair (FX', FY'), and its H^ = conj(x[::-1]) @ W[s]
    summed per key into S'.  With slot signs (+1, -1, +1) a group's insert is
    sum_k [(FX'.FY + FX.FY').S - FX.FY.S'].  Both are symmetric in X and Y,
    read from one table F[0], so a group and its mirror (n, n3, n1) with the
    same key give one band, and each group contracts once with its fold weight
    (``_GapTable.group_weight``) if it has a row of at least two live slots (a
    row with fewer contributes exact zeros); if there are none, nothing is built.
    """
    if which not in (None, "all"):
        raise ConfigurationError(f"the gap pass takes which = None or 'all', not {which!r}")
    g = node.grid
    B = g.bins_per_box
    plan = _gap_plan(g, node.window, N, node.live_set, ROW_CHUNK)
    inserting = resonant or which is not None
    bnd = np.zeros_like(node.data)
    ins = np.zeros_like(node.data) if inserting else None
    n12 = np.zeros_like(node.data) if which is not None else None
    if plan is not None:
        gt = plan.table
        # per-box factors in the u-picture: u, then the per-box insert
        factors = [node.u]
        all_boxes = np.arange(-g.n_max, g.n_max)
        if which is not None:
            n12[:] = node.inner(N)[1]
        if inserting:
            factors.append(node.inserts(all_boxes, N, resonant, which) * node.phase)

        # FX of every factor and (box, gap) pair: X zero-padded to 2B, in place
        F = np.zeros((len(factors), len(gt.pair_box), B, 2 * B), dtype=np.complex128)
        for f, x in zip(factors, F):
            np.multiply(f[gt.pair_box, None, :], gt.inv_gaps[gt.pair_gap], out=x[..., :B])
        np.fft.fft(F, axis=-1, out=F)
        # S[f, key] = sum_s count_s G^[m + s - 1, s], the middle bands of the
        # key's slacks (zero at a slack without rows) contracted with W
        W = _contraction(B)
        S = np.stack([np.tensordot(plan.count * np.conj(f[plan.mid, ::-1]), W, 2) for f in factors])
        # per box, the summed boundary and insert rows of the groups
        acc = np.zeros((len(node.data), len(factors), B), dtype=np.complex128)
        for pair1, pair3, k, weight, starts, boxes in plan.chunks:
            band = np.empty((len(pair1), len(factors), B), dtype=np.complex128)
            fx, fy = F[0, pair1], F[0, pair3]
            xy = fx * fy
            band[:, 0] = np.einsum("tak,tak->ta", xy, S[0, k])
            if inserting:
                fy *= F[1, pair1]
                fy += fx * F[1, pair3]  # FX'.FY + FX.FY'
                band[:, 1] = np.einsum("tak,tak->ta", fy, S[0, k])
                band[:, 1] -= np.einsum("tak,tak->ta", xy, S[1, k])
            band *= weight
            acc.reshape(len(acc), -1)[boxes] += np.add.reduceat(band.reshape(len(pair1), -1), starts, axis=0)
        # the output phase and normalisation depend on the box alone
        for k, out in enumerate((bnd, ins)[: len(factors)]):
            out[:] = node.out(acc[:, k], all_boxes)

    return _GenerationOne(*(None if d is None else node.state_of(d) for d in (bnd, ins, n12)))


def n21_state(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Boundary sum over the high-phase set: sum of gap kernels (generation one)."""
    return _generation_one(_Node(state, t, window), N).boundary


def n4_state(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Resonant insert sum: (R2 - R1)(v) substituted at each slot."""
    return _generation_one(_Node(state, t, window), N, resonant=True).inserts


def _generation_one_low(node: _Node, N, resonant=False) -> _GenerationOne:
    """``_generation_one`` with the non-resonant insert restricted to the
    level-1 low set: N31 = N3 - N32, where N32, the insert on its complement,
    is the J = 1 tree pass."""
    first = _generation_one(node, N, resonant, "all")
    n32 = _tree_level_sum(node, 1, N, which="high")
    return first._replace(inserts=first.inserts.plus(n32, -1.0))


def n3_state(state, N, t=None, window=None):
    """Full non-resonant insert sum at generation one (no phase restriction)."""
    return _generation_one(_Node(state, t, window), N, which="all").inserts


def n31_state(state, N, t=None, window=None):
    """Non-resonant insert restricted to the low joint-phase set."""
    return _generation_one_low(_Node(state, t, window), N).inserts


def n32_state(state, N, t=None, window=None):
    """Non-resonant insert on the high joint-phase complement (next remainder)."""
    return _tree_level_sum(_Node(state, t, window), 1, N, which="high")


def n22_state(state, N, t=None, window=None):
    """The substituted time-derivative term: resonant plus non-resonant inserts."""
    return _generation_one(_Node(state, t, window), N, resonant=True, which="all").inserts


# ---------------------------------------------------------------------------
# generation >= 2 operators via the kernel-exact tree path


def _chain_possible(J: int, N: float, window: int) -> bool:
    """Can the complement chain hold for all j = 2..J inside the window?

    A necessary prefilter, not a sufficient one: False means no index function
    of J generations exists, so the tree path returns zero without
    enumerating; True means only that the bounds below do not exclude one.
    Recursive lower bounds: the level-j prefix must exceed
    (2j+1)^3 * max(L_{j-1}, L_1)^{0.99} where L_{j-1} bounds the previous
    prefix from below, while |mu~_j| <= j * max|Phi|(window), with the exact
    window maximum from ``_max_abs_phase``.  Both bounds are loose (non-resonance
    keeps |mu_1| well above N + 1), so the exact emptiness test is the
    frontier's own tail count.
    """
    cap = _max_abs_phase(window)
    L = math.floor(N) + 1.0  # integer phases above the threshold
    L1 = L
    for j in range(2, J + 1):
        L = (2 * j + 1) ** 3 * max(L, L1) ** 0.99
        if j * cap <= L:
            return False
    return True


def _tree_sign(tree, signs) -> int:
    s = 1
    for a in tree.chronicle[1:]:
        s *= signs.fsgn[a]
    return s


def _tree_level_sum(node: _Node, J, N, resonant=False, which=None, allowed_all=None):
    """Sum over T(J) trees and chain-filtered assignments at a node.

    With no insert asked for this is the boundary sum; otherwise one leaf
    carries the insert, which is (R2 - R1)(v) if ``resonant`` plus the
    non-resonant q1 bands on the ``which`` joint-phase set ("all", "low" or
    "high") if ``which`` is given (``_Node.inserts``).  The "high" set is the
    next chain step, so a "high" insert alone is zero unless the chain of
    J + 1 levels is possible.
    ``allowed_all``, when given, becomes the operative box window for every
    node of every tree (sparse-support runs).

    Per tree and insert leaf, one frontier with every output box as a root
    gives all index functions as integer rows; the leaf rows come from one
    u-picture table of the state (and its conjugate), the insert rows from
    the node's insert states (``_Node.inserts``), rows whose insert is
    exactly zero are dropped, and ``multilinear._tree_sum`` evaluates the
    rest per slack pattern and scatters them to their root boxes.  The
    output phase is applied once, to the sum.
    """
    g = node.grid
    w = node.window
    levels = J + 1 if which == "high" and not resonant else J
    if not _chain_possible(levels, N, w) or not node.boxes:
        return BoxedState.zero(g, node.t)
    internal_allowed = set(allowed_all) if allowed_all is not None else None
    active = set(node.boxes)
    inserting = resonant or which is not None
    insert_boxes = set(node.resonant.boxes if resonant else ())
    if which is not None:
        tab = node.inner_table
        insert_boxes |= set(tab.parents[tab.stop > tab.start].tolist())
    if allowed_all is not None:
        active &= internal_allowed
        insert_boxes &= internal_allowed
    roots = _output_boxes(g.n_max, w)
    # u-picture leaf values, plain (index 0) and conjugated (index 1)
    table = np.stack([node.u, np.conj(node.u)])
    data = np.zeros_like(node.data)
    count = 0
    for tree in enumerate_trees(J):
        signs = compute_signs(tree)
        tsign = _tree_sign(tree, signs)
        leaf_ids = list(tree.terminal_ids())
        conj = np.array([signs.fsgn[b] == -1 for b in leaf_ids], dtype=np.intp)
        sets = {a: internal_allowed for a in tree.chronicle[1:]}
        sets.update({b: active for b in leaf_ids})
        for li in range(len(leaf_ids)) if inserting else [None]:
            node_sets = dict(sets)
            if li is not None:
                node_sets[leaf_ids[li]] = insert_boxes
            freq = _frontier(tree, roots, w, N, node_sets.get, ASSIGNMENT_GUARD)
            count += len(freq)
            if count > ASSIGNMENT_GUARD:
                raise ResourceGuardError("tree-level operator sum exceeded the assignment guard")
            leaf_rows = _rows(g, freq[:, leaf_ids])
            sign = tsign
            if li is not None:
                leaf = leaf_ids[li]
                mu, _ = _phases(tree, freq)
                inserts = node.inserts(
                    freq[:, leaf], N, resonant, which, signs.fsgn[leaf],
                    mu.sum(axis=1).astype(float), mu[:, 0].astype(float), J,
                )
                live = np.any(inserts != 0, axis=1)
                freq, leaf_rows, inserts = freq[live], leaf_rows[live], inserts[live]
                sign *= signs.fsgn[leaf]
            u = table[conj, leaf_rows]
            if li is not None:
                inserts = inserts * node.phase[leaf_rows[:, li]]
                u[:, li] = np.conj(inserts) if conj[li] else inserts
            data += _tree_sum(tree, freq, u, _rows(g, freq[:, 0]), len(data), sign)
    return node.state_of(data * np.conj(node.phase))


def generation_n0(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Boundary operator at level J+1 (trees with J generations)."""
    if J == 1:
        return n21_state(state, N, t, window)
    return _tree_level_sum(_Node(state, t, window), J, N)


def generation_nr(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Resonant-insert operator at level J+1."""
    if J == 1:
        return n4_state(state, N, t, window)
    return _tree_level_sum(_Node(state, t, window), J, N, resonant=True)


def generation_n1(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Low-phase non-resonant insert at level J+1."""
    if J == 1:
        return n31_state(state, N, t, window)
    return _tree_level_sum(_Node(state, t, window), J, N, which="low")


def remainder_n2(
    state: BoxedState,
    J: int,
    N: float,
    t: float | None = None,
    window: int | None = None,
    allowed_all=None,
) -> BoxedState:
    """Unrestricted non-resonant insert at level J+1 (the dropped tail).

    ``allowed_all`` restricts every tree node to a box set (the sparse-support
    window used by the remainder-decay study); J = 1 then also goes through
    the tree path so all levels share the same operative window.
    """
    if J == 1 and allowed_all is None:
        return n3_state(state, N, t, window)
    return _tree_level_sum(_Node(state, t, window), J, N, which="all", allowed_all=allowed_all)


# ---------------------------------------------------------------------------
# parameter selection


@dataclass(frozen=True)
class SolverParams:
    J: int
    N: float
    T: float
    q: float
    s: float = 0.0
    R: float = 1.0
    R_tilde: float = 4.0
    K: int = 16
    picard_tol: float = 1e-12
    sign: int = +1
    window: int | None = None
    support_trim: float = 0.0  # relative band floor zeroed between iterates

    def validate(self):
        if not (1.0 <= self.q <= 2.0):
            raise ConfigurationError(f"q must lie in [1, 2], got {self.q}")
        if self.J < 1 or self.K < 2 or self.T <= 0:
            raise ConfigurationError("need J >= 1, K >= 2, T > 0")
        if self.support_trim < 0 or (self.window is not None and self.window < 1):
            raise ConfigurationError("need support_trim >= 0 and window >= 1")
        if self.sign not in (+1, -1):
            raise ConfigurationError("sign must be +1 or -1")
        if self.N < threshold_from_bound(self.R_tilde, self.q) - 1e-9:
            raise ConfigurationError(
                f"threshold N={self.N} below the geometric-series bound"
            )
        if DEFAULT_EMPIRICAL_C * self.T * _t_bracket(self.N, self.q, self.R_tilde) >= 0.1:
            raise ConfigurationError("time horizon violates the smallness condition")


def threshold_from_bound(R_tilde: float, q: float) -> float:
    """Smallest admissible threshold (2*R~^2)^(100 q' / (99 (q'-1))).

    q = 1 takes the limit exponent 100/99.
    """
    if not (1.0 <= q <= 2.0):
        raise DomainError(f"q must lie in [1, 2], got {q}")
    if q == 1.0:
        expo = 100.0 / 99.0
    else:
        qp = q / (q - 1.0)
        expo = 100.0 * qp / (99.0 * (qp - 1.0))
    return float(np.ceil((2.0 * R_tilde**2) ** expo))


def _t_bracket(N: float, q: float, R_tilde: float) -> float:
    """The bracket multiplying C*T in the smallness condition (limit exponents)."""
    qp = math.inf if q == 1.0 else q / (q - 1.0)
    inv_qp = 0.0 if qp == math.inf else 1.0 / qp
    term1 = (1.0 + N**inv_qp) * R_tilde**2
    term2 = 2.0 * N ** (inv_qp - 1.0) * R_tilde**4
    expo3 = -1.0 if qp == math.inf else (199.0 - 100.0 * qp) / (100.0 * qp)
    term3 = 2.0 * N**expo3 * R_tilde**4
    return term1 + term2 + term3


def choose_parameters(
    R: float,
    q: float,
    J: int = 2,
    s: float = 0.0,
    K: int = 16,
    sign: int = +1,
) -> SolverParams:
    """Threshold and horizon from the a-priori bound R (R~ = 4R).

    N is the geometric-series bound ceiling; T makes C*T*[bracket] = 0.099,
    with the recorded empirical constant standing in for the unnamed one.
    The separate largeness condition C*N^((1-q')/(100 q')) < 1/10 is reported
    by the harness rather than enforced (see the lemma suite).
    """
    if R < 1.0:
        raise DomainError(f"a-priori bound must satisfy R >= 1, got {R}")
    R_tilde = 4.0 * R
    N = threshold_from_bound(R_tilde, q)
    T = 0.099 / (DEFAULT_EMPIRICAL_C * _t_bracket(N, q, R_tilde))
    p = SolverParams(
        J=J, N=N, T=T, q=q, s=s, R=R, R_tilde=R_tilde, K=K, sign=sign,
    )
    p.validate()
    return p


# ---------------------------------------------------------------------------
# the partial-sum map and the solver


def _level_weights(j: int, sigma: int) -> tuple[complex, complex]:
    """(boundary, insert) scalar weights of level j in the exact assembly."""
    s_j = (1j * sigma) * (-1j * sigma) ** (j - 2)
    half = (0.5j) ** (j - 1)
    return s_j * half, -1j * sigma * s_j * half


def _integrand(state, params):
    """i*sigma*[(R2-R1) + N11] plus the insert sums of levels 2..J, and the
    boundary sums of levels 2..J, each with its level weight, at the same
    state and time (the boundary is zero at J = 1).

    All levels evaluate at one node, which builds the insert states once.
    Level 2 comes from one generation-one pass, less N32 (the J = 1 tree
    pass, ``_generation_one_low``).  Each level j >= 3 takes its
    boundary from one tree pass and its resonant and low-set inserts, which
    share the weight, from another.
    """
    sigma, N = params.sign, params.N
    node = _Node(state, window=params.window)
    first = None if params.J == 1 else _generation_one_low(node, N, resonant=True)
    n12 = _table_state(node, N, "A_N_complement") if first is None else first.n12
    # (R2-R1) + N11 == full cubic minus N12 (the decomposition identity)
    total = boxed_cubic(state, node.t).plus(n12, -1.0).scaled(1j * sigma)
    boundary = BoxedState.zero(state.grid, node.t)
    for j in range(2, params.J + 1):
        w_bnd, w_ins = _level_weights(j, sigma)
        if j == 2:
            bnd, inserts = first.boundary, first.inserts
        else:
            bnd = _tree_level_sum(node, j - 1, N)
            inserts = _tree_level_sum(node, j - 1, N, resonant=True, which="low")
        total = total.plus(inserts, w_ins)
        boundary = boundary.plus(bnd, w_bnd)
    return total, boundary


def gamma_partial(v0: BoxedState, v: Trajectory, params: SolverParams) -> Trajectory:
    """One application of the level-J partial-sum map along the trajectory.

    Boundary terms are evaluated at the running time for v and at time zero
    for v0, exactly as the telescoped series prescribes; the time integral is
    a composite trapezoid on the trajectory nodes.  Each node is evaluated
    once: the boundary of every level comes with the node's integrand
    (``_integrand``).  Where v(0) = v0 the map is v0 at node 0, exactly: the
    integral there is empty and the two boundaries cancel.
    """
    params.validate()
    if abs(v.times[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise ConfigurationError("trajectory must live on [0, T]")
    return _gamma_partial(v0, v, params, _integrand(v0.at_time(0.0), params))


def _gamma_partial(v0: BoxedState, v: Trajectory, params: SolverParams, start: tuple) -> Trajectory:
    """``gamma_partial`` on a trajectory over [0, T], with v0's ``_integrand``
    pair at time zero given as ``start``.

    Where v(0) = v0, as at every Picard iterate of ``solve``, node 0 maps to
    v0 and takes v0's integrand; otherwise it is evaluated like the others.
    """
    times = v.times
    g = v0.grid
    from_v0 = np.array_equal(v.states[0].data, v0.data)
    nodes = [
        start if k == 0 and from_v0 else _integrand(st.at_time(tt), params)
        for k, (st, tt) in enumerate(zip(v.states, times))
    ]

    out_states = []
    integral = BoxedState.zero(g)
    for k, tt in enumerate(times):
        if k == 0 and from_v0:
            out_states.append(v0.at_time(tt))
            continue
        if k > 0:
            dt = times[k] - times[k - 1]
            integral = integral.plus(nodes[k - 1][0], 0.5 * dt).plus(nodes[k][0], 0.5 * dt)
        acc = v0.data + integral.data - start[1].data + nodes[k][1].data
        out_states.append(BoxedState(g, acc, tt))
    return Trajectory(times=times, states=tuple(out_states))


def _traj_distance(a: Trajectory, b: Trajectory, q: float, s: float) -> float:
    return max(
        sa.plus(sb, -1.0).lq_norm(q, s) for sa, sb in zip(a.states, b.states)
    )


def _trim_state(st: BoxedState, rel: float) -> BoxedState:
    """Zero bands below rel * (largest band norm); documented solver truncation."""
    if rel <= 0.0:
        return st
    norms = st.box_norms()
    cut = rel * float(norms.max(initial=0.0))
    if cut == 0.0:
        return st
    data = np.where(norms[:, None] >= cut, st.data, 0.0)
    return BoxedState(st.grid, data, st.time)


def solve(u0, params: SolverParams):
    """Fixed-point iteration of the partial-sum map from constant-in-time data.

    ``u0`` may be a Field, Spectrum or BoxedState (at time zero the pictures
    agree).  Returns the trajectory mapped back to the original picture via
    the free flow, plus a diagnostics dict with the contraction history.
    """
    params.validate()
    if isinstance(u0, Field):
        v0 = BoxedState.from_spectrum(forward(u0), 0.0)
    elif isinstance(u0, Spectrum):
        v0 = BoxedState.from_spectrum(u0, 0.0)
    else:
        v0 = u0.at_time(0.0)
    v0 = _trim_state(v0, params.support_trim)
    norm0 = v0.lq_norm(params.q, params.s)
    if norm0 > params.R + 1e-9:
        raise ConfigurationError(
            f"initial norm {norm0:.3g} exceeds the declared bound R={params.R}"
        )
    times = np.linspace(0.0, params.T, params.K + 1)
    current = Trajectory(times=times, states=tuple(v0.at_time(t) for t in times))
    start = _integrand(v0, params)
    diffs: list[float] = []
    ratios: list[float] = []
    for it in range(PICARD_MAX_ITER):
        nxt = _gamma_partial(v0, current, params, start)
        if params.support_trim > 0.0:
            nxt = Trajectory(
                times=nxt.times,
                states=tuple(_trim_state(st, params.support_trim) for st in nxt.states),
            )
        d = _traj_distance(nxt, current, params.q, params.s)
        if diffs:
            ratios.append(d / diffs[-1] if diffs[-1] > 0 else 0.0)
        diffs.append(d)
        current = nxt
        if d < params.picard_tol * max(1.0, params.R_tilde):
            break
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise DivergenceError(
                "fixed-point iteration stopped contracting", ratios=ratios
            )
    else:  # no break: the last difference was never below the tolerance
        raise DivergenceError(f"no convergence in {PICARD_MAX_ITER} iterations", ratios=ratios)
    u_states = tuple(
        BoxedState.from_spectrum(
            free_propagate(st.to_spectrum(), tt, direction=-1), tt
        )
        for st, tt in zip(current.states, times)
    )
    report = {
        "iterations": len(diffs),
        "diffs": diffs,
        "ratios": ratios,
        "initial_norm": norm0,
    }
    return Trajectory(times=times, states=u_states), report
