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
with the same engine.  Heavy paths are batched in numpy.  At generation one
the high-phase table is the only emptiness test: the insert states
(resonant sum, inner phase buckets) are built only when some high-phase row
has live bands in its other two slots, so at compliant thresholds, where
that set is empty on the active window, the insert operators cost one table
lookup.  The non-resonant inserts read one flat phase index: the live q1
bands sorted by (box, integer phase) with per-box prefix sums, so the
"all", "low" and "high" joint-phase rows of every slot, and of every
enumerated tree assignment, come from one vectorised lookup.  The integrand
makes one insert pass per quadrature node at generation one: the resonant
and low-set insert rows share the weight and the gap kernel is linear in the
inserted slot, so their sum goes through the kernel once.  Generation >= 2
operators use the kernel-exact tree path, skipped only when the complement
chain cannot hold inside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    ResourceGuardError,
)
from .grids import Field, Grid, Spectrum, forward, free_propagate, inverse, make_grid
from .modulation import BandCoefficients, modulation_norm
from .multilinear import BandTuple, q_tree
from .resonance import QUARTIC, _mode_mask, expand_triples, phase_value
from .trees import compute_signs, enumerate_trees, enumerate_index_functions

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
        return modulation_norm(self.to_spectrum(), s, 2, q)

    def active_window(self, floor: float = SUPPORT_FLOOR) -> int:
        norms = self.box_norms()
        total = float(np.sqrt(np.sum(norms**2)))
        if total == 0.0:
            return 0
        g = self.grid
        boxes = np.arange(-g.n_max, g.n_max)
        hot = boxes[norms > floor * total]
        if len(hot) == 0:
            return 0
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


def _rows(grid: Grid, boxes: np.ndarray) -> np.ndarray:
    return boxes + grid.n_max


def _u_rows(B, t, v, n):
    """Bands v at boxes n times exp(i t xi^2): into the u-picture at t, back at -t."""
    xi = (n[:, None] * B + np.arange(B)) / B
    return v * np.exp(1j * t * xi * xi)


def _q1_rows(grid, t, v1, v2, v3, n, n1, n2, n3):
    """Batched q1: per-row v-picture bands -> per-row output band at box n."""
    B = grid.bins_per_box
    u1 = _u_rows(B, t, v1, n1)
    u3 = _u_rows(B, t, v3, n3)
    g2 = np.conj(_u_rows(B, t, v2, n2)[:, ::-1])
    L = 4 * B
    conv = np.fft.ifft(
        np.fft.fft(u1, L, axis=1) * np.fft.fft(g2, L, axis=1) * np.fft.fft(u3, L, axis=1),
        axis=1,
    )
    d = n - (n1 - n2 + n3)
    idx = (d[:, None] + 1) * B - 1 + np.arange(B)
    out = np.take_along_axis(conv, idx, axis=1)
    return _u_rows(B, -t, out, n) / (2.0 * np.pi * B * B)


def _q1_tilde_rows(grid, t, v1, v2, v3, n, n1, n2, n3, chunk=512):
    """Batched gap-kernel operator; rows as in _q1_rows, gaps must be >= 2.

    Per row, output bin a sums u1[b] u3[c] g2[2B-1+a-b-c] / (d1[a,b] d3[a,c])
    over bins b, c, with g2 placed in a 3B buffer at its slack offset and the
    gaps d1 = (n-n1) + (a-b)/B, d3 = (n-n3) + (a-c)/B.  Each gap factor
    depends on one of b, c only, so with X[a,b] = u1[b]/d1[a,b] and
    Y[a,c] = u3[c]/d3[a,c] the double sum is sum_m (X * Y)[a,m] g2[2B-1+a-m],
    where X * Y is the linear convolution over the last axis (length 2B-1,
    taken as a zero-padded length-2B FFT product).  The sum stays exact; a row
    costs O(B^2 log B) instead of the O(B^3) of the (b, c) double sum, and the
    largest temporary is (chunk, B, 2B).
    """
    B = grid.bins_per_box
    T = len(n)
    out = np.zeros((T, B), dtype=np.complex128)
    a_min_b = (np.arange(B)[:, None] - np.arange(B)[None, :]) / B  # (a, b)
    # shared gather index: padded middle blocks make the offset row-free
    gidx = 2 * B - 1 + np.arange(B)[:, None] - np.arange(2 * B - 1)[None, :]  # (a, m)
    for lo in range(0, T, chunk):
        hi = min(lo + chunk, T)
        sl = slice(lo, hi)
        u1 = _u_rows(B, t, v1[sl], n1[sl])
        u3 = _u_rows(B, t, v3[sl], n3[sl])
        g2 = np.conj(_u_rows(B, t, v2[sl], n2[sl])[:, ::-1])
        d1 = (n[sl] - n1[sl])[:, None, None] + a_min_b[None]  # (t, a, b)
        d3 = (n[sl] - n3[sl])[:, None, None] + a_min_b[None]
        dd = n[sl] - (n1[sl] - n2[sl] + n3[sl])
        padded = np.zeros((hi - lo, 3 * B), dtype=np.complex128)
        cols = (1 - dd)[:, None] * B + np.arange(B)
        np.put_along_axis(padded, cols, g2, axis=1)
        conv = np.fft.ifft(
            np.fft.fft(u1[:, None, :] / d1, 2 * B) * np.fft.fft(u3[:, None, :] / d3, 2 * B)
        )[..., : 2 * B - 1]
        out[sl] = np.einsum("tam,tam->ta", conv, padded[:, gidx])
    return _u_rows(B, -t, out, n) / (2.0 * np.pi * B * B)


# ---------------------------------------------------------------------------
# triple tables (cached across calls)


@lru_cache(maxsize=256)
def _triple_table(n_max: int, window: int, N_key, mode: str, convention: str):
    """Stacked triple arrays (n, n1, n2, n3, weight) over all output boxes.

    Lexicographic in (n, n1, n2, n3).  The R2 weight is two on the doubly
    matched overlap (n1 ~ n and n3 ~ n), one elsewhere and in every other mode.
    """
    N = None if N_key is None else float(N_key)
    out_lim = min(3 * window + 1, n_max - 1)
    boxes = np.arange(-out_lim, out_lim + 1, dtype=np.int64)
    rows, n1, n2, n3 = expand_triples(boxes, window)
    n = boxes[rows]
    keep = _mode_mask(n, n1, n2, n3, mode, N, convention)
    n, n1, n2, n3 = n[keep], n1[keep], n2[keep], n3[keep]
    weight = np.ones(len(n))
    if mode == "resonant_R2":
        weight += (np.abs(n1 - n) <= 1) & (np.abs(n3 - n) <= 1)
    return n, n1, n2, n3, weight


def _max_abs_phase(window: int) -> float:
    """Exact maximum of |Phi| over the slack shell of the window.

    The children lie in [-window, window] and the root in |n| <= 3*window + 1
    (the output boxes of ``_triple_table``); the maximum, (2w+1)(4w+1), is
    attained at n = 3w+1 with (n1, n2, n3) = (w, -w, w).
    """
    return float((2 * window + 1) * (4 * window + 1))


def _window_of(state: BoxedState, window: int | None) -> int:
    if window is not None:
        return min(window, state.grid.n_max - 1)
    w = state.active_window()
    return min(max(w, 1), state.grid.n_max - 1)


def _scatter_rows(state_grid: Grid, n_rows, bands, weights=None) -> np.ndarray:
    out = np.zeros((2 * state_grid.n_max, state_grid.bins_per_box), dtype=np.complex128)
    if len(n_rows) == 0:
        return out
    vals = bands if weights is None else bands * weights[:, None]
    np.add.at(out, _rows(state_grid, n_rows), vals)
    return out


def _alive_mask(state: BoxedState, *box_arrays):
    alive = np.any(state.data != 0, axis=1)
    keep = np.ones(len(box_arrays[0]), dtype=bool)
    for boxes in box_arrays:
        keep &= alive[_rows(state.grid, boxes)]
    return keep


def _sum_q1_over(state: BoxedState, t: float, table, kernel=_q1_rows) -> np.ndarray:
    """Sum of the row kernel over the table rows whose three bands are live."""
    n, n1, n2, n3, w = table
    keep = _alive_mask(state, n1, n2, n3)
    n, n1, n2, n3, w = n[keep], n1[keep], n2[keep], n3[keep], w[keep]
    if len(n) == 0:
        return np.zeros_like(state.data)
    g = state.grid
    v1 = state.data[_rows(g, n1)]
    v2 = state.data[_rows(g, n2)]
    v3 = state.data[_rows(g, n3)]
    bands = kernel(g, t, v1, v2, v3, n, n1, n2, n3)
    return _scatter_rows(g, n, bands, w)


# ---------------------------------------------------------------------------
# generation-one operators


def boxed_cubic(state: BoxedState, t: float | None = None) -> BoxedState:
    """Full nonlinearity box_n(S(t)[|S(-t)v|^2 S(-t)v]) via a 4x padded grid."""
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


def _table_state(state, t, window, N, mode, kernel=_q1_rows) -> BoxedState:
    """The row kernel summed over the (N, mode) triple table of the window."""
    t = state.time if t is None else t
    table = _triple_table(state.grid.n_max, _window_of(state, window), N, mode, QUARTIC)
    return BoxedState(state.grid, _sum_q1_over(state, t, table, kernel), t)


def apply_resonant(state: BoxedState, t: float | None = None, window: int | None = None) -> BoxedState:
    """R2 - R1 over all boxes (the resonant part of the cubic)."""
    r2 = _table_state(state, t, window, None, "resonant_R2")
    r1 = _table_state(state, t, window, None, "resonant_R1")
    return r2.plus(r1, -1.0)


def resonant_r1(state: BoxedState, n: int, t: float | None = None, window: int | None = None) -> BandCoefficients:
    return _table_state(state, t, window, None, "resonant_R1").band(n)


def resonant_r2(state: BoxedState, n: int, t: float | None = None, window: int | None = None) -> BandCoefficients:
    return _table_state(state, t, window, None, "resonant_R2").band(n)


def apply_n11(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    return _table_state(state, t, window, N, "A_N")


def apply_n12(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    return _table_state(state, t, window, N, "A_N_complement")


def n21_state(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Boundary sum over the high-phase set: sum of gap kernels (generation one)."""
    return _table_state(state, t, window, N, "A_N_complement", _q1_tilde_rows)


# ---------------------------------------------------------------------------
# inserted sums at generation one (slot signs from the conjugation parity)

_SLOT_SIGNS = (+1, -1, +1)


class _InnerBuckets:
    """Live non-resonant q1 bands in one flat index sorted by (box, integer phase).

    ``prefix`` holds, box after box, a zero row and then the running sums of
    that box's bands, and ends with one more zero row, so the bands of a box
    with phase in [lo, hi] sum to the difference of two prefix rows.  The rows
    are found by one searchsorted on int64 keys box * width + phase offset,
    ordered box-major, then by phase; a box without live rows, below, between
    or above the indexed ones, lands on a zero row and sums to zero.
    """

    def __init__(self, state: BoxedState, t: float, window: int):
        g = state.grid
        n, n1, n2, n3, _ = _triple_table(g.n_max, window, math.inf, "A_N", QUARTIC)
        keep = _alive_mask(state, n1, n2, n3)
        n, n1, n2, n3 = n[keep], n1[keep], n2[keep], n3[keep]
        bands = _q1_rows(
            g, t,
            state.data[_rows(g, n1)], state.data[_rows(g, n2)], state.data[_rows(g, n3)],
            n, n1, n2, n3,
        )
        phase = phase_value(n, n1, n2, n3, QUARTIC)
        order = np.lexsort((phase, n))
        n, phase, bands = n[order], phase[order], bands[order]
        self.boxes, starts, counts = np.unique(n, return_index=True, return_counts=True)
        # phase offsets run over 1..width-2; 0 and width-1 take clipped bounds
        self.offset = int(phase.min(initial=0)) - 1
        self.width = int(phase.max(initial=0)) - self.offset + 2
        self.keys = n * self.width + (phase - self.offset)
        self.prefix = np.zeros((len(n) + len(self.boxes) + 1, g.bins_per_box), complex)
        for k, (a, c) in enumerate(zip(starts, counts)):
            np.cumsum(bands[a : a + c], axis=0, out=self.prefix[a + k + 1 : a + k + c + 1])

    def _key(self, boxes, phase):
        off = np.clip(phase - self.offset, 0, self.width - 1).astype(np.int64)
        return boxes * self.width + off

    def sum(self, boxes, lo=-np.inf, hi=np.inf) -> np.ndarray:
        """(T, B) band sums over the rows of box boxes[i] with lo[i] <= phase <= hi[i].

        The bounds may be non-integer or infinite; lo <= hi.
        """
        k = np.searchsorted(self.boxes, boxes)  # zero rows ahead of the box's rows
        i = np.searchsorted(self.keys, self._key(boxes, np.ceil(lo)), side="left")
        j = np.searchsorted(self.keys, self._key(boxes, np.floor(hi)), side="right")
        return self.prefix[j + k] - self.prefix[i + k]


def _coupled_insert_rows(buckets, sign, boxes, mu_prev, mu_first, J, which):
    """(T, B) insert rows, restricted by the level-J phase set.

    ``sign`` is the conjugation sign the insert enters with: the kept set for
    which = "low" is |mu_prev + sign*mu| <= (2J+3)^3 max(|mu_prev|,|mu_first|)^0.99;
    "high" keeps the complement, "all" applies no restriction.
    """
    if which == "all":
        return buckets.sum(boxes)
    K = (2 * J + 3) ** 3 * np.maximum(np.abs(mu_prev), np.abs(mu_first)) ** 0.99
    center = -sign * np.asarray(mu_prev, dtype=float)
    low = buckets.sum(boxes, center - K, center + K)
    return low if which == "low" else buckets.sum(boxes) - low


def _tilde_insert_sum(state, t, N, window, resonant=False, which=None):
    """sum over the high-phase set and the three slots of
    fsgn(slot) * q1_tilde(... insert at slot ...).

    The insert is (R2 - R1)(v) if ``resonant``, plus the non-resonant q1
    bands on the ``which`` joint-phase set ("all", "low" or "high") if
    ``which`` is given.  It is built only if some high-phase row has both
    other slots alive.
    """
    t = state.time if t is None else t
    g = state.grid
    w = _window_of(state, window)
    n, n1, n2, n3, wt = _triple_table(g.n_max, w, N, "A_N_complement", QUARTIC)
    alive = np.any(state.data != 0, axis=1)
    keeps = [alive[_rows(g, a)] & alive[_rows(g, b)] for a, b in ((n2, n3), (n1, n3), (n1, n2))]
    total = np.zeros_like(state.data)
    if not any(np.any(keep) for keep in keeps):
        return BoxedState(g, total, t)
    res = apply_resonant(state, t, w).data if resonant else None
    buckets = _InnerBuckets(state, t, w) if which is not None else None
    for slot, keep in enumerate(keeps):
        if not np.any(keep):
            continue
        nk, n1k, n2k, n3k, wk = (a[keep] for a in (n, n1, n2, n3, wt))
        boxes = (n1k, n2k, n3k)[slot]
        rows = np.zeros((len(nk), g.bins_per_box), dtype=complex)
        if resonant:
            rows += res[_rows(g, boxes)]
        if which is not None:
            mu1 = phase_value(nk, n1k, n2k, n3k, QUARTIC)
            rows += _coupled_insert_rows(buckets, _SLOT_SIGNS[slot], boxes, mu1, mu1, 1, which)
        nz = np.any(rows != 0, axis=1)
        if not np.any(nz):
            continue
        nk, n1k, n2k, n3k, wk = (a[nz] for a in (nk, n1k, n2k, n3k, wk))
        stacks = [state.data[_rows(g, nn)] for nn in (n1k, n2k, n3k)]
        stacks[slot] = rows[nz]
        bands = _q1_tilde_rows(g, t, stacks[0], stacks[1], stacks[2], nk, n1k, n2k, n3k)
        total += _SLOT_SIGNS[slot] * _scatter_rows(g, nk, bands, wk)
    return BoxedState(g, total, t)


def n4_state(state: BoxedState, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Resonant insert sum: (R2 - R1)(v) substituted at each slot."""
    return _tilde_insert_sum(state, t, N, window, resonant=True)


def _generation_one_inserts(state, N, t, window):
    """generation_nr + generation_n1 at J = 1 in one insert pass.

    The gap kernel is linear in the inserted slot, so the resonant and the
    low-set rows are added before it runs instead of running it twice.
    """
    return _tilde_insert_sum(state, t, N, window, resonant=True, which="low")


def n3_state(state, N, t=None, window=None):
    """Full non-resonant insert sum at generation one (no phase restriction)."""
    return _tilde_insert_sum(state, t, N, window, which="all")


def n31_state(state, N, t=None, window=None):
    """Non-resonant insert restricted to the low joint-phase set."""
    return _tilde_insert_sum(state, t, N, window, which="low")


def n32_state(state, N, t=None, window=None):
    """Non-resonant insert on the high joint-phase complement (next remainder)."""
    return _tilde_insert_sum(state, t, N, window, which="high")


def n22_state(state, N, t=None, window=None):
    """The substituted time-derivative term: resonant plus non-resonant inserts."""
    return n4_state(state, N, t, window).plus(n3_state(state, N, t, window))


# ---------------------------------------------------------------------------
# generation >= 2 operators via the kernel-exact tree path


def _chain_possible(J: int, N: float, window: int) -> bool:
    """Can the complement chain hold for all j = 2..J inside the window?

    Recursive lower bounds: the level-j prefix must exceed
    (2j+1)^3 * max(L_{j-1}, L_1)^{0.99} where L_{j-1} bounds the previous
    prefix from below, while |mu~_j| <= j * max|Phi|(window), with the exact
    window maximum from ``_max_abs_phase``.
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


def _tree_level_sum(state, J, N, t, window, mode, allowed_all=None):
    """Sum over T(J) trees and chain-filtered assignments; mode selects leaves.

    mode: "n0" plain, "nr" resonant insert, "n1" low-set insert,
    "rem" unrestricted insert.  ``allowed_all``, when given, becomes the
    operative box window for every node of every tree (sparse-support runs).
    """
    g = state.grid
    w = _window_of(state, window)
    out = BoxedState.zero(g, t)
    if not _chain_possible(J, N, w):
        return out
    boxes_axis = np.arange(-g.n_max, g.n_max)
    active = {int(b) for b in boxes_axis[state.box_norms() > 0]}
    if not active:
        return out
    insert_state = None
    buckets = None
    if mode == "nr":
        insert_state = apply_resonant(state, t, w)
        insert_boxes = {int(b) for b in boxes_axis[insert_state.box_norms() > 0]}
    elif mode in ("n1", "rem"):
        buckets = _InnerBuckets(state, t, w)
        insert_boxes = set(buckets.boxes.tolist())
    internal_allowed = set(allowed_all) if allowed_all is not None else None
    if allowed_all is not None:
        active &= set(allowed_all)
        if mode != "n0":
            insert_boxes &= set(allowed_all)
    data = np.zeros_like(state.data)
    out_lim = min(3 * w + 1, g.n_max - 1)
    universe = set(active)
    if mode != "n0":
        universe |= insert_boxes
    if internal_allowed is not None:
        universe |= internal_allowed
    uni = np.array(sorted(universe))
    sums = np.unique(uni[:, None, None] - uni[None, :, None] + uni[None, None, :])
    sums = np.unique(np.concatenate([sums - 1, sums, sums + 1]))
    root_candidates = [int(r) for r in sums if -out_lim <= r <= out_lim]
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
        for n_root in root_candidates:
            for li, plan in plans:
                assigns = enumerate_index_functions(
                    tree, n_root, w, N,
                    cJ_filter="C_complement_chain",
                    allowed_boxes=plan,
                    max_count=ASSIGNMENT_GUARD,
                )
                count += len(assigns)
                if count > ASSIGNMENT_GUARD:
                    raise ResourceGuardError(
                        "tree-level operator sum exceeded the assignment guard"
                    )
                if li is None:
                    for assign in assigns:
                        base = [state.band(assign.freq[b]) for b in leaf_ids]
                        band = q_tree(tree, assign, BandTuple(tuple(base), flags), t)
                        data[n_root + g.n_max] += tsign * band.coeffs
                    continue
                leaf = leaf_ids[li]
                boxes = np.array([a.freq[leaf] for a in assigns], dtype=np.int64)
                if mode == "nr":
                    inserts = insert_state.data[_rows(g, boxes)]
                else:
                    inserts = _coupled_insert_rows(
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
                    tup = BandTuple(tuple(bands), flags)
                    band = q_tree(tree, assign, tup, t)
                    data[n_root + g.n_max] += tsign * signs.fsgn[leaf] * band.coeffs
    return BoxedState(g, data, t)


def generation_n0(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Boundary operator at level J+1 (trees with J generations)."""
    t = state.time if t is None else t
    if J == 1:
        return n21_state(state, N, t, window)
    return _tree_level_sum(state, J, N, t, window, "n0")


def generation_nr(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Resonant-insert operator at level J+1."""
    t = state.time if t is None else t
    if J == 1:
        return n4_state(state, N, t, window)
    return _tree_level_sum(state, J, N, t, window, "nr")


def generation_n1(state: BoxedState, J: int, N: float, t: float | None = None, window: int | None = None) -> BoxedState:
    """Low-phase non-resonant insert at level J+1."""
    t = state.time if t is None else t
    if J == 1:
        return n31_state(state, N, t, window)
    return _tree_level_sum(state, J, N, t, window, "n1")


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
    t = state.time if t is None else t
    if J == 1 and allowed_all is None:
        return n3_state(state, N, t, window)
    return _tree_level_sum(state, J, N, t, window, "rem", allowed_all=allowed_all)


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
    picard_max_iter: int = 25
    sign: int = +1
    window: int | None = None
    empirical_c: float = DEFAULT_EMPIRICAL_C
    support_trim: float = 0.0  # relative band floor zeroed between iterates

    def q_prime(self) -> float:
        return math.inf if self.q == 1.0 else self.q / (self.q - 1.0)

    def validate(self):
        if not (1.0 <= self.q <= 2.0):
            raise ConfigurationError(f"q must lie in [1, 2], got {self.q}")
        if self.J < 1 or self.K < 2 or self.T <= 0:
            raise ConfigurationError("need J >= 1, K >= 2, T > 0")
        if self.sign not in (+1, -1):
            raise ConfigurationError("sign must be +1 or -1")
        if self.N < threshold_from_bound(self.R_tilde, self.q) - 1e-9:
            raise ConfigurationError(
                f"threshold N={self.N} below the geometric-series bound"
            )
        if self.empirical_c * self.T * _t_bracket(self.N, self.q, self.R_tilde) >= 0.1:
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
    empirical_c: float = DEFAULT_EMPIRICAL_C,
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
    T = 0.099 / (empirical_c * _t_bracket(N, q, R_tilde))
    p = SolverParams(
        J=J, N=N, T=T, q=q, s=s, R=R, R_tilde=R_tilde, K=K, sign=sign,
        empirical_c=empirical_c,
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


def _integrand(state, params, window):
    """i*sigma*[(R2-R1) + N11] plus the insert sums of levels 2..J."""
    sigma = params.sign
    t = state.time
    # (R2-R1) + N11 == full cubic minus N12 (the decomposition identity)
    low = boxed_cubic(state, t).plus(apply_n12(state, params.N, t, window), -1.0)
    total = low.scaled(1j * sigma)
    for j in range(2, params.J + 1):
        _, w_ins = _level_weights(j, sigma)
        if j == 2:
            inserts = _generation_one_inserts(state, params.N, t, window)
        else:
            inserts = generation_nr(state, j - 1, params.N, t, window).plus(
                generation_n1(state, j - 1, params.N, t, window)
            )
        total = total.plus(inserts, w_ins)
    return total


def gamma_partial(v0: BoxedState, v: Trajectory, params: SolverParams) -> Trajectory:
    """One application of the level-J partial-sum map along the trajectory.

    Boundary terms are evaluated at the running time for v and at time zero
    for v0, exactly as the telescoped series prescribes; the time integral is
    a composite trapezoid on the trajectory nodes.
    """
    params.validate()
    times = v.times
    if abs(times[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise ConfigurationError("trajectory must live on [0, T]")
    sigma = params.sign
    window = params.window
    g = v0.grid

    bnd_at_zero = BoxedState.zero(g)
    for j in range(2, params.J + 1):
        w_bnd, _ = _level_weights(j, sigma)
        bnd_at_zero = bnd_at_zero.plus(
            generation_n0(v0.at_time(0.0), j - 1, params.N, 0.0, window), w_bnd
        )

    integrands = [_integrand(st.at_time(tt), params, window) for st, tt in zip(v.states, times)]

    out_states = []
    integral = BoxedState.zero(g)
    for k, tt in enumerate(times):
        if k > 0:
            dt = times[k] - times[k - 1]
            integral = integral.plus(integrands[k - 1], 0.5 * dt).plus(integrands[k], 0.5 * dt)
        acc = v0.data + integral.data - bnd_at_zero.data
        for j in range(2, params.J + 1):
            w_bnd, _ = _level_weights(j, sigma)
            acc = acc + w_bnd * generation_n0(
                v.states[k].at_time(tt), j - 1, params.N, tt, window
            ).data
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
    diffs: list[float] = []
    ratios: list[float] = []
    for it in range(params.picard_max_iter):
        nxt = gamma_partial(v0, current, params)
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
    else:
        if diffs[-1] >= params.picard_tol * max(1.0, params.R_tilde):
            raise DivergenceError(
                f"no convergence in {params.picard_max_iter} iterations", ratios=ratios
            )
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
