"""Frequency box projections and modulation-type norms.

Two window families realize the unit-box decomposition:

* sharp (``w=None``) — the indicator of [n, n+1); on the bin lattice this is
  an exact restriction to B consecutive bins, mutually orthogonal across boxes
  and idempotent.  This is the default everywhere in the operator stack.
* ``WindowFamily.raised_cosine`` — sigma_0(xi) = cos^2(pi*xi/2) on |xi| <= 1,
  translated to sigma_n = sigma_0(. - n).  The translates form an exact
  partition of unity, are C^1, supported in {|xi - n| <= 1}, and bounded
  below by 1/2 on the core half-box.  Used for the norm-equivalence
  diagnostics only.

The M^s_{2,q} norm is (sum_n <n>^{sq} ||box_n F||_2^q)^{1/q} with
<n> = (1 + n^2)^(1/2); q = inf takes the sup.  Only p = 2 is exact on this
discretization, so no other p is offered; discrete l^p sample quadrature is
exposed solely for the multiplier diagnostic below and is labeled diagnostic
accuracy.

Everything here is pure and thread-safe; per-box work may be parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxRangeError, DomainError, UndefinedRatioError
from .grids import Field, Grid, Spectrum, forward, inverse

__all__ = [
    "WindowFamily",
    "BandCoefficients",
    "box_project",
    "reconstruct",
    "band_l2",
    "box_l2_profile",
    "modulation_norm",
    "norm_equivalence_ratio",
    "multiplier_bound_check",
    "lp_sample_norm",
]

@dataclass(frozen=True)
class WindowFamily:
    """A translated window family sigma_n = sigma_0(. - n) on the bin lattice."""

    profile: np.ndarray  # samples of sigma_0 on its support, bin spacing 1/B
    profile_start: int  # first profile sample sits at xi = profile_start / B

    @staticmethod
    def raised_cosine(B: int) -> "WindowFamily":
        xi = np.arange(-B, B + 1) / B
        prof = np.cos(np.pi * xi / 2.0) ** 2
        prof[0] = 0.0
        prof[-1] = 0.0
        prof.flags.writeable = False
        return WindowFamily(profile=prof, profile_start=-B)

    def block_bins(self, n: int, B: int) -> tuple[int, int]:
        """Absolute bin range [start, stop) covered by sigma_n."""
        start = n * B + self.profile_start
        return start, start + len(self.profile)


@dataclass(frozen=True)
class BandCoefficients:
    """Bins of one window block sigma_n * F.

    For the sharp kind the block is exactly the B bins of [n, n+1) and
    ``start_bin == n*B``; the raised-cosine block is 2B+1 bins wide.
    """

    box_index: int
    grid: Grid
    coeffs: np.ndarray
    start_bin: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) / self.grid.bins_per_box))

    def frequencies(self) -> np.ndarray:
        return (self.start_bin + np.arange(len(self.coeffs))) / self.grid.bins_per_box


def box_project(F: Spectrum, n: int, w: WindowFamily | None = None) -> BandCoefficients:
    """sigma_n * F as a band block.

    Sharp kind: exact bin restriction (idempotent).  Raised cosine: bins
    multiplied by sigma_n(xi_j) over the 2B+1-bin support, clipped at the grid
    edge.
    """
    g = F.grid
    if not (-g.n_max <= n < g.n_max):
        raise BoxRangeError(f"box {n} outside window [-{g.n_max}, {g.n_max})")
    B = g.bins_per_box
    if w is None:
        block = F.coeffs[g.box_slice(n)]
        return BandCoefficients(box_index=n, grid=g, coeffs=block, start_bin=n * B)
    start, stop = w.block_bins(n, B)
    half = g.M // 2
    lo = max(start, -half)
    hi = min(stop, half)
    vals = F.coeffs[lo + half : hi + half] * w.profile[lo - start : hi - start]
    if lo > start or hi < stop:
        padded = np.zeros(stop - start, dtype=np.complex128)
        padded[lo - start : hi - start] = vals
        vals = padded
    return BandCoefficients(box_index=n, grid=g, coeffs=vals, start_bin=start)


def reconstruct(band: BandCoefficients) -> Spectrum:
    """Scatter a band block back into a full (mostly zero) spectrum."""
    g = band.grid
    half = g.M // 2
    coeffs = np.zeros(g.M, dtype=np.complex128)
    lo = band.start_bin + half
    src = band.coeffs
    a = max(lo, 0)
    b = min(lo + len(src), g.M)
    coeffs[a:b] = src[a - lo : b - lo]
    return Spectrum(grid=g, coeffs=coeffs)


def band_l2(F: Spectrum, n: int, w: WindowFamily | None = None) -> float:
    return box_project(F, n, w).l2_norm()


def box_l2_profile(F: Spectrum, w: WindowFamily | None = None) -> np.ndarray:
    """||sigma_n F||_2 for every box n in [-n_max, n_max), in box order."""
    g = F.grid
    B = g.bins_per_box
    if w is None:
        blocks = F.coeffs.reshape(2 * g.n_max, B)
        return np.sqrt(np.sum(np.abs(blocks) ** 2, axis=1) / B)
    return np.array([band_l2(F, n, w) for n in range(-g.n_max, g.n_max)])


def modulation_norm(
    F: Spectrum,
    s: float = 0.0,
    q: float = 2.0,
    w: WindowFamily | None = None,
) -> float:
    """(sum_n <n>^{sq} ||sigma_n F||_2^q)^{1/q}; q = math.inf takes the sup."""
    if not (q >= 1.0 or q == math.inf):
        raise DomainError(f"need q >= 1 or q = inf, got {q}")
    g = F.grid
    norms = box_l2_profile(F, w)
    boxes = np.arange(-g.n_max, g.n_max)
    weights = (1.0 + boxes.astype(float) ** 2) ** (s / 2.0)
    vals = weights * norms
    if q == math.inf:
        return float(np.max(vals))
    return float(np.sum(vals**q) ** (1.0 / q))


def norm_equivalence_ratio(F: Spectrum, s: float = 0.0, q: float = 2.0) -> float:
    """Raised-cosine norm divided by the sharp norm for the same (s, q)."""
    g = F.grid
    sharp = modulation_norm(F, s, q)
    if sharp == 0.0:
        raise UndefinedRatioError("norm ratio undefined for zero input")
    smooth = modulation_norm(F, s, q, WindowFamily.raised_cosine(g.bins_per_box))
    return smooth / sharp


def lp_sample_norm(f: Field, p: float) -> float:
    """Discrete l^p quadrature of samples, ((L/M) sum |u|^p)^(1/p); p=inf is max.

    Diagnostic accuracy only (used by the multiplier check below).
    """
    g = f.grid
    a = np.abs(f.samples)
    if p == math.inf:
        return float(np.max(a))
    return float((g.L / g.M * np.sum(a**p)) ** (1.0 / p))


def multiplier_bound_check(f: Field, n: int, p1: float, p2: float) -> tuple[float, float]:
    """Return (||box_n f||_{p2}, ||box_n f||_{p1}) for p1 <= p2.

    The caller asserts lhs <= C * rhs with C independent of n over a sweep;
    the box projection is sharp and the l^p norms are discrete sample
    quadrature.
    """
    if p1 > p2:
        raise DomainError(f"need p1 <= p2, got ({p1}, {p2})")
    band = box_project(forward(f), n)
    proj = inverse(reconstruct(band))
    return lp_sample_norm(proj, p2), lp_sample_norm(proj, p1)
