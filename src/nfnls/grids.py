"""Periodic discretization of the line and the free Schroedinger propagator.

The real line is truncated to a torus of circumference L = 2*pi*B, which makes
the frequency variable live on the lattice xi_j = j/B, j in [-M/2, M/2), with
M = 2*B*n_max samples.  Unit frequency boxes [n, n+1) are then exactly B
consecutive bins, for n in [-n_max, n_max).

Conventions (fixed once, used by every other module):

* ``Spectrum.coeffs`` holds unitary-normalized transform samples in ascending
  frequency order, coeffs[p] ~ (2*pi)^(-1/2) * integral u(x) exp(-i xi x) dx
  at xi = (p - M/2)/B.  With this choice Parseval is an equality:
  sum |coeffs|^2 / B  ==  (L/M) * sum |samples|^2.
* ``free_propagate(F, t, direction=+1)`` applies exp(i*t*dxx) (the operator
  with Fourier symbol exp(-i*t*xi^2)); direction=-1 gives the inverse
  exp(-i*t*dxx).  A single-bin tone at xi therefore picks up phase -t*xi^2
  under the default direction.
* Any even M >= 2 is supported (numpy FFTs are O(M log M) for smooth sizes,
  still exact for the rest).

All values are immutable after construction and safe to share across threads;
batch work may be parallelized over independent inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError

__all__ = [
    "Grid",
    "Field",
    "Spectrum",
    "make_grid",
    "forward",
    "inverse",
    "free_propagate",
]


@dataclass(frozen=True)
class Grid:
    """Frequency/space lattice: B bins per unit box, boxes n in [-n_max, n_max)."""

    bins_per_box: int
    n_max: int

    @property
    def M(self) -> int:
        return 2 * self.bins_per_box * self.n_max

    @property
    def L(self) -> float:
        return 2.0 * np.pi * self.bins_per_box

    def sample_points(self) -> np.ndarray:
        """x_m = m*L/M, m = 0..M-1."""
        return np.arange(self.M) * (self.L / self.M)

    def bin_frequencies(self) -> np.ndarray:
        """xi_j = j/B in ascending order, j = -M/2 .. M/2 - 1."""
        return (np.arange(self.M) - self.M // 2) / self.bins_per_box

    def box_slice(self, n: int) -> slice:
        """Positions of box [n, n+1) inside the ascending coeff array."""
        lo = (n + self.n_max) * self.bins_per_box
        return slice(lo, lo + self.bins_per_box)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Field:
    """Complex samples u(x_m) on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        if len(self.samples) != self.grid.M:
            raise GridMismatchError(
                f"field has {len(self.samples)} samples, grid wants {self.grid.M}"
            )
        object.__setattr__(self, "samples", _freeze(self.samples))

    def l2_norm(self) -> float:
        """Discrete L2 norm, ((L/M) * sum |u|^2)^(1/2)."""
        g = self.grid
        return float(np.sqrt(g.L / g.M * np.sum(np.abs(self.samples) ** 2)))


@dataclass(frozen=True)
class Spectrum:
    """Transform samples on the bin lattice, ascending frequency order."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != self.grid.M:
            raise GridMismatchError(
                f"spectrum has {len(self.coeffs)} bins, grid wants {self.grid.M}"
            )
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))

    def l2_norm(self) -> float:
        """(sum |coeffs|^2 / B)^(1/2); equals the Field L2 norm by Parseval."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) / self.grid.bins_per_box))


def make_grid(B: int, n_max: int) -> Grid:
    """Build the lattice with B bins per unit box and boxes [-n_max, n_max)."""
    if B < 1 or n_max < 1:
        raise ConfigurationError(f"need B >= 1 and n_max >= 1, got B={B}, n_max={n_max}")
    M = 2 * B * n_max
    if M % 2 != 0 or M < 2:
        raise ConfigurationError(f"unsupported sample count M={M}")
    return Grid(bins_per_box=int(B), n_max=int(n_max))


def forward(f: Field) -> Spectrum:
    """Sampled unitary Fourier transform of a field."""
    g = f.grid
    scale = np.sqrt(2.0 * np.pi) * g.bins_per_box / g.M
    coeffs = np.fft.fftshift(np.fft.fft(f.samples)) * scale
    return Spectrum(grid=g, coeffs=coeffs)


def inverse(F: Spectrum) -> Field:
    """Inverse of :func:`forward`; round trip is exact to rounding."""
    g = F.grid
    scale = g.M / (np.sqrt(2.0 * np.pi) * g.bins_per_box)
    samples = np.fft.ifft(np.fft.ifftshift(F.coeffs)) * scale
    return Field(grid=g, samples=samples)


def free_propagate(F: Spectrum, t: float, direction: int = +1) -> Spectrum:
    """Free Schroedinger flow exp(i*direction*t*dxx) applied on the bin lattice.

    direction=+1 multiplies bin xi by exp(-i*t*xi^2); direction=-1 is the exact
    inverse.  The symbol has modulus one, so the L2 norm (and every sharp box
    norm) is preserved.
    """
    if direction not in (+1, -1):
        raise ConfigurationError(f"direction must be +1 or -1, got {direction}")
    xi = F.grid.bin_frequencies()
    phase = np.exp(-1j * direction * t * xi * xi)
    return Spectrum(grid=F.grid, coeffs=F.coeffs * phase)
