"""Spatial/frequency grid and the far-field-split function representation.

Functions handled by the engine tend to constants at both infinities (the
seeds are indicator times constant), so a sampled function is stored as the
pair of far-field constants plus an array of residual samples

    u(x) = c_lo * 1_{x < x_ref} + c_hi * 1_{x >= x_ref} + res(x)

with x_ref the node at ``ref_index`` and res decaying inside the grid.  This
makes every transformed object integrable after damping and lets the
multiplier machinery act on constants exactly.  Residual arrays may carry
leading batch dimensions (one row per history).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import math

import numpy as np

from .models import analyticity_strip

__all__ = [
    "DualGrid",
    "SampledFunction",
    "Region",
    "build_grid",
    "indicator_soft",
    "soft_mask",
]

ROLL_START = 0.85      # spectral_roll is 1 below this fraction of Nyquist
WINDOW_ROLLOFF = 0.5   # Gaussian width of window_mask beyond its margin


class Region(Enum):
    """Half-line indicators used by the barrier recursions."""

    BELOW_UPPER = "below_upper"          # 1_(-inf, h+)
    ABOVE_LOWER = "above_lower"          # 1_(h-, +inf)
    AT_OR_ABOVE_UPPER = "at_or_above"    # 1_[h+, +inf)
    AT_OR_BELOW_LOWER = "at_or_below"    # 1_(-inf, h-]


@dataclass(frozen=True)
class DualGrid:
    """Uniform x-grid carrying both barriers on nodes, with FFT frequencies.

    dx * dxi = 2*pi/M by construction.  ``omega_plus`` (< 0) and
    ``omega_minus`` (> 0) are the default damping contours for sup-side and
    inf-side operator applications; both sit strictly inside every regime's
    analyticity strip.
    """

    x_min: float
    dx: float
    size: int
    lower_index: int
    upper_index: int
    ref_index: int
    omega_plus: float
    omega_minus: float
    guard: int
    decay_tol: float = 1e-6

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.size)

    @property
    def xi(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.size, d=self.dx)

    @property
    def lower(self) -> float:
        return self.x_min + self.dx * self.lower_index

    @property
    def upper(self) -> float:
        return self.x_min + self.dx * self.upper_index

    def spectral_roll(self) -> np.ndarray:
        """Smooth frequency roll-off over the top (1-ROLL_START) of the band.

        Multiplier symbols are not periodic across the Nyquist wrap; applying
        them raw gives convolution kernels with O(1/(xi_max * x)) sidelobes
        that the undamping blows up far from the band.  Rolling the symbol
        to zero at the band edge (C^3 taper) pushes those sidelobes down by
        several orders.  fft-ordered.
        """
        axi = np.abs(np.fft.fftfreq(self.size))  # |freq| in cycles, max 0.5
        edge = ROLL_START * 0.5
        t = np.clip((axi - edge) / (0.5 - edge), 0.0, 1.0)
        # C-infinity transition: all derivatives vanish at both ends, so the
        # roll contributes no algebraic ringing of its own
        s = np.ones_like(t)
        inside = (t > 0.0) & (t < 1.0)
        ti = t[inside]
        s[inside] = np.exp(-np.exp(-1.0 / ti) / (1.0 - ti) ** 2 * 4.0)
        s[t >= 1.0] = 0.0
        return s

    def taper(self, side: str = "both") -> np.ndarray:
        """Raised-cosine window: 1 in the interior, 0 at the guard edge(s).

        ``side`` = "lo" tapers only the left guard, "hi" only the right,
        "both" both ends.
        """
        w = np.ones(self.size)
        g = self.guard
        if g > 0:
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(g) / g))
            if side in ("both", "lo"):
                w[:g] = ramp
            if side in ("both", "hi"):
                w[-g:] = ramp[::-1]
        return w

    def interior(self) -> slice:
        return slice(self.guard, self.size - self.guard)

    def window_mask(self, margin: float) -> np.ndarray:
        """Smooth cutoff of residuals beyond ``margin`` outside the band.

        Residual values far from the band cannot be computed through damped
        transforms (band-limited kernel leakage undamps to exp(|omega|*|x|)
        times 1e-6-ish), and genuine content there is exponentially small, so
        each operator application confines its output residual to this
        window.
        """
        x = self.x
        lo = self.lower - margin
        hi = self.upper + margin
        w = np.ones(self.size)
        left = x < lo
        right = x > hi
        w[left] = np.exp(-((x[left] - lo) / WINDOW_ROLLOFF) ** 2)
        w[right] = np.exp(-((x[right] - hi) / WINDOW_ROLLOFF) ** 2)
        return w


def build_grid(lower: float, upper: float, m_power: int = 14,
               domain_factor: float = 10.0, models=(), damping_scale: float = 0.25,
               damping_cap: float = 1.0, decay_tol: float = 1e-6) -> DualGrid:
    """Place both barriers on grid nodes and size the domain around them.

    The domain spans ``domain_factor`` band-widths on each side of the band;
    dx is chosen so (upper - lower)/dx is an integer, hence zero snap
    distance.  Damping defaults to -min(cap, scale*|strip edge|) on the plus
    side (mirrored on the minus side), taken over all supplied models.
    """
    if not upper > lower:
        raise ValueError("need lower < upper")
    size = 2**m_power
    band = upper - lower
    width = (1.0 + 2.0 * domain_factor) * band
    dx_target = width / size
    n_band = max(int(round(band / dx_target)), 2)
    dx = band / n_band
    k_lo = int(round(domain_factor * band / dx))
    x_min = lower - k_lo * dx
    lower_index = k_lo
    upper_index = k_lo + n_band
    if upper_index >= size:
        raise ValueError("band does not fit the grid; increase m_power")
    ref_index = k_lo + n_band // 2

    edge_lo, edge_hi = math.inf, math.inf
    for model in models:
        lo, hi = analyticity_strip(model)
        edge_lo = min(edge_lo, abs(lo))
        edge_hi = min(edge_hi, abs(hi))
    omega_plus = -min(damping_cap, damping_scale * edge_lo)
    omega_minus = min(damping_cap, damping_scale * edge_hi)
    guard = max(int(0.10 * size), 2)
    return DualGrid(x_min=x_min, dx=dx, size=size, lower_index=lower_index,
                    upper_index=upper_index, ref_index=ref_index,
                    omega_plus=omega_plus, omega_minus=omega_minus,
                    guard=guard, decay_tol=decay_tol)


@dataclass
class SampledFunction:
    """Far-field constants plus residual samples on a DualGrid.

    ``values`` holds the residual with shape (..., M); ``c_lo``/``c_hi`` are
    scalars or arrays matching the leading dimensions.
    """

    grid: DualGrid
    values: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape[-1] != self.grid.size:
            raise ValueError("residual length must match the grid")
        lead = self.values.shape[:-1]
        self.c_lo = np.broadcast_to(np.asarray(self.c_lo, np.complex128), lead).copy()
        self.c_hi = np.broadcast_to(np.asarray(self.c_hi, np.complex128), lead).copy()

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grid: DualGrid, shape=()) -> "SampledFunction":
        return cls(grid, np.zeros(shape + (grid.size,)), np.zeros(shape), np.zeros(shape))

    @classmethod
    def constant(cls, grid: DualGrid, c) -> "SampledFunction":
        c = np.asarray(c, np.complex128)
        return cls(grid, np.zeros(c.shape + (grid.size,)), c.copy(), c.copy())

    @classmethod
    def from_samples(cls, grid: DualGrid, full, c_lo=0.0, c_hi=0.0) -> "SampledFunction":
        """Wrap full samples of a function with known far-field constants."""
        full = np.asarray(full, np.complex128)
        lead = full.shape[:-1]
        lo = np.broadcast_to(np.asarray(c_lo, np.complex128), lead)
        hi = np.broadcast_to(np.asarray(c_hi, np.complex128), lead)
        mask_hi = (np.arange(grid.size) >= grid.ref_index)
        res = full - lo[..., None] * (~mask_hi) - hi[..., None] * mask_hi
        return cls(grid, res, lo, hi)

    @classmethod
    def step(cls, grid: DualGrid, region: Region, c) -> "SampledFunction":
        """Indicator of the region times the constant c, spectrally sampled.

        The jump node carries the mid-value c/2: a full-weight sample places
        the effective discontinuity half a cell off the barrier, which the
        damped-FFT algebra turns into an O(dx) barrier displacement.
        """
        c = np.asarray(c, np.complex128)
        w = soft_mask(grid, region)
        full = c[..., None] * w
        if region in (Region.BELOW_UPPER, Region.AT_OR_BELOW_LOWER):
            return cls.from_samples(grid, full, c_lo=c, c_hi=np.zeros_like(c))
        return cls.from_samples(grid, full, c_lo=np.zeros_like(c), c_hi=c)

    # -- basic algebra ------------------------------------------------
    @property
    def shape(self):
        return self.values.shape[:-1]

    def full(self) -> np.ndarray:
        mask_hi = np.arange(self.grid.size) >= self.grid.ref_index
        return (self.values
                + self.c_lo[..., None] * (~mask_hi)
                + self.c_hi[..., None] * mask_hi)

    def __add__(self, other):
        self._check(other)
        return SampledFunction(self.grid, self.values + other.values,
                               self.c_lo + other.c_lo, self.c_hi + other.c_hi)

    def __sub__(self, other):
        self._check(other)
        return SampledFunction(self.grid, self.values - other.values,
                               self.c_lo - other.c_lo, self.c_hi - other.c_hi)

    def scale(self, factor) -> "SampledFunction":
        """Multiply by a scalar or a per-row vector."""
        f = np.asarray(factor, np.complex128)
        return SampledFunction(self.grid, self.values * f[..., None],
                               self.c_lo * f, self.c_hi * f)

    def _check(self, other):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("operands live on different grids")

    def sup_norm(self, interior: bool = True) -> float:
        """Max magnitude over the (interior) samples and the far fields."""
        sl = self.grid.interior() if interior else slice(None)
        m = float(np.max(np.abs(self.full()[..., sl]))) if self.grid.size else 0.0
        return max(m, float(np.max(np.abs(self.c_lo), initial=0.0)),
                   float(np.max(np.abs(self.c_hi), initial=0.0)))

    def select(self, idx) -> "SampledFunction":
        return SampledFunction(self.grid, self.values[idx], self.c_lo[idx], self.c_hi[idx])

    def assign(self, idx, other: "SampledFunction") -> None:
        self.values[idx] = other.values
        self.c_lo[idx] = other.c_lo
        self.c_hi[idx] = other.c_hi


def soft_mask(grid: DualGrid, region: Region) -> np.ndarray:
    """Half-line weights with 1/2 at the barrier node (spectral convention).

    The average of the closed and open brackets: complementary regions still
    partition unity exactly, and sampled jumps stay centred on the barrier.
    """
    idx = np.arange(grid.size)
    if region is Region.BELOW_UPPER:
        w = (idx < grid.upper_index).astype(float)
        w[grid.upper_index] = 0.5
    elif region is Region.AT_OR_ABOVE_UPPER:
        w = (idx > grid.upper_index).astype(float)
        w[grid.upper_index] = 0.5
    elif region is Region.ABOVE_LOWER:
        w = (idx > grid.lower_index).astype(float)
        w[grid.lower_index] = 0.5
    elif region is Region.AT_OR_BELOW_LOWER:
        w = (idx < grid.lower_index).astype(float)
        w[grid.lower_index] = 0.5
    else:
        raise ValueError(f"unknown region {region!r}")
    return w


def indicator_soft(u: SampledFunction, region: Region) -> SampledFunction:
    """Indicator multiplication with the spectral (mid-value) node convention.

    The barrier node keeps half of u, as ``soft_mask`` weights it.
    """
    grid = u.grid
    w = soft_mask(grid, region)
    if region in (Region.BELOW_UPPER, Region.AT_OR_BELOW_LOWER):
        c_lo, c_hi = u.c_lo, np.zeros_like(u.c_hi)
    else:
        c_lo, c_hi = np.zeros_like(u.c_lo), u.c_hi
    masked = u.full() * w
    mask_hi = np.arange(grid.size) >= grid.ref_index
    res = masked - c_lo[..., None] * (~mask_hi) - c_hi[..., None] * mask_hi
    return SampledFunction(grid, res, c_lo, c_hi)

