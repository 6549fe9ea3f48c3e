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

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

import math
import sys

import numpy as np

from .errors import ConfigError
from .models import analyticity_strip

__all__ = [
    "GridConfig",
    "DualGrid",
    "SampledFunction",
    "Region",
    "build_grid",
    "indicator_soft",
]

ROLL_START = 0.85      # DualGrid.roll is 1 below this fraction of Nyquist
WINDOW_ROLLOFF = 0.5   # Gaussian width of window_mask beyond its margin
# largest |omega * x| on the grid: exp(+-omega*x) then stays within 1e+-154,
# which leaves the other half of the exponent range to the damped data
MAX_DAMPING_EXPONENT = 0.5 * math.log(sys.float_info.max)
# default damping: DAMPING_SCALE of the nearest strip edge, at most DAMPING_CAP
DAMPING_SCALE = 0.25
DAMPING_CAP = 1.0
# the Wiener-Hopf spectral split samples ln((Q+psi)/C) at the grid's
# frequency spacing over OVERSAMPLE times the grid's frequency range, so the
# up/down split sees the remainder decay well past the band the multipliers use
OVERSAMPLE = 4


class Region(Enum):
    """Half-line indicators used by the barrier recursions, as (barrier,
    direction of the kept side)."""

    BELOW_UPPER = ("upper", -1)          # 1_(-inf, h+)
    ABOVE_LOWER = ("lower", +1)          # 1_(h-, +inf)
    AT_OR_ABOVE_UPPER = ("upper", +1)    # 1_[h+, +inf)
    AT_OR_BELOW_LOWER = ("lower", -1)    # 1_(-inf, h-]


def _is_complex(x) -> bool:
    """np.iscomplexobj, without its dispatch on arrays and numpy scalars."""
    dtype = getattr(x, "dtype", None)
    return dtype.kind == "c" if dtype is not None else np.iscomplexobj(x)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DualGrid:
    """Uniform x-grid carrying both barriers on nodes, with FFT frequencies.

    dx * dxi = 2*pi/M by construction.  ``omega_plus`` (< 0) and
    ``omega_minus`` (> 0) are the default damping contours for sup-side and
    inf-side operator applications; both sit strictly inside every regime's
    analyticity strip.  Arrays that depend only on the grid are built on
    first use and kept, read-only; they take no part in ``==`` or the hash.
    Among them are the Wiener-Hopf spectral split's oversampled frequencies
    ``split_eta``, its half-plane mask ``split_mask`` and ``split_index``,
    the grid's frequencies' places on ``split_eta``.  ``split_arrays`` is a
    store of the split's Q-free arrays of each regime on the contours every
    spectral value shares (see ``wiener_hopf``).
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
    _half_lines: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    split_arrays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def index(self) -> np.ndarray:
        return _frozen(np.arange(self.size))

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(self.x_min + self.dx * self.index)

    @cached_property
    def xi(self) -> np.ndarray:
        return _frozen(2.0 * math.pi * np.fft.fftfreq(self.size, d=self.dx))

    @cached_property
    def split_eta(self) -> np.ndarray:
        """The spectral split's real frequencies: the grid's spacing over
        OVERSAMPLE times its range, ascending, with 0 at the middle node."""
        m_total = OVERSAMPLE * self.size
        dxi = 2.0 * math.pi / (self.size * self.dx)
        return _frozen((np.arange(m_total) - m_total // 2) * dxi)

    @cached_property
    def split_mask(self) -> np.ndarray:
        """Weights on the FFT coefficients of samples on ``split_eta`` that
        keep their up-analytic part (components exp(i v eta) with v > 0);
        the zero and Nyquist components are split evenly."""
        m_total = OVERSAMPLE * self.size
        vsign = np.fft.fftfreq(m_total)
        mask = np.zeros(m_total)
        mask[vsign > 0] = 1.0
        mask[vsign == 0] = 0.5
        mask[m_total // 2] = 0.5
        return _frozen(mask)

    @cached_property
    def split_index(self) -> np.ndarray:
        """Position of each of ``xi`` on ``split_eta``."""
        dxi = 2.0 * math.pi / (self.size * self.dx)
        return _frozen(np.rint(self.xi / dxi).astype(int) + OVERSAMPLE * self.size // 2)

    @property
    def lower(self) -> float:
        return self.x_min + self.dx * self.lower_index

    @property
    def upper(self) -> float:
        return self.x_min + self.dx * self.upper_index

    @cached_property
    def roll(self) -> np.ndarray:
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
        return _frozen(s)

    @cached_property
    def taper_lo(self) -> np.ndarray:
        """Raised cosine from 0 to 1 over the left guard band, 1 elsewhere."""
        w = np.ones(self.size)
        w[:self.guard] = 0.5 * (1.0 - np.cos(np.pi * np.arange(self.guard) / self.guard))
        return _frozen(w)

    @cached_property
    def taper_hi(self) -> np.ndarray:
        return _frozen(self.taper_lo[::-1].copy())

    @cached_property
    def taper_both(self) -> np.ndarray:
        return _frozen(self.taper_lo * self.taper_hi)

    @cached_property
    def monotone_nodes(self) -> slice:
        """The open band away from the sampled-jump ring at the barrier nodes,
        where the sweeps track monotonicity at a real q; one run of nodes."""
        x = self.x
        ring = max(0.1, 30.0 * self.dx)
        mask = (x > self.lower + ring) & (x < self.upper - ring)
        if not np.any(mask):
            mask = (x > self.lower) & (x < self.upper)
        nodes = np.flatnonzero(mask)
        return slice(nodes[0], nodes[-1] + 1)

    @cached_property
    def outside_band(self) -> np.ndarray:
        """Nodes on or beyond a barrier, where a knock-out value is zero."""
        return _frozen((self.index <= self.lower_index) | (self.index >= self.upper_index))

    def side(self, which: int, interior: bool = False) -> tuple:
        """``(index, where)`` that confine an elementwise ufunc on batched
        rows to one side of ``ref_index``: the nodes below it (``which`` 0,
        where c_lo applies) or at or above it (1), within the interior if
        asked.  Use as ``f(a[index], b, out=out[index], where=where)``.

        A side is a slice of each row unless it is at most a quarter of
        numpy's ufunc buffer long: numpy then buffers, and allocates for,
        operations on a batch of such row slices, so the side becomes a mask
        over whole rows, which numpy runs unbuffered.
        """
        return self._sides[which, interior]

    @cached_property
    def _sides(self) -> dict:
        halves = dict(enumerate(self.interior_halves()))
        short = np.getbufsize() // 4
        out = {}
        for which, whole in enumerate((slice(None, self.ref_index), slice(self.ref_index, None))):
            for interior, part in ((False, whole), (True, halves[which])):
                if len(range(self.size)[part]) > short:
                    out[which, interior] = ((..., part), True)
                else:
                    mask = np.zeros(self.size, dtype=bool)
                    mask[part] = True
                    out[which, interior] = (..., _frozen(mask))
        return out

    def region_edge(self, region: Region) -> tuple[int, int]:
        """(barrier node, direction of the kept side) of a half-line region."""
        barrier, direction = region.value
        return (self.upper_index if barrier == "upper" else self.lower_index), direction

    def interior_halves(self) -> tuple[slice, slice]:
        """Interior nodes below ``ref_index`` (where c_lo applies) and at or
        above it (where c_hi applies)."""
        mid = min(max(self.ref_index, self.guard), self.size - self.guard)
        return slice(self.guard, mid), slice(mid, self.size - self.guard)

    def half_line(self, node: int, direction: int, at_node: float) -> np.ndarray:
        """1 beyond ``node`` in ``direction`` (+1 up, -1 down), ``at_node`` at
        the node, 0 on the other side.  Read-only and built once."""
        key = (node, direction, float(at_node))
        w = self._half_lines.get(key)
        if w is None:
            w = (self.index > node if direction > 0 else self.index < node).astype(float)
            w[node] = at_node
            w = self._half_lines[key] = _frozen(w)
        return w

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


@dataclass(frozen=True)
class GridConfig:
    """The settings ``build_grid`` reads."""

    m_power: int = 14
    domain_factor: float = 10.0

    def __post_init__(self):
        if not self.domain_factor > 0:
            raise ConfigError("domainFactor must be > 0")


def build_grid(lower: float, upper: float, models, settings: GridConfig) -> DualGrid:
    """Place both barriers on grid nodes and size the domain around them.

    The domain spans ``domain_factor`` band-widths on each side of the band;
    dx is chosen so (upper - lower)/dx is an integer, hence zero snap
    distance, and the band holds the 4 strictly interior nodes that
    ``engine.interpolate_field`` reads.  Damping is -min(DAMPING_CAP,
    DAMPING_SCALE*|strip edge|) on the plus side (mirrored on the minus
    side), over all models.
    """
    if not upper > lower:
        raise ValueError("need lower < upper")
    if not 0 <= settings.m_power < sys.float_info.max_exp:
        raise ValueError(f"mPower must lie in [0, {sys.float_info.max_exp}) for 2^mPower "
                         f"nodes to fit a float, got {settings.m_power}")
    size = 2**settings.m_power
    band = upper - lower
    width = (1.0 + 2.0 * settings.domain_factor) * band
    dx_target = width / size
    n_band = int(round(band / dx_target))
    if n_band < 5:
        raise ValueError(f"the band spans {n_band} cells, too few for the 4 interior nodes "
                         f"the spot's interpolation reads; raise mPower or lower domainFactor")
    dx = band / n_band
    k_lo = int(round(settings.domain_factor * band / dx))
    x_min = lower - k_lo * dx
    lower_index = k_lo
    upper_index = k_lo + n_band
    guard = max(int(0.10 * size), 2)
    if lower_index < guard or upper_index >= size - guard:
        raise ValueError("band does not fit the grid inside its guard bands; "
                         "increase m_power or domain_factor")
    ref_index = k_lo + n_band // 2

    edge_lo, edge_hi = math.inf, math.inf
    for model in models:
        lo, hi = analyticity_strip(model)
        edge_lo = min(edge_lo, abs(lo))
        edge_hi = min(edge_hi, abs(hi))
    omega_plus = -min(DAMPING_CAP, DAMPING_SCALE * edge_lo)
    omega_minus = min(DAMPING_CAP, DAMPING_SCALE * edge_hi)
    # damping scales by exp(+-omega*x), and window_mask squares distances of
    # up to a few times the reach in roll-off widths: over an absurdly wide
    # domain either would overflow
    reach = max(abs(x_min), abs(x_min + (size - 1) * dx))
    omega = max(abs(omega_plus), abs(omega_minus))
    if not (omega * reach <= MAX_DAMPING_EXPONENT
            and 8.0 * reach / WINDOW_ROLLOFF <= math.sqrt(sys.float_info.max)):
        raise ValueError(f"the domain reaches |x| = {reach:.3g}, too wide for damped "
                         f"transforms at |omega| = {omega:.3g}; narrow the band or "
                         f"lower domainFactor")
    return DualGrid(x_min=x_min, dx=dx, size=size, lower_index=lower_index,
                    upper_index=upper_index, ref_index=ref_index,
                    omega_plus=omega_plus, omega_minus=omega_minus,
                    guard=guard)


@dataclass
class SampledFunction:
    """Far-field constants plus residual samples on a DualGrid.

    ``values`` holds the residual with shape (..., M); ``c_lo``/``c_hi`` are
    scalars or arrays matching the leading dimensions.  All three are
    float64 when none of them is complex, and complex128 otherwise: at a
    real spectral value the operators map real data to real data.
    """

    grid: DualGrid
    values: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    def __post_init__(self):
        parts = (self.values, self.c_lo, self.c_hi)
        dtype = np.complex128 if any(map(_is_complex, parts)) else np.float64
        self.values = np.asarray(self.values, dtype)
        if self.values.shape[-1] != self.grid.size:
            raise ValueError("residual length must match the grid")
        # owned copies, one per row
        shape = self.values.shape[:-1]
        self.c_lo, self.c_hi = np.empty(shape, dtype), np.empty(shape, dtype)
        np.copyto(self.c_lo, parts[1], casting="unsafe")
        np.copyto(self.c_hi, parts[2], casting="unsafe")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grid: DualGrid, shape=(), dtype=np.float64) -> "SampledFunction":
        return cls(grid, np.zeros(shape + (grid.size,), dtype), np.zeros(shape), np.zeros(shape))

    @classmethod
    def constant(cls, grid: DualGrid, c) -> "SampledFunction":
        return cls(grid, np.zeros(np.shape(c) + (grid.size,)), c, c)

    @classmethod
    def from_samples(cls, grid: DualGrid, full, c_lo=0.0, c_hi=0.0) -> "SampledFunction":
        """Wrap full samples of a function with known far-field constants."""
        return cls._split(grid, np.array(full), c_lo, c_hi)

    @classmethod
    def _split(cls, grid: DualGrid, res: np.ndarray, c_lo, c_hi) -> "SampledFunction":
        """Take the far-field constants out of the full samples ``res``, in
        place when ``res`` already has the function's dtype; ``res`` must be
        an array no one else holds."""
        u = cls(grid, res, c_lo, c_hi)
        for which, c in enumerate((u.c_lo, u.c_hi)):
            ix, where = grid.side(which)
            np.subtract(u.values[ix], c[..., None], out=u.values[ix], where=where)
        return u

    @classmethod
    def beyond(cls, grid: DualGrid, full, c_lo, c_hi, node: int, direction: int,
               at_node: float, out: np.ndarray | None = None) -> "SampledFunction":
        """``full`` kept beyond ``node`` in ``direction`` and weighted by
        ``at_node`` at the node, zero on the other side.  The far-field
        constant of the kept side stays; the other one becomes 0.  The
        residual goes to ``out`` when given (``full`` itself included), else
        to a new array."""
        if direction > 0:
            c_lo = np.zeros_like(c_lo)
        else:
            c_hi = np.zeros_like(c_hi)
        return cls._split(grid, np.multiply(full, grid.half_line(node, direction, at_node),
                                            out=out), c_lo, c_hi)

    @classmethod
    def step(cls, grid: DualGrid, region: Region, c) -> "SampledFunction":
        """Indicator of the region times the constant c, spectrally sampled.

        The jump node carries the mid-value c/2: a full-weight sample places
        the effective discontinuity half a cell off the barrier, which the
        damped-FFT algebra turns into an O(dx) barrier displacement.
        """
        c = np.asarray(c)
        return cls.beyond(grid, c[..., None], c, c, *grid.region_edge(region), 0.5)

    # -- basic algebra ------------------------------------------------
    @property
    def shape(self):
        return self.values.shape[:-1]

    def full(self, out: np.ndarray | None = None) -> np.ndarray:
        """The samples with the far fields added back, in ``out`` when given
        (``values`` itself included), else in a new array."""
        if out is None:
            out = self.values.copy()
        elif out is not self.values:
            np.copyto(out, self.values)
        for which, c in enumerate((self.c_lo, self.c_hi)):
            ix, where = self.grid.side(which)
            np.add(out[ix], c[..., None], out=out[ix], where=where)
        return out

    # ``out``, where taken, receives the residual (``values`` itself
    # included); without it the residual is a new array
    def add(self, other, out: np.ndarray | None = None) -> "SampledFunction":
        self._check(other)
        return SampledFunction(self.grid, np.add(self.values, other.values, out=out),
                               self.c_lo + other.c_lo, self.c_hi + other.c_hi)

    def scale(self, factor, out: np.ndarray | None = None) -> "SampledFunction":
        """Multiply by a scalar or a per-row vector."""
        f = np.asarray(factor)
        return SampledFunction(self.grid, np.multiply(self.values, f[..., None], out=out),
                               self.c_lo * f, self.c_hi * f)

    def _check(self, other):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("operands live on different grids")

    def sup_norm(self, work: tuple | None = None) -> float:
        """Max magnitude over the interior samples and the far fields.

        ``work``, an array of the values' dtype and a real one, each shaped
        like ``values``, takes the interior's sums and magnitudes in place
        of new arrays.  The first may be ``values`` itself, which then holds
        the full samples over the interior.
        """
        total, mag = (None, None) if work is None else work
        peaks = []
        for which, c in enumerate((self.c_lo, self.c_hi)):
            ix, where = self.grid.side(which, interior=True)
            s = np.add(self.values[ix], c[..., None],
                       out=None if total is None else total[ix], where=where)
            s = np.abs(s, out=None if mag is None else mag[ix], where=where)
            peaks.append(np.max(s, where=where, initial=0.0))
        m = float(np.maximum(*peaks))
        return max(m, float(np.abs(self.c_lo).max(initial=0.0)),
                   float(np.abs(self.c_hi).max(initial=0.0)))

    def select(self, idx) -> "SampledFunction":
        return SampledFunction(self.grid, self.values[idx], self.c_lo[idx], self.c_hi[idx])

    def rows(self, idx: slice) -> "SampledFunction":
        """A run of rows that shares this function's arrays: a write through
        either shows in both."""
        view = SampledFunction(self.grid, self.values[idx], 0.0, 0.0)
        view.c_lo, view.c_hi = self.c_lo[idx], self.c_hi[idx]
        return view

    def assign(self, idx, other: "SampledFunction") -> None:
        self.values[idx] = other.values
        self.c_lo[idx] = other.c_lo
        self.c_hi[idx] = other.c_hi


def indicator_soft(u: SampledFunction, region: Region,
                   out: np.ndarray | None = None) -> SampledFunction:
    """Indicator multiplication with the spectral (mid-value) node convention.

    The barrier node keeps half of u, the average of the closed and open
    brackets: complementary regions still partition unity exactly, and
    sampled jumps stay centred on the barrier.  The residual goes to
    ``out`` when given (``u.values`` itself included), else to a new array.
    """
    full = u.full(out)
    return SampledFunction.beyond(u.grid, full, u.c_lo, u.c_hi,
                                  *u.grid.region_edge(region), 0.5, out=full)
