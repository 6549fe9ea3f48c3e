"""Expected-present-value operators as damped Fourier multipliers.

E+ ("sup side") and E- ("inf side") act as the identity on constants and as
the multiplier phi^+- (xi + i omega) on the rest, evaluated along a damped
contour: fold the far-field step into the residual, damp by exp(omega*x),
transform, multiply by the symbol times the grid's spectral roll, undamp and
take the step back out.  The sup side damps with omega < 0 so the upper
far-field step becomes integrable; the inf side mirrors.  Before the
transform the damping-suppressed guard band is tapered to zero, which keeps
the damping-amplified wraparound out of the interior; the output residual is
confined to a window around the band and tapered at both guard bands.
Accuracy claims exclude the guard band.

What depends only on one regime head's factorization (exp(omega*x), the
symbols times the roll, the window) is built once per (spectral value,
side, head) into an ``OperatorPlan``.  A plan and the rows given to it
belong to one head: the operators depend on a history only through its
head, whose rows are one contiguous run of the batch
(``MemoryChain.head_rows``), and the engine's sweeps make one inner-side and
one outer-side application per head group, each with that head's plan.

At a real Q (GWR's nodes) the symbols are Hermitian and the operators map
real data to real data, so a plan of a real Q is a real plan: it keeps the
non-negative-frequency half of each symbol and maps real (float64) samples
through real FFTs.  Complex Q (sinh nodes) keeps the full spectrum and maps
real or complex samples through complex FFTs; the rest of an application is
the same.

``first_touch_above``/``first_touch_below`` compose these into the value of
receiving given data at the first entrance of the region beyond a barrier.
On a side the head's process crosses only by creeping, first entrance is at
the barrier itself, so the part of the data that vanishes there is its own
image and only the data's boundary value takes a transform; a side that
jumps takes that part through an inverse and a forward application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, GridResolutionError, IllPosedApplicationError
from .grids import DualGrid, Region, SampledFunction, _frozen
from .wiener_hopf import WHFactorization

__all__ = [
    "OperatorPlan",
    "apply_epv",
    "apply_multiplier",
    "effective_omega",
]


def effective_omega(factors: WHFactorization, side: str) -> float:
    """Damping contour for this factorization: the grid default, capped at
    half the distance to the factor's nearest off-axis singularity."""
    grid = factors.grid
    if side == "plus":
        omega = -min(abs(grid.omega_plus), 0.5 * factors.decay_plus)
        if omega >= 0.0:
            raise ContourError("no room below the axis for the sup-side contour")
    elif side == "minus":
        omega = min(grid.omega_minus, 0.5 * factors.decay_minus)
        if omega <= 0.0:
            raise ContourError("no room above the axis for the inf-side contour")
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return omega


def residual_window(factors: WHFactorization) -> float:
    """Residual confinement margin, balancing truncated-tail error against
    undamped kernel-leak noise (both ~ exp(-beta*W/ something))."""
    beta = min(factors.decay_plus, factors.decay_minus)
    if not np.isfinite(beta) or beta <= 0.0:
        beta = 1.0
    grid = factors.grid
    width = grid.dx * grid.size
    interior_margin = 0.5 * width - (grid.upper - grid.lower) - grid.guard * grid.dx
    return float(min(13.0 / beta, max(interior_margin, 2.0 * (grid.upper - grid.lower))))


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """The arrays of E^side for one regime head at one spectral value.

    Each array is one row that broadcasts against the head's history rows:
    ``damp`` is exp(omega*x) on the head's damping contour and ``undamp``
    its reciprocal, ``forward`` and ``inverse`` are phi^side and 1/phi^side
    on that contour times the grid's spectral roll, and ``window`` confines
    the output residual.  A plan depends only on the head's factorization,
    whose ``model`` it keeps; it is built once per (spectral value, side,
    head) and dropped with the node.

    ``real`` is set when Q is real.  The symbols are then Hermitian,
    phi(-xi + i omega) = conj phi(xi + i omega), so the operator maps real
    data to real data: ``forward`` and ``inverse`` keep only the M/2 + 1
    non-negative-frequency bins, and applications take real FFTs.
    """

    grid: DualGrid
    side: str
    model: object
    real: bool
    damp: np.ndarray
    undamp: np.ndarray
    forward: np.ndarray
    inverse: np.ndarray
    window: np.ndarray

    @classmethod
    def build(cls, fac: WHFactorization, side: str) -> "OperatorPlan":
        """Plan of E^side for one head's factorization.

        It reads one factor, phi^side on this side's contour, and asks the
        factorization for that factor alone; the other factor on that
        contour is never built while pricing.  Per spectral value it builds
        the damping, the symbols and the window; the roll is the grid's.
        """
        grid = fac.grid
        real = complex(fac.Q).imag == 0.0
        bins = slice(grid.size // 2 + 1) if real else slice(None)
        roll = grid.roll[bins]
        omega = effective_omega(fac, side)
        cs = fac.contour_symbols(omega, side)
        symbol = (cs.phi_plus if side == "plus" else cs.phi_minus)[bins]
        damp = np.exp(omega * grid.x)
        arrays = (damp, 1.0 / damp, symbol * roll, 1.0 / symbol * roll,
                  grid.window_mask(residual_window(fac)))
        return cls(grid, side, fac.model, real, *map(_frozen, arrays))


# every DECAY_PROBE_STRIDE-th interior node enters _check_decay's lower bound
DECAY_PROBE_STRIDE = 16
# largest residual at a grid end, relative to the sup-norm, that passes
DECAY_TOL = 1e-6


def _check_decay(u: SampledFunction, error_cls) -> None:
    """The residual must have decayed at both grid ends, relative to the
    sup-norm of the rows given, which belong to one head; a NaN residual
    fails.

    The edges are first held against a lower bound of the sup-norm: the far
    fields and every DECAY_PROBE_STRIDE-th interior node, each taken as the
    sup-norm takes it.  On finite data (a finite sum has no NaN or inf)
    passing that passes the full test.  Any other data takes the full
    sup-norm, which decides as it always has.
    """
    grid, v = u.grid, u.values
    k = max(grid.guard // 4, 1)
    lo, hi = (slice(half.start, half.stop, DECAY_PROBE_STRIDE)
              for half in grid.interior_halves())
    edge_lo = float(np.abs(v[..., :k]).max())
    edge_hi = float(np.abs(v[..., -k:]).max())
    edge = max(edge_lo, edge_hi)
    probes = (np.abs(v[..., lo] + u.c_lo[..., None]).max(initial=0.0),
              np.abs(v[..., hi] + u.c_hi[..., None]).max(initial=0.0),
              np.abs(u.c_lo).max(initial=0.0), np.abs(u.c_hi).max(initial=0.0))
    # a NaN among the probes must fail the comparison; max() may drop it
    bound = math.nan if any(map(math.isnan, probes)) else float(max(probes))
    if np.isfinite(v.sum()) and edge <= DECAY_TOL * max(bound, 1e-300):
        return
    scale = max(u.sup_norm(), 1e-300)
    if not edge <= DECAY_TOL * scale:  # NaN fails too
        raise error_cls(
            f"residual does not decay at the grid ends "
            f"(edges {edge_lo:.2e}/{edge_hi:.2e} vs tol {DECAY_TOL * scale:.2e}); "
            f"enlarge the domain or M"
        )


def _damped_pass(g: np.ndarray, step: np.ndarray, plan: OperatorPlan,
                 symbol: np.ndarray, spectrum: np.ndarray | None) -> None:
    """The multiplier, in place, on rows ``g`` of the plan's head whose
    far-field step is ``step``: on a real plan real rows through real FFTs
    whose half spectrum goes to ``spectrum`` (a new array when None),
    otherwise complex rows through complex FFTs in place."""
    grid = plan.grid
    # taper only the damping-suppressed side: wrapped mass from there is
    # re-amplified by undamping, while the other side's tail is real content
    (ix, where), taper = ((grid.side(1), grid.taper_lo) if plan.side == "plus"
                          else (grid.side(0), grid.taper_hi))
    np.add(g[ix], step, out=g[ix], where=where)
    g *= plan.damp
    g *= taper
    if plan.real:
        spectrum = np.fft.rfft(g, axis=-1, out=spectrum)
        spectrum *= symbol
        np.fft.irfft(spectrum, n=grid.size, axis=-1, out=g)
    else:
        np.fft.fft(g, axis=-1, out=g)
        g *= symbol
        np.fft.ifft(g, axis=-1, out=g)
    g *= plan.undamp
    # confine the output residual: undamped kernel leakage grows like
    # exp(|omega| |x|) away from the band and would poison the next
    # opposite-side application, while true content out there is negligible
    np.subtract(g[ix], step, out=g[ix], where=where)
    g *= plan.window
    g *= grid.taper_both


def apply_multiplier(u: SampledFunction, plan: OperatorPlan, inverse: bool = False,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> SampledFunction:
    """Apply the plan's multiplier (1/phi^side if ``inverse``) to every row.

    The rows belong to the plan's head, and every row gets its arrays.  The
    multiplier is 1 at xi = 0, so the far-field constants pass through
    unchanged.  The far-field step is folded into the damped transform (it
    decays after damping; the sup side damps the upper side, the inf side
    the lower), so

        out = c + undamp(ifft(symbol * fft(damp(step + residual)))) - step,

    with the output residual confined to the plan's window beyond the band;
    a row's output never depends on the other rows.  A real plan takes real
    samples only and gives real samples; a complex plan takes either and
    gives complex samples.

    The residual is written to ``out``, a C-contiguous array of the output
    dtype and the residual's shape that may be ``u.values`` itself.  On a
    real plan ``scratch``, a complex array of the residual's shape with
    M/2 + 1 in place of M, takes the half spectra.  Either is a new array
    when not given.
    """
    grid = u.grid
    if plan.real and np.iscomplexobj(u.values):
        raise ValueError("a real plan maps real samples; apply it to the real and "
                         "the imaginary part apart")
    _check_decay(u, IllPosedApplicationError if inverse else GridResolutionError)
    step = ((u.c_hi - u.c_lo) if plan.side == "plus" else (u.c_lo - u.c_hi))[..., None]
    symbol = plan.inverse if inverse else plan.forward
    dtype = np.float64 if plan.real else np.complex128
    if out is None:
        out = np.empty(u.values.shape, dtype)
    elif not (out.flags.c_contiguous and out.dtype == dtype and out.shape == u.values.shape):
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array "
                         f"of the residual's shape")
    if out is not u.values:
        np.copyto(out, u.values)
    _damped_pass(out, step, plan, symbol, scratch)
    return SampledFunction(grid, out, u.c_lo, u.c_hi)


def apply_epv(plan: OperatorPlan, u: SampledFunction, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> SampledFunction:
    """E^side: identity on constants, phi^side multiplier on the rest;
    ``out`` and ``scratch`` as in ``apply_multiplier``."""
    return apply_multiplier(u, plan, out=out, scratch=scratch)


def _boundary_value(full: np.ndarray, node: int, direction: int) -> np.ndarray:
    """One-sided limit at a barrier node of the full samples, linearly
    extrapolated from the data side (the node itself holds the spectral
    mid-value)."""
    return 2.0 * full[..., node + direction] - full[..., node + 2 * direction]


def _tail_image(plan: OperatorPlan, tail, node, direction) -> SampledFunction:
    """E^side 1_beyond (E^side)^{-1} tail, on a side that jumps, for a tail
    that vanishes at the node.

    The inverse image's node must end up holding the mid-value of (0,
    kept-side limit); the sampled node already holds the mid-value of the
    two one-sided limits, so half of the killed-side limit (extrapolated) is
    removed before zeroing the killed side.
    """
    z = apply_multiplier(tail, plan, inverse=True)
    full = z.full(out=z.values)
    full[..., node] -= 0.5 * _boundary_value(full, node, -direction)
    z = SampledFunction.beyond(z.grid, full, z.c_lo, z.c_hi, node, direction, 1.0, out=full)
    return apply_epv(plan, z, out=z.values)


def _first_touch(plan: OperatorPlan, u: SampledFunction) -> SampledFunction:
    """E^side 1_beyond (E^side)^{-1} u, beyond the barrier of the plan's
    side (at or above h+ for "plus", at or below h- for "minus"), on rows
    of the plan's head.  Whether the tail image is taken is decided over all
    of u's rows, so the engine calls this once per head group.

    The data's boundary value c_b is peeled off first: the inverse of a hard
    step concentrates a delta on the barrier node, and the indicator would
    clip it.  The constant part maps through E^side 1_beyond directly.  The
    remainder (u - c_b) is kept strictly beyond the node: it vanishes at the
    barrier by construction of c_b, so its mid-value there is zero whether
    or not u itself jumps.  On a side the head's process crosses only by
    creeping, first entrance happens at the barrier, where the remainder is
    0, so its image is the remainder itself: 0 in the band and at the node,
    and the data less c_b beyond.  On a side that jumps, its inverse image
    is delta-free and goes through ``_tail_image``.
    """
    grid = u.grid
    region = Region.AT_OR_ABOVE_UPPER if plan.side == "plus" else Region.AT_OR_BELOW_LOWER
    node, direction = grid.region_edge(region)
    full = u.full()
    c_b = _boundary_value(full, node, direction)
    step = SampledFunction.step(grid, region, c_b)
    out = apply_epv(plan, step, out=step.values)
    full -= c_b[..., None]
    tail = SampledFunction.beyond(grid, full, u.c_lo - c_b, u.c_hi - c_b,
                                  node, direction, 0.0, out=full)
    if plan.model.creeps(plan.side):
        return out.add(tail, out=out.values)
    if tail.sup_norm() > 1e-13 * max(u.sup_norm(), 1e-300):
        out = out.add(_tail_image(plan, tail, node, direction), out=out.values)
    return out


def first_touch_above(plan: OperatorPlan, u: SampledFunction) -> SampledFunction:
    """E+ 1_[h+,inf) (E+)^{-1} u: the value process started from receiving u
    at the first entrance of [h+, inf).  ``plan`` is a sup-side plan."""
    return _first_touch(plan, u)


def first_touch_below(plan: OperatorPlan, u: SampledFunction) -> SampledFunction:
    """E- 1_(-inf,h-] (E-)^{-1} u: the value process started from receiving u
    at the first entrance of (-inf, h-].  ``plan`` is an inf-side plan."""
    return _first_touch(plan, u)
