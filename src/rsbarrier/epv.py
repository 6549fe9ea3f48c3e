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

``first_touch_above``/``first_touch_below`` compose these into the value of
receiving given data at the first entrance of the region beyond a barrier.
"""

from __future__ import annotations

import numpy as np

from .errors import ContourError, GridResolutionError, IllPosedApplicationError
from .grids import Region, SampledFunction
from .wiener_hopf import WHFactorization

__all__ = [
    "apply_epv",
    "apply_epv_inverse",
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


def apply_multiplier(u: SampledFunction, symbol: np.ndarray, omega: float,
                     window: float, error_cls=GridResolutionError) -> SampledFunction:
    """Apply a Fourier multiplier along the contour Im xi = omega != 0.

    ``symbol`` holds the multiplier on grid.xi + i*omega (fft order) and is 1
    at xi = 0, so the far-field constants pass through unchanged.  The
    far-field step is folded into the damped transform (it decays after
    damping; omega < 0 damps the upper side, omega > 0 the lower), so

        out = c + undamp(ifft(symbol * fft(damp(step + residual)))) - step,

    with the output residual confined to ``window`` beyond the band.
    """
    grid = u.grid
    scale = max(u.sup_norm(), 1e-300)
    k = max(grid.guard // 4, 1)
    edge_lo = float(np.max(np.abs(u.values[..., :k])))
    edge_hi = float(np.max(np.abs(u.values[..., -k:])))
    if max(edge_lo, edge_hi) > grid.decay_tol * scale:
        raise error_cls(
            f"residual does not decay at the grid ends "
            f"(edges {edge_lo:.2e}/{edge_hi:.2e} vs tol {grid.decay_tol * scale:.2e}); "
            f"enlarge the domain or M"
        )
    # taper only the damping-suppressed side: wrapped mass from there is
    # re-amplified by undamping, while the other side's tail is real content
    if omega < 0.0:
        step = (u.c_hi - u.c_lo)[..., None] * grid.hi_side
        taper = grid.taper_lo
    else:
        step = (u.c_lo - u.c_hi)[..., None] * (~grid.hi_side)
        taper = grid.taper_hi
    damp = np.exp(omega * grid.x)
    g = (u.values + step) * damp * taper
    core = np.fft.ifft(np.fft.fft(g, axis=-1) * (symbol * grid.roll),
                       axis=-1) / damp
    # confine the output residual: undamped kernel leakage grows like
    # exp(|omega| |x|) away from the band and would poison the next
    # opposite-side application, while true content out there is negligible
    res = (core - step) * grid.window_mask(window) * grid.taper_both
    return SampledFunction(grid, res, u.c_lo, u.c_hi)


def _side_symbol(factors: WHFactorization, side: str):
    """(omega, phi^side on the contour Im xi = omega) for this factorization."""
    omega = effective_omega(factors, side)
    cs = factors.contour_symbols(omega)
    return omega, (cs.phi_plus if side == "plus" else cs.phi_minus)


def apply_epv(factors: WHFactorization, side: str, u: SampledFunction) -> SampledFunction:
    """E^side: identity on constants, phi^side multiplier on the rest."""
    omega, symbol = _side_symbol(factors, side)
    return apply_multiplier(u, symbol, omega, residual_window(factors))


def apply_epv_inverse(factors: WHFactorization, side: str, u: SampledFunction) -> SampledFunction:
    """(E^side)^{-1}: multiplier 1/phi^side; meant for inverse-then-indicator-
    then-forward compositions, where the growing intermediate is re-smoothed."""
    omega, symbol = _side_symbol(factors, side)
    return apply_multiplier(u, 1.0 / symbol, omega, residual_window(factors),
                            error_cls=IllPosedApplicationError)


def _boundary_value(full: np.ndarray, node: int, direction: int) -> np.ndarray:
    """One-sided limit at a barrier node of the full samples, linearly
    extrapolated from the data side (the node itself holds the spectral
    mid-value)."""
    return 2.0 * full[..., node + direction] - full[..., node + 2 * direction]


def _creeps(model, side: str) -> bool:
    """Whether the barrier on this side can only be hit by creeping (no jumps
    across it); first touch then happens exactly at the barrier."""
    from .models import BrownianDrift, KouJumpDiffusion

    if isinstance(model, BrownianDrift):
        return True
    if isinstance(model, KouJumpDiffusion):
        prob = model.p if side == "plus" else 1.0 - model.p
        return model.lambda_j * prob == 0.0
    return False


def _tail_image(factors, side, tail, node, direction) -> SampledFunction:
    """E^side 1_beyond (E^side)^{-1} tail for a tail that vanishes at the node.

    The inverse image's node must end up holding the mid-value of (0,
    kept-side limit); the sampled node already holds the mid-value of the
    two one-sided limits, so half of the killed-side limit (extrapolated) is
    removed before zeroing the killed side.
    """
    z = apply_epv_inverse(factors, side, tail)
    full = z.full()
    full[..., node] -= 0.5 * _boundary_value(full, node, -direction)
    z = SampledFunction.beyond(z.grid, full, z.c_lo, z.c_hi, node, direction, 1.0)
    out = apply_epv(factors, side, z)
    if _creeps(factors.model, side):
        # creeping passage sees only the boundary value, which the peel set
        # to zero: the true contribution beyond the data region vanishes
        out = SampledFunction.beyond(out.grid, out.full(), out.c_lo, out.c_hi,
                                     node, direction, 1.0)
    return out


def _first_touch(factors: WHFactorization, side: str, u: SampledFunction) -> SampledFunction:
    """E^side 1_beyond (E^side)^{-1} u, beyond the barrier of ``side``
    (at or above h+ for "plus", at or below h- for "minus").

    The data's boundary value c_b is peeled off first: the inverse of a hard
    step concentrates a delta on the barrier node, and the indicator would
    clip it.  The constant part maps through E^side 1_beyond directly.  The
    remainder (u - c_b) is kept strictly beyond the node: it vanishes at the
    barrier by construction of c_b, so its mid-value there is zero whether
    or not u itself jumps, and its inverse image is delta-free.
    """
    grid = u.grid
    region = Region.AT_OR_ABOVE_UPPER if side == "plus" else Region.AT_OR_BELOW_LOWER
    node, direction = grid.region_edge(region)
    full = u.full()
    c_b = _boundary_value(full, node, direction)
    out = apply_epv(factors, side, SampledFunction.step(grid, region, c_b))
    tail = SampledFunction.beyond(grid, full - c_b[..., None], u.c_lo - c_b,
                                  u.c_hi - c_b, node, direction, 0.0)
    if tail.sup_norm() > 1e-13 * max(u.sup_norm(), 1e-300):
        out = out + _tail_image(factors, side, tail, node, direction)
    return out


def first_touch_above(factors: WHFactorization, u: SampledFunction) -> SampledFunction:
    """E+ 1_[h+,inf) (E+)^{-1} u: the value process started from receiving u
    at the first entrance of [h+, inf)."""
    return _first_touch(factors, "plus", u)


def first_touch_below(factors: WHFactorization, u: SampledFunction) -> SampledFunction:
    """E- 1_(-inf,h-] (E-)^{-1} u: the value process started from receiving u
    at the first entrance of (-inf, h-]."""
    return _first_touch(factors, "minus", u)
