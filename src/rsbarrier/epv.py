"""Expected-present-value operators as damped Fourier multipliers.

E+ ("sup side") and E- ("inf side") act as the identity on constants and as
the multiplier phi^+- (xi + i omega) on the decaying part, evaluated along a
damped contour: damp by exp(omega*x), transform, multiply, undamp.  The sup
side damps with omega < 0 so the upper far-field step becomes integrable;
the inf side mirrors.  Inputs are tapered to zero over the guard band before
transforming, which keeps the damping-amplified wraparound of residual tails
out of the interior; accuracy claims exclude the guard band.
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


def apply_multiplier(u: SampledFunction, symbol: np.ndarray, a0: complex,
                     omega: float, error_cls=GridResolutionError,
                     window: float | None = None) -> SampledFunction:
    """Apply a Fourier multiplier along the contour Im xi = omega.

    ``symbol`` holds the multiplier on grid.xi + i*omega (fft order); ``a0``
    is its value at xi = 0, applied to the constants exactly.  The far-field
    step is folded into the damped transform (it decays after damping), so

        out = a0*base + undamp(ifft(symbol * fft(damp(step + residual)))).
    """
    grid = u.grid
    x = grid.x
    idx = np.arange(grid.size)
    mask_hi = idx >= grid.ref_index
    if omega < 0.0:
        step = (u.c_hi - u.c_lo)[..., None] * mask_hi
        base = u.c_lo
    elif omega > 0.0:
        step = (u.c_lo - u.c_hi)[..., None] * (~mask_hi)
        base = u.c_hi
    else:
        if not np.allclose(u.c_lo, u.c_hi, atol=1e-300, rtol=1e-12):
            raise ContourError(
                "undamped application needs equal far-field constants"
            )
        step = 0.0
        base = u.c_lo

    scale = max(u.sup_norm(interior=True), 1e-300)
    k = max(grid.guard // 4, 1)
    edge_lo = float(np.max(np.abs(u.values[..., :k])))
    edge_hi = float(np.max(np.abs(u.values[..., -k:])))
    if max(edge_lo, edge_hi) > grid.decay_tol * scale:
        raise error_cls(
            f"residual does not decay at the grid ends "
            f"(edges {edge_lo:.2e}/{edge_hi:.2e} vs tol {grid.decay_tol * scale:.2e}); "
            f"enlarge the domain or M"
        )
    damp = np.exp(omega * x)
    g = (u.values + step) * damp
    # taper only the damping-suppressed side: wrapped mass from there is
    # re-amplified by undamping, while the other side's tail is real content
    taper_side = "lo" if omega < 0.0 else ("hi" if omega > 0.0 else "both")
    g = g * grid.taper(taper_side)
    core = np.fft.ifft(np.fft.fft(g, axis=-1) * (symbol * grid.spectral_roll()),
                       axis=-1) / damp

    out_lo = a0 * u.c_lo
    out_hi = a0 * u.c_hi
    if omega < 0.0:
        res = core - (a0 * (u.c_hi - u.c_lo))[..., None] * mask_hi
    elif omega > 0.0:
        res = core - (a0 * (u.c_lo - u.c_hi))[..., None] * (~mask_hi)
    else:
        res = core
    # confine the output residual: undamped kernel leakage grows like
    # exp(|omega| |x|) away from the band and would poison the next
    # opposite-side application, while true content out there is negligible
    if window is not None:
        res = res * grid.window_mask(window)
    res = res * grid.taper("both")
    return SampledFunction(grid, res, out_lo, out_hi)


def apply_epv(factors: WHFactorization, side: str, u: SampledFunction) -> SampledFunction:
    """E^side: identity on constants, phi^side multiplier on the rest."""
    omega = effective_omega(factors, side)
    cs = factors.contour_symbols(omega)
    symbol = cs.phi_plus if side == "plus" else cs.phi_minus
    return apply_multiplier(u, symbol, 1.0, omega, window=residual_window(factors))


def apply_epv_inverse(factors: WHFactorization, side: str, u: SampledFunction) -> SampledFunction:
    """(E^side)^{-1}: multiplier 1/phi^side; meant for inverse-then-indicator-
    then-forward compositions, where the growing intermediate is re-smoothed."""
    omega = effective_omega(factors, side)
    cs = factors.contour_symbols(omega)
    symbol = cs.phi_plus if side == "plus" else cs.phi_minus
    return apply_multiplier(u, 1.0 / symbol, 1.0, omega,
                            error_cls=IllPosedApplicationError,
                            window=residual_window(factors))


def _boundary_value(u: SampledFunction, node: int, direction: int) -> np.ndarray:
    """One-sided limit of u at a barrier node, linearly extrapolated from the
    data side (the node itself holds the spectral mid-value)."""
    full = u.full()
    a = full[..., node + direction]
    b = full[..., node + 2 * direction]
    return 2.0 * a - b


def _peeled_tail(u: SampledFunction, c_b, node: int, direction: int) -> SampledFunction:
    """(u - c_b) restricted strictly beyond the barrier node.

    The peeled remainder vanishes at the barrier by construction of c_b, so
    its mid-value there is zero no matter whether u itself jumps; keeping
    the node would re-introduce half of u's own jump.
    """
    grid = u.grid
    idx = np.arange(grid.size)
    keep = idx > node if direction > 0 else idx < node
    full = (u.full() - c_b[..., None]) * keep
    if direction > 0:
        c_lo, c_hi = np.zeros_like(u.c_lo), u.c_hi - c_b
    else:
        c_lo, c_hi = u.c_lo - c_b, np.zeros_like(u.c_hi)
    return SampledFunction.from_samples(grid, full, c_lo, c_hi)


def _keep_beyond(z: SampledFunction, node: int, direction: int) -> SampledFunction:
    """Mask onto the barrier-and-beyond side for data whose true values on
    the killed side are small but nonzero.

    The node must end up holding the mid-value of (0, kept-side limit); the
    sampled node already holds the mid-value of the two one-sided limits, so
    half of the killed-side limit (extrapolated) is removed before zeroing.
    """
    grid = z.grid
    full = z.full()
    killed_limit = 2.0 * full[..., node - direction] - full[..., node - 2 * direction]
    full[..., node] = full[..., node] - 0.5 * killed_limit
    idx = np.arange(grid.size)
    keep = idx >= node if direction > 0 else idx <= node
    full = full * keep
    if direction > 0:
        c_lo, c_hi = np.zeros_like(z.c_lo), z.c_hi
    else:
        c_lo, c_hi = z.c_lo, np.zeros_like(z.c_hi)
    return SampledFunction.from_samples(grid, full, c_lo, c_hi)


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
    z = apply_epv_inverse(factors, side, tail)
    z = _keep_beyond(z, node, direction)
    out = apply_epv(factors, side, z)
    if _creeps(factors.model, side):
        # creeping passage sees only the boundary value, which the peel set
        # to zero: the true contribution beyond the data region vanishes
        grid = out.grid
        idx = np.arange(grid.size)
        keep = idx >= node if direction > 0 else idx <= node
        full = out.full() * keep
        c_lo = np.zeros_like(out.c_lo) if direction > 0 else out.c_lo
        c_hi = out.c_hi if direction > 0 else np.zeros_like(out.c_hi)
        out = SampledFunction.from_samples(grid, full, c_lo, c_hi)
    return out


def first_touch_above(factors: WHFactorization, u: SampledFunction) -> SampledFunction:
    """E+ 1_[h+,inf) (E+)^{-1} u: the value process started from receiving u
    at the first entrance of [h+, inf).

    The data's boundary value is peeled off first: the inverse of a hard step
    concentrates a delta on the barrier node, and the indicator would clip
    it.  The constant part maps through E+ 1_[h+,inf) directly; the remainder
    vanishes at the barrier, so its inverse image is delta-free.
    """
    grid = u.grid
    c_b = _boundary_value(u, grid.upper_index, +1)
    step = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, c_b)
    out = apply_epv(factors, "plus", step)
    tail = _peeled_tail(u, c_b, grid.upper_index, +1)
    if tail.sup_norm() > 1e-13 * max(u.sup_norm(), 1e-300):
        out = out + _tail_image(factors, "plus", tail, grid.upper_index, +1)
    return out


def first_touch_below(factors: WHFactorization, u: SampledFunction) -> SampledFunction:
    """E- 1_(-inf,h-] (E-)^{-1} u: mirror of first_touch_above at the lower barrier."""
    grid = u.grid
    c_b = _boundary_value(u, grid.lower_index, -1)
    step = SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, c_b)
    out = apply_epv(factors, "minus", step)
    tail = _peeled_tail(u, c_b, grid.lower_index, -1)
    if tail.sup_norm() > 1e-13 * max(u.sup_norm(), 1e-300):
        out = out + _tail_image(factors, "minus", tail, grid.lower_index, -1)
    return out
