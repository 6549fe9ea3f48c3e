"""Test oracles computed apart from the pricing path.

``core_region`` is the mask where pointwise accuracy is asserted,
``undamped_multiplier`` applies a symbol on the real axis with no damping,
``complex_multiplier`` applies E^side by full complex transforms of the
full-contour symbols, against which real plans are checked,
``log_factor_cauchy_reference`` is the literal Cauchy-integral form of the
Wiener-Hopf log-factor, against which the spectral split is checked,
``IntegralRoute`` gives a rational model the comparison symbol it needs to
take the spectral split, whose factors are checked against its roots',
``full_by_masks``/``sup_norm_by_masks`` form full samples and their norm with
whole-grid side masks, against which the sliced forms are checked, and
``full_product_walk`` walks a Monte Carlo sojourn taking the bridge factor of
every step, against which the walk that takes only the factors near a
barrier is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rsbarrier.epv import effective_omega, residual_window
from rsbarrier.errors import ContourError
from rsbarrier.grids import SampledFunction
from rsbarrier.models import LevyModel, analyticity_strip, char_exponent


def core_region(grid, widths: float = 2.0) -> np.ndarray:
    """Mask of the band plus ``widths`` band-widths on each side.

    Pointwise accuracy statements live here: near the guard the circular
    truncation of the operator kernels contributes O(exp(-beta * dist))
    errors that have no bearing on values around the band.
    """
    band = grid.upper - grid.lower
    lo = grid.lower - widths * band
    hi = grid.upper + widths * band
    x = grid.x
    return (x >= lo) & (x <= hi)


def undamped_multiplier(u: SampledFunction, symbol: np.ndarray) -> SampledFunction:
    """Apply ``symbol`` (on grid.xi, fft order, 1 at xi = 0) on the real axis.

    Without damping the residual must decay on both sides, so the far-field
    constants must agree; the residual is tapered at both guard bands before
    and after the transform, and the symbol is rolled off like the grid's.
    """
    grid = u.grid
    if not np.allclose(u.c_lo, u.c_hi, atol=1e-300, rtol=1e-12):
        raise ContourError("undamped application needs equal far-field constants")
    g = u.values * grid.taper_both
    core = np.fft.ifft(np.fft.fft(g, axis=-1) * (symbol * grid.roll), axis=-1)
    return SampledFunction(grid, core * grid.taper_both, u.c_lo, u.c_hi)


def complex_multiplier(u: SampledFunction, factors, side: str,
                       inverse: bool = False) -> SampledFunction:
    """E^side (1/phi^side if ``inverse``) of one factorization on ``u`` by
    complex FFTs over the whole contour: the far-field step is added and
    taken out by whole-grid masks, and the symbol is read straight from
    ``contour_symbols``, all M bins of it."""
    grid = u.grid
    omega = effective_omega(factors, side)
    cs = factors.contour_symbols(omega)
    symbol = cs.phi_plus if side == "plus" else cs.phi_minus
    if inverse:
        symbol = 1.0 / symbol
    hi_side = grid.index >= grid.ref_index
    if side == "plus":
        far, taper, step = hi_side, grid.taper_lo, u.c_hi - u.c_lo
    else:
        far, taper, step = ~hi_side, grid.taper_hi, u.c_lo - u.c_hi
    far_step = step[..., None] * far
    damp = np.exp(omega * grid.x)
    g = (u.values + far_step) * damp * taper
    g = np.fft.ifft(np.fft.fft(g, axis=-1) * (symbol * grid.roll), axis=-1) / damp
    g = (g - far_step) * grid.window_mask(residual_window(factors)) * grid.taper_both
    return SampledFunction(grid, g, u.c_lo, u.c_hi)


def log_factor_cauchy_reference(model: LevyModel, Q: complex, xi: complex,
                                side: str = "plus", omega_line: float | None = None,
                                n_nodes: int = 24001, y_max: float = 16.0,
                                b_scale: float = 1.0):
    """Literal Cauchy-projection for ln phi^side at one point (diagnostics).

    ln phi+(xi) = (1/2*pi*i) * int_{Im eta = omega_line} l(eta) * xi /
    (eta*(eta - xi)) d eta with l = ln(Q/(Q+psi)), the line below Im xi (above
    for the minus factor), trapezoid in y after eta = i*omega_line + b*sinh(y).
    """
    lo, hi = analyticity_strip(model)
    if omega_line is None:
        omega_line = 0.4 * lo if side == "plus" else 0.4 * hi
        if not math.isfinite(omega_line):
            omega_line = -1.0 if side == "plus" else 1.0
    if side == "plus" and not complex(xi).imag > omega_line:
        raise ContourError("plus factor needs Im xi above the line")
    if side == "minus" and not complex(xi).imag < omega_line:
        raise ContourError("minus factor needs Im xi below the line")
    y = np.linspace(-y_max, y_max, n_nodes)
    eta = 1j * omega_line + b_scale * np.sinh(y)
    deta = b_scale * np.cosh(y)
    vals = Q + char_exponent(model, eta)
    if np.min(np.abs(vals)) <= 0.0:
        raise ContourError("Q + psi vanishes on the factor line")
    l = np.log(Q) - np.log(vals)  # principal; caller keeps Re Q generous
    kernel = xi / (eta * (eta - xi))
    integral = np.trapezoid(l * kernel * deta, dx=y[1] - y[0])
    sign = 1.0 if side == "plus" else -1.0
    return sign * integral / (2.0j * math.pi)


@dataclass(frozen=True)
class IntegralRoute:
    """A Brownian or Kou ``model`` sent down the spectral split, which the
    library takes for KoBoL alone: psi and its strip are the model's, and
    the comparison symbol C(xi) = kappa*(p - i xi)*(m + i xi) matches the
    growth of Q + psi at |xi| -> inf (it needs sigma2 > 0), with its
    quadratic roots placed for Re ``Q``."""

    model: LevyModel
    Q: complex

    rational = False  # the route a factorization reads off its model

    def strip(self):
        return self.model.strip()

    def check_domain(self, z):
        self.model.check_domain(z)

    def psi_unchecked(self, z):
        return self.model.psi_unchecked(z)

    def comparison_symbol(self):
        sig2 = self.model.sigma2
        kappa = 0.5 * sig2
        pm = max(2.0 * (self.model.lambda_j + max(self.Q.real, 0.5)) / sig2, 0.25)
        d = -2.0 * self.model.mu / sig2
        p = 0.5 * (d + math.sqrt(d * d + 4.0 * pm))
        return kappa, 1.0, p, 1.0, p - d


def full_by_masks(u: SampledFunction) -> np.ndarray:
    """Full samples by the far-field side masks: c_lo below ref_index, c_hi
    at and above it, each multiplied in over the whole grid."""
    hi_side = u.grid.index >= u.grid.ref_index
    return u.values + u.c_lo[..., None] * (~hi_side) + u.c_hi[..., None] * hi_side


def sup_norm_by_masks(u: SampledFunction) -> float:
    """Max magnitude over the interior of ``full_by_masks`` and the far fields."""
    interior = slice(u.grid.guard, u.grid.size - u.grid.guard)
    m = float(np.max(np.abs(full_by_masks(u)[..., interior])))
    return max(m, float(np.max(np.abs(u.c_lo), initial=0.0)),
               float(np.max(np.abs(u.c_hi), initial=0.0)))


def full_product_walk(rng, x0, t0, times, sizes, model, lower, upper, bridge,
                      have_jumps):
    """(alive, weight, x_end) of one sojourn, the bridge weight taken as the
    product of (1 - e^{-2(u-s)(u-e)/(sigma^2 dt)})(1 - e^{-2(s-l)(e-l)/(sigma^2 dt)})
    over every step, however far from a barrier."""
    if times.size == 0:
        return True, 1.0, x0
    deltas = np.diff(times, prepend=t0)
    sig2 = model.sigma2
    mu = model.mu
    if sig2 > 0.0:
        incs = mu * deltas + np.sqrt(sig2 * deltas) * rng.standard_normal(times.size)
    else:
        incs = mu * deltas
    if have_jumps:
        pre = x0 + np.cumsum(incs) + (np.cumsum(sizes) - sizes)
        post = pre + sizes
        ok = (pre.min() > lower and pre.max() < upper
              and post.min() > lower and post.max() < upper)
    else:
        pre = post = x0 + np.cumsum(incs)
        ok = pre.min() > lower and pre.max() < upper
    if not ok:
        return False, 0.0, float(post[-1])
    weight = 1.0
    if bridge and sig2 > 0.0:
        starts = np.empty_like(post)
        starts[0] = x0
        starts[1:] = post[:-1]
        up = np.exp(-2.0 * (upper - starts) * (upper - pre) / (sig2 * deltas))
        dn = np.exp(-2.0 * (starts - lower) * (pre - lower) / (sig2 * deltas))
        weight = float(np.prod((1.0 - up) * (1.0 - dn)))
    return True, weight, float(post[-1])
