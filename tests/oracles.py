"""Test oracles computed apart from the pricing path.

``core_region`` is the mask where pointwise accuracy is asserted,
``undamped_multiplier`` applies a symbol on the real axis with no damping,
and ``log_factor_cauchy_reference`` is the literal Cauchy-integral form of
the Wiener-Hopf log-factor, against which the spectral split is checked.
"""

from __future__ import annotations

import math

import numpy as np

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
