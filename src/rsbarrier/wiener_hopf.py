"""Wiener-Hopf factorization of Q/(Q + psi) into half-plane factors.

Two constructions, both pinned by the same two anchors rather than copied
formulas: the product identity phi+ * phi- = Q/(Q+psi) and the
normalization phi+-(0) = 1.

* Rational models (Brownian, Kou): clear denominators, take companion-matrix
  roots of the resulting polynomial (degree <= 4), polish on Q + psi, split
  by half-plane.  phi+ collects the lower-half-plane roots as
  prod beta_j/(beta_j - i xi) times the up-jump pole correction, so the
  identity holds to root accuracy.

* General models (KoBoL): sample l = ln(Q/(Q+psi)) along the application
  contour, subtract an explicitly factorizable comparison symbol matched to
  the growth of Q + psi so the remainder decays, and split the remainder
  into up/down analytic parts by its spectral support (components exp(i v
  eta) with v > 0 extend upward).  The split is exactly complementary, so
  the product identity holds to machine precision on the contour.

  The comparison symbol takes no Q, so psi and the comparison symbol along
  the oversampled contour do not depend on Q, and nearly every spectral
  value splits on the same three contours: the real axis (for the
  normalization) and the grid's two default damping contours.  Those arrays
  are built once per (regime, contour) and kept, read-only, in the grid's
  ``split_arrays``.  Any other contour is capped by the factor's own decay,
  so it differs from one Q to the next and is built and dropped each time;
  keeping it would grow memory with the number of spectral values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContourError, FactorizationDegenerateError, InternalError
from .grids import DualGrid, _frozen
from .models import LevyModel, analyticity_strip, char_exponent

__all__ = [
    "WHFactorization",
    "ContourSymbols",
    "factorize",
    "factorize_rational",
    "factorize_integral",
]

_IM_TOL = 1e-8
# the spectral split samples ln((Q+psi)/C) at the grid's frequency spacing
# over OVERSAMPLE times the grid's frequency range, so the up/down split sees
# the remainder decay well past the band the multipliers use
OVERSAMPLE = 4


@dataclass
class ContourSymbols:
    """Factor values along one horizontal contour Im xi = omega."""

    omega: float
    phi_plus: np.ndarray
    phi_minus: np.ndarray


@dataclass
class WHFactorization:
    model: LevyModel
    Q: complex
    grid: DualGrid
    kind: str                      # "rational" | "integral"
    roots_lower: list[complex]
    roots_upper: list[complex]
    decay_plus: float
    decay_minus: float
    _contours: dict = field(default_factory=dict, repr=False)

    # -- pointwise evaluation (rational closed form) --------------------
    def phi_plus(self, xi):
        if self.kind != "rational":
            raise NotImplementedError("pointwise factors only for rational models")
        xi = np.asarray(xi, np.complex128)
        out = np.ones_like(xi)
        for root in self.roots_lower:
            beta = 1j * root  # root = -i*beta, Re beta > 0
            out = out * (beta / (beta - 1j * xi))
        for a in self.model.pole_rates[0]:  # up-jump pole correction
            out = out * (a - 1j * xi) / a
        return out

    def phi_minus(self, xi):
        if self.kind != "rational":
            raise NotImplementedError("pointwise factors only for rational models")
        xi = np.asarray(xi, np.complex128)
        out = np.ones_like(xi)
        for root in self.roots_upper:
            beta = -1j * root  # root = +i*beta
            out = out * (beta / (beta + 1j * xi))
        for a in self.model.pole_rates[1]:  # down-jump pole correction
            out = out * (a + 1j * xi) / a
        return out

    def e_symbol(self, xi):
        xi = np.asarray(xi, np.complex128)
        return self.Q / (self.Q + char_exponent(self.model, xi))

    # -- contour arrays (both kinds) -------------------------------------
    def contour_symbols(self, omega: float) -> ContourSymbols:
        key = round(float(omega), 12)
        if key not in self._contours:
            if self.kind == "rational":
                zeta = self.grid.xi + 1j * omega
                cs = ContourSymbols(omega, self.phi_plus(zeta), self.phi_minus(zeta))
            else:
                pp, pm = self._split_factors(omega)
                cs = ContourSymbols(omega, pp, pm)
            self._contours[key] = cs
        return self._contours[key]

    def _norm_plus(self):
        """Global constant pinning phi_plus(0) = 1, from the axis split."""
        if not hasattr(self, "_norm_plus_cache"):
            kappa, a_exp, p_base, b_exp, m_base = self.model.comparison_symbol()
            _, t_plus, _ = _split_remainder_on_contour(self.model, self.Q, self.grid, 0.0)
            m_total = OVERSAMPLE * self.grid.size
            self._norm_plus_cache = a_exp * math.log(p_base) - t_plus[m_total // 2]
        return self._norm_plus_cache

    def _split_factors(self, omega: float):
        kappa, a_exp, p_base, b_exp, m_base = self.model.comparison_symbol()
        if p_base + omega <= 0.0 or m_base - omega <= 0.0:
            raise ContourError("comparison bases must stay off the contour")
        zeta_os, t_plus, t_minus = _split_remainder_on_contour(
            self.model, self.Q, self.grid, omega)
        n_plus = self._norm_plus()
        # the grid's M frequencies are taken out of the oversampled contour
        # first: the rest is elementwise, so the values are the same
        m_total = OVERSAMPLE * self.grid.size
        dxi = 2.0 * math.pi / (self.grid.size * self.grid.dx)
        idx = np.rint(self.grid.xi / dxi).astype(int) + m_total // 2
        zeta = zeta_os[idx]
        log_pp = -a_exp * np.log(p_base - 1j * zeta) + t_plus[idx] + n_plus
        log_pm = (-b_exp * np.log(m_base + 1j * zeta) + t_minus[idx]
                  + cmath.log(self.Q) - cmath.log(complex(kappa)) - n_plus)
        return np.exp(log_pp), np.exp(log_pm)

    def product_residual(self, omega: float = 0.0) -> float:
        cs = self.contour_symbols(omega)
        zeta = self.grid.xi + 1j * omega
        resid = cs.phi_plus * cs.phi_minus * (self.Q + char_exponent(self.model, zeta)) / self.Q
        return float(np.max(np.abs(resid - 1.0)))


def factorize(model: LevyModel, Q: complex, grid: DualGrid) -> WHFactorization:
    if model.rational:
        return factorize_rational(model, Q, grid)
    return factorize_integral(model, Q, grid)


def factorize_rational(model: LevyModel, Q: complex, grid: DualGrid) -> WHFactorization:
    """Root-based factorization for the rational regimes (Brownian, Kou)."""
    Q = complex(Q)
    roots = np.roots(model.cleared_polynomial(Q))
    # one Newton polish on Q + psi itself, skipping the cleared-pole roots
    up, down = model.pole_rates
    poles = [-1j * a for a in up] + [1j * a for a in down]
    polished = []
    for r in roots:
        if not any(abs(r - pole) < 1e-8 * (1.0 + abs(pole)) for pole in poles):
            f = Q + model.psi_unchecked(r)
            fp = model.psi_deriv(r)
            if abs(fp) > 1e-14:
                r = r - f / fp
        polished.append(complex(r))

    lower, upper = [], []
    for r in polished:
        if abs(r.imag) <= _IM_TOL * (1.0 + abs(r)):
            raise FactorizationDegenerateError(
                f"root {r} of Q+psi sits on the real axis; Re Q too small"
            )
        (lower if r.imag < 0 else upper).append(r)
    if Q.imag == 0.0 and Q.real > 0.0:
        exp_lo, exp_hi = model.expected_root_counts()
        if (len(lower), len(upper)) != (exp_lo, exp_hi):
            raise InternalError(
                f"root split ({len(lower)},{len(upper)}) != theory ({exp_lo},{exp_hi})"
            )
    return WHFactorization(
        model=model, Q=Q, grid=grid, kind="rational",
        roots_lower=sorted(lower, key=lambda z: abs(z.imag)),
        roots_upper=sorted(upper, key=lambda z: abs(z.imag)),
        decay_plus=min(-r.imag for r in lower) if lower else math.inf,
        decay_minus=min(r.imag for r in upper) if upper else math.inf,
    )


# -- integral (spectral split) route -------------------------------------

def _continuous_log(values, where: str):
    """Branch-tracked log along a contour; rejects net winding."""
    mag = np.abs(values)
    if np.min(mag) <= 0.0:
        raise ContourError(f"Q + psi vanishes on the {where} contour; raise Re Q")
    ang = np.unwrap(np.angle(values))
    if np.max(np.abs(np.diff(ang))) > 2.5:
        raise ContourError(f"phase undersampled on the {where} contour")
    # anchor: the comparison-stripped symbol tends to 1 at both ends
    drift = 2.0 * math.pi * round(0.5 * (ang[0] + ang[-1]) / (2.0 * math.pi))
    ang = ang - drift
    if abs(ang[0]) > 0.5 or abs(ang[-1]) > 0.5:
        raise ContourError(
            f"log of Q+psi winds along the {where} contour; raise Re Q or shift omega"
        )
    return np.log(mag) + 1j * ang


def _contour_arrays(model, grid: DualGrid, omega: float, zeta: np.ndarray):
    """(psi, C) on ``zeta``, the oversampled contour Im xi = omega.

    Kept in ``grid.split_arrays`` when the grid defines the contour; each
    entry is written once, whole and read-only, because every spectral
    value priced in this process reads it, and worker processes forked
    after it is written inherit it.
    """
    key = (model, omega)
    kept = omega in (0.0, grid.omega_plus, grid.omega_minus)
    if kept and key in grid.split_arrays:
        return grid.split_arrays[key]
    kappa, a_exp, p_base, b_exp, m_base = model.comparison_symbol()
    comp = kappa * (p_base - 1j * zeta) ** a_exp * (m_base + 1j * zeta) ** b_exp
    arrays = (_frozen(char_exponent(model, zeta)), _frozen(comp))
    if kept:
        arrays = grid.split_arrays.setdefault(key, arrays)
    return arrays


def _split_remainder_on_contour(model, Q, grid: DualGrid, omega: float):
    """Decaying remainder t = -ln((Q+psi)/C) split into up/down spectral parts.

    The decaying split is unique (a constant shift would break decay), so the
    masked pieces are the canonical ones on every contour; normalization
    constants are applied globally by the caller.
    """
    lo, hi = analyticity_strip(model)
    if not lo < omega < hi:
        raise ContourError(f"contour Im xi = {omega} outside the strip ({lo}, {hi})")
    m_total = OVERSAMPLE * grid.size
    dxi = 2.0 * math.pi / (grid.size * grid.dx)
    j = np.arange(m_total)
    eta = (j - m_total // 2) * dxi
    zeta = eta + 1j * omega
    psi, comp = _contour_arrays(model, grid, omega, zeta)
    t = -_continuous_log((Q + psi) / comp, f"Im xi = {omega:g}")

    coeffs = np.fft.fft(t)
    vsign = np.fft.fftfreq(m_total)
    mask = np.zeros(m_total)
    mask[vsign > 0] = 1.0
    mask[vsign == 0] = 0.5
    if m_total % 2 == 0:
        mask[m_total // 2] = 0.5  # Nyquist split evenly
    t_plus = np.fft.ifft(coeffs * mask)
    t_minus = t - t_plus
    return zeta, t_plus, t_minus


def _axis_zero_scan(model, Q, edge: float, side: str) -> float:
    """Distance from the real axis to the nearest on-axis zero of Q + psi."""
    u = np.linspace(1e-4, 0.985, 512) * edge
    zeta = -1j * u if side == "lower" else 1j * u
    vals = Q + char_exponent(model, zeta)
    mag = np.abs(vals)
    k = int(np.argmin(mag))
    scale = abs(Q) + np.median(mag)
    if mag[k] < 5e-2 * scale:
        return float(u[max(k, 1)])
    re = np.real(vals)
    sign_change = np.nonzero(np.diff(np.signbit(re)))[0]
    if sign_change.size:
        return float(u[sign_change[0]])
    return float(0.985 * edge)


def factorize_integral(model: LevyModel, Q: complex, grid: DualGrid) -> WHFactorization:
    """Spectral-split factorization, for a model with a known strip and a
    comparison symbol (KoBoL)."""
    Q = complex(Q)
    lo, hi = analyticity_strip(model)
    edge_lo = abs(lo) if math.isfinite(lo) else 10.0 * max(1.0, abs(Q))
    edge_hi = abs(hi) if math.isfinite(hi) else 10.0 * max(1.0, abs(Q))
    return WHFactorization(
        model=model, Q=Q, grid=grid, kind="integral",
        roots_lower=[], roots_upper=[],
        decay_plus=_axis_zero_scan(model, Q, edge_lo, "lower"),
        decay_minus=_axis_zero_scan(model, Q, edge_hi, "upper"),
    )

