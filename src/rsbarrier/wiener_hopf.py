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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContourError,
    FactorizationDegenerateError,
    InternalError,
)
from .grids import DualGrid
from .models import (
    BrownianDrift,
    KouJumpDiffusion,
    LevyModel,
    analyticity_strip,
    char_exponent,
    psi_deriv_rational,
    psi_unchecked,
)

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
        if isinstance(self.model, KouJumpDiffusion):
            ap = self.model.alpha_plus
            out = out * (ap - 1j * xi) / ap
        return out

    def phi_minus(self, xi):
        if self.kind != "rational":
            raise NotImplementedError("pointwise factors only for rational models")
        xi = np.asarray(xi, np.complex128)
        out = np.ones_like(xi)
        for root in self.roots_upper:
            beta = -1j * root  # root = +i*beta
            out = out * (beta / (beta + 1j * xi))
        if isinstance(self.model, KouJumpDiffusion):
            am = self.model.alpha_minus
            out = out * (am + 1j * xi) / am
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
            kappa, a_exp, p_base, b_exp, m_base = _comparison_symbol(self.model, self.Q)
            _, t_plus, _ = _split_remainder_on_contour(self.model, self.Q, self.grid, 0.0)
            m_total = OVERSAMPLE * self.grid.size
            self._norm_plus_cache = a_exp * math.log(p_base) - t_plus[m_total // 2]
        return self._norm_plus_cache

    def _split_factors(self, omega: float):
        kappa, a_exp, p_base, b_exp, m_base = _comparison_symbol(self.model, self.Q)
        if p_base + omega <= 0.0 or m_base - omega <= 0.0:
            raise ContourError("comparison bases must stay off the contour")
        zeta_os, t_plus, t_minus = _split_remainder_on_contour(
            self.model, self.Q, self.grid, omega)
        n_plus = self._norm_plus()
        log_pp = -a_exp * np.log(p_base - 1j * zeta_os) + t_plus + n_plus
        log_pm = (-b_exp * np.log(m_base + 1j * zeta_os) + t_minus
                  + cmath.log(self.Q) - cmath.log(complex(kappa)) - n_plus)
        m_total = OVERSAMPLE * self.grid.size
        dxi = 2.0 * math.pi / (self.grid.size * self.grid.dx)
        idx = np.rint(self.grid.xi / dxi).astype(int) + m_total // 2
        return np.exp(log_pp[idx]), np.exp(log_pm[idx])

    def product_residual(self, omega: float = 0.0) -> float:
        cs = self.contour_symbols(omega)
        zeta = self.grid.xi + 1j * omega
        resid = cs.phi_plus * cs.phi_minus * (self.Q + char_exponent(self.model, zeta)) / self.Q
        return float(np.max(np.abs(resid - 1.0)))


def factorize(model: LevyModel, Q: complex, grid: DualGrid) -> WHFactorization:
    if isinstance(model, (BrownianDrift, KouJumpDiffusion)):
        return factorize_rational(model, Q, grid)
    return factorize_integral(model, Q, grid)


def _cleared_polynomial(model, Q):
    """Coefficients (highest power first) of (Q+psi) with denominators cleared."""
    if isinstance(model, BrownianDrift):
        if model.sigma2 > 0.0:
            return np.array([0.5 * model.sigma2, -1j * model.mu, Q], np.complex128)
        if model.mu == 0.0:
            raise FactorizationDegenerateError(
                "degenerate Brownian regime: sigma2 = 0 and mu = 0"
            )
        return np.array([-1j * model.mu, Q], np.complex128)
    lam, p = model.lambda_j, model.p
    ap, am = model.alpha_plus, model.alpha_minus
    if model.sigma2 == 0.0 and model.mu == 0.0:
        raise FactorizationDegenerateError(
            "Kou regime needs sigma2 > 0 or nonzero drift"
        )
    quad = (np.array([0.5 * model.sigma2, -1j * model.mu, Q + lam], np.complex128)
            if model.sigma2 > 0.0
            else np.array([-1j * model.mu, Q + lam], np.complex128))
    up = np.array([-1j, ap], np.complex128)     # alpha_plus - i*xi
    dn = np.array([1j, am], np.complex128)      # alpha_minus + i*xi
    poly = np.polymul(quad, np.polymul(up, dn))
    poly = np.polyadd(poly, -lam * p * ap * dn)
    poly = np.polyadd(poly, -lam * (1.0 - p) * am * up)
    return poly


def _expected_counts(model):
    if isinstance(model, BrownianDrift):
        lower = 1 if (model.sigma2 > 0 or model.mu > 0) else 0
        upper = 1 if (model.sigma2 > 0 or model.mu < 0) else 0
    else:
        lower = 1 + (1 if (model.sigma2 > 0 or model.mu > 0) else 0)
        upper = 1 + (1 if (model.sigma2 > 0 or model.mu < 0) else 0)
    return lower, upper


def factorize_rational(model: LevyModel, Q: complex, grid: DualGrid) -> WHFactorization:
    """Root-based factorization for Brownian and Kou regimes."""
    if not isinstance(model, (BrownianDrift, KouJumpDiffusion)):
        raise TypeError("rational factorization needs a Brownian or Kou regime")
    Q = complex(Q)
    poly = _cleared_polynomial(model, Q)
    roots = np.roots(poly)
    # one Newton polish on Q + psi itself, skipping the cleared-pole roots
    polished = []
    for r in roots:
        skip = False
        if isinstance(model, KouJumpDiffusion):
            for pole in (-1j * model.alpha_plus, 1j * model.alpha_minus):
                if abs(r - pole) < 1e-8 * (1.0 + abs(pole)):
                    skip = True
        if not skip:
            f = Q + psi_unchecked(model, r)
            fp = psi_deriv_rational(model, r)
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
        exp_lo, exp_hi = _expected_counts(model)
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

def _comparison_symbol(model, Q):
    """(kappa, a, p_base, b, m_base): C(xi) = kappa*(p - i xi)^a * (m + i xi)^b
    matching the growth of Q + psi at |xi| -> inf."""
    if isinstance(model, (BrownianDrift, KouJumpDiffusion)):
        sig2 = model.sigma2
        if sig2 <= 0.0:
            raise ContourError("integral comparison needs sigma2 > 0 here")
        kappa = 0.5 * sig2
        lam = model.lambda_j if isinstance(model, KouJumpDiffusion) else 0.0
        pm = max(2.0 * (lam + max(Q.real, 0.5)) / sig2, 0.25)
        d = -2.0 * model.mu / sig2
        p = 0.5 * (d + math.sqrt(d * d + 4.0 * pm))
        m = p - d
        return kappa, 1.0, p, 1.0, m
    nu, c, mu = model.nu, model.c, model.mu
    lp, lm = model.lambda_plus, -model.lambda_minus
    if nu > 1.0 or mu == 0.0:
        c_inf = -2.0 * c * math.gamma(-nu) * math.cos(0.5 * math.pi * nu)
        return c_inf, 0.5 * nu, lm, 0.5 * nu, lp
    if mu > 0.0:
        return mu, 1.0, lm, 0.0, lp
    return -mu, 0.0, lm, 1.0, lp


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
    w = Q + char_exponent(model, zeta)

    kappa, a_exp, p_base, b_exp, m_base = _comparison_symbol(model, Q)
    comp = kappa * (p_base - 1j * zeta) ** a_exp * (m_base + 1j * zeta) ** b_exp
    t = -_continuous_log(w / comp, f"Im xi = {omega:g}")

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
    """Spectral-split factorization; works for any model with a known strip."""
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

