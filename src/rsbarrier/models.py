"""Levy regime models and their characteristic exponents.

Everything downstream fixes a single sign convention:

    E[exp(i xi X_t)] = exp(-t psi(xi))

so psi(0) = 0 and Re psi(xi) >= 0 for real xi.  A regime's generator enters
the pricing equations only through psi evaluated on horizontal contours
Im xi = omega, which must stay strictly inside the strip reported by
``analyticity_strip``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "BrownianDrift",
    "KouJumpDiffusion",
    "KoBoL",
    "LevyModel",
    "char_exponent",
    "psi_unchecked",
    "psi_deriv_rational",
    "analyticity_strip",
    "sinh_inversion_admissible",
]

_POLE_TOL = 1e-12


def _check_finite(model) -> None:
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BrownianDrift:
    """Drifted Brownian regime: psi(xi) = 0.5*sigma2*xi**2 - i*mu*xi."""

    mu: float
    sigma2: float

    def __post_init__(self):
        _check_finite(self)
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")


@dataclass(frozen=True)
class KouJumpDiffusion:
    """Diffusion plus two-sided exponential jumps.

    Up jumps arrive with probability ``p`` and tail rate ``alpha_plus``;
    down jumps with probability ``1-p`` and tail rate ``alpha_minus``.
    """

    mu: float
    sigma2: float
    lambda_j: float
    p: float
    alpha_plus: float
    alpha_minus: float

    def __post_init__(self):
        _check_finite(self)
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be >= 0")
        if self.lambda_j < 0.0:
            raise ValueError("jump intensity must be >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.alpha_plus <= 0.0 or self.alpha_minus <= 0.0:
            raise ValueError("tail rates alpha_plus, alpha_minus must be > 0")


@dataclass(frozen=True)
class KoBoL:
    """Tempered-stable regime of order nu in (0,2), nu != 1.

    Steepness parameters satisfy lambda_minus < 0 < lambda_plus.  The order
    nu = 1 (log branch) is rejected at construction.
    """

    nu: float
    c: float
    lambda_plus: float
    lambda_minus: float
    mu: float

    def __post_init__(self):
        _check_finite(self)
        if not 0.0 < self.nu < 2.0 or self.nu == 1.0:
            raise ValueError("nu must lie in (0,2) with nu != 1")
        if self.c <= 0.0:
            raise ValueError("intensity c must be > 0")
        if not self.lambda_minus < 0.0 < self.lambda_plus:
            raise ValueError("need lambda_minus < 0 < lambda_plus")


LevyModel = BrownianDrift | KouJumpDiffusion | KoBoL


def analyticity_strip(model: LevyModel) -> tuple[float, float]:
    """Open strip (omega_minus, omega_plus) where psi is analytic in Im xi."""
    if isinstance(model, BrownianDrift):
        return (-math.inf, math.inf)
    if isinstance(model, KouJumpDiffusion):
        # Up-jump transform has its pole at xi = -i*alpha_plus, down-jump at
        # xi = +i*alpha_minus.
        return (-model.alpha_plus, model.alpha_minus)
    if isinstance(model, KoBoL):
        return (model.lambda_minus, model.lambda_plus)
    raise TypeError(f"not a LevyModel: {model!r}")


def _check_strip(model: LevyModel, im: np.ndarray) -> None:
    lo, hi = analyticity_strip(model)
    if isinstance(model, KoBoL):
        if np.any(im <= lo) or np.any(im >= hi):
            raise DomainError(
                f"Im xi must lie strictly inside ({lo}, {hi}) for KoBoL"
            )
    elif isinstance(model, KouJumpDiffusion):
        if np.any(im < lo) or np.any(im > hi):
            raise DomainError(f"Im xi must lie in the closure of ({lo}, {hi})")


def char_exponent(model: LevyModel, xi):
    """Evaluate psi(xi) for complex scalar or array xi.

    Raises DomainError outside the strip (closure for Kou, strict interior
    for KoBoL) and PoleError at the Kou poles xi = -i*alpha_plus, +i*alpha_minus.
    """
    arr = np.asarray(xi, dtype=np.complex128)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr)
    _check_strip(model, z.imag)
    if isinstance(model, KouJumpDiffusion):
        ap, am = model.alpha_plus, model.alpha_minus
        near = np.minimum(np.abs(ap - 1j * z) / (1 + ap),
                          np.abs(am + 1j * z) / (1 + am))
        if np.any(near < _POLE_TOL):
            raise PoleError("xi hits a Kou jump-transform pole")
    out = psi_unchecked(model, z)
    return out[0] if scalar else out


def psi_unchecked(model: LevyModel, z):
    """psi(z) with no strip or pole check.

    For the rational models (Brownian, Kou) this is the meromorphic
    continuation of psi to the whole plane, which the Wiener-Hopf root
    polish needs beyond the jump poles.  Contour evaluations go through
    ``char_exponent``.
    """
    if isinstance(model, BrownianDrift):
        return 0.5 * model.sigma2 * z * z - 1j * model.mu * z
    if isinstance(model, KouJumpDiffusion):
        ap, am = model.alpha_plus, model.alpha_minus
        jump = model.lambda_j * (
            1.0 - model.p * ap / (ap - 1j * z) - (1.0 - model.p) * am / (am + 1j * z)
        )
        return 0.5 * model.sigma2 * z * z - 1j * model.mu * z + jump
    if isinstance(model, KoBoL):
        nu, c = model.nu, model.c
        lp, lm = model.lambda_plus, -model.lambda_minus
        g = c * math.gamma(-nu)
        return -1j * model.mu * z + g * (
            lp**nu - (lp + 1j * z) ** nu + lm**nu - (lm - 1j * z) ** nu
        )
    raise TypeError(f"not a LevyModel: {model!r}")


def psi_deriv_rational(model: LevyModel, z):
    """d psi / d z for the rational models, with no strip or pole check."""
    if isinstance(model, BrownianDrift):
        return model.sigma2 * z - 1j * model.mu
    if isinstance(model, KouJumpDiffusion):
        ap, am = model.alpha_plus, model.alpha_minus
        return (
            model.sigma2 * z
            - 1j * model.mu
            + model.lambda_j
            * (-model.p * ap * 1j / (ap - 1j * z) ** 2
               + (1.0 - model.p) * am * 1j / (am + 1j * z) ** 2)
        )
    raise TypeError(f"not a rational LevyModel: {model!r}")


def sinh_inversion_admissible(model: LevyModel) -> bool:
    """Whether the sinh-deformed Bromwich contour applies to this regime.

    Infinite-variation processes qualify, as do driftless finite-variation
    ones; finite variation with drift is restricted to the real-node ladder.
    """
    if isinstance(model, BrownianDrift):
        return model.sigma2 > 0.0 or model.mu == 0.0
    if isinstance(model, KouJumpDiffusion):
        return model.sigma2 > 0.0 or model.mu == 0.0
    if isinstance(model, KoBoL):
        return model.nu > 1.0 or model.mu == 0.0
    raise TypeError(f"not a LevyModel: {model!r}")
