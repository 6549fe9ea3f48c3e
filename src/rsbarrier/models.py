"""Levy regime models and their characteristic exponents.

Everything downstream fixes a single sign convention:

    E[exp(i xi X_t)] = exp(-t psi(xi))

so psi(0) = 0 and Re psi(xi) >= 0 for real xi.  A regime's generator enters
the pricing equations only through psi evaluated on horizontal contours
Im xi = omega, which must stay strictly inside the strip reported by
``analyticity_strip``.

Each family's formulas live on its class, and no other module tests a
regime's class: psi (``psi_unchecked``), the strip and the domain check that
``char_exponent`` runs, sinh admissibility, regularity of the half-lines,
the Wiener-Hopf inputs of the route the family takes, and whether the Monte
Carlo walker draws its paths.  Brownian and Kou regimes take the root route
alone and supply its cleared polynomial, root counts and jump poles, and
the overshoot law of a jump across a barrier that the closed-form barrier
operators read; only KoBoL takes the spectral split and supplies its
comparison symbol, which does not read Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationDegenerateError, PoleError

__all__ = [
    "BrownianDrift",
    "KouJumpDiffusion",
    "KoBoL",
    "LevyModel",
    "char_exponent",
    "analyticity_strip",
]

_POLE_TOL = 1e-12


def _check_finite(model) -> None:
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class _Diffusive:
    """What the rational families share: drift ``mu``, diffusion ``sigma2``
    and exponential jumps of total intensity ``lambda_j``, with poles of psi
    at the rates ``pole_rates`` (up, down).  Each adds ``psi_deriv`` and
    ``cleared_polynomial``: Q + psi with its denominators cleared, highest
    power first: the inputs of the root route, the only Wiener-Hopf route
    these families take.  Their paths can be simulated."""

    rational = simulated = True

    def sinh_inversion_admissible(self) -> bool:
        return self.sigma2 > 0.0 or self.mu == 0.0

    def half_lines_regular(self) -> bool:
        """Whether the process, started at 0, enters both (0, inf) and
        (-inf, 0) at once, so that a knock-out value falls to 0 at either
        barrier from inside: a diffusion part makes it so."""
        return self.sigma2 > 0.0

    def expected_root_counts(self):
        """Roots of Q + psi below and above the real axis at a real Q > 0."""
        up, down = self.pole_rates
        return (len(up) + (1 if (self.sigma2 > 0 or self.mu > 0) else 0),
                len(down) + (1 if (self.sigma2 > 0 or self.mu < 0) else 0))

    def jump_count(self, rng, duration) -> int:
        return int(rng.poisson(self.lambda_j * duration)) if self.lambda_j > 0.0 else 0


@dataclass(frozen=True)
class BrownianDrift(_Diffusive):
    """Drifted Brownian regime: psi(xi) = 0.5*sigma2*xi**2 - i*mu*xi."""

    mu: float
    sigma2: float

    lambda_j = 0.0
    pole_rates = ((), ())

    def __post_init__(self):
        _check_finite(self)
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")

    def strip(self):
        return (-math.inf, math.inf)

    def check_domain(self, z):
        pass

    def psi_unchecked(self, z):
        return 0.5 * self.sigma2 * z * z - 1j * self.mu * z

    def psi_deriv(self, z):
        return self.sigma2 * z - 1j * self.mu

    def overshoot_rate(self, side: str) -> None:
        """No jump crosses a barrier: the process creeps onto it."""
        return None

    def cleared_polynomial(self, Q):
        if self.sigma2 > 0.0:
            return np.array([0.5 * self.sigma2, -1j * self.mu, Q], np.complex128)
        if self.mu == 0.0:
            raise FactorizationDegenerateError("degenerate Brownian regime: sigma2 = 0 and mu = 0")
        return np.array([-1j * self.mu, Q], np.complex128)


@dataclass(frozen=True)
class KouJumpDiffusion(_Diffusive):
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

    @property
    def pole_rates(self):  # up-jump poles at xi = -i*a, down-jump at +i*a
        return (self.alpha_plus,), (self.alpha_minus,)

    def strip(self):
        return (-self.alpha_plus, self.alpha_minus)

    def check_domain(self, z):
        """The closure of the strip, less the two poles."""
        lo, hi = self.strip()
        if np.any(z.imag < lo) or np.any(z.imag > hi):
            raise DomainError(f"Im xi must lie in the closure of ({lo}, {hi})")
        ap, am = self.alpha_plus, self.alpha_minus
        near = np.minimum(np.abs(ap - 1j * z) / (1 + ap),
                          np.abs(am + 1j * z) / (1 + am))
        if np.any(near < _POLE_TOL):
            raise PoleError("xi hits a Kou jump-transform pole")

    def psi_unchecked(self, z):
        ap, am = self.alpha_plus, self.alpha_minus
        jump = self.lambda_j * (
            1.0 - self.p * ap / (ap - 1j * z) - (1.0 - self.p) * am / (am + 1j * z)
        )
        return 0.5 * self.sigma2 * z * z - 1j * self.mu * z + jump

    def psi_deriv(self, z):
        ap, am = self.alpha_plus, self.alpha_minus
        return (self.sigma2 * z - 1j * self.mu
                + self.lambda_j * (-self.p * ap * 1j / (ap - 1j * z) ** 2
                                   + (1.0 - self.p) * am * 1j / (am + 1j * z) ** 2))

    def overshoot_rate(self, side: str) -> float | None:
        """Rate of the exponential overshoot of a jump across this side's
        barrier ("plus" above, "minus" below), memoryless whatever the
        start; None when no jump crosses it, so that first touch happens
        exactly at the barrier."""
        prob = self.p if side == "plus" else 1.0 - self.p
        if self.lambda_j * prob == 0.0:
            return None
        return self.alpha_plus if side == "plus" else self.alpha_minus

    def cleared_polynomial(self, Q):
        lam, p = self.lambda_j, self.p
        ap, am = self.alpha_plus, self.alpha_minus
        if self.sigma2 == 0.0 and self.mu == 0.0:
            raise FactorizationDegenerateError("Kou regime needs sigma2 > 0 or nonzero drift")
        quad = (np.array([0.5 * self.sigma2, -1j * self.mu, Q + lam], np.complex128)
                if self.sigma2 > 0.0
                else np.array([-1j * self.mu, Q + lam], np.complex128))
        up = np.array([-1j, ap], np.complex128)     # alpha_plus - i*xi
        dn = np.array([1j, am], np.complex128)      # alpha_minus + i*xi
        poly = np.polymul(quad, np.polymul(up, dn))
        poly = np.polyadd(poly, -lam * p * ap * dn)
        poly = np.polyadd(poly, -lam * (1.0 - p) * am * up)
        return poly

    def jump_sizes(self, rng, n):
        ups = rng.random(n) < self.p
        return np.where(ups, rng.exponential(1.0 / self.alpha_plus, n),
                        -rng.exponential(1.0 / self.alpha_minus, n))


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

    rational = simulated = False

    def __post_init__(self):
        _check_finite(self)
        if not 0.0 < self.nu < 2.0 or self.nu == 1.0:
            raise ValueError("nu must lie in (0,2) with nu != 1")
        if self.c <= 0.0:
            raise ValueError("intensity c must be > 0")
        if not self.lambda_minus < 0.0 < self.lambda_plus:
            raise ValueError("need lambda_minus < 0 < lambda_plus")

    def strip(self):
        return (self.lambda_minus, self.lambda_plus)

    def check_domain(self, z):
        lo, hi = self.strip()
        if np.any(z.imag <= lo) or np.any(z.imag >= hi):
            raise DomainError(f"Im xi must lie strictly inside ({lo}, {hi}) for KoBoL")

    def psi_unchecked(self, z):
        nu, c = self.nu, self.c
        lp, lm = self.lambda_plus, -self.lambda_minus
        g = c * math.gamma(-nu)
        return -1j * self.mu * z + g * (
            lp**nu - (lp + 1j * z) ** nu + lm**nu - (lm - 1j * z) ** nu
        )

    def sinh_inversion_admissible(self) -> bool:
        return self.nu > 1.0 or self.mu == 0.0

    def half_lines_regular(self) -> bool:
        """Both half-lines are regular at unbounded variation, nu > 1."""
        return self.nu > 1.0

    def comparison_symbol(self):
        """(kappa, a, p_base, b, m_base): C(xi) = kappa*(p - i xi)^a * (m + i xi)^b
        matching the growth of psi at |xi| -> inf, so that ln((Q + psi)/C)
        decays for every Q."""
        nu, c, mu = self.nu, self.c, self.mu
        lp, lm = self.lambda_plus, -self.lambda_minus
        if nu > 1.0 or mu == 0.0:
            c_inf = -2.0 * c * math.gamma(-nu) * math.cos(0.5 * math.pi * nu)
            return c_inf, 0.5 * nu, lm, 0.5 * nu, lp
        if mu > 0.0:
            return mu, 1.0, lm, 0.0, lp
        return -mu, 0.0, lm, 1.0, lp


LevyModel = BrownianDrift | KouJumpDiffusion | KoBoL


def analyticity_strip(model: LevyModel) -> tuple[float, float]:
    """Open strip (omega_minus, omega_plus) where psi is analytic in Im xi."""
    return model.strip()


def char_exponent(model: LevyModel, xi):
    """Evaluate psi(xi) for complex scalar or array xi.

    Raises DomainError outside the strip (closure for Kou, strict interior
    for KoBoL) and PoleError at the Kou poles xi = -i*alpha_plus, +i*alpha_minus.
    """
    arr = np.asarray(xi, dtype=np.complex128)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr)
    model.check_domain(z)
    out = model.psi_unchecked(z)
    return out[0] if scalar else out
