"""Numerical Laplace inversion back ends.

Two routes recover f(tau) from F(q):

* GWR: the Gaver ladder on real nodes q_k = k*ln2/tau, accelerated by the
  Wynn rho table, in double precision with n_gaver = 8 by default.
* Sinh-Bromwich: trapezoid rule on the conformally deformed contour
  q(y) = sigma0 + i*b*sinh(y + i*omega), which wraps into the left
  half-plane along rays of angle +-(pi/2 + omega).  Requires F analytic in
  the sector sigma0 + {|arg z| < gamma} with gamma > pi/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanError

__all__ = [
    "gwr_nodes",
    "gwr_invert",
    "SinhPlan",
    "sinh_plan",
    "sinh_nodes",
    "sinh_invert",
    "InversionPlan",
]

LN2 = math.log(2.0)
_RHO_BREAKDOWN = 1e-30
SINH_GAMMA = 0.75 * math.pi  # half-angle of the sector the sinh plan assumes
SINH_OMEGA = 0.5 * (SINH_GAMMA - math.pi / 2)  # contour tilt, mid-margin of the sector


def gwr_nodes(tau: float, n_gaver: int) -> np.ndarray:
    """Gaver ladder nodes q_k = k*ln2/tau, k = 1..2*n_gaver."""
    if tau <= 0.0:
        raise PlanError("tau must be > 0")
    if n_gaver < 1 or n_gaver % 2 != 0:
        raise PlanError("n_gaver must be a positive even count")
    return np.arange(1, 2 * n_gaver + 1, dtype=float) * (LN2 / tau)


def _check_n_gaver(n_gaver: int) -> None:
    if n_gaver % 2 != 0 or not 4 <= n_gaver <= 16:
        raise PlanError("n_gaver must be even and lie in [4, 16]")


def _gaver_ladder(samples, a, n_gaver):
    # Level-0 entries i*a*F(i*a); each level j combines neighbours with
    # weights (1 + i/j, -i/j); the j-th Gaver value is the level-j leading entry.
    cur = [(i + 1) * a * samples[i] for i in range(2 * n_gaver)]
    lo = 1
    seq = []
    for j in range(1, n_gaver + 1):
        nxt = []
        for i_abs in range(j, 2 * n_gaver - j + 1):
            x = cur[i_abs - lo]
            y = cur[i_abs - lo + 1]
            nxt.append((1.0 + i_abs / j) * x - (i_abs / j) * y)
        cur, lo = nxt, j
        seq.append(cur[0])
    return seq


def _wynn_rho(seq) -> float:
    """The deepest usable even-level rho extrapolant.

    The k-th level of the table is built from levels k-1 and k-2; odd levels
    are auxiliary reciprocal differences.  The most converged entry of each
    even level is its last one (it consumes the tail of the sequence), and
    the deepest even level reached is returned.  A near-zero denominator
    stops the table, and the last even level built before it is returned.
    """
    n = len(seq)
    two_back = [0.0] * (n + 1)
    one_back = list(seq)
    best = seq[-1]
    for k in range(1, n):
        new = []
        for i in range(len(one_back) - 1):
            den = one_back[i + 1] - one_back[i]
            if abs(den) < _RHO_BREAKDOWN:
                return best
            new.append(two_back[i + 1] + k / den)
        two_back, one_back = one_back, new
        if k % 2 == 0:
            best = one_back[-1]
    return best


def gwr_invert(samples, tau: float, n_gaver: int) -> float:
    """f(tau) from samples F(k*ln2/tau), k = 1..2*n_gaver: the Gaver
    sequence's deepest even rho extrapolant (``_wynn_rho``)."""
    _check_n_gaver(n_gaver)
    samples = list(samples)
    if len(samples) != 2 * n_gaver:
        raise PlanError(f"need {2 * n_gaver} samples, got {len(samples)}")
    # c/q transforms make every level-0 entry equal to c; short-circuit so the
    # constant is reproduced exactly instead of feeding zeros to the rho table
    a = LN2 / tau
    level0 = [float((i + 1) * a) * float(samples[i]) for i in range(2 * n_gaver)]
    scale = max(abs(g) for g in level0)
    if max(level0) - min(level0) <= 32 * np.finfo(float).eps * max(scale, 1.0):
        return level0[0]
    return _wynn_rho(_gaver_ladder([float(s) for s in samples], a, n_gaver))


@dataclass(frozen=True)
class SinhPlan:
    """Deformed-contour quadrature plan: q(y) = sigma0 + i*b*sinh(y + i*omega),
    with omega = SINH_OMEGA, in the sector of half-angle SINH_GAMMA."""

    sigma0: float
    b: float
    step: float
    n_nodes: int

    def __post_init__(self):
        if self.sigma0 <= 0.0:
            raise PlanError("sigma0 must be > 0")
        if self.n_nodes < 5:
            raise PlanError("need at least 5 nodes")
        if self.b * math.sin(SINH_OMEGA) >= self.sigma0:
            raise PlanError(
                "contour apex sigma0 - b*sin(omega) left of the origin; "
                "the contour would exit the sector"
            )
        # per-node sector membership (sector vertex at the origin) of the
        # upper half, which the lower half mirrors; the asymptotic ray angle
        # pi/2 + omega < gamma guarantees the tails.
        for q in sinh_nodes(self)[0]:
            if abs(cmath.phase(complex(q))) > SINH_GAMMA - 1e-12:
                raise PlanError("node outside the sector Sigma_gamma + sigma0")


def sinh_plan(tau: float, settings: InversionPlan) -> SinhPlan:
    """Balance truncation, discretization and roundoff for the target tolerance.

    The tilt omega sits mid-margin; shifting the contour up by v keeps it
    clear of singularities on the negative real axis only while
    sin(omega+v) <= sin(omega)/apex_fraction, so the balanced apex fraction
    is 1/(2 cos omega), used here with a 5% margin, giving a y-strip of
    half-width d = omega on both sides.  The step follows from equating
    exp(-2*pi*d/step) with the target; the scale b is capped so the contour
    apex sigma0*(1 - apex_fraction) stays right of the origin, which forces
    sigma0 up when the node budget is generous.  exp(sigma0*tau) amplifies
    roundoff, so the requested depth is relaxed until all three error
    sources fit.  A maturity whose floor sigma0 >= 0.5 already costs more
    roundoff than the target allows is refused.  ``settings`` gives the
    ``sinh_*`` fields.
    """
    n_nodes, target_tol = settings.sinh_nodes, settings.sinh_target_tol
    if tau <= 0.0:
        raise PlanError("tau must be > 0")
    if not 0.0 < target_tol < 1.0:
        raise PlanError(f"target_tol must lie in (0, 1), got {target_tol}")
    omega = d_strip = SINH_OMEGA
    apex_fraction = 0.95 / (2.0 * math.cos(omega))
    round_cap = math.log(max(target_tol / 3.0, 3e-15) / 2.3e-16)
    depth = -math.log(target_tol) + 2.0
    floor_depth = 3.0
    s0 = step = None
    for _ in range(600):
        # self-consistent sigma0: discretization pays an exp(sigma0*tau)
        # boundary surcharge, truncation needs af*s0*cosh(y_max) deep enough
        s0 = max(0.5, 2.0 / tau)
        converged = False
        for _ in range(80):
            step = 2.0 * math.pi * d_strip / (depth + s0 * tau)
            try:
                ch = math.cosh(0.5 * step * (n_nodes - 1))
            except OverflowError:
                ch = math.inf  # refused below
            if apex_fraction * ch <= 1.1:
                break
            s0_need = (depth / tau) / (apex_fraction * ch - 1.0)
            s0_new = max(0.5, 2.0 / tau, s0_need)
            if s0_new > round_cap / tau:
                break  # runaway: this depth is unaffordable
            if abs(s0_new - s0) <= 1e-10 * (1.0 + s0):
                s0 = s0_new
                converged = s0_new >= s0_need - 1e-9
                break
            s0 = s0_new
        if converged or depth <= floor_depth:
            break
        depth = max(depth * 0.97, floor_depth)
    if s0 * tau > round_cap:
        raise PlanError(f"maturity {tau:g} needs sigma0*maturity >= {s0 * tau:.3g}, past "
                        f"the {round_cap:.3g} at which exp(sigma0*maturity) times roundoff "
                        f"exceeds sinhTargetTol; price it with the gwr back end")
    b = apex_fraction * s0 / math.sin(omega)
    # b*cosh(y) bounds |q - sigma0| and the weights out to the outermost node
    if not math.isfinite(b * ch * max(tau, 1.0)):
        raise PlanError(f"sinhNodes = {n_nodes} puts the outermost contour nodes past the "
                        f"float range at maturity {tau:g}; use fewer nodes")
    return SinhPlan(sigma0=s0, b=b, step=step, n_nodes=n_nodes)


def sinh_nodes(plan: SinhPlan) -> tuple[np.ndarray, np.ndarray]:
    """The contour nodes q_k that ``sinh_invert`` reads F at, and their
    quadrature weights w_k, for f(tau) = Re sum w_k e^{q_k tau} F(q_k) over
    the symmetric node set.  They are its upper half, from the real-axis node
    at its middle when the count is odd, since F(conj q) = conj F(q) for a
    real f gives the rest."""
    k = np.arange(plan.n_nodes // 2, plan.n_nodes)
    y = (k - (plan.n_nodes - 1) / 2.0) * plan.step
    arg = y + 1j * SINH_OMEGA
    q = plan.sigma0 + 1j * plan.b * np.sinh(arg)
    w = plan.step * plan.b * np.cosh(arg) / (2.0 * math.pi)
    return q, w


def sinh_invert(samples, tau: float, plan: SinhPlan) -> float:
    """Trapezoid sum over the deformed contour, from F at the nodes
    ``sinh_nodes(plan)`` returns, in node order; F must be analytic in the
    plan's sector.  The terms are summed over the whole symmetric node set
    in node order, the lower half's as the conjugates of their mirrors."""
    if tau <= 0.0:
        raise PlanError("tau must be > 0")
    q, w = sinh_nodes(plan)
    if len(samples) != len(q):
        raise PlanError(f"need {len(q)} samples, got {len(samples)}")
    upper = [w[i] * np.exp(q[i] * tau) * f for i, f in enumerate(samples)]
    lower = [np.conj(t) for t in upper[::-1][:plan.n_nodes // 2]]
    total = 0.0 + 0.0j
    for t in lower + upper:  # fixed summation order for bit reproducibility
        total += t
    return float(total.real)


@dataclass(frozen=True)
class InversionPlan:
    """Back-end selection plus its parameters; ``sinh_plan`` reads the
    ``sinh_*`` ones."""

    backend: str = "gwr"  # "gwr" | "sinh"
    n_gaver: int = 8
    sinh_nodes: int = 64
    sinh_target_tol: float = 1e-10

    def __post_init__(self):
        if self.backend not in ("gwr", "sinh"):
            raise PlanError(f"unknown inversion backend {self.backend!r}")
        if self.backend == "gwr":
            _check_n_gaver(self.n_gaver)

