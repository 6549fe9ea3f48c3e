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
A KoBoL head takes the data's boundary value through a transform and the
rest through an inverse and a forward application.

A Brownian or Kou head (a rational one) takes closed forms instead.  Its
factors are finite exponential mixtures, phi^side = sum_j w_j r_j/(r_j - s)
(plus an atom at 0 on an irregular side), and a jump's overshoot beyond a
barrier is exponential (Kou & Wang, Adv. Appl. Probab. 2003).  So its first
touch takes no transform: below h+ it is a(h - x) c_b + b(h - x) J_alpha,
with a and b sums of exp(-r_j (h - x)), c_b the data's limit at the barrier
and J_alpha its mean against the overshoot law.  Its sweep step
E+ 1_(-inf,h+) E- u takes one.  Since E+ 1_[h+,inf) E- = E+ 1_[h+,inf)
(E+)^{-1} E with E = phi+ phi- = Q/(Q + psi), the step is E u less the
first touch of E u below h+, and 0 above; E's kernel is a density, so E u
is continuous and its sample at the barrier node is its limit c_b.
``BarrierForms`` holds a side's closed form; J_alpha takes exponentially
fitted weights, which integrate the exponential exactly against the
piecewise-linear interpolant of the samples, with the barrier's one-sided
limit extrapolated and the far fields in closed form.  The inf side
mirrors all of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, GridResolutionError, IllPosedApplicationError
from .grids import DualGrid, Region, SampledFunction, _frozen
from .wiener_hopf import WHFactorization

__all__ = [
    "BarrierForms",
    "OperatorPlan",
    "apply_epv",
    "apply_multiplier",
    "effective_omega",
    "sweep_step",
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


# a row of exp(-r t) stops once Re(r) t passes this: exp(-40) = 4e-18 of a
# coefficient lies below the rounding of the O(1) data it meets
TAIL_EXPONENT = 40.0


def _cell_weights(z):
    """int_0^1 exp(-z s) (1 - s) ds and int_0^1 exp(-z s) s ds: the weights of
    a cell's two end samples when exp(-z s) meets their linear interpolant.
    Near z = 0 the closed forms cancel, so a Taylor series takes over."""
    if abs(z) < 0.5:
        lo = hi = 0.0
        term = 1.0
        for n in range(20):
            lo += term / ((n + 1) * (n + 2))
            hi += term / (n + 2)
            term *= -z / (n + 1)
        return lo, hi
    e = np.exp(-z)
    return (z - 1.0 + e) / z**2, (1.0 - e * (1.0 + z)) / z**2


def _span(z, available: int) -> int:
    """Nodes a row of exp(-z k) needs, of ``available``, before TAIL_EXPONENT."""
    return min(available, max(2, int(TAIL_EXPONENT / np.real(z)) + 1))


def _run(a: np.ndarray, node: int, direction: int, start: int, count: int) -> np.ndarray:
    """A view of a's samples at node + direction * k, k = start .. start +
    count - 1, in that order."""
    if direction > 0:
        return a[..., node + start:node + start + count]
    stop = node - start - count
    return a[..., node - start:stop if stop >= 0 else None:-1]


def _scratch(buffer, shape: tuple, dtype) -> np.ndarray:
    """``buffer``'s leading part of this shape, or a new array when it has
    none of that dtype."""
    if buffer is None or buffer.dtype != dtype:
        return np.empty(shape, dtype)
    return buffer[..., :shape[-1]]


@dataclass(frozen=True, eq=False)
class ExpIntegral:
    """int_0^inf exp(-r t) u(h + direction t) dt from the barrier node h,
    ``node``, for data given as a SampledFunction.

    ``weights`` take the residual at the nodes node + direction k, k = 1, 2,
    ..., in that order, and integrate exp(-r t) exactly against the
    piecewise-linear interpolant of the samples.  The node itself holds a
    mid-value, so the one-sided limit there is extrapolated, 2 u_1 - u_2, as
    ``_boundary_value`` does.  ``far_lo`` and ``far_hi`` weight the far
    fields: they sum the weights of the nodes below and at or above
    ``ref_index``, plus exp(-r t) integrated exactly beyond the grid's end
    when the run reaches it.  A run stops at TAIL_EXPONENT."""

    node: int
    direction: int
    weights: np.ndarray
    far_lo: complex
    far_hi: complex

    @classmethod
    def build(cls, grid: DualGrid, node: int, direction: int, rate) -> "ExpIntegral":
        available = node if direction < 0 else grid.size - 1 - node
        z = rate * grid.dx
        count = _span(z, available)
        k = np.arange(count + 1)
        e = np.exp(-z * k)
        lo, hi = _cell_weights(z)
        # cell [k, k+1] gives its left end lo e^{-zk} and its right end
        # hi e^{-zk}, both times dx
        v = grid.dx * lo * e
        v[count] = 0.0
        v[1:] += grid.dx * hi * e[:-1]
        v[1] += 2.0 * v[0]
        v[2] -= v[0]
        weights = v[1:]
        below = node + direction * k[1:] < grid.ref_index
        far_lo, far_hi = weights[below].sum(), weights[~below].sum()
        if count == available:
            if direction > 0:
                far_hi += e[count] / rate
            else:
                far_lo += e[count] / rate
        return cls(node, direction, _frozen(weights), far_lo, far_hi)

    def __call__(self, u: SampledFunction, buffer: np.ndarray | None = None) -> np.ndarray:
        """The integral of each row of u, multiplied row by row and summed
        along the row, so that a row's value never depends on the others;
        ``buffer`` takes the products when it has their dtype."""
        run = _run(u.values, self.node, self.direction, 1, self.weights.size)
        dtype = np.result_type(run, self.weights)
        prod = np.multiply(run, self.weights,
                           out=_scratch(buffer, run.shape, dtype))
        return prod.sum(axis=-1) + u.c_lo * self.far_lo + u.c_hi * self.far_hi


def _mixture(fac: WHFactorization, side: str, real: bool):
    """(rates r_j, weights w_j) of phi^side = w_0 + sum_j w_j r_j / (r_j - s),
    with s = i xi on the sup side and -i xi on the inf side.  The atom w_0,
    the chance that the extremum is 0, is nonzero only on an irregular side,
    and no closed form here reads it."""
    if side == "plus":
        rates, poles = [1j * r for r in fac.roots_lower], fac.model.pole_rates[0]
    else:
        rates, poles = [-1j * r for r in fac.roots_upper], fac.model.pole_rates[1]
    if real:
        rates = [r.real for r in rates]
    weights = []
    for j, r in enumerate(rates):
        w = 1.0
        for k, other in enumerate(rates):
            if k != j:
                w *= other / (other - r)
        for pole in poles:
            w *= (pole - r) / pole
        weights.append(w)
    return np.array(rates), np.array(weights)


@dataclass(frozen=True, eq=False)
class BarrierForms:
    """The closed-form first touch of one side on a rational head at one
    spectral value; the sweep step takes it too.

    The side's barrier is ``node``; ``direction`` points beyond it (+1 above
    h+, -1 below h-).  phi^side's rates r_j and weights w_j give each a row
    of ``decay``: exp(-r_j t) at t = 0, dx, ... into the band, with 1/2 at
    the node, which takes the mid-value.

    A jump across the barrier overshoots it by an exponential with the
    ``overshoot`` rate alpha, so the first touch of data u below h+ is
    sum_j exp(-r_j (h+ - x)) (creep_j c_b + jump_j I_alpha), where c_b is
    u's limit at h+, I_alpha integrates u beyond h+ against exp(-alpha t),
    jump_j holds alpha b_j = -prod_k (r_k - alpha) / prod_{k != j} (r_k -
    r_j), and creep_j = w_j - b_j (a + b is the transform of the passage
    time, sum_j w_j exp(-r_j d)).  A side no jump crosses has no overshoot,
    and b = 0.

    The sweep step needs nothing more: E+ 1_[h+,inf) E- = E+ 1_[h+,inf)
    (E+)^{-1} E, so what its indicator removes from E u is the first touch
    of E u.
    """

    node: int
    direction: int
    decay: tuple
    overshoot: ExpIntegral | None
    creep: np.ndarray
    jump: np.ndarray

    @classmethod
    def build(cls, fac: WHFactorization, side: str, real: bool) -> "BarrierForms":
        grid = fac.grid
        region = Region.AT_OR_ABOVE_UPPER if side == "plus" else Region.AT_OR_BELOW_LOWER
        node, direction = grid.region_edge(region)
        rates, weights = _mixture(fac, side, real)
        band_nodes = node if direction > 0 else grid.size - 1 - node
        decay = []
        for r in rates:
            z = r * grid.dx
            row = np.exp(-z * np.arange(_span(z, band_nodes + 1)))
            row[0] = 0.5
            decay.append(_frozen(row))
        alpha = fac.model.overshoot_rate(side)
        creep, jump, overshoot = weights, np.zeros_like(weights), None
        if alpha is not None:
            crossed = -math.prod(r - alpha for r in rates)
            jump = np.array([crossed / math.prod(o - r for k, o in enumerate(rates) if k != j)
                             for j, r in enumerate(rates)])
            creep = weights - jump / alpha
            overshoot = ExpIntegral.build(grid, node, direction, alpha)
        return cls(node, direction, tuple(decay), overshoot, creep, jump)

    def touch(self, u: SampledFunction, c_b, buffer: np.ndarray | None = None) -> list:
        """creep_j c_b + jump_j I_alpha of u, one per rate r_j, for u's limit
        ``c_b`` at the barrier; ``buffer`` as in ``ExpIntegral``."""
        coefficients = [a * c_b for a in self.creep]
        if self.overshoot is not None:
            overshoot = self.overshoot(u, buffer)
            coefficients = [c + b * overshoot for c, b in zip(coefficients, self.jump)]
        return coefficients

    def add_band(self, values: np.ndarray, coefficients, sign: float,
                 buffer: np.ndarray | None = None) -> None:
        """values += sign * sum_j coefficients[j] * decay[j] on the band side,
        in place, one row of coefficients per row of values."""
        for c, row in zip(coefficients, self.decay):
            run = _run(values, self.node, -self.direction, 0, row.size)
            dtype = np.result_type(c, row)
            term = np.multiply(np.asarray(c)[..., None], row,
                               out=_scratch(buffer, run.shape, dtype))
            (np.add if sign > 0 else np.subtract)(run, term, out=run)


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """The arrays of one operator for one regime head at one spectral value.

    Each array is one row that broadcasts against the head's history rows:
    ``damp`` is exp(omega*x) on the head's damping contour and ``undamp``
    its reciprocal, ``forward`` and ``inverse`` are the symbol and its
    reciprocal on that contour times the grid's spectral roll, ``window``
    confines the output residual, and ``taper`` (this side's guard band)
    and ``taper_both`` are the grid's.  A complex plan holds complex copies
    of the real ones, so that applications multiply complex rows by
    complex rows and numpy casts nothing through its buffer.  A plan
    depends only on the head's factorization, whose ``model`` it keeps; it
    is built once per (spectral value, side, head) and dropped with the
    node.

    The symbol is phi^side, unless ``product`` is set: then it is
    E = phi+ phi- = Q/(Q + psi) on this side's contour, which the sweep step
    of a rational head applies, and ``inverse`` is None.  ``forms`` holds a
    rational head's closed forms on this side (``BarrierForms``), and is
    None on a KoBoL head.

    ``real`` is set when Q is real.  The symbols are then Hermitian,
    phi(-xi + i omega) = conj phi(xi + i omega), so the operator maps real
    data to real data: ``forward`` and ``inverse`` keep only the M/2 + 1
    non-negative-frequency bins, and applications take real FFTs.
    """

    grid: DualGrid
    side: str
    model: object
    real: bool
    product: bool
    damp: np.ndarray
    undamp: np.ndarray
    forward: np.ndarray
    inverse: np.ndarray | None
    window: np.ndarray
    taper: np.ndarray
    taper_both: np.ndarray
    forms: BarrierForms | None

    @classmethod
    def build(cls, fac: WHFactorization, side: str, product: bool = False) -> "OperatorPlan":
        """Plan of E^side (of E itself if ``product``) for one head's
        factorization.

        Either reads phi^side on this side's contour, and asks the
        factorization for that factor alone, which it keeps.  Only a
        rational head takes E, and its other factor is a closed form that
        the plan evaluates and does not keep.  Per spectral value it builds
        the damping, the symbols, the window and a rational head's closed
        forms; the roll and the tapers are the grid's.
        """
        grid = fac.grid
        real = complex(fac.Q).imag == 0.0
        bins = slice(grid.size // 2 + 1) if real else slice(None)
        roll = grid.roll[bins]
        omega = effective_omega(fac, side)
        if product and not fac.model.rational:
            raise ValueError("only a rational head's sweep step takes E = phi+ phi-")
        cs = fac.contour_symbols(omega, side)
        symbol = (cs.phi_plus if side == "plus" else cs.phi_minus)[bins]
        if product:
            # the other factor is a closed form, taken here and not kept
            other = fac.phi_minus if side == "plus" else fac.phi_plus
            forward, inverse = symbol * other(grid.xi[bins] + 1j * omega) * roll, None
        else:
            forward, inverse = symbol * roll, _frozen(1.0 / symbol * roll)
        damp = np.exp(omega * grid.x)
        rows = [damp, 1.0 / damp, grid.window_mask(residual_window(fac)),
                grid.taper_lo if side == "plus" else grid.taper_hi, grid.taper_both]
        if not real:
            rows = [row.astype(np.complex128) for row in rows]
        damp, undamp, window, taper, taper_both = map(_frozen, rows)
        forms = BarrierForms.build(fac, side, real) if fac.model.rational else None
        return cls(grid, side, fac.model, real, product, damp, undamp, _frozen(forward),
                   inverse, window, taper, taper_both, forms)


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
    # taper only the damping-suppressed side (``plan.taper``): wrapped mass
    # from there is re-amplified by undamping, while the other side's tail is
    # real content
    ix, where = grid.side(1 if plan.side == "plus" else 0)
    np.add(g[ix], step, out=g[ix], where=where)
    g *= plan.damp
    g *= plan.taper
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
    g *= plan.taper_both


def apply_multiplier(u: SampledFunction, plan: OperatorPlan, inverse: bool = False,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> SampledFunction:
    """Apply the plan's multiplier (its reciprocal if ``inverse``) to every row.

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
    if inverse and plan.inverse is None:
        raise ValueError("a plan of E = phi+ phi- has no inverse")
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
    of the plan's head.

    The data's boundary value c_b is peeled off first: the inverse of a hard
    step concentrates a delta on the barrier node, and the indicator would
    clip it.  The constant part maps through E^side 1_beyond directly.  The
    remainder (u - c_b) is kept strictly beyond the node: it vanishes at the
    barrier by construction of c_b, so its mid-value there is zero whether
    or not u itself jumps.  Its inverse image is delta-free and goes through
    ``_tail_image``, unless the remainder vanishes on every row.  A rational
    head takes ``_closed_first_touch`` instead.
    """
    if plan.forms is not None:
        return _closed_first_touch(plan.forms, u)
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
    if tail.sup_norm() > 1e-13 * max(u.sup_norm(), 1e-300):
        out = out.add(_tail_image(plan, tail, node, direction), out=out.values)
    return out


def _closed_first_touch(forms: BarrierForms, u: SampledFunction) -> SampledFunction:
    """The first touch of a rational head, with no transform: beyond the
    barrier the data itself, on the band side sum_j exp(-r_j t)(creep_j c_b
    + jump_j I_alpha), and at the node the mid-value of the two."""
    grid, node, direction = u.grid, forms.node, forms.direction
    full = u.full()
    c_b = _boundary_value(full, node, direction)
    coefficients = forms.touch(u, c_b)
    dtype = np.result_type(full, *coefficients)
    full = full.astype(dtype, copy=False)
    full[..., node] = c_b
    out = SampledFunction.beyond(grid, full, u.c_lo, u.c_hi, node, direction, 0.5, out=full)
    forms.add_band(out.values, coefficients, 1.0)
    return out


def sweep_step(plan: OperatorPlan, u: SampledFunction, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None,
               buffer: np.ndarray | None = None) -> SampledFunction:
    """E^side 1_band E^other u on a rational head's rows, by one transform.

    The band is below h+ for a "plus" plan and above h- for a "minus" one;
    the plan is a ``product`` plan, which applies E = phi+ phi-.  Since
    E+ 1_[h+,inf) E- = E+ 1_[h+,inf) (E+)^{-1} E, the value below h+ is E u
    less the first touch of E u (see ``BarrierForms``), above h+ it is 0,
    and the node takes the mid-value.  E's kernel is a density on every
    rational head, so E u is continuous and its sample at the barrier node
    is its limit c_b there.  ``out`` and ``scratch`` are as in
    ``apply_multiplier``, and ``buffer``, of the rows' shape and the
    result's dtype, takes the overshoot's and the correction's products
    when given.
    """
    if not plan.product:
        raise ValueError("the sweep step applies a plan of E = phi+ phi-")
    forms = plan.forms
    node, direction = forms.node, forms.direction
    e = apply_multiplier(u, plan, out=out, scratch=scratch)
    c_b = e.values[..., node] + (e.c_lo if node < e.grid.ref_index else e.c_hi)
    coefficients = forms.touch(e, c_b, buffer)
    full = e.full(out=e.values)
    v = SampledFunction.beyond(e.grid, full, e.c_lo, e.c_hi, node, -direction, 0.5, out=full)
    forms.add_band(v.values, coefficients, -1.0, buffer)
    return v


def first_touch_above(plan: OperatorPlan, u: SampledFunction) -> SampledFunction:
    """E+ 1_[h+,inf) (E+)^{-1} u: the value process started from receiving u
    at the first entrance of [h+, inf).  ``plan`` is a sup-side plan."""
    return _first_touch(plan, u)


def first_touch_below(plan: OperatorPlan, u: SampledFunction) -> SampledFunction:
    """E- 1_(-inf,h-] (E-)^{-1} u: the value process started from receiving u
    at the first entrance of (-inf, h-].  ``plan`` is an inf-side plan."""
    return _first_touch(plan, u)
