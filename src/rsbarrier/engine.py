"""Per-spectral-value pricing engine.

For a fixed q with Re q > 0 the knock-out value transform splits as
Vt = Vt0 + Vt1: Vt0 solves the barrier-free linear system over histories,
and Vt1 is built as an alternating series of one-barrier corrections.
Each series term solves a half-line problem by block Gauss-Seidel sweeps
over the head groups.  The operator depends only on a history's head, and
the chain hands out each head's rows as one contiguous run
(``MemoryChain.head_rows``), so ``price_field`` builds one
``epv.OperatorPlan`` per side and head from that head's factorization.  Head
s is factorized at Q_s = q + lambda_s + r_s, where lambda_s is the largest
Lambda_h of the head's histories, and each row keeps the slack
lambda_s - Lambda_h of itself: m factorizations per q, whatever the memory
depth.  A sweep walks the groups in head order: each group gathers its
rate-weighted neighbours, the groups before it already updated in this
sweep, and takes its head's step.  A rational (Brownian or Kou) head's plan
applies E = phi+ phi- once and adds closed-form barrier terms
(``epv.sweep_step``), and its first touches take no transform; a KoBoL
head takes one inner-side and one outer-side application.  A plan and the
rows given to it belong to one head.  At a real q the iteration is
nonnegative, so it contracts at least as fast as Jacobi
(Stein-Rosenberg) and, started from below, stays monotone.  The plans are
dropped when the spectral value is done.  Sweep 1 starts from zero, so it
is the boundary term itself and transforms nothing; on a chain with
lambda0 = 0 nothing couples, and it is the only sweep.  Later sweeps run in
place, in row slices of a ``Workspace`` made once per spectral value, so
they allocate no array of the batch's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractionFailureError,
    DivergenceError,
    ResourceLimitError,
    SpectralParameterError,
)
from .grids import DualGrid, Region, SampledFunction, indicator_soft
from .histories import HistoryIndex, MemoryChain
from .models import LevyModel
from .epv import OperatorPlan, apply_epv, first_touch_above, first_touch_below, sweep_step
from .wiener_hopf import factorize

__all__ = ["RegimeSpec", "BarrierProblem", "ValueField", "IterationStats",
           "Tolerances", "QPricer", "solve_v0", "check_working_set", "working_set_bytes",
           "MAX_WORKING_BYTES"]

MAX_WORKING_BYTES = 4 * 2**30
# complex (histories, M) arrays alive at once at one spectral value, by the
# samples' dtype: tracemalloc reads a price_field peak of about 7.1 at a real
# q and 10.7 at a complex one on a 24-history chain at M = 2^12
SWEEP_LIVE_ARRAYS = {np.dtype(np.float64): 11, np.dtype(np.complex128): 16}


def working_set_bytes(histories: int, size: int, dtype=np.complex128) -> int:
    """Estimated peak bytes of the sweeps at one spectral value whose
    samples have the given dtype."""
    return histories * size * 16 * SWEEP_LIVE_ARRAYS[np.dtype(dtype)]


def check_working_set(histories: int, size: int, dtype=np.complex128) -> None:
    """Raise ResourceLimitError, before any array is built, when the estimate
    exceeds MAX_WORKING_BYTES."""
    need = working_set_bytes(histories, size, dtype)
    if need > MAX_WORKING_BYTES:
        # 2^mPower nodes run to hundreds of digits at the largest mPower
        nodes = f"2^{size.bit_length() - 1}" if size & (size - 1) == 0 else f"{size:.3g}"
        raise ResourceLimitError(f"{histories} histories on {nodes} grid nodes need "
                                 f"about {need / 2**30:.3g} GiB, above the "
                                 f"{MAX_WORKING_BYTES / 2**30:g} GiB cap")


@dataclass(frozen=True)
class RegimeSpec:
    model: LevyModel
    rate: float     # continuously compounded discount rate r_j
    payoff: float   # terminal payoff constant G_j


@dataclass(frozen=True)
class BarrierProblem:
    regimes: tuple[RegimeSpec, ...]
    chain: MemoryChain
    lower: float
    upper: float
    spot: float
    maturity: float
    initial_history: HistoryIndex

    def __post_init__(self):
        if len(self.regimes) != self.chain.m:
            raise ValueError("regime count must match the chain's m")
        if not all(1 <= s <= self.chain.m for s in self.initial_history.labels):
            raise ValueError(f"initial history labels must lie in 1..{self.chain.m}")
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")
        if self.maturity <= 0.0:
            raise ValueError("maturity must be > 0")

    @property
    def rates(self) -> np.ndarray:
        return np.array([r.rate for r in self.regimes])

    @property
    def payoffs(self) -> np.ndarray:
        return np.array([r.payoff for r in self.regimes])


MAX_OUTER = 200  # most terms of the series of one-barrier corrections
_V0_MAX_SWEEPS = 10_000
_V0_STALL_SWEEPS = 3


def _neighbour_sum(chain: MemoryChain, v: np.ndarray) -> np.ndarray:
    """sum_j lam_{h,j} v_{shift(h,j)}, accumulated in ascending target order."""
    out = np.zeros(chain.size, dtype=np.complex128)
    for j in range(chain.m - 1):
        out = out + chain.rates[:, j] * v[chain.codes_after_shift[:, j]]
    return out


def solve_v0(chain: MemoryChain, rates: np.ndarray, payoffs: np.ndarray,
             q) -> np.ndarray:
    """Barrier-free transform values: Q_h(q) v_h = G_{h0} + sum lam v_{shift}.

    One Jacobi iteration for every history space, started from G/Q and run in
    a fixed order: each sweep recomputes all histories from the previous one,
    adding neighbour terms in ascending target order.  With Q_h = q + Lambda_h
    + r_{h0}, the system is strictly diagonally dominant for Re q > -min r
    (|Q_h| > Lambda_h, checked up front), so a sweep contracts the sup-norm
    error by max_h Lambda_h / |Q_h| < 1.  The iteration stops at its rounding
    floor: when a sweep changes nothing, or when the largest update has not
    reached a new minimum for a few sweeps.  A residual check then confirms
    the solution.  Histories whose rows agree get bit-identical values, so
    lumpable copies of a history never move its value.
    """
    heads = chain.heads()
    diag = q + chain.lam_total + rates[heads - 1]
    rhs = payoffs[heads - 1].astype(np.complex128)
    if np.any(np.abs(diag) <= chain.lam_total):
        raise SpectralParameterError(
            f"spectral value q={q} too small for the history system"
        )
    sol = rhs / diag
    best = math.inf
    stalled = 0
    for _ in range(_V0_MAX_SWEEPS):
        new = (rhs + _neighbour_sum(chain, sol)) / diag
        step = float(np.max(np.abs(new - sol)))
        sol = new
        if step < best:
            best, stalled = step, 0
        else:
            stalled += 1
        if step == 0.0 or stalled >= _V0_STALL_SWEEPS:
            break
    else:
        raise SpectralParameterError(
            f"history system Jacobi failed to converge at q={q}")
    residual = np.max(np.abs(diag * sol - rhs - _neighbour_sum(chain, sol)))
    if not residual <= 1e-10 * max(np.max(np.abs(rhs)), 1e-300):
        raise SpectralParameterError(f"history system residual {residual:.2e}")
    return sol


@dataclass
class IterationStats:
    outer_terms: list[float] = field(default_factory=list)
    inner_sweeps: list[int] = field(default_factory=list)
    contraction_ratios: list[float] = field(default_factory=list)
    capped_solves: int = 0  # inner solves stopped by max_sweeps above their tolerance
    monotone_undershoot: float = 0.0

    @property
    def max_inner_sweeps(self) -> int:
        return max(self.inner_sweeps, default=0)

    @property
    def max_ratio(self) -> float:
        return max(self.contraction_ratios, default=0.0)


@dataclass
class ValueField:
    """Vector over histories of sampled transforms at one spectral value;
    ``regular`` says whether every regime makes both barriers regular."""

    functions: SampledFunction     # batch shape (#histories, M)
    stats: IterationStats
    regular: bool

    def at(self, x0: float) -> np.ndarray:
        return interpolate_field(self.functions, x0, self.regular)


def interpolate_field(u: SampledFunction, x0: float, regular: bool) -> np.ndarray:
    """Cubic Lagrange through the four nearest nodes of the band: its
    barrier nodes count only when both barriers are ``regular``.

    The stencil becomes one-sided within two cells of a barrier.  At a
    regular barrier the value tends to 0 from inside, and the barrier node,
    exactly 0 after the clip, anchors it there; otherwise only strictly
    interior nodes are used.  Outside the open band the value is the
    boundary condition, exactly zero.
    """
    grid = u.grid
    if not grid.lower < x0 < grid.upper:
        return np.zeros(u.shape, dtype=np.complex128)
    lo, hi = grid.lower_index, grid.upper_index
    if not regular:
        lo, hi = lo + 1, hi - 1  # strictly inside
    j = int(np.clip(math.floor((x0 - grid.x_min) / grid.dx) - 1, lo, hi - 3))
    nodes = np.arange(j, j + 4)
    xs = grid.x_min + grid.dx * nodes
    vals = u.full()[..., nodes]
    out = np.zeros(u.shape, dtype=np.complex128)
    for k in range(4):
        w = 1.0
        for m in range(4):
            if m != k:
                w *= (x0 - xs[m]) / (xs[k] - xs[m])
        out = out + w * vals[..., k]
    return out


@dataclass
class Workspace:
    """The arrays one spectral value's series runs in, shaped like the batch
    (histories, M) and of the samples' dtype unless said otherwise.
    ``term`` takes each head group's new rows during a sweep, and each
    series term once both one-barrier solves are done; ``gather`` takes the
    coupling's gathered rows and each group's step, then the sup-norms'
    sums; ``real``, always real, takes the magnitudes; ``half``, complex
    (histories, M/2 + 1) and held only for real samples, takes a real
    plan's half spectra.  ``keep`` and ``rates`` are the coupling's weights,
    the slack lambda_{h0} - Lambda_h and lam_{h,j}, cast to the samples' dtype
    once; head s's operators are taken at Q_s = q + lambda_s + r_s, where
    lambda_s is the largest Lambda_h of the head's histories."""

    term: np.ndarray
    gather: np.ndarray
    real: np.ndarray
    half: np.ndarray | None
    keep: np.ndarray
    rates: np.ndarray

    @classmethod
    def empty(cls, chain: MemoryChain, size: int, dtype) -> "Workspace":
        shape = (chain.size, size)
        half = (np.empty((chain.size, size // 2 + 1), np.complex128)
                if dtype == np.float64 else None)
        return cls(np.empty(shape, dtype), np.empty(shape, dtype), np.empty(shape), half,
                   chain.slack.astype(dtype),
                   chain.rates.astype(dtype))


@dataclass(frozen=True)
class Tolerances:
    """Stopping rules: a sweep's step (``inner``) and a series term (``outer``)
    relative to max|G|/|q|, and the most sweeps allowed per series term."""

    inner: float = 1e-10
    outer: float = 1e-8
    max_sweeps: int = 500

    def __post_init__(self):
        if self.inner <= 0 or self.outer <= 0:
            raise ConfigError("tolerances must be > 0")
        if self.max_sweeps < 1:
            raise ConfigError("maxSweeps must be >= 1")


class QPricer:
    """Assembles Vt(q, .) over all histories for spectral values q."""

    def __init__(self, problem: BarrierProblem, grid: DualGrid,
                 tolerances: Tolerances = Tolerances()):
        self.problem = problem
        self.grid = grid
        band = problem.upper - problem.lower
        if (abs(self.grid.lower - problem.lower) > 1e-12 * band
                or abs(self.grid.upper - problem.upper) > 1e-12 * band):
            raise ValueError("grid barriers do not match the problem")
        # real samples need the least; price_field checks its own q's dtype
        check_working_set(problem.chain.size, self.grid.size, np.float64)
        self.tolerances = tolerances
        self.regular = all(spec.model.half_lines_regular() for spec in problem.regimes)
        self._factor_cache: dict = {}

    # -- factorizations, one per regime head, at Q(s; q) -----------------
    def factorizations(self, q):
        key = complex(q)
        if key not in self._factor_cache:
            chain = self.problem.chain
            self._factor_cache[key] = [
                factorize(spec.model, q + lam + spec.rate, self.grid)
                for lam, spec in zip(chain.lambda_heads, self.problem.regimes)
            ]
        return self._factor_cache[key]

    def _scale(self, q) -> float:
        return float(np.max(np.abs(self.problem.payoffs)) / abs(q))

    def _coupling(self, cur: SampledFunction, rows: slice,
                  work: Workspace) -> SampledFunction:
        """(lambda_{h0} - Lambda_h) * cur_h + sum_s lam_{s,h} * cur_{shift(h,s)}
        on one head group's rows.  lambda_s is the largest Lambda_h of head
        s's histories, and Q_s = q + lambda_s + r_s.  The sum is accumulated
        in ``work.term`` in ascending target order for reproducibility; each
        neighbour's rows are gathered into ``work.gather``.  A switch changes
        the head, so every neighbour lies in another group."""
        codes = self.problem.chain.codes_after_shift[rows]
        out, gather = work.term[rows], work.gather[rows]
        keep, rates = work.keep[rows], work.rates[rows]
        np.multiply(cur.values[rows], keep[:, None], out=out)
        c_lo, c_hi = cur.c_lo[rows] * keep, cur.c_hi[rows] * keep
        for j in range(codes.shape[1]):
            idx, w = codes[:, j], rates[:, j]
            # the codes are in range; mode "raise" would buffer a copy of out
            np.take(cur.values, idx, axis=0, out=gather, mode="clip")
            gather *= w[:, None]
            out += gather
            c_lo = c_lo + cur.c_lo[idx] * w
            c_hi = c_hi + cur.c_hi[idx] * w
        return SampledFunction(self.grid, out, c_lo, c_hi)

    def _inner_iteration(self, side: str, boundary_data: SampledFunction, q,
                         stats: IterationStats, plans: dict,
                         work: Workspace) -> SampledFunction:
        """Block Gauss-Seidel sweeps for one series term; the boundary term
        is fixed.  Sweep 1 is the boundary term itself (the sweep from
        zero), taken without a transform.  Each later sweep walks the head
        groups in head order: group s couples to the rows as they stand,
        so its neighbours in earlier groups are already this sweep's, then
        takes head s's sweep step (one application of E on a rational head,
        an inner-side and an outer-side one on a KoBoL head), the scaling
        by 1/Q_s and its boundary rows.  The group's new rows are formed in
        ``work.term`` and its step in ``work.gather`` before they are
        committed to the term's own array, which is returned; the sweep's
        convergence, contraction and monotone checks then read every
        group's step.  The rows of a group update together, so lumpable
        copies of a history keep its bits."""
        problem, chain, grid = self.problem, self.problem.chain, self.grid
        q_heads = np.array([q + lam + spec.rate
                            for lam, spec in zip(chain.lambda_heads, problem.regimes)])

        if side == "plus":
            first_touch, inner, region = first_touch_above, "minus", Region.BELOW_UPPER
        else:
            first_touch, inner, region = first_touch_below, "plus", Region.ABOVE_LOWER
        groups = [(s, rows, plans[side][s - 1], plans[inner][s - 1])
                  for s, rows in enumerate(chain.head_rows, 1)]

        boundary = SampledFunction.zero(grid, (chain.size,), work.term.dtype)
        for _, rows, plan, _ in groups:
            boundary.assign(rows, first_touch(plan, boundary_data.rows(rows)))

        tol = self.tolerances.inner * self._scale(q)
        real_path = (complex(q).imag == 0.0
                     and np.all(self.problem.payoffs >= 0.0))
        # sweep 1; with lambda0 = 0 every later sweep would couple nothing
        # and return the boundary term again
        diff = boundary.sup_norm()
        if real_path:
            worst = float(np.min(boundary.full().real[..., grid.monotone_nodes]))
            stats.monotone_undershoot = min(stats.monotone_undershoot, worst)
        if chain.lambda0 == 0.0 or diff <= tol:
            stats.inner_sweeps.append(1)
            return boundary
        cur = SampledFunction(grid, boundary.values.copy(), boundary.c_lo, boundary.c_hi)
        step = SampledFunction(grid, work.gather, np.zeros(chain.size), np.zeros(chain.size))
        # per group, views made once: the rows of the iterate, the boundary
        # term and the step, and the workspace rows its applications use
        blocks = [(rows, plan, inner_plan, 1.0 / q_heads[s - 1], cur.rows(rows),
                   boundary.rows(rows), step.rows(rows), work.term[rows],
                   None if work.half is None else work.half[rows])
                  for s, rows, plan, inner_plan in groups]
        prev_diff, rising, sweep = diff, 0, 1
        for sweep in range(2, self.tolerances.max_sweeps + 1):
            for rows, plan, inner_plan, inv_q, old, bnd, moved, out, half in blocks:
                new = self._coupling(cur, rows, work)
                if plan.product:
                    # the step is not written yet, so its rows take the products
                    new = sweep_step(plan, new, out=out, scratch=half, buffer=moved.values)
                else:
                    new = apply_epv(inner_plan, new, out=out, scratch=half)
                    new = indicator_soft(new, region, out=out)
                    new = apply_epv(plan, new, out=out, scratch=half)
                # scaled by 1/Q_s, plus the boundary rows, on the bare arrays
                np.multiply(out, inv_q, out=out)
                out += bnd.values
                c_lo = new.c_lo * inv_q + bnd.c_lo
                c_hi = new.c_hi * inv_q + bnd.c_hi
                np.subtract(out, old.values, out=moved.values)
                np.subtract(c_lo, old.c_lo, out=moved.c_lo)
                np.subtract(c_hi, old.c_hi, out=moved.c_hi)
                old.values[...], old.c_lo[...], old.c_hi[...] = out, c_lo, c_hi
            # the sup-norm leaves the full samples of the step in its
            # interior, where the monotone nodes lie
            diff = step.sup_norm((step.values, work.real))
            if real_path:
                worst = float(np.min(step.values.real[..., grid.monotone_nodes]))
                stats.monotone_undershoot = min(stats.monotone_undershoot, worst)
            noise_floor = 1e3 * np.finfo(float).eps * max(
                cur.sup_norm((work.term, work.real)), 1e-300)
            if diff > noise_floor:
                ratio = diff / prev_diff
                stats.contraction_ratios.append(ratio)
                rising = rising + 1 if ratio >= 1.0 else 0
                if rising >= 3:
                    bound = float(np.max(np.array(chain.lambda_heads) / np.abs(q_heads)))
                    raise ContractionFailureError(
                        f"inner sweeps stopped contracting at q={q} "
                        f"(empirical rate {ratio:.3f}, bound {bound:.3f})")
            prev_diff = diff
            if diff <= tol:
                break
        else:
            stats.capped_solves += 1
        stats.inner_sweeps.append(sweep)
        return cur

    def _series(self, q, v0: np.ndarray, plans: dict,
                stats: IterationStats) -> SampledFunction:
        """v0 plus the alternating series of one-barrier corrections.  The
        sweeps' workspace lives as long as this call, and each side's data
        is dropped as soon as its term is in hand."""
        chain, grid = self.problem.chain, self.grid
        # this call's own, so that calls sharing the pricer never share one
        work = Workspace.empty(chain, grid.size, v0.dtype)
        minus_prev = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, v0)
        plus_prev = SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, v0)
        total = SampledFunction.constant(grid, v0)
        tol = self.tolerances.outer * self._scale(q)
        rising = 0
        prev_norm = None
        for ell in range(1, MAX_OUTER + 1):
            v_plus, minus_prev = self._inner_iteration(
                "plus", minus_prev, q, stats, plans, work), None
            v_minus, plus_prev = self._inner_iteration(
                "minus", plus_prev, q, stats, plans, work), None
            # the term is formed in the workspace, free between solves
            term = v_plus.add(v_minus, out=work.term)
            norm = term.sup_norm((work.gather, work.real))
            stats.outer_terms.append(norm)
            total = total.add(term.scale((-1.0) ** ell, out=term.values), out=total.values)
            if norm <= tol:
                return total
            if prev_norm is not None and norm >= prev_norm:
                rising += 1
                if rising >= 3:
                    raise DivergenceError(
                        f"outer series terms stopped decreasing at q={q}")
            else:
                rising = 0
            prev_norm = norm
            minus_prev, plus_prev = v_minus, v_plus
        raise DivergenceError(f"outer series needs more than "
                              f"{MAX_OUTER} terms at q={q}")

    def price_field(self, q) -> ValueField:
        problem, chain, grid = self.problem, self.problem.chain, self.grid
        real = complex(q).imag == 0.0
        if real and complex(q).real <= 0:
            raise SpectralParameterError("need Re q > 0 on the real path")
        check_working_set(chain.size, grid.size, np.float64 if real else np.complex128)
        v0 = solve_v0(chain, problem.rates, problem.payoffs, q)
        if real:
            # real samples at a real q; v0 is still solved in complex
            # arithmetic, whose division by d + 0j rounds as G * (1/d)
            q, v0 = complex(q).real, v0.real.copy()
        stats = IterationStats()
        factors = self.factorizations(q)
        plans = {side: [OperatorPlan.build(f, side, product=f.model.rational) for f in factors]
                 for side in ("plus", "minus")}
        total = self._series(q, v0, plans, stats)

        # knock-out boundary condition: exactly zero outside the open band
        full = total.full()
        full[..., grid.outside_band] = 0.0
        clipped = SampledFunction.from_samples(grid, full, 0.0, 0.0)
        return ValueField(functions=clipped, stats=stats, regular=self.regular)
