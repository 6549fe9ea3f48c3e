"""Independent Monte Carlo pricer and the Brownian band-series oracle.

Paths simulate the memory chain exactly (exponential sojourns, shift map)
and the within-regime dynamics on the monitoring grid: Brownian increments
are exact, jumps happen at exact Poisson epochs, and the barrier is
checked at every grid time, jump epoch and regime switch.  The bridge flag
multiplies in the analytic crossing probability of each diffusion
sub-segment, removing the dominant monitoring bias.  Only regimes whose
model is ``simulated`` (Brownian, Kou) are walked; each draws its own jump
counts and sizes.

Each path owns a counter-based stream Philox(key=(seed, path_index)), so
estimates are bit-identical under any execution schedule.  The paths run
in fixed blocks of ``PATH_BLOCK``: in forked worker processes when
``McConfig.threads`` > 1 (``pool.map_tasks``), else one block after another
in the calling process.  Each block returns its per-path
values, and the caller sums them in path order, so an estimate and its
standard error keep their bits at any worker count.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import BarrierProblem
from .errors import ConfigError
from .histories import encode
from .pool import map_tasks

__all__ = ["McConfig", "McResult", "simulate_price", "brownian_band_series"]

# bridge factors are taken only within sqrt(_BRIDGE_REACH * sigma^2 * max dt)
# of a barrier; see _walk_segment
_BRIDGE_REACH = 20.0
# paths per block, the task of simulate_price's pool: a 2,000-path estimate
# makes 8 tasks, some 90 ms each on kou_memory at dt = 1e-4, against about
# 10 ms to start and stop a 2-worker pool
PATH_BLOCK = 250


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings.  ``seed`` and ``threads`` come from the config
    document's top level; ``threads`` counts worker processes over the path
    blocks (1, the default, draws every path in the calling process) and
    moves no bit of the estimate."""
    paths: int = 100_000
    dt: float = 1e-3
    seed: int = 20260809
    bridge: bool = True
    threads: int = 1

    def validate(self, maturity: float) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be a whole number >= 1, got {self.threads}")
        if self.paths < 1000:
            raise ValueError("need at least 1000 paths")
        if not 0.0 < self.dt <= maturity / 10.0:
            raise ValueError(f"dt must lie in (0, T/10], got {self.dt}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class McResult:
    estimate: float
    stderr: float
    paths: int
    dt: float
    seed: int
    wall_time: float


def _segment_events(rng, t0, t1, dt, model):
    """Event times in (t0, t1]: monitoring grid, jump epochs, segment end.

    Returns (times, jump_sizes) with zero sizes at non-jump events.
    """
    k0 = math.floor(t0 / dt) + 1
    k1 = math.floor(t1 / dt)
    grid = np.arange(k0, k1 + 1, dtype=float) * dt
    if grid.size == 0 or grid[-1] < t1 - 1e-15 * max(t1, 1.0):
        grid = np.append(grid, t1)
    n_jumps = model.jump_count(rng, t1 - t0)
    if n_jumps == 0:
        return grid, None
    epochs = t0 + (t1 - t0) * rng.random(n_jumps)
    jump_sizes = model.jump_sizes(rng, n_jumps)
    times = np.concatenate([grid, epochs])
    sizes = np.concatenate([np.zeros(grid.size), jump_sizes])
    order = np.argsort(times, kind="stable")
    return times[order], sizes[order]


def _walk_segment(rng, x0, t0, times, sizes, model, lower, upper, bridge,
                  have_jumps):
    """Survival weight through one regime sojourn; (alive, weight, x_end)."""
    if times.size == 0:
        return True, 1.0, x0
    deltas = np.empty_like(times)  # np.diff(times, prepend=t0) without its copy
    deltas[0] = times[0] - t0
    np.subtract(times[1:], times[:-1], out=deltas[1:])
    sig2 = model.sigma2
    mu = model.mu
    if sig2 > 0.0:
        incs = mu * deltas + np.sqrt(sig2 * deltas) * rng.standard_normal(times.size)
    else:
        incs = mu * deltas
    if have_jumps:
        pre = x0 + np.cumsum(incs) + (np.cumsum(sizes) - sizes)
        post = pre + sizes
        lo = min(pre.min(), post.min())
        hi = max(pre.max(), post.max())
    else:
        pre = post = x0 + np.cumsum(incs)
        lo = pre.min()
        hi = pre.max()
    x_end = float(post[-1])
    if not (lo > lower and hi < upper):
        return False, 0.0, x_end
    if not (bridge and sig2 > 0.0):
        return True, 1.0, x_end
    # A step whose start and end both lie at least `reach` from a barrier has
    # a = 2(u - s)(u - e)/(sigma^2 delta) >= 40 there, so exp(-a) < 2**-54 and
    # its factor 1 - exp(-a) rounds to exactly 1.0: only steps within reach
    # of a barrier are evaluated.
    reach = math.sqrt(_BRIDGE_REACH * sig2 * deltas.max())
    lo = min(lo, x0)
    hi = max(hi, x0)
    if lo - lower >= reach and upper - hi >= reach:
        return True, 1.0, x_end
    starts = np.empty_like(post)
    starts[0] = x0
    starts[1:] = post[:-1]
    near = np.flatnonzero((np.minimum(starts, pre) < lower + reach)
                          | (np.maximum(starts, pre) > upper - reach))
    s = starts[near]
    e = pre[near]
    var = sig2 * deltas[near]
    up = np.exp(-2.0 * (upper - s) * (upper - e) / var)
    dn = np.exp(-2.0 * (s - lower) * (e - lower) / var)
    # the product runs over every step, ones included, so numpy groups its
    # factors as it would over the full product
    factors = np.ones_like(pre)
    factors[near] = (1.0 - up) * (1.0 - dn)
    return True, float(np.prod(factors)), x_end


def _one_path(rng, problem: BarrierProblem, cfg: McConfig):
    """Discounted knock-out payoff (with bridge survival weight) of one path."""
    chain = problem.chain
    rates = problem.rates
    payoffs = problem.payoffs
    code = encode(chain.m, problem.initial_history)
    heads = chain.heads()
    x = problem.spot
    t = 0.0
    T = problem.maturity
    discount = 0.0
    weight = 1.0
    if not problem.lower < x < problem.upper:
        return 0.0
    while t < T:
        head = int(heads[code])
        model = problem.regimes[head - 1].model
        lam = float(chain.lam_total[code])
        sojourn = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf
        seg_end = min(t + sojourn, T)
        times, sizes = _segment_events(rng, t, seg_end, cfg.dt, model)
        alive, w, x = _walk_segment(rng, x, t, times, sizes, model,
                                    problem.lower, problem.upper, cfg.bridge,
                                    have_jumps=sizes is not None)
        discount += rates[head - 1] * (seg_end - t)
        if not alive:
            return 0.0
        weight *= w
        t = seg_end
        if t < T:
            probs = chain.rates[code] / lam
            j = int(rng.choice(chain.m - 1, p=probs))
            code = int(chain.codes_after_shift[code, j])
    return weight * payoffs[int(heads[code]) - 1] * math.exp(-discount)


def _path_values(problem: BarrierProblem, cfg: McConfig, block: range) -> np.ndarray:
    """The discounted payoffs of the paths in ``block``, in path order: one
    path per Philox key (seed, i)."""
    return np.array([_one_path(np.random.Generator(np.random.Philox(key=[cfg.seed, i])),
                               problem, cfg) for i in block])


def simulate_price(problem: BarrierProblem, cfg: McConfig) -> McResult:
    """The Monte Carlo estimate; a regime whose paths the walker cannot
    draw is a ConfigError before any path is drawn."""
    cfg.validate(problem.maturity)
    for i, spec in enumerate(problem.regimes, 1):
        if not spec.model.simulated:
            raise ConfigError(f"regime {i} cannot be simulated: the Monte Carlo walker "
                              f"draws diffusions with Kou jumps only, got {spec.model}")
    start = time.perf_counter()
    if not problem.lower < problem.spot < problem.upper:
        return McResult(0.0, 0.0, cfg.paths, cfg.dt, cfg.seed,
                        time.perf_counter() - start)
    n = cfg.paths
    blocks = map_tasks(_path_values, [range(n)[i:i + PATH_BLOCK]
                                      for i in range(0, n, PATH_BLOCK)],
                       cfg.threads, problem, cfg)
    sums = sumsq = 0.0
    for v in itertools.chain.from_iterable(blocks):
        sums += v
        sumsq += v * v
    mean = sums / n
    var = max(sumsq / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    return McResult(float(mean), float(stderr), cfg.paths, cfg.dt, cfg.seed,
                    time.perf_counter() - start)


def brownian_band_series(sigma2: float, mu: float, rate: float, lower: float,
                         upper: float, x0: float, maturity: float,
                         terms: int = 101):
    """Eigenfunction expansion of the Brownian no-exit value, drift handled
    by the exponential change of measure; returns (value, next_term_bound)."""
    if not lower < x0 < upper:
        return 0.0, 0.0
    if terms < 1:
        raise ValueError("need at least one term")
    L = upper - lower
    a = mu / sigma2
    prefactor = math.exp(-rate * maturity - a * x0 - 0.5 * mu * mu * maturity / sigma2)

    def term(k):
        b = k * math.pi / L
        decay = math.exp(-0.5 * sigma2 * b * b * maturity)
        if mu == 0.0:
            integral = (L / (k * math.pi)) * (1.0 - (-1.0) ** k)
        else:
            integral = b / (a * a + b * b) * (math.exp(a * lower)
                                              - (-1.0) ** k * math.exp(a * upper))
        return (2.0 / L) * math.sin(b * (x0 - lower)) * decay * integral

    total = sum(term(k) for k in range(1, terms + 1))
    return prefactor * total, abs(prefactor * term(terms + 1))
