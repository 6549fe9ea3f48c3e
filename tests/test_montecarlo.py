import dataclasses
import io
import json
import math
import multiprocessing
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rsbarrier import montecarlo
from rsbarrier.cli import main
from rsbarrier.config import parse_config
from rsbarrier.engine import BarrierProblem, RegimeSpec
from rsbarrier.histories import HistoryIndex, MemoryChain
from rsbarrier.models import BrownianDrift, KouJumpDiffusion
from rsbarrier.montecarlo import (
    PATH_BLOCK,
    McConfig,
    simulate_price,
    brownian_band_series,
    _walk_segment,
)

from oracles import full_product_walk

BM = BrownianDrift(mu=0.0, sigma2=1.0)


def brownian_problem(lower=-1.0, upper=1.0, spot=0.0, maturity=1.0, rate=0.0):
    chain = MemoryChain.from_constant(1, 0, 0.0)
    return BarrierProblem(regimes=(RegimeSpec(BM, rate, 1.0),), chain=chain,
                          lower=lower, upper=upper, spot=spot, maturity=maturity,
                          initial_history=HistoryIndex((1,)))


def test_sure_payoff_when_barriers_unreachable():
    prob = brownian_problem(lower=-1e6, upper=1e6)
    res = simulate_price(prob, McConfig(paths=1000, dt=0.1, seed=1))
    assert res.estimate == 1.0
    assert res.stderr == 0.0


def test_spot_on_barrier_prices_zero():
    prob = brownian_problem(spot=1.0)
    res = simulate_price(prob, McConfig(paths=1000, dt=0.1, seed=1))
    assert res.estimate == 0.0


def test_matches_band_series_within_monte_carlo_error():
    prob = brownian_problem(maturity=0.5)
    truth, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.5)
    res = simulate_price(prob, McConfig(paths=40_000, dt=1e-3, seed=5, bridge=True))
    assert abs(res.estimate - truth) < 3.0 * res.stderr


def test_seeded_determinism():
    prob = brownian_problem(maturity=0.5)
    cfg = McConfig(paths=2000, dt=5e-3, seed=42, bridge=True)
    a = simulate_price(prob, cfg)
    b = simulate_price(prob, cfg)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_stderr_scaling():
    prob = brownian_problem(maturity=0.5)
    small = simulate_price(prob, McConfig(paths=2000, dt=5e-3, seed=9))
    large = simulate_price(prob, McConfig(paths=32_000, dt=5e-3, seed=9))
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(4.0, rel=0.2)  # 16x paths -> 4x smaller


def test_monitoring_bias_direction():
    # discrete monitoring over-prices survival; halving dt and the bridge
    # correction both pull the estimate down toward the truth
    prob = brownian_problem(maturity=0.5)
    cfg_coarse = McConfig(paths=30_000, dt=5e-2, seed=10, bridge=False)
    cfg_fine = McConfig(paths=30_000, dt=2.5e-2, seed=10, bridge=False)
    cfg_bridge = McConfig(paths=30_000, dt=5e-2, seed=10, bridge=True)
    coarse = simulate_price(prob, cfg_coarse).estimate
    fine = simulate_price(prob, cfg_fine).estimate
    bridged = simulate_price(prob, cfg_bridge).estimate
    assert bridged < fine < coarse


def test_regime_switch_and_jumps_run():
    kou = KouJumpDiffusion(mu=0.0, sigma2=0.05, lambda_j=3.0, p=0.5,
                           alpha_plus=12.0, alpha_minus=9.0)
    chain = MemoryChain(2, 1, np.array([[1.0], [2.0]]))
    prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.01, 1.0), RegimeSpec(kou, 0.03, 2.0)),
                          chain=chain, lower=-0.5, upper=0.5, spot=0.1, maturity=0.4,
                          initial_history=HistoryIndex((2, 1)))
    res = simulate_price(prob, McConfig(paths=4000, dt=5e-3, seed=2))
    assert 0.0 < res.estimate < 2.0
    assert res.stderr > 0.0


def test_config_guards():
    prob = brownian_problem()
    with pytest.raises(ValueError):
        simulate_price(prob, McConfig(paths=10, dt=1e-3, seed=1))
    with pytest.raises(ValueError):
        simulate_price(prob, McConfig(paths=2000, dt=0.5, seed=1))


# -- bridge factors taken only near a barrier -------------------------------

DT = 1e-4
LOWER, UPPER = -0.3, 0.3
GRID = DT * np.arange(1, 2001)
WIDE = BrownianDrift(mu=0.0, sigma2=0.08)
SD = math.sqrt(WIDE.sigma2 * DT)             # one step's standard deviation
REACH = math.sqrt(20.0 * WIDE.sigma2 * DT)   # no factor below 1.0 lies beyond it
KOU = KouJumpDiffusion(mu=0.0, sigma2=0.08, lambda_j=5.0, p=0.6,
                       alpha_plus=12.0, alpha_minus=8.0)


class FixedDraws:
    """Stands in for a generator: hands out the given Gaussians."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, n):
        assert n == self.z.size
        return self.z.copy()


def sojourn(x0, model, times, sizes=None, seed=None, z=None):
    """A sojourn walked by ``walk`` from a fresh generator: Philox(seed, 0),
    or the fixed draws ``z``."""
    def run(walk):
        rng = FixedDraws(z) if z is not None else \
            np.random.Generator(np.random.Philox(key=[seed, 0]))
        return walk(rng, x0, 0.0, times, sizes, model, LOWER, UPPER, True,
                    sizes is not None)
    return run


def jump_to(level, at=5, n=40):
    """Jump sizes taking a path from 0 to about ``level`` after step ``at``."""
    sizes = np.zeros(n)
    sizes[at] = level
    return sizes


SOJOURNS = {
    # paths that start on the reach and wander across it, both barriers
    "start_on_reach": [sojourn(UPPER - REACH if s % 2 else LOWER + REACH, WIDE,
                               GRID, seed=s) for s in range(8)],
    # one step from 1 to 4.6 deviations below the barrier, past the reach at
    # 4.47: only its start is within reach, and its factor is 1 - e^-9.2
    "step_leaving_reach": [sojourn(UPPER - SD, WIDE, GRID[:1], z=[z])
                           for z in (-3.6, 3.6)],
    "jump_near_barrier": [sojourn(0.0, KOU, GRID[:40], jump_to(level), seed=s)
                          for s in range(4)
                          for level in (UPPER - REACH / 2, LOWER + REACH / 2,
                                        UPPER - 2 * REACH)],
    "zero_length_step": [sojourn(UPPER - REACH / 2, WIDE,
                                 np.insert(GRID[:50], 10, GRID[9]), seed=s)
                         for s in range(4)],
    "tiny_sigma2": [sojourn(UPPER - 1e-9, BrownianDrift(mu=0.0, sigma2=1e-14),
                            GRID[:200], seed=s) for s in range(4)],
}


# the "plain" in each id names the walk's one way of drawing its Gaussians
@pytest.mark.parametrize("name", SOJOURNS, ids=[f"{name}-plain" for name in SOJOURNS])
def test_near_barrier_bridge_weight_equals_full_product(name):
    # the walk evaluates bridge factors only within reach of a barrier; its
    # weight must equal the product over every step bit for bit
    weights = []
    with np.errstate(divide="ignore"):  # a zero-length step divides by 0
        for run in SOJOURNS[name]:
            got = run(_walk_segment)
            assert got == run(full_product_walk)
            weights.append(got[1])
    assert any(0.0 < w < 1.0 for w in weights)  # some factor below 1 was taken


# one 2,000-path block of configs/kou_memory.json, history (1, 2), at
# dt = 1e-4 with the bridge: any change to the per-path streams or to the
# walk's arithmetic moves these reprs
KOU_MEMORY_BLOCK = {
    "plain": ("0.8259763947117551", "0.008183131642829146"),
}


@pytest.mark.parametrize("draws", KOU_MEMORY_BLOCK)
def test_kou_memory_block_is_pinned(draws):
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "kou_memory.json").read_text())
    cfg = parse_config(doc)
    mc = McConfig(paths=2000, dt=1e-4, seed=1048576, bridge=True)
    res = simulate_price(cfg.problem, mc)
    assert (repr(res.estimate), repr(res.stderr)) == KOU_MEMORY_BLOCK[draws]


def kou_memory_doc():
    return json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "kou_memory.json").read_text())


@pytest.mark.parametrize("draws", KOU_MEMORY_BLOCK)
def test_kou_memory_block_pin_holds_at_2_threads(draws):
    # the document's top-level threads reaches the Monte Carlo settings, and
    # the block forks over its path blocks with the 1-thread bits
    cfg = parse_config(dict(kou_memory_doc(), threads=2))
    assert cfg.mc.threads == 2
    mc = dataclasses.replace(cfg.mc, paths=2000, dt=1e-4, seed=1048576, bridge=True)
    res = simulate_price(cfg.problem, mc)
    assert (repr(res.estimate), repr(res.stderr)) == KOU_MEMORY_BLOCK[draws]


@pytest.mark.parametrize("cfg", [McConfig(paths=2000, dt=5e-3, seed=42)], ids=["plain"])
def test_estimate_keeps_its_bits_at_any_worker_count(monkeypatch, cfg):
    # a million threads asked for: each pool has at most one worker per path
    # block and per core, 1 thread starts none, and the estimate and stderr
    # keep the 1-thread bits
    from concurrent.futures import process

    started = []

    class Recording(process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
    prob = brownian_problem(maturity=0.5)
    results = {}
    for threads in (1, 2, 10**6):
        res = simulate_price(prob, dataclasses.replace(cfg, threads=threads))
        results[threads] = res.estimate, res.stderr
        if threads == 1:
            assert started == []
    assert results[2] == results[1] and results[10**6] == results[1]
    assert results[1][1] > 0.0
    cap = min(-(-cfg.paths // PATH_BLOCK), os.cpu_count() or 1)
    assert len(started) == 2 * (cap > 1) and all(n <= cap for n in started), started
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs 2 cores and the fork start method")
def test_dead_mc_worker_is_internal_error(tmp_path, capsys, monkeypatch):
    parent, one_path = os.getpid(), montecarlo._one_path

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return one_path(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_one_path", dying)
    doc = kou_memory_doc()
    doc["mc"] = {"paths": 2000, "dt": 1e-3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["mc", "--config", str(cfg_path), "--threads", "2"])
    err = capsys.readouterr().err.splitlines()
    assert (rc, out.getvalue()) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error: a worker process died"), err
    assert multiprocessing.active_children() == []


# -- the analytic band series itself --------------------------------------

def test_series_vanishes_at_barrier():
    val, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, -1.0 + 1e-12, 1.0)
    assert abs(val) < 1e-10


def test_series_reflection_symmetry():
    a, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.37, 1.0)
    b, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, -0.37, 1.0)
    assert a == pytest.approx(b, abs=1e-14)


def test_series_term_decay():
    # successive odd terms fall like exp(-pi^2 (k^2-1)/8); seven terms suffice
    v7, bound7 = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0, terms=7)
    v51, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0, terms=51)
    assert abs(v7 - v51) < 1e-10
    assert bound7 < 1e-10


def test_series_discounting_and_drift():
    base, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0)
    disc, _ = brownian_band_series(1.0, 0.0, 0.05, -1.0, 1.0, 0.0, 1.0)
    assert disc == pytest.approx(base * math.exp(-0.05), rel=1e-12)
    drifted, _ = brownian_band_series(1.0, 0.4, 0.0, -1.0, 1.0, 0.0, 1.0)
    assert drifted < base  # drift pushes the path toward a barrier


def test_series_against_mc_with_drift():
    mu, sig2, T = 0.3, 0.8, 0.5
    model = BrownianDrift(mu=mu, sigma2=sig2)
    chain = MemoryChain.from_constant(1, 0, 0.0)
    prob = BarrierProblem(regimes=(RegimeSpec(model, 0.02, 1.0),), chain=chain,
                          lower=-0.8, upper=1.2, spot=0.1, maturity=T,
                          initial_history=HistoryIndex((1,)))
    truth, _ = brownian_band_series(sig2, mu, 0.02, -0.8, 1.2, 0.1, T)
    res = simulate_price(prob, McConfig(paths=40_000, dt=1e-3, seed=17, bridge=True))
    assert abs(res.estimate - truth) < 3.0 * res.stderr
