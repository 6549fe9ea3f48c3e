"""Acceptance suite: one test per shipped exit criterion.

Each test prints a PASS/FAIL line with its measured figure so the suite
doubles as a report; run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from rsbarrier.cli import price_histories
from rsbarrier.engine import BarrierProblem, RegimeSpec
from rsbarrier.histories import HistoryIndex, MemoryChain, enumerate_histories
from rsbarrier.inversion import InversionPlan, gwr_invert, gwr_nodes, sinh_invert
from rsbarrier.models import BrownianDrift, KoBoL, KouJumpDiffusion
from rsbarrier.montecarlo import McConfig, brownian_band_series, simulate_price
from rsbarrier.wiener_hopf import factorize_integral, factorize_rational

import builders as build

BM1 = BrownianDrift(mu=0.0, sigma2=1.0)
KOU_A = KouJumpDiffusion(mu=0.03, sigma2=0.02, lambda_j=2.0, p=0.4,
                         alpha_plus=15.0, alpha_minus=10.0)
KOU_B = KouJumpDiffusion(mu=-0.02, sigma2=0.08, lambda_j=5.0, p=0.6,
                         alpha_plus=12.0, alpha_minus=8.0)
KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)

QS = [0.5, 1.0, 10.0, 3 + 4j]
GWR = InversionPlan()  # n_gaver = 8


def gwr_prices(problem, **settings):
    """Every history's GWR price through the pricing driver, by history code."""
    return price_histories(build.pricer(problem, **settings), GWR)[0]


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: Wiener-Hopf product identity -----------------------------

def test_criterion_1_product_identity():
    start = time.perf_counter()
    grid = build.grid(-1.0, 1.0, [BM1, KOU_A, KOU_B, KOBOL], m_power=12)
    worst_rational = 0.0
    for model in (BM1, KOU_A, KOU_B):
        for q in QS:
            worst_rational = max(worst_rational,
                                 factorize_rational(model, q, grid).product_residual())
    worst_integral = 0.0
    for q in QS:
        worst_integral = max(worst_integral,
                             factorize_integral(KOBOL, q, grid).product_residual())
    elapsed = time.perf_counter() - start
    ok = worst_rational < 1e-10 and worst_integral < 1e-6 and elapsed < 5.0
    _report("criterion 1 (product identity)", ok,
            f"rational {worst_rational:.2e} < 1e-10, integral {worst_integral:.2e}"
            f" < 1e-6, {elapsed:.1f}s < 5s")


# -- criterion 2: Brownian analytic oracle ---------------------------------

@pytest.fixture(scope="module")
def brownian_pipeline():
    chain = MemoryChain.from_constant(1, 0, 0.0)
    prob = BarrierProblem(regimes=(RegimeSpec(BM1, 0.0, 1.0),), chain=chain,
                          lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                          initial_history=HistoryIndex((1,)))

    def run():
        return gwr_prices(prob, m_power=14)[0]

    start = time.perf_counter()
    price = run()
    elapsed = time.perf_counter() - start
    return {"price": price, "elapsed": elapsed, "run": run, "problem": prob}


def test_criterion_2_brownian_oracle(brownian_pipeline):
    truth, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0)
    err = abs(brownian_pipeline["price"] - truth)
    elapsed = brownian_pipeline["elapsed"]
    ok = err < 2e-4 and elapsed < 30.0
    _report("criterion 2 (Brownian analytic oracle)", ok,
            f"|engine - series| = {err:.2e} < 2e-4, {elapsed:.1f}s < 30s")


# -- criterion 3: Monte Carlo oracle ---------------------------------------

@pytest.fixture(scope="module")
def kou_memory_setup():
    chain = MemoryChain(2, 1, np.array([[0.8], [1.6]]))
    prob = BarrierProblem(
        regimes=(RegimeSpec(KOU_A, 0.02, 1.0), RegimeSpec(KOU_B, 0.05, 1.0)),
        chain=chain, lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
        initial_history=HistoryIndex((1, 2)))

    def engine_price(m_power=14):
        return gwr_prices(prob, m_power=m_power)[0]  # code 0: history (1, 2)

    return prob, engine_price


def test_criterion_3_monte_carlo_oracle(kou_memory_setup):
    prob, engine_price = kou_memory_setup
    start = time.perf_counter()
    engine = engine_price()
    mc = simulate_price(prob, McConfig(paths=1_000_000, dt=1e-4,
                                       seed=20260809, bridge=True))
    elapsed = time.perf_counter() - start
    z = abs(engine - mc.estimate) / mc.stderr
    ok = z < 3.0 and elapsed < 600.0
    _report("criterion 3 (Monte Carlo oracle)", ok,
            f"engine {engine:.6f} vs MC {mc.estimate:.6f} +- {mc.stderr:.6f}"
            f" (z = {z:.2f} < 3), {elapsed:.0f}s < 600s")


# -- criterion 4: memory-reduction invariance ------------------------------

@pytest.fixture(scope="module")
def reduction_prices():
    regimes = tuple(RegimeSpec(BrownianDrift(mu=0.0, sigma2=s2), 0.0, 1.0)
                    for s2 in (0.5, 1.0, 1.5))
    rules = [{"s": s, "history": [h0], "rate": 0.3 + 0.1 * s + 0.05 * h0}
             for s in (1, 2, 3) for h0 in (1, 2, 3) if s != h0]

    def run():
        prices = {}
        for n_mem in (0, 1, 2, 3):
            chain = MemoryChain.from_rules(3, n_mem, 0.0, rules)
            init = next(h for h in enumerate_histories(3, n_mem) if h.head == 1)
            prob = BarrierProblem(regimes=regimes, chain=chain, lower=-1.0,
                                  upper=1.0, spot=0.2, maturity=1.0,
                                  initial_history=init)
            # tight tolerances: the rho table amplifies truncation-level
            # differences between runs by several orders; code 0 is the
            # head-1 history in canonical order
            prices[n_mem] = gwr_prices(prob, m_power=12, inner=1e-13, outer=1e-12)[0]
        return prices

    start = time.perf_counter()
    prices = run()
    return {"prices": prices, "elapsed": time.perf_counter() - start, "run": run}


def test_criterion_4_memory_reduction(reduction_prices):
    prices = reduction_prices["prices"]
    elapsed = reduction_prices["elapsed"]
    spread = max(prices.values()) - min(prices.values())
    ok = spread < 1e-8 and elapsed < 120.0
    _report("criterion 4 (memory-reduction invariance)", ok,
            f"price spread over N=0..3 = {spread:.2e} < 1e-8, {elapsed:.0f}s < 120s")


# -- criterion 5: contraction and monotonicity suite ------------------------

def test_criterion_5_contraction_monotonicity():
    instances = [
        (BarrierProblem(regimes=(RegimeSpec(BM1, 0.0, 1.0),),
                        chain=MemoryChain.from_constant(1, 0, 0.0),
                        lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                        initial_history=HistoryIndex((1,))), (1.0, 4.0)),
        (BarrierProblem(regimes=(RegimeSpec(KOU_A, 0.02, 1.0),
                                 RegimeSpec(KOU_B, 0.05, 1.0)),
                        chain=MemoryChain(2, 1, np.array([[0.8], [1.6]])),
                        lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
                        initial_history=HistoryIndex((1, 2))), (2.0, 6.0)),
        (BarrierProblem(regimes=(RegimeSpec(KOBOL, 0.01, 1.0),),
                        chain=MemoryChain.from_constant(1, 0, 0.0),
                        lower=-0.5, upper=0.5, spot=0.0, maturity=0.5,
                        initial_history=HistoryIndex((1,))), (3.0, 8.0)),
    ]
    worst_under = 0.0
    worst_margin = -math.inf
    terms_ok = True
    for prob, qs in instances:
        pricer = build.pricer(prob, m_power=12)
        for q in qs:
            field = pricer.price_field(q)
            stats = field.stats
            worst_under = min(worst_under, stats.monotone_undershoot)
            bound = prob.chain.lambda0 / abs(q + prob.chain.lambda0
                                             + float(np.min(prob.rates)))
            if stats.contraction_ratios:
                worst_margin = max(worst_margin, stats.max_ratio - bound)
            terms = stats.outer_terms
            floor = 1e-13 * max(terms)
            usable = [t for t in terms if t > floor]
            terms_ok &= all(b < a for a, b in zip(usable[1:], usable[2:]))
    ok = worst_under > -1e-8 and worst_margin <= 0.02 and terms_ok
    _report("criterion 5 (contraction/monotonicity)", ok,
            f"undershoot {worst_under:.2e} > -1e-8, rate margin "
            f"{worst_margin:+.3f} <= +0.02, outer terms decreasing: {terms_ok}")


# -- criterion 6: Laplace inversion suite -----------------------------------

def test_criterion_6_inversion_suite(brownian_pipeline):
    start = time.perf_counter()
    q = gwr_nodes(1.0, 8)
    e1 = abs(gwr_invert(1.0 / (q + 1.0), 1.0, 8).value - math.exp(-1.0))
    q = gwr_nodes(2.0, 8)
    e2 = abs(gwr_invert(1.0 / q**2, 2.0, 8).value - 2.0)
    q = gwr_nodes(0.7, 8)
    e3 = abs(gwr_invert(1.0 / q, 0.7, 8).value - 1.0)
    s1 = abs(sinh_invert(lambda z: 1.0 / (z + 1.0), 1.0,
                         build.sinh(1.0, sinh_nodes=64)).value - math.exp(-1.0))
    s2 = abs(sinh_invert(lambda z: 1.0 / z**2, 2.0,
                         build.sinh(2.0, sinh_nodes=64)).value - 2.0)
    s3 = abs(sinh_invert(lambda z: 1.0 / z, 1.5,
                         build.sinh(1.5, sinh_nodes=64)).value - 1.0)

    # back-end agreement on a Brownian instance (GWR is the bottleneck)
    prob = brownian_pipeline["problem"]
    pricer = build.pricer(prob, m_power=12)
    gwr_price = price_histories(pricer, GWR)[0][0]
    sinh = InversionPlan(backend="sinh", sinh_nodes=24, sinh_target_tol=1e-7)
    sinh_price = price_histories(pricer, sinh)[0][0]
    agree = abs(gwr_price - sinh_price)
    elapsed = time.perf_counter() - start
    ok = (e1 < 1e-6 and e2 < 1e-7 and e3 < 1e-12 and
          max(s1, s2, s3) < 1e-10 and agree < 1e-4 and elapsed < 5.0)
    _report("criterion 6 (inversion suite)", ok,
            f"GWR errors {e1:.1e}/{e2:.1e}/{e3:.1e} (tol 1e-6/1e-7/exact), "
            f"sinh worst {max(s1, s2, s3):.1e} < 1e-10, back-end gap "
            f"{agree:.1e} < 1e-4, {elapsed:.1f}s < 5s")


# -- criterion 7: degenerate-chain equivalence ------------------------------

def test_criterion_7_degenerate_chain():
    regimes = (RegimeSpec(KOU_A, 0.02, 1.0), RegimeSpec(KOU_B, 0.05, 1.0))
    chain = MemoryChain.from_constant(2, 0, 0.0)
    prob = BarrierProblem(regimes=regimes, chain=chain, lower=-0.3, upper=0.3,
                          spot=0.0, maturity=0.5, initial_history=HistoryIndex((1,)))
    tight = dict(m_power=13, inner=1e-13, outer=1e-12)
    multi = gwr_prices(prob, **tight)
    worst = 0.0
    for i, spec in enumerate(regimes):
        solo = BarrierProblem(regimes=(spec,),
                              chain=MemoryChain.from_constant(1, 0, 0.0),
                              lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
                              initial_history=HistoryIndex((1,)))
        worst = max(worst, abs(multi[i] - gwr_prices(solo, **tight)[0]))
    ok = worst < 1e-9
    _report("criterion 7 (degenerate-chain equivalence)", ok,
            f"max price difference {worst:.2e} < 1e-9")


# -- criterion 8: determinism ------------------------------------------------

def test_criterion_8_determinism(brownian_pipeline, kou_memory_setup,
                                 reduction_prices):
    again = brownian_pipeline["run"]()
    crit2_ok = again == brownian_pipeline["price"]

    _, engine_price = kou_memory_setup
    a = engine_price(m_power=13)
    b = engine_price(m_power=13)
    cfg = McConfig(paths=50_000, dt=1e-3, seed=20260809, bridge=True)
    prob = kou_memory_setup[0]
    mc_a = simulate_price(prob, cfg)
    mc_b = simulate_price(prob, cfg)
    crit3_ok = (a == b) and (mc_a.estimate == mc_b.estimate)

    rerun = reduction_prices["run"]()
    crit4_ok = rerun == reduction_prices["prices"]

    ok = crit2_ok and crit3_ok and crit4_ok
    _report("criterion 8 (determinism)", ok,
            f"criterion-2 rerun identical: {crit2_ok}, criterion-3 "
            f"engine+MC identical: {crit3_ok}, criterion-4 rerun identical: {crit4_ok}")
