"""The four benchmark workloads: their inputs, operations and checks.

Pricing workloads run ``cli.run_price`` with ``all_histories=True``, the path
``rsbarrier price --all-histories`` takes; the Monte Carlo workload runs
``montecarlo.simulate_price``, the path of ``rsbarrier mc``.  Inputs come from
the shipped configs or are built here; only the Monte Carlo seed depends on
``--seed``, so the pricing workloads' per-layer counts repeat exactly and
their recorded references stay valid.

A round prices every history once at 1 thread and once at 2 threads (one
Monte Carlo block twice, for the Monte Carlo workload).  Each price of one
history, and each Monte Carlo estimate, is one operation.
"""

from __future__ import annotations

import copy
import json
import math
import os
import statistics
import time

import numpy as np

from rsbarrier import cli, montecarlo
from rsbarrier.config import parse_config

from oracle import brownian_chain_prices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 1M-path Monte Carlo references for configs/kou_memory.json at dt = 1e-4
# with the bridge on, per history code: (estimate, stderr).  The README
# gives the commands that make them anew.
KOU_MC_REFERENCE = {
    0: (0.8338570493863753, 0.0003585826111722082),  # history (1, 2)
    1: (0.5898003413449437, 0.0004791951187017949),  # history (2, 1)
}
# sinh back end, same config: `rsbarrier price --backend sinh --all-histories`
KOU_SINH_REFERENCE = {0: 0.8333859886484455, 1: 0.5901668982607947}
# configs/kobol_single.json priced by the sinh back end at mPower 15
KOBOL_FINE_REFERENCE = 0.2404528555024453

KOU_Z_BOUND = 4.0          # engine vs 1M-path reference, in reference stderrs
MC_Z_BOUND = 5.0           # pooled estimate vs the engine, in pooled stderrs
MC_BLOCK_PATHS = 2000
KOBOL_GAP_BOUND = 5e-5     # |sinh - gwr|; 1.0e-5 on the seed code
RESIDUAL_BOUND = 1e-6      # Wiener-Hopf product identity on built contours
# sinh error against the exact oracle is C * dx^2 (measured C ~ 0.3 at
# M = 2^12..2^14); the check allows four times that
GRID_ERROR_FACTOR = 1.2

MEMORY_SIGMA2 = (0.5, 1.0, 1.5)
MEMORY_WEIGHTS = (0.05, 0.03, 0.02, 0.01)  # on h0, h-1, h-2, h-3


def memory_rate(s: int, labels) -> float:
    """Depth-3 switching rule: every entry of the history moves the rate."""
    return 0.3 + 0.1 * s + sum(w * h for w, h in zip(MEMORY_WEIGHTS, labels))


def memory_chain_doc(n_memory: int = 3, m_power: int = 12) -> dict:
    """Three zero-drift Brownian regimes whose switching rates depend on the
    whole history, so no two histories lump together."""
    from itertools import product

    rules = []
    for labels in product((1, 2, 3), repeat=n_memory + 1):
        if any(a == b for a, b in zip(labels, labels[1:])):
            continue
        for s in (1, 2, 3):
            if s != labels[0]:
                rules.append({"s": s, "history": list(labels),
                              "rate": memory_rate(s, labels)})
    init = [1 + (i % 2) for i in range(n_memory + 1)]
    return {
        "regimes": [{"model": {"type": "BrownianDrift", "mu": 0.0, "sigma2": s2},
                     "r": 0.0, "G": 1.0} for s2 in MEMORY_SIGMA2],
        "chain": {"m": 3, "N": n_memory, "rates": {"default": 0.0, "rules": rules}},
        "barriers": {"lower": -1.0, "upper": 1.0},
        "x0": 0.2,
        "maturity": 1.0,
        "initialHistory": init,
        "inversion": {"backend": "sinh"},
        "grid": {"mPower": m_power},
    }


def _shipped(name: str) -> dict:
    with open(os.path.join(ROOT, "configs", name)) as fh:
        return json.load(fh)


def parse(doc: dict, threads: int):
    return parse_config(dict(copy.deepcopy(doc), threads=threads))


class PricingWorkload:
    """Prices every history through ``cli.run_price``."""

    kind = "price"

    def __init__(self, doc: dict):
        self.doc = doc
        self.worst_residual = 0.0

    def reference_setup(self) -> None:
        """Work done once per run, outside every timed region."""

    def operations(self) -> int:
        return parse(self.doc, 1).problem.chain.size

    def run(self, threads: int, round_index: int):
        """One price of every history: (seconds, prices).  The pricer that
        run_price builds is handed to ``inspect_pricer`` after the clock
        stops."""
        cfg = parse(self.doc, threads)
        built = []
        make = cli._make_pricer

        def capturing(c):
            built.append(make(c))
            return built[-1]

        cli._make_pricer = capturing
        try:
            start = time.perf_counter()
            rows, _ = cli.run_price(cfg, all_histories=True)
            elapsed = time.perf_counter() - start
        finally:
            cli._make_pricer = make
        for pricer in built:
            self.inspect_pricer(pricer)
        return elapsed, np.array([r["price"] for r in rows])

    def inspect_pricer(self, pricer) -> None:
        """Wiener-Hopf product identity on every contour the pricer built."""
        for factors in pricer._factor_cache.values():
            for fac in factors:
                for cs in list(fac._contours.values()):
                    self.worst_residual = max(self.worst_residual,
                                              fac.product_residual(cs.omega))

    def check(self, outputs) -> tuple[bool, float, list[str]]:
        """(correct, price_abs_err, messages) over every round's prices.

        Prices must be bit-identical at 1 and 2 threads and the product
        identity must hold; ``compare`` holds each workload's own reference.
        With no price to check, the run is not correct and the error is NaN."""
        msgs, err, checked = [], 0.0, 0
        for rnd in outputs:
            if rnd[1] is not None and rnd[2] is not None \
                    and not np.array_equal(rnd[1], rnd[2]):
                msgs.append(f"prices differ between 1 and 2 threads: {rnd[1]} {rnd[2]}")
            for prices in (rnd[1], rnd[2]):
                if prices is not None:
                    worst, more = self.compare(prices)
                    err = max(err, worst)
                    msgs.extend(more)
                    checked += 1
        if not checked:
            msgs.append("no price to check: every operation failed")
            err = float("nan")
        if not self.worst_residual <= RESIDUAL_BOUND:
            msgs.append(f"product residual {self.worst_residual:.2e} > {RESIDUAL_BOUND}")
        return not msgs, float(err), msgs

    def compare(self, prices) -> tuple[float, list[str]]:
        raise NotImplementedError


class KouMemoryGwr(PricingWorkload):
    """Checked against 1M-path Monte Carlo; the error figure is the distance
    to the sinh back end's price."""

    def __init__(self):
        super().__init__(_shipped("kou_memory.json"))

    def compare(self, prices):
        msgs = []
        for code, p in enumerate(prices):
            est, se = KOU_MC_REFERENCE[code]
            z = abs(p - est) / se
            if not z < KOU_Z_BOUND:
                msgs.append(f"history {code}: {p!r} vs MC {est} +- {se} (z = {z:.2f})")
        worst = max(abs(p - KOU_SINH_REFERENCE[c]) for c, p in enumerate(prices))
        return worst, msgs


class MemoryDepthSinh(PricingWorkload):
    """Checked history by history against the exact oracle."""

    def __init__(self):
        super().__init__(memory_chain_doc())
        self.exact = None
        self.tolerance = None

    def reference_setup(self):
        cfg = parse(self.doc, 1)
        chain, problem = cfg.problem.chain, cfg.problem
        # confirm the parsed chain is the one the rule describes before the
        # oracle builds its generator from it
        for i, h in enumerate(chain.histories):
            targets = [s for s in (1, 2, 3) if s != h.head]
            for j, s in enumerate(targets):
                shifted = chain.histories[chain.codes_after_shift[i, j]].labels
                if shifted != (s,) + h.labels[:-1]:
                    raise RuntimeError(f"shift map of {h.labels} to {s} is {shifted}")
                if chain.rates[i, j] != memory_rate(s, h.labels):
                    raise RuntimeError(f"rate of {h.labels} to {s} differs from the rule")
        self.exact = brownian_chain_prices(
            [r.model.sigma2 for r in problem.regimes], problem.rates,
            problem.payoffs, chain.codes_after_shift, chain.rates,
            chain.heads(), problem.lower, problem.upper, problem.spot,
            problem.maturity)
        dx = cli._make_pricer(cfg).grid.dx
        self.tolerance = GRID_ERROR_FACTOR * dx * dx

    def compare(self, prices):
        worst = float(np.max(np.abs(prices - self.exact)))
        if worst <= self.tolerance:
            return worst, []
        return worst, [f"|engine - exact| = {worst:.3e} > {self.tolerance:.3e}"]


class KobolSinh(PricingWorkload):
    """Checked against the GWR back end and 0 < price <= exp(-rT).  The error
    figure is the distance to the same back end on a 4x finer grid."""

    def __init__(self):
        doc = _shipped("kobol_single.json")
        doc["inversion"]["backend"] = "sinh"
        super().__init__(doc)
        self.gwr_price = None

    def compare(self, prices):
        if self.gwr_price is None:
            gwr_doc = copy.deepcopy(self.doc)
            gwr_doc["inversion"]["backend"] = "gwr"
            rows, _ = cli.run_price(parse(gwr_doc, 2), all_histories=True)
            self.gwr_price = rows[0]["price"]
        problem = parse(self.doc, 1).problem
        cap = math.exp(-problem.regimes[0].rate * problem.maturity)
        p = float(prices[0])
        gap = abs(p - self.gwr_price)
        msgs = []
        if not gap < KOBOL_GAP_BOUND:
            msgs.append(f"|sinh - gwr| = {gap:.3e} >= {KOBOL_GAP_BOUND}")
        if not 0.0 < p <= cap:
            msgs.append(f"price {p!r} outside (0, exp(-rT)] = (0, {cap}]")
        return abs(p - KOBOL_FINE_REFERENCE), msgs


class McKouMemory:
    """Monte Carlo estimates of history (1, 2) of configs/kou_memory.json,
    one block of MC_BLOCK_PATHS paths per round."""

    kind = "mc"

    def __init__(self, seed: int):
        self.doc = _shipped("kou_memory.json")
        self.doc["mc"]["paths"] = MC_BLOCK_PATHS
        self.seed = seed

    def reference_setup(self):
        pass

    def operations(self) -> int:
        return 1

    def run(self, threads: int, round_index: int):
        """One block; each round's block has its own Philox key, the same at
        either thread count."""
        doc = dict(self.doc, seed=((self.seed & 0xFFFFFFFF) << 20) | round_index)
        cfg = parse(doc, threads)
        start = time.perf_counter()
        res = montecarlo.simulate_price(cfg.problem, cfg.mc)
        return time.perf_counter() - start, res

    def check(self, outputs):
        """Pooled estimate against the engine's sinh price; each block must
        repeat bit for bit at either thread count.  The error figure is the
        median block stderr; with no block to check, the run is not correct
        and the error is NaN."""
        msgs = []
        for rnd in outputs:
            a, b = rnd[1], rnd[2]
            if a is not None and b is not None and \
                    (a.estimate, a.stderr) != (b.estimate, b.stderr):
                msgs.append(f"seed {a.seed}: {a.estimate!r} at 1 thread, "
                            f"{b.estimate!r} at 2 threads")
        blocks = [rnd[1] for rnd in outputs if rnd[1] is not None]
        for r in blocks:
            if not r.stderr > 0.0:
                msgs.append(f"seed {r.seed}: stderr {r.stderr}")
        if not blocks:
            msgs.append("no estimate to check: every operation failed")
            return False, float("nan"), msgs
        ref = KOU_SINH_REFERENCE[0]
        mean = statistics.fmean(r.estimate for r in blocks)
        pooled = math.sqrt(sum(r.stderr ** 2 for r in blocks)) / len(blocks)
        z = abs(mean - ref) / pooled if pooled > 0.0 else math.inf
        if not z < MC_Z_BOUND:
            msgs.append(f"pooled {mean:.6f} +- {pooled:.6f} vs engine {ref} (z = {z:.2f})")
        return not msgs, float(statistics.median(r.stderr for r in blocks)), msgs


def make(name: str, seed: int):
    if name == "kou_memory_gwr":
        return KouMemoryGwr()
    if name == "memory_depth_sinh":
        return MemoryDepthSinh()
    if name == "kobol_sinh":
        return KobolSinh()
    if name == "mc_kou_memory":
        return McKouMemory(seed)
    raise KeyError(name)


NAMES = ("kou_memory_gwr", "memory_depth_sinh", "kobol_sinh", "mc_kou_memory")
