"""Tests of the exact Brownian chain oracle.

    python3 -m pytest bench/test_oracle.py

The grid-refinement test prices through rsbarrier and takes about 20 s on a
2-core machine.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rsbarrier.histories import MemoryChain  # noqa: E402
from rsbarrier.montecarlo import brownian_band_series  # noqa: E402

from oracle import brownian_chain_prices, expm_subgenerator  # noqa: E402


def _prices(chain, sigma2, rates_r, payoffs, lower, upper, x0, maturity):
    return brownian_chain_prices(sigma2, rates_r, payoffs, chain.codes_after_shift,
                                 chain.rates, chain.heads(), lower, upper, x0, maturity)


@pytest.mark.parametrize("sigma2, rate, lower, upper, x0, maturity", [
    (1.0, 0.0, -1.0, 1.0, 0.0, 1.0),
    (0.5, 0.03, -0.3, 0.7, 0.1, 0.4),
    (1.5, 0.0, -1.0, 1.0, 0.9, 2.0),
    (0.08, 0.05, -0.3, 0.3, -0.25, 0.05),
])
def test_single_regime_matches_band_series(sigma2, rate, lower, upper, x0, maturity):
    chain = MemoryChain.from_constant(1, 0, 0.0)
    value = _prices(chain, [sigma2], [rate], [1.0], lower, upper, x0, maturity)[0]
    series, _ = brownian_band_series(sigma2, 0.0, rate, lower, upper, x0, maturity,
                                     terms=4001)
    assert abs(value - series) <= 1e-12


def test_head_only_chain_is_depth_invariant():
    rules = [{"s": s, "history": [h0], "rate": 0.3 + 0.1 * s + 0.05 * h0}
             for s in (1, 2, 3) for h0 in (1, 2, 3) if s != h0]
    args = ([0.5, 1.0, 1.5], [0.0, 0.01, 0.02], [1.0, 0.9, 1.1], -1.0, 1.0, 0.2, 1.0)
    by_head = None
    for n_mem in range(4):
        chain = MemoryChain.from_rules(3, n_mem, 0.0, rules)
        values = _prices(chain, *args)
        heads = chain.heads()
        if by_head is None:
            by_head = values
        for h in (1, 2, 3):
            np.testing.assert_allclose(values[heads == h], by_head[h - 1],
                                       rtol=0, atol=1e-14)


def test_expm_matches_two_state_closed_form():
    a, b, t = 0.7, 1.9, 1.3
    gen = np.array([[-a, a], [b, -b]])
    lam = a + b
    expected = (np.array([[b, a], [b, a]])
                + math.exp(-lam * t) * np.array([[a, -a], [-b, b]])) / lam
    np.testing.assert_allclose(expm_subgenerator(gen, t), expected, rtol=1e-14, atol=1e-15)


def test_engine_sinh_error_falls_with_dx_squared():
    from rsbarrier import cli

    from workloads import memory_chain_doc, parse

    errors = []
    for m_power in (12, 13, 14):
        cfg = parse(memory_chain_doc(n_memory=0, m_power=m_power), threads=2)
        rows, _ = cli.run_price(cfg, all_histories=True)
        problem, chain = cfg.problem, cfg.problem.chain
        exact = _prices(chain, [r.model.sigma2 for r in problem.regimes], problem.rates,
                        problem.payoffs, problem.lower, problem.upper, problem.spot,
                        problem.maturity)
        errors.append(max(abs(r["price"] - e) for r, e in zip(rows, exact)))
    assert errors[0] < 5e-5
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 < coarse / fine < 5.5, errors
