"""Exact prices for zero-drift Brownian regime-switching chains with memory.

With zero drift every regime has the same sine eigenfunctions on the band
[lower, upper], so the knock-out value splits mode by mode:

    V_h(x0, T) = sum_k c_k sin(b_k (x0 - lower)) [exp(T A_k) G]_h,
    A_k = Gen - diag(sigma2_head b_k^2 / 2 + r_head),   b_k = k pi / L,

where Gen is the chain's generator over histories and c_k the sine
coefficient of the constant 1.  A_k is a sub-generator (non-negative off the
diagonal, row sums <= 0), so exp(T A_k) is computed by scaling and squaring
a shifted, entrywise non-negative Taylor series: no term cancels, and the
result is accurate to rounding.  Uses numpy only, nothing from rsbarrier.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["chain_generator", "expm_subgenerator", "brownian_chain_prices"]

# Scaling brings the shifted matrix's norm to at most 1/4, where the Taylor
# remainder after degree d is at most (1/4)^(d+1) / (d+1)! * e^(1/4); at
# d = 24 that is below 1e-40, far under rounding.
TAYLOR_DEGREE = 24
# Modes are summed until the largest possible remaining term, relative to a
# payoff of order 1, is below this: well under the rounding of a sum of 1.
MODE_TOL = 1e-18


def chain_generator(codes_after_shift: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Generator over histories: Gen[h, shift(h, s)] = rate, rows sum to 0."""
    size = rates.shape[0]
    gen = np.zeros((size, size))
    for j in range(rates.shape[1]):
        np.add.at(gen, (np.arange(size), codes_after_shift[:, j]), rates[:, j])
    gen[np.diag_indices(size)] -= rates.sum(axis=1)
    return gen


def expm_subgenerator(a: np.ndarray, t: float) -> np.ndarray:
    """exp(t a) for a matrix that is non-negative off its diagonal."""
    shift = float(np.max(-np.diag(a), initial=0.0))
    b = t * (a + shift * np.eye(a.shape[0]))  # entrywise >= 0
    norm = float(np.max(np.sum(b, axis=1), initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    b = b / 2.0 ** squarings
    term = np.eye(a.shape[0])
    out = term.copy()
    for n in range(1, TAYLOR_DEGREE + 1):
        term = term @ b / n
        out = out + term
    out = out * math.exp(-t * shift / 2.0 ** squarings)
    for _ in range(squarings):
        out = out @ out
    return out


def brownian_chain_prices(sigma2, rates_r, payoffs, codes_after_shift, rates,
                          heads, lower: float, upper: float, x0: float,
                          maturity: float) -> np.ndarray:
    """Exact value of every history at (x0, maturity).

    ``sigma2``, ``rates_r`` and ``payoffs`` are per regime (label s at index
    s - 1); ``codes_after_shift``, ``rates`` and ``heads`` describe the chain
    as rsbarrier's MemoryChain lays it out.  Modes are summed until the
    largest possible remaining term falls below ``MODE_TOL``.
    """
    sigma2 = np.asarray(sigma2, float)
    heads = np.asarray(heads, int)
    if not lower < x0 < upper:
        return np.zeros(len(heads))
    length = upper - lower
    gen = chain_generator(np.asarray(codes_after_shift), np.asarray(rates, float))
    s2_h = sigma2[heads - 1]
    r_h = np.asarray(rates_r, float)[heads - 1]
    g_h = np.asarray(payoffs, float)[heads - 1]
    g_max = float(np.max(np.abs(g_h), initial=0.0))
    total = np.zeros(len(heads))
    k = 0
    while True:
        k += 1
        b = k * math.pi / length
        coeff = 2.0 * (1.0 - (-1.0) ** k) / (k * math.pi)
        # every later mode decays at least this fast (min variance, min rate)
        bound = 4.0 / (k * math.pi) * g_max * math.exp(
            -(0.5 * float(np.min(sigma2)) * b * b + float(np.min(rates_r))) * maturity)
        if bound < MODE_TOL:
            return total
        if coeff == 0.0:
            continue
        a = gen - np.diag(0.5 * s2_h * b * b + r_h)
        total = total + coeff * math.sin(b * (x0 - lower)) * (
            expm_subgenerator(a, maturity) @ g_h)
