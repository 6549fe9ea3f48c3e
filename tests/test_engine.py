import math
import tracemalloc

import numpy as np
import pytest

from rsbarrier.engine import (
    MAX_WORKING_BYTES,
    SWEEP_LIVE_ARRAYS,
    BarrierProblem,
    QPricer,
    RegimeSpec,
    check_working_set,
    interpolate_field,
    solve_v0,
    working_set_bytes,
)
from rsbarrier.errors import ResourceLimitError, SpectralParameterError
from rsbarrier.histories import HistoryIndex, MemoryChain, enumerate_histories
from rsbarrier.inversion import gwr_nodes
from rsbarrier.models import BrownianDrift, KouJumpDiffusion

import builders as build

BM = BrownianDrift(mu=0.0, sigma2=1.0)
KOU1 = KouJumpDiffusion(mu=0.03, sigma2=0.02, lambda_j=2.0, p=0.4,
                        alpha_plus=15.0, alpha_minus=10.0)
KOU2 = KouJumpDiffusion(mu=-0.02, sigma2=0.08, lambda_j=5.0, p=0.6,
                        alpha_plus=12.0, alpha_minus=8.0)


def single_brownian(m_power=13):
    chain = MemoryChain.from_constant(1, 0, 0.0)
    prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 1.0),), chain=chain,
                          lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                          initial_history=HistoryIndex((1,)))
    return build.pricer(prob, m_power=m_power)


def at_spot(pricer, q):
    """The transform of every history at the problem's spot."""
    return pricer.price_field(q).at(pricer.problem.spot)


def cosh_transform(q, x, rate=0.0, half=1.0, sigma2=1.0):
    qt = q + rate
    k = math.sqrt(2.0 * qt / sigma2)
    return (1.0 / qt) * (1.0 - math.cosh(k * x) / math.cosh(k * half))


# -- solve_v0 ------------------------------------------------------------

def test_v0_single_regime():
    chain = MemoryChain.from_constant(1, 0, 0.0)
    out = solve_v0(chain, np.array([0.5]), np.array([1.0]), 0.5)
    assert out[0] == pytest.approx(1.0)


def test_v0_symmetric_two_state():
    chain = MemoryChain(2, 0, np.array([[1.0], [1.0]]))
    out = solve_v0(chain, np.zeros(2), np.ones(2), 1.0)
    assert np.allclose(out, 1.0)


def test_v0_asymmetric_hand_solve():
    chain = MemoryChain(2, 0, np.array([[1.0], [2.0]]))
    out = solve_v0(chain, np.zeros(2), np.array([1.0, 0.0]), 1.0)
    assert out[0] == pytest.approx(0.75)
    assert out[1] == pytest.approx(0.5)


def test_v0_jacobi_matches_direct():
    chain = MemoryChain.from_constant(3, 2, 0.4)  # 12 histories
    r = np.array([0.01, 0.02, 0.03])
    g = np.array([1.0, 0.5, 2.0])
    heads = chain.heads()
    # dense Q_h - lam system, solved by LU as the reference
    coupling = np.zeros((chain.size, chain.size))
    for j in range(chain.m - 1):
        np.add.at(coupling, (np.arange(chain.size), chain.codes_after_shift[:, j]),
                  chain.rates[:, j])
    for q in (1.3, 3 + 4j):
        mat = np.diag(q + chain.lam_total + r[heads - 1]) - coupling
        direct = np.linalg.solve(mat, g[heads - 1].astype(np.complex128))
        np.testing.assert_allclose(solve_v0(chain, r, g, q), direct,
                                   rtol=1e-13, atol=0.0)


def test_v0_head_only_chain_bit_identical_across_depth():
    # criterion 4's chain: the rates depend on the head only, so every
    # history is a lumpable copy of its N = 0 head and must get its bits
    rates, payoffs = np.zeros(3), np.ones(3)
    rules = [{"s": s, "history": [h0], "rate": 0.3 + 0.1 * s + 0.05 * h0}
             for s in (1, 2, 3) for h0 in (1, 2, 3) if s != h0]
    base = MemoryChain.from_rules(3, 0, 0.0, rules)
    deeper = [MemoryChain.from_rules(3, n_mem, 0.0, rules) for n_mem in (1, 2, 3)]
    for q in gwr_nodes(1.0, 8):
        ref = solve_v0(base, rates, payoffs, q)
        np.testing.assert_allclose(ref, 1.0 / q, rtol=1e-14, atol=0.0)
        for chain in deeper:
            got = solve_v0(chain, rates, payoffs, q)
            assert np.all(got == ref[chain.heads() - 1])


def test_v0_rejects_bad_q():
    chain = MemoryChain.from_constant(2, 0, 1.0)
    with pytest.raises(SpectralParameterError):
        solve_v0(chain, np.zeros(2), np.ones(2), -1.0)  # |q + Lambda| = 0


@pytest.mark.parametrize("m, labels", [(2, (1, 2, 1)), (2, (2,)), (3, (1, 2, 3))],
                         ids=["m2_long", "m2_short", "m3_long"])
def test_problem_refuses_a_history_of_the_wrong_length(m, labels):
    # on N = 1 a history lists 2 states; one of 1 or 3 would encode silently
    # on m = 2 and index past the chain on m = 3
    chain = MemoryChain.from_constant(m, 1, 0.5)
    with pytest.raises(ValueError, match="N\\+1=2"):
        BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 1.0),) * m, chain=chain,
                       lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                       initial_history=HistoryIndex(labels))


# -- single-regime transform oracle --------------------------------------

def test_brownian_transform_matches_cosh_oracle():
    pricer = single_brownian(m_power=14)
    for q in (0.7, 1.5, 4.0, 11.0):
        got = at_spot(pricer, q)[0].real
        assert got == pytest.approx(cosh_transform(q, 0.0), abs=2e-6)


def test_brownian_transform_profile():
    pricer = single_brownian(m_power=14)
    field = pricer.price_field(2.0)
    for x0 in (-0.7, -0.25, 0.4, 0.85):
        got = field.at(x0)[0].real
        assert got == pytest.approx(cosh_transform(2.0, x0), abs=2e-6)


def test_boundary_term_single_sweep_closed_form():
    # no coupling: the first outer term is the one-barrier first-touch value
    pricer = single_brownian(m_power=14)
    q = 2.0
    field = pricer.price_field(q)
    assert field.stats.max_inner_sweeps <= 2
    beta = math.sqrt(2.0 * q)
    # the ell=1 plus term at x0: v0 * exp(-beta*(h+ - x0))
    # reconstructed from the assembled series indirectly via the oracle
    assert field.at(0.0)[0].real == pytest.approx(cosh_transform(q, 0.0), abs=2e-6)


def test_first_sweep_transforms_nothing(monkeypatch):
    # sweep 1 is the boundary term, and a rational head's first touch takes
    # no transform; each later sweep makes one application of E = phi+ phi-
    # per head group, on that group's rows with that head's plan, and a chain
    # with lambda0 = 0 has none
    from rsbarrier import epv

    calls, per_iteration = [], []
    apply_multiplier, inner_iteration = epv.apply_multiplier, QPricer._inner_iteration

    def counted_apply(u, plan, *args, **kwargs):
        calls.append((plan, u.values))
        return apply_multiplier(u, plan, *args, **kwargs)

    def counted_iteration(self, side, boundary_data, q, stats, *args):
        before = len(calls)
        out = inner_iteration(self, side, boundary_data, q, stats, *args)
        per_iteration.append((len(calls) - before, stats.inner_sweeps[-1]))
        return out

    monkeypatch.setattr(epv, "apply_multiplier", counted_apply)
    monkeypatch.setattr(QPricer, "_inner_iteration", counted_iteration)
    field = single_brownian(m_power=12).price_field(1.0)
    assert calls == [] and field.stats.inner_sweeps == [1] * len(per_iteration)

    per_iteration.clear()
    pricer = kou_chain_pricer()
    groups = len(pricer.problem.chain.head_rows)
    pricer.price_field(2.0)
    assert groups == 2
    assert per_iteration and all(n == groups * (sweeps - 1) for n, sweeps in per_iteration)
    assert max(sweeps for _, sweeps in per_iteration) > 1
    # the rows are views of the sweep's workspace; their offset in it names
    # the rows, and the plan's model names the head
    regimes = pricer.problem.regimes
    rows_of = dict(enumerate(pricer.problem.chain.head_rows, 1))
    for plan, values in calls:
        assert plan.product
        s = next(s for s, spec in enumerate(regimes, 1) if plan.model is spec.model)
        start = (values.ctypes.data - values.base.ctypes.data) // values.strides[0]
        assert rows_of[s] == slice(start, start + len(values))


def kou_chain_pricer(**tolerances):
    # two Kou regimes with one step of memory; lambda0 > 0, so sweeps couple
    chain = MemoryChain(2, 1, np.array([[0.8], [1.6]]))
    prob = BarrierProblem(
        regimes=(RegimeSpec(KOU1, 0.02, 1.0), RegimeSpec(KOU2, 0.05, 1.0)),
        chain=chain, lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
        initial_history=HistoryIndex((1, 2)))
    return build.pricer(prob, m_power=12, **tolerances)


def test_kou_chain_transform_bits_are_pinned():
    # the transform vectors of the coupled Kou chain, bit for bit, at a real q
    # (real plans, real FFTs) and a complex q (complex FFTs); a change to the
    # order of the sweeps' floating-point operations shows here
    pricer = kou_chain_pricer()
    pinned = {
        2.0: ["(0.4113140611831739+0j)", "(0.3369581265462236+0j)"],
        3.0 + 2.0j: ["(0.22664948189290476-0.1291720277536771j)",
                     "(0.20470139291743886-0.10007593701290257j)"],
    }
    for q, reprs in pinned.items():
        assert [repr(complex(v)) for v in at_spot(pricer, q)] == reprs


@pytest.mark.parametrize("q", [2.0, 3.0 + 2.0j], ids=["real", "complex"])
def test_default_tolerance_meets_the_fixed_point(q):
    # the sweeps stop at the inner tolerance, 1e-10 of the scale; solved to 1e-14,
    # the coupled Kou chain's transform moves by less than 1e-10
    default = at_spot(kou_chain_pricer(), q)
    tight = kou_chain_pricer(inner=1e-14)
    assert np.max(np.abs(default - at_spot(tight, q))) <= 1e-10


def test_samples_are_real_at_a_real_q():
    # the sweeps carry float64 samples at a real q, given as a complex number
    # or not, and complex ones otherwise
    pricer = kou_chain_pricer()
    for q, dtype in ((2.0, np.float64), (2.0 + 0j, np.float64), (3.0 + 2.0j, np.complex128)):
        field = pricer.price_field(q)
        assert field.functions.values.dtype == dtype


def test_zero_payoff_gives_zero():
    chain = MemoryChain.from_constant(1, 0, 0.0)
    prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 0.0),), chain=chain,
                          lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                          initial_history=HistoryIndex((1,)))
    field = build.pricer(prob, m_power=12).price_field(1.0)
    assert np.allclose(solve_v0(chain, prob.rates, prob.payoffs, 1.0), 0.0)
    assert field.functions.sup_norm() == pytest.approx(0.0, abs=1e-14)


def test_far_barriers_reduce_to_v0():
    chain = MemoryChain.from_constant(1, 0, 0.0)
    prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 1.0),), chain=chain,
                          lower=-10.0, upper=10.0, spot=0.0, maturity=1.0,
                          initial_history=HistoryIndex((1,)))
    pricer = build.pricer(prob, m_power=13)
    field = pricer.price_field(1.0)
    # the correction is barrier-local; already negligible at the spot by ell=2
    assert field.stats.outer_terms[1] < 1e-5
    assert field.at(0.0)[0].real == pytest.approx(1.0, abs=1e-5)  # v0 = G/q = 1


def test_price_outside_band_is_zero():
    pricer = single_brownian(m_power=12)
    field = pricer.price_field(1.0)
    assert np.all(field.at(-1.0) == 0.0)
    assert np.all(field.at(1.3) == 0.0)
    assert np.all(field.at(pricer.grid.lower) == 0.0)


def test_reflection_symmetry():
    # driftless symmetric setup: transform is even in x0
    pricer = single_brownian(m_power=13)
    field = pricer.price_field(1.5)
    for x0 in (0.3, 0.6):
        a = field.at(x0)[0].real
        b = field.at(-x0)[0].real
        assert a == pytest.approx(b, abs=1e-9)


# -- multi-regime ---------------------------------------------------------

@pytest.fixture(scope="module")
def kou_memory_field():
    chain = MemoryChain(2, 1, np.array([[0.8], [1.6]]))
    prob = BarrierProblem(
        regimes=(RegimeSpec(KOU1, 0.02, 1.0), RegimeSpec(KOU2, 0.05, 1.0)),
        chain=chain, lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
        initial_history=HistoryIndex((1, 2)))
    pricer = build.pricer(prob, m_power=13)
    q = 2.0 * math.log(2.0) / 0.5
    return chain, prob, pricer.price_field(q), q


def test_contraction_rate_vs_bound(kou_memory_field):
    chain, prob, field, q = kou_memory_field
    bound = chain.lambda0 / abs(q + chain.lambda0 + float(np.min(prob.rates)))
    assert field.stats.max_ratio <= bound + 0.01


def test_contraction_rate_vs_per_head_bound(kou_memory_field):
    # head s is factorized at Q_s = q + lambda_s + r_s, so the sweeps contract
    # at least as fast as max_s lambda_s / |Q_s|; here that bound is 0.362
    # and the measured rate 0.119, so the bound holds with no margin added
    chain, prob, field, q = kou_memory_field
    bound = max(lam / abs(q + lam + spec.rate)
                for lam, spec in zip(chain.lambda_heads, prob.regimes))
    assert field.stats.max_ratio <= bound


def test_contraction_failure_quotes_the_per_head_bound(monkeypatch):
    # sweeps made to expand (each sweep step taken 4 times over) stop with
    # the per-head bound in the message: 0.438 on the coupled Kou chain at
    # q = 2, where lambda0 / (q + lambda0 + min r) would read 0.442
    from rsbarrier import engine
    from rsbarrier.errors import ContractionFailureError
    from rsbarrier.grids import SampledFunction

    step = engine.sweep_step

    def amplified(plan, u, **kwargs):
        got = step(plan, u, **kwargs)
        got.values *= 4.0
        return SampledFunction(got.grid, got.values, got.c_lo * 4.0, got.c_hi * 4.0)

    monkeypatch.setattr(engine, "sweep_step", amplified)
    pricer = kou_chain_pricer()
    q = 2.0
    bound = max(lam / (q + lam + spec.rate)
                for lam, spec in zip(pricer.problem.chain.lambda_heads,
                                     pricer.problem.regimes))
    with pytest.raises(ContractionFailureError, match=f"bound {bound:.3f}\\)"):
        pricer.price_field(q)


def whole_history_chain(n_memory):
    """Three regimes whose switching rates read every entry of the history,
    so no two histories lump and the heads' constants differ."""
    weights = (0.05, 0.03, 0.02)
    rules = [{"s": s, "history": list(h.labels),
              "rate": 0.3 + 0.1 * s + sum(w * v for w, v in zip(weights, h.labels))}
             for h in enumerate_histories(3, n_memory) for s in (1, 2, 3) if s != h.head]
    return MemoryChain.from_rules(3, n_memory, 0.0, rules)


@pytest.mark.parametrize("n_memory", [0, 1, 2])
def test_memory_adds_no_factorization(monkeypatch, n_memory):
    # the paper's block count: m factorizations per spectral value whatever
    # the depth N, one per head s at Q_s = q + lambda_s + r_s
    from rsbarrier import engine

    calls, factorize = [], engine.factorize

    def counted_factorize(model, big_q, grid):
        calls.append((model, big_q))
        return factorize(model, big_q, grid)

    monkeypatch.setattr(engine, "factorize", counted_factorize)
    chain = whole_history_chain(n_memory)
    regimes = tuple(RegimeSpec(BrownianDrift(mu=0.0, sigma2=s2), r, 1.0)
                    for s2, r in ((0.5, 0.01), (1.0, 0.02), (1.5, 0.03)))
    prob = BarrierProblem(regimes=regimes, chain=chain, lower=-1.0, upper=1.0,
                          spot=0.2, maturity=1.0, initial_history=chain.histories[0])
    heads = chain.heads()
    lams = [chain.lam_total[heads == s].max() for s in (1, 2, 3)]
    # every head's Lambda is 1.2 at N = 0; deeper, the heads' constants part
    assert chain.lambda_heads == tuple(lams)
    assert (min(lams) < chain.lambda0) == (n_memory > 0)
    pricer = build.pricer(prob, m_power=10)
    for q in (1.5, 2.0 + 3.0j):
        calls.clear()
        pricer.price_field(q)
        assert calls == [(spec.model, q + lam + spec.rate)
                         for lam, spec in zip(lams, regimes)]


def test_head_constants_leave_the_limit_unchanged(monkeypatch):
    # the fixed point (q + Lambda_h + r - L) v = coupling does not read
    # lambda_s, but each head's discrete operators do: taking every head back
    # to lambda0 moves kou_memory's transform by the grid's error, not by the
    # sweeps' tolerances (1e-10 and 1e-8 of max|G|/|q|).  At the spot the gap
    # reads 2.0e-8 / 1.3e-8 (real / complex q) at M = 2^12, 7.2e-9 / 4.6e-9
    # at 2^13 and 2.1e-9 / 1.4e-9 at 2^14, the same at tolerances of 1e-13
    # and 1e-12: it falls 2.7x and then 3.4x per doubling of M, towards one
    # limit.  Checked: at most 2e-8 at 2^13, and at least 3x smaller at 2^14
    def spot_values(m_power, q, constants):
        chain = MemoryChain(2, 1, np.array([[0.8], [1.6]]))
        if constants == "lambda0":
            monkeypatch.setattr(chain, "lambda_heads", (chain.lambda0,) * chain.m)
            monkeypatch.setattr(chain, "slack", chain.lambda0 - chain.lam_total)
        prob = BarrierProblem(
            regimes=(RegimeSpec(KOU1, 0.02, 1.0), RegimeSpec(KOU2, 0.05, 1.0)),
            chain=chain, lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
            initial_history=HistoryIndex((1, 2)))
        return at_spot(build.pricer(prob, m_power=m_power), q)

    for q in (2.0 * math.log(2.0) / 0.5, 3.0 + 2.0j):
        gaps = [np.max(np.abs(spot_values(m_power, q, "heads")
                              - spot_values(m_power, q, "lambda0")))
                for m_power in (13, 14)]
        assert gaps[0] <= 2e-8 and gaps[0] >= 3.0 * gaps[1]


def test_monotone_inner_iterates(kou_memory_field):
    _, _, field, _ = kou_memory_field
    assert field.stats.monotone_undershoot > -1e-8


def test_outer_terms_strictly_decreasing(kou_memory_field):
    _, _, field, _ = kou_memory_field
    terms = field.stats.outer_terms
    assert all(b < a for a, b in zip(terms[1:], terms[2:]))


def test_memory_collapse_invariance():
    # rates depending only on (target, head): price cannot depend on N
    regimes = tuple(RegimeSpec(BrownianDrift(mu=0.0, sigma2=s2), 0.0, 1.0)
                    for s2 in (0.5, 1.0, 1.5))
    rules = [{"s": s, "history": [h0], "rate": 0.3 + 0.1 * s + 0.05 * h0}
             for s in (1, 2, 3) for h0 in (1, 2, 3) if s != h0]
    values = {}
    for n_mem in (0, 2):
        chain = MemoryChain.from_rules(3, n_mem, 0.0, rules)
        init = next(h for h in enumerate_histories(3, n_mem) if h.head == 1)
        prob = BarrierProblem(regimes=regimes, chain=chain, lower=-1.0, upper=1.0,
                              spot=0.2, maturity=1.0, initial_history=init)
        v = build.pricer(prob, m_power=12).price_field(1.5).at(0.2)
        heads = chain.heads()
        assert max(np.ptp(v[heads == s].real) for s in (1, 2, 3)) < 1e-10
        values[n_mem] = np.array([v[heads == s][0].real for s in (1, 2, 3)])
    assert np.max(np.abs(values[0] - values[2])) < 1e-8


@pytest.mark.parametrize("q", [2.0, 3.0 + 2.0j], ids=["real", "complex"])
def test_sweeps_keep_lumpable_copies_bit_identical(q):
    # criterion 4's chain: the rates read the head only, so at every depth
    # each history is a lumpable copy of its head at N = 0, and the sweeps,
    # which update a head group's rows together, must give it those bits
    regimes = tuple(RegimeSpec(BrownianDrift(mu=0.0, sigma2=s2), 0.0, 1.0)
                    for s2 in (0.5, 1.0, 1.5))
    rules = [{"s": s, "history": [h0], "rate": 0.3 + 0.1 * s + 0.05 * h0}
             for s in (1, 2, 3) for h0 in (1, 2, 3) if s != h0]
    base = None
    for n_mem in (0, 1, 2, 3):
        chain = MemoryChain.from_rules(3, n_mem, 0.0, rules)
        init = next(h for h in enumerate_histories(3, n_mem) if h.head == 1)
        prob = BarrierProblem(regimes=regimes, chain=chain, lower=-1.0, upper=1.0,
                              spot=0.2, maturity=1.0, initial_history=init)
        field = build.pricer(prob, m_power=10).price_field(q)
        full, at = field.functions.full(), field.at(0.2)
        if base is None:
            base = full, at
            assert max(field.stats.inner_sweeps) > 1
        heads = chain.heads() - 1
        assert np.all(full == base[0][heads]) and np.all(at == base[1][heads])


def test_degenerate_chain_matches_single_regime_runs():
    regimes = (RegimeSpec(KOU1, 0.02, 1.0), RegimeSpec(KOU2, 0.05, 1.0))
    chain = MemoryChain.from_constant(2, 0, 0.0)
    prob = BarrierProblem(regimes=regimes, chain=chain, lower=-0.3, upper=0.3,
                          spot=0.0, maturity=0.5, initial_history=HistoryIndex((1,)))
    multi = build.pricer(prob, m_power=12).price_field(3.0).at(0.0)
    for i, spec in enumerate(regimes):
        solo_prob = BarrierProblem(regimes=(spec,), chain=MemoryChain.from_constant(1, 0, 0.0),
                                   lower=-0.3, upper=0.3, spot=0.0, maturity=0.5,
                                   initial_history=HistoryIndex((1,)))
        solo = build.pricer(solo_prob, m_power=12).price_field(3.0).at(0.0)[0]
        assert abs(multi[i] - solo) < 1e-9


def test_band_nesting_monotone():
    # enlarging the band never decreases the knock-out transform
    values = []
    for half in (0.5, 1.0, 2.0):
        chain = MemoryChain.from_constant(1, 0, 0.0)
        prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 1.0),), chain=chain,
                              lower=-half, upper=half, spot=0.0, maturity=1.0,
                              initial_history=HistoryIndex((1,)))
        values.append(build.pricer(prob, m_power=12).price_field(1.0).at(0.0)[0].real)
    assert values[0] < values[1] < values[2]


def test_interpolation_near_barrier_one_sided():
    # one-sided stencil: accuracy there is ring-limited, but finite and sane
    pricer = single_brownian(m_power=13)
    field = pricer.price_field(1.0)
    x0 = pricer.grid.upper - 1.2 * pricer.grid.dx  # within 2 cells of h+
    got = field.at(x0)[0].real
    assert got == pytest.approx(cosh_transform(1.0, x0), abs=2e-4)
    # interpolation at an exact interior node reproduces the node value
    j = pricer.grid.ref_index + 5
    xnode = pricer.grid.x_min + j * pricer.grid.dx
    assert field.at(xnode)[0] == pytest.approx(field.functions.full()[0, j], abs=1e-12)


def test_determinism_bit_identical():
    a = at_spot(single_brownian(m_power=12), 1.7)[0]
    b = at_spot(single_brownian(m_power=12), 1.7)[0]
    assert a == b


# -- size guard ----------------------------------------------------------

def test_working_set_guard_decides_from_the_estimate():
    # only the estimate is exercised: no case here builds an array of the grid
    for dtype in (np.float64, np.complex128):
        assert working_set_bytes(3, 2**12, dtype) == \
            3 * 2**12 * 16 * SWEEP_LIVE_ARRAYS[np.dtype(dtype)]
        per_history = working_set_bytes(1, 2**14, dtype)
        fit = MAX_WORKING_BYTES // per_history
        check_working_set(fit, 2**14, dtype)
        with pytest.raises(ResourceLimitError):
            check_working_set(fit + 1, 2**14, dtype)
        with pytest.raises(ResourceLimitError):
            check_working_set(100_000, 2**14, dtype)
    with pytest.raises(ResourceLimitError):
        single_brownian(m_power=60)  # the grid is built lazily; the guard runs first


def test_working_set_follows_the_samples_dtype():
    # real samples need less: five histories on 2^22 nodes fit at a real q
    # but not at a complex one, which price_field refuses before it builds
    # an array of the grid
    assert (working_set_bytes(5, 2**22, np.float64) <= MAX_WORKING_BYTES
            < working_set_bytes(5, 2**22, np.complex128))
    prob = BarrierProblem(regimes=(RegimeSpec(BM, 0.0, 1.0),) * 5,
                          chain=MemoryChain.from_constant(5, 0, 0.0),
                          lower=-1.0, upper=1.0, spot=0.0, maturity=1.0,
                          initial_history=HistoryIndex((1,)))
    pricer = build.pricer(prob, m_power=22)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            pricer.price_field(3.0 + 2.0j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22 * 8


def depth_chain_pricer():
    # 24 histories of three Brownian regimes, memory depth 3
    chain = MemoryChain.from_constant(3, 3, 0.7)
    regimes = tuple(RegimeSpec(BrownianDrift(mu=0.0, sigma2=s), r, 1.0)
                    for s, r in ((0.5, 0.0), (1.0, 0.01), (2.0, 0.02)))
    prob = BarrierProblem(regimes=regimes, chain=chain, lower=-1.0, upper=1.0,
                          spot=0.2, maturity=1.0, initial_history=HistoryIndex((1, 2, 1, 2)))
    return chain, build.pricer(prob, m_power=12)


def test_sweep_working_set_within_live_array_estimate():
    # the size guard counts batch arrays of histories x M complex values, as
    # many as the samples' dtype needs; one price_field on a 24-history chain
    # must stay within the count of its q, real or complex
    for q in (3.0, 3.0 + 2.0j):
        chain, pricer = depth_chain_pricer()
        tracemalloc.start()
        try:
            field = pricer.price_field(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= working_set_bytes(chain.size, 2**12, field.functions.values.dtype)


@pytest.mark.parametrize("q", [3.0, 3.0 + 2.0j], ids=["real_plans", "complex_plans"])
def test_sweeps_allocate_no_batch_array(monkeypatch, q):
    # a sweep runs in its spectral value's workspace: from sweep 3 on, the
    # traced peak of each head group's step (the last one's includes the
    # sweep's checks) stays below a quarter of one histories x M complex
    # array above what was allocated when it began
    chain, pricer = depth_chain_pricer()
    batch = chain.size * 2**12 * 16
    coupling, inner_iteration = QPricer._coupling, QPricer._inner_iteration
    sweeps, state = [], {}

    def close_step():
        if "start" in state:
            sweeps.append((state["sweep"], tracemalloc.get_traced_memory()[1] - state.pop("start")))

    def traced_coupling(self, cur, rows, *args, **kwargs):
        # the coupling opens each group's step; the first group's opens a
        # sweep after the first
        close_step()
        if rows.start == 0:
            state["sweep"] = state.get("sweep", 1) + 1
        tracemalloc.reset_peak()
        state["start"] = tracemalloc.get_traced_memory()[0]
        return coupling(self, cur, rows, *args, **kwargs)

    def traced_iteration(self, *args, **kwargs):
        state.clear()
        out = inner_iteration(self, *args, **kwargs)
        close_step()
        state.clear()
        return out

    monkeypatch.setattr(QPricer, "_coupling", traced_coupling)
    monkeypatch.setattr(QPricer, "_inner_iteration", traced_iteration)
    tracemalloc.start()
    try:
        pricer.price_field(q)
    finally:
        tracemalloc.stop()
    later = [grown for sweep, grown in sweeps if sweep >= 3]
    assert len(later) >= 10
    assert max(later) < batch / 4, max(later) / batch
