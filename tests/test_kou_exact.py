import numpy as np
import pytest

from rsbarrier.errors import ResourceLimitError
from rsbarrier.grids import Region, SampledFunction, indicator_soft
from rsbarrier.models import BrownianDrift, KouJumpDiffusion
from rsbarrier import epv
from rsbarrier.epv import (
    OperatorPlan,
    apply_epv,
    apply_multiplier,
    first_touch_above,
    first_touch_below,
    sweep_step,
)
from rsbarrier.wiener_hopf import factorize_rational

import builders as build
from kou_exact import ExactEpv, PiecewiseExp
from oracles import core_region

BM2 = BrownianDrift(mu=0.0, sigma2=2.0)
KOU = KouJumpDiffusion(mu=0.03, sigma2=0.1, lambda_j=2.0, p=0.5,
                       alpha_plus=8.0, alpha_minus=6.0)
# no upward jumps: the upper barrier is reached by creeping only
KOU_UP_CREEP = KouJumpDiffusion(mu=0.03, sigma2=0.1, lambda_j=2.0, p=0.0,
                                alpha_plus=8.0, alpha_minus=6.0)
XS = np.array([-2.5, -1.0, -0.3, 0.0, 0.4, 1.3, 2.2])


def plan(factors, side):
    return OperatorPlan.build(factors, side)


@pytest.fixture(scope="module")
def brownian_pair():
    grid = build.grid(-1.0, 1.0, m_power=10, models=[BM2])
    factors = factorize_rational(BM2, 1.0, grid)
    return grid, factors, ExactEpv(factors)


@pytest.fixture(scope="module")
def brownian_exact(brownian_pair):
    return brownian_pair[2]


@pytest.fixture(scope="module")
def kou_pair():
    # fine, narrow grid: the cross-check tolerance is dominated by the
    # (beta*dx)^2 mid-sampling bias of the grid back end
    grid = build.grid(-1.0, 1.0, m_power=15, domain_factor=5.0, models=[KOU])
    factors = factorize_rational(KOU, 1.3, grid)
    return grid, factors, ExactEpv(factors)


@pytest.fixture(scope="module")
def kou_creep_pair():
    grid = build.grid(-1.0, 1.0, m_power=15, domain_factor=5.0, models=[KOU_UP_CREEP])
    factors = factorize_rational(KOU_UP_CREEP, 1.3, grid)
    return grid, factors, ExactEpv(factors)


def test_constants_fixed_points(brownian_exact):
    c = PiecewiseExp.constant(2.0 - 0.5j)
    for op in (brownian_exact.e_plus, brownian_exact.e_minus,
               brownian_exact.e_plus_inverse, brownian_exact.e_minus_inverse):
        assert op(c)(0.7) == pytest.approx(2.0 - 0.5j, abs=1e-14)


def test_piecewise_algebra():
    f = PiecewiseExp.step_above(0.0, 1.0) + PiecewiseExp.step_below(0.0, 2.0)
    assert f(-1.0) == pytest.approx(2.0)
    assert f(1.0) == pytest.approx(1.0)
    g = f.scale(3.0) - f
    assert g(1.0) == pytest.approx(2.0)
    d = PiecewiseExp.step_above(0.5, 1.0).derivative()
    assert d.atoms == {0.5: pytest.approx(1.0)}


def test_brownian_sup_law_exact(brownian_exact):
    step = PiecewiseExp.step_above(1.0, 1.0)
    img = brownian_exact.e_plus(step)
    expected = np.where(XS >= 1.0, 1.0, np.exp(-(1.0 - XS)))
    assert np.max(np.abs(img(XS) - expected)) < 1e-14


def test_inverse_composition_identity(brownian_exact):
    step = PiecewiseExp.step_above(1.0, 1.0)
    img = brownian_exact.e_plus(step)
    back = brownian_exact.e_plus_inverse(img)
    assert np.max(np.abs(back(XS) - step(XS))) < 1e-13
    assert not back.atoms or all(abs(w) < 1e-12 for w in back.atoms.values())


def test_first_touch_closed_form(brownian_exact):
    seed = PiecewiseExp.step_above(1.0, 0.7)
    out = brownian_exact.first_touch_above(seed, 1.0)
    expected = 0.7 * np.where(XS >= 1.0, 1.0, np.exp(-(1.0 - XS)))
    assert np.max(np.abs(out(XS) - expected)) < 1e-13


def test_kou_mixture_weights_sum_to_one(kou_pair):
    _, _, ex = kou_pair
    w_plus = ex._mixture_weights(ex.betas_plus, ex.pole_plus)
    w_minus = ex._mixture_weights(ex.betas_minus, ex.pole_minus)
    assert sum(w_plus) == pytest.approx(1.0, abs=1e-12)
    assert sum(w_minus) == pytest.approx(1.0, abs=1e-12)


def test_grid_backend_cross_validation_epv(kou_pair):
    grid, factors, ex = kou_pair
    exact = ex.e_plus(PiecewiseExp.step_above(grid.upper, 1.0))
    on_grid = apply_epv(plan(factors, "plus"),
                        SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0))
    mask = core_region(grid) & (np.abs(grid.x - grid.upper) > 0.05)
    assert np.abs(on_grid.full() - exact(grid.x))[mask].max() < 1e-6


def test_grid_backend_cross_validation_inner_step(kou_pair):
    # one full inner-iteration step: coupling sweep plus boundary term
    grid, factors, ex = kou_pair
    Q = 1.3
    v = PiecewiseExp.step_above(grid.upper, 0.55) + PiecewiseExp.step_below(grid.lower, 0.3)
    seed = PiecewiseExp.step_above(grid.upper, 0.8)
    exact = ex.sweep_plus(v.scale(0.4), grid.upper) + ex.first_touch_above(seed, grid.upper)

    vg = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.55).add(
        SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, 0.3))
    sweep = apply_epv(plan(factors, "plus"),
                      indicator_soft(apply_epv(plan(factors, "minus"), vg.scale(0.4)),
                                     Region.BELOW_UPPER)).scale(1.0 / Q)
    boundary = first_touch_above(
        plan(factors, "plus"), SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.8))
    on_grid = sweep.add(boundary)
    mask = (core_region(grid)
            & (np.abs(grid.x - grid.upper) > 0.05)
            & (np.abs(grid.x - grid.lower) > 0.05))
    assert np.abs(on_grid.full() - exact(grid.x))[mask].max() < 1e-6


def tail_seed(grid, side, c=0.8, d=0.2, k=3.0):
    """c + d*exp(-k*|x - h|) beyond the barrier h of ``side``, 0 on the other
    side: on the grid (mid-value at the node) and in closed form."""
    x = grid.x
    if side == "plus":
        h, node, sign = grid.upper, grid.upper_index, 1.0
        exact = PiecewiseExp([h], [[], [(c + 0j, 0j, 0),
                                         (d * np.exp(k * h) + 0j, complex(-k), 0)]])
    else:
        h, node, sign = grid.lower, grid.lower_index, -1.0
        exact = PiecewiseExp([h], [[(c + 0j, 0j, 0),
                                    (d * np.exp(-k * h) + 0j, complex(k), 0)], []])
    full = np.where(sign * (x - h) > 0, c + d * np.exp(-k * sign * (x - h)), 0.0)
    full[node] = 0.5 * (c + d)
    c_lo, c_hi = (0.0, c) if side == "plus" else (c, 0.0)
    return SampledFunction.from_samples(grid, full, c_lo, c_hi), exact, h


def near_band(grid):
    return (core_region(grid)
            & (np.abs(grid.x - grid.upper) > 0.05)
            & (np.abs(grid.x - grid.lower) > 0.05))


@pytest.mark.parametrize("pair, side, bound", [
    ("kou_pair", "plus", 2e-4), ("kou_pair", "minus", 2e-4),
    ("kou_creep_pair", "plus", 2e-6), ("kou_creep_pair", "minus", 2e-4),
])
def test_first_touch_tail_image(request, pair, side, bound):
    # data that is not a pure step beyond the barrier: a jump side takes its
    # mean against the overshoot law, a creeping side only its boundary
    # value.  Both converge at second order in dx (about 6e-7 here)
    grid, factors, ex = request.getfixturevalue(pair)
    u, seed, h = tail_seed(grid, side)
    if side == "plus":
        on_grid = first_touch_above(plan(factors, "plus"), u)
        exact = ex.first_touch_above(seed, h)
    else:
        on_grid = first_touch_below(plan(factors, "minus"), u)
        exact = ex.first_touch_below(seed, h)
    assert np.abs(on_grid.full() - exact(grid.x))[near_band(grid)].max() < bound


FIRST_TOUCH_PAIRS = [("brownian_pair", "plus"), ("brownian_pair", "minus"),
                     ("kou_creep_pair", "plus"), ("kou_creep_pair", "minus"),
                     ("kou_pair", "plus"), ("kou_pair", "minus")]


@pytest.mark.parametrize("pair, side", FIRST_TOUCH_PAIRS)
def test_first_touch_takes_no_transform_on_a_rational_side(monkeypatch, request, pair, side):
    # a rational side's first touch is a(h - x) c_b + b(h - x) I_alpha on the
    # band side and the data beyond: no multiplier runs.  The bounds hold
    # about twice the errors measured against the exact operator on the
    # tail seed: 2.4e-3 on the Brownian m_power-10 grid, where the boundary
    # value's extrapolation sets it, and 5.7e-7 to 5.9e-7 on the Kou
    # m_power-15 grids
    grid, factors, ex = request.getfixturevalue(pair)
    u, seed, h = tail_seed(grid, side)
    p = plan(factors, side)
    seen = []

    def counted(v, *args, **kwargs):
        seen.append(v)
        return apply_multiplier(v, *args, **kwargs)

    monkeypatch.setattr(epv, "apply_multiplier", counted)
    first_touch = first_touch_above if side == "plus" else first_touch_below
    out = first_touch(p, u)
    monkeypatch.undo()
    assert seen == []
    exact = (ex.first_touch_above if side == "plus" else ex.first_touch_below)(seed, h)
    bound = 5e-3 if pair == "brownian_pair" else 1.2e-6
    assert np.abs(out.full() - exact(grid.x))[near_band(grid)].max() < bound
    # beyond the barrier the data itself, and 0 far on the band side
    region = Region.AT_OR_ABOVE_UPPER if side == "plus" else Region.AT_OR_BELOW_LOWER
    node, direction = grid.region_edge(region)
    kept = grid.half_line(node, direction, 0.0) == 1.0
    data = u.full()
    assert np.allclose(out.full()[kept], data[kept], rtol=0.0, atol=1e-15)
    assert (out.c_lo, out.c_hi) == ((0.0, u.c_hi) if side == "plus" else (u.c_lo, 0.0))


def ladder(model, q, m_powers, domain_factor):
    """(grid, factors, exact operators) at each m_power."""
    for m_power in m_powers:
        grid = build.grid(-1.0, 1.0, m_power=m_power, domain_factor=domain_factor,
                          models=[model])
        factors = factorize_rational(model, q, grid)
        yield grid, factors, ExactEpv(factors)


@pytest.mark.parametrize("model", [KOU, KOU_UP_CREEP], ids=["kou", "kou_creep"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_first_touch_converges_at_second_order(model, side):
    # the tail seed's error against the exact operator over M = 2^13..2^16
    # (measured 9.4e-6 to 1.5e-7 on every seed) falls about 4x per doubling
    errors = []
    for grid, factors, ex in ladder(model, 1.3, range(13, 17), 5.0):
        u, seed, h = tail_seed(grid, side)
        if side == "plus":
            on_grid, exact = first_touch_above(plan(factors, side), u), ex.first_touch_above(seed, h)
        else:
            on_grid, exact = first_touch_below(plan(factors, side), u), ex.first_touch_below(seed, h)
        errors.append(np.abs(on_grid.full() - exact(grid.x))[near_band(grid)].max())
    assert all(a >= 3.5 * b for a, b in zip(errors, errors[1:])), errors


def sweep_data(grid, k=3.0):
    """Coupling data with a jump at each barrier, a smooth band part and
    exponential tails beyond: on the grid (mid-values at the barrier nodes)
    and in closed form."""
    x, lo, hi = grid.x, grid.lower, grid.upper
    full = (np.where(x > hi, 0.55 + 0.2 * np.exp(-k * (x - hi)), 0.0)
            + np.where(x < lo, 0.3 + 0.1 * np.exp(k * (x - lo)), 0.0)
            + np.where((x > lo) & (x < hi), 0.1 * np.cos(x), 0.0))
    full[grid.upper_index] = 0.5 * (0.75 + 0.1 * np.cos(hi))
    full[grid.lower_index] = 0.5 * (0.4 + 0.1 * np.cos(lo))
    exact = PiecewiseExp([lo, hi], [
        [(0.3 + 0j, 0j, 0), (0.1 * np.exp(-k * lo) + 0j, complex(k), 0)],
        [(0.05 + 0j, 1j, 0), (0.05 + 0j, -1j, 0)],
        [(0.55 + 0j, 0j, 0), (0.2 * np.exp(k * hi) + 0j, complex(-k), 0)]])
    return SampledFunction.from_samples(grid, full, 0.3, 0.55), exact


def open_band(grid):
    return (grid.x > grid.lower) & (grid.x < grid.upper)


@pytest.mark.parametrize("region", [near_band, open_band], ids=["near_band", "open_band"])
@pytest.mark.parametrize("model, q, domain_factor, bounds", [
    (BM2, 1.0, 10.0, {near_band: 1.7e-7, open_band: 1.8e-7}),
    (KOU, 1.3, 5.0, {near_band: 6e-7, open_band: 9e-7}),
    (KOU_UP_CREEP, 1.3, 5.0, {near_band: 6e-7, open_band: 9e-7}),
], ids=["brownian", "kou", "kou_creep"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_sweep_step_converges_at_second_order(model, q, domain_factor, bounds, side, region):
    # E^side 1_band E^other by one transform and the closed-form first touch
    # of E u, against the exact operators, over M = 2^12..2^15: the error
    # falls 3.9-4.0x per doubling, to at most 8.1e-8 near the band and 8.8e-8
    # over the open band on the Brownian regime, and 2.9e-7 and 4.3e-7 on the
    # Kou ones; the bounds at 2^15 hold about twice that.  One multiplier runs
    errors = []
    for grid, factors, ex in ladder(model, q, range(12, 16), domain_factor):
        u, data = sweep_data(grid)
        if side == "plus":
            exact = ex.sweep_plus(data, grid.upper).scale(q)
        else:
            exact = ex.sweep_minus(data, grid.lower).scale(q)
        p = OperatorPlan.build(factors, side, product=True)
        calls = []
        counted = lambda v, *args, **kwargs: calls.append(v) or apply_multiplier(v, *args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(epv, "apply_multiplier", counted)
            out = sweep_step(p, u)
        assert len(calls) == 1
        errors.append(np.abs(out.full() - exact(grid.x))[region(grid)].max())
    assert all(a >= 3.5 * b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < bounds[region], errors


def test_sweep_step_needs_a_product_plan(kou_pair):
    grid, factors, _ = kou_pair
    u, _ = sweep_data(grid)
    with pytest.raises(ValueError, match="phi\\+ phi-"):
        sweep_step(plan(factors, "plus"), u)


def test_term_count_guard():
    f = PiecewiseExp.constant(1.0)
    with pytest.raises(ResourceLimitError):
        # adding thousands of distinct exponential rates overflows the cap
        terms = [(1.0 + 0.0j, complex(-1.0 - k * 1e-3), 0) for k in range(10_001)]
        PiecewiseExp([], [terms]) + PiecewiseExp.constant(0.0)
