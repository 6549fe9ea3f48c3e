import numpy as np
import pytest

from rsbarrier.errors import ResourceLimitError
from rsbarrier.grids import Region, SampledFunction, build_grid, indicator_soft
from rsbarrier.models import BrownianDrift, KouJumpDiffusion
from rsbarrier.epv import OperatorPlan, apply_epv, first_touch_above, first_touch_below
from rsbarrier.wiener_hopf import factorize_rational

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
    return OperatorPlan.build([factors], side)


@pytest.fixture(scope="module")
def brownian_exact():
    grid = build_grid(-1.0, 1.0, m_power=10, models=[BM2])
    return ExactEpv(factorize_rational(BM2, 1.0, grid))


@pytest.fixture(scope="module")
def kou_pair():
    # fine, narrow grid: the cross-check tolerance is dominated by the
    # (beta*dx)^2 mid-sampling bias of the grid back end
    grid = build_grid(-1.0, 1.0, m_power=15, domain_factor=5.0, models=[KOU])
    factors = factorize_rational(KOU, 1.3, grid)
    return grid, factors, ExactEpv(factors)


@pytest.fixture(scope="module")
def kou_creep_pair():
    grid = build_grid(-1.0, 1.0, m_power=15, domain_factor=5.0, models=[KOU_UP_CREEP])
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

    vg = (SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.55)
          + SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, 0.3))
    sweep = apply_epv(plan(factors, "plus"),
                      indicator_soft(apply_epv(plan(factors, "minus"), vg.scale(0.4)),
                                     Region.BELOW_UPPER)).scale(1.0 / Q)
    boundary = first_touch_above(
        plan(factors, "plus"), SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.8))
    on_grid = sweep + boundary
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


@pytest.mark.parametrize("pair, side, bound", [
    ("kou_pair", "plus", 2e-4), ("kou_pair", "minus", 2e-4),
    ("kou_creep_pair", "plus", 2e-6), ("kou_creep_pair", "minus", 2e-4),
])
def test_first_touch_tail_image(request, pair, side, bound):
    # data that is not a pure step beyond the barrier reaches the peeled-tail
    # image; on the creeping side only the boundary value passes.  Jump sides
    # converge at first order in dx (about 1.0e-4 here), the creeping side
    # and pure steps at second order
    grid, factors, ex = request.getfixturevalue(pair)
    u, seed, h = tail_seed(grid, side)
    if side == "plus":
        on_grid = first_touch_above(plan(factors, "plus"), u)
        exact = ex.first_touch_above(seed, h)
    else:
        on_grid = first_touch_below(plan(factors, "minus"), u)
        exact = ex.first_touch_below(seed, h)
    mask = (core_region(grid)
            & (np.abs(grid.x - grid.upper) > 0.05)
            & (np.abs(grid.x - grid.lower) > 0.05))
    assert np.abs(on_grid.full() - exact(grid.x))[mask].max() < bound


def test_term_count_guard():
    f = PiecewiseExp.constant(1.0)
    with pytest.raises(ResourceLimitError):
        # adding thousands of distinct exponential rates overflows the cap
        terms = [(1.0 + 0.0j, complex(-1.0 - k * 1e-3), 0) for k in range(10_001)]
        PiecewiseExp([], [terms]) + PiecewiseExp.constant(0.0)
