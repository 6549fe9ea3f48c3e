import numpy as np
import pytest

from rsbarrier.errors import GridResolutionError
from rsbarrier.grids import Region, SampledFunction, build_grid, indicator_soft
from rsbarrier.models import BrownianDrift, KouJumpDiffusion
from rsbarrier.epv import (
    apply_epv,
    apply_epv_inverse,
    first_touch_above,
    first_touch_below,
)
from rsbarrier.wiener_hopf import factorize_rational

from oracles import core_region, undamped_multiplier

BM2 = BrownianDrift(mu=0.0, sigma2=2.0)
KOU = KouJumpDiffusion(mu=0.03, sigma2=0.1, lambda_j=2.0, p=0.5,
                       alpha_plus=8.0, alpha_minus=6.0)


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(-1.0, 1.0, m_power=14, models=[BM2])
    return grid, factorize_rational(BM2, 1.0, grid)


@pytest.fixture(scope="module")
def kou_setup():
    grid = build_grid(-1.0, 1.0, m_power=13, models=[KOU])
    return grid, factorize_rational(KOU, 1.3, grid)


def core_mask(grid, away_from_barriers=0.05):
    x = grid.x
    m = core_region(grid)
    m &= np.abs(x - grid.upper) > away_from_barriers
    m &= np.abs(x - grid.lower) > away_from_barriers
    return m


def test_constants_preserved_exactly(setup):
    grid, f = setup
    u = SampledFunction.constant(grid, 3.25 - 0.5j)
    for side in ("plus", "minus"):
        out = apply_epv(f, side, u)
        assert np.allclose(out.c_lo, 3.25 - 0.5j) and np.allclose(out.c_hi, 3.25 - 0.5j)
        assert np.max(np.abs(out.values)) == 0.0
        inv = apply_epv_inverse(f, side, u)
        assert np.allclose(inv.full(), 3.25 - 0.5j)


def test_windowed_eigenfunction(setup):
    # needs a kernel short enough that the window looks flat to it, so a
    # large spectral value; window kept inside the residual confinement
    grid, _ = setup
    f = factorize_rational(BM2, 100.0, grid)
    zeta = 3.0
    window = np.exp(-(grid.x / 3.0) ** 10)
    u = SampledFunction(grid, window * np.exp(1j * zeta * grid.x), 0.0, 0.0)
    out = apply_epv(f, "plus", u)
    inner = np.abs(grid.x) < 0.5
    target = f.phi_plus(np.array([zeta]))[0] * np.exp(1j * zeta * grid.x[inner])
    assert np.max(np.abs(out.full()[inner] - target)) < 1e-6


def test_brownian_sup_exponential_law(setup):
    grid, f = setup
    u = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    out = apply_epv(f, "plus", u)
    x, h = grid.x, grid.upper
    expected = np.where(x >= h, 1.0, np.exp(-(h - x)))
    err = np.abs(out.full() - expected)
    assert err[core_mask(grid)].max() < 2e-6


def test_inverse_round_trip_smooth_bump(setup):
    grid, f = setup
    bump = np.exp(-grid.x**2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    for side in ("plus", "minus"):
        rt = apply_epv(f, side, apply_epv_inverse(f, side, u))
        assert np.max(np.abs(rt.full() - bump)[core_region(grid)]) < 1e-8


def test_inverse_recovers_step_image(setup):
    # (E+)^{-1} applied to the closed-form image recovers the indicator
    grid, f = setup
    x, h = grid.x, grid.upper
    image = np.where(x >= h, 1.0, np.exp(-(h - x)))  # continuous, kink at h
    u = SampledFunction.from_samples(grid, image, 0.0, 1.0)
    z = apply_epv_inverse(f, "plus", u)
    target = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0).full()
    err = np.abs(z.full() - target)
    assert err[core_mask(grid, away_from_barriers=1.0)].max() < 1e-6
    assert err[core_mask(grid, away_from_barriers=0.2)].max() < 1e-4


def test_first_touch_closed_form(setup):
    grid, f = setup
    x, h = grid.x, grid.upper
    seed = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.7)
    out = first_touch_above(f, seed)
    expected = 0.7 * np.where(x >= h, 1.0, np.exp(-(h - x)))
    assert np.abs(out.full() - expected)[core_mask(grid)].max() < 1e-6

    hl = grid.lower
    seed = SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, 0.7)
    out = first_touch_below(f, seed)
    expected = 0.7 * np.where(x <= hl, 1.0, np.exp(-(x - hl)))
    assert np.abs(out.full() - expected)[core_mask(grid)].max() < 1e-6


def test_operator_identity_composition(kou_setup):
    grid, f = kou_setup
    bump = np.exp(-grid.x**2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    comp = apply_epv(f, "plus", apply_epv(f, "minus", u))
    # E_Q = E+ E- is the single multiplier Q/(Q + psi)
    single = undamped_multiplier(u, f.contour_symbols(0.0).e_symbol)
    assert np.abs(comp.full() - single.full())[core_region(grid)].max() < 1e-6
    comp2 = apply_epv(f, "minus", apply_epv(f, "plus", u))
    assert np.abs(comp2.full() - single.full())[core_region(grid)].max() < 1e-6


def test_positivity_up_to_ringing(kou_setup):
    # ringing is confined to a few cells around the sampled jump; away from
    # it the outputs of E+- on nonnegative data stay nonnegative to 1e-8
    grid, f = kou_setup
    smooth = SampledFunction(grid, np.exp(-grid.x**2), 0.0, 0.0)
    step = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    x = grid.x
    away = np.zeros(grid.size, bool)
    away[grid.interior()] = True
    away &= np.abs(x - grid.upper) > 0.5
    for side in ("plus", "minus"):
        assert float(np.min(apply_epv(f, side, smooth).full().real[grid.interior()])) > -1e-8
        vals = apply_epv(f, side, step).full().real
        assert float(np.min(vals[away])) > -1e-8
        assert float(np.min(vals[grid.interior()])) > -1e-2  # jump ringing bounded


def test_linearity_exact(kou_setup):
    grid, f = kou_setup
    u = SampledFunction(grid, np.exp(-grid.x**2), 0.0, 0.0)
    v = SampledFunction(grid, np.exp(-((grid.x - 0.4) / 0.7) ** 2), 0.0, 0.0)
    lhs = apply_epv(f, "plus", u.scale(0.7) + v.scale(-1.3))
    rhs = apply_epv(f, "plus", u).scale(0.7) + apply_epv(f, "plus", v).scale(-1.3)
    assert np.max(np.abs(lhs.full() - rhs.full())) < 1e-12


def test_translation_equivariance(kou_setup):
    grid, f = kou_setup
    bump = np.exp(-((grid.x - 0.2) / 0.5) ** 2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    out = apply_epv(f, "plus", u)
    shifted = SampledFunction(grid, np.roll(bump, 1), 0.0, 0.0)
    out_shifted = apply_epv(f, "plus", shifted)
    diff = np.abs(out_shifted.full() - np.roll(out.full(), 1))
    assert diff[core_region(grid)].max() < 1e-10


def test_iterated_sweeps_stay_bounded(kou_setup):
    grid, f = kou_setup
    w = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    sups = []
    for _ in range(30):
        w = apply_epv(f, "plus",
                      indicator_soft(apply_epv(f, "minus", w), Region.BELOW_UPPER))
        w = w.scale(1.0 / 1.3)
        sups.append(w.sup_norm())
    assert sups[-1] < sups[0]
    assert all(s < 2.0 for s in sups)


def test_nondecaying_residual_rejected(setup):
    grid, f = setup
    bad = SampledFunction(grid, np.ones(grid.size), 0.0, 0.0)  # misdeclared far field
    with pytest.raises(GridResolutionError):
        apply_epv(f, "plus", bad)


def test_batched_rows_match_single(kou_setup):
    grid, f = kou_setup
    rows = np.stack([np.exp(-grid.x**2), np.exp(-((grid.x + 0.3) / 0.8) ** 2)])
    batch = SampledFunction(grid, rows, [0.0, 0.0], [0.0, 0.0])
    out = apply_epv(f, "plus", batch)
    for i in range(2):
        single = apply_epv(f, "plus", batch.select(i))
        assert np.allclose(out.full()[i], single.full())
