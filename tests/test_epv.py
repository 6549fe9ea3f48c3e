import numpy as np
import pytest

from rsbarrier.errors import GridResolutionError
from rsbarrier.grids import Region, SampledFunction, indicator_soft
from rsbarrier.models import BrownianDrift, KoBoL, KouJumpDiffusion
from rsbarrier.epv import (
    DECAY_PROBE_STRIDE,
    DECAY_TOL,
    OperatorPlan,
    apply_epv,
    apply_multiplier,
    effective_omega,
    first_touch_above,
    first_touch_below,
)
from rsbarrier.wiener_hopf import factorize, factorize_rational

import builders as build
from oracles import complex_multiplier, core_region, undamped_multiplier

BM2 = BrownianDrift(mu=0.0, sigma2=2.0)
KOU = KouJumpDiffusion(mu=0.03, sigma2=0.1, lambda_j=2.0, p=0.5,
                       alpha_plus=8.0, alpha_minus=6.0)
KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)


def plan(f, side):
    return OperatorPlan.build(f, side)


@pytest.fixture(scope="module")
def setup():
    grid = build.grid(-1.0, 1.0, m_power=14, models=[BM2])
    return grid, factorize_rational(BM2, 1.0, grid)


@pytest.fixture(scope="module")
def kou_setup():
    grid = build.grid(-1.0, 1.0, m_power=13, models=[KOU])
    return grid, factorize_rational(KOU, 1.3, grid)


def core_mask(grid, away_from_barriers=0.05):
    x = grid.x
    m = core_region(grid)
    m &= np.abs(x - grid.upper) > away_from_barriers
    m &= np.abs(x - grid.lower) > away_from_barriers
    return m


def test_constants_preserved_exactly(setup):
    # a real constant through the plans of a real Q, a complex one through
    # those of a complex Q
    grid, f = setup
    for fac, c in ((f, 3.25), (factorize_rational(BM2, 1.0 + 0.5j, grid), 3.25 - 0.5j)):
        u = SampledFunction.constant(grid, c)
        for side in ("plus", "minus"):
            out = apply_epv(plan(fac, side), u)
            assert np.allclose(out.c_lo, c) and np.allclose(out.c_hi, c)
            assert np.max(np.abs(out.values)) == 0.0
            inv = apply_multiplier(u, plan(fac, side), inverse=True)
            assert np.allclose(inv.full(), c)


def test_windowed_eigenfunction(setup):
    # needs a kernel short enough that the window looks flat to it, so a
    # large spectral value; window kept inside the residual confinement.  The
    # real plan maps the real and imaginary parts of exp(i zeta x) apart
    grid, _ = setup
    f = factorize_rational(BM2, 100.0, grid)
    zeta = 3.0
    window = np.exp(-(grid.x / 3.0) ** 10)
    re, im = (apply_epv(plan(f, "plus"), SampledFunction(grid, window * part(zeta * grid.x),
                                                         0.0, 0.0)).full()
              for part in (np.cos, np.sin))
    inner = np.abs(grid.x) < 0.5
    target = f.phi_plus(np.array([zeta]))[0] * np.exp(1j * zeta * grid.x[inner])
    assert np.max(np.abs(re[inner] + 1j * im[inner] - target)) < 1e-6


def test_brownian_sup_exponential_law(setup):
    grid, f = setup
    u = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    out = apply_epv(plan(f, "plus"), u)
    x, h = grid.x, grid.upper
    expected = np.where(x >= h, 1.0, np.exp(-(h - x)))
    err = np.abs(out.full() - expected)
    assert err[core_mask(grid)].max() < 2e-6


def test_inverse_round_trip_smooth_bump(setup):
    grid, f = setup
    bump = np.exp(-grid.x**2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    for side in ("plus", "minus"):
        rt = apply_epv(plan(f, side), apply_multiplier(u, plan(f, side), inverse=True))
        assert np.max(np.abs(rt.full() - bump)[core_region(grid)]) < 1e-8


def test_inverse_recovers_step_image(setup):
    # (E+)^{-1} applied to the closed-form image recovers the indicator
    grid, f = setup
    x, h = grid.x, grid.upper
    image = np.where(x >= h, 1.0, np.exp(-(h - x)))  # continuous, kink at h
    u = SampledFunction.from_samples(grid, image, 0.0, 1.0)
    z = apply_multiplier(u, plan(f, "plus"), inverse=True)
    target = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0).full()
    err = np.abs(z.full() - target)
    assert err[core_mask(grid, away_from_barriers=1.0)].max() < 1e-6
    assert err[core_mask(grid, away_from_barriers=0.2)].max() < 1e-4


def test_first_touch_closed_form(setup):
    grid, f = setup
    x, h = grid.x, grid.upper
    seed = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 0.7)
    out = first_touch_above(plan(f, "plus"), seed)
    expected = 0.7 * np.where(x >= h, 1.0, np.exp(-(h - x)))
    assert np.abs(out.full() - expected)[core_mask(grid)].max() < 1e-6

    hl = grid.lower
    seed = SampledFunction.step(grid, Region.AT_OR_BELOW_LOWER, 0.7)
    out = first_touch_below(plan(f, "minus"), seed)
    expected = 0.7 * np.where(x <= hl, 1.0, np.exp(-(x - hl)))
    assert np.abs(out.full() - expected)[core_mask(grid)].max() < 1e-6


def test_operator_identity_composition(kou_setup):
    grid, f = kou_setup
    bump = np.exp(-grid.x**2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    comp = apply_epv(plan(f, "plus"), apply_epv(plan(f, "minus"), u))
    # E_Q = E+ E- is the single multiplier Q/(Q + psi)
    single = undamped_multiplier(u, f.e_symbol(grid.xi))
    assert np.abs(comp.full() - single.full())[core_region(grid)].max() < 1e-6
    comp2 = apply_epv(plan(f, "minus"), apply_epv(plan(f, "plus"), u))
    assert np.abs(comp2.full() - single.full())[core_region(grid)].max() < 1e-6


def test_positivity_up_to_ringing(kou_setup):
    # ringing is confined to a few cells around the sampled jump; away from
    # it the outputs of E+- on nonnegative data stay nonnegative to 1e-8
    grid, f = kou_setup
    smooth = SampledFunction(grid, np.exp(-grid.x**2), 0.0, 0.0)
    step = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    x = grid.x
    interior = slice(grid.guard, grid.size - grid.guard)
    away = np.zeros(grid.size, bool)
    away[interior] = True
    away &= np.abs(x - grid.upper) > 0.5
    for side in ("plus", "minus"):
        assert float(np.min(apply_epv(plan(f, side), smooth).full().real[interior])) > -1e-8
        vals = apply_epv(plan(f, side), step).full().real
        assert float(np.min(vals[away])) > -1e-8
        assert float(np.min(vals[interior])) > -1e-2  # jump ringing bounded


def test_linearity_exact(kou_setup):
    grid, f = kou_setup
    u = SampledFunction(grid, np.exp(-grid.x**2), 0.0, 0.0)
    v = SampledFunction(grid, np.exp(-((grid.x - 0.4) / 0.7) ** 2), 0.0, 0.0)
    lhs = apply_epv(plan(f, "plus"), u.scale(0.7).add(v.scale(-1.3)))
    rhs = apply_epv(plan(f, "plus"), u).scale(0.7).add(
        apply_epv(plan(f, "plus"), v).scale(-1.3))
    assert np.max(np.abs(lhs.full() - rhs.full())) < 1e-12


def test_translation_equivariance(kou_setup):
    grid, f = kou_setup
    bump = np.exp(-((grid.x - 0.2) / 0.5) ** 2)
    u = SampledFunction(grid, bump, 0.0, 0.0)
    out = apply_epv(plan(f, "plus"), u)
    shifted = SampledFunction(grid, np.roll(bump, 1), 0.0, 0.0)
    out_shifted = apply_epv(plan(f, "plus"), shifted)
    diff = np.abs(out_shifted.full() - np.roll(out.full(), 1))
    assert diff[core_region(grid)].max() < 1e-10


def test_iterated_sweeps_stay_bounded(kou_setup):
    grid, f = kou_setup
    w = SampledFunction.step(grid, Region.AT_OR_ABOVE_UPPER, 1.0)
    sups = []
    for _ in range(30):
        w = apply_epv(plan(f, "plus"),
                      indicator_soft(apply_epv(plan(f, "minus"), w), Region.BELOW_UPPER))
        w = w.scale(1.0 / 1.3)
        sups.append(w.sup_norm())
    assert sups[-1] < sups[0]
    assert all(s < 2.0 for s in sups)


def test_nondecaying_residual_rejected(setup):
    grid, f = setup
    bad = SampledFunction(grid, np.ones(grid.size), 0.0, 0.0)  # misdeclared far field
    with pytest.raises(GridResolutionError):
        apply_epv(plan(f, "plus"), bad)


def test_batched_rows_match_single(kou_setup):
    grid, f = kou_setup
    rows = np.stack([np.exp(-grid.x**2), np.exp(-((grid.x + 0.3) / 0.8) ** 2)])
    batch = SampledFunction(grid, rows, [0.0, 0.0], [0.0, 0.0])
    out = apply_epv(plan(f, "plus"), batch)
    for i in range(2):
        single = apply_epv(plan(f, "plus"), batch.rows(slice(i, i + 1)))
        assert np.allclose(out.full()[i], single.full()[0])


def test_nan_residual_rejected(setup):
    # NaN compares false with any tolerance; the check must still stop it
    grid, f = setup
    bad = SampledFunction(grid, np.full(grid.size, np.nan), 0.0, 0.0)
    with pytest.raises(GridResolutionError):
        apply_epv(plan(f, "plus"), bad)


def test_decay_check_takes_the_full_sup_norm_between_probes(setup):
    # the row peaks between the interior nodes that bound its sup-norm from
    # below, so only the full sup-norm admits its edges; edges above that
    # scale fail, and so do NaN edges and a NaN between the probed nodes,
    # which makes the full sup-norm NaN
    grid, f = setup
    peak = grid.guard + DECAY_PROBE_STRIDE // 2
    values = np.zeros(grid.size)
    values[peak] = 1.0
    values[:4] = 0.5 * DECAY_TOL
    apply_epv(plan(f, "plus"), SampledFunction(grid, values, 0.0, 0.0))
    interior = slice(grid.guard, grid.size - grid.guard)
    for spoiled in ([(slice(0, 4), 2.0 * DECAY_TOL)], [(slice(0, 4), np.nan)],
                    [(interior, 1.0), (peak + 1, np.nan)]):
        bad = values.copy()
        for at, value in spoiled:
            bad[at] = value
        with pytest.raises(GridResolutionError):
            apply_epv(plan(f, "plus"), SampledFunction(grid, bad, 0.0, 0.0))


@pytest.fixture(scope="module")
def three_heads(kou_setup):
    grid, f = kou_setup
    return grid, [f, factorize_rational(KOU, 2.1, grid), factorize_rational(BM2, 1.7, grid)]


def test_decay_check_keeps_each_head_scale(three_heads):
    # each head's rows go through that head's own plan, as the engine's
    # sweeps give them, and are held against their own sup-norm: heads 1 and
    # 3 decay at scales 1e8 apart and pass, head 2's rows do not and raise
    grid, factors = three_heads
    rows = [1e8 * np.exp(-grid.x**2), np.ones(grid.size), np.exp(-grid.x**2)]
    for head, (f, row) in enumerate(zip(factors, rows), start=1):
        u = SampledFunction(grid, np.stack([row, 0.5 * row]), [0.0, 0.0], [0.0, 0.0])
        if head == 2:
            with pytest.raises(GridResolutionError):
                apply_epv(plan(f, "plus"), u)
        else:
            apply_epv(plan(f, "plus"), u)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_undamp_multiply_equals_divide(kou_setup, side):
    # the plan undamps by multiplying with 1/damp, which numpy's complex
    # division by a real array computes as well; a numpy whose division
    # rounds otherwise fails here instead of moving prices
    grid, f = kou_setup
    op = plan(f, side)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, grid.size)) + 1j * rng.standard_normal((2, grid.size))
    assert np.array_equal(g / op.damp, g * op.undamp)


# -- real plans: real Q, Hermitian symbols, half-spectrum transforms -------

@pytest.fixture(scope="module", params=["brownian", "kou", "kobol"])
def real_q(request):
    # the band and grid size of configs/kobol_single.json, at a real Q
    model = {"brownian": BM2, "kou": KOU, "kobol": KOBOL}[request.param]
    grid = build.grid(-0.5, 0.5, m_power=13, models=[model])
    return grid, factorize(model, 1.3, grid)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_symbols_hermitian_at_real_q(real_q, side):
    # S[M - k] = conj S[k]: what lets a real plan keep half the spectrum
    grid, f = real_q
    cs = f.contour_symbols(effective_omega(f, side))
    symbol = cs.phi_plus if side == "plus" else cs.phi_minus
    k = np.arange(1, grid.size // 2)
    for s, bound in ((symbol, 1e-12), (1.0 / symbol, 1e-10)):
        assert np.max(np.abs(s[grid.size - k] - np.conj(s[k]))) <= bound * np.max(np.abs(s))


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("inverse", [False, True])
def test_real_plan_matches_complex_transform(real_q, side, inverse):
    grid, f = real_q
    x = grid.x
    u = SampledFunction(grid, np.exp(-(x / 0.3) ** 2) - 0.3 * np.exp(-((x - 0.2) / 0.5) ** 2),
                        0.4, 1.0)
    op = plan(f, side)
    assert op.real
    out = apply_multiplier(u, op, inverse)
    ref = complex_multiplier(u, f, side, inverse)
    assert np.all(out.values.imag == 0.0)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-11 * ref.sup_norm()


def test_real_plan_refuses_complex_samples(kou_setup):
    # a real plan refuses complex samples, even those whose imaginary part is
    # zero; a complex plan maps real samples as it maps them with a zero
    # imaginary part
    grid, f = kou_setup
    u = SampledFunction(grid, np.exp(-grid.x**2), 0.2, 1.0)
    as_complex = SampledFunction(grid, u.values + 0j, u.c_lo, u.c_hi)
    for side in ("plus", "minus"):
        with pytest.raises(ValueError, match="real plan"):
            apply_epv(plan(f, side), as_complex)
        complex_plan = plan(factorize_rational(KOU, 1.3 + 0.5j, grid), side)
        out = apply_epv(complex_plan, u)
        assert out.values.dtype == np.complex128
        assert np.array_equal(out.values, apply_epv(complex_plan, as_complex).values)


def test_plan_keeps_half_spectrum_only_at_real_q(kou_setup):
    grid, f = kou_setup
    real = plan(f, "plus")
    assert real.real and real.forward.shape == real.inverse.shape == (grid.size // 2 + 1,)
    complex_plan = plan(factorize_rational(KOU, 2.1 + 0.5j, grid), "plus")
    assert not complex_plan.real
    assert complex_plan.forward.shape == complex_plan.inverse.shape == (grid.size,)
