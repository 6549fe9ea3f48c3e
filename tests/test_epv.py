import numpy as np
import pytest

from rsbarrier.errors import GridResolutionError
from rsbarrier.grids import Region, SampledFunction, build_grid, indicator_soft
from rsbarrier.models import BrownianDrift, KoBoL, KouJumpDiffusion
from rsbarrier.epv import (
    DECAY_PROBE_STRIDE,
    OperatorPlan,
    apply_epv,
    apply_epv_inverse,
    apply_multiplier,
    effective_omega,
    first_touch_above,
    first_touch_below,
)
from rsbarrier.wiener_hopf import factorize, factorize_rational

from oracles import complex_multiplier, core_region, undamped_multiplier

BM2 = BrownianDrift(mu=0.0, sigma2=2.0)
KOU = KouJumpDiffusion(mu=0.03, sigma2=0.1, lambda_j=2.0, p=0.5,
                       alpha_plus=8.0, alpha_minus=6.0)
KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)


def plan(f, side):
    return OperatorPlan.build([f], side)


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
    # a real constant through the plans of a real Q, a complex one through
    # those of a complex Q
    grid, f = setup
    for fac, c in ((f, 3.25), (factorize_rational(BM2, 1.0 + 0.5j, grid), 3.25 - 0.5j)):
        u = SampledFunction.constant(grid, c)
        for side in ("plus", "minus"):
            out = apply_epv(plan(fac, side), u)
            assert np.allclose(out.c_lo, c) and np.allclose(out.c_hi, c)
            assert np.max(np.abs(out.values)) == 0.0
            inv = apply_epv_inverse(plan(fac, side), u)
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
        rt = apply_epv(plan(f, side), apply_epv_inverse(plan(f, side), u))
        assert np.max(np.abs(rt.full() - bump)[core_region(grid)]) < 1e-8


def test_inverse_recovers_step_image(setup):
    # (E+)^{-1} applied to the closed-form image recovers the indicator
    grid, f = setup
    x, h = grid.x, grid.upper
    image = np.where(x >= h, 1.0, np.exp(-(h - x)))  # continuous, kink at h
    u = SampledFunction.from_samples(grid, image, 0.0, 1.0)
    z = apply_epv_inverse(plan(f, "plus"), u)
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
    away = np.zeros(grid.size, bool)
    away[grid.interior()] = True
    away &= np.abs(x - grid.upper) > 0.5
    for side in ("plus", "minus"):
        assert float(np.min(apply_epv(plan(f, side), smooth).full().real[grid.interior()])) > -1e-8
        vals = apply_epv(plan(f, side), step).full().real
        assert float(np.min(vals[away])) > -1e-8
        assert float(np.min(vals[grid.interior()])) > -1e-2  # jump ringing bounded


def test_linearity_exact(kou_setup):
    grid, f = kou_setup
    u = SampledFunction(grid, np.exp(-grid.x**2), 0.0, 0.0)
    v = SampledFunction(grid, np.exp(-((grid.x - 0.4) / 0.7) ** 2), 0.0, 0.0)
    lhs = apply_epv(plan(f, "plus"), u.scale(0.7) + v.scale(-1.3))
    rhs = apply_epv(plan(f, "plus"), u).scale(0.7) + apply_epv(plan(f, "plus"), v).scale(-1.3)
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
        single = apply_epv(plan(f, "plus"), batch.select(i))
        assert np.allclose(out.full()[i], single.full())


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
    values[:4] = 0.5 * grid.decay_tol
    apply_epv(plan(f, "plus"), SampledFunction(grid, values, 0.0, 0.0))
    for spoiled in ([(slice(0, 4), 2.0 * grid.decay_tol)], [(slice(0, 4), np.nan)],
                    [(grid.interior(), 1.0), (peak + 1, np.nan)]):
        bad = values.copy()
        for at, value in spoiled:
            bad[at] = value
        with pytest.raises(GridResolutionError):
            apply_epv(plan(f, "plus"), SampledFunction(grid, bad, 0.0, 0.0))


@pytest.fixture(scope="module")
def three_heads(kou_setup):
    grid, f = kou_setup
    return grid, [f, factorize_rational(KOU, 2.1, grid), factorize_rational(BM2, 1.7, grid)]


@pytest.fixture(scope="module")
def three_complex_heads(kou_setup):
    grid, _ = kou_setup
    return grid, [factorize_rational(KOU, 1.3 + 0.4j, grid),
                  factorize_rational(KOU, 2.1 - 0.3j, grid),
                  factorize_rational(BM2, 1.7 + 0.2j, grid)]


def head_batch(grid, k, imag=1j):
    """3k rows: decaying bumps on far fields that differ row by row; real
    rows when ``imag`` is 0."""
    rows, c_lo, c_hi = [], [], []
    for i in range(3 * k):
        rows.append((1.0 + 0.3 * imag * i) * np.exp(-((grid.x - 0.1 * i) / (0.5 + 0.1 * i)) ** 2))
        c_lo.append(0.2 * i)
        c_hi.append(1.0 - 0.1 * imag * i)
    return SampledFunction(grid, np.array(rows), c_lo, c_hi)


def assert_batched_matches_alone(factors, side, inverse, u, k):
    # one application over all rows gives each head group, bit for bit, what
    # that head's own plan gives its rows
    op = apply_epv_inverse if inverse else apply_epv
    batched = op(OperatorPlan.build(factors, side), u)
    alone = [op(OperatorPlan.build([f], side), u.select(slice(h * k, (h + 1) * k)))
             for h, f in enumerate(factors)]
    assert np.array_equal(batched.values, np.concatenate([a.values for a in alone]))


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("inverse", [False, True])
def test_batched_plan_matches_each_head_alone(three_complex_heads, side, inverse):
    # complex data on the plans of complex Q
    grid, factors = three_complex_heads
    assert_batched_matches_alone(factors, side, inverse, head_batch(grid, 2), 2)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("inverse", [False, True])
def test_batched_real_plan_matches_each_head_alone(three_heads, side, inverse):
    # the same on real data, which a real plan maps without a complex pass
    grid, factors = three_heads
    assert_batched_matches_alone(factors, side, inverse, head_batch(grid, 2, imag=0.0), 2)


def test_decay_check_keeps_each_head_scale(three_heads):
    # head 2's rows do not decay; head 1's sup-norm is 1e8 times larger, which
    # would hide that under one scale taken over the whole batch
    grid, factors = three_heads
    rows = np.stack([1e8 * np.exp(-grid.x**2), np.ones(grid.size), np.exp(-grid.x**2)])
    u = SampledFunction(grid, rows, 0.0, 0.0)
    with pytest.raises(GridResolutionError):
        apply_epv(OperatorPlan.build(factors, "plus"), u)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_undamp_multiply_equals_divide(kou_setup, side):
    # the plan undamps by multiplying with 1/damp, which numpy's complex
    # division by a real array computes as well; a numpy whose division
    # rounds otherwise fails here instead of moving prices
    grid, f = kou_setup
    op = plan(f, side)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 1, grid.size)) + 1j * rng.standard_normal((2, 1, grid.size))
    assert np.array_equal(g / op.damp, g * op.undamp)


# -- real plans: real Q, Hermitian symbols, half-spectrum transforms -------

@pytest.fixture(scope="module", params=["brownian", "kou", "kobol"])
def real_q(request):
    # the band and grid size of configs/kobol_single.json, at a real Q
    model = {"brownian": BM2, "kou": KOU, "kobol": KOBOL}[request.param]
    grid = build_grid(-0.5, 0.5, m_power=13, models=[model])
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
    op = OperatorPlan.build([f], side)
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
    half, full = (2, 1, grid.size // 2 + 1), (2, 1, grid.size)
    real = OperatorPlan.build([f, factorize_rational(KOU, 2.1, grid)], "plus")
    assert real.real and real.forward.shape == real.inverse.shape == half
    assert real.head(2).real and real.head(2).forward.shape[-1] == half[-1]
    mixed = OperatorPlan.build([f, factorize_rational(KOU, 2.1 + 0.5j, grid)], "plus")
    assert not mixed.real and mixed.forward.shape == mixed.inverse.shape == full
    assert not mixed.head(1).real and mixed.head(1).forward.shape[-1] == grid.size
