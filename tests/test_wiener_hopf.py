import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rsbarrier.epv import effective_omega
from rsbarrier.errors import FactorizationDegenerateError
from rsbarrier.models import BrownianDrift, KoBoL, KouJumpDiffusion
from rsbarrier.wiener_hopf import (
    factorize,
    factorize_integral,
    factorize_rational,
)

import builders as build
from oracles import IntegralRoute, log_factor_cauchy_reference

BM2 = BrownianDrift(mu=0.0, sigma2=2.0)
KOU = KouJumpDiffusion(mu=0.0, sigma2=0.04, lambda_j=1.0, p=0.5,
                       alpha_plus=10.0, alpha_minus=5.0)
KOU_DRIFT = KouJumpDiffusion(mu=0.05, sigma2=0.04, lambda_j=1.0, p=0.4,
                             alpha_plus=10.0, alpha_minus=5.0)
KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)


@pytest.fixture(scope="module")
def grid():
    return build.grid(-1.0, 1.0, m_power=12, models=[BM2, KOU, KOBOL])


def test_brownian_roots_and_closed_form(grid):
    f = factorize_rational(BM2, 1.0, grid)
    assert f.roots_lower == [pytest.approx(-1j)]
    assert f.roots_upper == [pytest.approx(1j)]
    xi = np.linspace(-60, 60, 241)
    assert np.max(np.abs(f.phi_plus(xi) - 1.0 / (1.0 - 1j * xi))) < 1e-12
    assert np.max(np.abs(f.phi_minus(xi) - 1.0 / (1.0 + 1j * xi))) < 1e-12
    prod = f.phi_plus(xi) * f.phi_minus(xi)
    assert np.max(np.abs(prod - 1.0 / (1.0 + xi**2))) < 1e-12


def test_normalization_at_zero(grid):
    for model, Q in ((BM2, 1.0), (KOU, 0.5), (KOU_DRIFT, 3 + 4j)):
        f = factorize_rational(model, Q, grid)
        assert f.phi_plus(0.0) == pytest.approx(1.0, abs=1e-12)
        assert f.phi_minus(0.0) == pytest.approx(1.0, abs=1e-12)


def test_kou_four_roots_split(grid):
    f = factorize_rational(KOU, 1.0, grid)
    assert len(f.roots_lower) == 2 and len(f.roots_upper) == 2
    assert f.product_residual(0.0) < 1e-12


@pytest.mark.parametrize("Q", [0.5, 1.0, 10.0, 3 + 4j])
def test_product_identity_rational(grid, Q):
    for model in (BM2, KOU, KOU_DRIFT):
        f = factorize_rational(model, Q, grid)
        assert f.product_residual(0.0) < 1e-10


@pytest.mark.parametrize("Q", [0.5, 1.0, 10.0, 3 + 4j])
def test_product_identity_integral(grid, Q):
    f = factorize_integral(KOBOL, Q, grid)
    assert f.product_residual(0.0) < 1e-6


def test_integral_matches_rational_brownian(grid):
    fr = factorize_rational(BM2, 1.0, grid)
    fi = factorize_integral(IntegralRoute(BM2, 1.0), 1.0, grid)
    sel = np.abs(grid.xi) <= 50.0
    for omega in (0.0, -0.4, 0.4):
        cs, csr = fi.contour_symbols(omega), fr.contour_symbols(omega)
        assert np.max(np.abs(cs.phi_plus[sel] - csr.phi_plus[sel])) < 1e-8
        assert np.max(np.abs(cs.phi_minus[sel] - csr.phi_minus[sel])) < 1e-8


def test_integral_matches_rational_kou(grid):
    # genuine split exercise: the jump part is not in the comparison symbol
    fr = factorize_rational(KOU_DRIFT, 1.0, grid)
    fi = factorize_integral(IntegralRoute(KOU_DRIFT, 1.0), 1.0, grid)
    for omega in (0.0, -0.4, 0.4):
        cs, csr = fi.contour_symbols(omega), fr.contour_symbols(omega)
        assert np.max(np.abs(cs.phi_plus - csr.phi_plus)) < 2e-5
        assert np.max(np.abs(cs.phi_minus - csr.phi_minus)) < 2e-5


def test_kobol_self_check(grid):
    f = factorize_integral(KOBOL, 2.0, grid)
    assert f.product_residual(0.0) < 1e-6
    cs = f.contour_symbols(0.0)
    assert abs(cs.phi_plus[0] - 1.0) < 1e-9  # xi = 0 bin
    assert abs(cs.phi_minus[0] - 1.0) < 1e-9


def test_kobol_against_cauchy_reference(grid):
    f = factorize_integral(KOBOL, 2.0, grid)
    cs = f.contour_symbols(0.0)
    for target in (0.75, 3.0, -11.1):
        idx = int(np.argmin(np.abs(grid.xi - target)))
        ref = np.exp(log_factor_cauchy_reference(KOBOL, 2.0, grid.xi[idx],
                                                 side="plus", omega_line=-0.6))
        assert abs(ref - cs.phi_plus[idx]) < 1e-4


def _assert_symbols_equal(fac, fresh, omega):
    a, b = fac.contour_symbols(omega), fresh.contour_symbols(omega)
    assert np.array_equal(a.phi_plus, b.phi_plus)
    assert np.array_equal(a.phi_minus, b.phi_minus)


def test_kept_split_arrays_do_not_change_symbols():
    # the grid keeps KoBoL's Q-free split arrays on its own three contours;
    # symbols read through them equal those of a fresh grid, bit for bit
    args = dict(lower=-1.0, upper=1.0, m_power=12, models=[KOBOL])
    shared = build.grid(**args)
    kept = {(KOBOL, 0.0), (KOBOL, shared.omega_plus), (KOBOL, shared.omega_minus)}
    # Q = 1 has a decay-limited plus contour; 20 + 15i is a sinh-like node
    for Q in (1.0, 20.0 + 15.0j, 10.0):
        fac = factorize_integral(KOBOL, Q, shared)
        fresh = factorize_integral(KOBOL, Q, build.grid(**args))
        for side in ("plus", "minus"):
            _assert_symbols_equal(fac, fresh, effective_omega(fac, side))
        assert set(shared.split_arrays) <= kept
    assert effective_omega(factorize_integral(KOBOL, 1.0, shared), "plus") \
        not in (shared.omega_plus, shared.omega_minus, 0.0)
    assert set(shared.split_arrays) == kept
    for psi, comp in shared.split_arrays.values():
        assert not psi.flags.writeable and not comp.flags.writeable


def test_kept_split_arrays_shared_by_threads():
    # each kept entry is written once, whole and read-only: every node of a
    # process reads it and forked workers inherit it; even 4 threads that
    # fill and read one grid's store at once get a fresh grid's symbols
    args = dict(lower=-1.0, upper=1.0, m_power=10, models=[KOBOL])
    shared = build.grid(**args)
    qs = [10.0, 20.0 + 15.0j, 20.0 - 15.0j, 5.0 + 2.0j, 8.0, 12.0 + 1.0j] * 2

    def symbols(grid, Q):
        fac = factorize_integral(KOBOL, Q, grid)
        out = []
        for side in ("plus", "minus"):
            cs = fac.contour_symbols(effective_omega(fac, side))
            out += [cs.phi_plus, cs.phi_minus]
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda Q: symbols(shared, Q), qs))
    finally:
        sys.setswitchinterval(interval)
    for Q, got in zip(qs, results):
        want = symbols(build.grid(**args), Q)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(shared.split_arrays) == 3


def test_symmetric_model_conjugate_factors(grid):
    # symmetric law: inf =d= -sup, so phi-(xi) = phi+(-xi) = conj(phi+(xi))
    # on the real axis for real Q
    sym = KouJumpDiffusion(mu=0.0, sigma2=0.04, lambda_j=1.0, p=0.5,
                           alpha_plus=7.0, alpha_minus=7.0)
    f = factorize_rational(sym, 1.0, grid)
    xi = np.linspace(-40, 40, 101)
    assert np.allclose(f.phi_minus(xi), f.phi_plus(-xi), atol=1e-12)
    assert np.allclose(f.phi_minus(xi), np.conj(f.phi_plus(xi)), atol=1e-12)


def test_transform_bound_on_real_axis(grid):
    for model, Q in ((BM2, 1.0), (KOU, 0.5), (KOU_DRIFT, 10.0)):
        f = factorize_rational(model, Q, grid)
        xi = np.linspace(-300, 300, 2001)
        assert np.max(np.abs(f.phi_plus(xi))) <= 1.0 + 1e-12
        assert np.max(np.abs(f.phi_minus(xi))) <= 1.0 + 1e-12


def test_hermitian_symmetry_real_q(grid):
    f = factorize_rational(KOU_DRIFT, 2.0, grid)
    xi = np.linspace(-50, 50, 101)
    assert np.allclose(f.phi_plus(-xi), np.conj(f.phi_plus(xi)), atol=1e-12)


def test_half_plane_analyticity_rational(grid):
    # poles of phi+ are the lower roots; zero-free above the axis
    f = factorize_rational(KOU, 1.0, grid)
    assert all(r.imag < 0 for r in f.roots_lower)
    assert all(r.imag > 0 for r in f.roots_upper)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-30, 30, 64) + 1j * rng.uniform(0.0, 5.0, 64)
    vals = f.phi_plus(pts)
    assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) > 0)
    assert f.decay_plus > 0 and f.decay_minus > 0


def test_degenerate_small_q(grid):
    with pytest.raises(FactorizationDegenerateError):
        factorize_rational(BM2, 1e-18, grid)


def test_drift_only_brownian(grid):
    f = factorize_rational(BrownianDrift(mu=0.5, sigma2=0.0), 1.0, grid)
    assert len(f.roots_lower) == 1 and len(f.roots_upper) == 0
    # positive drift: infimum stays at zero, phi_minus identically one
    xi = np.linspace(-20, 20, 41)
    assert np.allclose(f.phi_minus(xi), 1.0)
    assert f.product_residual(0.0) < 1e-12


def test_dispatcher(grid):
    # the model names the route: the roots of Q + psi, or the spectral split
    assert BM2.rational and not KOBOL.rational
    rational, integral = factorize(BM2, 1.0, grid), factorize(KOBOL, 1.0, grid)
    assert rational.roots_lower == factorize_rational(BM2, 1.0, grid).roots_lower
    assert rational.roots_lower and rational.roots_upper
    assert integral.roots_lower == integral.roots_upper == []
    assert integral.decay_plus == factorize_integral(KOBOL, 1.0, grid).decay_plus


def test_brownian_sup_law_cdf(grid):
    # inverse transform of phi+ is the exponential density beta*exp(-beta*y)
    # on y > 0; its survival function via a damped sinh-clustered quadrature
    # of the stored factor matches 1 - CDF to 1e-8 at three points
    f = factorize_rational(BM2, 1.0, grid)
    beta = float(-f.roots_lower[0].imag)
    omega = -0.4
    y = np.linspace(-10.0, 10.0, 200001)
    eta = np.sinh(y)
    zeta = eta + 1j * omega
    deta = np.cosh(y)
    for t in (0.5, 1.0, 2.0):
        # P(sup >= t) = (1/2pi) int phi+(xi) e^{-i xi t} / (i xi) d xi (damped)
        integrand = np.exp(-1j * t * zeta) * f.phi_plus(zeta) / (1j * zeta) * deta
        tail = np.trapezoid(integrand, dx=y[1] - y[0]).real / (2 * np.pi)
        assert tail == pytest.approx(np.exp(-beta * t), abs=1e-8)
