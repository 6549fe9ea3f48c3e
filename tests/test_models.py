import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsbarrier import models
from rsbarrier.errors import DomainError, PoleError
from rsbarrier.models import (
    BrownianDrift,
    KouJumpDiffusion,
    KoBoL,
    analyticity_strip,
    char_exponent,
)

BM = BrownianDrift(mu=0.0, sigma2=1.0)
KOU = KouJumpDiffusion(mu=0.0, sigma2=0.04, lambda_j=1.0, p=0.5, alpha_plus=10.0, alpha_minus=5.0)
KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)

ALL_MODELS = [BM, BrownianDrift(mu=0.3, sigma2=0.5), KOU, KOBOL,
              KoBoL(nu=0.6, c=0.5, lambda_plus=6.0, lambda_minus=-9.0, mu=0.1)]


def kou_oracle(model, xi):
    # independent direct arithmetic on the double-exponential jump transform
    up = model.p * model.alpha_plus / (model.alpha_plus - 1j * xi)
    dn = (1 - model.p) * model.alpha_minus / (model.alpha_minus + 1j * xi)
    return 0.5 * model.sigma2 * xi**2 - 1j * model.mu * xi + model.lambda_j * (1 - up - dn)


def test_brownian_zero():
    assert char_exponent(BM, 0.0) == 0.0


def test_brownian_unit():
    assert char_exponent(BM, 1.0) == pytest.approx(0.5)


def test_kou_reference_value():
    # frozen from the jump-transform oracle: 0.04418126 + 0.04664890i
    val = char_exponent(KOU, 1.0)
    assert val.real == pytest.approx(0.04418126, abs=1e-7)
    assert val.imag == pytest.approx(0.04664890, abs=1e-7)
    assert val == pytest.approx(kou_oracle(KOU, 1.0), abs=1e-14)


def test_characteristic_function_time_derivative():
    # finite difference of exp(-t psi) in t at t=0 must reproduce -psi
    xi = np.linspace(-50.0, 50.0, 41)
    for model in ALL_MODELS:
        psi = char_exponent(model, xi)
        t = 1e-7
        fd = (np.exp(-t * psi) - np.exp(t * psi)) / (2 * t)
        assert np.max(np.abs(fd + psi) / (1 + np.abs(psi))) < 1e-6


def test_psi_zero_at_origin_all_models():
    for model in ALL_MODELS:
        assert abs(char_exponent(model, 0.0)) < 1e-14


def test_hermitian_symmetry_real_axis():
    xi = np.linspace(-40, 40, 201)
    for model in ALL_MODELS:
        a = char_exponent(model, xi)
        b = char_exponent(model, -xi)
        assert np.allclose(b, np.conj(a), atol=1e-12)


def test_nonnegative_real_part_on_grid():
    xi = np.linspace(-200, 200, 10_000)
    for model in ALL_MODELS:
        assert np.min(char_exponent(model, xi).real) > -1e-10


def test_strip_brownian():
    assert analyticity_strip(BM) == (-math.inf, math.inf)


def test_strip_kou():
    # pole locations of the jump transform: -i*alpha_plus and +i*alpha_minus
    assert analyticity_strip(KOU) == (-10.0, 5.0)


def test_strip_kobol():
    assert analyticity_strip(KOBOL) == (-4.0, 8.0)


def test_strip_contains_analytic_points():
    for model in ALL_MODELS:
        lo, hi = analyticity_strip(model)
        span_lo = -2.0 if math.isinf(lo) else 0.9 * lo
        span_hi = 2.0 if math.isinf(hi) else 0.9 * hi
        for im in (span_lo, 0.5 * span_lo, 0.0, 0.5 * span_hi, span_hi):
            char_exponent(model, 3.0 + 1j * im)  # must not raise


def test_kou_pole_error():
    with pytest.raises(PoleError):
        char_exponent(KOU, -10.0j)
    with pytest.raises(PoleError):
        char_exponent(KOU, 5.0j)


def test_domain_errors():
    with pytest.raises(DomainError):
        char_exponent(KOU, 6.0j)
    with pytest.raises(DomainError):
        char_exponent(KOBOL, 8.0j)  # strict interior for KoBoL
    with pytest.raises(DomainError):
        char_exponent(KOBOL, -4.0j)


def test_kobol_nu_one_rejected():
    with pytest.raises(ValueError):
        KoBoL(nu=1.0, c=1.0, lambda_plus=5.0, lambda_minus=-5.0, mu=0.0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        BrownianDrift(mu=0.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        KouJumpDiffusion(mu=0, sigma2=0.1, lambda_j=1, p=1.5, alpha_plus=1, alpha_minus=1)
    with pytest.raises(ValueError):
        KoBoL(nu=0.5, c=1.0, lambda_plus=-2.0, lambda_minus=-5.0, mu=0.0)
    with pytest.raises(ValueError):
        KouJumpDiffusion(mu=0, sigma2=0.1, lambda_j=math.nan, p=0.5, alpha_plus=1, alpha_minus=1)
    with pytest.raises(ValueError):
        KoBoL(nu=0.5, c=math.inf, lambda_plus=2.0, lambda_minus=-5.0, mu=0.0)


@given(st.floats(-30, 30), st.floats(-0.9, 0.9))
def test_deriv_matches_difference_quotient(re, im_frac):
    model = KOU
    lo, hi = analyticity_strip(model)
    xi = re + 1j * im_frac * (0.4 * min(-lo, hi))
    h = 1e-5
    fd = (char_exponent(model, xi + h) - char_exponent(model, xi - h)) / (2 * h)
    assert model.psi_deriv(xi) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_sinh_admissibility_flags():
    assert BM.sinh_inversion_admissible()
    assert KOBOL.sinh_inversion_admissible()  # nu > 1
    assert not KoBoL(nu=0.6, c=1.0, lambda_plus=5.0, lambda_minus=-5.0,
                     mu=0.2).sinh_inversion_admissible()
    assert KoBoL(nu=0.6, c=1.0, lambda_plus=5.0, lambda_minus=-5.0,
                 mu=0.0).sinh_inversion_admissible()


def test_half_lines_regular():
    # a diffusion part, or KoBoL's unbounded variation, makes both barriers
    # regular; a pure-jump or pure-drift path of bounded variation does not
    assert BM.half_lines_regular() and KOU.half_lines_regular()
    assert KOBOL.half_lines_regular()  # nu > 1
    assert not BrownianDrift(mu=0.3, sigma2=0.0).half_lines_regular()
    assert not KouJumpDiffusion(mu=0.1, sigma2=0.0, lambda_j=1.0, p=0.5, alpha_plus=10.0,
                                alpha_minus=5.0).half_lines_regular()
    assert not ALL_MODELS[-1].half_lines_regular()  # nu = 0.6


def test_comparison_symbol_reads_no_q():
    # the spectral split keeps psi and C per (regime, contour) for every Q,
    # which holds only while no family's comparison symbol takes Q; only
    # the non-rational families take that route and define one
    defining = [cls for cls in vars(models).values()
                if inspect.isclass(cls) and cls.__module__ == models.__name__
                and "comparison_symbol" in vars(cls)]
    assert KoBoL in defining
    for cls in defining:
        assert list(inspect.signature(cls.comparison_symbol).parameters) == ["self"], cls
        assert not cls.rational, cls
