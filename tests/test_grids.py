import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsbarrier.grids import (
    Region,
    SampledFunction,
    indicator_soft,
)
from rsbarrier.models import BrownianDrift, KouJumpDiffusion

import builders as build
from oracles import full_by_masks, sup_norm_by_masks

BM = BrownianDrift(mu=0.0, sigma2=1.0)


def small_grid(m_power=10):
    return build.grid(-1.0, 1.0, m_power=m_power, models=[BM])


def test_barriers_on_nodes_and_conjugacy():
    g = small_grid()
    assert g.lower == pytest.approx(-1.0, abs=1e-12)
    assert g.upper == pytest.approx(1.0, abs=1e-12)
    dxi = g.xi[1] - g.xi[0]
    assert g.dx * dxi == pytest.approx(2 * np.pi / g.size)


def test_domain_extent():
    g = small_grid()
    band = g.upper - g.lower
    assert g.x[0] == pytest.approx(g.lower - 10 * band, rel=0.05)
    assert g.x[-1] == pytest.approx(g.upper + 10 * band, rel=0.05)


def test_damping_inside_strips():
    kou = KouJumpDiffusion(mu=0.0, sigma2=0.1, lambda_j=1.0, p=0.5,
                           alpha_plus=3.0, alpha_minus=2.0)
    g = build.grid(-1.0, 1.0, m_power=10, models=[kou])
    assert -3.0 < g.omega_plus < 0.0 < g.omega_minus < 2.0
    assert g.omega_plus == pytest.approx(-0.75)
    assert g.omega_minus == pytest.approx(0.5)


def test_constant_and_full_roundtrip():
    g = small_grid()
    u = SampledFunction.constant(g, 2.0 + 1.0j)
    assert np.allclose(u.full(), 2.0 + 1.0j)
    arbitrary = np.tanh(g.x) + 1.5
    v = SampledFunction.from_samples(g, arbitrary, c_lo=0.5, c_hi=2.5)
    assert np.allclose(v.full(), arbitrary)


def test_samples_complex_only_when_a_part_is():
    # float64 unless the residual or a far field is complex; then all three
    # are complex128
    g = small_grid()
    real = np.exp(-g.x**2)
    assert SampledFunction(g, real, 0, 1.0).values.dtype == np.float64
    assert SampledFunction.step(g, Region.BELOW_UPPER, 2).c_lo.dtype == np.float64
    for u in (SampledFunction(g, real, 0.0, 1j), SampledFunction(g, real + 0j, 0.0, 1.0),
              SampledFunction.constant(g, 1.0 + 0j), SampledFunction.zero(g, (2,), complex)):
        assert u.values.dtype == u.c_lo.dtype == u.c_hi.dtype == np.complex128


def test_step_farfield_and_midvalue():
    g = small_grid()
    u = SampledFunction.step(g, Region.AT_OR_ABOVE_UPPER, 2.0)
    assert np.allclose(u.c_lo, 0.0) and np.allclose(u.c_hi, 2.0)
    full = u.full()
    assert full[g.upper_index - 1] == pytest.approx(0.0)
    assert full[g.upper_index] == pytest.approx(1.0)  # spectral mid-value
    assert full[g.upper_index + 1] == pytest.approx(2.0)


def test_soft_partition_and_weights():
    g = small_grid()
    w1 = SampledFunction.step(g, Region.BELOW_UPPER, 1.0).full()
    w2 = SampledFunction.step(g, Region.AT_OR_ABOVE_UPPER, 1.0).full()
    assert np.allclose(w1 + w2, 1.0)
    assert w1[g.upper_index] == 0.5
    rng = np.random.default_rng(5)
    u = SampledFunction.from_samples(g, rng.standard_normal(g.size), 0.0, 0.7)
    parts = indicator_soft(u, Region.BELOW_UPPER).add(
        indicator_soft(u, Region.AT_OR_ABOVE_UPPER))
    assert np.allclose(parts.full(), u.full(), atol=1e-14)


def test_batch_shapes_and_algebra():
    g = small_grid()
    vals = np.stack([np.exp(-g.x**2), np.cos(g.x) * np.exp(-0.5 * g.x**2)])
    u = SampledFunction(g, vals, [0.0, 0.0], [0.0, 0.0])
    assert u.shape == (2,)
    s = u.scale(np.array([2.0, -1.0]))
    assert np.allclose(s.full()[0], 2 * u.full()[0])
    assert np.allclose(s.full()[1], -u.full()[1])
    one = u.select(1)
    assert one.shape == ()
    u.assign(0, one)
    assert np.allclose(u.full()[0], u.full()[1])


@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
def test_indicator_linearity_property(a, b):
    g = small_grid(m_power=8)
    u = SampledFunction.constant(g, a)
    v = SampledFunction.constant(g, b)
    lhs = indicator_soft(u.add(v), Region.AT_OR_BELOW_LOWER)
    rhs = indicator_soft(u, Region.AT_OR_BELOW_LOWER).add(
        indicator_soft(v, Region.AT_OR_BELOW_LOWER))
    assert np.allclose(lhs.full(), rhs.full(), atol=1e-12)


def test_sliced_full_and_norm_equal_mask_formula():
    g = small_grid()
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
    # each of the first two rows peaks on one side of the split at ref_index
    values[0, g.ref_index] = values[1, g.ref_index - 1] = 10.0
    u = SampledFunction(g, values, [-5.0, 5.0, 0.5j], [5.0, -5.0, 0.25])
    rows = [u.select(i) for i in range(3)]
    assert (np.array_equal(u.full(), full_by_masks(u))
            and [r.sup_norm() for r in rows] == [sup_norm_by_masks(r) for r in rows])
