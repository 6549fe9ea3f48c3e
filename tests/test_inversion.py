import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsbarrier.errors import PlanError
from rsbarrier.inversion import (
    InversionPlan,
    SINH_GAMMA,
    gwr_invert,
    gwr_nodes,
    sinh_invert,
    sinh_nodes,
)

import builders as build

E_INV = 0.36787944117144233  # exp(-1)


def sinh_of(fn, tau, plan):
    """The sinh inversion of ``fn``, evaluated on the plan's node array."""
    return sinh_invert(fn(sinh_nodes(plan)[0]), tau, plan)


def test_gwr_nodes_ladder():
    assert np.allclose(gwr_nodes(math.log(2.0), 2), [1.0, 2.0, 3.0, 4.0])


def test_gwr_nodes_scaling():
    assert np.allclose(gwr_nodes(2.0, 6), 0.5 * gwr_nodes(1.0, 6))


def test_gwr_nodes_count_and_max():
    nodes = gwr_nodes(1.0, 8)
    assert len(nodes) == 16
    assert nodes[-1] == pytest.approx(16 * math.log(2.0))
    assert np.all(np.diff(nodes) > 0)


def test_gwr_constant_transform_exact():
    # 1/q -> 1, reproduced exactly (up to one rounding) for every n_G
    for n_gaver in (4, 6, 8, 10):
        q = gwr_nodes(0.7, n_gaver)
        assert gwr_invert(1.0 / q, 0.7, n_gaver) == pytest.approx(1.0, abs=1e-15)


def test_gwr_exponential_pair():
    q = gwr_nodes(1.0, 8)
    assert abs(gwr_invert(1.0 / (q + 1.0), 1.0, 8) - E_INV) < 1e-6


def test_gwr_ramp_pair():
    q = gwr_nodes(2.0, 8)
    assert abs(gwr_invert(1.0 / q**2, 2.0, 8) - 2.0) < 1e-7


def test_gwr_rejects_bad_depth():
    with pytest.raises(PlanError):
        gwr_nodes(1.0, 7)
    with pytest.raises(PlanError):
        gwr_invert([1.0] * 36, 1.0, 18)  # beyond the 4..16 table guard
    with pytest.raises(PlanError):
        gwr_invert([1.0] * 10, 1.0, 8)


@settings(max_examples=20)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(0.5, 2.5))
def test_gwr_polynomial_extrapolation(coeffs, tau):
    # double precision: the table floor sits well above the exact-arithmetic one
    q = gwr_nodes(tau, 8)
    samples = sum(c / q ** (k + 1) for k, c in enumerate(coeffs))
    truth = sum(c * tau**k / math.factorial(k) for k, c in enumerate(coeffs))
    res = gwr_invert(np.atleast_1d(samples), tau, 8)
    assert abs(res - truth) < 2e-5 * max(1.0, max(abs(c) for c in coeffs))


def test_sinh_known_pairs_default_nodes():
    plan = build.sinh(1.0, sinh_nodes=64)
    assert abs(sinh_of(lambda q: 1.0 / (q + 1.0), 1.0, plan) - E_INV) < 1e-10

    plan = build.sinh(1.5, sinh_nodes=64)
    assert abs(sinh_of(lambda q: 1.0 / q, 1.5, plan) - 1.0) < 1e-10

    plan = build.sinh(2.0, sinh_nodes=64)
    assert abs(sinh_of(lambda q: 1.0 / q**2, 2.0, plan) - 2.0) < 1e-10


def test_sinh_forty_evaluations():
    # 40 nodes to evaluate via conjugate symmetry (80 symmetric nodes)
    plan = build.sinh(1.0, sinh_nodes=80)
    assert len(sinh_nodes(plan)[0]) == 40
    assert abs(sinh_of(lambda q: 1.0 / (q + 1.0), 1.0, plan) - E_INV) < 1e-10


@pytest.mark.parametrize("n_nodes", [79, 80])
def test_sinh_samples_invert_as_the_evaluator_does(n_nodes):
    # samples taken node by node give the bits of the evaluator over the node
    # array, an odd count's real-axis middle node included; a sample count
    # other than the nodes' is refused
    plan = build.sinh(1.0, sinh_nodes=n_nodes)
    fn = lambda q: 1.0 / (q + 1.0)  # noqa: E731
    samples = [fn(q) for q in sinh_nodes(plan)[0]]
    assert len(samples) == (n_nodes + 1) // 2
    res = sinh_invert(samples, 1.0, plan)
    assert res == sinh_of(fn, 1.0, plan)
    assert abs(res - E_INV) < 1e-10
    for wrong in (samples[1:], samples + samples[:1]):
        with pytest.raises(PlanError):
            sinh_invert(wrong, 1.0, plan)


def test_sinh_plan_refuses_a_maturity_its_roundoff_cannot_afford():
    # exp(sigma0*tau) scales every term's roundoff; at the default target the
    # cap on sigma0*tau is ln(1e-10/3 / 2.3e-16) = 11.9, which the floor
    # sigma0 >= 0.5 passes once tau passes 23.8
    plan = build.sinh(23.7)
    assert plan.sigma0 * 23.7 <= math.log(1e-10 / 3.0 / 2.3e-16)
    for tau in (24.0, 200.0, 1e300):
        with pytest.raises(PlanError, match="gwr"):
            build.sinh(tau)


def test_sinh_node_symmetry_and_sector():
    # the upper half of a symmetric set: 24 nodes above the real axis, rising
    plan = build.sinh(1.0, sinh_nodes=48)
    q, w = sinh_nodes(plan)
    assert len(q) == len(w) == 24
    assert np.all(q.imag > 0.0) and np.all(np.diff(q.imag) > 0.0)
    assert np.all(np.abs(np.angle(q)) < SINH_GAMMA)
    # apex stays right of the origin even though the tails go far left
    assert q.real.max() > 0.0
    assert q.real.min() < 0.0


def test_sinh_convergence_signature():
    # log error decreases ~linearly with the node count until the floor
    errs = []
    for n in (10, 16, 24, 32, 40, 48):
        plan = build.sinh(1.0, sinh_nodes=n, sinh_target_tol=1e-13)
        errs.append(abs(sinh_of(lambda q: 1.0 / (q + 1.0), 1.0, plan) - E_INV))
    logs = np.log(errs)
    assert np.all(np.diff(logs) < 0)
    assert logs[0] - logs[-1] > 11.0  # several orders across the ladder


def test_sinh_doubling_stability():
    v1 = sinh_of(lambda q: 1.0 / (q + 1.0), 1.0, build.sinh(1.0, sinh_nodes=64))
    v2 = sinh_of(lambda q: 1.0 / (q + 1.0), 1.0, build.sinh(1.0, sinh_nodes=128))
    assert abs(v1 - v2) < 1e-9


def test_inversion_plan_rejects_unknown_backend():
    with pytest.raises(PlanError):
        InversionPlan(backend="talbot")
