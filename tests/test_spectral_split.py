"""What the Wiener-Hopf factorizations build per spectral value, and the
branch-tracked log of the spectral split, bit for bit."""

import hashlib

import numpy as np
import pytest

from rsbarrier.epv import OperatorPlan, effective_omega
from rsbarrier.errors import ContourError
from rsbarrier.models import KoBoL, KouJumpDiffusion
from rsbarrier.wiener_hopf import WHFactorization, _continuous_log, factorize

import builders as build

KOBOL = KoBoL(nu=1.2, c=1.0, lambda_plus=8.0, lambda_minus=-4.0, mu=0.0)
KOU = KouJumpDiffusion(mu=0.05, sigma2=0.04, lambda_j=1.0, p=0.4,
                       alpha_plus=10.0, alpha_minus=5.0)
# the grid's Q-free arrays of the spectral split
SPLIT_AXIS = ("split_eta", "split_mask", "split_index")


def _grid():
    return build.grid(-1.0, 1.0, m_power=10, models=[KOBOL, KOU])


def _unwrapped_log(values):
    """The branch-tracked log as np.unwrap takes it, negated."""
    return -(np.log(np.abs(values)) + 1j * np.unwrap(np.angle(values)))


S = np.linspace(-1.0, 1.0, 4096)
# a path whose principal angle stays within (-pi, pi]
CALM = (2.0 + S) * (1.0 + 0.5 * np.exp(3j * S))
# a path whose angle rises to 4 rad and back, so its principal angle jumps
WRAPPING = (1.0 + S**2) * np.exp(4j * (1.0 - S**2))
SIGNED_ZERO = CALM.copy()
SIGNED_ZERO[[0, 7, 2048]] = [complex(2.0, -0.0), complex(1.5, -0.0), complex(1.0, -0.0)]


@pytest.mark.parametrize("values, unwraps", [
    (CALM, 0), (WRAPPING, 1), (SIGNED_ZERO, 0),
], ids=["calm", "wrapping", "signed-zero"])
def test_continuous_log_bits(monkeypatch, values, unwraps):
    # the signed-zero path holds three -0.0 angles, the first sample's among them
    assert np.angle(SIGNED_ZERO[[0, 7, 2048]]).tobytes() == np.full(3, -0.0).tobytes()
    want = _unwrapped_log(values)
    calls = []
    unwrap = np.unwrap
    monkeypatch.setattr(np, "unwrap", lambda a: calls.append(1) or unwrap(a))
    got = _continuous_log(values.copy(), "test")
    assert got.tobytes() == want.tobytes()
    assert len(calls) == unwraps


@pytest.mark.parametrize("values, message", [
    (np.where(S == S[100], 0.0, CALM), "vanishes"),
    (np.where(S > 0.0, CALM * np.exp(2.8j), CALM), "undersampled"),
    (np.exp(2j * np.pi * (S + 1.0) / 2.0), "winds"),
], ids=["vanishing", "undersampled", "winding"])
def test_continuous_log_refusals(values, message):
    with pytest.raises(ContourError, match=message):
        _continuous_log(values.astype(np.complex128), "test")


def _plans(model, Q, grid):
    fac = factorize(model, Q, grid)
    return fac, [OperatorPlan.build(fac, side) for side in ("plus", "minus")]


def test_q_free_split_arrays_built_once_per_grid(monkeypatch):
    # the oversampled frequencies, the half-plane mask and the grid
    # frequencies' places are the grid's: a second Q reads the first one's
    # objects and builds none of them again
    grid = _grid()
    _plans(KOBOL, 10.0, grid)
    kept = {name: grid.__dict__[name] for name in SPLIT_AXIS}

    def refuse(*args, **kwargs):
        raise AssertionError("a Q-free array of the split was built again")

    for name in ("arange", "rint"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.fft, "fftfreq", refuse)
    _plans(KOBOL, 20.0 + 15.0j, grid)
    assert all(getattr(grid, name) is kept[name] for name in SPLIT_AXIS)


def test_plans_build_only_the_factor_they_read(monkeypatch):
    # a plan reads phi+ on the plus contour and phi- on the minus contour;
    # neither route evaluates the other factor there
    grid = _grid()
    evaluated = []
    for side in ("plus", "minus"):
        original = getattr(WHFactorization, f"phi_{side}")
        monkeypatch.setattr(WHFactorization, f"phi_{side}",
                            lambda self, xi, s=side, f=original: evaluated.append(s) or f(self, xi))
    _plans(KOU, 2.0, grid)
    assert sorted(evaluated) == ["minus", "plus"]

    exp = np.exp
    complex_exps = []

    def counting(x, *args, **kwargs):
        if np.iscomplexobj(x):
            complex_exps.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    fac, _ = _plans(KOBOL, 20.0 + 15.0j, grid)
    assert complex_exps == [(grid.size,)] * 2
    # the factor a plan did not read is built when the product identity asks
    for cs in list(fac._contours.values()):
        assert (cs.phi_plus is None) != (cs.phi_minus is None)
        assert fac.product_residual(cs.omega) < 1e-6


@pytest.mark.parametrize("model, Q, digest", [
    (KOBOL, 1.0, "58264852c501f40b"),
    (KOBOL, 20.0 + 15.0j, "715616edee8c0852"),
    (KOU, 2.0, "70a30a1f8f09899a"),
], ids=["kobol-capped", "kobol-sinh-node", "kou"])
def test_both_factors_keep_their_bits(model, Q, digest):
    # without a side both factors are built, with the bits they had when
    # every contour built both; one side at a time builds the same arrays
    grid = _grid()
    fac, fresh = factorize(model, Q, grid), factorize(model, Q, grid)
    h = hashlib.sha256()
    for omega in (0.0, effective_omega(fac, "plus"), effective_omega(fac, "minus")):
        cs = fac.contour_symbols(omega)
        h.update(cs.phi_plus.tobytes())
        h.update(cs.phi_minus.tobytes())
        for side in ("minus", "plus"):
            one = getattr(fresh.contour_symbols(omega, side), f"phi_{side}")
            assert one.tobytes() == getattr(cs, f"phi_{side}").tobytes()
    assert h.hexdigest()[:16] == digest
