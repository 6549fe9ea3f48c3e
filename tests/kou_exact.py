"""Closed-form EPV backend on piecewise-exponential functions.

For rational regimes the kernels of E+- are finite mixtures of exponentials,
so their action on functions built from terms c * x^p * exp(r*x) over
intervals is exact.  This backend exists to cross-validate the grid
realization; it keeps symbolic breakpoints and point masses (the inverse
operators differentiate jumps into atoms) and refuses anything it cannot
represent exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from rsbarrier.errors import ResourceLimitError
from rsbarrier.models import KouJumpDiffusion
from rsbarrier.wiener_hopf import WHFactorization

__all__ = ["PiecewiseExp", "ExactEpv"]

MAX_TERMS = 10_000
_TINY = 1e-300

Term = tuple[complex, complex, int]  # (coef, rate, power)


def _antiderivative(terms):
    """Symbolic antiderivative of sum c x^p e^{rx}; exact, same class."""
    out = []
    for c, r, p in terms:
        if abs(r) < _TINY:
            out.append((c / (p + 1), 0.0 + 0.0j, p + 1))
            continue
        coef, power = c, p
        while power > 0:
            out.append((coef / r, r, power))
            coef = -coef * power / r
            power -= 1
        out.append((coef / r, r, 0))
    return out


def _eval_terms(terms, x):
    return sum(c * (x**p if p else 1.0) * np.exp(r * x) for c, r, p in terms)


def _merge(terms):
    acc = {}
    for c, r, p in terms:
        key = (round(r.real, 14), round(r.imag, 14), p)
        acc[key] = acc.get(key, 0.0) + c
    out = [(c, complex(kr, ki), p) for (kr, ki, p), c in acc.items() if abs(c) > 1e-30]
    if len(out) > MAX_TERMS:
        raise ResourceLimitError("piecewise-exponential term count exceeded")
    return out


@dataclass
class PiecewiseExp:
    """Terms per interval between sorted breakpoints, plus point masses.

    pieces[i] lives on [breaks[i-1], breaks[i]) with the conventions
    pieces[0] on (-inf, breaks[0]) and pieces[-1] on [breaks[-1], inf).
    """

    breaks: list[float]
    pieces: list[list[Term]]
    atoms: dict[float, complex] = field(default_factory=dict)

    def __post_init__(self):
        assert len(self.pieces) == len(self.breaks) + 1
        assert all(a < b for a, b in zip(self.breaks, self.breaks[1:]))

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c) -> "PiecewiseExp":
        return cls([], [[(complex(c), 0.0 + 0.0j, 0)]])

    @classmethod
    def step_above(cls, h: float, c) -> "PiecewiseExp":
        return cls([h], [[], [(complex(c), 0.0 + 0.0j, 0)]])

    @classmethod
    def step_below(cls, h: float, c) -> "PiecewiseExp":
        return cls([h], [[(complex(c), 0.0 + 0.0j, 0)], []])

    # -- algebra ----------------------------------------------------------
    def _aligned(self, other: "PiecewiseExp"):
        breaks = sorted(set(self.breaks) | set(other.breaks))

        def refit(f):
            pieces = []
            for i in range(len(breaks) + 1):
                probe_lo = breaks[i - 1] if i > 0 else (breaks[0] - 1 if breaks else 0.0)
                j = bisect_right(f.breaks, probe_lo) if i > 0 else 0
                pieces.append(list(f.pieces[j]))
            return pieces

        return breaks, refit(self), refit(other)

    def __add__(self, other: "PiecewiseExp") -> "PiecewiseExp":
        breaks, a, b = self._aligned(other)
        pieces = [_merge(pa + pb) for pa, pb in zip(a, b)]
        atoms = dict(self.atoms)
        for pt, w in other.atoms.items():
            atoms[pt] = atoms.get(pt, 0.0) + w
        return PiecewiseExp(breaks, pieces, atoms)

    def scale(self, c) -> "PiecewiseExp":
        c = complex(c)
        return PiecewiseExp(list(self.breaks),
                            [[(tc * c, r, p) for tc, r, p in piece] for piece in self.pieces],
                            {pt: w * c for pt, w in self.atoms.items()})

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="right")
        out = np.zeros(x.shape, dtype=np.complex128)
        for i, piece in enumerate(self.pieces):
            sel = idx == i
            if np.any(sel) and piece:
                out[sel] = _eval_terms(piece, x[sel])
        return out if out.ndim else complex(out)

    # -- operators ----------------------------------------------------------
    def derivative(self) -> "PiecewiseExp":
        if self.atoms:
            raise ValueError("cannot differentiate atoms (delta' unsupported)")
        pieces = []
        for piece in self.pieces:
            new = []
            for c, r, p in piece:
                if p:
                    new.append((c * p, r, p - 1))
                if abs(r) > _TINY:
                    new.append((c * r, r, p))
            pieces.append(_merge(new))
        atoms = {}
        for i, b in enumerate(self.breaks):
            jump = (_eval_terms(self.pieces[i + 1], b) - _eval_terms(self.pieces[i], b))
            if abs(jump) > 1e-30:
                atoms[b] = jump
        return PiecewiseExp(list(self.breaks), pieces, atoms)

    def restrict_above(self, h: float, keep_boundary_atom: bool = False) -> "PiecewiseExp":
        """Multiply by 1_[h, inf); the atom exactly at h follows the flag."""
        breaks = sorted(set(self.breaks) | {h})
        pieces = []
        for i in range(len(breaks) + 1):
            lo = breaks[i - 1] if i > 0 else -math.inf
            if lo < h:
                pieces.append([])
            else:
                j = bisect_right(self.breaks, lo) if i > 0 else 0
                pieces.append(list(self.pieces[j]))
        atoms = {pt: w for pt, w in self.atoms.items()
                 if pt > h or (pt == h and keep_boundary_atom)}
        return PiecewiseExp(breaks, pieces, atoms)

    def restrict_below(self, h: float, keep_boundary_atom: bool = False) -> "PiecewiseExp":
        breaks = sorted(set(self.breaks) | {h})
        pieces = []
        for i in range(len(breaks) + 1):
            lo = breaks[i - 1] if i > 0 else -math.inf
            if lo >= h:
                pieces.append([])
            else:
                j = bisect_right(self.breaks, lo) if i > 0 else 0
                pieces.append(list(self.pieces[j]))
        atoms = {pt: w for pt, w in self.atoms.items()
                 if pt < h or (pt == h and keep_boundary_atom)}
        return PiecewiseExp(breaks, pieces, atoms)

    def conv_up(self, beta: float) -> "PiecewiseExp":
        """K_beta^+ f(x) = beta * int_0^inf e^{-beta y} f(x+y) dy, exact."""
        breaks = list(self.breaks)
        n = len(breaks)
        # tail integrals T_i = int over [b_i, b_{i+1}) of e^{-beta u} f(u) du
        anti = [_antiderivative([(c, r - beta, p) for c, r, p in piece])
                for piece in self.pieces]
        seg = np.zeros(n + 1, dtype=np.complex128)
        for i in range(1, n):  # finite interior segments
            seg[i] = _eval_terms(anti[i], breaks[i]) - _eval_terms(anti[i], breaks[i - 1])
        if n:
            last = self.pieces[-1]
            if any((r - beta).real >= 0 and abs(c) > 1e-30 for c, r, p in last):
                raise ValueError("conv_up diverges on the last piece")
            seg[n] = -_eval_terms(anti[n], breaks[-1])  # integral to +inf
        tail_after = np.concatenate([np.cumsum(seg[::-1])[::-1][1:], [0.0]])

        pieces = []
        for i in range(n + 1):
            terms = []
            hi = breaks[i] if i < n else None
            const = tail_after[i] if n else 0.0
            if hi is not None:
                const += _eval_terms(anti[i], hi)
            else:
                if any((r - beta).real >= 0 and abs(c) > 1e-30 for c, r, p in self.pieces[i]):
                    raise ValueError("conv_up diverges on the last piece")
            # K f(x) = beta e^{beta x} (const_i - A_i(x)) on piece i
            terms.append((beta * const, beta + 0.0j, 0))
            terms.extend((-beta * c, r + beta, p) for c, r, p in anti[i])
            pieces.append(_merge(terms))
        out = PiecewiseExp(breaks, pieces)
        # atoms: K delta_a contributes beta e^{-beta(a-x)} on x < a
        for a, w in self.atoms.items():
            out = out + PiecewiseExp([a], [[(w * beta * np.exp(-beta * a), beta + 0.0j, 0)], []])
        return out

    def conv_down(self, beta: float) -> "PiecewiseExp":
        return self.reflect().conv_up(beta).reflect()

    def reflect(self) -> "PiecewiseExp":
        breaks = [-b for b in reversed(self.breaks)]
        pieces = [[(c, -r, p) if p % 2 == 0 else (-c, -r, p) for c, r, p in piece]
                  for piece in reversed(self.pieces)]
        # odd powers flip sign via (-x)^p; handled above term by term
        atoms = {-pt: w for pt, w in self.atoms.items()}
        return PiecewiseExp(breaks, pieces, atoms)


def _poly_from_roots(roots):
    poly = np.array([1.0 + 0.0j])
    for r in roots:
        poly = np.convolve(poly, np.array([-1.0, r], dtype=np.complex128))  # (r - s)
    return poly  # coefficients in s, highest power first


class ExactEpv:
    """Exact EPV operators for one rational factorization at real Q > 0."""

    def __init__(self, factors: WHFactorization):
        if not factors.model.rational:
            raise ValueError("exact backend needs a rational factorization")
        if abs(complex(factors.Q).imag) > 0:
            raise ValueError("exact backend is for real spectral values")
        model = factors.model
        self.model = model
        self.Q = float(complex(factors.Q).real)
        self.betas_plus = [float((1j * r).real) for r in factors.roots_lower]
        self.betas_minus = [float((-1j * r).real) for r in factors.roots_upper]
        if isinstance(model, KouJumpDiffusion):
            self.pole_plus, self.pole_minus = model.alpha_plus, model.alpha_minus
        else:
            self.pole_plus = self.pole_minus = None

    # phi+(s) = prod beta/(beta-s) * (alpha-s)/alpha with s = i*xi
    def _mixture_weights(self, betas, pole):
        weights = []
        for j, b in enumerate(betas):
            a = b
            for k, other in enumerate(betas):
                if k != j:
                    a *= other / (other - b)
            if pole is not None:
                a *= (pole - b) / pole
            weights.append(a / b)  # weight on the normalized kernel K_b
        return weights

    def _apply_mixture(self, f, betas, pole, down):
        out = None
        for w, b in zip(self._mixture_weights(betas, pole), betas):
            term = (f.conv_down(b) if down else f.conv_up(b)).scale(w)
            out = term if out is None else out + term
        if out is None:  # no roots on this side: the extremum is identically 0
            out = f
        return out

    def e_plus(self, f: PiecewiseExp) -> PiecewiseExp:
        return self._apply_mixture(f, self.betas_plus, self.pole_plus, down=False)

    def e_minus(self, f: PiecewiseExp) -> PiecewiseExp:
        return self._apply_mixture(f, self.betas_minus, self.pole_minus, down=True)

    def _inverse_parts(self, betas, pole):
        # 1/phi(s) = poly(s) + residue/(pole - s), poly lowest-first
        num = _poly_from_roots(betas)  # prod (beta_j - s)
        scale = 1.0 / np.prod(betas)
        if pole is None:
            poly_high = num * scale
            return list(poly_high[::-1]), 0.0
        num = num * (pole * scale)
        q, r = np.polydiv(num, np.array([-1.0, pole], np.complex128))
        return list(q[::-1]), complex(r[-1])

    def _apply_inverse(self, f, betas, pole, down):
        poly, res = self._inverse_parts(betas, pole)
        out = f.scale(poly[0])
        g = f
        sign = -1.0 if down else 1.0  # s = i*xi acts as +d/dx; mirror flips it
        assert len(poly) <= 2, "inverse factors here are at most first order"
        for c in poly[1:]:
            g = g.derivative()
            out = out + g.scale(c * sign)
        if pole is not None and abs(res) > 1e-30:
            kernel = f.conv_down(pole) if down else f.conv_up(pole)
            out = out + kernel.scale(res / pole)
        return out

    def e_plus_inverse(self, f: PiecewiseExp) -> PiecewiseExp:
        return self._apply_inverse(f, self.betas_plus, self.pole_plus, down=False)

    def e_minus_inverse(self, f: PiecewiseExp) -> PiecewiseExp:
        return self._apply_inverse(f, self.betas_minus, self.pole_minus, down=True)

    # -- the composites used by the pricing sweeps ------------------------
    def first_touch_above(self, f: PiecewiseExp, h: float) -> PiecewiseExp:
        """E+ 1_[h,inf) (E+)^{-1} f with the boundary delta discarded."""
        z = self.e_plus_inverse(f).restrict_above(h, keep_boundary_atom=False)
        return self.e_plus(z)

    def first_touch_below(self, f: PiecewiseExp, h: float) -> PiecewiseExp:
        z = self.e_minus_inverse(f).restrict_below(h, keep_boundary_atom=False)
        return self.e_minus(z)

    def sweep_plus(self, coupling: PiecewiseExp, upper: float) -> PiecewiseExp:
        """(1/Q) E+ 1_(-inf,h+) E- applied to the coupling combination."""
        inner = self.e_minus(coupling).restrict_below(upper)
        return self.e_plus(inner).scale(1.0 / self.Q)

    def sweep_minus(self, coupling: PiecewiseExp, lower: float) -> PiecewiseExp:
        inner = self.e_plus(coupling).restrict_above(lower)
        return self.e_minus(inner).scale(1.0 / self.Q)
