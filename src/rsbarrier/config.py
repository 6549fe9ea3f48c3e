"""Problem configuration: JSON schema and validation.

Model objects use the exact wire names "type", "mu", "sigma2", "lambdaJ",
"p", "alphaPlus", "alphaMinus", "nu", "c", "lambdaPlus", "lambdaMinus".
Chain rates come either as a dense array keyed by canonical history code or
as a rule table with a default; the loader materializes the dense table.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .engine import BarrierProblem, RegimeSpec
from .histories import HistoryIndex, MemoryChain
from .inversion import InversionPlan
from .models import BrownianDrift, KoBoL, KouJumpDiffusion, LevyModel
from .montecarlo import McConfig

__all__ = ["GridConfig", "Tolerances", "ProblemConfig", "read_document",
           "load_config", "parse_config", "DEFAULTS"]

THREADS_ENV = "RSBARRIER_THREADS"

DEFAULTS = {
    "grid.m_power": 14,
    "grid.domain_factor": 10.0,
    "grid.damping_scale": 0.25,
    "grid.damping_cap": 1.0,
    "grid.decay_tol": 1e-6,
    "tolerances.inner": 1e-10,
    "tolerances.outer": 1e-8,
    "tolerances.max_outer": 200,
    "tolerances.max_sweeps": 500,
    "inversion.backend": "gwr",
    "inversion.n_gaver": 8,
    "inversion.sinh_nodes": 64,
    "inversion.sinh_gamma": 0.75 * math.pi,
    "inversion.sinh_target_tol": 1e-10,
    "mc.paths": 100_000,
    "mc.dt": 1e-3,
    "mc.bridge": True,
    "mc.antithetic": False,
    "seed": 20260809,
}


@dataclass(frozen=True)
class GridConfig:
    m_power: int = DEFAULTS["grid.m_power"]
    domain_factor: float = DEFAULTS["grid.domain_factor"]
    damping_scale: float = DEFAULTS["grid.damping_scale"]
    damping_cap: float = DEFAULTS["grid.damping_cap"]
    decay_tol: float = DEFAULTS["grid.decay_tol"]


@dataclass(frozen=True)
class Tolerances:
    inner: float = DEFAULTS["tolerances.inner"]
    outer: float = DEFAULTS["tolerances.outer"]
    max_outer: int = DEFAULTS["tolerances.max_outer"]
    max_sweeps: int = DEFAULTS["tolerances.max_sweeps"]

    def __post_init__(self):
        if self.inner <= 0 or self.outer <= 0:
            raise ConfigError("tolerances must be > 0")
        if self.max_outer < 1 or self.max_sweeps < 1:
            raise ConfigError("maxOuter and maxSweeps must be >= 1")


@dataclass
class ProblemConfig:
    problem: BarrierProblem
    grid: GridConfig
    tolerances: Tolerances
    inversion: InversionPlan
    mc: McConfig
    threads: int | None

    def resolve_threads(self) -> int:
        if self.threads is not None:
            return self.threads
        env = os.environ.get(THREADS_ENV)
        if env:
            return max(int(env), 1)
        return os.cpu_count() or 1


def _model_from_dict(d: dict) -> LevyModel:
    kind = d.get("type")
    try:
        if kind == "BrownianDrift":
            return BrownianDrift(mu=float(d["mu"]), sigma2=float(d["sigma2"]))
        if kind == "KouJumpDiffusion":
            return KouJumpDiffusion(mu=float(d["mu"]), sigma2=float(d["sigma2"]),
                                    lambda_j=float(d["lambdaJ"]), p=float(d["p"]),
                                    alpha_plus=float(d["alphaPlus"]),
                                    alpha_minus=float(d["alphaMinus"]))
        if kind == "KoBoL":
            return KoBoL(nu=float(d["nu"]), c=float(d["c"]),
                         lambda_plus=float(d["lambdaPlus"]),
                         lambda_minus=float(d["lambdaMinus"]), mu=float(d["mu"]))
    except KeyError as exc:
        raise ConfigError(f"model field missing: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    raise ConfigError(f"unknown model type {kind!r}")


def _chain_from_dict(d: dict) -> MemoryChain:
    try:
        m = int(d["m"])
        n_mem = int(d["N"])
        rates = d["rates"]
    except KeyError as exc:
        raise ConfigError(f"chain field missing: {exc}") from exc
    lambda0 = d.get("lambda0")
    try:
        if isinstance(rates, dict) and "dense" in rates:
            table = np.asarray(rates["dense"], dtype=float)
            return MemoryChain(m, n_mem, table, lambda0)
        if isinstance(rates, dict):
            return MemoryChain.from_rules(m, n_mem, float(rates.get("default", 0.0)),
                                          rates.get("rules", []), lambda0)
        if isinstance(rates, (int, float)):
            return MemoryChain.from_constant(m, n_mem, float(rates), lambda0)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid chain rates: {exc}") from exc
    raise ConfigError("chain rates must be a number, a dense table, or a rule table")


def _finite(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {out}")
    return out


def parse_config(doc: dict) -> ProblemConfig:
    """The validated problem of a config document.  Every fault in the
    document, a value of the wrong type included, raises ``ConfigError``."""
    try:
        return _parse(doc)
    except KeyError as exc:
        raise ConfigError(f"config field missing: {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"invalid value: {exc}") from exc


def _parse(doc: dict) -> ProblemConfig:
    regimes = tuple(
        RegimeSpec(model=_model_from_dict(r["model"]),
                   rate=_finite(r["r"], "r"), payoff=_finite(r["G"], "G"))
        for r in doc["regimes"]
    )
    chain = _chain_from_dict(doc["chain"])
    barriers = doc["barriers"]
    lower = _finite(barriers["lower"], "barriers.lower")
    upper = _finite(barriers["upper"], "barriers.upper")
    x0 = _finite(doc["x0"], "x0")
    maturity = _finite(doc["maturity"], "maturity")
    init = tuple(int(v) for v in doc["initialHistory"])
    if len(regimes) != chain.m:
        raise ConfigError(
            f"{len(regimes)} regimes but chain has m={chain.m}")
    if len(init) != chain.n_memory + 1:
        raise ConfigError(
            f"initial history must list N+1={chain.n_memory + 1} states")
    problem = BarrierProblem(regimes=regimes, chain=chain, lower=lower,
                             upper=upper, spot=x0, maturity=maturity,
                             initial_history=HistoryIndex(init))

    g = doc.get("grid", {})
    grid = GridConfig(
        m_power=int(g.get("mPower", DEFAULTS["grid.m_power"])),
        domain_factor=_finite(g.get("domainFactor", DEFAULTS["grid.domain_factor"]),
                              "grid.domainFactor"),
        damping_scale=_finite(g.get("dampingScale", DEFAULTS["grid.damping_scale"]),
                              "grid.dampingScale"),
        damping_cap=_finite(g.get("dampingCap", DEFAULTS["grid.damping_cap"]),
                            "grid.dampingCap"),
        decay_tol=_finite(g.get("decayTol", DEFAULTS["grid.decay_tol"]), "grid.decayTol"),
    )
    t = doc.get("tolerances", {})
    tol = Tolerances(
        inner=_finite(t.get("inner", DEFAULTS["tolerances.inner"]), "tolerances.inner"),
        outer=_finite(t.get("outer", DEFAULTS["tolerances.outer"]), "tolerances.outer"),
        max_outer=int(t.get("maxOuter", DEFAULTS["tolerances.max_outer"])),
        max_sweeps=int(t.get("maxSweeps", DEFAULTS["tolerances.max_sweeps"])),
    )
    inv = doc.get("inversion", {})
    if "extendedPrecision" in inv:
        raise ConfigError("inversion.extendedPrecision is no longer a setting: GWR "
                          "always runs in double precision; remove the key")
    try:
        plan = InversionPlan(
            backend=inv.get("backend", DEFAULTS["inversion.backend"]),
            n_gaver=int(inv.get("nGaver", DEFAULTS["inversion.n_gaver"])),
            sinh_nodes=int(inv.get("sinhNodes", DEFAULTS["inversion.sinh_nodes"])),
            sinh_sigma0=inv.get("sinhSigma0"),
            sinh_gamma=float(inv.get("sinhGamma", DEFAULTS["inversion.sinh_gamma"])),
            sinh_target_tol=float(inv.get("sinhTargetTol",
                                          DEFAULTS["inversion.sinh_target_tol"])),
        )
    except Exception as exc:
        raise ConfigError(f"invalid inversion plan: {exc}") from exc
    mc_doc = doc.get("mc", {})
    mc = McConfig(
        paths=int(mc_doc.get("paths", DEFAULTS["mc.paths"])),
        dt=float(mc_doc.get("dt", DEFAULTS["mc.dt"])),
        seed=int(doc.get("seed", DEFAULTS["seed"])),
        bridge=bool(mc_doc.get("bridge", DEFAULTS["mc.bridge"])),
        antithetic=bool(mc_doc.get("antithetic", DEFAULTS["mc.antithetic"])),
    )
    mc.validate(maturity)
    threads = doc.get("threads")
    return ProblemConfig(problem=problem, grid=grid, tolerances=tol,
                         inversion=plan, mc=mc,
                         threads=None if threads is None else int(threads))


def read_document(path: str) -> dict:
    """The JSON document at ``path``, unvalidated."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def load_config(path: str) -> ProblemConfig:
    return parse_config(read_document(path))
