"""Problem configuration: JSON schema and validation.

Model objects use the exact wire names "type", "mu", "sigma2", "lambdaJ",
"p", "alphaPlus", "alphaMinus", "nu", "c", "lambdaPlus", "lambdaMinus".
Chain rates come either as a dense array keyed by canonical history code or
as a rule table with a default; the loader materializes the dense table.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RsBarrierError
from .engine import BarrierProblem, RegimeSpec
from .histories import HistoryIndex, MemoryChain
from .inversion import InversionPlan
from .models import BrownianDrift, KoBoL, KouJumpDiffusion, LevyModel
from .montecarlo import McConfig

__all__ = ["GridConfig", "Tolerances", "ProblemConfig", "read_document",
           "parse_config", "DEFAULTS"]

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
        """The document's thread count, else RSBARRIER_THREADS, else the core
        count; a setting that is not a whole number >= 1 is a ConfigError."""
        if self.threads is not None:
            return self.threads
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                count = int(env)
            except ValueError:
                raise ConfigError(f"{THREADS_ENV} must be a whole number >= 1, "
                                  f"got {env!r}") from None
            return _at_least_one(count, THREADS_ENV)
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
        m = _whole(d["m"], "chain.m")
        n_mem = _whole(d["N"], "chain.N")
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


def _whole(value, name: str) -> int:
    """A whole number (1e6 included); a bool, a string or a fraction is a fault."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _at_least_one(count: int, name: str) -> int:
    if count < 1:
        raise ConfigError(f"{name} must be a whole number >= 1, got {count!r}")
    return count


def _flag(value, name: str) -> bool:
    """A JSON boolean: the string "false" is a fault, not a true value."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


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
    init = tuple(_whole(v, "initialHistory") for v in doc["initialHistory"])
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
        m_power=_whole(g.get("mPower", DEFAULTS["grid.m_power"]), "grid.mPower"),
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
        max_outer=_whole(t.get("maxOuter", DEFAULTS["tolerances.max_outer"]),
                         "tolerances.maxOuter"),
        max_sweeps=_whole(t.get("maxSweeps", DEFAULTS["tolerances.max_sweeps"]),
                          "tolerances.maxSweeps"),
    )
    inv = doc.get("inversion", {})
    if "extendedPrecision" in inv:
        raise ConfigError("inversion.extendedPrecision is no longer a setting: GWR "
                          "always runs in double precision; remove the key")
    sigma0 = inv.get("sinhSigma0")
    try:
        plan = InversionPlan(
            backend=inv.get("backend", DEFAULTS["inversion.backend"]),
            n_gaver=_whole(inv.get("nGaver", DEFAULTS["inversion.n_gaver"]),
                           "inversion.nGaver"),
            sinh_nodes=_whole(inv.get("sinhNodes", DEFAULTS["inversion.sinh_nodes"]),
                              "inversion.sinhNodes"),
            sinh_sigma0=None if sigma0 is None else float(sigma0),
            sinh_gamma=float(inv.get("sinhGamma", DEFAULTS["inversion.sinh_gamma"])),
            sinh_target_tol=float(inv.get("sinhTargetTol",
                                          DEFAULTS["inversion.sinh_target_tol"])),
        )
        if plan.backend == "sinh":
            plan.materialize(maturity)  # a contour that cannot be built fails here
    except (RsBarrierError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid inversion plan: {exc}") from exc
    mc_doc = doc.get("mc", {})
    mc = McConfig(
        paths=_whole(mc_doc.get("paths", DEFAULTS["mc.paths"]), "mc.paths"),
        dt=float(mc_doc.get("dt", DEFAULTS["mc.dt"])),
        seed=_whole(doc.get("seed", DEFAULTS["seed"]), "seed"),
        bridge=_flag(mc_doc.get("bridge", DEFAULTS["mc.bridge"]), "mc.bridge"),
        antithetic=_flag(mc_doc.get("antithetic", DEFAULTS["mc.antithetic"]),
                         "mc.antithetic"),
    )
    mc.validate(maturity)
    threads = doc.get("threads")
    return ProblemConfig(problem=problem, grid=grid, tolerances=tol,
                         inversion=plan, mc=mc,
                         threads=None if threads is None
                         else _at_least_one(_whole(threads, "threads"), "threads"))


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
