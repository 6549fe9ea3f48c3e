"""Problem configuration: JSON schema and validation.

Model objects use the exact wire names "type", "mu", "sigma2", "lambdaJ",
"p", "alphaPlus", "alphaMinus", "nu", "c", "lambdaPlus", "lambdaMinus".
Chain rates come either as a dense array keyed by canonical history code or
as a rule table with a default; the loader materializes the dense table.
Each settings section maps its keys to one dataclass's fields, whose defaults
are the only defaults.  A key the parser does not read is a fault anywhere.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

from .errors import ConfigError, InfeasibleHistoryError, RsBarrierError
from .engine import BarrierProblem, RegimeSpec, Tolerances
from .grids import GridConfig
from .histories import HistoryIndex, MemoryChain
from .inversion import InversionPlan, sinh_plan
from .models import BrownianDrift, KoBoL, KouJumpDiffusion, LevyModel
from .montecarlo import McConfig

__all__ = ["ProblemConfig", "read_document", "parse_config", "DEFAULTS"]

THREADS_ENV = "RSBARRIER_THREADS"


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


def _number(value) -> bool:
    """Whether ``value`` is a JSON number: a bool or a string is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value, name: str) -> float:
    if not (_number(value) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _whole(value, name: str) -> int:
    """A whole number (1e6 included); a bool, a string or a fraction is a fault."""
    if not (_number(value) and float(value).is_integer()):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _at_least_one(count: int, name: str) -> int:
    if count < 1:
        raise ConfigError(f"{name} must be a whole number >= 1, got {count!r}")
    return count


def _object(value, path: str, required, optional=()) -> dict:
    """``value``, a JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``; ``path`` is empty for the document itself."""
    where = path or "the document"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in value:
            raise ConfigError(f"missing key {prefix}{key}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {prefix}{key}; {where} takes "
                              f"{', '.join(sorted([*required, *optional]))}")
    return value


# settings section -> (its dataclass, JSON key -> (field, reader)); a key the
# document leaves out takes the field's default, and a reader of None leaves
# the value for the dataclass to check
_SECTIONS = {
    "grid": (GridConfig, {
        "mPower": ("m_power", _whole), "domainFactor": ("domain_factor", _finite)}),
    "tolerances": (Tolerances, {
        "inner": ("inner", _finite), "outer": ("outer", _finite),
        "maxSweeps": ("max_sweeps", _whole)}),
    "inversion": (InversionPlan, {
        "backend": ("backend", None), "nGaver": ("n_gaver", _whole),
        "sinhNodes": ("sinh_nodes", _whole), "sinhTargetTol": ("sinh_target_tol", _finite)}),
    "mc": (McConfig, {"paths": ("paths", _whole), "dt": ("dt", _finite)}),
}
# model type -> (its class, JSON key -> field)
_MODELS = {
    "BrownianDrift": (BrownianDrift, {"mu": "mu", "sigma2": "sigma2"}),
    "KouJumpDiffusion": (KouJumpDiffusion, {
        "mu": "mu", "sigma2": "sigma2", "lambdaJ": "lambda_j", "p": "p",
        "alphaPlus": "alpha_plus", "alphaMinus": "alpha_minus"}),
    "KoBoL": (KoBoL, {"nu": "nu", "c": "c", "lambdaPlus": "lambda_plus",
                      "lambdaMinus": "lambda_minus", "mu": "mu"}),
}

# each optional setting's default by "section.field"; the seed is top-level
DEFAULTS = {f"{section}.{name}": getattr(cls, name)
            for section, (cls, table) in _SECTIONS.items() for name, _ in table.values()}
DEFAULTS["seed"] = McConfig.seed


def parse_config(doc: dict) -> ProblemConfig:
    """The validated problem of a config document.  Every fault in it, a wrong
    type or a key the parser does not read included, raises ``ConfigError``."""
    try:
        return _parse(doc)
    except KeyError as exc:
        raise ConfigError(f"config field missing: {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"invalid value: {exc}") from exc


def _settings(doc: dict, section: str, **given):
    """The section's dataclass, built from the document's keys and ``given``."""
    cls, table = _SECTIONS[section]
    for key, value in _object(doc.get(section, {}), section, (), table).items():
        name, read = table[key]
        given[name] = value if read is None else read(value, f"{section}.{key}")
    return cls(**given)


def _model(d, path: str) -> LevyModel:
    kind = d.get("type") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"unknown model type {kind!r} at {path}; "
                          f"known types are {', '.join(_MODELS)}")
    cls, wire = _MODELS[kind]
    _object(d, path, ("type", *wire))
    try:
        return cls(**{name: _finite(d[key], f"{path}.{key}") for key, name in wire.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _rule(rule, path: str) -> dict:
    """A rate rule with whole-number labels: a history spelt as a string is a
    fault, not a list of its digits."""
    _object(rule, path, ("s", "history", "rate"))
    return {"s": _whole(rule["s"], f"{path}.s"),
            "history": [_whole(v, f"{path}.history") for v in rule["history"]],
            "rate": _finite(rule["rate"], f"{path}.rate")}


def _chain(d) -> MemoryChain:
    d = _object(d, "chain", ("m", "N", "rates"))
    m, n_mem, rates = _whole(d["m"], "chain.m"), _whole(d["N"], "chain.N"), d["rates"]
    try:
        if isinstance(rates, dict) and "dense" in rates:
            dense = _object(rates, "chain.rates", ("dense",))["dense"]
            table = [[_finite(v, f"chain.rates.dense[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(dense)]
            return MemoryChain(m, n_mem, table)
        if isinstance(rates, dict):
            rules = _object(rates, "chain.rates", (), ("default", "rules")).get("rules", [])
            rules = [_rule(rule, f"chain.rates.rules[{i}]") for i, rule in enumerate(rules)]
            default = _finite(rates.get("default", 0.0), "chain.rates.default")
            return MemoryChain.from_rules(m, n_mem, default, rules)
        if _number(rates):
            return MemoryChain.from_constant(m, n_mem, _finite(rates, "chain.rates"))
    except ValueError as exc:
        raise ConfigError(f"invalid chain rates: {exc}") from exc
    except InfeasibleHistoryError as exc:  # m = 1 with N > 0
        raise ConfigError(f"invalid chain: {exc}") from exc
    raise ConfigError("chain rates must be a number, a dense table, or a rule table")


def _parse(doc: dict) -> ProblemConfig:
    _object(doc, "", ("regimes", "chain", "barriers", "x0", "maturity", "initialHistory"),
            ("seed", "threads", *_SECTIONS))
    regimes = []
    for i, r in enumerate(doc["regimes"]):
        path = f"regimes[{i}]"
        r = _object(r, path, ("model", "r", "G"))
        regimes.append(RegimeSpec(model=_model(r["model"], f"{path}.model"),
                                  rate=_finite(r["r"], f"{path}.r"),
                                  payoff=_finite(r["G"], f"{path}.G")))
    chain = _chain(doc["chain"])
    barriers = _object(doc["barriers"], "barriers", ("lower", "upper"))
    lower = _finite(barriers["lower"], "barriers.lower")
    upper = _finite(barriers["upper"], "barriers.upper")
    x0 = _finite(doc["x0"], "x0")
    maturity = _finite(doc["maturity"], "maturity")
    init = tuple(_whole(v, "initialHistory") for v in doc["initialHistory"])
    if len(regimes) != chain.m:
        raise ConfigError(f"{len(regimes)} regimes but chain has m={chain.m}")
    if len(init) != chain.n_memory + 1:
        raise ConfigError(f"initial history must list N+1={chain.n_memory + 1} states")
    problem = BarrierProblem(regimes=tuple(regimes), chain=chain, lower=lower,
                             upper=upper, spot=x0, maturity=maturity,
                             initial_history=HistoryIndex(init))
    grid, tolerances = _settings(doc, "grid"), _settings(doc, "tolerances")
    try:
        plan = _settings(doc, "inversion")
        if plan.backend == "sinh":
            sinh_plan(maturity, plan)  # a contour that cannot be built fails here
    except ConfigError:
        raise
    except (RsBarrierError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid inversion plan: {exc}") from exc
    # the top-level seed and thread count reach the Monte Carlo settings too,
    # whose validate refuses a count below 1
    top = {key: _whole(doc[key], key) for key in ("seed", "threads") if key in doc}
    mc = _settings(doc, "mc", **top)
    mc.validate(maturity)
    return ProblemConfig(problem=problem, grid=grid, tolerances=tolerances,
                         inversion=plan, mc=mc, threads=top.get("threads"))


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
