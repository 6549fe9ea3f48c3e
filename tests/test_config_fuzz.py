"""Fuzz of parse_config and the price it leads to.

Starting from the shipped brownian_band document at mPower 10, each example
replaces or deletes up to three fields.  The only allowed outcomes are a
ConfigError, another RsBarrierError, or a finite price: never a traceback of
another exception type.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rsbarrier.cli import run_price
from rsbarrier.config import parse_config
from rsbarrier.errors import ConfigError, RsBarrierError

BASE = json.loads((Path(__file__).resolve().parent.parent
                   / "configs" / "brownian_band.json").read_text())
BASE["grid"]["mPower"] = 10

DELETE = "<delete>"
JUNK = st.sampled_from([DELETE, None, "x", "1.5", True, [], {}, [1.0],
                        math.nan, math.inf, -math.inf])
REAL = st.one_of(JUNK, st.sampled_from([0.0, -1.0, 1e-300, 1e300]), st.floats(-5.0, 5.0))
COUNT = st.one_of(JUNK, st.integers(-3, 12))
# tolerances below the defaults only make an example slow, not wrong
TOL = st.one_of(JUNK, st.sampled_from([0.0, -1.0, 1e-10, 1e-8, 1e-6, 1e-2, 1.0]))

# (path into the document, values it may take); mPower stays at or below 10
# unless the size guard is meant to reject it
FIELDS = [
    (("regimes", 0, "model", "type"),
     st.one_of(JUNK, st.sampled_from(["KoBoL", "KouJumpDiffusion", "Mystery"]))),
    (("regimes", 0, "model", "mu"), REAL),
    (("regimes", 0, "model", "sigma2"), REAL),
    (("regimes", 0, "r"), REAL),
    (("regimes", 0, "G"), REAL),
    (("regimes",), st.one_of(JUNK, st.just([]))),
    (("chain", "m"), COUNT),
    (("chain", "N"), COUNT),
    (("chain", "rates"), REAL),
    (("barriers", "lower"), REAL),
    (("barriers", "upper"), REAL),
    (("x0",), REAL),
    (("maturity",), REAL),
    (("initialHistory",), st.one_of(JUNK, st.lists(st.integers(-1, 3), max_size=3))),
    (("inversion", "backend"), st.one_of(JUNK, st.sampled_from(["gwr", "sinh", "exact"]))),
    (("inversion", "nGaver"), COUNT),
    (("inversion", "sinhNodes"), COUNT),
    (("inversion", "sinhTargetTol"), REAL),
    (("grid", "mPower"), st.one_of(JUNK, st.integers(-2, 10), st.integers(25, 80))),
    (("grid", "domainFactor"), REAL),
    (("tolerances", "inner"), TOL),
    (("tolerances", "outer"), TOL),
    (("tolerances", "maxSweeps"), COUNT),
    (("mc", "paths"), COUNT),
    (("mc", "dt"), REAL),
    (("seed",), COUNT),
    (("threads",), COUNT),
]


def mutate(doc: dict, path: tuple, value) -> None:
    """Set (or delete) the field at ``path``; a path that an earlier
    mutation broke is left alone."""
    node = doc
    try:
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=60)
@given(st.data())
def test_parse_config_fuzz_fails_typed_or_prices_finite(data):
    doc = copy.deepcopy(BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        path, values = data.draw(st.sampled_from(FIELDS))
        mutate(doc, path, data.draw(values))
    try:
        cfg = parse_config(doc)
        cfg.threads = 1
        rows, _ = run_price(cfg)
    except RsBarrierError:
        return
    assert all(math.isfinite(r["price"]) for r in rows), doc


# faults the fuzz found, each of which ended in another exception type
@pytest.mark.parametrize("path, value", [
    (("grid", "mPower"), math.inf), (("tolerances", "maxOuter"), -math.inf),
    (("tolerances", "maxSweeps"), 0), (("grid", "domainFactor"), -1.0),
    (("initialHistory",), [0]),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_fuzz_findings_fail_typed(path, value):
    doc = copy.deepcopy(BASE)
    mutate(doc, path, value)
    with pytest.raises(RsBarrierError):
        cfg = parse_config(doc)
        cfg.threads = 1
        run_price(cfg)


# a Kou regime whose analyticity strip, and so the grid's damping, is tiny
TINY_STRIP_KOU = {"type": "KouJumpDiffusion", "mu": 0.0, "sigma2": 1.0, "lambdaJ": 1.0,
                  "p": 0.5, "alphaPlus": 1e-300, "alphaMinus": 1e-300}


# absurd but finite bands: the grid check reports them as a config error
# before any array is built, with no numpy warning on the way.  Under tiny
# damping it is the window mask's squared distances that would overflow.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("changes", [
    {("barriers", "upper"): 1e300},
    {("barriers", "upper"): 1e3},
    {("barriers", "upper"): 1e300, ("regimes", 0, "model"): TINY_STRIP_KOU},
], ids=["upper_1e300", "upper_1e3", "upper_1e300_tiny_damping"])
def test_absurd_band_is_config_error(changes):
    doc = copy.deepcopy(BASE)
    for path, value in changes.items():
        mutate(doc, path, value)
    with pytest.raises(ConfigError, match="too wide for damped transforms"):
        cfg = parse_config(doc)
        cfg.threads = 1
        run_price(cfg)


# sinh settings the fuzz found, which ended in a ValueError, OverflowError or
# TypeError traceback, or in a NaN price after numpy warnings.  sinhGamma and
# sinhSigma0 are constants of the method now: a document that still gives
# one, whatever its value, is refused as an unknown key.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key, value", [
    ("sinhTargetTol", 0.0), ("sinhTargetTol", -1.0), ("sinhTargetTol", -math.inf),
    ("sinhGamma", 1e300), ("sinhSigma0", "x"), ("sinhSigma0", []),
    ("sinhSigma0", {}), ("sinhSigma0", -5.0), ("sinhSigma0", 1e300),
], ids=lambda v: v if isinstance(v, str) and v.startswith("sinh") else repr(v))
def test_bad_sinh_setting_is_config_error(key, value):
    doc = copy.deepcopy(BASE)
    doc["inversion"] = {"backend": "sinh", key: value}
    with pytest.raises(ConfigError, match=f"unknown key inversion.{key};"
                       if key in ("sinhGamma", "sinhSigma0") else None):
        parse_config(doc)


# count keys that int() used to truncate or convert: each must be a whole
# number, so a fraction, a string or a boolean is a config error.  maxOuter
# is a constant of the method now: a document that still gives it is
# refused as an unknown key.
@pytest.mark.parametrize("path, value", [
    (("grid", "mPower"), 12.9), (("grid", "mPower"), "12"),
    (("inversion", "nGaver"), 8.7), (("inversion", "sinhNodes"), 64.5),
    (("tolerances", "maxOuter"), True), (("tolerances", "maxSweeps"), "50"),
    (("chain", "m"), 1.5), (("chain", "N"), 0.5), (("initialHistory",), [1.7]),
    (("initialHistory",), ["1"]),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_count_key_must_be_whole(path, value):
    doc = copy.deepcopy(BASE)
    mutate(doc, path, value)
    with pytest.raises(ConfigError, match="unknown key tolerances.maxOuter;"
                       if path[-1] == "maxOuter" else "whole number"):
        parse_config(doc)


def test_whole_float_counts_still_parse():
    doc = copy.deepcopy(BASE)
    doc["grid"]["mPower"] = 10.0
    doc["inversion"]["nGaver"] = 8.0
    doc["chain"]["N"] = 0.0
    doc["initialHistory"] = [1.0]
    cfg = parse_config(doc)
    assert (cfg.grid.m_power, cfg.inversion.n_gaver, cfg.problem.chain.n_memory) == (10, 8, 0)
    assert cfg.problem.initial_history.labels == (1,)
