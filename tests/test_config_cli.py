import copy
import csv
import io
import json
import math
import multiprocessing
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rsbarrier import cli, engine, montecarlo
from rsbarrier.cli import main, run_price
from rsbarrier.config import DEFAULTS, parse_config
from rsbarrier.engine import QPricer
from rsbarrier.errors import ConfigError, DivergenceError, FactorizationDegenerateError
from rsbarrier.inversion import gwr_nodes, sinh_nodes, sinh_plan
from rsbarrier.montecarlo import brownian_band_series
from rsbarrier.wiener_hopf import factorize_rational

import builders as build

ROOT = Path(__file__).resolve().parent.parent

BROWNIAN_DOC = {
    "regimes": [
        {"model": {"type": "BrownianDrift", "mu": 0.0, "sigma2": 1.0},
         "r": 0.0, "G": 1.0}
    ],
    "chain": {"m": 1, "N": 0, "rates": {"dense": [[]]}},
    "barriers": {"lower": -1.0, "upper": 1.0},
    "x0": 0.0,
    "maturity": 1.0,
    "initialHistory": [1],
    "inversion": {"backend": "gwr", "nGaver": 8},
    "grid": {"mPower": 12},
    "mc": {"paths": 2000, "dt": 0.005},
    "seed": 7,
}

TWO_REGIME_DOC = {
    "regimes": [
        {"model": {"type": "KouJumpDiffusion", "mu": 0.0, "sigma2": 0.05,
                   "lambdaJ": 1.0, "p": 0.5, "alphaPlus": 12.0, "alphaMinus": 9.0},
         "r": 0.01, "G": 1.0},
        {"model": {"type": "BrownianDrift", "mu": 0.0, "sigma2": 0.3},
         "r": 0.02, "G": 0.5},
    ],
    "chain": {"m": 2, "N": 1,
              "rates": {"default": 0.5,
                        "rules": [{"s": 1, "history": [2, 1], "rate": 0.9}]}},
    "barriers": {"lower": -0.5, "upper": 0.5},
    "x0": 0.1,
    "maturity": 0.5,
    "initialHistory": [1, 2],
    "grid": {"mPower": 12},
    "mc": {"paths": 2000, "dt": 0.005},
    "seed": 11,
}

# settings that are constants of the method now, by their former keys: lambda0
# is always the largest total switching rate, and Monte Carlo paths are never
# antithetic pairs and always take the bridge factors
CONSTANT_KEYS = {"dampingScale", "dampingCap", "decayTol", "maxOuter", "sinhGamma",
                 "sinhSigma0", "lambda0", "antithetic", "bridge"}


def test_rule_rates_materialized():
    cfg = parse_config(copy.deepcopy(TWO_REGIME_DOC))
    chain = cfg.problem.chain
    from rsbarrier.histories import HistoryIndex, encode
    # m = 2: each history's one target is the other regime
    assert chain.rates[encode(2, HistoryIndex((2, 1))), 0] == pytest.approx(0.9)
    assert chain.rates[encode(2, HistoryIndex((1, 2))), 0] == pytest.approx(0.5)


def test_config_validation_errors():
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["regimes"][0]["model"]["type"] = "Mystery"
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = copy.deepcopy(BROWNIAN_DOC)
    del doc["barriers"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = copy.deepcopy(TWO_REGIME_DOC)
    doc["initialHistory"] = [1]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["tolerances"] = {"outer": -1.0}
    with pytest.raises(ConfigError):
        parse_config(doc)
    # a rate rule that matches no (history, target) pair on m = 3, N = 1: a
    # history with a repeated label, a switch into the head, a label above m
    doc = copy.deepcopy(TWO_REGIME_DOC)
    doc["regimes"].append(copy.deepcopy(doc["regimes"][1]))
    doc["chain"]["m"] = 3
    for rule in ({"s": 2, "history": [1, 1]}, {"s": 1, "history": [1]},
                 {"s": 2, "history": [4]}):
        doc["chain"]["rates"] = {"default": 0.5, "rules": [dict(rule, rate=0.9)]}
        with pytest.raises(ConfigError, match="matches no"):
            parse_config(doc)
    # rule labels are whole numbers and a rule's history is a JSON list: a
    # fractional label is not truncated, nor a string split into labels
    for rule in ({"s": 1.7, "history": [2.2, 1.9]}, {"s": 1, "history": "21"}):
        doc = copy.deepcopy(TWO_REGIME_DOC)
        doc["chain"]["rates"]["rules"] = [dict(rule, rate=0.9)]
        with pytest.raises(ConfigError, match="history|whole number"):
            parse_config(doc)
    # one regime has no history of depth N >= 1, whatever form the rates take
    for rates in ({"dense": [[]]}, 0.0, {"default": 0.0}):
        doc = copy.deepcopy(BROWNIAN_DOC)
        doc["chain"].update(N=1, rates=rates)
        doc["initialHistory"] = [1, 2]
        with pytest.raises(ConfigError, match="m=1 admits no history"):
            parse_config(doc)


# every number parse_config reads into the problem, as a path into the document
NUMERIC_FIELDS = [
    ("x0",), ("barriers", "lower"), ("barriers", "upper"), ("maturity",),
    ("regimes", 1, "r"), ("regimes", 1, "G"), ("chain", "lambda0"),
    ("chain", "rates", "default"), ("chain", "rates", "rules", 0, "rate"),
    ("regimes", 0, "model", "lambdaJ"), ("regimes", 1, "model", "sigma2"),
    ("tolerances", "inner"), ("tolerances", "outer"), ("grid", "domainFactor"),
    ("grid", "dampingScale"), ("grid", "dampingCap"), ("grid", "decayTol"),
    ("chain", "rates"), ("chain", "rates", "dense", 1, 0),
]


# a number that is not finite, or not a JSON number at all: a string or a
# bool is not read as the number it spells; a setting that is a constant of
# the method now is refused as an unknown key, whatever its value
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.2", True])
@pytest.mark.parametrize("path", NUMERIC_FIELDS, ids=lambda p: ".".join(map(str, p)))
def test_non_finite_input_rejected(path, value):
    doc = copy.deepcopy(TWO_REGIME_DOC)
    if "dense" in path:  # the rule table's rates as a dense table
        doc["chain"]["rates"] = {"dense": [[0.5], [0.9]]}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match=f"unknown key {'.'.join(path)};"
                       if path[-1] in CONSTANT_KEYS else None):
        parse_config(doc)


def _run_cli(tmp_path, doc, *argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv[:1]) + ["--config", str(cfg_path)] + list(argv[1:]))
    return rc, buf.getvalue()


def test_price_cli_and_boundary_zero(tmp_path, capsys):
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["x0"] = 1.0  # exactly on the upper barrier
    rc, out = _run_cli(tmp_path, doc, "price", "--threads", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["price"]) == 0.0 for r in rows)
    assert "warning: spot outside band" in capsys.readouterr().err.splitlines()


def test_convergence_rungs_warn_spot_outside_band(tmp_path, capsys):
    # each rung prices through run_price, which prints its own warnings
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["x0"] = -1.0  # exactly on the lower barrier
    rc, out = _run_cli(tmp_path, doc, "convergence", "--param", "mPower",
                       "--values", "11,12", "--threads", "1")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0 and [float(r["price"]) for r in rows] == [0.0, 0.0]
    assert capsys.readouterr().err.splitlines() == ["warning: spot outside band"] * 2


def test_price_cli_matches_series(tmp_path):
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "price", "--threads", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    truth, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0)
    assert abs(float(rows[0]["price"]) - truth) < 1e-4


# a spot within a cell of a barrier: a Brownian regime makes both barriers
# regular, so the barrier node, valued 0, anchors the interpolation there.
# At mPower 12 the price falls short of the series by at most 7.7% of it
# (7.0% at 1e-3, 4.6% at half a cell, under either back end); the bound of
# 10% leaves a 1.3x margin.  A stencil of interior nodes alone priced these
# spots at -8.6e-4 to -1.8e-4.
@pytest.mark.parametrize("distance", [1e-10, 1e-4, 1e-3, "half_cell"])
@pytest.mark.parametrize("barrier", ["lower", "upper"])
def test_spot_near_barrier_prices_the_series(barrier, distance):
    doc = copy.deepcopy(BROWNIAN_DOC)
    if distance == "half_cell":
        distance = 0.5 * cli._grid(parse_config(doc)).dx
    doc["x0"] = doc["barriers"][barrier] + (distance if barrier == "lower" else -distance)
    rows, _ = run_price(parse_config(dict(doc, threads=1)))
    truth, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, doc["x0"], 1.0)
    assert 0.0 <= rows[0]["price"] and abs(rows[0]["price"] - truth) <= 0.1 * truth


def _strip_wall(text):
    rows = [r.split(",") for r in text.strip().splitlines()]
    return [r[:-1] for r in rows]


def test_price_cli_deterministic_and_thread_independent(tmp_path):
    rc1, out1 = _run_cli(tmp_path, TWO_REGIME_DOC, "price", "--threads", "1",
                         "--all-histories")
    rc2, out2 = _run_cli(tmp_path, TWO_REGIME_DOC, "price", "--threads", "1",
                         "--all-histories")
    rc4, out4 = _run_cli(tmp_path, TWO_REGIME_DOC, "price", "--threads", "4",
                         "--all-histories")
    assert rc1 == rc2 == rc4 == 0
    assert _strip_wall(out1) == _strip_wall(out2) == _strip_wall(out4)


def test_kobol_price_thread_independent():
    # node threads share the grid's kept spectral-split arrays
    doc = json.loads((ROOT / "configs" / "kobol_single.json").read_text())
    doc["inversion"] = {"backend": "sinh"}
    doc["grid"] = {"mPower": 11}
    prices = []
    for threads in (1, 2, 2):
        doc["threads"] = threads
        rows, _ = run_price(parse_config(doc))
        prices.append(repr(rows[0]["price"]))
    assert prices[0] == prices[1] == prices[2]


@pytest.mark.parametrize("backend, reprs", [
    ("gwr", ["0.8332342594250856", "0.5899088021304019"]),
    ("sinh", ["0.833209320583143", "0.5899222333606009"]),
])
def test_kou_memory_price_bits_are_pinned(backend, reprs):
    # every history's price of the coupled Kou chain, bit for bit, at either
    # thread count; a change to the order of any floating-point operation
    # from the nodes to the inversion shows here
    doc = json.loads((ROOT / "configs" / "kou_memory.json").read_text())
    doc["inversion"]["backend"] = backend
    doc["grid"] = {"mPower": 10}
    for threads in (1, 2):
        doc["threads"] = threads
        rows, _ = run_price(parse_config(doc), all_histories=True)
        assert [repr(r["price"]) for r in rows] == reprs


@pytest.mark.parametrize("backend, reprs", [
    ("gwr", ["0.2405456829128286"]),
    ("sinh", ["0.24055756887800622"]),
])
def test_kobol_price_bits_are_pinned(backend, reprs):
    # the KoBoL regime takes the spectral split at every node: its price, bit
    # for bit, at either thread count pins the split from the oversampled
    # contour to the one-factor symbols the plans read
    doc = json.loads((ROOT / "configs" / "kobol_single.json").read_text())
    doc["inversion"]["backend"] = backend
    doc["grid"] = {"mPower": 10}
    for threads in (1, 2):
        doc["threads"] = threads
        rows, _ = run_price(parse_config(doc), all_histories=True)
        assert [repr(r["price"]) for r in rows] == reprs


@pytest.mark.parametrize("backend, reprs", [
    ("gwr", ["0.3707479640572107"]),
    ("sinh", ["0.37076443988170593"]),
])
def test_brownian_band_price_bits_are_pinned(backend, reprs):
    # both sides of a Brownian regime creep: its price, bit for bit, at
    # either thread count pins the first touch of a side no jump crosses
    doc = json.loads((ROOT / "configs" / "brownian_band.json").read_text())
    doc["inversion"]["backend"] = backend
    doc["grid"] = {"mPower": 12}
    for threads in (1, 2):
        doc["threads"] = threads
        rows, _ = run_price(parse_config(doc), all_histories=True)
        assert [repr(r["price"]) for r in rows] == reprs


def test_mc_cli(tmp_path):
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "mc")
    assert rc == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert 0.0 < float(row["estimate"]) < 1.0
    assert int(row["paths"]) == 2000


def test_mc_threads_keep_the_estimate(tmp_path):
    # --threads 2 forks over the path blocks and prints the 1-thread bits
    rows = {}
    for threads in ("1", "2"):
        rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "mc", "--threads", threads)
        assert rc == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        rows[threads] = row["estimate"], row["stderr"]
    assert rows["2"] == rows["1"]


def test_mc_refuses_a_regime_it_cannot_walk(tmp_path, capsys, monkeypatch):
    # the walker draws diffusions and Kou jumps, not KoBoL paths: one config
    # error line that names the regime, before any path is drawn
    drawn = []
    monkeypatch.setattr(montecarlo, "_one_path", lambda *args, **kw: drawn.append(1))
    doc = json.loads((ROOT / "configs" / "kobol_single.json").read_text())
    rc, out = _run_cli(tmp_path, doc, "mc")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out, drawn) == (2, "", [])
    assert len(err) == 1 and err[0].startswith("config error: regime 1 ")
    assert "KoBoL" in err[0], err


# settings the estimator cannot run, or that JSON spells with the wrong
# type: one config error line and exit 2, before any path is drawn
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path, value", [
    (("mc", "dt"), 0), (("mc", "dt"), -1e-4), (("mc", "dt"), math.nan),
    (("seed",), 2**70), (("seed",), 1.5), (("mc", "bridge"), "no"),
    (("mc", "antithetic"), "false"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
def test_bad_mc_setting_is_config_error(tmp_path, capsys, path, value):
    doc = copy.deepcopy(BROWNIAN_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    rc, out = _run_cli(tmp_path, doc, "mc")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("config error:"), err
    if path[-1] in CONSTANT_KEYS:
        assert f"unknown key {'.'.join(path)};" in err[0], err


# keys whose settings are gone: one config error line naming the key and
# exit 2, from price and from mc alike
@pytest.mark.parametrize("path, value", [
    (("mc", "antithetic"), True), (("chain", "lambda0"), 5.0),
    (("mc", "bridge"), True), (("mc", "bridge"), False),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
def test_removed_setting_is_unknown_key(tmp_path, capsys, path, value):
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc[path[0]][path[1]] = value
    for argv in (("price", "--threads", "1"), ("mc",)):
        rc, out = _run_cli(tmp_path, doc, *argv)
        err = capsys.readouterr().err.splitlines()
        assert (rc, out) == (2, ""), argv
        assert len(err) == 1 and err[0].startswith(
            f"config error: unknown key {'.'.join(path)};"), err


# grid settings outside their range: one config error line and exit 2, from
# price and from factors, before any grid is built, not a numeric error with
# wrong advice or a silent price.  dampingScale, dampingCap and decayTol are
# constants of the method now: a document that still gives one, in range or
# not, is refused as an unknown key.
@pytest.mark.parametrize("config, key, value", [
    (config, key, value) for config in ("kou_memory", "brownian_band")
    for key, value in (("dampingCap", 0.0), ("dampingCap", -1.0), ("dampingScale", 0.0),
                       ("dampingScale", -0.25), ("decayTol", 0.0), ("decayTol", -1e-6),
                       ("decayTol", 2.0))
    if (config, key, value) != ("brownian_band", "dampingScale", -0.25)
] + [
    # a band of 2 or 3 cells, too few for the spot's interpolation stencil
    ("brownian_band", "mPower", 5), ("brownian_band", "mPower", 6),
    # 2^mPower nodes that overflow a float
    ("brownian_band", "mPower", 5000),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_bad_grid_setting_is_config_error(tmp_path, capsys, config, key, value):
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    doc["grid"][key] = value
    named = f"unknown key grid.{key};" if key in CONSTANT_KEYS else key
    for argv in (("price", "--threads", "1"), ("factors",)):
        rc, out = _run_cli(tmp_path, doc, *argv)
        err = capsys.readouterr().err.splitlines()
        assert (rc, out) == (2, ""), argv
        assert len(err) == 1 and err[0].startswith("config error:") and named in err[0], err


def test_smallest_band_grid_prices():
    # mPower 7 puts 6 cells in brownian_band's band, the fewest that
    # mPower can give with 4 strictly interior nodes
    doc = json.loads((ROOT / "configs" / "brownian_band.json").read_text())
    doc["grid"]["mPower"] = 7
    doc["threads"] = 1
    rows, _ = run_price(parse_config(doc))
    truth, _ = brownian_band_series(1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0)
    assert abs(rows[0]["price"] - truth) < 0.02


# a key the parser does not read, misspelt or misplaced, in each object of
# the document, or a setting that is now a constant of the method: one
# config error line that names the key's path, and exit 2, from price and
# from factors
@pytest.mark.parametrize("doc_name, where", [
    ("kou_memory", "grid.mpower"), ("kou_memory", "tolerances.Inner"),
    ("kou_memory", "inversion.backEnd"), ("kou_memory", "mc.Paths"),
    ("kou_memory", "thread"), ("kou_memory", "X0"),
    ("kou_memory", "chain.lambda_0"), ("kou_memory", "chain.rates.default"),
    ("kou_memory", "regimes[1].rate"), ("kou_memory", "regimes[0].model.nu"),
    ("kou_memory", "barriers.Upper"), ("two_regime", "chain.rates.rule"),
    ("two_regime", "chain.rates.rules[0].target"),
    ("two_regime", "regimes[1].model.lambdaJ"),
    ("kou_memory", "grid.dampingScale"), ("kou_memory", "grid.dampingCap"),
    ("kou_memory", "grid.decayTol"), ("kou_memory", "tolerances.maxOuter"),
    ("kou_memory", "inversion.sinhGamma"), ("kou_memory", "inversion.sinhSigma0"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, doc_name, where):
    if doc_name == "kou_memory":
        doc = json.loads((ROOT / "configs" / "kou_memory.json").read_text())
    else:
        doc = copy.deepcopy(TWO_REGIME_DOC)
    path = []
    for part in where.split("."):
        name, _, index = part.partition("[")
        path += [name] + ([int(index[:-1])] if index else [])
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = 1
    for argv in (("price", "--threads", "1"), ("factors",)):
        rc, out = _run_cli(tmp_path, doc, *argv)
        err = capsys.readouterr().err.splitlines()
        assert (rc, out) == (2, ""), argv
        assert len(err) == 1 and err[0].startswith(f"config error: unknown key {where};"), err


# a thread count must be a whole number >= 1, whether the document, the
# command line or RSBARRIER_THREADS gives it, and even when the spot lies
# outside the band and nothing is priced or drawn
BAD_THREAD_SETTINGS = pytest.mark.parametrize("source, value", [
    ("env", "abc"), ("env", "0"), ("env", "-3"), ("env", "2.5"),
    ("doc", 0), ("doc", -2), ("doc", True), ("doc", 2.7), ("doc", "2"),
    ("flag", "0"), ("flag", "-1"), ("env-spot-outside", "0"),
], ids=lambda v: str(v))


@BAD_THREAD_SETTINGS
def test_bad_thread_setting_is_config_error(tmp_path, capsys, monkeypatch, source, value):
    _check_bad_thread_setting(tmp_path, capsys, monkeypatch, "price", source, value)


@BAD_THREAD_SETTINGS
def test_bad_thread_setting_is_config_error_in_mc(tmp_path, capsys, monkeypatch,
                                                  source, value):
    _check_bad_thread_setting(tmp_path, capsys, monkeypatch, "mc", source, value)


def _check_bad_thread_setting(tmp_path, capsys, monkeypatch, command, source, value):
    doc = copy.deepcopy(BROWNIAN_DOC)
    if source == "env-spot-outside":
        source, doc["x0"] = "env", 2.0
    argv = [command]
    if source == "env":
        monkeypatch.setenv("RSBARRIER_THREADS", value)
    else:
        monkeypatch.delenv("RSBARRIER_THREADS", raising=False)
        if source == "doc":
            doc["threads"] = value
        else:
            argv += ["--threads", value]
    rc, out = _run_cli(tmp_path, doc, *argv)
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("config error:") and "threads" in err[0].lower()


def test_large_thread_counts_parse(monkeypatch):
    # parsed and resolved only: no pool is started with these
    monkeypatch.setenv("RSBARRIER_THREADS", "1000000")
    assert parse_config(dict(BROWNIAN_DOC, threads=10**6)).resolve_threads() == 10**6
    assert parse_config(dict(BROWNIAN_DOC, threads=4.0)).resolve_threads() == 4
    assert parse_config(BROWNIAN_DOC).resolve_threads() == 1000000


def test_subcommands_reject_flags_they_do_not_read(tmp_path):
    # mc takes --seed and --threads; argparse exits with code 2 on an unknown
    # flag
    for argv in (("mc", "--backend", "sinh"), ("factors", "--seed", "3"),
                 ("price", "--seed", "3")):
        with pytest.raises(SystemExit) as exc:
            _run_cli(tmp_path, BROWNIAN_DOC, *argv)
        assert exc.value.code == 2


def test_factors_cli(tmp_path):
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "factors", "--q-value", "2.0")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {"xi", "re_phi_plus", "im_phi_plus", "re_phi_minus",
            "im_phi_minus", "residual"} <= set(rows[0])
    assert max(float(r["residual"]) for r in rows) < 1e-10


# factors and convergence arguments that name no regime of the document or
# no number of the ladder's kind: one config error line and exit 2, and a
# ladder fails before its first price
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("factors", "--regime", "0"), ("factors", "--regime", "-1"),
    ("factors", "--regime", "3"), ("factors", "--q-value", "abc"),
    ("factors", "--q-value", "nan"), ("factors", "--q-value", "1e400"),
    ("convergence", "--param", "nGaver", "--values", "abc"),
    ("convergence", "--param", "mPower", "--values", "12.5"),
    ("convergence", "--param", "tolOuter", "--values", "1e-8,abc"),
    ("convergence", "--param", "mPower", "--values", ""),
    ("convergence", "--param", "nGaver", "--values", ",,"),
], ids=" ".join)
def test_bad_command_argument_is_config_error(tmp_path, capsys, argv):
    rc, out = _run_cli(tmp_path, TWO_REGIME_DOC, *argv)
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("config error:"), err


def test_invert_demo_cli():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["invert-demo"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 3
    assert max(float(r["sinh_error"]) for r in rows) < 1e-10


def test_invert_demo_bits_are_pinned():
    # both back ends' errors on the known pairs, bit for bit: a change to the
    # order of any floating-point operation of either inversion shows here
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["invert-demo"]) == 0
    assert [list(r.values()) for r in csv.DictReader(io.StringIO(buf.getvalue()))] == [
        ["1/(q+1)@tau=1", "1.805925575748546e-09", "8.52906634207784e-11"],
        ["1/q@tau=1.5", "0.0", "8.570910647875962e-11"],
        ["1/q^2@tau=2", "8.164460085779979e-08", "7.043032823617068e-12"],
    ]


def test_convergence_cli_grid_ladder(tmp_path):
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "convergence",
                       "--param", "mPower", "--values", "11,12,13", "--threads", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    diffs = [float(r["successive_diff"]) for r in rows[1:]]
    assert diffs[1] < diffs[0]  # grid refinement converges


def test_convergence_memory_ladder(tmp_path):
    doc = copy.deepcopy(TWO_REGIME_DOC)
    doc["chain"]["rates"] = {"default": 0.5,
                             "rules": [{"s": 1, "history": [2], "rate": 0.9}]}
    rc, out = _run_cli(tmp_path, doc, "convergence",
                       "--param", "memoryN", "--values", "0,1,2", "--threads", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # history-independent rates: the price cannot depend on the depth
    diffs = [float(r["successive_diff"]) for r in rows[1:]]
    assert max(diffs) < 1e-8

    rc, _ = _run_cli(tmp_path, TWO_REGIME_DOC, "convergence",
                     "--param", "memoryN", "--values", "0,1")
    assert rc == 2  # history-dependent rule: rejected
    rc, _ = _run_cli(tmp_path, BROWNIAN_DOC, "convergence",
                     "--param", "memoryN", "--values", "0,1")
    assert rc == 2  # dense rates: rejected


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = main(["price", "--config", str(p)])
    assert rc == 2
    # json.dumps writes NaN, which json.load reads back as a float
    # a non-finite number, values of the wrong type, a grid too small for the
    # band, and Monte Carlo settings that simulate_price refuses
    cases = [("price", ("maturity",), math.nan), ("price", ("x0",), "abc"),
             ("price", ("grid", "mPower"), "x"), ("price", ("regimes",), 5),
             ("price", ("grid", "mPower"), 3), ("mc", ("mc", "paths"), 10)]
    for command, path, value in cases:
        doc = copy.deepcopy(BROWNIAN_DOC)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = [command, "--config", str(p)] + (["--threads", "1"] if command == "price" else [])
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, (path, value)
        assert err.startswith("config error:") and "Traceback" not in err


def test_infeasible_chain_exit_code(tmp_path, capsys):
    # m = 1 with N = 1 is a fault of the document, not a numerical error,
    # whether the document gives it or a memoryN ladder reaches it
    deep = copy.deepcopy(BROWNIAN_DOC)
    deep["chain"].update(N=1, rates=0.0)
    deep["initialHistory"] = [1, 2]
    ladder = copy.deepcopy(BROWNIAN_DOC)
    ladder["chain"]["rates"] = 0.0
    for doc, argv in ((deep, ["price", "--threads", "1"]),
                      (ladder, ["convergence", "--param", "memoryN", "--values", "1",
                                "--threads", "1"])):
        capsys.readouterr()
        rc, out = _run_cli(tmp_path, doc, *argv)
        err = capsys.readouterr().err.splitlines()
        assert (rc, out) == (2, ""), argv
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "m=1 admits no history" in err[0], err


def test_numeric_error_exit_code(tmp_path, capsys, monkeypatch):
    doc = copy.deepcopy(BROWNIAN_DOC)
    monkeypatch.setattr(engine, "MAX_OUTER", 2)  # series cannot terminate in 2 terms
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["price", "--config", str(cfg_path), "--threads", "1"])
    assert rc == 3
    assert "more than 2 terms" in capsys.readouterr().err
    monkeypatch.undo()
    # the size guard fires before any array is built, so 2^60 nodes cost nothing
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["grid"] = {"mPower": 60}
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["price", "--config", str(cfg_path), "--threads", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numeric error:") and "GiB" in err and "Traceback" not in err


def test_huge_grid_error_is_one_short_line(tmp_path, capsys):
    # 2^1023 nodes would print as 308 digits; the message names 2^1023
    doc = json.loads((ROOT / "configs" / "brownian_band.json").read_text())
    doc["grid"]["mPower"] = 1023
    rc, out = _run_cli(tmp_path, doc, "price", "--threads", "1")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error:") and "2^1023" in err[0], err
    assert len(err[0]) < 200, err


# a discount rate or spectral value whose Q overflows the root finder of a
# rational regime: one numeric error line and no traceback, from price under
# either back end and at either process count (at 2 the error comes from a
# worker), and from factors
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config, regime, argv", [
    ("kou_memory", 1, ("price", "--threads", "1")),
    ("kou_memory", 1, ("price", "--threads", "2")),
    ("brownian_band", 0, ("price", "--threads", "1")),
    ("brownian_band", 0, ("price", "--threads", "1", "--backend", "sinh")),
    ("kou_memory", None, ("factors", "--q-value", "1e308")),
    ("brownian_band", None, ("factors", "--q-value", "1e308")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_overflowing_q_is_numeric_error(tmp_path, capsys, config, regime, argv):
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    if regime is not None:
        doc["regimes"][regime]["r"] = 1e308
    rc, out = _run_cli(tmp_path, doc, *argv)
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error:") and "overflow" in err[0], err


# a discount rate so large that np.roots loses the roots of Q + psi near the
# jump poles to underflow (it returns 0 for both), short of the overflow
# refusal above: one numeric error line, from the typed error of the root
# route, not an internal error that blames the engine
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", [1e100, 1e154, 1e200, 1e300])
def test_unresolved_root_is_numeric_error(tmp_path, capsys, rate):
    doc = json.loads((ROOT / "configs" / "kou_memory.json").read_text())
    doc["grid"] = {"mPower": 10}
    doc["regimes"][1]["r"] = rate
    rc, out = _run_cli(tmp_path, doc, "price", "--threads", "1")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error: Q + psi at Q="), err
    assert "rate r" in err[0], err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unresolved_root_is_degenerate_factorization():
    cfg = parse_config(json.loads((ROOT / "configs" / "kou_memory.json").read_text()))
    model = cfg.problem.regimes[1].model
    grid = build.grid(-0.3, 0.3, [model], m_power=10)
    with pytest.raises(FactorizationDegenerateError, match=r"Q=\(1e\+200\+0j\)"):
        factorize_rational(model, 1e200, grid)


# a maturity whose sinh contour needs exp(sigma0*T) past the roundoff the
# target allows: one config error line naming the maturity and the gwr back
# end, where the sinh back end used to print a price swamped by roundoff
@pytest.mark.parametrize("maturity", [24.0, 200.0])
def test_sinh_refuses_a_maturity_it_cannot_afford(tmp_path, capsys, maturity):
    doc = json.loads((ROOT / "configs" / "brownian_band.json").read_text())
    doc["maturity"] = maturity
    rc, out = _run_cli(tmp_path, doc, "price", "--backend", "sinh", "--threads", "1")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert f"maturity {maturity:g}" in err[0] and "gwr" in err[0], err


# a node count whose outermost contour nodes leave the float range: a config
# error that names sinhNodes, where the plan used to fail with a bare
# OverflowError (at maturity 20) or with a numpy overflow warning and a
# "node outside the sector" refusal; one node fewer still plans, with finite
# nodes and weights
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("maturity, target, limit", [
    (0.5, 1e-10, 15528), (1.0, 1e-6, 10246), (20.0, 1e-10, 20098)])
def test_sinh_refuses_nodes_past_the_float_range(tmp_path, capsys, maturity, target, limit):
    doc = json.loads((ROOT / "configs" / "kou_memory.json").read_text())
    doc["maturity"] = maturity
    doc["inversion"] = {"backend": "sinh", "sinhNodes": limit, "sinhTargetTol": target}
    plan = parse_config(doc).inversion
    assert all(np.all(np.isfinite(a)) for a in sinh_nodes(sinh_plan(maturity, plan)))
    doc["inversion"]["sinhNodes"] = limit + 1
    rc, out = _run_cli(tmp_path, doc, "price", "--threads", "1")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert f"sinhNodes = {limit + 1}" in err[0], err


# an --out path that cannot be written: one config error line naming it,
# before anything is priced, where it used to end in a traceback after the
# whole price had been computed
@pytest.mark.parametrize("argv", [("price", "--threads", "1"), ("invert-demo",)], ids=" ".join)
@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch, argv, target):
    monkeypatch.setattr(cli, "price_histories", None)  # nothing may be priced
    out = str(tmp_path / target)
    if argv[0] == "invert-demo":
        rc = main([*argv, "--out", out])
    else:
        rc, _ = _run_cli(tmp_path, BROWNIAN_DOC, *argv, "--out", out)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:") and out in err[0], err


# two zero-drift Brownian regimes whose switching makes the inner sweeps
# slow: at rate 5 they converge in 427 sweeps, to prices 0.45701 and 0.45387
SLOW_SWEEP_DOC = {
    "regimes": [{"model": {"type": "BrownianDrift", "mu": 0.0, "sigma2": s2},
                 "r": 0.0, "G": 1.0} for s2 in (0.5, 1.0)],
    "chain": {"m": 2, "N": 0, "rates": 5.0},
    "barriers": {"lower": -3.0, "upper": 3.0},
    "x0": 0.0,
    "maturity": 10.0,
    "initialHistory": [1],
    "inversion": {"backend": "gwr"},
    "grid": {"mPower": 11},
    "tolerances": {"maxSweeps": 20},
}


# inner solves that the sweep cap stops above their tolerance: the price is
# still printed with exit 0, and one warning line names the setting to
# raise, at either process count (the counts come back from the workers)
def test_sweep_cap_warns(tmp_path, capsys):
    for threads in ("1", "2"):
        rc, out = _run_cli(tmp_path, SLOW_SWEEP_DOC, "price", "--all-histories",
                           "--threads", threads)
        err = capsys.readouterr().err.splitlines()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0 and len(rows) == 2 and {r["max_inner_sweeps"] for r in rows} == {"20"}
        assert len(err) == 1 and err[0].startswith("warning:"), err
        assert "tolerances.maxSweeps" in err[0], err


@pytest.mark.parametrize("config", ["brownian_band", "kobol_single", "kou_memory"])
def test_shipped_configs_price_without_warning(tmp_path, capsys, config):
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    rc, out = _run_cli(tmp_path, doc, "price", "--all-histories", "--threads", "2")
    assert rc == 0 and out
    assert capsys.readouterr().err == ""


# the worker-process tests price BROWNIAN_DOC's 16 GWR nodes at 2 threads,
# which forks 2 workers only where there are 2 cores and fork
needs_pool = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs 2 cores and the fork start method")


def _fail_in_worker(monkeypatch, fail):
    """price_field calls ``fail(q)`` at the third GWR node when it runs in a
    worker process, and refuses to run that node in the test's own."""
    parent, price_field = os.getpid(), QPricer.price_field
    target = gwr_nodes(BROWNIAN_DOC["maturity"], BROWNIAN_DOC["inversion"]["nGaver"])[2]

    def patched(self, q):
        if q == target:
            assert os.getpid() != parent, "the node ran in the test's own process"
            fail(q)
        return price_field(self, q)

    monkeypatch.setattr(QPricer, "price_field", patched)


@needs_pool
def test_worker_error_keeps_its_type(tmp_path, capsys, monkeypatch):
    def diverge(q):
        raise DivergenceError(f"outer terms grew at q = {q} in process {os.getpid()}")

    _fail_in_worker(monkeypatch, diverge)
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "price", "--threads", "2")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error: outer terms grew"), err
    assert f"in process {os.getpid()}" not in err[0]
    assert multiprocessing.active_children() == []


@needs_pool
def test_dead_worker_is_internal_error(tmp_path, capsys, monkeypatch):
    _fail_in_worker(monkeypatch, lambda q: os._exit(1))
    rc, out = _run_cli(tmp_path, BROWNIAN_DOC, "price", "--threads", "2")
    err = capsys.readouterr().err.splitlines()
    assert (rc, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("numeric error: a worker process died"), err
    assert multiprocessing.active_children() == []


def test_worker_count_capped_by_nodes_and_cores(monkeypatch):
    # a million threads asked for: the pool is built with at most one
    # worker per node and per core, and the prices keep the 1-thread bits
    from concurrent.futures import process

    started = []

    class Recording(process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
    doc = json.loads((ROOT / "configs" / "kou_memory.json").read_text())
    doc["grid"] = {"mPower": 10}
    prices = {}
    for threads in (1, 10**6):
        doc["threads"] = threads
        rows, _ = run_price(parse_config(doc), all_histories=True)
        prices[threads] = [repr(r["price"]) for r in rows]
    nodes = len(gwr_nodes(doc["maturity"], parse_config(doc).inversion.n_gaver))
    cap = min(nodes, os.cpu_count() or 1)
    assert len(started) == (cap > 1) and all(n <= cap for n in started), started
    assert prices[10**6] == prices[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("value", [False, True])
def test_removed_extended_precision_key_is_config_error(value):
    doc = copy.deepcopy(BROWNIAN_DOC)
    doc["inversion"]["extendedPrecision"] = value
    with pytest.raises(ConfigError, match="inversion.extendedPrecision"):
        parse_config(doc)


def test_readme_defaults_table_matches_config():
    readme = (ROOT / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0] in DEFAULTS:
            rows[cells[0]] = cells[2]
    assert set(rows) == set(DEFAULTS)
    for key, value in DEFAULTS.items():
        assert rows[key] == json.dumps(value), key
