"""Command-line surface: price, mc, factors, invert-demo, convergence.

Exit codes: 0 success, 2 configuration error, 3 numerical error.  All
numeric output is CSV.  ``price_histories`` is the one pricing driver: it
evaluates the transform at the inversion nodes (in forked worker processes
over the nodes when ``threads`` > 1, else in this process; results kept in
fixed node order, one array shared by all histories) and inverts history by
history.  ``price``, ``convergence`` and the acceptance criteria all price
through it.  ``mc`` forks over Monte Carlo path blocks the same way, through
the same pool (``pool.map_tasks``).
"""

from __future__ import annotations

import argparse
import cmath
import copy
import csv
import dataclasses
import math
import os
import sys
import time

import numpy as np

from .config import ProblemConfig, parse_config, read_document
from .engine import QPricer, check_working_set
from .errors import ConfigError, RsBarrierError
from .grids import DualGrid, build_grid
from .histories import encode
from .inversion import (InversionPlan, gwr_invert, gwr_nodes, sinh_invert, sinh_nodes,
                        sinh_plan)
from .montecarlo import simulate_price
from .pool import map_tasks
from .wiener_hopf import factorize


def _grid(cfg: ProblemConfig) -> DualGrid:
    p = cfg.problem
    try:
        return build_grid(p.lower, p.upper, [r.model for r in p.regimes], cfg.grid)
    except ValueError as exc:  # the band does not fit 2^mPower nodes
        raise ConfigError(f"invalid grid: {exc}") from exc


def _make_pricer(cfg: ProblemConfig) -> QPricer:
    return QPricer(cfg.problem, _grid(cfg), cfg.tolerances)


def _spot_value(pricer: QPricer, q):
    """The transform at the spot at one node, one entry per history code,
    and the node's iteration stats."""
    field = pricer.price_field(q)
    return field.at(pricer.problem.spot), field.stats


def _evaluate_nodes(pricer: QPricer, nodes, threads: int):
    """The transform at the spot, one row per node in node order and one
    column per history code, plus the most outer terms and inner sweeps
    that any node took and the count of inner solves that the sweep cap
    stopped short of their tolerance.  ``threads`` counts worker processes
    over the nodes, at most one per node and per core; with fewer than 2 of
    them, or no fork, the nodes run one after another in this process."""
    results = map_tasks(_spot_value, nodes, threads, pricer)
    stats = [s for _, s in results]
    return np.array([v for v, _ in results]), {
        "outer": max(len(s.outer_terms) for s in stats),
        "sweeps": max(s.max_inner_sweeps for s in stats),
        "capped": sum(s.capped_solves for s in stats)}


def price_histories(pricer: QPricer, inversion: InversionPlan, threads: int = 1):
    """The price of every history, by history code, and the iteration counts
    of ``_evaluate_nodes``: the transform at the spot on the back end's
    nodes, inverted history by history."""
    tau, n_gaver = pricer.problem.maturity, inversion.n_gaver
    if inversion.backend == "sinh":
        splan = sinh_plan(tau, inversion)
        values, iterations = _evaluate_nodes(pricer, sinh_nodes(splan)[0], threads)
        prices = [sinh_invert(column, tau, splan) for column in values.T]
    else:
        values, iterations = _evaluate_nodes(pricer, gwr_nodes(tau, n_gaver), threads)
        prices = [gwr_invert(column.real, tau, n_gaver) for column in values.T]
    return prices, iterations


def run_price(cfg: ProblemConfig, all_histories: bool = False):
    """Price rows for the configured history (or all of them)."""
    problem, plan = cfg.problem, cfg.inversion
    start = time.perf_counter()
    threads = cfg.resolve_threads()  # a bad setting fails even when nothing is priced
    codes = range(problem.chain.size) if all_histories else \
        [encode(problem.chain.m, problem.initial_history)]
    meta = {"backend": plan.backend,
            "depth": plan.sinh_nodes if plan.backend == "sinh" else plan.n_gaver,
            "outer": 0, "sweeps": 0}
    if problem.lower < problem.spot < problem.upper:
        pricer = _make_pricer(cfg)
        if plan.backend == "sinh":
            for spec in problem.regimes:
                if not spec.model.sinh_inversion_admissible():
                    print(f"warning: sinh back end not established for {spec.model}",
                          file=sys.stderr)
        prices, iterations = price_histories(pricer, plan, threads)
        capped = iterations.pop("capped")
        if capped:
            print(f"warning: {capped} inner solves stopped at tolerances.maxSweeps = "
                  f"{cfg.tolerances.max_sweeps} above their tolerance; the price may be "
                  f"off, raise tolerances.maxSweeps", file=sys.stderr)
        meta.update(iterations)
    else:
        prices = [0.0] * problem.chain.size
        print("warning: spot outside band", file=sys.stderr)
    rows = [dict(history=int(c), price=prices[c]) for c in codes]
    meta["wall"] = time.perf_counter() - start
    return rows, meta


# flag -> (document section it overrides, None for the top level; argparse
# options); each subcommand takes only the flags it reads
_OVERRIDES = {
    "threads": (None, dict(type=int, help="worker processes over spectral values or "
                                   "Monte Carlo path blocks (1 runs in this process)")),
    "seed": (None, dict(type=int, help="Monte Carlo seed")),
    "backend": ("inversion", dict(choices=["gwr", "sinh"],
                                  help="Laplace inversion back end")),
}


def _document(args) -> dict:
    """The config document with the command line's overrides applied."""
    doc = read_document(args.config)
    for flag, (section, _) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            (doc.setdefault(section, {}) if section else doc)[flag] = value
    return doc


def _check_out(path) -> None:
    """Refuse, before any work, an output path that is a directory or lies
    in a directory that is missing or read-only."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")
    if not os.access(folder, os.W_OK):
        raise ConfigError(f"--out {path}: directory {folder} is missing or read-only")


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _cmd_price(args) -> int:
    cfg = parse_config(_document(args))
    rows, meta = run_price(cfg, all_histories=args.all_histories)
    header = ["history", "price", "backend", "depth", "outer_terms",
              "max_inner_sweeps", "wall_time"]
    csv_rows = [[r["history"], repr(r["price"]), meta["backend"], meta["depth"],
                 meta["outer"], meta["sweeps"], f"{meta['wall']:.3f}"] for r in rows]
    _write_csv(args.out, header, csv_rows)
    return 0


def _cmd_mc(args) -> int:
    cfg = parse_config(_document(args))
    mc = dataclasses.replace(cfg.mc, threads=cfg.resolve_threads())
    res = simulate_price(cfg.problem, mc)
    _write_csv(args.out, ["estimate", "stderr", "paths", "dt", "seed", "wall_time"],
               [[repr(res.estimate), repr(res.stderr), res.paths, res.dt,
                 res.seed, f"{res.wall_time:.3f}"]])
    return 0


def _cmd_factors(args) -> int:
    cfg = parse_config(_document(args))
    regimes = cfg.problem.regimes
    if not 1 <= args.regime <= len(regimes):
        raise ConfigError(f"--regime must lie in 1..{len(regimes)}, got {args.regime}")
    try:
        q = complex(args.q_value)
    except ValueError:
        q = cmath.nan
    if not cmath.isfinite(q):
        raise ConfigError(f"--q-value must be a finite number such as 2.0 or 3+4j, "
                          f"got {args.q_value!r}")
    model = regimes[args.regime - 1].model
    grid = _grid(cfg)
    check_working_set(1, grid.size)
    fact = factorize(model, q, grid)
    cs = fact.contour_symbols(0.0)
    resid = np.abs(cs.phi_plus * cs.phi_minus / fact.e_symbol(grid.xi) - 1.0)
    order = np.argsort(grid.xi)
    rows = [[grid.xi[i], cs.phi_plus[i].real, cs.phi_plus[i].imag,
             cs.phi_minus[i].real, cs.phi_minus[i].imag, resid[i]]
            for i in order]
    _write_csv(args.out, ["xi", "re_phi_plus", "im_phi_plus",
                          "re_phi_minus", "im_phi_minus", "residual"], rows)
    return 0


def _cmd_invert_demo(args) -> int:
    pairs = [
        ("1/(q+1)@tau=1", lambda q: 1.0 / (q + 1.0), 1.0, math.exp(-1.0)),
        ("1/q@tau=1.5", lambda q: 1.0 / q, 1.5, 1.0),
        ("1/q^2@tau=2", lambda q: 1.0 / q**2, 2.0, 2.0),
    ]
    plan, rows = InversionPlan(), []
    for name, fn, tau, truth in pairs:
        gwr = gwr_invert(fn(gwr_nodes(tau, plan.n_gaver)), tau, plan.n_gaver)
        splan = sinh_plan(tau, plan)
        snh = sinh_invert(fn(sinh_nodes(splan)[0]), tau, splan)
        rows.append([name, repr(abs(gwr - truth)), repr(abs(snh - truth))])
    _write_csv(args.out, ["pair", "gwr_error", "sinh_error"], rows)
    return 0


# ladder parameter -> (document section, key, type); memoryN is handled apart
_LADDERS = {
    "mPower": ("grid", "mPower", int),
    "nGaver": ("inversion", "nGaver", int),
    "tolOuter": ("tolerances", "outer", float),
}


def _check_memory_ladder(rates) -> None:
    """A depth ladder compares like with like only if no rate reads the past."""
    rule_form = isinstance(rates, dict) and "rules" in rates
    if not rule_form and not isinstance(rates, (int, float)):
        raise ConfigError("memoryN ladders need rule-form (history-prefix) rates")
    if rule_form and any(len(r.get("history", [])) > 1 for r in rates["rules"]):
        raise ConfigError("memoryN ladders need history-independent rates "
                          "(rule histories of length <= 1)")


def _cmd_convergence(args) -> int:
    base = _document(args)
    parse_config(base)  # a bad document fails before the first price
    if args.param == "memoryN":
        _check_memory_ladder(base["chain"]["rates"])
    kind = int if args.param == "memoryN" else _LADDERS[args.param][2]
    ladder = []
    for v in [v.strip() for v in args.values.split(",") if v.strip()]:
        try:
            ladder.append((v, kind(v)))
        except ValueError:
            raise ConfigError(f"--values: {args.param} takes {kind.__name__} values, "
                              f"got {v!r}") from None
    if not ladder:
        raise ConfigError(f"--values lists no value, got {args.values!r}")
    rows = []
    prev = None
    for v, value in ladder:
        doc = copy.deepcopy(base)
        if args.param == "memoryN":
            doc["chain"]["N"] = value
            labels = [doc["initialHistory"][0]]
            for _ in range(value):
                labels.append(1 if labels[-1] != 1 else 2)
            doc["initialHistory"] = labels
        else:
            section, key, _ = _LADDERS[args.param]
            doc.setdefault(section, {})[key] = value
        out_rows, _ = run_price(parse_config(doc))
        price = out_rows[0]["price"]
        diff = "" if prev is None else repr(abs(price - prev))
        rows.append([args.param, v, repr(price), diff])
        prev = price
    _write_csv(args.out, ["parameter", "value", "price", "successive_diff"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsbarrier",
        description="Double-barrier knock-out pricing under regime-switching "
                    "Levy models with memory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config=True, overrides=()):
        """A subcommand with --out, --config unless told otherwise, and only
        the config overrides it reads."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", required=True, help="JSON problem file")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        for flag in overrides:
            p.add_argument(f"--{flag}", default=None, **_OVERRIDES[flag][1])
        p.set_defaults(func=func)
        return p

    p = command("price", _cmd_price, "price via transform inversion",
                overrides=("threads", "backend"))
    p.add_argument("--all-histories", action="store_true")
    command("mc", _cmd_mc, "Monte Carlo oracle estimate", overrides=("seed", "threads"))
    p = command("factors", _cmd_factors, "dump Wiener-Hopf factors on the grid")
    p.add_argument("--regime", type=int, default=1)
    p.add_argument("--q-value", default="1.0", help="spectral value, e.g. 2.0 or 3+4j")
    command("invert-demo", _cmd_invert_demo, "known-pair inversion error table",
            config=False)
    p = command("convergence", _cmd_convergence, "price ladder in one parameter",
                overrides=("threads", "backend"))
    p.add_argument("--param", required=True, choices=[*_LADDERS, "memoryN"])
    p.add_argument("--values", required=True, help="comma-separated ladder")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RsBarrierError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
