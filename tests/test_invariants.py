"""Exact invariants of the pricer: mirror symmetry.

The reflected process -X has exponent psi(-xi), and its Wiener-Hopf factors
are X's factors with the sides swapped.  Pricing the mirror image of a
problem (spot -x0 in the band (-upper, -lower), each regime's drift negated
and its tails swapped) therefore runs the other side's code everywhere: the
sup-side plans of one price are the inf-side plans of the other, and so are
the damping contours, tapers and first-touch images.  The two prices are
equal in exact arithmetic, so any gap beyond rounding is a fault on one
side.

Each check runs on a grid whose margins beyond the two barriers hold the
same number of nodes (2^12 nodes at the default domainFactor), so the
mirrored grid is the grid reflected node for node, with the spot on a node
or, for the sinh prices of the rational cases, a fraction of a cell off it.
The spot's cubic stencil takes the two nodes on each side of the spot's
cell, so it mirrors too.

Bounds are the gaps measured on this code with a stated margin.  The sinh
prices of the rational families and every transform agree to rounding.
KoBoL's factors come from a numerical spectral split, which is not
reflection-exact and leaves 2.3e-10 on the sinh price.  GWR multiplies the rounding of its transforms by its
alternating weights, so its prices agree only to 1e-8 to 3e-7.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import builders as build
from rsbarrier.cli import run_price
from rsbarrier.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
M_POWER = 12


def single_regime(model, lower, upper, rate=0.02):
    return {"regimes": [{"model": model, "r": rate, "G": 1.0}],
            "chain": {"m": 1, "N": 0, "rates": 0.0},
            "barriers": {"lower": lower, "upper": upper}, "x0": 0.0, "maturity": 0.5,
            "initialHistory": [1]}


CASES = {
    "brownian": single_regime({"type": "BrownianDrift", "mu": 0.15, "sigma2": 0.4},
                              -0.8, 1.1),
    "kou": single_regime({"type": "KouJumpDiffusion", "mu": -0.02, "sigma2": 0.08,
                          "lambdaJ": 5.0, "p": 0.6, "alphaPlus": 12.0, "alphaMinus": 8.0},
                         -0.3, 0.35),
    "kobol": single_regime({"type": "KoBoL", "nu": 1.2, "c": 1.0, "lambdaPlus": 8.0,
                            "lambdaMinus": -4.0, "mu": 0.05}, -0.5, 0.6, rate=0.01),
    # two Kou regimes, two histories: the chain is left as it is
    "kou_memory": json.loads((ROOT / "configs" / "kou_memory.json").read_text()),
}

# (case, back end) -> bound on the largest price gap over the histories.
# Measured gaps: brownian 8.7e-9 (gwr) and 0 (sinh), kou 1.9e-7 and 2.2e-16,
# kobol 1.2e-7 and 2.3e-10, kou_memory 2.9e-7 and 1.1e-16.  Each bound is
# about ten times its gap, and 1e-14, some fifty roundings of a price below
# 1, where the gap is rounding.
PRICE_BOUNDS = {
    ("brownian", "gwr"): 1e-7, ("brownian", "sinh"): 1e-14,
    ("kou", "gwr"): 2e-6, ("kou", "sinh"): 1e-14,
    ("kobol", "gwr"): 1.5e-6, ("kobol", "sinh"): 3e-9,
    ("kou_memory", "gwr"): 3e-6, ("kou_memory", "sinh"): 1e-14,
}

# a real q takes real plans and real FFTs (GWR's nodes), a complex q
# complex ones (sinh's nodes).  Measured gaps of the transforms at the spot:
# at most 1.1e-16 on the rational families, and 7.8e-16 (real) and 1.25e-12
# (complex) on KoBoL; the bounds hold about ten times that
SPECTRAL_VALUES = (2.0, 5.0 + 30.0j)
TRANSFORM_BOUNDS = {"kobol": {2.0: 1e-14, 5.0 + 30.0j: 1.5e-11}}
RATIONAL_TRANSFORM_BOUND = 1e-14


def reflect_model(model: dict) -> dict:
    """The model of -X: the drift negated and the two tails swapped."""
    out = dict(model, mu=-model["mu"])
    if model["type"] == "KouJumpDiffusion":
        out.update(p=1.0 - model["p"], alphaPlus=model["alphaMinus"],
                   alphaMinus=model["alphaPlus"])
    elif model["type"] == "KoBoL":
        out.update(lambdaPlus=-model["lambdaMinus"], lambdaMinus=-model["lambdaPlus"])
    return out


def mirror(doc: dict) -> dict:
    out = copy.deepcopy(doc)
    out["x0"] = -doc["x0"]
    out["barriers"] = {"lower": -doc["barriers"]["upper"],
                       "upper": -doc["barriers"]["lower"]}
    for regime in out["regimes"]:
        regime["model"] = reflect_model(regime["model"])
    return out


def on_node(name: str, backend: str = "gwr") -> dict:
    """Case ``name`` at M = 2^12 with the spot on the node 55 % of the way up
    the band, on a grid with equal margins beyond the barriers."""
    doc = dict(copy.deepcopy(CASES[name]), threads=1, grid={"mPower": M_POWER},
               inversion={"backend": backend})
    problem = parse_config(doc).problem
    grid = build.grid(problem.lower, problem.upper,
                      [spec.model for spec in problem.regimes], m_power=M_POWER)
    assert grid.lower_index == grid.size - 1 - grid.upper_index
    node = grid.lower_index + int(0.55 * (grid.upper_index - grid.lower_index))
    doc["x0"] = float(grid.x_min + node * grid.dx)
    return doc


@pytest.mark.parametrize("name, backend", PRICE_BOUNDS, ids=lambda v: v)
def test_mirror_image_prices_the_same(name, backend):
    doc = on_node(name, backend)
    prices = [row["price"] for row in run_price(parse_config(doc), all_histories=True)[0]]
    mirrored = [row["price"]
                for row in run_price(parse_config(mirror(doc)), all_histories=True)[0]]
    assert len(prices) == len(mirrored) == parse_config(doc).problem.chain.size
    assert all(0.0 < p < 1.0 for p in prices)
    gap = max(abs(a - b) for a, b in zip(prices, mirrored))
    assert gap <= PRICE_BOUNDS[name, backend], gap


@pytest.mark.parametrize("name", CASES)
def test_mirror_image_transforms_agree_to_rounding(name):
    doc = on_node(name)
    pricer = build.pricer(parse_config(doc).problem, m_power=M_POWER)
    mirrored = build.pricer(parse_config(mirror(doc)).problem, m_power=M_POWER)
    for q in SPECTRAL_VALUES:
        value = pricer.price_field(q).at(doc["x0"])
        image = mirrored.price_field(q).at(-doc["x0"])
        gap = float(np.max(np.abs(value - image)))
        assert gap <= TRANSFORM_BOUNDS.get(name, {}).get(q, RATIONAL_TRANSFORM_BOUND), (q, gap)


# Measured gaps off the nodes, the spot 0.3 and 0.7 of a cell above the
# node, under sinh: at most 6.7e-16 on each rational case (1.0e-9 to 9.1e-9
# while the stencil started at round(), not floor(), of the spot's cell)
OFF_NODE_BOUND = 1e-14


@pytest.mark.parametrize("fraction", [0.3, 0.7])
@pytest.mark.parametrize("name", ["brownian", "kou", "kou_memory"])
def test_mirror_image_prices_the_same_off_the_nodes(name, fraction):
    doc = on_node(name, "sinh")
    problem = parse_config(doc).problem
    grid = build.grid(problem.lower, problem.upper,
                      [spec.model for spec in problem.regimes], m_power=M_POWER)
    doc["x0"] += fraction * grid.dx
    prices = [row["price"] for row in run_price(parse_config(doc), all_histories=True)[0]]
    mirrored = [row["price"]
                for row in run_price(parse_config(mirror(doc)), all_histories=True)[0]]
    gap = max(abs(a - b) for a, b in zip(prices, mirrored))
    assert gap <= OFF_NODE_BOUND, gap
