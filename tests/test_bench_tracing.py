"""The benchmark's tracer still finds every layer it times.

``bench/tracing.py`` wraps functions at the names their callers look them
up; a rename on the pricing path would leave a span name silently empty.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import TRACE_POINTS, Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    NAMES, RESIDUAL_BOUND, PricingWorkload, make, memory_chain_doc)

from rsbarrier.cli import run_price  # noqa: E402
from rsbarrier.config import parse_config  # noqa: E402
from rsbarrier import montecarlo  # noqa: E402


def test_tracer_records_every_trace_point():
    # kou_memory under both back ends, each of which must invert through the
    # name the tracer wraps, once per history.  The trace points are read
    # from the 1-thread price, the one the per-layer figures come from: at
    # 2 threads the nodes run in forked workers, whose spans and factor
    # caches never reach this process.  The 2-thread price must repeat the
    # 1-thread bits.  Kou heads sweep through ``epv.sweep_step``, so a
    # chain of kobol_single's regime and kou_memory's second one, switching
    # at rate 0.5, is priced too: its KoBoL head's sweeps call
    # ``engine.apply_epv``.
    with open(os.path.join(os.path.dirname(BENCH), "configs", "kou_memory.json")) as fh:
        doc = json.load(fh)
    doc["grid"] = {"mPower": 10}
    doc["mc"]["paths"] = 1000
    tracer = Tracer()
    tracer.install()
    runs = {}
    try:
        for backend in ("gwr", "sinh"):
            doc["inversion"]["backend"] = backend
            workload = PricingWorkload(copy.deepcopy(doc))
            first = len(tracer.spans)
            _, prices = workload.run(threads=1, round_index=0)
            inverts = sum(span[1] == "inversion.invert" for span in tracer.spans[first:])
            _, pooled = workload.run(threads=2, round_index=0)
            runs[backend] = prices, pooled, inverts, workload.worst_residual
        cfg = parse_config(copy.deepcopy(doc))
        # looked up at call time, as the Monte Carlo workload does
        montecarlo.simulate_price(cfg.problem, cfg.mc)
        with open(os.path.join(os.path.dirname(BENCH), "configs", "kobol_single.json")) as fh:
            mixed = json.load(fh)
        mixed.update(threads=1, grid={"mPower": 10},
                     regimes=mixed["regimes"] + doc["regimes"][1:],
                     chain={"m": 2, "N": 0, "rates": {"dense": [[0.5], [0.5]]}})
        run_price(parse_config(mixed))
    finally:
        tracer.uninstall()
    for backend, (prices, pooled, inverts, worst_residual) in runs.items():
        assert len(prices) == 2 and all(0.0 < p < 1.0 for p in prices), backend
        assert np.array_equal(pooled, prices), backend
        assert inverts == len(prices), backend
        # inspect_pricer saw the pricer run_price built
        assert 0.0 < worst_residual <= RESIDUAL_BOUND, backend
    recorded = summarize(tracer.spans)
    assert {name for _, _, name in TRACE_POINTS} <= set(recorded)
    assert tracer.counts["epv.fft_points"] > 0
    assert tracer.counts["engine.inner_sweeps"] > 0
    assert all(math.isfinite(rec["total_s"]) for rec in recorded.values())


def test_memory_chain_workload_prices_without_warning(capsys):
    # the depth-3 chain's inner solves all converge well inside the sweep
    # cap, so its price comes with no warning on stderr
    doc = memory_chain_doc()
    doc["threads"] = 2
    rows, meta = run_price(parse_config(doc), all_histories=True)
    assert len(rows) == 24 and meta["sweeps"] < 100
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", NAMES)
def test_workload_reference_setup_runs(name):
    # each workload's once-per-run set-up reads the chain (histories, labels,
    # shift codes, rates, heads) and builds a pricer: a change to those reads
    # must fail here, not only as a failed benchmark run
    workload = make(name, 0)
    workload.reference_setup()
    if name == "memory_depth_sinh":
        # the exact oracle's price of each of the 24 histories
        assert len(workload.exact) == 24 and np.all((workload.exact > 0.0)
                                                    & (workload.exact < 1.0))
        assert workload.tolerance > 0.0
