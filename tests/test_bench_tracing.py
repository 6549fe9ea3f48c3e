"""The benchmark's tracer still finds every layer it times.

``bench/tracing.py`` wraps functions at the names their callers look them
up; a rename on the pricing path would leave a span name silently empty.
"""

import copy
import json
import math
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import TRACE_POINTS, Tracer, summarize  # noqa: E402
from workloads import RESIDUAL_BOUND, PricingWorkload  # noqa: E402

from rsbarrier.config import parse_config  # noqa: E402
from rsbarrier import montecarlo  # noqa: E402


def test_tracer_records_every_trace_point():
    # kou_memory under both back ends, each of which must invert through the
    # name the tracer wraps, once per history
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
            _, prices = workload.run(threads=2, round_index=0)
            inverts = sum(span[1] == "inversion.invert" for span in tracer.spans[first:])
            runs[backend] = prices, inverts, workload.worst_residual
        cfg = parse_config(copy.deepcopy(doc))
        # looked up at call time, as the Monte Carlo workload does
        montecarlo.simulate_price(cfg.problem, cfg.mc)
    finally:
        tracer.uninstall()
    for backend, (prices, inverts, worst_residual) in runs.items():
        assert len(prices) == 2 and all(0.0 < p < 1.0 for p in prices), backend
        assert inverts == len(prices), backend
        # inspect_pricer saw the pricer run_price built
        assert 0.0 < worst_residual <= RESIDUAL_BOUND, backend
    recorded = summarize(tracer.spans)
    assert {name for _, _, name in TRACE_POINTS} <= set(recorded)
    assert tracer.counts["epv.fft_points"] > 0
    assert tracer.counts["engine.inner_sweeps"] > 0
    assert all(math.isfinite(rec["total_s"]) for rec in recorded.values())
