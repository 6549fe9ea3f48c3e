"""Spans around calls into rsbarrier's layers, recorded from outside.

``Tracer.install()`` replaces each traced function at the name its caller
looks it up (a module global or a class attribute) with a wrapper that
records a span (id, name, start, end, parent id, thread id) in memory.  The
parent is the innermost open span of the same thread.  Nothing under src/
changes; ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

from rsbarrier import cli, engine, epv, montecarlo
from rsbarrier.engine import QPricer
from rsbarrier.grids import SampledFunction
from rsbarrier.wiener_hopf import WHFactorization

# (owner, attribute, span name): the lookups the pricing path makes
TRACE_POINTS = [
    (cli, "build_grid", "grids.build_grid"),
    (cli, "_evaluate_nodes", "cli.evaluate_nodes"),
    (cli, "gwr_invert", "inversion.invert"),
    (cli, "sinh_invert", "inversion.invert"),
    (QPricer, "price_field", "engine.price_field"),
    (engine, "solve_v0", "engine.solve_v0"),
    (engine, "factorize", "wiener_hopf.factorize"),
    (engine, "apply_epv", "epv.apply_epv"),
    (engine, "first_touch_above", "epv.first_touch"),
    (engine, "first_touch_below", "epv.first_touch"),
    (epv, "apply_multiplier", "epv.apply_multiplier"),
    (WHFactorization, "contour_symbols", "wiener_hopf.contour_symbols"),
    (SampledFunction, "full", "grids.full"),
    (montecarlo, "simulate_price", "montecarlo.simulate_price"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` may add counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident()))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count_fft(self, args, result):
        self.counts["epv.fft_points"] += args[0].values.size

    def _count_iterations(self, args, result):
        self.counts["engine.inner_sweeps"] += sum(result.stats.inner_sweeps)
        self.counts["engine.outer_terms"] += len(result.stats.outer_terms)

    def install(self) -> None:
        after = {"epv.apply_multiplier": self._count_fft,
                 "engine.price_field": self._count_iterations}
        for owner, attr, name in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds, durations."""
    child_time = defaultdict(float)
    for sid, name, start, end, parent, thread in spans:
        if parent:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "durations": []})
    for sid, name, start, end, parent, thread in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child_time[sid]
        rec["durations"].append(end - start)
    return out


def layer_metrics(single: dict, counts: dict, pooled: dict) -> dict:
    """Per-layer figures of one round.

    ``single``/``counts`` summarize the 1-thread price, ``pooled`` the
    2-thread one.  Times are inclusive unless named self time.
    """
    def get(summary, name, key):
        return summary[name][key] if name in summary else 0
    nodes = get(single, "engine.price_field", "calls")
    durations = single["engine.price_field"]["durations"] if nodes else [0.0]
    pool_wall = get(pooled, "cli.evaluate_nodes", "total_s")
    node_time = get(pooled, "engine.price_field", "total_s")
    return {
        "grids.build_grid_s": get(single, "grids.build_grid", "total_s"),
        "wiener_hopf.factorize_calls": get(single, "wiener_hopf.factorize", "calls"),
        "wiener_hopf.factorize_s": get(single, "wiener_hopf.factorize", "total_s"),
        "wiener_hopf.contour_symbols_s": get(single, "wiener_hopf.contour_symbols", "total_s"),
        "epv.apply_multiplier_calls": get(single, "epv.apply_multiplier", "calls"),
        "epv.apply_multiplier_s": get(single, "epv.apply_multiplier", "self_s"),
        "epv.fft_points": counts.get("epv.fft_points", 0),
        "epv.first_touch_s": get(single, "epv.first_touch", "total_s"),
        "grids.full_calls": get(single, "grids.full", "calls"),
        "grids.full_s": get(single, "grids.full", "total_s"),
        "engine.self_s": get(single, "engine.price_field", "self_s"),
        "engine.price_field_ms": 1e3 * statistics.median(durations),
        "engine.inner_sweeps": counts.get("engine.inner_sweeps", 0),
        "engine.outer_terms": counts.get("engine.outer_terms", 0),
        "engine.solve_v0_s": get(single, "engine.solve_v0", "total_s"),
        "inversion.nodes": nodes,
        "inversion.invert_s": get(single, "inversion.invert", "total_s"),
        "cli.pool_idle_s": 2.0 * pool_wall - node_time,
    }
