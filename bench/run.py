"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports rsbarrier from the
checkout's src/ and refuses to run without it.  It repeats whole rounds of
the workload's operations until S seconds of measuring have passed (at
least one round), checks every output, and prints one line per metric and,
last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from a traced run.  Result
and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
PARSE_REPEATS = 5


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup_seconds(workload: str) -> float:
    """Median cold set-up over fresh interpreters (import is paid once per
    process, so each set-up needs its own)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(workload, seconds: float, tracer):
    """Whole rounds until ``seconds`` have passed.  Returns the per-round
    records, the attempted and failed operation counts, and the spans."""
    from rsbarrier.errors import RsBarrierError

    from tracing import layer_metrics, summarize

    rounds, attempted, failed, spans = [], 0, 0, []
    rss_mb = None
    ops = workload.operations()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        record = {"seconds": {}, "outputs": {}}
        for threads in (1, 2):
            if tracer is not None:
                tracer.reset()
            attempted += ops
            try:
                elapsed, output = workload.run(threads, len(rounds))
            except RsBarrierError as exc:
                failed += ops
                print(f"failed at {threads} threads: {exc}", file=sys.stderr)
                elapsed, output = None, None
            record["seconds"][threads] = elapsed
            record["outputs"][threads] = output
            if rss_mb is None:
                # one process, one single-threaded price: what `rsbarrier
                # price --threads 1` holds at its peak.  Later 2-thread
                # rounds would add allocator-arena noise.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                record[threads] = (summarize(tracer.spans), dict(tracer.counts))
                spans.extend(tracer.spans)
        if tracer is not None:
            record["layers"] = layer_metrics(record[1][0], record[1][1], record[2][0])
            record["layers"]["montecarlo.us_per_path"] = mc_us_per_path(record)
        rounds.append(record)
    return rounds, attempted, failed, spans, rss_mb


def mc_us_per_path(record) -> float:
    """Microseconds per path of the round's 1-thread Monte Carlo block."""
    output = record["outputs"][1]
    if not hasattr(output, "paths"):
        return 0.0
    return record["seconds"][1] / output.paths * 1e6


def median_seconds(rounds, threads: int) -> float:
    vals = [r["seconds"][threads] for r in rounds if r["seconds"][threads] is not None]
    return statistics.median(vals) if vals else float("nan")


def per_layer(rounds, parse_s: float) -> dict:
    """Median over rounds; median_low keeps counts whole."""
    out = {"config.parse_s": parse_s}
    for name in rounds[0]["layers"]:
        out[name] = statistics.median_low(r["layers"][name] for r in rounds)
    return out


def parse_seconds(workload) -> float:
    """Median in-process config parse time over PARSE_REPEATS parses."""
    from workloads import parse

    times = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        parse(workload.doc, 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def write_spans(path: str, spans) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start", "end", "parent", "thread"])
        writer.writerows(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rsbarrier", "__init__.py")):
        print(f"no rsbarrier sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rsbarrier

    if os.path.dirname(os.path.abspath(rsbarrier.__file__)) != os.path.join(SRC, "rsbarrier"):
        print(f"rsbarrier imported from {rsbarrier.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("need --seconds > 0 and --seed >= 0", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    setup_s = setup_seconds(args.workload) if args.trace == 0 else None
    workload.reference_setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        rounds, attempted, failed, spans, rss_mb = run_rounds(workload, args.seconds,
                                                              tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    correct, err, messages = workload.check([r["outputs"] for r in rounds])
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        values, units = per_layer(rounds, parse_seconds(workload)), declared_units("per_layer")
    else:
        values = {"setup_s": setup_s, "price_s": median_seconds(rounds, 1),
                  "price_s_threads2": median_seconds(rounds, 2),
                  "price_abs_err": err, "peak_rss_mb": rss_mb}
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, round_seconds=[r["seconds"] for r in rounds]), fh, indent=1)
    if args.trace:
        write_spans(stem + ".spans.csv", spans)

    print(f"workload {args.workload}: {len(rounds)} rounds, attempted {attempted}, "
          f"failed {failed}, correct {correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
