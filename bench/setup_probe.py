"""One cold set-up of a workload, timed in a fresh interpreter.

Prints the seconds spent importing rsbarrier, parsing the workload's config
and (for pricing workloads) building its grid and pricer with the function
``rsbarrier price`` uses.  Building the workload's input document is not
timed.  Usage: python3 bench/setup_probe.py WORKLOAD
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

start = time.perf_counter()
from rsbarrier import cli  # noqa: E402
from rsbarrier.config import parse_config  # noqa: E402
imported = time.perf_counter()

import workloads  # noqa: E402

work = workloads.make(sys.argv[1], seed=0)
doc = dict(work.doc, threads=1)
begin = time.perf_counter()
cfg = parse_config(doc)
if work.kind == "price":
    cli._make_pricer(cfg)
end = time.perf_counter()
print(repr((imported - start) + (end - begin)))
