"""Time one set-up of a workload in a fresh interpreter.

    setup_probe.py WORKLOAD SUITE_SEED SOLVE_SEED [SIZE ...]

Needs ``steptardy`` on PYTHONPATH.  Prints one JSON line: ``import_s``
(``import steptardy``), ``generate_s`` (instance generation) and
``setup_s`` (everything before the first timed solve, both included).
"""

import json
import sys
import time

t0 = time.perf_counter()
import steptardy  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

name, suite_seed, solve_seed, *sizes = sys.argv[1:]
plan = workloads.prepare(name, int(suite_seed), int(solve_seed), tuple(int(n) for n in sizes))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "generate_s": plan.generate_s, "setup_s": t2 - t0}))
