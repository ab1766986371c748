#!/usr/bin/env python3
"""Record the reference values that ``gap_pct`` and the exact check use.

    PYTHONPATH=src python3 perfbench/make_reference.py [SUITE_SEED ...]

For each suite seed (default 0 and 1) it records, by instance name, the
brute-force optimum of every n=8 and n=10 instance of ``suite-small`` and,
for ``search-n25`` and ``large-n50``, the best value over the workload's
methods at solve seed 0.  Existing entries of other instances are kept.
Takes about two minutes per suite seed on one core.
"""

import json
import sys

import workloads
from steptardy.core import evaluate_schedule
from steptardy.exact import brute_force
from steptardy.generator import generate_suite


def main(argv) -> int:
    suite_seeds = [int(s) for s in argv] or [0, 1]
    path = workloads.REFERENCE_FILE
    data = json.loads(path.read_text()) if path.exists() else {"instances": {}}
    found = data["instances"]
    if not path.exists():
        path.write_text(json.dumps(data))
    for suite_seed in suite_seeds:
        for instance in generate_suite(workloads.WORKLOADS["suite-small"].sizes, suite_seed):
            found[instance.name] = brute_force(instance).best_value
            print(instance.name, found[instance.name], flush=True)
        for name in ("search-n25", "large-n50"):
            plan = workloads.prepare(name, suite_seed, solve_seed=0)
            run = workloads.run_pass(plan, order_seed=0)
            best = {}
            for solve in plan.solves:
                o = run.outcomes[solve.key]
                if o.error or evaluate_schedule(solve.instance, o.sequence).total != o.value:
                    print(f"error: {solve.key} failed; nothing written", file=sys.stderr)
                    return 1
                best[solve.instance.name] = min(o.value, best.get(solve.instance.name, o.value))
            found.update(best)
            print(name, suite_seed, best, flush=True)
    data["instances"] = dict(sorted(found.items()))
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
