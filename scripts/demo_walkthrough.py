#!/usr/bin/env python3
"""Walk the 8-job demo instance through every solver in the package.

Prints the constructive stages of SWSP (EDD start, first weight triple,
weighted-search best, swap-pass result), then every method of
``steptardy.harness.METHODS`` run through ``harness.solve``, which checks the
value each one reports, so the whole pipeline can be eyeballed at once.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steptardy import (
    Instance,
    Job,
    SearchParams,
    WeightTriple,
    edd_sequence,
    evaluate_schedule,
    greedy_construct,
    pairwise_swap_pass,
    total_tardiness,
)
from steptardy.harness import METHODS, solve
from steptardy.swsp import weighted_search

DEMO8 = Instance(
    jobs=(
        Job(id=1, a=49, b=33, d=113, h=271),
        Job(id=2, a=44, b=19, d=86, h=255),
        Job(id=3, a=45, b=41, d=114, h=91),
        Job(id=4, a=31, b=27, d=218, h=131),
        Job(id=5, a=51, b=18, d=156, h=205),
        Job(id=6, a=52, b=47, d=461, h=101),
        Job(id=7, a=82, b=44, d=215, h=367),
        Job(id=8, a=80, b=28, d=93, h=85),
    ),
    name="demo8",
)


def show(label, seq, value, note=""):
    print(f"{label:<28} {value:>5}  {list(seq)}{note}")


def main() -> int:
    inst = DEMO8
    edd = edd_sequence(inst)
    show("EDD start", edd, total_tardiness(inst, edd))

    first = greedy_construct(inst, WeightTriple(0.2, 0.1, 0.7))
    show("greedy, first triple", first, total_tardiness(inst, first))

    stage_seq, stage_value, _ = weighted_search(inst)
    show("weighted-search best", stage_seq, stage_value)

    swapped = pairwise_swap_pass(inst, stage_seq)
    show("after swap pass", swapped, total_tardiness(inst, swapped))

    for method in METHODS:
        result, seconds = solve(inst, method, SearchParams(seed=0))
        show(method, result.best_sequence, result.best_value, f"  ({seconds:.2f}s)")

    detail = evaluate_schedule(inst, swapped)
    print("\nswap-pass schedule detail (job, start, processing, completion, tardiness):")
    for pos, job_id in enumerate(detail.order):
        print(f"  {job_id}: {detail.starts[pos]:>4} {detail.processing[pos]:>4} "
              f"{detail.completions[pos]:>4} {detail.tardiness[pos]:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
