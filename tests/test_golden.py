"""Seeded outputs pinned to a golden file.

Every search result here must stay identical, field for field, through any
speed-up of the evaluator or the neighbourhood scanners: the same sequence,
value, iteration and perturbation counts and trace for a seed, and the same
``run_benchmark`` CSV bytes under ``zero_time``.  A result holds no time,
so every field is pinned.  The cases are trimmed so the file takes about
15 s on the pure-Python scanners.

Regenerate the golden file (only when a change is meant to alter results,
and say why in the change) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from steptardy import ExperimentConfig, SearchParams, generate_suite, gvns, run_benchmark, swsp, vns

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"

SOLVERS = {"gvns": gvns, "vns": vns, "swsp": swsp}
SHORT_GVNS = SearchParams(iter_max=10, iter_nip=10)
BENCH_CONFIG = ExperimentConfig(
    gen_sizes=(8,), methods=("bb", "exact", "swsp", "vns", "gvns"), replications=2
)


def _cases():
    """(case id, instance, method, params) for every pinned search run."""
    small = generate_suite([8, 25], 0)
    out = []
    for instance in small:
        # gvns at n=25 only on the two quickest groups
        if instance.n == 8 or instance.name.startswith(("S_22", "S_32")):
            methods = ("gvns", "vns", "swsp")
        else:
            methods = ("vns", "swsp")
        for method in methods:
            params = SearchParams(seed=0) if method != "swsp" else None
            out.append((f"{instance.name}:{method}", instance, method, params))
    for instance in generate_suite([50], 0):
        if instance.name.startswith(("S_12", "S_22")):
            out.append((f"{instance.name}:gvns-10", instance, "gvns", SHORT_GVNS))
        out.append((f"{instance.name}:swsp", instance, "swsp", None))
    return out


CASES = _cases()


def _run(instance, method, params):
    solver = SOLVERS[method]
    result = solver(instance) if params is None else solver(instance, params)
    return {
        "best_sequence": list(result.best_sequence),
        "best_value": result.best_value,
        "iterations": result.iterations,
        "perturbations": result.perturbations,
        "seed": result.seed,
        "trace": list(result.trace),
    }


def _bench_csv():
    return run_benchmark(BENCH_CONFIG, zero_time=True).csv_text


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_case_list_matches_golden(golden):
    assert sorted(golden["runs"]) == sorted(case_id for case_id, *_ in CASES)


@pytest.mark.parametrize("case_id,instance,method,params", CASES, ids=[c[0] for c in CASES])
def test_run_result_identical(golden, case_id, instance, method, params):
    assert _run(instance, method, params) == golden["runs"][case_id]


def test_bench_csv_identical(golden):
    assert _bench_csv() == golden["bench_csv"]


def _write() -> None:
    payload = {
        "runs": {case_id: _run(*rest) for case_id, *rest in CASES},
        "bench_csv": _bench_csv(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
