"""Self-tests of the benchmark, each workload at n=6.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from steptardy import harness, metaheuristics
from steptardy.core import RunResult, evaluate_schedule
from steptardy.exact import OptimalResult

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = (6,)


def tiny_run(name, trace=False, order_seed=0):
    return workloads.run_workload(name, order_seed, seconds=0, trace=trace, sizes=TINY)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    result, record = tiny_run(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["solves_run"] == record["solves_in_list"] * (1 + trace)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_results_do_not_depend_on_the_order_seed():
    digests = {tiny_run("large-n50", order_seed=s)[1]["digest"] for s in (0, 1, 2)}
    assert len(digests) == 1


def test_wrong_value_is_counted_and_the_run_goes_on(monkeypatch):
    real = metaheuristics.gvns

    def off_by_one(instance, params):
        run = real(instance, params)
        return RunResult(run.best_sequence, run.best_value + 1, run.iterations, 0, 0.0, params.seed)

    monkeypatch.setattr(metaheuristics, "gvns", off_by_one)
    result, record = tiny_run("search-n25")
    assert result["failed"] == 6 and not result["correct"]
    assert result["metrics"]["solved_frac"]["value"] == 0.5
    assert record["failed_frac"] == 0.5


def test_raising_solver_inside_the_harness_is_counted(monkeypatch):
    def broken(instance, params):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "vns", broken)
    result, _ = tiny_run("suite-small")
    # six instances with two vns replications each; the harness keeps going
    assert result["failed"] == 12 and result["attempted"] == 36


def test_non_optimal_exact_value_is_counted(monkeypatch):
    def not_optimal(instance):
        seq = tuple(sorted(j.id for j in instance.jobs))
        total = evaluate_schedule(instance, seq).total
        return OptimalResult(best_value=total, best_sequence=seq, nodes_explored=1)

    monkeypatch.setattr(harness, "branch_and_bound", not_optimal)
    result, _ = tiny_run("suite-small")
    optima = workloads.optima(workloads.prepare("suite-small", 0, 0, TINY))
    instances = workloads.generate_suite(TINY, 0)
    wrong = sum(evaluate_schedule(i, sorted(j.id for j in i.jobs)).total != optima[i.name]
                for i in instances)
    assert wrong > 0 and result["failed"] == wrong


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "search-n25", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
