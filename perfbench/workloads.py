"""The benchmark's workloads: fixed solve lists, their checks and metrics.

Each workload is a closed loop in one process: the next solve starts only
when the previous one has returned.  The solve list is fixed by the
workload, the suite seed (which instances) and the solve seed (which
search trajectories); the order seed only decides the order in which that
list runs, so every run of a suite seed and solve seed returns the same
results and the same counts, whatever its order seed.

Every solve is checked after the timed part: the sequence must be a
permutation, ``evaluate_schedule`` must reproduce the reported value, an
exact value must equal the brute-force optimum, the harness must report no
error for the solve's cell, and a solve run twice must return the same
result.  A solve that fails any check, raises or never runs is counted as
failed and the run goes on.

See README.md next to this file for why these workloads were chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from itertools import cycle
from math import factorial, isinf
from pathlib import Path
from random import Random
from statistics import mean, median

import steptardy
from steptardy import harness
from steptardy.core import Instance, evaluate_schedule
from steptardy.exact import brute_force
from steptardy.generator import generate_suite
from steptardy.harness import BenchReport, ExperimentConfig, rpd
from steptardy.metaheuristics import SearchParams, edd_sequence
from steptardy.neighborhoods import NEIGHBORHOOD_IDS, descend
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
SETUP_REPEATS = 7
FULL_SCAN_REPEATS = 15
BRUTE_FORCE_PROBE_N = 8
EXACT_METHODS = frozenset({"bb"})
STOCHASTIC_METHODS = frozenset({"gvns", "vns"})
# method -> (module, function); the harness imports each function by name
SOLVERS = {
    "gvns": ("metaheuristics", "gvns"),
    "vns": ("metaheuristics", "vns"),
    "swsp": ("swsp", "swsp"),
    "bb": ("exact", "branch_and_bound"),
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_p50": "s",
    "solve_s_max": "s",
    "peak_rss_mb": "MB",
    "gap_pct": "%",
    "solved_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    sizes: tuple[int, ...]
    methods: tuple[str, ...]
    budget: tuple[tuple[str, int], ...] = ()  # SearchParams overrides
    replications: int = 1
    via_harness: bool = False


WORKLOADS = {
    "search-n25": Workload(sizes=(25,), methods=("gvns", "vns")),
    "large-n50": Workload(
        sizes=(50,), methods=("swsp", "gvns"), budget=(("iter_max", 10), ("iter_nip", 10))
    ),
    "suite-small": Workload(
        sizes=(8, 10), methods=("bb", "swsp", "vns", "gvns"), replications=2, via_harness=True
    ),
}


@dataclass(frozen=True)
class Solve:
    instance: Instance
    method: str
    params: SearchParams | None  # None for deterministic methods

    @property
    def key(self) -> tuple[str, str, int | None]:
        return (self.instance.name, self.method, self.params.seed if self.params else None)


@dataclass
class Outcome:
    seconds: float
    value: int | None = None
    sequence: tuple | None = None
    iterations: int = 0
    nodes: int = 0
    error: str | None = None


@dataclass
class Plan:
    workload: Workload
    instances: list[Instance]
    solves: list[Solve]
    config: ExperimentConfig | None
    references: dict[str, int]
    generate_s: float


@dataclass
class Run:
    """Every solve executed in a run, in order, and the wall time of its units.

    The first ``len(plan.solves)`` samples cover the solve list once.  A unit
    is one ``run_benchmark`` call for the harness workload, and otherwise the
    first full cycle through the list (its solves' summed time when traced).
    """

    samples: list[tuple[Solve, Outcome]]
    unit_walls: list[float]
    report: BenchReport | None = None


def prepare(name: str, suite_seed: int, solve_seed: int, sizes: tuple[int, ...] = ()) -> Plan:
    """Everything done before the first timed solve.

    ``sizes`` replaces the workload's instance sizes; the self-tests use it
    to run each workload at a tiny size.
    """
    workload = WORKLOADS[name]
    sizes = tuple(sizes) or workload.sizes
    t0 = time.perf_counter()
    instances = generate_suite(sizes, suite_seed)
    generate_s = time.perf_counter() - t0
    solves = []
    for instance in instances:
        for method in workload.methods:
            if method not in STOCHASTIC_METHODS:
                solves.append(Solve(instance, method, None))
                continue
            for r in range(workload.replications):
                params = SearchParams(seed=solve_seed + r, **dict(workload.budget))
                solves.append(Solve(instance, method, params))
    config = None
    if workload.via_harness:
        config = ExperimentConfig(
            gen_sizes=sizes,
            gen_seed=suite_seed,
            methods=workload.methods,
            replications=workload.replications,
            seed=solve_seed,
        )
    references = json.loads(REFERENCE_FILE.read_text())["instances"]
    return Plan(workload, instances, solves, config, references, generate_s)


def _outcome(method: str, result, seconds: float) -> Outcome:
    return Outcome(
        seconds=seconds,
        value=result.best_value,
        sequence=tuple(result.best_sequence),
        iterations=result.iterations if method in STOCHASTIC_METHODS else 0,
        nodes=(result.nodes_explored or 0) if method in EXACT_METHODS else 0,
    )


def run_units(plan: Plan, order_seed: int, seconds: float) -> Run:
    """Run the solve list once, then go on while the run still fits ``seconds``.

    Another unit starts only while the elapsed time plus half of that
    unit's first duration is within ``seconds``, so a run overshoots by at
    most half a unit.
    """
    if plan.config is not None:
        return _run_harness(plan, order_seed, seconds)
    calls = _ordered_calls(plan, order_seed)
    samples = []
    t_start = time.perf_counter()
    for call in calls:
        samples.append((call[0], _timed_solve(*call)))
    cycle_wall = time.perf_counter() - t_start
    first_s = [outcome.seconds for _, outcome in samples]
    for call, estimate in cycle(zip(calls, first_s)):
        if time.perf_counter() - t_start + estimate / 2 > seconds:
            break
        samples.append((call[0], _timed_solve(*call)))
    return Run(samples, [cycle_wall])


def run_traced(plan: Plan, order_seed: int, tracer: Tracer) -> tuple[Run, Run]:
    """The solve list once untraced and once traced.

    Direct workloads run each solve untraced and then traced, back to back,
    so that the machine's drifts in speed fall on both sides of the tracing
    overhead alike.  The harness workload runs two whole passes.
    """
    if plan.config is not None:
        base = run_units(plan, order_seed, 0)
        with tracer:
            return base, run_units(plan, order_seed, 0)
    base, traced = Run([], [0.0]), Run([], [0.0])
    for call in _ordered_calls(plan, order_seed):
        untraced = _timed_solve(*call)
        with tracer:
            traced_outcome = _timed_solve(*call)
        for run, outcome in ((base, untraced), (traced, traced_outcome)):
            run.samples.append((call[0], outcome))
            run.unit_walls[0] += outcome.seconds
    return base, traced


def _ordered_calls(plan: Plan, order_seed: int) -> list[tuple]:
    order = list(range(len(plan.solves)))
    Random(order_seed).shuffle(order)
    calls = []
    for i in order:
        solve = plan.solves[i]
        module, fn = SOLVERS[solve.method]
        args = (solve.instance,) if solve.params is None else (solve.instance, solve.params)
        calls.append((solve, module, fn, args))
    return calls


def _timed_solve(solve: Solve, module: str, fn: str, args: tuple) -> Outcome:
    # looked up at call time, so that a traced run sees the call
    solver = getattr(sys.modules[f"steptardy.{module}"], fn)
    t0 = time.perf_counter()
    try:
        result = solver(*args)
        seconds = time.perf_counter() - t0
        return _outcome(solve.method, result, seconds)
    except Exception:
        return Outcome(time.perf_counter() - t0, error=traceback.format_exc())


def _run_harness(plan: Plan, order_seed: int, seconds: float) -> Run:
    run = Run([], [])
    t_start = time.perf_counter()
    while True:
        samples, wall, report = _harness_pass(plan, order_seed)
        run.samples += samples
        run.unit_walls.append(wall)
        if run.report is None:
            run.report = report
        if time.perf_counter() - t_start + wall / 2 > seconds:
            return run


def _harness_pass(plan: Plan, order_seed: int):
    """One ``run_benchmark`` call, with each solve it makes timed and kept.

    The order seed permutes the method list, which changes the order of the
    cells of an instance but not the sorted report.  Returns the samples in
    plan order, the call's wall time and its report.
    """
    methods = list(plan.config.methods)
    Random(order_seed).shuffle(methods)
    config = replace(plan.config, methods=tuple(methods))
    outcomes = {}
    saved = {}
    for method in plan.workload.methods:
        attr = SOLVERS[method][1]
        saved[attr] = getattr(harness, attr)
        setattr(harness, attr, _recording(method, saved[attr], outcomes))
    report = None
    t_pass = time.perf_counter()
    try:
        report = harness.run_benchmark(config, zero_time=True)
    except Exception:
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - t_pass
        for attr, fn in saved.items():
            setattr(harness, attr, fn)
    samples = [(s, outcomes.get(s.key) or Outcome(0.0, error="never ran")) for s in plan.solves]
    for error in report.errors if report else ():
        cell = error.split(":", 1)[0]
        hit = [o for s, o in samples if f"{s.instance.name},{s.method}" == cell]
        for outcome in hit or [o for _, o in samples]:
            outcome.error = outcome.error or f"harness error: {error}"
    return samples, wall, report


def _recording(method, fn, outcomes):
    def record(instance, *args):
        key = (instance.name, method, args[0].seed if args else None)
        t0 = time.perf_counter()
        try:
            result = fn(instance, *args)
            seconds = time.perf_counter() - t0
            outcomes[key] = _outcome(method, result, seconds)
        except Exception:
            outcomes[key] = Outcome(time.perf_counter() - t0, error=traceback.format_exc())
            raise
        return result

    return record


def optima(plan: Plan) -> dict[str, int]:
    """Proven optima by instance name: recorded, else brute force up to n=10."""
    found = {}
    for instance in plan.instances:
        if instance.n > 10:
            continue
        if instance.name in plan.references:
            found[instance.name] = plan.references[instance.name]
        else:
            found[instance.name] = brute_force(instance).best_value
    return found


def failures(samples: list[tuple[Solve, Outcome]], known_optima: dict[str, int]) -> dict:
    """Index -> reason for every failed sample.

    Besides the per-solve checks, a solve run more than once must return
    the same value and sequence every time.
    """
    failed = {}
    first = {}
    for i, (solve, outcome) in enumerate(samples):
        why = _check_solve(solve, outcome, known_optima)
        if why is None:
            result = (outcome.value, outcome.sequence)
            if first.setdefault(solve.key, result) != result:
                why = "result differs from the solve's first run"
        if why is not None:
            failed[i] = why
    return failed


def _check_solve(solve: Solve, outcome: Outcome, known_optima) -> str | None:
    if outcome.error is not None:
        return "failed: " + outcome.error.strip().splitlines()[-1]
    n = solve.instance.n
    seq = outcome.sequence
    if len(seq) != n or set(seq) != set(range(1, n + 1)):
        return f"returned a non-permutation {list(seq)}"
    actual = evaluate_schedule(solve.instance, seq).total
    if actual != outcome.value:
        return f"reported {outcome.value} but the sequence evaluates to {actual}"
    optimum = known_optima.get(solve.instance.name)
    if optimum is not None and outcome.value < optimum:
        return f"value {outcome.value} is below the optimum {optimum}"
    if optimum is not None and solve.method in EXACT_METHODS and outcome.value != optimum:
        return f"exact value {outcome.value} differs from the optimum {optimum}"
    return None


def gap(plan: Plan, samples, known_optima: dict[str, int]) -> tuple[float, int]:
    """Mean signed RPD of the passing samples and the number of infinite RPDs.

    The reference is the recorded value, else the optimum, else the best
    passing value of the instance.  Infinite RPDs (reference 0, value above
    it) cannot enter a mean; they are counted and reported instead.
    """
    best: dict[str, int] = {}
    for solve, o in samples:
        best[solve.instance.name] = min(o.value, best.get(solve.instance.name, o.value))
    finite = []
    infinite = 0
    for solve, o in samples:
        name = solve.instance.name
        value = rpd(o.value, plan.references.get(name, known_optima.get(name, best[name])))
        if isinf(value):
            infinite += 1
        else:
            finite.append(value)
    return (mean(finite) if finite else 0.0), infinite


def digest(samples, report: BenchReport | None) -> tuple[str, list[str]]:
    """Hash of every (instance, method, seed) -> (value, sequence) of a pass."""
    lines = sorted(
        f"{s.key[0]} {s.key[1]} {s.key[2]} -> {o.value} {list(o.sequence or ())}"
        for s, o in samples
    )
    if report is not None:
        lines.append(report.csv_text)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16], lines


def measure_setup(name: str, suite_seed: int, solve_seed: int, sizes: tuple[int, ...]) -> dict:
    """Medians of ``SETUP_REPEATS`` set-ups, each in a fresh interpreter."""
    src = str(Path(steptardy.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(suite_seed), str(solve_seed)]
    cmd += [str(n) for n in sizes]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return {key: median(s[key] for s in samples) for key in samples[0]}


def joint_local_optimum(instance: Instance) -> list[int]:
    """Descend from EDD through all five neighbourhoods until none improves."""
    seq = edd_sequence(instance)
    while True:
        start = seq
        for k in NEIGHBORHOOD_IDS:
            seq = descend(instance, seq, k)
        if seq == start:
            return seq


def full_scan_ms(instance: Instance) -> dict[int, float]:
    """Median time of one descend (one full scan) per neighbourhood, in ms."""
    seq = joint_local_optimum(instance)
    clock = time.perf_counter
    result = {}
    for k in NEIGHBORHOOD_IDS:
        times = []
        for _ in range(FULL_SCAN_REPEATS):
            t0 = clock()
            descend(instance, seq, k)
            times.append(clock() - t0)
        result[k] = 1000 * median(times)
    return result


def brute_force_perms_per_s(suite_seed: int) -> float:
    """Permutations enumerated per second by brute force on the n=8 cells."""
    instances = generate_suite([BRUTE_FORCE_PROBE_N], suite_seed)
    t0 = time.perf_counter()
    for instance in instances:
        brute_force(instance)
    return len(instances) * factorial(BRUTE_FORCE_PROBE_N) / (time.perf_counter() - t0)


def run_workload(
    name: str,
    order_seed: int,
    seconds: float,
    trace: bool,
    suite_seed: int = 0,
    solve_seed: int = 0,
    sizes: tuple[int, ...] = (),
) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and a record of the run.

    Untraced, the run measures for ``seconds`` (at least the whole list
    once).  Traced, ``run_traced`` runs the list once untraced and once
    traced, and the per-layer metrics come from the traced pass.
    """
    setup = measure_setup(name, suite_seed, solve_seed, sizes)
    plan = prepare(name, suite_seed, solve_seed, sizes)
    n = len(plan.solves)
    if trace:
        tracer = Tracer()
        run, traced = run_traced(plan, order_seed, tracer)
    else:
        run = run_units(plan, order_seed, seconds)
    samples = run.samples + (traced.samples if trace else [])

    known_optima = optima(plan)
    failed = failures(samples, known_optima)
    for i, why in failed.items():
        print(f"failed: {samples[i][0].key}: {why}", file=sys.stderr)
    first_ok = [samples[i] for i in range(n) if i not in failed]
    gap_pct, gap_inf = gap(plan, first_ok, known_optima)
    if gap_inf:
        print(f"note: {gap_inf} solves have an infinite RPD (reference 0, value above it); "
              "they are left out of gap_pct", file=sys.stderr)
    hexdigest, lines = digest(samples[:n], run.report)
    for line in lines:
        print("digest:", line, file=sys.stderr)

    if trace:
        metrics = layer_metrics(plan, run, traced, tracer, setup, suite_seed)
    else:
        per_solve: dict = {}
        for solve, outcome in samples:
            per_solve.setdefault(solve.key, []).append(outcome.seconds)
        solve_s = [mean(ts) for ts in per_solve.values()]
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": mean(run.unit_walls) if plan.config is not None else sum(solve_s),
            "solve_s_p50": median(solve_s),
            "solve_s_max": max(solve_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "gap_pct": gap_pct,
            "solved_frac": (len(samples) - len(failed)) / len(samples),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "order_seed": order_seed,
        "suite_seed": suite_seed,
        "solve_seed": solve_seed,
        "trace": int(trace),
        "solves_in_list": n,
        "solves_run": len(samples),
        "failed_frac": len(failed) / len(samples),
        "gap_inf": gap_inf,
        "digest": hexdigest,
    }
    return result, record


def layer_metrics(plan: Plan, base: Run, traced: Run, tr: Tracer, setup: dict, suite_seed: int) -> dict:
    """Per-layer metrics of the traced pass, plus the layer probes."""
    outcomes = [o for _, o in traced.samples]
    iterations = sum(o.iterations for o in outcomes)
    bb_nodes = sum(o.nodes for o in outcomes)
    search_s = tr.total_s["metaheuristics.gvns"] + tr.total_s["metaheuristics.vns"]
    descend_calls = tr.calls["neighborhoods.descend"]
    greedy_calls = tr.calls["swsp.greedy_construct"]
    tt_calls = tr.calls["core.total_tardiness"]
    bb_s = tr.total_s["exact.branch_and_bound"]
    scan_n = max(plan.instances, key=lambda inst: inst.n)
    scans = full_scan_ms(scan_n)
    report = traced.report

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("neighborhoods.descend_calls", descend_calls, "count")
    put("neighborhoods.descend_s", tr.total_s["neighborhoods.descend"], "s")
    for k in NEIGHBORHOOD_IDS:
        put(f"neighborhoods.descend_k{k}_s", tr.descend_k_s[k], "s")
    put("neighborhoods.descend_improved_frac",
        tr.descend_improved / descend_calls if descend_calls else 0.0, "ratio")
    for k in NEIGHBORHOOD_IDS:
        put(f"neighborhoods.full_scan_k{k}_ms", scans[k], "ms")
    put("neighborhoods.shake_s", tr.total_s["neighborhoods.shake"], "s")
    put("neighborhoods.perturb_calls", tr.calls["neighborhoods.perturb_three_opt"], "count")
    put("metaheuristics.iterations", iterations, "count")
    put("metaheuristics.vnd_calls", tr.calls["metaheuristics.vnd"], "count")
    put("metaheuristics.iter_ms", 1000 * search_s / iterations if iterations else 0.0, "ms")
    put("metaheuristics.self_s", tr.layer_self_s("metaheuristics"), "s")
    put("swsp.greedy_construct_calls", greedy_calls, "count")
    put("swsp.greedy_construct_us",
        1e6 * tr.total_s["swsp.greedy_construct"] / greedy_calls if greedy_calls else 0.0, "us")
    put("swsp.pairwise_swap_pass_s", tr.total_s["swsp.pairwise_swap_pass"], "s")
    put("swsp.self_s", tr.layer_self_s("swsp"), "s")
    put("exact.bb_s", bb_s, "s")
    put("exact.bb_nodes", bb_nodes, "count")
    put("exact.bb_nodes_per_s", bb_nodes / bb_s if bb_s else 0.0, "1/s")
    put("exact.brute_force_perms_per_s", brute_force_perms_per_s(suite_seed), "1/s")
    put("core.total_tardiness_calls", tt_calls, "count")
    put("core.total_tardiness_us",
        1e6 * tr.total_s["core.total_tardiness"] / tt_calls if tt_calls else 0.0, "us")
    put("core.evaluate_schedule_calls", tr.calls["core.evaluate_schedule"], "count")
    put("harness.run_benchmark_s", tr.total_s["harness.run_benchmark"], "s")
    put("harness.cells", len(report.rows) if report else 0, "count")
    put("harness.errors", len(report.errors) if report else 0, "count")
    put("harness.self_s", tr.layer_self_s("harness"), "s")
    put("generator.generate_suite_s", setup["generate_s"], "s")
    put("cli.import_s", setup["import_s"], "s")
    put("trace.overhead_pct", 100 * (traced.unit_walls[0] / base.unit_walls[0] - 1), "%")
    return m
