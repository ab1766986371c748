"""Experiment orchestration: metrics, benchmark runs and CSV reporting.

A benchmark runs a set of methods over a set of instances.  Deterministic
methods (exact enumeration, branch and bound, the weighted search
procedure) run once per instance; stochastic methods (vns, gvns) run R
replications seeded base+0 .. base+R-1.  Every reported sequence is
re-evaluated before it is written, a row's representative value is its mean
(equal to the single value for deterministic methods), and the relative
percentage deviation is taken against the smallest representative value of
the same instance.  Rows are sorted by (group, n, method) and rendered with
a fixed header, so reports are byte-stable apart from the measured wall
times (which ``zero_time`` pins to zero).

Per-row failures (missing files, size caps, validation mismatches) are
collected as error strings and never abort the batch.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from statistics import mean as _mean

from .core import Instance, evaluate_schedule, load_instance
from .exact import BRANCH_AND_BOUND_CAP, branch_and_bound, brute_force
from .generator import generate_suite
from .metaheuristics import SearchParams, gvns, vns
from .swsp import swsp

METHODS = ("bb", "exact", "gvns", "swsp", "vns")
DETERMINISTIC_METHODS = frozenset({"bb", "exact", "swsp"})
SIZE_CAPS = {"exact": 10, "bb": BRANCH_AND_BOUND_CAP}
CSV_HEADER = "group,n,method,best,mean,rpd_pct,mad_pct,time_s"

_GROUP_RE = re.compile(r"^(S_\d\d)_n\d+_s\d+$")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: instance files and/or a generated suite, methods, seeds."""

    instances: tuple[str, ...] = ()
    gen_sizes: tuple[int, ...] = ()
    gen_seed: int = 0
    methods: tuple[str, ...] = ("gvns",)
    replications: int = 10
    seed: int = 0
    output: str = ""
    iter_max: int = 500
    iter_nip: int = 150

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")
        if not self.instances and not self.gen_sizes:
            raise ValueError("config needs instance paths or generation sizes")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        gen = raw.get("generate") or {}
        return cls(
            instances=tuple(raw.get("instances", ())),
            gen_sizes=tuple(gen.get("sizes", ())),
            gen_seed=gen.get("seed", 0),
            methods=tuple(raw.get("methods", ("gvns",))),
            replications=raw.get("replications", 10),
            seed=raw.get("seed", 0),
            output=raw.get("output", ""),
            iter_max=raw.get("iter_max", 500),
            iter_nip=raw.get("iter_nip", 150),
        )


@dataclass(frozen=True)
class ReportRow:
    group: str
    n: int
    method: str
    best: int
    mean: float
    rpd_pct: float
    mad_pct: float
    time_s: float


@dataclass
class BenchReport:
    rows: list[ReportRow] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    csv_text: str = ""


def rpd(z_alg: float, z_best: float) -> float:
    """Relative percentage deviation of z_alg from the reference z_best.

    Zero when both are zero; infinity marks the undefined case of a zero
    reference with a positive value.
    """
    if z_best > 0:
        return 100.0 * (z_alg - z_best) / z_best
    if z_alg == z_best == 0:
        return 0.0
    return float("inf")


def mad(values) -> float:
    """Mean absolute deviation of replication values, percent of their mean.

    100 / (R * mean) * sum(|value_r - mean|); zero for constant values, with
    the same zero-mean guard as ``rpd``.
    """
    values = list(values)
    if not values:
        raise ValueError("mad needs at least one value")
    center = _mean(values)
    if center == 0:
        return 0.0 if all(v == 0 for v in values) else float("inf")
    return 100.0 * sum(abs(v - center) for v in values) / (len(values) * center)


def group_of(instance: Instance) -> str:
    """Group label for reporting: the S_xy prefix of generated names."""
    m = _GROUP_RE.match(instance.name)
    if m:
        return m.group(1)
    return instance.name or f"n{instance.n}"


def _run_cell(instance: Instance, method: str, config: ExperimentConfig):
    """All replication (value, sequence, seconds) triples for one cell."""
    cap = SIZE_CAPS.get(method)
    if cap is not None and instance.n > cap:
        raise ValueError(f"method {method} is capped at n <= {cap}, instance has n={instance.n}")
    runs = []
    if method in DETERMINISTIC_METHODS:
        t0 = time.perf_counter()
        if method == "exact":
            res = brute_force(instance)
            value, seq = res.best_value, res.best_sequence
        elif method == "bb":
            res = branch_and_bound(instance)
            value, seq = res.best_value, res.best_sequence
        else:
            run = swsp(instance)
            value, seq = run.best_value, run.best_sequence
        runs.append((value, seq, time.perf_counter() - t0))
    else:
        solver = gvns if method == "gvns" else vns
        for r in range(config.replications):
            params = SearchParams(
                iter_max=config.iter_max,
                iter_nip=config.iter_nip,
                seed=config.seed + r,
            )
            t0 = time.perf_counter()
            run = solver(instance, params)
            runs.append((run.best_value, run.best_sequence, time.perf_counter() - t0))
    for value, seq, _ in runs:
        check = evaluate_schedule(instance, seq).total
        if check != value:
            raise RuntimeError(
                f"method {method} reported {value} but the sequence evaluates to {check}"
            )
    return runs


def run_benchmark(config: ExperimentConfig, zero_time: bool = False) -> BenchReport:
    """Run every (instance, method) cell and assemble the sorted CSV report.

    Missing files, cap violations and re-validation failures become entries
    in ``report.errors``; the batch always runs to completion.  When
    ``config.output`` is set the CSV text is also written there.
    """
    report = BenchReport()
    instances: list[Instance] = []
    for path in config.instances:
        try:
            instances.append(load_instance(path))
        except OSError as exc:
            report.errors.append(f"{path}: cannot read instance ({exc})")
        except ValueError as exc:
            report.errors.append(str(exc))
    if config.gen_sizes:
        instances.extend(generate_suite(config.gen_sizes, config.gen_seed))

    for instance in instances:
        cells = {}
        for method in config.methods:
            try:
                cells[method] = _run_cell(instance, method, config)
            except (ValueError, RuntimeError) as exc:
                report.errors.append(f"{instance.name or 'instance'},{method}: {exc}")
        if not cells:
            continue
        reference = min(_mean([v for v, _, _ in runs]) for runs in cells.values())
        for method, runs in cells.items():
            values = [v for v, _, _ in runs]
            times = [t for _, _, t in runs]
            row_mean = _mean(values)
            report.rows.append(
                ReportRow(
                    group=group_of(instance),
                    n=instance.n,
                    method=method,
                    best=min(values),
                    mean=row_mean,
                    rpd_pct=rpd(row_mean, reference),
                    mad_pct=mad(values),
                    time_s=0.0 if zero_time else _mean(times),
                )
            )

    report.rows.sort(key=lambda r: (r.group, r.n, r.method))
    report.csv_text = render_csv(report.rows)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.csv_text)
    return report


def render_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.group},{r.n},{r.method},{r.best},"
            f"{r.mean:.2f},{r.rpd_pct:.2f},{r.mad_pct:.2f},{r.time_s:.2f}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(rows) -> str:
    header = CSV_HEADER.split(",")
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for r in rows:
        lines.append(
            f"| {r.group} | {r.n} | {r.method} | {r.best} "
            f"| {r.mean:.2f} | {r.rpd_pct:.2f} | {r.mad_pct:.2f} | {r.time_s:.2f} |"
        )
    return "\n".join(lines) + "\n"
