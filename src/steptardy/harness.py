"""Experiment orchestration: metrics, benchmark runs and CSV reporting.

``METHODS`` is the one list of method names and ``solve`` the one runner:
it times a method's solver and re-evaluates the sequence it reports, for
``bench``, the CLI's ``solve`` and the demo script.
A benchmark runs a set of methods over a set of instances.  Deterministic
methods (exact enumeration, branch and bound, the weighted search
procedure) run once per instance; stochastic methods (vns, gvns) run R
replications seeded base+0 .. base+R-1.  A row's representative value is
its mean (equal to the single value for deterministic methods), and the
relative percentage deviation is taken against the smallest
representative value of the same instance.  Rows are sorted by (group, n,
method) and rendered with a fixed header, so reports are byte-stable apart
from the measured wall times (which ``zero_time`` pins to zero).

Per-row failures (missing files, size caps, validation mismatches) are
collected as error strings and never abort the batch.  Each solver is
looked up as a module global at call time, so a caller may wrap one with
``setattr`` to time it.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field, fields
from statistics import mean as _mean

from .core import Instance, evaluate_schedule, load_instance, write_text
from .exact import branch_and_bound, brute_force
from .generator import generate_suite
from .metaheuristics import SearchParams, gvns, vns
from .swsp import swsp

# each method's solver, by its name in this module; the searches also take
# SearchParams
_SOLVERS = {
    "bb": "branch_and_bound", "exact": "brute_force", "gvns": "gvns", "swsp": "swsp", "vns": "vns",
}
_SEARCHES = ("gvns", "vns")
METHODS = tuple(_SOLVERS)
CSV_HEADER = "group,n,method,best,mean,rpd_pct,mad_pct,time_s"

_GROUP_RE = re.compile(r"^(S_\d\d)_n\d+_s-?\d+$")

# the type of each ExperimentConfig field, or of its items when its default
# is a tuple
_FIELD_TYPES = {
    "instances": str, "gen_sizes": int, "gen_seed": int, "methods": str, "replications": int,
    "seed": int, "output": str, "iter_max": int, "iter_nip": int,
}


def _json_key(name: str) -> str:
    """A field's key in a JSON config: the generator's fields sit in
    "generate", without the prefix."""
    return f"generate.{name[4:]}" if name.startswith("gen_") else name


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: instance files and/or a generated suite, methods, seeds.

    Construction raises a ValueError for a field of the wrong type and for
    any other invalid setting; a list field takes a list or a tuple and
    keeps a tuple.
    """

    instances: tuple[str, ...] = ()
    gen_sizes: tuple[int, ...] = ()
    gen_seed: int = 0
    methods: tuple[str, ...] = ("gvns",)
    replications: int = 10
    seed: int = SearchParams.seed
    output: str = ""
    iter_max: int = SearchParams.iter_max
    iter_nip: int = SearchParams.iter_nip

    def __post_init__(self):
        for spec in fields(self):
            name, kind = spec.name, _FIELD_TYPES[spec.name]
            value = getattr(self, name)
            listed = isinstance(spec.default, tuple)
            items = value if listed else (value,)
            # bool is an int subclass, but true is no count
            if not isinstance(items, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, kind) for v in items
            ):
                what = f"a list of {kind.__name__}" if listed else kind.__name__
                raise ValueError(
                    f"config field {_json_key(name)!r} must be {what} (got {value!r})"
                )
            if listed:
                object.__setattr__(self, name, tuple(value))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")
        # a repeated entry would run the same cell twice and write its row
        # twice; two spellings of one path name the same file
        for name, what in (("methods", "method"), ("gen_sizes", "size"), ("instances", "file")):
            value = getattr(self, name)
            keys = [os.path.realpath(v) for v in value] if name == "instances" else value
            if len(set(keys)) != len(value):
                raise ValueError(f"{_json_key(name)} {list(value)} name a {what} more than once")
        if not self.instances and not self.gen_sizes:
            raise ValueError("config needs instance paths or generation sizes")
        SearchParams(iter_max=self.iter_max, iter_nip=self.iter_nip)  # raises once, not per cell

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """The config of a JSON file (format in README.md).  A non-object, an
        unknown key, a field of the wrong type or a string where a list
        belongs raises one ValueError; an absent field takes its default."""
        raw = json.loads(text)
        gen = (raw.get("generate") or {}) if isinstance(raw, dict) else None
        if not isinstance(gen, dict):
            raise ValueError("a config and its 'generate' entry must be JSON objects")
        # a misspelt key would otherwise leave its field at the default
        unknown = [
            k for k in raw if k != "generate" and (k.startswith("gen_") or k not in _FIELD_TYPES)
        ]
        unknown += [f"generate.{k}" for k in gen if f"gen_{k}" not in _FIELD_TYPES]
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        given = {}
        for key in _FIELD_TYPES:
            # the generator's fields sit in "generate", without the prefix
            obj, name = (gen, key[4:]) if key.startswith("gen_") else (raw, key)
            if name in obj:
                given[key] = obj[name]
        return cls(**given)


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


def solve(instance: Instance, method: str, params: SearchParams):
    """Run one of ``METHODS`` on the instance, check what it reports and
    return ``(result, seconds)``; ``params`` is used by gvns and vns only.

    The solver is looked up as a module global at call time and called
    positionally, with the instance alone or, for a search, the instance and
    ``params``; ``seconds`` times that call alone.  The reported sequence is
    then re-evaluated with ``evaluate_schedule``, and a value that differs
    from it raises a RuntimeError.  An exact solver refuses n above its size
    cap with a ValueError.
    """
    solver = globals()[_SOLVERS[method]]
    t0 = time.perf_counter()
    res = solver(instance, params) if method in _SEARCHES else solver(instance)
    seconds = time.perf_counter() - t0
    check = evaluate_schedule(instance, res.best_sequence).total
    if check != res.best_value:
        raise RuntimeError(
            f"method {method} reported {res.best_value} but the sequence evaluates to {check}"
        )
    return res, seconds


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
            reps = config.replications if method in _SEARCHES else 1
            try:
                cells[method] = [
                    solve(instance, method, SearchParams(config.iter_max, config.iter_nip, seed))
                    for seed in range(config.seed, config.seed + reps)
                ]
            except (ValueError, RuntimeError) as exc:
                report.errors.append(f"{instance.name or 'instance'},{method}: {exc}")
        if not cells:
            continue
        reference = min(_mean([res.best_value for res, _ in runs]) for runs in cells.values())
        for method, runs in cells.items():
            values = [res.best_value for res, _ in runs]
            times = [t for _, t in runs]
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
        write_text(config.output, report.csv_text)
    return report


def _cells(r: ReportRow) -> list[str]:
    """A row's formatted values, in ``CSV_HEADER`` order."""
    return [r.group, str(r.n), r.method, str(r.best),
            *(f"{x:.2f}" for x in (r.mean, r.rpd_pct, r.mad_pct, r.time_s))]


def render_csv(rows) -> str:
    return "\n".join([CSV_HEADER, *(",".join(_cells(r)) for r in rows)]) + "\n"


def render_markdown(rows) -> str:
    header = CSV_HEADER.split(",")
    lines = ["| " + " | ".join(cells) + " |" for cells in [header, *map(_cells, rows)]]
    lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines) + "\n"
