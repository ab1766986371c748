"""Domain types and the schedule evaluator for single-machine scheduling
with step-deteriorating jobs.

A job j has a basic processing time a_j, a deterioration penalty b_j, a due
date d_j and a deteriorating date h_j.  Started at time s, the job takes a_j
time units if s <= h_j and a_j + b_j otherwise.  The machine processes one
job at a time with no idling, so a sequence (permutation of job ids) fully
determines every start, completion and tardiness.  The objective handled
throughout the package is the total tardiness sum(max(0, C_j - d_j)).

All times are exact integers.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


@dataclass(frozen=True)
class Job:
    """One schedulable task (all fields are integer time units)."""

    id: int
    a: int  # basic processing time, >= 1
    b: int  # deterioration penalty, >= 0
    d: int  # due date, >= 0
    h: int  # deteriorating date (latest start that avoids the penalty), >= 0


@dataclass(frozen=True)
class Instance:
    """An ordered collection of jobs with ids exactly 1..n.

    Construction raises one ValueError naming every broken invariant.
    """

    jobs: tuple[Job, ...]
    name: str = ""
    seed: int | None = None

    def __post_init__(self):
        problems = _validate_instance(self)
        if problems:
            raise ValueError(f"invalid instance: {'; '.join(problems)}")

    @property
    def n(self) -> int:
        return len(self.jobs)

    # Derived columns are computed once per instance and kept in its
    # __dict__; equality, hashing, repr and JSON see only the fields.

    @cached_property
    def _columns(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Per-field lists indexed by job id (index 0 unused) for fast evaluation.

        Returns (a, ab, d, h) with ab[j] = a[j] + b[j].
        """
        by_id = sorted(self.jobs, key=lambda job: job.id)
        a = [0] + [job.a for job in by_id]
        ab = [0] + [job.a + job.b for job in by_id]
        d = [0] + [job.d for job in by_id]
        h = [0] + [job.h for job in by_id]
        return a, ab, d, h

    @cached_property
    def _ids(self) -> frozenset[int]:
        """The job ids 1..n, which every sequence must be a permutation of."""
        return frozenset(range(1, self.n + 1))

    @cached_property
    def _int64_rows(self) -> bytes | None:
        """The columns as native int64 rows (a, ab, d, h) by job id, for the C
        kernel's local search, SWSP and exact DP.

        None when a value is so large that a completion time or tardiness sum
        could overflow int64: every value is non-negative, as the Instance
        checks require, and the bound is n * (sum a + sum ab + max d) < 2**62,
        with h < 2**62.
        """
        a, ab, d, h = self._columns
        span = sum(a) + sum(ab) + max(d)
        if self.n * span >= 2**62 or max(h) >= 2**62:
            return None
        rows = array("q")
        for x in range(self.n + 1):
            rows.extend((a[x], ab[x], d[x], h[x]))
        return rows.tobytes()


@dataclass(frozen=True)
class ScheduleResult:
    """Evaluation of one sequence: per-position timings plus the objective.

    The tuples are aligned with ``order``: starts[k] is the start time of the
    job in position k (job id order[k]), and so on.  total is the objective
    value sum of tardiness.
    """

    order: tuple[int, ...]
    starts: tuple[int, ...]
    processing: tuple[int, ...]
    completions: tuple[int, ...]
    tardiness: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class RunResult:
    """Outcome of one heuristic/metaheuristic run.

    It holds no time, so it is wholly determined by the instance and the
    seed; trace holds the best value after each iteration.
    """

    best_sequence: tuple[int, ...]
    best_value: int
    iterations: int
    perturbations: int
    seed: int | None
    trace: tuple[int, ...]


def _require_ints(obj, names: Sequence[str]) -> None:
    """Raise a ValueError naming the first of ``obj``'s attributes ``names``
    that is not an int; bool is an int subclass, but True would seed, name
    or draw as 1."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int (got {value!r})")


def _check_permutation(instance: Instance, sequence: Sequence[int]) -> None:
    n = instance.n
    # 1.0 and True equal (and hash as) 1, so the set test alone lets them in
    if (
        len(sequence) != n
        or set(sequence) != instance._ids
        or any(type(j) is not int for j in sequence)
    ):
        raise ValueError(
            f"sequence {list(sequence)} is not a permutation of 1..{n}"
        )


def evaluate_schedule(instance: Instance, sequence: Sequence[int]) -> ScheduleResult:
    """Schedule the sequence with no idle time and report all timings.

    The first job starts at 0 and each later job starts at the previous
    completion.  Rejects sequences that are not permutations of 1..n.
    """
    _check_permutation(instance, sequence)
    a, ab, d, h = instance._columns
    starts = []
    procs = []
    comps = []
    tards = []
    c = 0
    total = 0
    for j in sequence:
        starts.append(c)
        p = a[j] if c <= h[j] else ab[j]
        procs.append(p)
        c += p
        comps.append(c)
        t = c - d[j]
        if t < 0:
            t = 0
        tards.append(t)
        total += t
    return ScheduleResult(
        order=tuple(sequence),
        starts=tuple(starts),
        processing=tuple(procs),
        completions=tuple(comps),
        tardiness=tuple(tards),
        total=total,
    )


def total_tardiness(instance: Instance, sequence: Sequence[int]) -> int:
    """Total tardiness of the sequence (no-idle semantics), objective only."""
    a, ab, d, h = instance._columns
    c = 0
    total = 0
    for j in sequence:
        c += a[j] if c <= h[j] else ab[j]
        if c > d[j]:
            total += c - d[j]
    return total


def _validate_instance(instance: Instance) -> list[str]:
    """Every violated Job and Instance invariant, one message each.

    ``Instance.__post_init__`` raises on a non-empty report, so no solver
    ever sees an instance that breaks one.
    """
    report = []
    n = instance.n
    if n < 1:
        report.append("instance must contain at least one job")
    if not isinstance(instance.name, str):
        report.append(f"name must be a string (got {instance.name!r})")
    if instance.seed is not None and type(instance.seed) is not int:  # nor a bool
        report.append(f"seed must be an int or null (got {instance.seed!r})")
    seen: set[int] = set()
    for job in instance.jobs:
        fields = {"id": job.id, "a": job.a, "b": job.b, "d": job.d, "h": job.h}
        # bool is an int subclass, but True is no time value
        ints = {f: v for f, v in fields.items() if isinstance(v, int) and not isinstance(v, bool)}
        for field, value in fields.items():
            if field not in ints:
                report.append(f"job {job.id!r}: {field} must be an integer (got {value!r})")
        if "id" in ints:
            if job.id in seen:
                report.append(f"job {job.id}: duplicate id")
            seen.add(job.id)
        for field, least in (("a", 1), ("b", 0), ("d", 0), ("h", 0)):
            if ints.get(field, least) < least:
                report.append(f"job {job.id}: {field} must be >= {least} (got {ints[field]})")
    missing = set(range(1, n + 1)) - seen
    extra = seen - set(range(1, n + 1))
    if missing:
        report.append(f"missing job ids: {sorted(missing)}")
    if extra:
        report.append(f"job ids out of range 1..{n}: {sorted(extra)}")
    return report


def check_dominance(instance: Instance, schedule: ScheduleResult) -> list[tuple[int, int]]:
    """Pairs (earlier, later) where the later job should precede the earlier.

    A pair of jobs both non-deteriorated in this schedule prefers the one
    with the smaller (a, d); a pair both deteriorated prefers the smaller
    (a + b, d).  A returned pair (k, j) means k is scheduled before j even
    though j dominates k.  Ties (equal key on both coordinates) are skipped
    since the preference is vacuous.  An empty list means the schedule is
    consistent with both pairwise preference rules.
    """
    jobs = {job.id: job for job in instance.jobs}
    deteriorated = {
        job_id: schedule.starts[pos] > jobs[job_id].h
        for pos, job_id in enumerate(schedule.order)
    }
    violations = []
    order = schedule.order
    for u in range(len(order)):
        k = order[u]
        for v in range(u + 1, len(order)):
            j = order[v]
            if deteriorated[k] != deteriorated[j]:
                continue
            if deteriorated[k]:
                key_j = (jobs[j].a + jobs[j].b, jobs[j].d)
                key_k = (jobs[k].a + jobs[k].b, jobs[k].d)
            else:
                key_j = (jobs[j].a, jobs[j].d)
                key_k = (jobs[k].a, jobs[k].d)
            if key_j == key_k:
                continue
            if key_j[0] <= key_k[0] and key_j[1] <= key_k[1]:
                violations.append((k, j))
    return violations


# --- instance JSON format -------------------------------------------------
#
# {"name": str, "seed": int|null, "jobs": [{"id", "a", "b", "d", "h"}, ...]}
# with jobs sorted by id.  Serialization is byte-stable for a given instance.


def instance_to_json(instance: Instance) -> str:
    payload = {
        "name": instance.name,
        "seed": instance.seed,
        "jobs": [
            {"id": j.id, "a": j.a, "b": j.b, "d": j.d, "h": j.h}
            for j in sorted(instance.jobs, key=lambda job: job.id)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    payload = json.loads(text)
    jobs = tuple(
        Job(id=row["id"], a=row["a"], b=row["b"], d=row["d"], h=row["h"])
        for row in payload["jobs"]
    )
    return Instance(jobs=jobs, name=payload.get("name", ""), seed=payload.get("seed"))


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with "\\n" line ends on every platform,
    so a file's bytes depend on its text alone."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def save_instance(instance: Instance, path) -> None:
    write_text(path, instance_to_json(instance))


def load_instance(path) -> Instance:
    """Read an instance file; bad JSON, a missing key, a wrong type and an
    invalid instance raise one ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return instance_from_json(fh.read())
    except (KeyError, TypeError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: malformed instance ({what})") from None
    except ValueError as exc:  # the construction's "invalid instance: ..."
        raise ValueError(f"{path}: {exc}") from None
