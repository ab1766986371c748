"""Exact optima for small instances.

``brute_force`` enumerates every permutation and is the oracle of record;
``branch_and_bound`` is a subset dynamic program over Pareto labels of
(completion time, tardiness), run in the C kernel when it loaded, with
``_branch_and_bound_python`` as its reference and fallback.  Both solvers
are exponential and refuse n past a cap, the same cap on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from . import neighborhoods
from .core import Instance, total_tardiness

BRUTE_FORCE_CAP = 10
BRANCH_AND_BOUND_CAP = 20


@dataclass(frozen=True)
class OptimalResult:
    """A proven optimum.

    optimal_set_size counts optimal sequences and is reported by brute force
    only; nodes_explored counts the Pareto labels kept and is reported by
    branch and bound only.  Both solvers are exact, so proven is True.
    """

    best_value: int
    best_sequence: tuple[int, ...]
    optimal_set_size: int | None = None
    nodes_explored: int | None = None
    proven: bool = True


def brute_force(instance: Instance) -> OptimalResult:
    """Enumerate all n! sequences and return the minimum total tardiness.

    Among ties the lexicographically smallest sequence is returned, and the
    number of optimal sequences is counted.  Refuses n above
    ``BRUTE_FORCE_CAP``.
    """
    n = instance.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force refused: n={n} exceeds cap {BRUTE_FORCE_CAP} ({n}! sequences)"
        )
    a, ab, d, h = instance._columns
    best = None
    best_seq: tuple[int, ...] = ()
    ties = 0
    for perm in permutations(range(1, n + 1)):
        c = 0
        tot = 0
        for j in perm:
            c += a[j] if c <= h[j] else ab[j]
            if c > d[j]:
                tot += c - d[j]
                if best is not None and tot > best:
                    break
        else:
            if best is None or tot < best:
                best, best_seq, ties = tot, perm, 1
            elif tot == best:
                ties += 1
    assert best is not None
    return OptimalResult(best_value=best, best_sequence=best_seq, optimal_set_size=ties)


def prefix_lower_bound(instance: Instance, partial: Sequence[int]) -> int:
    """Total tardiness already incurred by a scheduled prefix.

    Tardiness is non-negative and completion times only grow, so the value
    is a valid lower bound for every completion of the prefix.
    """
    n = instance.n
    if len(set(partial)) != len(partial) or not all(1 <= j <= n for j in partial):
        raise ValueError(f"partial {list(partial)} is not a duplicate-free prefix of 1..{n}")
    return total_tardiness(instance, partial)


def branch_and_bound(instance: Instance) -> OptimalResult:
    """Exact optimum by a subset DP over Pareto labels (Held & Karp 1962).

    A label (C, T) is the completion time and total tardiness of an ordering
    of a job subset.  Each subset, in increasing bitmask order, extends the
    labels of every ``mask - j`` by job j and keeps those that no other
    label beats on both C and T, one per equal (C, T).  With every b >= 0 a
    later start never makes a job shorter or less tardy, so a dominated
    label never completes to a better schedule.  ``nodes_explored`` counts
    the labels kept.  Refuses n above ``BRANCH_AND_BOUND_CAP``, the kernel's
    ``DP_MAX_JOBS``, before either path runs.

    Among tied optima it returns the one its backward walk meets first (at
    each step the lowest job id whose kept label extends to the current
    one), not the lexicographically smallest that ``brute_force`` returns.

    The DP runs in the C kernel (``steptardy_branch_and_bound`` in
    ``_kernel.c``) under the same conditions as ``neighborhoods.descend``,
    and otherwise in ``_branch_and_bound_python``, the reference: both
    keep the same labels and return the same sequence.
    """
    n = instance.n
    if n > BRANCH_AND_BOUND_CAP:
        raise ValueError(f"branch and bound refused: n={n} exceeds cap {BRANCH_AND_BOUND_CAP}")
    rows = neighborhoods._kernel_rows(instance)
    if rows is None:
        return _branch_and_bound_python(instance)
    value, sequence, labels = neighborhoods._kernel.branch_and_bound(rows)
    return OptimalResult(value, tuple(sequence), nodes_explored=labels)


def _branch_and_bound_python(instance: Instance) -> OptimalResult:
    """``branch_and_bound`` in Python: the reference and the fallback."""
    n = instance.n
    a, ab, d, h = instance._columns
    jobs = [(1 << (j - 1), j) for j in range(1, n + 1)]
    full = (1 << n) - 1
    # a label is one int, C << shift | T, a third of a (C, T) tuple's memory:
    # every T is at most n * sum(ab) < 2**shift, so the ints sort by C, then T
    shift = (n * sum(ab)).bit_length()
    low = (1 << shift) - 1
    fronts = [[0]]  # fronts[mask]: its labels by ascending C, descending T
    labels = 0
    for mask in range(1, full + 1):
        candidates = []
        for bit, j in jobs:
            if mask & bit:
                aj, abj, dj, hj = a[j], ab[j], d[j], h[j]
                for label in fronts[mask ^ bit]:
                    c = label >> shift
                    c += aj if c <= hj else abj
                    t = (label & low) + (c - dj if c > dj else 0)
                    candidates.append(c << shift | t)
        candidates.sort()
        front = [candidates[0]]
        for label in candidates:
            if (label & low) < (front[-1] & low):
                front.append(label)
        fronts.append(front)
        labels += len(front)

    # rebuild the sequence backwards from the least tardy label of the full set
    label = best = fronts[full][-1]
    sequence = []
    mask = full
    while mask:
        c, t = label >> shift, label & low
        # the kept label of some mask - j that job j extends to (c, t)
        label, j = next(
            (prev, j)
            for bit, j in jobs
            if mask & bit
            for prev in fronts[mask ^ bit]
            if (prev >> shift) + (a[j] if (prev >> shift) <= h[j] else ab[j]) == c
            and (prev & low) + max(0, c - d[j]) == t
        )
        sequence.append(j)
        mask ^= 1 << (j - 1)
    return OptimalResult(best & low, tuple(reversed(sequence)), nodes_explored=labels)
