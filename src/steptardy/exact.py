"""Exact optima for small instances.

``brute_force`` enumerates every permutation and is the oracle of record;
``branch_and_bound`` is a depth-first search over sequence prefixes pruned
with the prefix tardiness lower bound.  Both are exponential and guarded by
explicit size limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .core import Instance

DEFAULT_BRUTE_FORCE_CAP = 10


@dataclass(frozen=True)
class OptimalResult:
    """An optimum (or best incumbent when ``proven`` is False).

    optimal_set_size counts optimal sequences and is reported by brute force
    only; nodes_explored counts visited prefixes and is reported by branch
    and bound only.
    """

    best_value: int
    best_sequence: tuple[int, ...]
    optimal_set_size: int | None = None
    nodes_explored: int | None = None
    proven: bool = True


def brute_force(instance: Instance, n_cap: int = DEFAULT_BRUTE_FORCE_CAP) -> OptimalResult:
    """Enumerate all n! sequences and return the minimum total tardiness.

    Among ties the lexicographically smallest sequence is returned, and the
    number of optimal sequences is counted.  Refuses instances larger than
    ``n_cap``.
    """
    n = instance.n
    if n > n_cap:
        raise ValueError(
            f"brute force refused: n={n} exceeds cap {n_cap} ({n}! sequences)"
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
    a, ab, d, h = instance._columns
    c = 0
    tot = 0
    for j in partial:
        c += a[j] if c <= h[j] else ab[j]
        if c > d[j]:
            tot += c - d[j]
    return tot


def branch_and_bound(
    instance: Instance,
    node_limit: int | None = None,
    use_dominance: bool = False,
) -> OptimalResult:
    """Depth-first search over prefixes with prefix lower-bound pruning.

    Unscheduled jobs are expanded in earliest-due-date order so good
    incumbents are found early.  With ``use_dominance`` the search also
    skips a child when every remaining job is past its deteriorating date
    and an unscheduled job strictly dominates the child on (a + b, d): in
    that regime processing times are fixed, so at least one optimal
    completion survives the pruning (the returned optimum may differ from
    brute force's tie-break, the value never does).

    If ``node_limit`` is exhausted the best incumbent is returned with
    ``proven=False``.
    """
    n = instance.n
    a, ab, d, h = instance._columns
    by_edd = sorted(range(1, n + 1), key=lambda j: (d[j], j))

    best_val: int | None = None
    best_seq: tuple[int, ...] = ()
    nodes = 0
    exhausted = False
    prefix: list[int] = []
    scheduled = [False] * (n + 1)

    def dfs(c: int, tot: int) -> None:
        nonlocal best_val, best_seq, nodes, exhausted
        if exhausted:
            return
        if len(prefix) == n:
            if best_val is None or tot < best_val:
                best_val = tot
                best_seq = tuple(prefix)
            return
        all_late = use_dominance and all(
            c > h[j] for j in by_edd if not scheduled[j]
        )
        for j in by_edd:
            if scheduled[j]:
                continue
            if all_late and _dominated(j, scheduled, ab, d, n):
                continue
            p = a[j] if c <= h[j] else ab[j]
            c2 = c + p
            t2 = tot + max(0, c2 - d[j])
            if best_val is not None and t2 >= best_val:
                continue
            if node_limit is not None and nodes >= node_limit:
                exhausted = True
                return
            # a node is explored once the extended prefix is actually visited;
            # children cut by the bound or dominance are never explored
            nodes += 1
            prefix.append(j)
            scheduled[j] = True
            dfs(c2, t2)
            scheduled[j] = False
            prefix.pop()

    dfs(0, 0)
    if best_val is None:
        # every branch was cut by the node limit before reaching a leaf
        raise ValueError(f"node limit {node_limit} too small to reach any leaf")
    return OptimalResult(
        best_value=best_val,
        best_sequence=best_seq,
        nodes_explored=nodes,
        proven=not exhausted,
    )


def _dominated(j: int, scheduled: list[bool], ab: list[int], d: list[int], n: int) -> bool:
    """True if some unscheduled job strictly dominates j on (a + b, d)."""
    for w in range(1, n + 1):
        if scheduled[w] or w == j:
            continue
        if ab[w] <= ab[j] and d[w] <= d[j] and (ab[w], d[w]) != (ab[j], d[j]):
            return True
    return False
