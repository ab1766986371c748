"""Simple weighted search procedure: a deterministic constructive heuristic.

A grid of weight triples (w1, w2, w3) is generated; for each triple a
sequence is built greedily by always appending the unscheduled job with the
smallest weighted score w1*d_j + w2*p_j + w3*h_j, where p_j is the
processing time the job would actually incur if started now.  The best
constructed sequence is then polished by one pairwise-swap improvement
pass.  The grid's bounds are the paper's, fixed as ``W1_MIN`` through
``W3_FALLBACK``.

The weighted search and the swap pass run in the C kernel of
``neighborhoods`` under the same conditions as ``descend``, from the
weights of ``_weights``; ``steptardy_weighted_search`` in ``_kernel.c``
says why its greedy picks what the scan below picks.  The Python code
stays the reference and the fallback.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import neighborhoods
from .core import Instance, RunResult, _check_permutation, total_tardiness


@dataclass(frozen=True)
class WeightTriple:
    w1: float
    w2: float
    w3: float


# the paper's weight grid: w1 over [0.2, 0.9], w2 over [0.1, 0.7], w3 = 1 - w1 - w2 or 0.1
W1_MIN, W1_MAX, W2_MIN, W2_MAX, W3_FALLBACK = 0.2, 0.9, 0.1, 0.7, 0.1


def weight_grid(n: int) -> list[WeightTriple]:
    """All n*n weight triples in (l1, l2) lexicographic order.

    w1 ramps linearly from W1_MIN to W1_MAX over l1 = 1..n, w2 likewise over
    l2 = 1..n, and w3 = 1 - w1 - w2 clamped to W3_FALLBACK when <= 0.  At
    n = 1 each ramp is its first point.
    """
    w = memoryview(_weights(n)).cast("d")
    return [WeightTriple(w[i], w[i + 1], w[i + 2]) for i in range(0, len(w), 3)]


@lru_cache(maxsize=16)
def _weights(n: int) -> bytes:
    """The weights of ``weight_grid`` as native doubles, (w1, w2, w3) for
    each triple in turn: what the C kernel reads, without building n*n
    objects.  They depend on n alone, so they are cached per n, up to a
    bound; bytes are immutable, so every caller can share them."""
    steps = max(n - 1, 1)
    weights = array("d")
    for l1 in range(1, n + 1):
        w1 = W1_MIN + (W1_MAX - W1_MIN) * (l1 - 1) / steps
        for l2 in range(1, n + 1):
            w2 = W2_MIN + (W2_MAX - W2_MIN) * (l2 - 1) / steps
            w3 = 1.0 - w1 - w2
            if w3 <= 0:
                w3 = W3_FALLBACK
            weights.extend((w1, w2, w3))
    return weights.tobytes()


def greedy_construct(instance: Instance, triple: WeightTriple) -> list[int]:
    """Build one sequence for a fixed weight triple.

    The job with the smallest due date opens the sequence; afterwards the
    unscheduled job with the smallest score w1*d + w2*p + w3*h is appended,
    with p the processing time the job would incur if started at the current
    completion time.  Score ties break on the smaller job id.
    """
    a, ab, d, h = instance._columns
    n = instance.n
    unscheduled = set(range(1, n + 1))
    first = min(unscheduled, key=lambda j: (d[j], j))
    seq = [first]
    unscheduled.remove(first)
    c = a[first]  # first start is 0 <= h for any h >= 0
    w1, w2, w3 = triple.w1, triple.w2, triple.w3
    while unscheduled:
        nxt = best_key = None
        for j in unscheduled:
            p = a[j] if c <= h[j] else ab[j]
            key = (w1 * d[j] + w2 * p + w3 * h[j], j)
            if best_key is None or key < best_key:
                best_key, nxt, step = key, j, p
        seq.append(nxt)
        unscheduled.remove(nxt)
        c += step
    return seq


def pairwise_swap_pass(instance: Instance, sequence: Sequence[int]) -> list[int]:
    """One full i/j double loop of position swaps, accepting strict improvements.

    Both orders of every pair are visited (i = 1..n, j = 1..n, i != j); an
    accepted swap immediately replaces the working sequence, so later swaps
    are evaluated against it.
    """
    _check_permutation(instance, sequence)
    rows = neighborhoods._kernel_rows(instance)
    if rows is None:
        return _pairwise_swap_pass_python(instance, sequence)
    return neighborhoods._kernel.pairwise_swap_pass(rows, sequence)


def _pairwise_swap_pass_python(instance: Instance, sequence: Sequence[int]) -> list[int]:
    """``pairwise_swap_pass`` in Python: the reference and the fallback."""
    n = instance.n
    seq = list(sequence)
    best = total_tardiness(instance, seq)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            seq[i], seq[j] = seq[j], seq[i]
            val = total_tardiness(instance, seq)
            if val < best:
                best = val
            else:
                seq[i], seq[j] = seq[j], seq[i]
    return seq


def weighted_search(instance: Instance) -> tuple[list[int], int, list[int]]:
    """Best greedy sequence over the whole weight grid.

    Returns (sequence, value, trace) where trace[i] is the best value after
    the i-th triple; the first triple reaching the best value wins ties.
    """
    rows = neighborhoods._kernel_rows(instance)
    if rows is None:
        return _weighted_search_python(instance)
    seq, trace = neighborhoods._kernel.weighted_search(rows, _weights(instance.n))
    return seq, trace[-1], trace


def _weighted_search_python(instance: Instance) -> tuple[list[int], int, list[int]]:
    """``weighted_search`` in Python: the reference and the fallback."""
    best_seq: list[int] | None = None
    best_val: int | None = None
    trace = []
    for triple in weight_grid(instance.n):
        seq = greedy_construct(instance, triple)
        val = total_tardiness(instance, seq)
        if best_val is None or val < best_val:
            best_seq, best_val = seq, val
        trace.append(best_val)
    assert best_seq is not None and best_val is not None
    return best_seq, best_val, trace


def swsp(instance: Instance) -> RunResult:
    """Full procedure: weighted search, then the pairwise-swap pass.

    Fully deterministic; RunResult.iterations is the number of weight
    triples evaluated and RunResult.trace the per-triple best values.
    """
    seq, _, trace = weighted_search(instance)
    improved = pairwise_swap_pass(instance, seq)
    final_val = total_tardiness(instance, improved)
    return RunResult(
        best_sequence=tuple(improved),
        best_value=final_val,
        iterations=len(trace),
        perturbations=0,
        seed=None,
        trace=tuple(trace),
    )
