"""Variable neighborhood search metaheuristics.

``gvns`` shakes the incumbent in a cycling neighborhood, improves the
shaken point with a variable neighborhood descent through all five
neighborhoods in a freshly randomized order, accepts strict improvements
only, and restarts from a three-cut perturbation of the incumbent after
more than ``gamma`` = iter_nip // 2 non-improving iterations.  ``vns`` is
the plain variant: the local search uses only the shaking neighborhood, the
neighborhood index advances only on failure, and there is no perturbation.
Both cycle the shaking neighborhood over all five ``NEIGHBORHOOD_IDS``, as
in the paper; only the stopping rule and the seed are parameters.

Each run draws from three independent substreams (shaking, descent order,
perturbation) derived from the run seed, so identical parameters reproduce
identical results, iteration counts included.

An iteration's local search, a whole VND or one descent, is a single call
of ``neighborhoods._local_search``, which returns the total tardiness with
the sequence, so the loops evaluate only their start and each
perturbation themselves.  Each loop also passes its incumbent with
``proven``, the mask of the neighborhoods the incumbent is known to be a
local optimum of (see ``_local_search``), and zeroes the mask whenever
the incumbent changes: on an accepted candidate and on a perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .core import Instance, RunResult, _check_permutation, _require_ints, total_tardiness
from .neighborhoods import (
    NEIGHBORHOOD_IDS,
    _check_neighborhood,
    _local_search,
    perturb_three_opt,
    shake,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class SearchParams:
    """Stopping rule and seed for one metaheuristic run.

    The run stops once the iteration count exceeds ``iter_max`` or the
    number of consecutive non-improving iterations exceeds ``iter_nip``;
    more than ``gamma`` = iter_nip // 2 iterations without improvement
    trigger the perturbation, so iter_nip must be at least 2.  All three
    fields must be ints; anything else, a bool included, raises a
    ValueError naming the field.
    """

    iter_max: int = 500
    iter_nip: int = 150
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, ("iter_max", "iter_nip", "seed"))
        if not 2 <= self.iter_nip <= self.iter_max:
            raise ValueError("iter_nip must satisfy 2 <= iter_nip <= iter_max")

    @property
    def gamma(self) -> int:
        """Iterations without improvement before ``gvns`` perturbs."""
        return self.iter_nip // 2


def edd_sequence(instance: Instance) -> list[int]:
    """Job ids by non-decreasing due date, ties broken by smaller id."""
    return [job.id for job in sorted(instance.jobs, key=lambda j: (j.d, j.id))]


def vnd(instance: Instance, sequence: Sequence[int], order: Sequence[int]) -> list[int]:
    """Variable neighborhood descent through the neighborhoods in ``order``.

    Each neighborhood is descended to its fixpoint before moving to the
    next one, so a second application of the same neighborhood cannot
    improve and the scan needs a single pass.  The result never has a
    larger total than the input.
    """
    for k in order:
        _check_neighborhood(k)
    if sorted(order) != sorted(NEIGHBORHOOD_IDS[: len(order)]):
        raise ValueError(f"order {list(order)} must be a permutation of 1..{len(order)}")
    _check_permutation(instance, sequence)
    return _local_search(instance, sequence, order)[0]


def gvns(instance: Instance, params: SearchParams = SearchParams()) -> RunResult:
    """General variable neighborhood search from an EDD start.

    One iteration shakes the incumbent in the cycling neighborhood k,
    applies VND in a freshly drawn random neighborhood order, and accepts
    the result only when strictly better.  The shaking neighborhood
    advances every iteration.  After more than ``gamma`` iterations without
    improvement (while the non-improvement stop is still out of reach) the
    incumbent is replaced by a three-opt perturbation of itself; the best
    sequence ever seen is tracked separately so the perturbation never
    loses it.
    """
    rng_shake = Random(derive_seed(params.seed, "shake"))
    rng_order = Random(derive_seed(params.seed, "order"))
    rng_perturb = Random(derive_seed(params.seed, "perturb"))

    cur = edd_sequence(instance)
    cur_val = total_tardiness(instance, cur)
    best, best_val = list(cur), cur_val
    proven = 0  # the neighborhoods cur is known to be a local optimum of
    iter2 = iter3 = 0
    perturbations = 0
    k = 1
    trace = []
    while True:
        order = list(NEIGHBORHOOD_IDS)
        rng_order.shuffle(order)
        cand, cand_val, proven = _local_search(instance, shake(cur, k, rng_shake), order, cur, proven)
        if cand_val < cur_val:
            cur, cur_val, proven = cand, cand_val, 0
            iter2 = 0
            iter3 = 0
            if cur_val < best_val:
                best, best_val = list(cur), cur_val
        else:
            iter2 += 1
            iter3 += 1
        trace.append(best_val)
        if iter3 > params.gamma and iter2 < params.iter_nip:
            if instance.n >= 4:
                cur = perturb_three_opt(cur, rng_perturb)
                cur_val = total_tardiness(instance, cur)
                proven = 0
            # below 4 jobs the perturbation is the identity; the counter
            # still resets so the trigger is not re-armed every iteration
            iter3 = 0
            perturbations += 1
        k = k % len(NEIGHBORHOOD_IDS) + 1
        if len(trace) > params.iter_max or iter2 > params.iter_nip:
            break
    return RunResult(
        best_sequence=tuple(best),
        best_value=best_val,
        iterations=len(trace),
        perturbations=perturbations,
        seed=params.seed,
        trace=tuple(trace),
    )


def vns(instance: Instance, params: SearchParams = SearchParams()) -> RunResult:
    """Plain variable neighborhood search baseline.

    The local search applies only the shaking neighborhood's descent; on
    improvement the neighborhood is kept, otherwise the index advances.
    No perturbation phase, same stopping rule as ``gvns``.
    """
    rng_shake = Random(derive_seed(params.seed, "shake"))

    cur = edd_sequence(instance)
    cur_val = total_tardiness(instance, cur)
    proven = 0
    iter2 = 0
    k = 1
    trace = []
    while True:
        cand, cand_val, proven = _local_search(instance, shake(cur, k, rng_shake), (k,), cur, proven)
        if cand_val < cur_val:
            cur, cur_val, proven = cand, cand_val, 0
            iter2 = 0
        else:
            k = k % len(NEIGHBORHOOD_IDS) + 1
            iter2 += 1
        trace.append(cur_val)
        if len(trace) > params.iter_max or iter2 > params.iter_nip:
            break
    return RunResult(
        best_sequence=tuple(cur),
        best_value=cur_val,
        iterations=len(trace),
        perturbations=0,
        seed=params.seed,
        trace=tuple(trace),
    )
