"""Random benchmark-instance generation.

Basic processing times are uniform integers in 1..100.  Deteriorating dates
come from one of three intervals over A = sum(a_j): class 1 is (0, A/2],
class 2 is [A/2, A], class 3 is (0, A].  Penalties are uniform integers in
(0, 100*tau].  Due dates come from (0, Cmax/2] (class 1) or (0, Cmax]
(class 2), where Cmax is the makespan of the schedule that orders jobs by
non-decreasing a_j/b_j ratio.  Intervals are read over the integers, open
ends excluded, so (0, x] means 1..floor(x).

A generated instance is a pure function of its spec: draws happen in the
fixed order a, h, b, d with one stream seeded by the spec seed, and suite
cells derive per-cell seeds from the master seed (see ``seeding``).
Instance names encode the group and size as S_<h-class><d-class>_n<n>_s<seed>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite
from random import Random
from typing import Iterable, Sequence

from .core import Instance, Job, _require_ints
from .seeding import derive_seed

H_CLASSES = (1, 2, 3)
D_CLASSES = (1, 2)
GROUPS = tuple((hc, dc) for hc in H_CLASSES for dc in D_CLASSES)
SMALL_SIZES = (8, 10, 15, 20, 25)
LARGE_SIZES = (50, 60, 70, 80, 90, 100)


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one random instance."""

    n: int
    h_class: int
    d_class: int
    tau: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, ("n", "h_class", "d_class", "seed"))
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float)):
            raise ValueError(f"tau must be a number (got {self.tau!r})")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.h_class not in H_CLASSES:
            raise ValueError(f"h_class must be one of {H_CLASSES}")
        if self.d_class not in D_CLASSES:
            raise ValueError(f"d_class must be one of {D_CLASSES}")
        if not isfinite(100 * self.tau):
            raise ValueError(f"tau must be finite, and so must 100*tau (got {self.tau})")
        if int(100 * self.tau) < 1:
            raise ValueError("tau too small: the penalty interval (0, 100*tau] is empty")


def reference_makespan(jobs: Iterable[Job]) -> int:
    """Makespan when jobs run in non-decreasing a/b ratio order (ties by id).

    Deterioration applies along the way, so the result is at least sum(a).
    Jobs with b = 0 sort last (their ratio is treated as infinite).
    """
    def ratio(job: Job):
        return (Fraction(job.a, job.b) if job.b else inf, job.id)

    c = 0
    for job in sorted(jobs, key=ratio):
        c += job.a if c <= job.h else job.a + job.b
    return c


def _interval(lo: int, hi: int, what: str) -> tuple[int, int]:
    if hi < lo:
        raise ValueError(f"degenerate {what} interval: [{lo}, {hi}] is empty")
    return lo, hi


def generate_instance(spec: GenSpec) -> Instance:
    """Draw one instance according to the spec; same spec, same instance."""
    rng = Random(spec.seed)
    n = spec.n
    a = [rng.randint(1, 100) for _ in range(n)]
    total_a = sum(a)
    if spec.h_class == 1:
        h_lo, h_hi = _interval(1, total_a // 2, "deteriorating-date")
    elif spec.h_class == 2:
        h_lo, h_hi = _interval((total_a + 1) // 2, total_a, "deteriorating-date")
    else:
        h_lo, h_hi = _interval(1, total_a, "deteriorating-date")
    h = [rng.randint(h_lo, h_hi) for _ in range(n)]
    b_hi = int(100 * spec.tau)
    b = [rng.randint(1, b_hi) for _ in range(n)]
    cmax = reference_makespan(
        Job(id=i + 1, a=a[i], b=b[i], d=0, h=h[i]) for i in range(n)
    )
    d_hi = cmax // 2 if spec.d_class == 1 else cmax
    d_lo, d_hi = _interval(1, d_hi, "due-date")
    d = [rng.randint(d_lo, d_hi) for _ in range(n)]
    jobs = tuple(
        Job(id=i + 1, a=a[i], b=b[i], d=d[i], h=h[i]) for i in range(n)
    )
    name = f"S_{spec.h_class}{spec.d_class}_n{n}_s{spec.seed}"
    return Instance(jobs=jobs, name=name, seed=spec.seed)


def generate_suite(sizes: Sequence[int], seed: int) -> list[Instance]:
    """One instance per (group, size) cell, group-major order.

    Every cell takes the default tau = 0.5.  Cell seeds derive from the
    master seed so the suite is reproducible and the cells are independent.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    instances = []
    for h_class, d_class in GROUPS:
        for n in sizes:
            cell_seed = derive_seed(seed, "cell", h_class, d_class, n)
            spec = GenSpec(n=n, h_class=h_class, d_class=d_class, seed=cell_seed)
            instances.append(generate_instance(spec))
    return instances
