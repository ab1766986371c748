import random
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from steptardy import Instance, Job

settings.register_profile("default", deadline=None)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"

# 8-job reference instance used across the suite; columns are (a, d, h, b)
DEMO8_ROWS = {
    1: (49, 113, 271, 33),
    2: (44, 86, 255, 19),
    3: (45, 114, 91, 41),
    4: (31, 218, 131, 27),
    5: (51, 156, 205, 18),
    6: (52, 461, 101, 47),
    7: (82, 215, 367, 44),
    8: (80, 93, 85, 28),
}


def make_instance(rows, name="", seed=None):
    """Build an instance from (a, b, d, h) tuples, ids assigned 1..n."""
    jobs = tuple(
        Job(id=i, a=a, b=b, d=d, h=h) for i, (a, b, d, h) in enumerate(rows, start=1)
    )
    return Instance(jobs=jobs, name=name, seed=seed)


def near_bound_instance(rng: random.Random, n: int, big: int):
    """n random jobs with a and b up to big and d and h up to 4 * big.  The
    tests pick n and big so that n * span is about 2^60, inside the int64
    bound of Instance._int64_rows (2^62) but near it."""
    return make_instance(
        [(rng.randint(1, big), rng.randint(0, big), rng.randint(0, 4 * big), rng.randint(0, 4 * big))
         for _ in range(n)]
    )


def early_entry_instance():
    """12 jobs where a descent from 1..12 enters stretches early by up to
    about 2^55 and the kernel's early-side term D * count reaches about
    2^61.6, with n * span about 2^61.9: job 1 is long, jobs 2..11 each
    start just after their h in 1..12, so an entry one earlier sheds every
    b = 2^55 after it, and every job is late (d = 0)."""
    a, b = 2**10, 2**55
    return make_instance(
        [(a, 0, 0, 0)] + [(1, b, 0, a + q * (1 + b) - 1) for q in range(10)] + [(1, 0, 0, 0)]
    )


def random_instance(rng: random.Random, n: int, max_a=30, max_b=15, max_d=150, max_h=80):
    return make_instance(
        [
            (rng.randint(1, max_a), rng.randint(0, max_b), rng.randint(0, max_d), rng.randint(0, max_h))
            for _ in range(n)
        ]
    )


@pytest.fixture(scope="session")
def demo8() -> Instance:
    jobs = tuple(
        Job(id=i, a=a, b=b, d=d, h=h) for i, (a, d, h, b) in DEMO8_ROWS.items()
    )
    return Instance(jobs=jobs, name="demo8")


@pytest.fixture(scope="session")
def demo8_path() -> Path:
    return DATA_DIR / "demo8.json"


@st.composite
def instances(draw, min_n=1, max_n=8, max_a=30, max_b=15, max_d=150, max_h=80):
    n = draw(st.integers(min_n, max_n))
    jobs = tuple(
        Job(
            id=i,
            a=draw(st.integers(1, max_a)),
            b=draw(st.integers(0, max_b)),
            d=draw(st.integers(0, max_d)),
            h=draw(st.integers(0, max_h)),
        )
        for i in range(1, n + 1)
    )
    return Instance(jobs=jobs)


@st.composite
def instances_with_sequence(draw, min_n=1, max_n=8, **kwargs):
    instance = draw(instances(min_n=min_n, max_n=max_n, **kwargs))
    sequence = draw(st.permutations(list(range(1, instance.n + 1))))
    return instance, list(sequence)


@st.composite
def tied_cases(draw, max_n=9):
    """Small instances full of ties, with a sequence: jobs that start
    exactly at their h in that sequence, shared due dates and b = 0."""
    n = draw(st.integers(1, max_n))
    a = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    seq = draw(st.permutations(list(range(1, n + 1))))
    starts = list(accumulate([0] + [a[x - 1] for x in seq[:-1]]))
    due = draw(st.integers(0, 4 * n))
    jobs = tuple(
        Job(
            id=i,
            a=a[i - 1],
            b=draw(st.sampled_from([0, 0, 1, 3])),
            d=draw(st.one_of(st.just(due), st.integers(0, 4 * n))),
            h=draw(st.one_of(st.sampled_from(starts), st.integers(0, 4 * n))),
        )
        for i in range(1, n + 1)
    )
    return Instance(jobs=jobs), list(seq)
