import pytest
from hypothesis import given
from hypothesis import strategies as st

from steptardy import (
    GenSpec,
    Job,
    generate_instance,
    generate_suite,
    reference_makespan,
)
from steptardy.generator import GROUPS, LARGE_SIZES, SMALL_SIZES


class TestGenSpec:
    def test_valid(self):
        GenSpec(n=10, h_class=1, d_class=2, seed=7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "h_class": 1, "d_class": 1},
            {"n": 5, "h_class": 4, "d_class": 1},
            {"n": 5, "h_class": 1, "d_class": 3},
            {"n": 5, "h_class": 1, "d_class": 1, "tau": 0.001},
            # a bool or a non-int would be drawn and named as something else
            {"n": 3, "h_class": True, "d_class": 1},
            {"n": True, "h_class": 1, "d_class": 1},
            {"n": 5, "h_class": 1, "d_class": True},
            {"n": 5, "h_class": 1, "d_class": 1, "seed": False},
            {"n": 2.5, "h_class": 1, "d_class": 1},
            {"n": 5, "h_class": 1.0, "d_class": 1},
            {"n": 5, "h_class": 1, "d_class": 1, "seed": 1.5},
            {"n": 5, "h_class": 1, "d_class": 1, "tau": "x"},
            {"n": 5, "h_class": 1, "d_class": 1, "tau": True},
            # 100 * tau overflows to inf
            {"n": 5, "h_class": 1, "d_class": 1, "tau": 1e308},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenSpec(**kwargs)


class TestReferenceMakespan:
    def test_single_job_started_on_time(self):
        assert reference_makespan([Job(id=1, a=5, b=1, d=0, h=0)]) == 5

    def test_two_jobs_with_late_second(self):
        jobs = [Job(id=1, a=2, b=1, d=0, h=0), Job(id=2, a=4, b=1, d=0, h=0)]
        # ratio order [1, 2]; job 2 starts at 2 > h=0 and pays its penalty
        assert reference_makespan(jobs) == 7

    def test_ratio_sorting_not_id_sorting(self):
        jobs = [Job(id=1, a=9, b=1, d=0, h=100), Job(id=2, a=1, b=9, d=0, h=100)]
        # ratios 9 and 1/9: job 2 runs first; no deterioration under large h
        assert reference_makespan(jobs) == 10

    def test_zero_penalty_jobs_sort_last(self):
        jobs = [Job(id=1, a=5, b=0, d=0, h=100), Job(id=2, a=5, b=5, d=0, h=100)]
        assert reference_makespan(jobs) == 10

    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.integers(1, 25), st.integers(0, 100)),
            min_size=1,
            max_size=12,
        )
    )
    def test_at_least_total_basic_work(self, rows):
        jobs = [
            Job(id=i, a=a, b=b, d=0, h=h) for i, (a, b, h) in enumerate(rows, start=1)
        ]
        assert reference_makespan(jobs) >= sum(a for a, _, _ in rows)


class TestGenerateInstance:
    def test_deterministic(self):
        spec = GenSpec(n=30, h_class=2, d_class=1, seed=99)
        assert generate_instance(spec) == generate_instance(spec)

    def test_name_and_seed_recorded(self):
        instance = generate_instance(GenSpec(n=12, h_class=3, d_class=2, seed=5))
        assert instance.name == "S_32_n12_s5"
        assert instance.seed == 5

    def test_instances_are_valid(self):
        for h_class, d_class in GROUPS:
            spec = GenSpec(n=40, h_class=h_class, d_class=d_class, seed=11)
            # construction raises on any broken invariant
            assert generate_instance(spec).n == 40

    @pytest.mark.parametrize("h_class", [1, 2, 3])
    def test_h_class_intervals(self, h_class):
        for seed in range(10):
            instance = generate_instance(
                GenSpec(n=50, h_class=h_class, d_class=1, seed=seed)
            )
            total_a = sum(j.a for j in instance.jobs)
            for job in instance.jobs:
                if h_class == 1:
                    assert 1 <= job.h <= total_a // 2
                elif h_class == 2:
                    assert (total_a + 1) // 2 <= job.h <= total_a
                else:
                    assert 1 <= job.h <= total_a

    @pytest.mark.parametrize("d_class", [1, 2])
    def test_d_class_intervals(self, d_class):
        for seed in range(10):
            instance = generate_instance(
                GenSpec(n=50, h_class=3, d_class=d_class, seed=seed)
            )
            cmax = reference_makespan(instance.jobs)
            bound = cmax // 2 if d_class == 1 else cmax
            for job in instance.jobs:
                assert 1 <= job.d <= bound

    def test_penalty_interval_scales_with_tau(self):
        instance = generate_instance(GenSpec(n=200, h_class=3, d_class=2, seed=3))
        assert all(1 <= j.b <= 50 for j in instance.jobs)
        wide = generate_instance(GenSpec(n=200, h_class=3, d_class=2, tau=1.0, seed=3))
        assert all(1 <= j.b <= 100 for j in wide.jobs)
        assert any(j.b > 50 for j in wide.jobs)

    def test_basic_time_sample_statistics(self):
        instance = generate_instance(GenSpec(n=10_000, h_class=3, d_class=2, seed=1))
        values = [j.a for j in instance.jobs]
        assert min(values) >= 1
        assert max(values) <= 100
        assert abs(sum(values) / len(values) - 50.5) <= 1.0

    def test_degenerate_interval_rejected(self):
        # a single job with a = 1 gives A = 1, so class 1 has no integer h
        seed = next(
            s for s in range(10_000)
            if generate_instance(GenSpec(n=1, h_class=3, d_class=2, seed=s)).jobs[0].a == 1
        )
        with pytest.raises(ValueError, match="deteriorating-date"):
            generate_instance(GenSpec(n=1, h_class=1, d_class=2, seed=seed))


class TestGenerateSuite:
    def test_small_suite_shape(self):
        suite = generate_suite(SMALL_SIZES, seed=42)
        assert len(suite) == 30
        names = [i.name for i in suite]
        assert len(set(names)) == 30
        for h_class, d_class in GROUPS:
            group = [i for i in suite if i.name.startswith(f"S_{h_class}{d_class}_")]
            assert sorted(inst.n for inst in group) == sorted(SMALL_SIZES)

    def test_large_suite_shape(self):
        assert len(generate_suite(LARGE_SIZES, seed=42)) == 36

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_suite([], seed=1)

    def test_reproducible_and_seed_sensitive(self):
        a = generate_suite([8, 10], seed=7)
        b = generate_suite([8, 10], seed=7)
        c = generate_suite([8, 10], seed=8)
        assert a == b
        assert a != c
