import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steptardy import (
    SearchParams,
    brute_force,
    edd_sequence,
    evaluate_schedule,
    gvns,
    total_tardiness,
    vnd,
    vns,
)
from steptardy import neighborhoods

from conftest import instances, make_instance, random_instance


class TestSearchParams:
    def test_defaults(self):
        params = SearchParams()
        assert (params.iter_max, params.iter_nip, params.gamma) == (500, 150, 75)

    def test_gamma_derived_from_iter_nip(self):
        assert SearchParams(iter_nip=100).gamma == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iter_max": 0},
            {"iter_nip": 0},
            {"iter_max": 10, "iter_nip": 20},
            {"iter_nip": 1},
            # not an int: a bool would seed another stream than 1
            {"seed": True},
            {"seed": 1.0},
            {"seed": "1"},
            {"iter_max": 10.5, "iter_nip": 10},
            {"iter_nip": 10.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        field = next(iter(kwargs))
        with pytest.raises(ValueError, match=field):
            SearchParams(**kwargs)


class TestEddSequence:
    def test_reference_instance(self, demo8):
        seq = edd_sequence(demo8)
        assert seq == [2, 8, 1, 3, 5, 7, 4, 6]
        assert total_tardiness(demo8, seq) == 959

    def test_ties_break_by_id(self):
        instance = make_instance([(3, 0, 9, 0), (1, 0, 9, 0), (2, 0, 9, 0)])
        assert edd_sequence(instance) == [1, 2, 3]

    def test_single_job(self):
        assert edd_sequence(make_instance([(1, 0, 0, 0)])) == [1]


class TestVnd:
    def test_applies_neighborhoods_in_given_order(self, demo8, monkeypatch):
        seen = []

        def spy(instance, seq, k):
            seen.append(k)
            return list(seq)

        # the Python path runs one descent per neighborhood; the kernel's
        # order is checked against it in test_kernel.py
        monkeypatch.setattr(neighborhoods, "_kernel", None)
        monkeypatch.setattr(neighborhoods, "_descend_python", spy)
        vnd(demo8, [1, 2, 3, 4, 5, 6, 7, 8], [3, 1, 2, 5, 4])
        assert seen == [3, 1, 2, 5, 4]

    def test_rejects_bad_order(self, demo8):
        with pytest.raises(ValueError):
            vnd(demo8, [1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 4])

    def test_fixpoint_left_unchanged(self, demo8):
        once = vnd(demo8, [2, 8, 1, 3, 5, 7, 4, 6], [1, 2, 3, 4, 5])
        again = vnd(demo8, once, [1, 2, 3, 4, 5])
        assert again == once

    def test_rerun_with_any_order_cannot_improve(self):
        rng = random.Random(2718)
        orders = []
        base = [1, 2, 3, 4, 5]
        for _ in range(8):
            order = list(base)
            rng.shuffle(order)
            orders.append(order)
        for _ in range(12):
            n = rng.randint(4, 8)
            instance = random_instance(rng, n)
            start = list(range(1, n + 1))
            rng.shuffle(start)
            first_order = list(base)
            rng.shuffle(first_order)
            out = vnd(instance, start, first_order)
            value = total_tardiness(instance, out)
            assert value <= total_tardiness(instance, start)
            for order in orders:
                assert total_tardiness(instance, vnd(instance, out, order)) == value


class TestGvns:
    def test_never_worse_than_edd(self, demo8):
        result = gvns(demo8, SearchParams(seed=0, iter_max=40, iter_nip=30))
        assert result.best_value <= total_tardiness(demo8, edd_sequence(demo8))

    def test_reference_instance_reaches_optimum_on_ten_seeds(self, demo8):
        hits = sum(
            gvns(demo8, SearchParams(seed=seed)).best_value == 572
            for seed in range(10)
        )
        assert hits >= 9

    def test_seed_determinism(self, demo8):
        params = SearchParams(seed=77, iter_max=60, iter_nip=40)
        first, second = gvns(demo8, params), gvns(demo8, params)
        assert first == second

    def test_different_seeds_draw_different_streams(self):
        # demo8 converges on the first descent for many seeds, so best-value
        # traces can legitimately coincide; the substreams must not
        from steptardy.seeding import derive_seed

        streams = set()
        for seed in range(20):
            rng = random.Random(derive_seed(seed, "shake"))
            streams.add(tuple(rng.randrange(10**6) for _ in range(8)))
        assert len(streams) == 20

    def test_trace_monotone_and_sized(self, demo8):
        result = gvns(demo8, SearchParams(seed=5, iter_max=80, iter_nip=60))
        assert len(result.trace) == result.iterations
        assert all(x >= y for x, y in zip(result.trace, result.trace[1:]))
        assert result.trace[-1] == result.best_value

    def test_budget_compliance(self, demo8):
        params = SearchParams(seed=3, iter_max=50, iter_nip=50)
        result = gvns(demo8, params)
        assert result.iterations <= params.iter_max + 1

    def test_all_slack_instance_stops_on_iter_nip(self):
        instance = make_instance([(3, 1, 10_000, 2)] * 5)
        result = gvns(instance, SearchParams(seed=0))
        assert result.best_value == 0
        assert result.iterations == 151  # iter_nip + 1 non-improving iterations
        assert result.perturbations == 1  # re-armed once, then blocked by iter_nip

    def test_incumbent_is_consistent(self, demo8):
        result = gvns(demo8, SearchParams(seed=11, iter_max=60, iter_nip=40))
        assert evaluate_schedule(demo8, result.best_sequence).total == result.best_value

    def test_tiny_instances_do_not_warn(self):
        instance = make_instance([(2, 1, 0, 1), (3, 2, 1, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gvns(instance, SearchParams(seed=0, iter_max=200, iter_nip=150))
        assert result.best_value == brute_force(instance).best_value


class TestVns:
    def test_never_worse_than_edd(self, demo8):
        result = vns(demo8, SearchParams(seed=0, iter_max=40, iter_nip=30))
        assert result.best_value <= total_tardiness(demo8, edd_sequence(demo8))

    def test_two_jobs_finds_optimum(self):
        instance = make_instance([(3, 0, 3, 10), (1, 0, 1, 10)])
        result = vns(instance, SearchParams(seed=0, iter_max=20, iter_nip=10))
        assert result.best_value == 1
        assert result.best_sequence == (2, 1)

    def test_seed_determinism(self, demo8):
        params = SearchParams(seed=13, iter_max=60, iter_nip=40)
        first, second = vns(demo8, params), vns(demo8, params)
        assert first == second

    def test_no_perturbations(self, demo8):
        assert vns(demo8, SearchParams(seed=1, iter_max=40, iter_nip=30)).perturbations == 0

    def test_trace_monotone(self, demo8):
        result = vns(demo8, SearchParams(seed=9, iter_max=60, iter_nip=40))
        assert all(x >= y for x, y in zip(result.trace, result.trace[1:]))


@settings(max_examples=10, deadline=None)
@given(instances(min_n=1, max_n=6), st.integers(0, 99))
def test_both_searches_return_valid_incumbents(instance, seed):
    params = SearchParams(seed=seed, iter_max=30, iter_nip=20)
    for solver in (gvns, vns):
        result = solver(instance, params)
        assert sorted(result.best_sequence) == list(range(1, instance.n + 1))
        assert evaluate_schedule(instance, result.best_sequence).total == result.best_value
