import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steptardy import (
    WeightTriple,
    brute_force,
    greedy_construct,
    pairwise_swap_pass,
    swsp,
    total_tardiness,
    weight_grid,
)
from steptardy.swsp import weighted_search

from conftest import instances, make_instance


class TestWeightGrid:
    def test_first_triple(self):
        grid = weight_grid(8)
        assert grid[0].w1 == pytest.approx(0.2)
        assert grid[0].w2 == pytest.approx(0.1)
        assert grid[0].w3 == pytest.approx(0.7)

    def test_fallback_when_weights_saturate(self):
        grid = weight_grid(8)
        last = grid[-1]  # l1 = l2 = 8
        assert last.w1 == pytest.approx(0.9)
        assert last.w2 == pytest.approx(0.7)
        assert last.w3 == pytest.approx(0.1)

    def test_two_jobs_yields_endpoint_product(self):
        grid = weight_grid(2)
        flat = [w for t in grid for w in (t.w1, t.w2)]
        assert flat == pytest.approx([0.2, 0.1, 0.2, 0.7, 0.9, 0.1, 0.9, 0.7])

    def test_size_and_order(self):
        grid = weight_grid(5)
        assert len(grid) == 25
        w1_values = [t.w1 for t in grid]
        assert w1_values == sorted(w1_values)  # l1-major sweep

    def test_single_job_is_the_first_triple(self):
        assert weight_grid(1) == [weight_grid(8)[0]]

    @given(st.integers(1, 12))
    def test_third_weight_always_positive(self, n):
        assert all(t.w3 > 0 for t in weight_grid(n))


class TestGreedyConstruct:
    def test_reference_first_triple(self, demo8):
        seq = greedy_construct(demo8, WeightTriple(0.2, 0.1, 0.7))
        assert seq == [2, 8, 3, 4, 6, 5, 1, 7]
        assert total_tardiness(demo8, seq) == 1291

    def test_single_job(self):
        instance = make_instance([(5, 1, 9, 2)])
        assert greedy_construct(instance, WeightTriple(0.5, 0.3, 0.2)) == [1]

    def test_due_date_only_ordering(self):
        # equal a, no penalties, huge h: only d varies, so the scan sorts by d
        instance = make_instance([(4, 0, 1, 999), (4, 0, 2, 999), (4, 0, 3, 999)])
        assert greedy_construct(instance, WeightTriple(0.6, 0.2, 0.2)) == [1, 2, 3]

    @given(instances(min_n=1, max_n=8))
    def test_always_a_permutation(self, instance):
        seq = greedy_construct(instance, WeightTriple(0.4, 0.3, 0.3))
        assert sorted(seq) == list(range(1, instance.n + 1))


class TestPairwiseSwapPass:
    def test_reference_improvement(self, demo8):
        out = pairwise_swap_pass(demo8, [2, 3, 1, 5, 8, 4, 7, 6])
        assert total_tardiness(demo8, out) == 575
        assert out == [3, 2, 4, 1, 5, 7, 8, 6]

    def test_all_slack_unchanged(self):
        instance = make_instance([(3, 1, 10_000, 5)] * 4)
        assert pairwise_swap_pass(instance, [4, 2, 1, 3]) == [4, 2, 1, 3]

    def test_two_jobs(self):
        instance = make_instance([(3, 0, 3, 10), (1, 0, 1, 10)])
        assert pairwise_swap_pass(instance, [1, 2]) == [2, 1]

    @given(instances(min_n=2, max_n=8), st.randoms(use_true_random=False))
    def test_never_worse_and_stays_permutation(self, instance, rnd):
        seq = list(range(1, instance.n + 1))
        rnd.shuffle(seq)
        out = pairwise_swap_pass(instance, seq)
        assert sorted(out) == sorted(seq)
        assert total_tardiness(instance, out) <= total_tardiness(instance, seq)


class TestSwsp:
    def test_reference_weighted_stage(self, demo8):
        # the full grid contains (0.2, 0.7, 0.1), whose construction at 598
        # undercuts the 696 sequence produced by neighbouring triples
        seq, value, trace = weighted_search(demo8)
        assert value == 598
        assert seq == [2, 3, 4, 1, 5, 8, 7, 6]
        assert trace[0] == 1291
        assert trace[-1] == 598
        assert trace == sorted(trace, reverse=True)

    def test_reference_final_result(self, demo8):
        run = swsp(demo8)
        assert 572 <= run.best_value <= 696
        assert run.best_value == 572  # the swap pass lands on the optimum here
        assert run.iterations == 64
        assert run.seed is None

    def test_deterministic(self, demo8):
        first, second = swsp(demo8), swsp(demo8)
        assert first == second

    def test_all_slack_instance_reaches_zero(self):
        instance = make_instance([(3, 2, 10_000, 0)] * 4)
        assert swsp(instance).best_value == 0

    @settings(max_examples=15, deadline=None)
    @given(instances(min_n=1, max_n=7))
    def test_final_never_above_weighted_stage_nor_below_optimum(self, instance):
        _, stage_value, _ = weighted_search(instance)
        run = swsp(instance)
        assert run.best_value <= stage_value
        assert run.best_value >= brute_force(instance).best_value
