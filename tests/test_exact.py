import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings

from steptardy import (
    branch_and_bound,
    brute_force,
    build_model,
    edd_sequence,
    generate_suite,
    gvns,
    prefix_lower_bound,
    swsp,
    total_tardiness,
    vns,
    SearchParams,
)
from steptardy import exact, neighborhoods
from steptardy.exact import BRANCH_AND_BOUND_CAP

from conftest import instances, make_instance, random_instance, tied_cases
from test_milp import solve_with_highs


class TestBruteForce:
    def test_reference_optimum(self, demo8):
        result = brute_force(demo8)
        assert result.best_value == 572
        assert result.optimal_set_size == 1
        assert total_tardiness(demo8, result.best_sequence) == 572

    def test_single_job(self):
        late = make_instance([(7, 2, 3, 0)])
        result = brute_force(late)
        assert result.best_value == 4  # max(0, a - d)
        assert result.best_sequence == (1,)

    def test_two_jobs_hand_checked(self):
        instance = make_instance([(3, 0, 3, 10), (1, 0, 1, 10)])
        result = brute_force(instance)
        assert result.best_value == 1
        assert result.best_sequence == (2, 1)

    def test_cap_refused(self, monkeypatch):
        with pytest.raises(ValueError, match="cap"):
            brute_force(make_instance([(1, 0, 0, 0)] * 11))
        monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 4)
        four = make_instance([(1, 0, 0, 0)] * 4)
        assert brute_force(four).best_value == 1 + 2 + 3 + 4
        with pytest.raises(ValueError, match="cap"):
            brute_force(make_instance([(1, 0, 0, 0)] * 5))

    def test_lexicographic_tie_break_and_count(self):
        # two identical jobs: both orders optimal, smallest sequence wins
        instance = make_instance([(2, 0, 50, 9), (2, 0, 50, 9)])
        result = brute_force(instance)
        assert result.best_value == 0
        assert result.best_sequence == (1, 2)
        assert result.optimal_set_size == 2

    @settings(max_examples=25, deadline=None)
    @given(instances(min_n=1, max_n=5))
    def test_matches_naive_enumeration(self, instance):
        result = brute_force(instance)
        totals = {
            perm: total_tardiness(instance, perm)
            for perm in permutations(range(1, instance.n + 1))
        }
        best = min(totals.values())
        assert result.best_value == best
        assert result.optimal_set_size == sum(1 for t in totals.values() if t == best)
        assert result.best_sequence == min(p for p, t in totals.items() if t == best)


class TestPrefixLowerBound:
    def test_empty_prefix(self, demo8):
        assert prefix_lower_bound(demo8, []) == 0

    def test_full_sequence_is_tight(self, demo8):
        seq = [3, 2, 4, 1, 5, 7, 8, 6]
        assert prefix_lower_bound(demo8, seq) == total_tardiness(demo8, seq)

    def test_reference_prefix(self, demo8):
        assert prefix_lower_bound(demo8, [2, 8]) == 31

    def test_duplicate_prefix_rejected(self, demo8):
        with pytest.raises(ValueError):
            prefix_lower_bound(demo8, [2, 2])

    def test_bound_valid_for_random_completions(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(2, 9)
            instance = random_instance(rng, n)
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            cut = rng.randint(0, n)
            prefix, rest = ids[:cut], ids[cut:]
            rng.shuffle(rest)
            bound = prefix_lower_bound(instance, prefix)
            assert bound <= total_tardiness(instance, prefix + rest)


class TestBranchAndBound:
    def test_reference_value_and_pruning(self, demo8):
        result = brute_force(demo8)
        bb = branch_and_bound(demo8)
        assert bb.best_value == result.best_value == 572
        assert bb.proven
        assert bb.nodes_explored < 40320

    def test_single_job_one_node(self):
        instance = make_instance([(5, 3, 100, 0)])
        assert branch_and_bound(instance).nodes_explored == 1

    def test_oracle_equivalence_thirty_random_nine_job_instances(self):
        rng = random.Random(909)
        for _ in range(30):
            instance = random_instance(rng, 9)
            bf = brute_force(instance)
            bb = branch_and_bound(instance)
            assert bb.proven
            assert bb.best_value == bf.best_value
            assert total_tardiness(instance, bb.best_sequence) == bb.best_value

    @settings(max_examples=300, deadline=None)
    @given(tied_cases(max_n=7))
    def test_matches_brute_force_with_ties(self, case):
        # ties, b = 0 and jobs starting exactly at their h are where a
        # dominance rule that is too strong would drop the only optimum
        instance, _ = case
        bb = branch_and_bound(instance)
        assert bb.best_value == brute_force(instance).best_value
        assert sorted(bb.best_sequence) == list(range(1, instance.n + 1))
        assert total_tardiness(instance, bb.best_sequence) == bb.best_value

    @pytest.mark.parametrize("n, group", [(6, 0), (6, 5), (7, 3), (7, 5), (8, 3)])
    def test_matches_highs_milp_optimum(self, n, group):
        instance = generate_suite([n], 0)[group]
        assert branch_and_bound(instance).best_value == solve_with_highs(build_model(instance))

    def test_size_cap(self, monkeypatch):
        # identical jobs: every order is optimal and every subset's front
        # holds one label, so the kernel solves n = cap in well under a second
        cap = BRANCH_AND_BOUND_CAP
        tied = make_instance([(3, 2, 20, 10)] * cap)
        over = make_instance([(3, 2, 20, 10)] * (cap + 1))
        if neighborhoods._kernel is not None:
            # the cap is the kernel's DP_MAX_JOBS: with a smaller kernel
            # limit the kernel would raise its own message here, and with a
            # larger one it would not refuse cap + 1 itself
            result = branch_and_bound(tied)
            assert sorted(result.best_sequence) == list(range(1, cap + 1))
            assert result.best_value == total_tardiness(tied, result.best_sequence) > 0
            with pytest.raises(ValueError, match=re.escape(f"at most {cap} jobs ({cap + 1} given)")):
                neighborhoods._kernel.branch_and_bound(over._int64_rows)

        # one cap and one message on both paths, checked before either runs
        def no_work(instance):
            raise AssertionError("the Python DP ran past the cap")

        monkeypatch.setattr(exact, "_branch_and_bound_python", no_work)
        refused = re.escape(f"branch and bound refused: n={cap + 1} exceeds cap {cap}")
        with pytest.raises(ValueError, match=refused):
            branch_and_bound(over)
        monkeypatch.setattr(neighborhoods, "_kernel", None)
        with pytest.raises(ValueError, match=refused):
            branch_and_bound(over)

    @pytest.mark.parametrize(
        "rows",
        [
            [(3, -2, 4, 0), (1, 0, 1, 0)],  # with b < 0 the Pareto pruning is unsound
            [(0, 1, 4, 0), (1, 0, 1, 0)],
            [(2.5, 1, 4, 0), (1, 0, 1, 0)],
        ],
        ids=["negative-b", "zero-a", "float-a"],
    )
    def test_invalid_instance_refused(self, rows):
        # no invalid instance can be built, so none reaches the DP
        with pytest.raises(ValueError, match="invalid instance"):
            make_instance(rows)


def test_heuristics_never_beat_the_oracle():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(4, 8)
        instance = random_instance(rng, n)
        optimum = brute_force(instance).best_value
        params = SearchParams(iter_max=60, iter_nip=40, seed=3)
        assert swsp(instance).best_value >= optimum
        assert gvns(instance, params).best_value >= optimum
        assert vns(instance, params).best_value >= optimum
        assert total_tardiness(instance, edd_sequence(instance)) >= optimum
