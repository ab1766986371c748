import dataclasses
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steptardy import (
    NEIGHBORHOOD_IDS,
    Instance,
    Job,
    brute_force,
    check_dominance,
    descend,
    evaluate_schedule,
    instance_from_json,
    instance_to_json,
    pairwise_swap_pass,
    total_tardiness,
    vnd,
)

from conftest import instances, instances_with_sequence, make_instance


class TestEvaluateSchedule:
    def test_reference_sequence_575(self, demo8):
        result = evaluate_schedule(demo8, [3, 2, 4, 1, 5, 7, 8, 6])
        assert result.total == 575
        assert result.tardiness == (0, 3, 0, 56, 64, 87, 317, 48)

    def test_reference_sequence_1291(self, demo8):
        assert evaluate_schedule(demo8, [2, 8, 3, 4, 6, 5, 1, 7]).total == 1291

    def test_reference_sequence_696(self, demo8):
        assert evaluate_schedule(demo8, [2, 3, 1, 5, 8, 4, 7, 6]).total == 696

    def test_single_job_on_time(self):
        instance = make_instance([(5, 3, 100, 0)])
        assert evaluate_schedule(instance, [1]).total == 0

    @pytest.mark.parametrize(
        "bad", [[1, 1, 3, 4, 5, 6, 7, 8], [1, 2, 3], [0, 2, 3, 4, 5, 6, 7, 8], []]
    )
    def test_rejects_non_permutations(self, demo8, bad):
        with pytest.raises(ValueError):
            evaluate_schedule(demo8, bad)

    @pytest.mark.parametrize(
        "bad", [[8.0, 7, 6, 5, 4, 3, 2, 1], [True, 2, 3, 4, 5, 6, 7, 8]], ids=["float", "bool"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            evaluate_schedule,
            lambda instance, seq: descend(instance, seq, 1),
            lambda instance, seq: vnd(instance, seq, NEIGHBORHOOD_IDS),
            pairwise_swap_pass,
        ],
        ids=["evaluate_schedule", "descend", "vnd", "pairwise_swap_pass"],
    )
    def test_rejects_ids_that_are_not_ints(self, demo8, bad, call):
        # 8.0 and True compare and hash equal to 8 and 1, so they pass a set
        # test; they must be refused like any other broken sequence
        with pytest.raises(ValueError, match="is not a permutation"):
            call(demo8, bad)

    @given(instances_with_sequence())
    def test_no_idle_chain(self, case):
        instance, seq = case
        result = evaluate_schedule(instance, seq)
        assert result.starts[0] == 0
        for k in range(1, instance.n):
            assert result.starts[k] == result.completions[k - 1]
        assert sum(result.processing) == result.completions[-1]

    @given(instances_with_sequence())
    def test_tardiness_bound(self, case):
        instance, seq = case
        total = evaluate_schedule(instance, seq).total
        assert 0 <= total <= instance.n * sum(j.a + j.b for j in instance.jobs)

    @given(instances_with_sequence())
    def test_fast_total_matches_full_evaluation(self, case):
        instance, seq = case
        assert total_tardiness(instance, seq) == evaluate_schedule(instance, seq).total

    @given(instances_with_sequence(max_n=6), st.randoms(use_true_random=False))
    def test_relabelling_invariance(self, case, rnd):
        instance, seq = case
        relabel = list(range(1, instance.n + 1))
        rnd.shuffle(relabel)
        mapping = dict(zip(range(1, instance.n + 1), relabel))
        renamed = Instance(
            jobs=tuple(
                Job(id=mapping[j.id], a=j.a, b=j.b, d=j.d, h=j.h)
                for j in instance.jobs
            )
        )
        assert total_tardiness(renamed, [mapping[j] for j in seq]) == total_tardiness(
            instance, seq
        )


def invalid(jobs, **fields):
    """The one message of the ValueError that building this instance raises."""
    with pytest.raises(ValueError) as exc:
        Instance(jobs=jobs, **fields)
    message = str(exc.value)
    assert message.startswith("invalid instance: ")
    return message.removeprefix("invalid instance: ").split("; ")


class TestValidateInstance:
    """Construction checks every invariant and names each violation."""

    def test_reference_instance_valid(self, demo8):
        assert Instance(jobs=demo8.jobs, name="demo8") == demo8

    def test_duplicate_id(self):
        jobs = (Job(id=3, a=1, b=0, d=0, h=0), Job(id=3, a=2, b=0, d=0, h=0))
        assert invalid(jobs) == [
            "job 3: duplicate id", "missing job ids: [1, 2]", "job ids out of range 1..2: [3]"
        ]

    def test_zero_basic_time(self):
        assert invalid((Job(id=1, a=0, b=0, d=0, h=0),)) == ["job 1: a must be >= 1 (got 0)"]

    def test_negative_fields(self):
        assert invalid((Job(id=1, a=1, b=-1, d=-2, h=-3),)) == [
            "job 1: b must be >= 0 (got -1)",
            "job 1: d must be >= 0 (got -2)",
            "job 1: h must be >= 0 (got -3)",
        ]

    def test_missing_ids(self):
        assert invalid((Job(id=2, a=1, b=0, d=0, h=0),)) == [
            "missing job ids: [1]", "job ids out of range 1..1: [2]"
        ]

    @pytest.mark.parametrize(
        "jobs, fields, messages",
        [
            ((Job(id=1, a=2.5, b=0, d=0, h=0),), {}, ["job 1: a must be an integer (got 2.5)"]),
            ((Job(id=1, a=1, b=True, d=0, h=0),), {}, ["job 1: b must be an integer (got True)"]),
            ((Job(id="1", a=1, b=0, d=0, h=0),), {},
             ["job '1': id must be an integer (got '1')", "missing job ids: [1]"]),
            ((), {}, ["instance must contain at least one job"]),
            ((Job(id=1, a=1, b=0, d=0, h=0),), {"name": 5}, ["name must be a string (got 5)"]),
            ((Job(id=1, a=1, b=0, d=0, h=0),), {"seed": "x"},
             ["seed must be an int or null (got 'x')"]),
            ((Job(id=1, a=1, b=0, d=0, h=0),), {"seed": True},
             ["seed must be an int or null (got True)"]),
        ],
        ids=["float-a", "bool-b", "string-id", "empty", "int-name", "string-seed", "bool-seed"],
    )
    def test_type_violations(self, jobs, fields, messages):
        assert invalid(jobs, **fields) == messages

    def test_invalid_json_payload_refused(self, demo8):
        text = instance_to_json(demo8).replace('"b": 41', '"b": -41')
        with pytest.raises(ValueError, match="job 3: b must be >= 0"):
            instance_from_json(text)

    def test_replace_revalidates(self, demo8):
        with pytest.raises(ValueError, match="name must be a string"):
            dataclasses.replace(demo8, name=5)


class TestCheckDominance:
    def test_two_job_violation(self):
        instance = make_instance([(1, 0, 1, 100), (2, 0, 2, 100)])
        schedule = evaluate_schedule(instance, [2, 1])
        assert check_dominance(instance, schedule) == [(2, 1)]

    def test_single_job_empty(self):
        instance = make_instance([(5, 1, 10, 3)])
        assert check_dominance(instance, evaluate_schedule(instance, [1])) == []

    def test_tied_pair_not_flagged(self):
        instance = make_instance([(4, 0, 9, 100), (4, 0, 9, 100)])
        schedule = evaluate_schedule(instance, [2, 1])
        assert check_dominance(instance, schedule) == []

    def test_mixed_regimes_not_compared(self):
        # first job deteriorated is impossible, so force the later one only
        instance = make_instance([(5, 9, 50, 100), (6, 9, 60, 2)])
        schedule = evaluate_schedule(instance, [1, 2])
        # job 2 starts at 5 > h=2: deteriorated; job 1 is not; no pair to flag
        assert schedule.processing == (5, 15)
        assert check_dominance(instance, schedule) == []

    def test_reference_instance_optimum_is_consistent(self, demo8):
        best = brute_force(demo8)
        schedule = evaluate_schedule(demo8, best.best_sequence)
        assert check_dominance(demo8, schedule) == []

    def test_preference_existence_can_fail_under_forced_deterioration(self):
        """The pairwise preference is not a law: making the preferred job go
        first can push the other past its deteriorating date and cost more.

        Here [2, 1] is the unique optimum yet flags (2, 1), because the
        "preferred" order [1, 2] starts job 2 at 10 > h=9 and its penalty
        dwarfs everything else.
        """
        instance = make_instance([(10, 0, 100, 100), (11, 1000, 100, 9)])
        best = brute_force(instance)
        assert best.best_sequence == (2, 1)
        assert best.optimal_set_size == 1
        schedule = evaluate_schedule(instance, [2, 1])
        assert check_dominance(instance, schedule) == [(2, 1)]


class TestInstanceJson:
    def test_round_trip(self, demo8):
        assert instance_from_json(instance_to_json(demo8)) == demo8

    def test_jobs_sorted_by_id(self):
        instance = Instance(
            jobs=(Job(id=2, a=1, b=0, d=0, h=0), Job(id=1, a=2, b=1, d=3, h=4))
        )
        text = instance_to_json(instance)
        assert text.index('"id": 1') < text.index('"id": 2')

    def test_golden_file(self, demo8, demo8_path):
        assert instance_to_json(demo8) == demo8_path.read_text(encoding="utf-8")


class TestInstanceColumns:
    def test_cached_columns_leave_identity_alone(self, demo8):
        fresh = instance_from_json(instance_to_json(demo8))
        before = (repr(fresh), hash(fresh), instance_to_json(fresh))
        assert fresh._columns[0][1] == 49 and fresh._int64_rows is not None
        assert (repr(fresh), hash(fresh), instance_to_json(fresh)) == before
        assert fresh == demo8 and hash(fresh) == hash(demo8)

    def test_columns_computed_once(self, demo8):
        assert demo8._columns is demo8._columns
        assert demo8._int64_rows is demo8._int64_rows

    def test_pickle_round_trip_with_cached_columns(self, demo8):
        demo8._int64_rows
        clone = pickle.loads(pickle.dumps(demo8))
        assert clone == demo8 and clone._columns == demo8._columns

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError, match="missing job ids: \\[2\\]"):
            Instance(jobs=(Job(id=1, a=1, b=0, d=0, h=0), Job(id=3, a=1, b=0, d=0, h=0)))


@settings(max_examples=30)
@given(instances(min_n=2, max_n=5))
def test_dominance_pairs_point_backwards(instance):
    """Every reported pair is (earlier, later) in the evaluated order."""
    rng = random.Random(7)
    seq = list(range(1, instance.n + 1))
    rng.shuffle(seq)
    schedule = evaluate_schedule(instance, seq)
    position = {j: seq.index(j) for j in seq}
    for earlier, later in check_dominance(instance, schedule):
        assert position[earlier] < position[later]


def test_dominance_existence_rate_is_high_but_not_universal():
    """Most small instances admit a preference-consistent optimum; all-early
    instances trivially do (see the forced-deterioration counterexample for
    why 'all' would be wrong)."""
    rng = random.Random(5)
    consistent = 0
    trials = 25
    for _ in range(trials):
        n = rng.randint(2, 6)
        instance = make_instance(
            [
                (rng.randint(1, 20), rng.randint(0, 10), rng.randint(0, 90), rng.randint(0, 50))
                for _ in range(n)
            ]
        )
        best = brute_force(instance)
        for perm in permutations(range(1, n + 1)):
            if total_tardiness(instance, perm) == best.best_value:
                if not check_dominance(instance, evaluate_schedule(instance, perm)):
                    consistent += 1
                    break
    assert consistent >= trials * 0.8
