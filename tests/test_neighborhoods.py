import contextlib
import random
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steptardy import (
    NEIGHBORHOOD_IDS,
    descend,
    perturb_three_opt,
    shake,
    total_tardiness,
    two_opt_move,
)
from steptardy import neighborhoods
from steptardy.neighborhoods import reassemble_fragments

from conftest import instances_with_sequence, make_instance, random_instance


def neighborhood_moves(seq, k):
    """All candidates of neighborhood k in canonical scan order (oracle)."""
    n = len(seq)
    out = []
    if k == 1:
        for i in range(n - 1):
            for j in range(i + 1, n):
                s = list(seq)
                s[i], s[j] = s[j], s[i]
                out.append(s)
    elif k == 2:
        for i in range(n):
            for j in range(n):
                if i != j:
                    s = list(seq)
                    s.insert(j, s.pop(i))
                    out.append(s)
    elif k == 3:
        for i in range(n - 3):
            for j in range(i + 2, n - 1):
                s = list(seq)
                s[i], s[i + 1], s[j], s[j + 1] = s[j], s[j + 1], s[i], s[i + 1]
                out.append(s)
    elif k == 4:
        for i in range(n - 1):
            for j in range(n - 1):
                if i != j:
                    s = list(seq)
                    couple = s[i : i + 2]
                    del s[i : i + 2]
                    s[j:j] = couple
                    out.append(s)
    else:
        for i in range(n - 3):
            for j in range(i + 3, n):
                s = list(seq)
                s[i + 1 : j + 1] = s[i + 1 : j + 1][::-1]
                out.append(s)
    return out


def naive_descend(instance, seq, k):
    seq = list(seq)
    while True:
        current = total_tardiness(instance, seq)
        for cand in neighborhood_moves(seq, k):
            if total_tardiness(instance, cand) < current:
                seq = cand
                break
        else:
            return seq


@pytest.mark.parametrize("k", NEIGHBORHOOD_IDS)
def test_moves_and_apply_list_the_oracle_candidates(k):
    """``_moves`` and ``_apply`` write four neighborhoods as two block shapes
    with loop bounds in the block length; the oracle above writes out each
    neighborhood on its own.  ``shake`` draws pairwise exchange and two-opt
    moves from this list."""
    for n in range(1, 10):
        seq = list(range(1, n + 1))
        moves = neighborhoods._moves(k, n)
        assert [neighborhoods._apply(seq, k, i, j) for i, j in moves] == neighborhood_moves(seq, k)


class TestTwoOptMove:
    def test_definitional_reversal(self):
        assert two_opt_move([1, 2, 3, 4, 5], 1, 4) == [1, 4, 3, 2, 5]

    def test_symmetric_in_positions(self):
        assert two_opt_move([1, 2, 3, 4, 5], 4, 1) == [1, 4, 3, 2, 5]

    def test_involution(self):
        seq = [5, 3, 1, 2, 4, 6]
        assert two_opt_move(two_opt_move(seq, 2, 5), 2, 5) == seq

    def test_rejects_close_positions(self):
        with pytest.raises(ValueError):
            two_opt_move([1, 2, 3, 4, 5], 2, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            two_opt_move([1, 2, 3, 4], 0, 3)

    @given(st.permutations(list(range(1, 9))), st.integers(1, 8), st.integers(1, 8))
    def test_involution_property(self, seq, i, j):
        if abs(i - j) < 3:
            with pytest.raises(ValueError):
                two_opt_move(seq, i, j)
        else:
            assert two_opt_move(two_opt_move(seq, i, j), i, j) == list(seq)


def descend_path(path):
    """A context in which ``descend`` runs the C kernel, where it loaded, or
    the Python fallback."""
    if path == "python":
        return mock.patch.object(neighborhoods, "_kernel", None)
    return contextlib.nullcontext()


both_paths = pytest.mark.parametrize("path", ["kernel", "python"])


class TestDescend:
    @both_paths
    def test_matches_naive_reference(self, path):
        rng = random.Random(99)
        with descend_path(path):
            for _ in range(60):
                n = rng.randint(2, 8)
                instance = random_instance(rng, n)
                seq = list(range(1, n + 1))
                rng.shuffle(seq)
                for k in NEIGHBORHOOD_IDS:
                    assert descend(instance, seq, k) == naive_descend(instance, seq, k)

    def test_fixpoint_returned_unchanged(self, demo8):
        for k in NEIGHBORHOOD_IDS:
            once = descend(demo8, [2, 3, 4, 1, 5, 7, 8, 6], k)
            assert descend(demo8, once, k) == once

    def test_two_job_swap(self):
        instance = make_instance([(3, 0, 3, 10), (1, 0, 1, 10)])
        assert descend(instance, [1, 2], 1) == [2, 1]

    def test_two_opt_identity_below_four_jobs(self):
        instance = make_instance([(5, 1, 2, 3), (4, 2, 1, 0), (3, 0, 0, 9)])
        assert descend(instance, [3, 1, 2], 5) == [3, 1, 2]

    def test_unknown_neighborhood_rejected(self, demo8):
        with pytest.raises(ValueError):
            descend(demo8, [1, 2, 3, 4, 5, 6, 7, 8], 6)

    @both_paths
    @settings(max_examples=40, deadline=None)
    @given(instances_with_sequence(min_n=2, max_n=8), st.sampled_from(NEIGHBORHOOD_IDS))
    def test_descends_to_a_local_optimum(self, path, case, k):
        instance, seq = case
        with descend_path(path):
            out = descend(instance, seq, k)
        value = total_tardiness(instance, out)
        assert sorted(out) == sorted(seq)
        assert value <= total_tardiness(instance, seq)
        assert all(
            total_tardiness(instance, cand) >= value
            for cand in neighborhood_moves(out, k)
        )


class TestShake:
    def test_single_job_identity(self):
        rng = random.Random(0)
        for k in NEIGHBORHOOD_IDS:
            assert shake([1], k, rng) == [1]

    def test_two_jobs_swap_is_forced(self):
        rng = random.Random(0)
        for _ in range(10):
            assert shake([1, 2], 1, rng) == [2, 1]

    def test_swap_pairs_uniform(self):
        rng = random.Random(123)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            out = tuple(shake([1, 2, 3, 4], 1, rng))
            counts[out] = counts.get(out, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / draws - 1 / 6) <= 0.02

    @given(
        instances_with_sequence(min_n=1, max_n=9),
        st.sampled_from(NEIGHBORHOOD_IDS),
        st.integers(0, 2**32),
    )
    def test_closure_and_reachability(self, case, k, seed):
        _, seq = case
        n = len(seq)
        out = shake(seq, k, random.Random(seed))
        assert sorted(out) == sorted(seq)
        nonempty = {1: n >= 2, 2: n >= 2, 3: n >= 4, 4: n >= 3, 5: n >= 4}
        if nonempty[k]:
            assert out != list(seq)
        else:
            assert out == list(seq)

    def test_moves_stay_inside_the_neighborhood(self):
        rng = random.Random(5)
        base = list(range(1, 10))
        for _ in range(300):
            out = shake(base, 1, rng)
            assert out in neighborhood_moves(base, 1)
            out = shake(base, 3, rng)
            assert out in neighborhood_moves(base, 3)
            out = shake(base, 5, rng)
            assert out in neighborhood_moves(base, 5)


class TestPerturbThreeOpt:
    def test_short_sequence_warns_and_returns_copy(self):
        rng = random.Random(1)
        with pytest.warns(UserWarning):
            assert perturb_three_opt([1, 2, 3], rng) == [1, 2, 3]

    def test_always_permutation_and_never_identity(self):
        rng = random.Random(17)
        for n in (4, 5, 8, 12):
            base = list(range(1, n + 1))
            for _ in range(200):
                out = perturb_three_opt(base, rng)
                assert sorted(out) == sorted(base)
                assert out != base

    def test_fragments_stay_intact(self):
        def contiguous(seq, run):
            return any(seq[i : i + len(run)] == run for i in range(len(seq)))

        base = [10, 20, 30, 40, 50, 60]
        for cuts in [(1, 2, 3), (1, 3, 5), (2, 3, 4), (1, 2, 5)]:
            c1, c2, c3 = cuts
            frags = [base[:c1], base[c1:c2], base[c2:c3], base[c3:]]
            for order in permutations((0, 1, 2)):
                if order == (0, 1, 2):
                    continue
                out = reassemble_fragments(base, cuts, order)
                assert out[:c1] == frags[0]
                assert sorted(out) == sorted(base)
                for frag in frags[1:]:
                    assert contiguous(out, frag)

    def test_reassemble_validates_arguments(self):
        with pytest.raises(ValueError):
            reassemble_fragments([1, 2, 3, 4], (1, 2, 4), (1, 0, 2))
        with pytest.raises(ValueError):
            reassemble_fragments([1, 2, 3, 4, 5], (1, 2, 3), (0, 0, 2))

    def test_four_jobs_uniform_over_orders(self):
        rng = random.Random(321)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            out = tuple(perturb_three_opt([1, 2, 3, 4], rng))
            counts[out] = counts.get(out, 0) + 1
        # only cuts (1, 2, 3) exist: fragment 1 stays put, 5 non-identity orders
        assert len(counts) == 5
        assert all(out[0] == 1 for out in counts)
        for count in counts.values():
            assert abs(count / draws - 1 / 5) <= 0.03
