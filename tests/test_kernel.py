"""The C kernel against the Python reference, and when each one runs.

``_local_search`` (behind ``descend``, ``vnd``, ``gvns`` and ``vns``),
SWSP's ``weighted_search`` and ``pairwise_swap_pass`` and the exact
``branch_and_bound`` run ``_kernel.c`` when it built and the instance fits
int64, and their Python code otherwise.  The two must return the same
result for every input, and the scans a search skips at an incumbent it
has proven must change none.  A kernel that silently failed to build
would make every search some 70-100x slower (a default GVNS run at n=25
and n=50 on one core), so its absence is a failure wherever a C compiler
and Python's headers exist, and so is a compiler warning in it.

Each rule is checked once for all four entry points: the Python code
runs for an instance outside int64 and without a kernel, inputs are
checked before the kernel runs, and one parity script runs on a kernel
built with every sanitizer whose runtime the compiler has.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
from functools import cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steptardy import (
    NEIGHBORHOOD_IDS,
    descend,
    edd_sequence,
    generate_suite,
    shake,
    total_tardiness,
    vnd,
)
from steptardy import metaheuristics, neighborhoods
from steptardy.exact import _branch_and_bound_python, branch_and_bound
from steptardy.metaheuristics import SearchParams, gvns, vns
from steptardy.neighborhoods import _descend_python
from steptardy.swsp import (
    _pairwise_swap_pass_python,
    _weighted_search_python,
    _weights,
    pairwise_swap_pass,
    weighted_search,
)

from conftest import (
    early_entry_instance,
    instances_with_sequence,
    make_instance,
    near_bound_instance,
    tied_cases,
)

needs_kernel = pytest.mark.skipif(
    neighborhoods._kernel is None, reason=f"C kernel not loaded: {neighborhoods._KERNEL_ERROR}"
)
COMPILER = (sysconfig.get_config_var("CC") or "cc").split()
HEADERS = Path(sysconfig.get_paths()["include"])
needs_compiler = pytest.mark.skipif(
    shutil.which(COMPILER[0]) is None or not (HEADERS / "Python.h").exists(),
    reason=f"no C compiler {COMPILER[0]!r} on PATH or no Python.h in {HEADERS}: the Python code runs",
)
KERNEL_SOURCE = Path(neighborhoods.__file__).with_name("_kernel.c")


@needs_compiler
def test_kernel_loads_where_a_compiler_exists():
    assert neighborhoods._kernel is not None, (
        f"{COMPILER[0]} is on PATH and Python.h in {HEADERS}, but the C kernel did not load:\n"
        f"{neighborhoods._KERNEL_ERROR}"
    )


def _compile_kernel(source, library, *flags):
    """Build ``library`` from ``source`` with the loader's command plus
    ``flags``; a nonzero exit fails the test with the compiler's stderr."""
    proc = subprocess.run(
        neighborhoods._kernel_command() + [*flags, "-o", str(library), str(source)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return library


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    # a full build with the loader's command: warnings such as
    # -Wmaybe-uninitialized come from the optimizer, which -fsyntax-only skips
    _compile_kernel(KERNEL_SOURCE, tmp_path / "_kernel.so", "-Wall", "-Wextra", "-Werror")


def _both(instance, seq, k):
    """(Python, kernel) results of one descent: each the sequence and its
    total, which for the kernel is the total it returned."""
    python = _descend_python(instance, seq, k)
    return (python, total_tardiness(instance, python)), _chain_kernel(instance, seq, [k])


def _chain_kernel(instance, seq, order):
    """The kernel's local search through ``order``, its total checked
    against a Python evaluation of its sequence."""
    found, total, proven = neighborhoods._kernel.descend(instance._int64_rows, seq, order, None, 0)
    assert total == total_tardiness(instance, found) and proven == 0
    return found, total


def _chains_python(instance, seq):
    """The Python local search from seq for each of the 120 orders of the
    five neighborhoods, as {order: (sequence, total)}; orders that share a
    prefix share its descents."""
    reached = {(): list(seq)}
    for order in permutations(NEIGHBORHOOD_IDS):
        for r in range(1, len(order) + 1):
            if order[:r] not in reached:
                reached[order[:r]] = _descend_python(instance, reached[order[: r - 1]], order[r - 1])
    return {
        order: (found, total_tardiness(instance, found))
        for order, found in reached.items()
        if len(order) == len(NEIGHBORHOOD_IDS)
    }


@needs_kernel
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 25, 50])
def test_parity_on_generated_instances(n):
    rng = random.Random(n)
    suite = generate_suite([n], 0)
    # the Python reference needs ~1.8 s per descent from a random n=50 start
    instances, starts = (suite[::3], 1) if n == 50 else (suite, 3)
    for instance in instances:
        for k in NEIGHBORHOOD_IDS:
            for _ in range(starts):
                seq = list(range(1, n + 1))
                rng.shuffle(seq)
                python, kernel = _both(instance, seq, k)
                assert kernel == python, (instance.name, seq, k)


@needs_kernel
@pytest.mark.parametrize("instance", generate_suite([8, 10], 0), ids=lambda inst: inst.name)
def test_local_search_parity_on_every_order(instance):
    """One kernel call descends through a whole neighborhood order, as VND
    does, and returns the same sequence and total as the Python descents
    run one after another, for each of the 120 orders."""
    rng = random.Random(instance.name)
    for seq in (edd_sequence(instance), rng.sample(range(1, instance.n + 1), instance.n)):
        for order, python in _chains_python(instance, seq).items():
            assert _chain_kernel(instance, seq, order) == python, (seq, order)


def _joint_local_optimum(instance):
    seq = edd_sequence(instance)
    while (better := vnd(instance, seq, NEIGHBORHOOD_IDS)) != seq:
        seq = better
    return seq


@needs_kernel
@pytest.mark.parametrize("instance", generate_suite([25], 0), ids=lambda inst: inst.name)
def test_parity_one_shake_from_a_joint_local_optimum(instance):
    """The regime GVNS runs in: a start one move from a local optimum of
    every neighbourhood, where most candidates are refused part way
    through their window walk."""
    rng = random.Random(instance.name)
    optimum = _joint_local_optimum(instance)
    for k in NEIGHBORHOOD_IDS:
        for _ in range(3):
            seq = shake(optimum, k, rng)
            python, kernel = _both(instance, seq, k)
            assert kernel == python, (seq, k)
            # and GVNS's local search: a VND in a random order
            order = rng.sample(NEIGHBORHOOD_IDS, len(NEIGHBORHOOD_IDS))
            python = seq
            for j in order:
                python = _descend_python(instance, python, j)
            kernel = _chain_kernel(instance, seq, order)
            assert kernel == (python, total_tardiness(instance, python)), (seq, order)


@needs_kernel
def test_parity_on_a_seeded_sweep():
    """Short jobs with small due and deteriorating dates: completion times
    often land exactly on a C[k], an h or a d, where an off-by-one bound in
    the kernel's pruning would skip an improving move."""
    rng = random.Random(300)
    for _ in range(300):
        n = rng.randint(4, 10)
        instance = make_instance(
            [(rng.randint(1, 5), rng.randint(0, 6), rng.randint(0, 20), rng.randint(0, 15))
             for _ in range(n)]
        )
        seq = rng.sample(range(1, n + 1), n)
        for k in NEIGHBORHOOD_IDS:
            python, kernel = _both(instance, seq, k)
            assert kernel == python, (instance.jobs, seq, k)


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(tied_cases(), st.sampled_from(NEIGHBORHOOD_IDS))
def test_parity_with_ties(case, k):
    instance, seq = case
    python, kernel = _both(instance, seq, k)
    assert kernel == python


@needs_kernel
def test_parity_near_the_int64_bound():
    rng = random.Random(7)
    # at n=12 with values up to 2^52, the entry delay charged to the late
    # jobs of a stretch reaches about 2^57
    for n, big in [(6, 2**54), (12, 2**52)]:
        instance = near_bound_instance(rng, n, big)
        assert instance._int64_rows is not None
        for k in NEIGHBORHOOD_IDS:
            python, kernel = _both(instance, list(range(n, 0, -1)), k)
            assert kernel == python, (n, k)
    # stretches entered early, where the early-side term D * count reaches
    # about 2^61.6
    instance = early_entry_instance()
    assert instance._int64_rows is not None
    for k in NEIGHBORHOOD_IDS:
        python, kernel = _both(instance, list(range(1, 13)), k)
        assert kernel == python, k


@needs_kernel
@pytest.mark.parametrize("n", range(1, 15))
def test_branch_and_bound_parity_on_generated_instances(n):
    # the same value, sequence and label count: the C DP keeps the same
    # fronts and walks back the same way
    for instance in generate_suite([n], 0):
        assert branch_and_bound(instance) == _branch_and_bound_python(instance), instance.name


@needs_kernel
@settings(max_examples=200, deadline=None)
@given(tied_cases())
def test_branch_and_bound_parity_with_ties(case):
    # equal (C, T) labels from different jobs, where the backward walk's
    # choice of the lowest job id decides the sequence
    instance, _ = case
    assert branch_and_bound(instance) == _branch_and_bound_python(instance)


def _fixpoints(instance, seq):
    """The bitmask, bit k - 1 for neighborhood k, of the neighborhoods in
    which seq is a local optimum, by the Python definition."""
    return sum(1 << (k - 1) for k in NEIGHBORHOOD_IDS if _descend_python(instance, seq, k) == seq)


@needs_kernel
@pytest.mark.parametrize(
    "instance", generate_suite([8, 10], 0) + generate_suite([25], 0)[::3], ids=lambda inst: inst.name
)
def test_skip_at_a_proven_incumbent_changes_no_result(instance):
    """A local search told which neighborhoods its incumbent is a local
    optimum of returns what it returns when told nothing, from the
    incumbent and from sequences one shake away (which differ from it while
    its bits are set), and every bit it returns is a real fixpoint."""
    rng = random.Random(instance.name)
    rows, kernel = instance._int64_rows, neighborhoods._kernel
    optimum = _joint_local_optimum(instance)
    start = rng.sample(range(1, instance.n + 1), instance.n)
    for incumbent in (optimum, shake(optimum, 2, rng), start):
        truth = _fixpoints(instance, incumbent)
        for seq in [incumbent] + [shake(incumbent, k, rng) for k in NEIGHBORHOOD_IDS]:
            for order in ([rng.choice(NEIGHBORHOOD_IDS)], rng.sample(NEIGHBORHOOD_IDS, 5)):
                plain = kernel.descend(rows, seq, order, None, 0)
                for proven in (0, truth & rng.randrange(32), truth):
                    found, total, bits = kernel.descend(rows, seq, order, incumbent, proven)
                    assert (found, total) == plain[:2], (incumbent, proven, seq, order)
                    assert bits & proven == proven and bits & ~truth == 0, (incumbent, proven, bits)
    # a scan at the incumbent that finds nothing sets its bit
    assert kernel.descend(rows, optimum, NEIGHBORHOOD_IDS, optimum, 0)[2] == 31


@needs_kernel
@pytest.mark.parametrize("search", [gvns, vns])
@pytest.mark.parametrize("instance", generate_suite([8, 10, 25], 0), ids=lambda inst: inst.name)
def test_search_masks_are_true_and_change_no_result(monkeypatch, search, instance):
    """gvns and vns pass only bits that are real fixpoints of the incumbent
    they pass, so a mask kept past a change of incumbent fails here (on a
    few of these runs only), and they give the same runs when they keep no
    mask at all."""
    rows, kernel = instance._int64_rows, neighborhoods._kernel
    fixpoints = {}
    used = []

    def checked(instance, sequence, order, incumbent, proven):
        key = tuple(incumbent)
        if key not in fixpoints:
            # the plain kernel descent, held to the Python one above
            fixpoints[key] = sum(1 << (k - 1) for k in NEIGHBORHOOD_IDS
                                 if kernel.descend(rows, incumbent, [k], None, 0)[0] == incumbent)
        assert proven & ~fixpoints[key] == 0, (incumbent, proven)
        used.append(proven)
        return neighborhoods._local_search(instance, sequence, order, incumbent, proven)

    def without_mask(instance, sequence, order, incumbent, proven):
        return neighborhoods._local_search(instance, sequence, order)

    for seed in range(3):
        params = SearchParams(iter_max=150, iter_nip=40, seed=seed)
        monkeypatch.setattr(metaheuristics, "_local_search", checked)
        skipping = search(instance, params)
        monkeypatch.setattr(metaheuristics, "_local_search", without_mask)
        plain = search(instance, params)
        assert skipping == plain
    assert any(used)


class _NoKernel:
    """A kernel whose every function fails the test: it must not run here."""

    def __getattr__(self, name):
        raise AssertionError(f"the C kernel's {name} must not run here")


def _takes_python_path(instance):
    """Each of the four entry points returns its Python reference's result."""
    seq = list(range(instance.n, 0, -1))
    for k in NEIGHBORHOOD_IDS:
        assert descend(instance, seq, k) == _descend_python(instance, seq, k)
    assert branch_and_bound(instance) == _branch_and_bound_python(instance)
    assert weighted_search(instance) == _weighted_search_python(instance)
    assert pairwise_swap_pass(instance, seq) == _pairwise_swap_pass_python(instance, seq)


@pytest.mark.parametrize(
    "rows",
    [
        [(2**61, 1, 3, 2), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
        [(2, 1, 3, 2**62), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
    ],
    ids=["past-overflow-bound", "huge-h"],
)
def test_out_of_kernel_range_takes_python_path(monkeypatch, rows):
    instance = make_instance(rows)
    assert instance._int64_rows is None
    monkeypatch.setattr(neighborhoods, "_kernel", _NoKernel())
    _takes_python_path(instance)


def test_missing_kernel_takes_python_path(monkeypatch, demo8):
    monkeypatch.setattr(neighborhoods, "_kernel", None)
    _takes_python_path(demo8)


@needs_kernel
def test_sequence_checked_before_the_kernel(monkeypatch, demo8):
    # weighted_search takes only the instance, which was checked when built
    monkeypatch.setattr(neighborhoods, "_kernel", _NoKernel())
    seq = [8, 7, 6, 5, 4, 3, 2, 1]
    for call in (
        lambda: descend(demo8, [1, 2, 3, 4, 5, 6, 7, 9], 1),
        lambda: descend(demo8, [1, 2, 3, 4, 5, 6, 7, 7], 1),
        lambda: descend(demo8, seq, 0),
        lambda: descend(demo8, seq, 6),
        # a neighborhood id is an int: not a bool or a float equal to one
        lambda: descend(demo8, seq, True),
        lambda: descend(demo8, seq, 1.0),
        lambda: vnd(demo8, [1, 2, 3, 4, 5, 6, 7, 9], NEIGHBORHOOD_IDS),
        lambda: vnd(demo8, seq, [1, 2, 2, 4, 5]),
        lambda: vnd(demo8, seq, [1, 2, 3, 4, 6]),
        lambda: vnd(demo8, seq, [0]),
        lambda: vnd(demo8, seq, [True, 2]),
        lambda: vnd(demo8, seq, [1.0, 2.0]),
        lambda: shake(seq, 2.0, random.Random(0)),
        lambda: pairwise_swap_pass(demo8, [1, 2, 3, 4, 5, 6, 7, 9]),
        lambda: pairwise_swap_pass(demo8, [1, 2, 3, 4, 5, 6, 7, 7]),
        # the DP's size cap
        lambda: branch_and_bound(make_instance([(1, 0, 0, 0)] * 21)),
    ):
        with pytest.raises(ValueError):
            call()


@needs_kernel
@pytest.mark.parametrize("order", [b"\x00", b"\x06", b"\x01\x02\xff", b"\x05\x07"])
def test_kernel_refuses_an_unknown_neighborhood(demo8, order):
    seq = [8, 7, 6, 5, 4, 3, 2, 1]
    with pytest.raises(ValueError, match="outside 1..5"):
        neighborhoods._kernel.descend(demo8._int64_rows, seq, list(order), None, 0)
    # the kernel works on its own copy: the caller's sequence is never written
    assert seq == [8, 7, 6, 5, 4, 3, 2, 1]


def _mutant_kernel(tmp_path, old, new):
    """The library built, with the loader's command, from a copy of
    ``_kernel.c`` in which ``old`` is replaced by ``new``."""
    source = KERNEL_SOURCE.read_text()
    assert source.count(old) == 1
    mutant = tmp_path / "_kernel.c"
    mutant.write_text(source.replace(old, new))
    return _compile_kernel(mutant, tmp_path / "_kernel.so")


# how to make each kernel function fail, by the exception it must raise: a
# mutation of its source (none when the real kernel fails), the call, and
# a part of the message
FAILURES = {
    MemoryError: [
        # the prefix arrays cannot be allocated
        (("i64 *C = PyMem_Malloc((size_t)(n + 1) * 5 * sizeof *C);", "i64 *C = NULL;"),
         "descend(rows, seq, [2, 4], None, 0)", ""),
        # the greedy's arrays cannot be allocated
        (("i64 *seq = PyMem_Malloc((size_t)(n + 5 * r + 6 * (n + 1)) * sizeof *seq + (size_t)(n + 1));",
          "i64 *seq = NULL;"),
         "weighted_search(rows, _weights(10))", ""),
        # the DP's labels cannot be allocated, or grown (past 1,024 at n=10)
        (("label_t *L = PyMem_Malloc(size * sizeof *L);", "label_t *L = NULL;"),
         "branch_and_bound(rows)", ""),
        (("label_t *grown = PyMem_Realloc(L, size * sizeof *L);", "label_t *grown = NULL;"),
         "branch_and_bound(rows)", ""),
    ],
    ValueError: [(None, "descend(rows, seq, [2, 9], None, 0)", "outside 1..5")],
    # the defect that once made descend loop for ever inside C: without
    # max(0, .) a step lowers the running tardiness of an early job, so a
    # scan accepts a move that does not lower the total
    RuntimeError: [
        (("*t += tard(J, x, *c);", "*t += *c - J[x].d;"), "descend(rows, seq, [4], None, 0)",
         "neighborhood 4 that did not lower"),
    ],
}


@needs_kernel
@pytest.mark.parametrize(
    "error, mutation, call, message",
    [
        pytest.param(error, *case, id=f"{error.__name__}-{case[1].split('(')[0]}")
        for error, cases in FAILURES.items()
        for case in cases
    ],
)
def test_kernel_failures_raise_their_own_errors(tmp_path, error, mutation, call, message):
    if mutation is None:
        kernel = "m._kernel"
    else:
        kernel = f"m._import_kernel({str(_mutant_kernel(tmp_path, *mutation))!r})"
    # in a fresh interpreter, so that a kernel looping for ever fails the
    # test at the timeout instead of hanging it
    out = _run_python(
        tmp_path,
        "from steptardy import neighborhoods as m, generate_suite\n"
        "from steptardy.swsp import _weights\n"
        "rows = generate_suite([10], 0)[0]._int64_rows\n"
        "seq = list(range(10, 0, -1))\n"
        "try:\n"
        f"    {kernel}.{call}\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n",
        Path(neighborhoods.__file__).parents[1],
        timeout=60,
    )
    assert out.startswith(error.__name__) and message in out, out


# the parity cases of the four entry points, for a kernel built with
# UBSan, where int64 overflow, a shift past the width and an out-of-bounds
# index abort the process instead of passing unseen, and with ASan, where
# an access past the end of an allocation does.  Each kernel function takes
# one allocation for all its arrays, so an overrun from one array into the
# next stays inside the block, unseen by ASan.
SANITIZED_PARITY = """
import json
import random
from steptardy import neighborhoods as m, generate_suite, NEIGHBORHOOD_IDS, total_tardiness
from steptardy.exact import branch_and_bound, _branch_and_bound_python
from steptardy.swsp import (_pairwise_swap_pass_python, _weighted_search_python,
                            pairwise_swap_pass, weighted_search)
from conftest import early_entry_instance, near_bound_instance
m._kernel = m._import_kernel(LIBRARY)
rng = random.Random(0)
near = near_bound_instance(rng, 6, 2**54)
# the entry delay charged to the late jobs of a stretch reaches about 2^57
# here; its own seed keeps the earlier cases' draws
near12 = near_bound_instance(random.Random(12), 12, 2**52)
instances = generate_suite([1, 2, 5, 8, 10, 25], 0)[::2] + [near] + generate_suite([14], 0)[:1] + [near12]
for instance in instances:
    n, rows = instance.n, instance._int64_rows
    seq = rng.sample(range(1, n + 1), n)
    order = rng.sample(NEIGHBORHOOD_IDS, 5)
    python = seq
    for k in order:
        assert m._kernel.descend(rows, seq, [k], None, 0)[0] == m._descend_python(instance, seq, k)
        python = m._descend_python(instance, python, k)
    found, total, proven = m._kernel.descend(rows, seq, order, None, 0)
    assert (found, total) == (python, total_tardiness(instance, python))
    # one pass need not end at a fixpoint of every k (a later k's move can
    # open one for an earlier k), so the second pass is held to the
    # reference too; the skip at the proven incumbent changes nothing
    for k in order:
        python = m._descend_python(instance, python, k)
    again = m._kernel.descend(rows, found, order, found, 0)
    assert again[:2] == (python, total_tardiness(instance, python))
    assert m._kernel.descend(rows, found, order, found, again[2])[:2] == again[:2]
    assert weighted_search(instance) == _weighted_search_python(instance)
    assert pairwise_swap_pass(instance, seq) == _pairwise_swap_pass_python(instance, seq)
    if n <= 14:
        assert branch_and_bound(instance) == _branch_and_bound_python(instance)
# the greedy's last register case, a candidate at the word's top bit, and
# its first case with state bytes, against references computed outside
with open(REFERENCES) as f:
    for n, reference in json.load(f).items():
        assert list(weighted_search(generate_suite([int(n)], 0)[0])) == reference
# an early entry makes the early-side term D * count about 2^61.6 here
early = early_entry_instance()
for k in NEIGHBORHOOD_IDS:
    found = m._kernel.descend(early._int64_rows, list(range(1, 13)), [k], None, 0)[0]
    assert found == m._descend_python(early, list(range(1, 13)), k)
print("ok", len(instances))
"""


@cache
def _wide_reference(n):
    """The Python weighted search on the first instance of
    ``generate_suite([n], 0)``, computed once per session for the sanitized
    parity script and the word-boundary test."""
    return _weighted_search_python(generate_suite([n], 0)[0])


def _sanitizer_runtime(name):
    """The path of the compiler's runtime library ``name``, or None where the
    compiler finds none, for which it prints a bare name."""
    found = subprocess.run(COMPILER + [f"-print-file-name={name}"], capture_output=True, text=True)
    path = found.stdout.strip()
    return path if found.returncode == 0 and os.path.isabs(path) else None


@needs_compiler
def test_kernel_parity_under_sanitizers(tmp_path):
    asan, ubsan = _sanitizer_runtime("libasan.so"), _sanitizer_runtime("libubsan.so")
    if asan is None and ubsan is None:
        pytest.skip(f"{COMPILER[0]} finds neither libasan.so nor libubsan.so")
    sanitizers = ",".join(name for name, runtime in (("address", asan), ("undefined", ubsan)) if runtime)
    library = _compile_kernel(
        KERNEL_SOURCE, tmp_path / "_kernel.so", f"-fsanitize={sanitizers}", "-fno-sanitize-recover=all"
    )
    # the ASan runtime must load before the interpreter's allocator is used,
    # and PYTHONMALLOC=malloc sends PyMem_Malloc's blocks to its malloc, so
    # that a read or write past a kernel allocation aborts the process
    env = {"LD_PRELOAD": asan, "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc"} if asan else {}
    references = tmp_path / "references.json"
    references.write_text(json.dumps({n: _wide_reference(n) for n in (65, 66)}))
    # conftest is importable from the fresh interpreter's working directory
    out = _run_python(
        Path(__file__).parent,
        f"LIBRARY = {str(library)!r}\nREFERENCES = {str(references)!r}\n" + SANITIZED_PARITY,
        Path(neighborhoods.__file__).parents[1],
        env=env,
    )
    assert out.startswith("ok"), out


@needs_kernel
@pytest.mark.parametrize(
    "seq, error", [([2.0, 1.0], TypeError), ([2**64, 1], OverflowError)], ids=["float", "huge"]
)
def test_kernel_buffers_refuse_what_int64_cannot_hold(seq, error):
    # each id is read as an int64 before any C call, so nothing reaches the kernel
    rows = make_instance([(1, 0, 0, 0), (2, 0, 0, 0)])._int64_rows
    for call in (
        lambda: neighborhoods._kernel.descend(rows, seq, [1], None, 0),
        lambda: neighborhoods._kernel.descend(rows, [2, 1], seq, None, 0),
        lambda: neighborhoods._kernel.descend(rows, [2, 1], [1], seq, 0),
        lambda: neighborhoods._kernel.pairwise_swap_pass(rows, seq),
    ):
        with pytest.raises(error):
            call()


@needs_kernel
def test_kernel_refuses_arguments_outside_its_rows():
    # the kernel indexes its rows by job id: an id past them would read
    # outside the buffer
    rows = make_instance([(1, 0, 0, 0), (2, 0, 0, 0)])._int64_rows
    kernel = neighborhoods._kernel
    for call, error, message in (
        (lambda: kernel.descend(rows, [0, 1], [1], None, 0), ValueError, "job id 0"),
        (lambda: kernel.descend(rows, [3, 1], [1], None, 0), ValueError, "job id 3"),
        (lambda: kernel.pairwise_swap_pass(rows, [1, 3]), ValueError, "job id 3"),
        # the incumbent is compared with the sequence entry by entry, and
        # proven has one bit per neighborhood
        (lambda: kernel.descend(rows, [2, 1], [1], [3, 1], 0), ValueError, "job id 3"),
        (lambda: kernel.descend(rows, [2, 1], [1], [1], 0), ValueError, "incumbent has 1"),
        (lambda: kernel.descend(rows, [2, 1], [1], [1, 2], 32), ValueError, "proven"),
        (lambda: kernel.descend(rows, [2, 1], [1], [1, 2], -1), ValueError, "proven"),
        (lambda: kernel.descend(rows, [2, 1], [1], [1, 2], 1.0), ValueError, "proven"),
        (lambda: kernel.descend(rows, [2, 1], [1], [1, 2], 2**64), OverflowError, "too big"),
        (lambda: kernel.descend(rows, [2, 1], [1]), TypeError, "5 arguments"),
        # the weights are for n * n triples, n the number of rows past row 0
        (lambda: kernel.weighted_search(rows, _weights(3)), TypeError, "3 * 4"),
        (lambda: kernel.weighted_search(rows, _weights(1)), TypeError, "3 * 4"),
        (lambda: kernel.weighted_search(rows, 2, _weights(2)), TypeError, "2 arguments"),
        (lambda: kernel.descend(rows[:-8], [2, 1], [1], None, 0), TypeError, "rows"),
        (lambda: kernel.descend(list(rows), [2, 1], [1], None, 0), TypeError, "rows"),
        (lambda: kernel.pairwise_swap_pass(rows, 12), TypeError, "sequence of ids"),
        (lambda: kernel.branch_and_bound(rows[:-8]), TypeError, "rows"),
        (lambda: kernel.branch_and_bound(rows, rows), TypeError, "1 argument"),
        # the DP's table holds 2^N + 1 front offsets: N past its bound is
        # refused before anything is allocated
        (lambda: kernel.branch_and_bound(bytes(32 * 22)), ValueError, "at most 20 jobs (21 given)"),
        (lambda: kernel.branch_and_bound(bytes(32 * 65)), ValueError, "at most 20 jobs (64 given)"),
        # rows holding only row 0 hold no job
        (lambda: kernel.descend(rows[:32], [], [1], None, 0), TypeError, "rows"),
        (lambda: kernel.weighted_search(rows[:32], _weights(1)), TypeError, "rows"),
        (lambda: kernel.pairwise_swap_pass(rows[:32], []), TypeError, "rows"),
        (lambda: kernel.branch_and_bound(rows[:32]), TypeError, "rows"),
    ):
        with pytest.raises(error, match=re.escape(message)):
            call()


def _swsp_both(instance, seq):
    """(Python, kernel) results of the weighted search and of the swap pass
    from seq and from the weighted search's sequence."""
    assert instance._int64_rows is not None
    found = _weighted_search_python(instance)
    python = (
        found,
        _pairwise_swap_pass_python(instance, seq),
        _pairwise_swap_pass_python(instance, found[0]),
    )
    kernel = (
        weighted_search(instance),
        pairwise_swap_pass(instance, seq),
        pairwise_swap_pass(instance, found[0]),
    )
    return python, kernel


@needs_kernel
@pytest.mark.parametrize("n", [1, 2, 3, 8, 25, 50])
def test_swsp_parity_on_generated_instances(n):
    rng = random.Random(n)
    # the Python weighted search takes ~0.5 s per n=50 instance
    for instance in generate_suite([n], 0):
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        python, kernel = _swsp_both(instance, seq)
        assert kernel == python, (instance.name, seq)


@st.composite
def equal_jobs(draw):
    """Instances of a few job types, so many jobs score exactly alike and
    only the id tie-break orders them; with a sequence."""
    kinds = draw(st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from([0, 1, 3]), st.integers(0, 20),
                  st.integers(0, 20)),
        min_size=1, max_size=3,
    ))
    rows = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=12))
    seq = draw(st.permutations(list(range(1, len(rows) + 1))))
    return make_instance(rows), list(seq)


def two_kinds(n):
    """n jobs of two kinds, drawn with seed n.  At the first weight triple
    one kind's score before its deteriorating date equals the other's after
    it, so the kernel's two candidate heads tie on score and the smaller id
    must win; within a kind only the id orders the jobs."""
    rng = random.Random(n)
    return make_instance([rng.choice([(3, 3, 19, 9), (1, 3, 11, 12)]) for _ in range(n)])


# the kernel's greedy keeps the n - 1 candidates in one 64-bit register
# word at n = 65, the last such n, and in state bytes with one head per
# order at n = 66, where B's head also drops as jobs enter B below it
@needs_kernel
@settings(max_examples=200, deadline=None)
@example((two_kinds(65), list(range(65, 0, -1))))
@example((two_kinds(66), list(range(66, 0, -1))))
@given(st.one_of(
    equal_jobs(),
    tied_cases(),
    # short jobs with long steps: the greedy's completion often lands on an h
    instances_with_sequence(min_n=2, max_a=3, max_b=10, max_d=24, max_h=24),
))
def test_swsp_parity_with_ties(case):
    instance, seq = case
    python, kernel = _swsp_both(instance, seq)
    assert kernel == python


@needs_kernel
@pytest.mark.parametrize("n", [64, 65, 66])
def test_weighted_search_parity_at_the_bitset_word_boundary(n):
    # the kernel's greedy keeps its n - 1 candidate jobs as bitsets in
    # 64-bit registers up to n = 65 and as state bytes from n = 66
    assert weighted_search(generate_suite([n], 0)[0]) == _wide_reference(n)


@needs_kernel
def test_swsp_parity_near_the_int64_bound():
    instance = near_bound_instance(random.Random(11), 6, 2**54)
    assert instance._int64_rows is not None
    python, kernel = _swsp_both(instance, [6, 5, 4, 3, 2, 1])
    assert kernel == python


def _copy_package(tmp_path):
    package = tmp_path / "steptardy"
    shutil.copytree(
        Path(neighborhoods.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    return package


# run in a fresh interpreter with the copy first on the path; this prelude
# makes any process start (the compiler's) fail the import
NO_PROCESS = (
    "import subprocess\n"
    "def _refuse(*args, **kwargs):\n"
    "    raise AssertionError('a process was started')\n"
    "subprocess.Popen = _refuse\n"
)


def _run_python(cwd, script, path, timeout=300, env=None):
    """The stdout of ``script`` run in a fresh interpreter with ``path``
    first on the module path and the variables ``env`` added to the
    environment, which must exit cleanly."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, **(env or {}), "PYTHONPATH": str(path)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _import_copy(tmp_path, script, prelude=""):
    return _run_python(
        tmp_path, prelude + "from steptardy import neighborhoods as m\n" + script, tmp_path
    )


def _builds(package):
    return sorted(path.name for path in (package / "__pycache__").glob("_kernel-*"))


@needs_kernel
def test_rebuild_deletes_the_older_library(tmp_path):
    package = _copy_package(tmp_path)
    loads = "assert m._kernel, m._KERNEL_ERROR"
    _import_copy(tmp_path, loads)
    first = _builds(package)
    assert len(first) == 1
    _import_copy(tmp_path, loads, prelude=NO_PROCESS)
    source = package / "_kernel.c"
    source.write_text(source.read_text() + "\n/* changed */\n")
    _import_copy(tmp_path, loads)
    second = _builds(package)
    assert len(second) == 1
    assert second != first


@needs_kernel
def test_failed_build_is_recorded_not_retried(tmp_path):
    package = _copy_package(tmp_path)
    source = package / "_kernel.c"
    good = source.read_text()
    source.write_text(good + "\n#error deliberately broken\n")
    reports = "assert m._kernel is None\nprint(m._KERNEL_ERROR)"
    first = _import_copy(tmp_path, reports)
    assert "deliberately broken" in first
    [failure] = _builds(package)
    assert failure.endswith(".err")
    # the second import reads the recorded stderr and starts no compiler
    assert _import_copy(tmp_path, reports, prelude=NO_PROCESS) == first
    # a new key builds afresh and deletes the old failure
    source.write_text(good)
    _import_copy(tmp_path, "assert m._kernel, m._KERNEL_ERROR")
    [library] = _builds(package)
    assert library.endswith(".so")


# preludes that take away the compiler or Python's headers from the build
NO_COMPILER = (
    "import sysconfig\n"
    "_var = sysconfig.get_config_var\n"
    "sysconfig.get_config_var = lambda name: 'steptardy-no-cc' if name == 'CC' else _var(name)\n"
)
NO_HEADERS = (
    "import sysconfig\n"
    "_paths = sysconfig.get_paths\n"
    "sysconfig.get_paths = lambda *args: {**_paths(*args), 'include': '/steptardy-no-headers'}\n"
)


@needs_compiler
@pytest.mark.parametrize(
    "prelude, reason",
    [(NO_COMPILER, "steptardy-no-cc"), (NO_HEADERS, "Python.h")],
    ids=["no-compiler", "no-headers"],
)
def test_build_without_a_compiler_or_headers_is_recorded(tmp_path, prelude, reason):
    package = _copy_package(tmp_path)
    falls_back = (
        "assert m._kernel is None\n"
        "from steptardy import descend, generate_suite\n"
        "instance = generate_suite([6], 0)[0]\n"
        "assert descend(instance, [6, 5, 4, 3, 2, 1], 2)\n"
        "print(m._KERNEL_ERROR)"
    )
    first = _import_copy(tmp_path, falls_back, prelude=prelude)
    assert reason in first
    [failure] = _builds(package)
    assert failure.endswith(".err")
    assert _import_copy(tmp_path, falls_back, prelude=NO_PROCESS) == first


@needs_kernel
def test_cache_hit_import_stays_lean(tmp_path):
    # the kernel this process loaded is built, so this import is a cache
    # hit: it needs neither ctypes nor sysconfig, whose modules would stay
    # resident for the life of the process
    out = _run_python(
        tmp_path,
        "import sys, steptardy\n"
        "assert steptardy.neighborhoods._kernel, steptardy.neighborhoods._KERNEL_ERROR\n"
        "print(sorted({'ctypes', 'sysconfig'} & set(sys.modules)))\n",
        Path(neighborhoods.__file__).parents[1],
    )
    assert out == "[]\n"
