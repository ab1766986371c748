"""The C kernel against the Python reference, and when each one runs.

``_local_search`` (behind ``descend``, ``vnd``, ``gvns`` and ``vns``),
SWSP's ``weighted_search`` and ``pairwise_swap_pass`` run ``_kernel.c``
when it built and the instance fits int64, and their Python code
otherwise.  The two must return the same result for every input.  A
kernel that silently failed to build would make every search some 70-100x
slower (a default GVNS run at n=25 and n=50 on one core), so its absence is
a failure wherever a C compiler exists, and so is a compiler warning in it.
"""

import ctypes
import importlib
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from array import array
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
from steptardy import neighborhoods
from steptardy.neighborhoods import _descend_kernel, _descend_python
from steptardy.swsp import (
    _pairwise_swap_pass_kernel,
    _pairwise_swap_pass_python,
    _weighted_search_kernel,
    _weighted_search_python,
    pairwise_swap_pass,
    weight_grid,
    weighted_search,
)

from conftest import instances_with_sequence, make_instance, tied_cases

needs_kernel = pytest.mark.skipif(
    neighborhoods._kernel is None, reason=f"C kernel not loaded: {neighborhoods._KERNEL_ERROR}"
)
COMPILER = (sysconfig.get_config_var("CC") or "cc").split()
needs_compiler = pytest.mark.skipif(
    shutil.which(COMPILER[0]) is None,
    reason=f"no C compiler {COMPILER[0]!r} on PATH: the Python code runs",
)
KERNEL_SOURCE = Path(neighborhoods.__file__).with_name("_kernel.c")
# the package exports the function swsp under the module's name
swsp_module = importlib.import_module("steptardy.swsp")


@needs_compiler
def test_kernel_loads_where_a_compiler_exists():
    assert neighborhoods._kernel is not None, (
        f"{COMPILER[0]} is on PATH but the C kernel did not load:\n{neighborhoods._KERNEL_ERROR}"
    )


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    # a full build with the loader's flags: warnings such as
    # -Wmaybe-uninitialized come from the optimizer, which -fsyntax-only skips
    proc = subprocess.run(
        COMPILER + neighborhoods._KERNEL_FLAGS
        + ["-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "_kernel.so"), str(KERNEL_SOURCE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _both(instance, seq, k):
    """(Python, kernel) results of one descent: each the sequence and its
    total, which for the kernel is the total it returned."""
    python = _descend_python(instance, seq, k)
    return (python, total_tardiness(instance, python)), _chain_kernel(instance, seq, [k])


def _chain_kernel(instance, seq, order):
    """The kernel's local search through ``order``, its total checked
    against a Python evaluation of its sequence."""
    found, total = _descend_kernel(instance._int64_rows, seq, bytes(order))
    assert total == total_tardiness(instance, found)
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
    big = 2**54
    instance = make_instance(
        [(rng.randint(1, big), rng.randint(0, big), rng.randint(0, 4 * big), rng.randint(0, 4 * big))
         for _ in range(6)]
    )
    assert instance._int64_rows is not None
    for k in NEIGHBORHOOD_IDS:
        seq = [6, 5, 4, 3, 2, 1]
        python, kernel = _both(instance, seq, k)
        assert kernel == python


def _no_kernel(*args):
    raise AssertionError("descend must not run the C kernel here")


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
    monkeypatch.setattr(neighborhoods, "_descend_kernel", _no_kernel)
    for k in NEIGHBORHOOD_IDS:
        assert descend(instance, [4, 3, 2, 1], k) == _descend_python(instance, [4, 3, 2, 1], k)


def test_missing_kernel_takes_python_path(monkeypatch, demo8):
    expected = [_descend_python(demo8, [8, 7, 6, 5, 4, 3, 2, 1], k) for k in NEIGHBORHOOD_IDS]
    monkeypatch.setattr(neighborhoods, "_kernel", None)
    monkeypatch.setattr(neighborhoods, "_descend_kernel", _no_kernel)
    assert [descend(demo8, [8, 7, 6, 5, 4, 3, 2, 1], k) for k in NEIGHBORHOOD_IDS] == expected


@needs_kernel
def test_sequence_checked_before_the_kernel(monkeypatch, demo8):
    monkeypatch.setattr(neighborhoods, "_descend_kernel", _no_kernel)
    seq = [8, 7, 6, 5, 4, 3, 2, 1]
    for call in (
        lambda: descend(demo8, [1, 2, 3, 4, 5, 6, 7, 9], 1),
        lambda: descend(demo8, [1, 2, 3, 4, 5, 6, 7, 7], 1),
        lambda: descend(demo8, seq, 0),
        lambda: descend(demo8, seq, 6),
        lambda: vnd(demo8, [1, 2, 3, 4, 5, 6, 7, 9], NEIGHBORHOOD_IDS),
        lambda: vnd(demo8, seq, [1, 2, 2, 4, 5]),
        lambda: vnd(demo8, seq, [1, 2, 3, 4, 6]),
        lambda: vnd(demo8, seq, [0]),
    ):
        with pytest.raises(ValueError):
            call()


@needs_kernel
@pytest.mark.parametrize("order", [b"\x00", b"\x06", b"\x01\x02\xff", b"\x05\x07"])
def test_kernel_refuses_an_unknown_neighborhood(demo8, order):
    seq = [8, 7, 6, 5, 4, 3, 2, 1]
    buf = array("q", seq)
    total = ctypes.c_int64(-7)
    code = neighborhoods._kernel.steptardy_descend(
        demo8._int64_rows, len(seq), neighborhoods._int64_view(buf), order, len(order), total
    )
    # refused before any descent: nothing moved, nothing written
    assert (code, buf.tolist(), total.value) == (-2, seq, -7)
    with pytest.raises(ValueError, match="outside 1..5"):
        _descend_kernel(demo8._int64_rows, seq, order)


class _FailingKernel:
    """A stand-in for the library whose descent fails with ``code`` and
    writes ``k`` to the total, as the kernel does on -3."""

    def __init__(self, code, k):
        self.code, self.k = code, k

    def steptardy_descend(self, rows, n, seq, order, m, total):
        total.value = self.k
        return self.code


@pytest.mark.parametrize(
    "code, error, message",
    [
        (-1, MemoryError, "could not allocate"),
        (-2, ValueError, "outside 1..5"),
        (-3, RuntimeError, "neighborhood 4 that did not lower"),
    ],
)
def test_kernel_failures_raise_their_own_errors(monkeypatch, demo8, code, error, message):
    monkeypatch.setattr(neighborhoods, "_kernel", _FailingKernel(code, 4))
    with pytest.raises(error, match=message):
        _descend_kernel(demo8._int64_rows, [8, 7, 6, 5, 4, 3, 2, 1], bytes([2, 4]))


@needs_kernel
@pytest.mark.parametrize(
    "seq, error", [([2.0, 1.0], TypeError), ([2**64, 1], OverflowError)], ids=["float", "huge"]
)
def test_kernel_buffers_refuse_what_int64_cannot_hold(seq, error):
    # the int64 buffer is built before any C call, so nothing reaches the kernel
    rows = make_instance([(1, 0, 0, 0), (2, 0, 0, 0)])._int64_rows
    with pytest.raises(error):
        _descend_kernel(rows, seq, b"\x01")
    with pytest.raises(error):
        _pairwise_swap_pass_kernel(rows, seq)


def _swsp_both(instance, seq):
    """(Python, kernel) results of the weighted search and of the swap pass
    from seq and from the weighted search's sequence."""
    rows = instance._int64_rows
    found = _weighted_search_python(instance, weight_grid(instance.n))
    python = (
        found,
        _pairwise_swap_pass_python(instance, seq),
        _pairwise_swap_pass_python(instance, found[0]),
    )
    kernel = (
        _weighted_search_kernel(rows, instance.n),
        _pairwise_swap_pass_kernel(rows, seq),
        _pairwise_swap_pass_kernel(rows, found[0]),
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


# 65 jobs of two kinds, past one 64-bit word of the kernel's greedy: at some
# weight triples one kind's score before its deteriorating date equals the
# other's after it, so the kernel's two candidate heads tie on score and the
# smaller id must win; within a kind only the id orders the jobs
TWO_KINDS_65 = make_instance(
    [random.Random(65).choice([(3, 3, 19, 9), (1, 3, 11, 12)]) for _ in range(65)]
)


@needs_kernel
@settings(max_examples=200, deadline=None)
@example((TWO_KINDS_65, list(range(65, 0, -1))))
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
@pytest.mark.parametrize("n", [63, 64, 65])
def test_weighted_search_parity_at_the_bitset_word_boundary(n):
    # the kernel's greedy keeps its n - 1 candidate jobs in 64-bit words
    instance = generate_suite([n], 0)[0]
    assert _weighted_search_kernel(instance._int64_rows, n) == _weighted_search_python(
        instance, weight_grid(n)
    )


@needs_kernel
def test_swsp_parity_near_the_int64_bound():
    rng = random.Random(11)
    big = 2**54
    instance = make_instance(
        [(rng.randint(1, big), rng.randint(0, big), rng.randint(0, 4 * big), rng.randint(0, 4 * big))
         for _ in range(6)]
    )
    assert instance._int64_rows is not None
    python, kernel = _swsp_both(instance, [6, 5, 4, 3, 2, 1])
    assert kernel == python


def _no_swsp_kernel(monkeypatch):
    monkeypatch.setattr(swsp_module, "_weighted_search_kernel", _no_kernel)
    monkeypatch.setattr(swsp_module, "_pairwise_swap_pass_kernel", _no_kernel)


@pytest.mark.parametrize(
    "rows",
    [
        [(2**61, 1, 3, 2), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
    ],
    ids=["past-overflow-bound"],
)
def test_swsp_out_of_kernel_range_takes_python_path(monkeypatch, rows):
    instance = make_instance(rows)
    assert instance._int64_rows is None
    _no_swsp_kernel(monkeypatch)
    assert weighted_search(instance) == _weighted_search_python(instance, weight_grid(4))
    assert pairwise_swap_pass(instance, [4, 3, 2, 1]) == _pairwise_swap_pass_python(
        instance, [4, 3, 2, 1]
    )


def test_swsp_missing_kernel_takes_python_path(monkeypatch, demo8):
    expected = (
        _weighted_search_python(demo8, weight_grid(8)),
        _pairwise_swap_pass_python(demo8, [8, 7, 6, 5, 4, 3, 2, 1]),
    )
    monkeypatch.setattr(neighborhoods, "_kernel", None)
    _no_swsp_kernel(monkeypatch)
    assert (weighted_search(demo8), pairwise_swap_pass(demo8, [8, 7, 6, 5, 4, 3, 2, 1])) == expected


@needs_kernel
def test_swsp_inputs_checked_before_the_kernel(monkeypatch, demo8):
    _no_swsp_kernel(monkeypatch)
    with pytest.raises(ValueError):
        pairwise_swap_pass(demo8, [1, 2, 3, 4, 5, 6, 7, 9])


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


def _import_copy(tmp_path, script, prelude=""):
    proc = subprocess.run(
        [sys.executable, "-c", prelude + "from steptardy import neighborhoods as m\n" + script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
