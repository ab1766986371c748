"""The C scanners against the Python reference, and when each one runs.

``descend`` runs ``_kernel.c`` when it built and the instance fits int64,
and the Python scanners otherwise.  The two must return the same list for
every input.  A kernel that silently failed to build would make every
search some 40x slower, so its absence is a failure wherever a C compiler
exists.
"""

import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steptardy import NEIGHBORHOOD_IDS, descend, generate_suite
from steptardy import neighborhoods
from steptardy.neighborhoods import _descend_kernel, _descend_python

from conftest import make_instance, tied_cases

needs_kernel = pytest.mark.skipif(
    neighborhoods._kernel is None, reason=f"C kernel not loaded: {neighborhoods._KERNEL_ERROR}"
)


def test_kernel_loads_where_a_compiler_exists():
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler {compiler!r} on PATH: descend runs the Python scanners")
    assert neighborhoods._kernel is not None, (
        f"{compiler} is on PATH but the C kernel did not load:\n{neighborhoods._KERNEL_ERROR}"
    )


def _both(instance, seq, k):
    python = _descend_python(instance, seq, k)
    kernel = _descend_kernel(instance._int64_rows, seq, k)
    return python, kernel


@needs_kernel
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 25, 50])
def test_parity_on_generated_instances(n):
    rng = random.Random(n)
    suite = generate_suite([n], 0)
    # the Python reference needs ~0.5 s per descent from a random n=50 start
    instances, starts = (suite[::3], 1) if n == 50 else (suite, 3)
    for instance in instances:
        for k in NEIGHBORHOOD_IDS:
            for _ in range(starts):
                seq = list(range(1, n + 1))
                rng.shuffle(seq)
                python, kernel = _both(instance, seq, k)
                assert kernel == python, (instance.name, seq, k)


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
        [(2.5, 1, 3, 2), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
        [(2**61, 1, 3, 2), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
        [(2, 1, 3, 2**62), (1, 0, 1, 0), (2, 3, 2, 1), (3, 1, 4, 0)],
    ],
    ids=["float-field", "past-overflow-bound", "huge-h"],
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
def test_sequence_checked_before_the_kernel(demo8):
    with pytest.raises(ValueError):
        descend(demo8, [1, 2, 3, 4, 5, 6, 7, 9], 1)


@needs_kernel
def test_rebuild_deletes_the_older_library(tmp_path):
    package = tmp_path / "steptardy"
    shutil.copytree(
        Path(neighborhoods.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )

    def import_copy():
        proc = subprocess.run(
            [sys.executable, "-c",
             "from steptardy import neighborhoods as m; assert m._kernel, m._KERNEL_ERROR"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return sorted(path.name for path in (package / "__pycache__").glob("_kernel-*.so"))

    first = import_copy()
    assert len(first) == 1
    source = package / "_kernel.c"
    source.write_text(source.read_text() + "\n/* changed */\n")
    second = import_copy()
    assert len(second) == 1
    assert second != first
