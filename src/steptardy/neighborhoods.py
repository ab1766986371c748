"""Neighborhood operators over job sequences.

Five neighborhood structures are provided, identified by the integers 1..5:

1. swap: exchange the jobs at two positions
2. insertion: move one job to another position
3. pairwise exchange: exchange two disjoint adjacent couples
4. couple insertion: move an adjacent couple to another couple position
5. two-opt: reverse the segment between two positions at least 3 apart

The first four are two move shapes over a block of ``_BLOCK[k]`` = L
adjacent jobs: swap and pairwise exchange exchange two disjoint blocks, and
insertion and couple insertion shift one block to another start, with
L = 1 and L = 2 respectively.

``descend`` runs a first-improvement local search to a fixpoint of one
neighborhood, ``shake`` applies a single uniformly random move, and
``perturb_three_opt`` cuts the sequence at three points and reorders the
trailing fragments without reversing any of them.  ``_local_search``
descends through several neighborhoods in a given order, each to its
fixpoint in turn, and returns the total tardiness with the sequence: it is
``descend`` for one neighborhood, ``vnd`` for an order of all five, and the
local search of every ``gvns`` and ``vns`` iteration.

``_moves`` lists a neighborhood's moves in the canonical scan order and
``_apply`` makes one; together they define every neighborhood.  A descent,
by definition, takes the first move in that order whose result has a
strictly lower total tardiness, and repeats until none has.

``_kernel.c`` runs that descent in int64 with one pruned scan per move
shape, each keeping the same first improving move (its comments say why),
and also SWSP's weighted search and swap pass (see ``swsp``) and the exact
DP (see ``exact``).  On first import it is compiled, with the C compiler
Python was built with and Python's headers, into this package's
``__pycache__`` under a name keyed by the hash of its source, the compile
flags and the interpreter, and imported as the extension module
``steptardy._kernel``: its functions take and return lists of ints.
``_local_search`` runs the whole chain of descents in one
``_kernel.descend`` call whenever the kernel loaded and the instance has
integer values small enough for int64 (``Instance._int64_rows``);
otherwise it runs ``_descend_python``, the definition itself, which stays
the reference, for each neighborhood in turn.  Both return the same
sequence and total.  Given a search's incumbent and the neighborhoods it
is a known local optimum of, the kernel also skips each scan that could
only repeat one already done.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import warnings
from functools import lru_cache
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from itertools import permutations
from pathlib import Path
from random import Random
from typing import Sequence

from .core import Instance, _check_permutation, total_tardiness

SWAP = 1
INSERTION = 2
PAIR_EXCHANGE = 3
COUPLE_INSERTION = 4
TWO_OPT = 5
NEIGHBORHOOD_IDS = (SWAP, INSERTION, PAIR_EXCHANGE, COUPLE_INSERTION, TWO_OPT)
# the block length L of each neighborhood that exchanges or shifts blocks
_BLOCK = {SWAP: 1, INSERTION: 1, PAIR_EXCHANGE: 2, COUPLE_INSERTION: 2}
_EXCHANGES = (SWAP, PAIR_EXCHANGE)

_FRAGMENT_ORDERS = tuple(p for p in permutations((0, 1, 2)) if p != (0, 1, 2))


def _check_neighborhood(k) -> None:
    """Refuse anything but a neighborhood id, an int in ``NEIGHBORHOOD_IDS``:
    a bool or a float that compares equal to one is refused too."""
    if not (type(k) is int and k in NEIGHBORHOOD_IDS):
        raise ValueError(f"unknown neighborhood {k!r}; expected one of {NEIGHBORHOOD_IDS}")


@lru_cache(maxsize=64)
def _moves(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Every move (i, j) of neighborhood k on n jobs, in canonical scan order.

    Positions are 0-based; ``_apply`` gives each move's meaning.  The tuple is
    empty when n is too short for the neighborhood.  It is cached per (k, n),
    up to a bound, because ``shake`` draws one move from it per call.
    """
    if k == TWO_OPT:
        return tuple((i, j) for i in range(n - 3) for j in range(i + 3, n))
    block = _BLOCK[k]
    m = n + 1 - block  # the positions a block can start at
    if k in _EXCHANGES:
        return tuple((i, j) for i in range(m - block) for j in range(i + block, m))
    return tuple((i, j) for i in range(m) for j in range(m) if j != i)


def _apply(sequence: Sequence[int], k: int, i: int, j: int) -> list[int]:
    """A copy of the sequence after move (i, j) of neighborhood k.

    With L = ``_BLOCK[k]``: swap and pairwise exchange exchange the blocks
    of L jobs at i and j; insertion and couple insertion move the block at i
    so that it starts at j; two-opt reverses i+1..j.
    """
    new = list(sequence)
    if k == TWO_OPT:
        new[i + 1 : j + 1] = new[i + 1 : j + 1][::-1]
        return new
    block = _BLOCK[k]
    if k in _EXCHANGES:
        new[i : i + block], new[j : j + block] = new[j : j + block], new[i : i + block]
    else:
        moved = new[i : i + block]
        del new[i : i + block]
        new[j:j] = moved
    return new


# -ffp-contract=off: a fused multiply-add (GCC's default where the target
# has one, as on aarch64) rounds once where Python rounds twice, so an SWSP
# score, and then a sequence, could differ from the Python code's
_KERNEL_FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _kernel_command() -> list[str]:
    """The command that compiles ``_kernel.c``, without its input and output:
    the compiler Python was built with, ``_KERNEL_FLAGS`` and the directory
    of Python's headers."""
    import sysconfig

    compiler = (sysconfig.get_config_var("CC") or "cc").split()
    return [*compiler, *_KERNEL_FLAGS, "-I" + sysconfig.get_paths()["include"]]


def _build_kernel(source, library, failure):
    """Compile ``source`` into ``library`` with ``_kernel_command``, or write
    why that failed (the compiler's stderr, or why it did not start) to
    ``failure``; then delete every other build and failure."""
    import subprocess
    import tempfile

    command = _kernel_command()
    library.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(fd)
    try:
        try:
            build = subprocess.run(command + ["-o", tmp, str(source)], capture_output=True, text=True)
            error = build.stderr if build.returncode != 0 else None
        except OSError as exc:  # no compiler: recorded like a failed build
            error = f"{exc}\n"
        if error is not None:
            Path(tmp).write_text(f"{' '.join(command)} failed:\n{error}")
        built = library if error is None else failure
        # a concurrent import sees either no file or a whole one
        os.replace(tmp, built)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # older builds are never read again; one left behind does no harm
    for stale in [*library.parent.glob("_kernel-*.so"), *library.parent.glob("_kernel-*.err")]:
        if stale != built:
            with contextlib.suppress(OSError):
                stale.unlink()


def _import_kernel(library):
    """The extension module built at ``library``, imported as
    ``steptardy._kernel`` (its init function is ``PyInit__kernel``)."""
    loader = ExtensionFileLoader("steptardy._kernel", str(library))
    kernel = loader.create_module(ModuleSpec(loader.name, loader, origin=loader.path))
    loader.exec_module(kernel)
    return kernel


def _load_kernel():
    """Compile ``_kernel.c`` on a cache miss, delete older builds, and import it.

    Returns (the module, None), or (None, the reason it is missing: the
    compiler's stderr or the loader's error).  A failed build leaves its
    stderr in ``_kernel-<key>.err``, which later imports report without
    running the compiler again.  The key covers the source, the flags and
    the interpreter, so a change to any of them builds afresh.
    """
    source = Path(__file__).with_name("_kernel.c")
    # The compiler and the header directory are build-time constants of the
    # interpreter, so its identity stands in for them: a cache hit needs no
    # sysconfig, whose table would stay resident (~0.5 MB) for two strings.
    identity = " ".join([sys.base_prefix, sys.version, *_KERNEL_FLAGS])
    try:
        key = hashlib.sha256(source.read_bytes() + identity.encode()).hexdigest()
        library = source.parent / "__pycache__" / f"_kernel-{key[:16]}.so"
        failure = library.with_suffix(".err")
        if not (library.exists() or failure.exists()):
            _build_kernel(source, library, failure)
        if not library.exists():
            return None, failure.read_text()
        return _import_kernel(library), None
    except (OSError, ImportError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


_kernel, _KERNEL_ERROR = _load_kernel()


def _kernel_rows(instance: Instance) -> bytes | None:
    """The instance's rows for the C kernel, or None when the Python code
    runs: the kernel did not load or the instance does not fit int64.  The
    kernel indexes its rows by job id, so a caller passes it only a checked
    permutation."""
    return instance._int64_rows if _kernel is not None else None


def _descend_python(instance: Instance, sequence: Sequence[int], k: int) -> list[int]:
    """``descend`` by its definition: the reference and the fallback."""
    seq = list(sequence)
    best = total_tardiness(instance, seq)
    moves = _moves(k, len(seq))
    while True:
        for i, j in moves:
            new = _apply(seq, k, i, j)
            value = total_tardiness(instance, new)
            if value < best:
                seq, best = new, value
                break
        else:
            return seq


def _local_search(
    instance: Instance,
    sequence: Sequence[int],
    order: Sequence[int],
    incumbent: Sequence[int] | None = None,
    proven: int = 0,
) -> tuple[list[int], int, int]:
    """Descend through the neighborhoods in ``order`` in turn, each to its
    fixpoint; returns the sequence, its total tardiness and ``proven``.

    ``proven`` has bit k - 1 set when ``incumbent``, a search's current
    sequence, is known to be a local optimum of neighborhood k.  A scan
    depends only on the instance, the sequence and k, so the kernel skips
    each scan of such a k while the sequence equals the incumbent, and
    returns ``proven`` with the bit of every scan at the incumbent that
    found nothing added; the caller zeroes it when its incumbent changes.
    The Python code ignores it and returns 0.

    The caller has checked that ``order`` holds neighborhood ids and that
    ``sequence`` is a permutation of the job ids: ``descend`` and ``vnd``
    check what they are given, and ``gvns`` and ``vns`` pass only sequences
    they made by moves from an EDD start, so their inner loop skips the
    check.
    """
    rows = _kernel_rows(instance)
    if rows is not None:
        return _kernel.descend(rows, sequence, order, incumbent, proven)
    seq = list(sequence)
    for k in order:
        seq = _descend_python(instance, seq, k)
    return seq, total_tardiness(instance, seq), 0


def descend(instance: Instance, sequence: Sequence[int], k: int) -> list[int]:
    """First-improvement descent to a local optimum of neighborhood k.

    Moves are scanned in canonical index order; any strictly improving move
    is accepted immediately and the scan restarts.  Returns once a full scan
    finds no improvement, so the result admits no improving k-move.  A
    neighborhood that is empty for this sequence length acts as identity.
    """
    _check_neighborhood(k)
    _check_permutation(instance, sequence)
    return _local_search(instance, sequence, (k,))[0]


def two_opt_move(sequence: Sequence[int], i: int, j: int) -> list[int]:
    """Reverse the segment strictly after min(i, j) through max(i, j).

    Positions are 1-based and must be at least three apart; the move is
    symmetric in i and j and is its own inverse.
    """
    n = len(sequence)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions must lie in 1..{n}")
    lo, hi = min(i, j), max(i, j)
    if hi - lo < 3:
        raise ValueError("two-opt positions must be at least three apart")
    return _apply(sequence, TWO_OPT, lo - 1, hi - 1)


def shake(sequence: Sequence[int], k: int, rng: Random) -> list[int]:
    """Apply one uniformly random move of neighborhood k.

    Sequences too short for the neighborhood are returned unchanged; in
    every other case the result differs from the input.
    """
    _check_neighborhood(k)
    n = len(sequence)
    if k == SWAP:
        if n < 2:
            return list(sequence)
        i, j = rng.sample(range(n), 2)
    elif k in (INSERTION, COUPLE_INSERTION):
        # a job or couple can start at any of m positions; draw two distinct
        m = n + 1 - _BLOCK[k]
        if m < 2:
            return list(sequence)
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
    else:  # PAIR_EXCHANGE, TWO_OPT
        moves = _moves(k, n)
        if not moves:
            return list(sequence)
        i, j = rng.choice(moves)
    return _apply(sequence, k, i, j)


def reassemble_fragments(
    sequence: Sequence[int], cuts: tuple[int, int, int], order: tuple[int, int, int]
) -> list[int]:
    """Cut after the 1-based positions in ``cuts`` and reorder the fragments.

    The fragment before the first cut stays anchored at the front; the three
    remaining fragments are concatenated in ``order`` (a permutation of
    (0, 1, 2)), each keeping its internal direction.
    """
    n = len(sequence)
    c1, c2, c3 = cuts
    if not 1 <= c1 < c2 < c3 <= n - 1:
        raise ValueError(f"cuts {cuts} must satisfy 1 <= c1 < c2 < c3 <= {n - 1}")
    if sorted(order) != [0, 1, 2]:
        raise ValueError(f"order {order} must be a permutation of (0, 1, 2)")
    seq = list(sequence)
    frags = [seq[c1:c2], seq[c2:c3], seq[c3:]]
    return seq[:c1] + frags[order[0]] + frags[order[1]] + frags[order[2]]


def perturb_three_opt(sequence: Sequence[int], rng: Random) -> list[int]:
    """Random three-cut perturbation preserving fragment directions.

    Three distinct cut positions are drawn uniformly, then the trailing
    three fragments are reordered by a uniformly random non-identity
    permutation.  Needs at least 4 jobs; shorter sequences are returned
    unchanged with a warning.
    """
    seq = list(sequence)
    n = len(seq)
    if n < 4:
        warnings.warn("three-opt perturbation needs n >= 4; sequence returned unchanged")
        return seq
    cuts = tuple(sorted(rng.sample(range(1, n), 3)))
    order = rng.choice(_FRAGMENT_ORDERS)
    return reassemble_fragments(seq, cuts, order)
