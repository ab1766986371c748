"""Neighborhood operators over job sequences.

Five neighborhood structures are provided, identified by the integers 1..5:

1. swap: exchange the jobs at two positions
2. insertion: move one job to another position
3. pairwise exchange: exchange two disjoint adjacent couples
4. couple insertion: move an adjacent couple to another couple position
5. two-opt: reverse the segment between two positions at least 3 apart

``descend`` runs a first-improvement local search to a fixpoint of one
neighborhood, ``shake`` applies a single uniformly random move, and
``perturb_three_opt`` cuts the sequence at three points and reorders the
trailing fragments without reversing any of them.

The scanners are the package's hot path and are written as flat loops over
prefix sums of the incumbent: a candidate move re-simulates only its
affected window, bails out as soon as the accumulated tardiness reaches the
incumbent total, and hands the unchanged tail to ``_tail_eval`` which reads
the remaining tardiness off the prefix sums once the completion time
re-synchronizes.

``_kernel.c`` is a line-for-line int64 port of those scanners and of the
descent loop, and of SWSP's weighted search and swap pass (see ``swsp``).
On first import it is compiled with the C compiler Python was built with
into this package's ``__pycache__``, under a name keyed by the hash of its
source, the compile flags and the interpreter, and loaded with ctypes.
``descend`` runs it whenever it loaded and the instance has integer values
small enough for int64 (``Instance._int64_rows``); otherwise it runs the
Python scanners, which stay the reference.  Both return the same sequence.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import sys
import warnings
from itertools import permutations
from pathlib import Path
from random import Random
from typing import Sequence

from .core import Instance, _check_permutation

SWAP = 1
INSERTION = 2
PAIR_EXCHANGE = 3
COUPLE_INSERTION = 4
TWO_OPT = 5
NEIGHBORHOOD_IDS = (SWAP, INSERTION, PAIR_EXCHANGE, COUPLE_INSERTION, TWO_OPT)

_FRAGMENT_ORDERS = tuple(p for p in permutations((0, 1, 2)) if p != (0, 1, 2))


def _prefix_state(seq, a, ab, d, h):
    """Completion and cumulative-tardiness prefixes; index k covers k jobs."""
    C = [0]
    TS = [0]
    c = 0
    t = 0
    for x in seq:
        c += a[x] if c <= h[x] else ab[x]
        if c > d[x]:
            t += c - d[x]
        C.append(c)
        TS.append(t)
    return C, TS


def _tail_eval(seq, a, ab, d, h, C, TS, k, c, t, total, n):
    """Finish a candidate over the unchanged positions k..n-1.

    Returns the candidate total when it strictly beats ``total``, else -1.
    Start times only push completions (and hence tardiness) later, so a
    candidate entering the tail no earlier than the incumbent accrues at
    least the incumbent's remaining tardiness: that bound settles almost
    every candidate without walking the tail.
    """
    if c >= C[k]:
        if c == C[k]:
            t += TS[n] - TS[k]
            return t if t < total else -1
        if t + TS[n] - TS[k] >= total:
            return -1
    while k < n:
        x = seq[k]
        c += a[x] if c <= h[x] else ab[x]
        if c > d[x]:
            t += c - d[x]
            if t >= total:
                return -1
        k += 1
        if c == C[k]:
            t += TS[n] - TS[k]
            break
    return t if t < total else -1


def _scan_swap(seq, a, ab, d, h, C, TS, total):
    n = len(seq)
    for i in range(n - 1):
        c0 = C[i]
        t0 = TS[i]
        xi = seq[i]
        for j in range(i + 1, n):
            xj = seq[j]
            c = c0 + (a[xj] if c0 <= h[xj] else ab[xj])
            t = t0 + (c - d[xj] if c > d[xj] else 0)
            if t >= total:
                continue
            bail = False
            for k in range(i + 1, j):
                x = seq[k]
                c += a[x] if c <= h[x] else ab[x]
                if c > d[x]:
                    t += c - d[x]
                    if t >= total:
                        bail = True
                        break
            if bail:
                continue
            c += a[xi] if c <= h[xi] else ab[xi]
            if c > d[xi]:
                t += c - d[xi]
                if t >= total:
                    continue
            if _tail_eval(seq, a, ab, d, h, C, TS, j + 1, c, t, total, n) >= 0:
                new = list(seq)
                new[i], new[j] = new[j], new[i]
                return new
    return None


def _scan_insertion(seq, a, ab, d, h, C, TS, total):
    n = len(seq)
    for i in range(n):
        xi = seq[i]
        a_xi = a[xi]
        ab_xi = ab[xi]
        d_xi = d[xi]
        h_xi = h[xi]
        for j in range(i):
            c = C[j]
            t = TS[j]
            c += a_xi if c <= h_xi else ab_xi
            if c > d_xi:
                t += c - d_xi
                if t >= total:
                    continue
            bail = False
            for k in range(j, i):
                x = seq[k]
                c += a[x] if c <= h[x] else ab[x]
                if c > d[x]:
                    t += c - d[x]
                    if t >= total:
                        bail = True
                        break
            if bail:
                continue
            if _tail_eval(seq, a, ab, d, h, C, TS, i + 1, c, t, total, n) >= 0:
                new = list(seq)
                x = new.pop(i)
                new.insert(j, x)
                return new
        # targets after i share the window prefix seq[i+1..j]; its tardiness
        # only grows with j, so one running state serves the whole row
        c_run = C[i]
        t_run = TS[i]
        for j in range(i + 1, n):
            x = seq[j]
            c_run += a[x] if c_run <= h[x] else ab[x]
            if c_run > d[x]:
                t_run += c_run - d[x]
                if t_run >= total:
                    break
            c = c_run + (a_xi if c_run <= h_xi else ab_xi)
            t = t_run + (c - d_xi if c > d_xi else 0)
            if t >= total:
                continue
            if _tail_eval(seq, a, ab, d, h, C, TS, j + 1, c, t, total, n) >= 0:
                new = list(seq)
                x = new.pop(i)
                new.insert(j, x)
                return new
    return None


def _scan_pair_exchange(seq, a, ab, d, h, C, TS, total):
    n = len(seq)
    for i in range(n - 3):
        c0 = C[i]
        t0 = TS[i]
        xi = seq[i]
        xi1 = seq[i + 1]
        for j in range(i + 2, n - 1):
            xj = seq[j]
            xj1 = seq[j + 1]
            c = c0 + (a[xj] if c0 <= h[xj] else ab[xj])
            t = t0 + (c - d[xj] if c > d[xj] else 0)
            if t >= total:
                continue
            c += a[xj1] if c <= h[xj1] else ab[xj1]
            if c > d[xj1]:
                t += c - d[xj1]
                if t >= total:
                    continue
            bail = False
            for k in range(i + 2, j):
                x = seq[k]
                c += a[x] if c <= h[x] else ab[x]
                if c > d[x]:
                    t += c - d[x]
                    if t >= total:
                        bail = True
                        break
            if bail:
                continue
            c += a[xi] if c <= h[xi] else ab[xi]
            if c > d[xi]:
                t += c - d[xi]
                if t >= total:
                    continue
            c += a[xi1] if c <= h[xi1] else ab[xi1]
            if c > d[xi1]:
                t += c - d[xi1]
                if t >= total:
                    continue
            if _tail_eval(seq, a, ab, d, h, C, TS, j + 2, c, t, total, n) >= 0:
                new = list(seq)
                new[i], new[i + 1], new[j], new[j + 1] = (
                    new[j],
                    new[j + 1],
                    new[i],
                    new[i + 1],
                )
                return new
    return None


def _scan_couple_insertion(seq, a, ab, d, h, C, TS, total):
    n = len(seq)
    for i in range(n - 1):
        xi = seq[i]
        xi1 = seq[i + 1]
        for j in range(i):
            c = C[j]
            t = TS[j]
            c += a[xi] if c <= h[xi] else ab[xi]
            if c > d[xi]:
                t += c - d[xi]
                if t >= total:
                    continue
            c += a[xi1] if c <= h[xi1] else ab[xi1]
            if c > d[xi1]:
                t += c - d[xi1]
                if t >= total:
                    continue
            bail = False
            for k in range(j, i):
                x = seq[k]
                c += a[x] if c <= h[x] else ab[x]
                if c > d[x]:
                    t += c - d[x]
                    if t >= total:
                        bail = True
                        break
            if bail:
                continue
            if _tail_eval(seq, a, ab, d, h, C, TS, i + 2, c, t, total, n) >= 0:
                new = list(seq)
                couple = new[i : i + 2]
                del new[i : i + 2]
                new[j:j] = couple
                return new
        # targets after i share the window prefix seq[i+2..j+1], carried the
        # same way as in the insertion scan
        c_run = C[i]
        t_run = TS[i]
        for j in range(i + 1, n - 1):
            x = seq[j + 1]
            c_run += a[x] if c_run <= h[x] else ab[x]
            if c_run > d[x]:
                t_run += c_run - d[x]
                if t_run >= total:
                    break
            c = c_run + (a[xi] if c_run <= h[xi] else ab[xi])
            t = t_run + (c - d[xi] if c > d[xi] else 0)
            if t >= total:
                continue
            c += a[xi1] if c <= h[xi1] else ab[xi1]
            if c > d[xi1]:
                t += c - d[xi1]
                if t >= total:
                    continue
            if _tail_eval(seq, a, ab, d, h, C, TS, j + 2, c, t, total, n) >= 0:
                new = list(seq)
                couple = new[i : i + 2]
                del new[i : i + 2]
                new[j:j] = couple
                return new
    return None


def _scan_two_opt(seq, a, ab, d, h, C, TS, total):
    n = len(seq)
    for i in range(n - 3):
        c0 = C[i + 1]
        t0 = TS[i + 1]
        for j in range(i + 3, n):
            c = c0
            t = t0
            bail = False
            for k in range(j, i, -1):
                x = seq[k]
                c += a[x] if c <= h[x] else ab[x]
                if c > d[x]:
                    t += c - d[x]
                    if t >= total:
                        bail = True
                        break
            if bail:
                continue
            if _tail_eval(seq, a, ab, d, h, C, TS, j + 1, c, t, total, n) >= 0:
                new = list(seq)
                new[i + 1 : j + 1] = new[i + 1 : j + 1][::-1]
                return new
    return None


_SCANNERS = {
    SWAP: _scan_swap,
    INSERTION: _scan_insertion,
    PAIR_EXCHANGE: _scan_pair_exchange,
    COUPLE_INSERTION: _scan_couple_insertion,
    TWO_OPT: _scan_two_opt,
}


_KERNEL_FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _build_kernel(source, library, failure):
    """Compile ``source`` into ``library`` with the compiler Python was built
    with, or write the compiler's stderr to ``failure``; then delete every
    other build and failure."""
    import subprocess
    import sysconfig
    import tempfile

    command = (sysconfig.get_config_var("CC") or "cc").split() + _KERNEL_FLAGS
    library.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(fd)
    try:
        build = subprocess.run(command + ["-o", tmp, str(source)], capture_output=True, text=True)
        if build.returncode != 0:
            Path(tmp).write_text(f"{' '.join(command)} failed:\n{build.stderr}")
        built = library if build.returncode == 0 else failure
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


def _load_kernel():
    """Compile ``_kernel.c`` on a cache miss, delete older builds, and load it.

    Returns (the library, None), or (None, the reason it is missing: the
    compiler's stderr or the loader's error).  A failed build leaves its
    stderr in ``_kernel-<key>.err``, which later imports report without
    running the compiler again.  The key covers the source, the flags and
    the interpreter, so a change to any of them builds afresh.
    """
    source = Path(__file__).with_name("_kernel.c")
    # The compiler is a build-time constant of the interpreter, so the
    # interpreter's identity stands in for it: a cache hit needs no
    # sysconfig, whose table would stay resident (~0.5 MB) for one string.
    identity = " ".join([sys.base_prefix, sys.version, *_KERNEL_FLAGS])
    try:
        key = hashlib.sha256(source.read_bytes() + identity.encode()).hexdigest()
        library = source.parent / "__pycache__" / f"_kernel-{key[:16]}.so"
        failure = library.with_suffix(".err")
        if not (library.exists() or failure.exists()):
            _build_kernel(source, library, failure)
        if not library.exists():
            return None, failure.read_text()
        kernel = ctypes.CDLL(str(library))
        i64, seq, rows = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p
        for name, argtypes, restype in (
            ("steptardy_descend", (rows, i64, seq, ctypes.c_int), ctypes.c_int),
            ("steptardy_weighted_search",
             (rows, i64, ctypes.POINTER(ctypes.c_double), i64, seq, seq), ctypes.c_int),
            ("steptardy_pairwise_swap_pass", (rows, i64, seq), None),
        ):
            function = getattr(kernel, name)
            function.argtypes = argtypes
            function.restype = restype
    except (OSError, AttributeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return kernel, None


_kernel, _KERNEL_ERROR = _load_kernel()


def _descend_kernel(rows: bytes, sequence: Sequence[int], k: int) -> list[int]:
    """``descend`` in the C kernel over ``Instance._int64_rows``."""
    seq = (ctypes.c_int64 * len(sequence))(*sequence)
    if _kernel.steptardy_descend(rows, len(seq), seq, k) != 0:
        raise MemoryError("C kernel could not allocate its prefix arrays")
    return list(seq)


def _descend_python(instance: Instance, sequence: Sequence[int], k: int) -> list[int]:
    """``descend`` in the Python scanners: the reference and the fallback."""
    a, ab, d, h = instance._columns
    seq = list(sequence)
    scan = _SCANNERS[k]
    while True:
        C, TS = _prefix_state(seq, a, ab, d, h)
        improved = scan(seq, a, ab, d, h, C, TS, TS[-1])
        if improved is None:
            return seq
        seq = improved


def descend(instance: Instance, sequence: Sequence[int], k: int) -> list[int]:
    """First-improvement descent to a local optimum of neighborhood k.

    Moves are scanned in canonical index order; any strictly improving move
    is accepted immediately and the scan restarts.  Returns once a full scan
    finds no improvement, so the result admits no improving k-move.  A
    neighborhood that is empty for this sequence length acts as identity.
    """
    if k not in NEIGHBORHOOD_IDS:
        raise ValueError(f"unknown neighborhood {k}; expected one of {NEIGHBORHOOD_IDS}")
    _check_permutation(instance, sequence)
    # the kernel indexes its rows by job id, so only a checked permutation
    # may reach it
    rows = instance._int64_rows if _kernel is not None else None
    if rows is None:
        return _descend_python(instance, sequence, k)
    return _descend_kernel(rows, sequence, k)


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
    new = list(sequence)
    new[lo:hi] = new[lo:hi][::-1]
    return new


def shake(sequence: Sequence[int], k: int, rng: Random) -> list[int]:
    """Apply one uniformly random move of neighborhood k.

    Sequences too short for the neighborhood are returned unchanged; in
    every other case the result differs from the input.
    """
    if k not in NEIGHBORHOOD_IDS:
        raise ValueError(f"unknown neighborhood {k}; expected one of {NEIGHBORHOOD_IDS}")
    seq = list(sequence)
    n = len(seq)
    if k == SWAP:
        if n < 2:
            return seq
        i, j = rng.sample(range(n), 2)
        seq[i], seq[j] = seq[j], seq[i]
    elif k == INSERTION:
        if n < 2:
            return seq
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        x = seq.pop(i)
        seq.insert(j, x)
    elif k == PAIR_EXCHANGE:
        if n < 4:
            return seq
        pairs = [(i, j) for i in range(n - 3) for j in range(i + 2, n - 1)]
        i, j = rng.choice(pairs)
        seq[i], seq[i + 1], seq[j], seq[j + 1] = seq[j], seq[j + 1], seq[i], seq[i + 1]
    elif k == COUPLE_INSERTION:
        if n < 3:
            return seq
        i = rng.randrange(n - 1)
        j = rng.randrange(n - 2)
        if j >= i:
            j += 1
        couple = seq[i : i + 2]
        del seq[i : i + 2]
        seq[j:j] = couple
    else:  # TWO_OPT
        if n < 4:
            return seq
        pairs = [(i, j) for i in range(n - 3) for j in range(i + 3, n)]
        i, j = rng.choice(pairs)
        seq[i + 1 : j + 1] = seq[i + 1 : j + 1][::-1]
    return seq


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
