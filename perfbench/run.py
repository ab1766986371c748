#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload search-n25 --seed 0 --seconds 30 --trace 0

Run it from the repository root: it imports the package from ``src/``.
``--seed`` sets the order in which the workload's fixed solve list runs;
``--suite-seed`` (which instances) and ``--solve-seed`` (which search
trajectories) change the solves themselves and default to 0.  With
``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  The line before it is a record of
the run and the machine.  The process pins itself to one core and changes
no machine setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

WORKLOAD_NAMES = ("search-n25", "large-n50", "suite-small")


def git_sha(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(package: Path) -> str:
    """Hash of the package's Python sources, which names the code measured."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="order of the solve list")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int, default=0, help="instance suite seed")
    parser.add_argument("--solve-seed", type=int, default=0, help="metaheuristic seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "steptardy"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    load_before = os.getloadavg()
    result, record = workloads.run_workload(
        args.workload,
        order_seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        suite_seed=args.suite_seed,
        solve_seed=args.solve_seed,
    )
    record.update(
        git_sha=git_sha(root),
        src_digest=source_digest(package),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        affinity_allowed=allowed,
        affinity_used=sorted(os.sched_getaffinity(0)),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
