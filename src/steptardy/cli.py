"""Command-line interface.

Subcommands:
  gen          generate a random instance and write its JSON
  eval         evaluate a given sequence against an instance
  solve        run one method on one instance
  bench        run a benchmark described by a config file
  export-milp  write the integer-programming model as an LP file

All results go to stdout (or the requested output file); wall-clock timings
and diagnostics go to stderr, so stdout is byte-identical across repeated
invocations with the same flags and seeds.  ``solve`` takes a method, a
seed and the vns/gvns stopping rule, and like ``bench`` it re-evaluates the
reported sequence and fails on a value that differs.  The SWSP weight grid
and the GVNS neighborhoods and perturbation trigger are the paper's, and
they and the exact solvers' size caps are constants of the library.
"""

from __future__ import annotations

import argparse
import sys

from .core import evaluate_schedule, instance_to_json, load_instance, write_text
from .generator import GenSpec, generate_instance
from .harness import METHODS, ExperimentConfig, render_markdown, run_benchmark, solve
from .metaheuristics import SearchParams
from .milp import build_model, export_lp


def _parse_sequence(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace("\n", ",").split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse sequence {text!r}; expected comma-separated integers")


def _write_output(text: str, path: str | None) -> None:
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n, h_class=args.h_class, d_class=args.d_class, tau=args.tau, seed=args.seed
    )
    instance = generate_instance(spec)
    _write_output(instance_to_json(instance), args.out)
    return 0


def _cmd_eval(args) -> int:
    instance = load_instance(args.instance)
    if args.sequence_file:
        with open(args.sequence_file, encoding="utf-8") as fh:
            sequence = _parse_sequence(fh.read())
    else:
        sequence = _parse_sequence(args.sequence)
    result = evaluate_schedule(instance, sequence)
    print(result.total)
    return 0


def _search_lines(res) -> list[str]:
    return [f"iterations {res.iterations}", f"perturbations {res.perturbations}", f"seed {res.seed}"]


# the lines ``solve`` prints after the value and the sequence, by method
_SOLVE_LINES = {
    "bb": lambda res: [f"labels {res.nodes_explored}", f"proven {str(res.proven).lower()}"],
    "exact": lambda res: [f"optima {res.optimal_set_size}"],
    "gvns": _search_lines,
    "swsp": lambda res: [f"iterations {res.iterations}"],
    "vns": _search_lines,
}


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    params = SearchParams(iter_max=args.iter_max, iter_nip=args.iter_nip, seed=args.seed)
    res, seconds = solve(instance, args.method, params)
    sequence = ",".join(map(str, res.best_sequence))
    lines = [f"value {res.best_value}", f"sequence {sequence}", *_SOLVE_LINES[args.method](res)]
    print("\n".join(lines))
    print(f"elapsed {seconds:.2f}s", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    report = run_benchmark(config, zero_time=args.zero_time)
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    if config.output:
        print(f"wrote {config.output}")
    else:
        sys.stdout.write(report.csv_text)
    if args.markdown:
        write_text(args.markdown, render_markdown(report.rows))
    return 0


def _cmd_export_milp(args) -> int:
    instance = load_instance(args.instance)
    _write_output(export_lp(build_model(instance)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steptardy",
        description=(
            "Solvers and benchmarks for single-machine total-tardiness "
            "scheduling with step-deteriorating jobs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True, help="number of jobs")
    gen.add_argument("--h-class", type=int, choices=(1, 2, 3), required=True,
                     help="deteriorating-date interval class")
    gen.add_argument("--d-class", type=int, choices=(1, 2), required=True,
                     help="due-date interval class")
    gen.add_argument("--tau", type=float, default=GenSpec.tau, help="penalty interval factor")
    gen.add_argument("--seed", type=int, default=GenSpec.seed, help="generator seed")
    gen.add_argument("--out", help="output path (stdout when omitted)")
    gen.set_defaults(func=_cmd_gen)

    ev = sub.add_parser("eval", help="evaluate a sequence against an instance")
    ev.add_argument("--instance", required=True, help="instance JSON path")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--sequence", help="comma-separated job ids")
    group.add_argument("--sequence-file", help="file of comma-separated job ids")
    ev.set_defaults(func=_cmd_eval)

    solve = sub.add_parser("solve", help="run one method on one instance")
    solve.add_argument("--instance", required=True, help="instance JSON path")
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--seed", type=int, default=SearchParams.seed, help="run seed (vns/gvns)")
    solve.add_argument("--iter-max", type=int, default=SearchParams.iter_max,
                       help="iteration budget (vns/gvns)")
    solve.add_argument("--iter-nip", type=int, default=SearchParams.iter_nip,
                       help="non-improving iteration budget (vns/gvns); gvns perturbs"
                            " after iter-nip // 2")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a benchmark from a config file")
    bench.add_argument("--config", required=True, help="experiment config JSON path")
    bench.add_argument("--zero-time", action="store_true",
                       help="write 0.00 in the time column for reproducible bytes")
    bench.add_argument("--markdown", help="also render the report as a markdown table")
    bench.set_defaults(func=_cmd_bench)

    milp = sub.add_parser("export-milp", help="write the LP-format model")
    milp.add_argument("--instance", required=True, help="instance JSON path")
    milp.add_argument("--out", help="output path (stdout when omitted)")
    milp.set_defaults(func=_cmd_export_milp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
