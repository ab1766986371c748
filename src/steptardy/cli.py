"""Command-line interface.

Subcommands:
  gen          generate a random instance and write its JSON
  eval         evaluate a given sequence against an instance
  solve        run one method on one instance
  bench        run a benchmark described by a config file
  export-milp  write the integer-programming model as an LP file

All results go to stdout (or the requested output file); wall-clock timings
and diagnostics go to stderr, so stdout is byte-identical across repeated
invocations with the same flags and seeds.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core import evaluate_schedule, instance_to_json, load_instance
from .exact import DEFAULT_BRUTE_FORCE_CAP, branch_and_bound, brute_force
from .generator import GenSpec, generate_instance
from .harness import METHODS, ExperimentConfig, render_markdown, run_benchmark
from .metaheuristics import SearchParams, gvns, vns
from .milp import build_model, export_lp
from .swsp import SwspParams, swsp


def _parse_sequence(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace("\n", ",").split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse sequence {text!r}; expected comma-separated integers")


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    t0 = time.perf_counter()
    if args.method == "exact":
        res = brute_force(instance, n_cap=args.brute_cap)
        extra = [f"optima {res.optimal_set_size}"]
    elif args.method == "bb":
        res = branch_and_bound(instance)
        extra = [f"labels {res.nodes_explored}", f"proven {str(res.proven).lower()}"]
    elif args.method == "swsp":
        params = SwspParams(
            w1_min=args.w1_min,
            w1_max=args.w1_max,
            w2_min=args.w2_min,
            w2_max=args.w2_max,
            w3_fallback=args.w3_fallback,
            swap_until_fixpoint=args.swap_until_fixpoint,
        )
        res = swsp(instance, params)
        extra = [f"iterations {res.iterations}"]
    else:
        params = SearchParams(
            iter_max=args.iter_max, iter_nip=args.iter_nip, gamma=args.gamma, seed=args.seed
        )
        res = (gvns if args.method == "gvns" else vns)(instance, params)
        extra = [f"iterations {res.iterations}", f"perturbations {res.perturbations}",
                 f"seed {res.seed}"]
    elapsed = time.perf_counter() - t0
    sequence = ",".join(map(str, res.best_sequence))
    print("\n".join([f"value {res.best_value}", f"sequence {sequence}", *extra]))
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
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
        with open(args.markdown, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_markdown(report.rows))
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
    gen.add_argument("--tau", type=float, default=0.5, help="penalty interval factor")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
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
    solve.add_argument("--seed", type=int, default=0, help="run seed (vns/gvns)")
    solve.add_argument("--iter-max", type=int, default=500, help="iteration budget")
    solve.add_argument("--iter-nip", type=int, default=150,
                       help="non-improving iteration budget")
    solve.add_argument("--gamma", type=int, default=None,
                       help="iterations without improvement before perturbing"
                            " (default: iter-nip / 2)")
    solve.add_argument("--brute-cap", type=int, default=DEFAULT_BRUTE_FORCE_CAP,
                       help="size cap for exact enumeration")
    solve.add_argument("--w1-min", type=float, default=0.2, help="swsp weight bound")
    solve.add_argument("--w1-max", type=float, default=0.9, help="swsp weight bound")
    solve.add_argument("--w2-min", type=float, default=0.1, help="swsp weight bound")
    solve.add_argument("--w2-max", type=float, default=0.7, help="swsp weight bound")
    solve.add_argument("--w3-fallback", type=float, default=0.1,
                       help="swsp third weight when 1 - w1 - w2 <= 0")
    solve.add_argument("--swap-until-fixpoint", action="store_true",
                       help="repeat the swsp swap pass until it stops improving")
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
