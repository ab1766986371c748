"""Single-machine total-tardiness scheduling with step-deteriorating jobs.

Library layout:

- ``core``: validated domain types, schedule evaluator, instance JSON format
- ``milp``: 0-1 integer programming model and LP-file export
- ``exact``: brute-force oracle and branch and bound for small instances
- ``swsp``: weighted-search constructive heuristic with swap improvement
- ``neighborhoods``: local-search operators, shaking and 3-opt perturbation
- ``metaheuristics``: GVNS and VNS with EDD initialization
- ``generator``: random benchmark instances by group
- ``harness``: the method list, metrics, benchmark runs, CSV reports
- ``cli``: the ``steptardy`` command (``bench --config`` runs experiments)
"""

from .core import (
    Instance,
    Job,
    RunResult,
    ScheduleResult,
    check_dominance,
    evaluate_schedule,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    total_tardiness,
)
from .exact import OptimalResult, branch_and_bound, brute_force, prefix_lower_bound
from .generator import GenSpec, generate_instance, generate_suite, reference_makespan
from .harness import ExperimentConfig, ReportRow, mad, rpd, run_benchmark
from .metaheuristics import SearchParams, edd_sequence, gvns, vnd, vns
from .milp import MilpModel, big_m, build_model, export_lp
from .neighborhoods import (
    NEIGHBORHOOD_IDS,
    descend,
    perturb_three_opt,
    shake,
    two_opt_move,
)
from .swsp import WeightTriple, greedy_construct, pairwise_swap_pass, swsp, weight_grid

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GenSpec",
    "Instance",
    "Job",
    "MilpModel",
    "NEIGHBORHOOD_IDS",
    "OptimalResult",
    "ReportRow",
    "RunResult",
    "ScheduleResult",
    "SearchParams",
    "WeightTriple",
    "big_m",
    "branch_and_bound",
    "brute_force",
    "build_model",
    "check_dominance",
    "descend",
    "edd_sequence",
    "evaluate_schedule",
    "export_lp",
    "generate_instance",
    "generate_suite",
    "greedy_construct",
    "gvns",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "mad",
    "pairwise_swap_pass",
    "perturb_three_opt",
    "prefix_lower_bound",
    "reference_makespan",
    "rpd",
    "run_benchmark",
    "save_instance",
    "shake",
    "swsp",
    "total_tardiness",
    "two_opt_move",
    "vnd",
    "vns",
    "weight_grid",
]
