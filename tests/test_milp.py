import random
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import Bounds
from scipy.optimize import LinearConstraint as SciLinearConstraint
from scipy.optimize import milp as scipy_milp

from steptardy import (
    Instance,
    Job,
    big_m,
    brute_force,
    build_model,
    evaluate_schedule,
    export_lp,
)
from steptardy.milp import assignment_from_schedule, constraint_violations, objective_value

from conftest import DATA_DIR, make_instance, random_instance


def solve_with_highs(model):
    """Independent optimum of the model via scipy's HiGHS MILP solver."""
    variables = list(model.binaries) + list(model.continuous)
    index = {v: i for i, v in enumerate(variables)}
    cost = np.zeros(len(variables))
    for var in model.objective:
        cost[index[var]] = 1.0
    rows = np.zeros((len(model.constraints), len(variables)))
    lower = np.empty(len(model.constraints))
    upper = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for coef, var in con.terms:
            rows[r, index[var]] = coef
        upper[r] = con.rhs
        lower[r] = con.rhs if con.sense == "=" else -np.inf
    binary = set(model.binaries)
    integrality = np.array([1 if v in binary else 0 for v in variables])
    var_upper = np.array([1.0 if v in binary else np.inf for v in variables])
    result = scipy_milp(
        c=cost,
        constraints=SciLinearConstraint(rows, lower, upper),
        integrality=integrality,
        bounds=Bounds(lb=np.zeros(len(variables)), ub=var_upper),
    )
    assert result.status == 0, result.message
    return round(result.fun)


class TestBigM:
    def test_reference_instance(self, demo8):
        assert big_m(demo8) == 1152  # max d 461 + work 434 + penalties 257

    def test_single_job(self):
        assert big_m(make_instance([(1, 0, 0, 0)])) == 1

    def test_two_identical_jobs(self):
        assert big_m(make_instance([(1, 1, 5, 0), (1, 1, 5, 0)])) == 9

    def test_invalid_instance_rejected(self):
        with pytest.raises(ValueError, match="invalid instance"):
            Instance(jobs=(Job(id=1, a=0, b=0, d=0, h=0),))


class TestBuildModel:
    def test_two_job_shape(self):
        model = build_model(make_instance([(3, 0, 3, 10), (1, 0, 1, 10)]))
        y = [v for v in model.binaries if v.startswith("y_")]
        z = [v for v in model.binaries if v.startswith("z_")]
        assert len(y) == 2
        assert len(z) == 2
        assert len([v for v in model.continuous if v.startswith("s_")]) == 2
        assert len([v for v in model.continuous if v.startswith("T_")]) == 2
        kinds = {}
        for con in model.constraints:
            kinds.setdefault(con.name.split("_")[0], []).append(con)
        assert len(kinds["pair"]) == 1
        assert len(kinds["order"]) == 2
        assert len(kinds["step"]) == 2
        assert len(kinds["tard"]) == 2

    def test_reference_instance_counts(self, demo8):
        model = build_model(demo8)
        assert sum(1 for v in model.binaries if v.startswith("y_")) == 56
        assert sum(1 for v in model.binaries if v.startswith("z_")) == 8
        assert model.big_m == 1152
        pair = [c for c in model.constraints if c.name.startswith("pair_")]
        assert len(pair) == 28

    def test_invalid_instance_rejected(self):
        with pytest.raises(ValueError, match="invalid instance"):
            Instance(jobs=(Job(id=2, a=1, b=0, d=0, h=0),))

    def test_reference_schedule_is_feasible_with_matching_objective(self, demo8):
        model = build_model(demo8)
        schedule = evaluate_schedule(demo8, [3, 2, 4, 1, 5, 7, 8, 6])
        assignment = assignment_from_schedule(demo8, schedule)
        assert constraint_violations(model, assignment) == []
        assert objective_value(model, assignment) == 575

    def test_every_permutation_agrees_with_the_evaluator(self):
        rng = random.Random(404)
        for _ in range(5):
            instance = random_instance(rng, rng.randint(2, 5))
            model = build_model(instance)
            for perm in permutations(range(1, instance.n + 1)):
                schedule = evaluate_schedule(instance, perm)
                assignment = assignment_from_schedule(instance, schedule)
                assert constraint_violations(model, assignment) == []
                assert objective_value(model, assignment) == schedule.total


class TestExportLp:
    def test_single_job_text(self):
        instance = make_instance([(5, 3, 100, 0)])
        text = export_lp(build_model(instance))
        assert " obj: T_1" in text
        assert "y_" not in text
        assert text.startswith("Minimize\n")
        assert text.endswith("End\n")

    def test_sections_present(self, demo8):
        text = export_lp(build_model(demo8))
        for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            assert f"{section}\n" in text or text.endswith(f"{section}\n")

    def test_golden_two_jobs(self):
        instance = make_instance([(3, 0, 3, 10), (1, 0, 1, 10)], name="two")
        golden = (DATA_DIR / "model_n2.lp").read_text(encoding="utf-8")
        assert export_lp(build_model(instance)) == golden

    def test_golden_single_job(self):
        instance = make_instance([(5, 3, 100, 0)], name="one")
        golden = (DATA_DIR / "model_n1.lp").read_text(encoding="utf-8")
        assert export_lp(build_model(instance)) == golden

    def test_golden_reference_instance(self, demo8):
        golden = (DATA_DIR / "model_demo8.lp").read_text(encoding="utf-8")
        assert export_lp(build_model(demo8)) == golden

    def test_byte_identical_across_builds(self, demo8):
        assert export_lp(build_model(demo8)) == export_lp(build_model(demo8))


class TestExternalSolverAgreement:
    def test_reference_instance_optimum(self, demo8):
        assert solve_with_highs(build_model(demo8)) == 572

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2023)
        for _ in range(4):
            instance = random_instance(rng, rng.randint(2, 6))
            assert solve_with_highs(build_model(instance)) == brute_force(instance).best_value
