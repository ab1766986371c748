"""0-1 integer programming model of the scheduling problem and LP export.

Variables: y_i_j = 1 when job i precedes job j (binary, one per ordered
pair), z_j = 1 when job j runs deteriorated (binary), s_j >= 0 start time,
T_j >= 0 tardiness.  Minimize sum T_j subject to

    s_j - M z_j        <= h_j                  (deterioration indicator)
    s_i + b_i z_i - s_j + M y_i_j <= M - a_i   (disjunctive ordering)
    y_i_j + y_j_i = 1                          (each pair is ordered)
    s_j + b_j z_j - T_j <= d_j - a_j           (tardiness definition)

with M = max_j d_j + sum_j (a_j + b_j).  The step function is linearized
one-sidedly: z_j is forced to 1 whenever s_j > h_j, and since setting z_j
to 1 only inflates completion times a minimizing solver never does so
gratuitously, so optimal values agree with the no-idle evaluator even
though the model admits idle time and over-deterioration at non-optimal
feasible points.

No solver is embedded; ``export_lp`` writes the model as LP-format text for
external tools.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ScheduleResult


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * var for coef, var in terms) <sense> rhs, sense in {<=, =}."""

    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    n: int
    big_m: int
    objective: tuple[str, ...]  # minimized, unit coefficients
    binaries: tuple[str, ...]
    continuous: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]


def big_m(instance: Instance) -> int:
    """The deactivation constant: max due date plus total deteriorated work."""
    return max(j.d for j in instance.jobs) + sum(j.a + j.b for j in instance.jobs)


def build_model(instance: Instance) -> MilpModel:
    """Construct the full model with deterministic variable and row order."""
    n = instance.n
    jobs = {job.id: job for job in instance.jobs}
    m = big_m(instance)

    ids = range(1, n + 1)
    y_vars = tuple(f"y_{i}_{j}" for i in ids for j in ids if i != j)
    z_vars = tuple(f"z_{j}" for j in ids)
    s_vars = tuple(f"s_{j}" for j in ids)
    t_vars = tuple(f"T_{j}" for j in ids)

    constraints: list[LinearConstraint] = []
    for i in ids:
        for j in ids:
            if i < j:
                constraints.append(
                    LinearConstraint(
                        name=f"pair_{i}_{j}",
                        terms=((1, f"y_{i}_{j}"), (1, f"y_{j}_{i}")),
                        sense="=",
                        rhs=1,
                    )
                )
    for i in ids:
        for j in ids:
            if i != j:
                constraints.append(
                    LinearConstraint(
                        name=f"order_{i}_{j}",
                        terms=(
                            (1, f"s_{i}"),
                            (jobs[i].b, f"z_{i}"),
                            (-1, f"s_{j}"),
                            (m, f"y_{i}_{j}"),
                        ),
                        sense="<=",
                        rhs=m - jobs[i].a,
                    )
                )
    for j in ids:
        constraints.append(
            LinearConstraint(
                name=f"step_{j}",
                terms=((1, f"s_{j}"), (-m, f"z_{j}")),
                sense="<=",
                rhs=jobs[j].h,
            )
        )
    for j in ids:
        constraints.append(
            LinearConstraint(
                name=f"tard_{j}",
                terms=((1, f"s_{j}"), (jobs[j].b, f"z_{j}"), (-1, f"T_{j}")),
                sense="<=",
                rhs=jobs[j].d - jobs[j].a,
            )
        )
    return MilpModel(
        n=n,
        big_m=m,
        objective=t_vars,
        binaries=y_vars + z_vars,
        continuous=s_vars + t_vars,
        constraints=tuple(constraints),
    )


def _terms_text(terms: tuple[tuple[int, str], ...]) -> str:
    parts = []
    for idx, (coef, var) in enumerate(terms):
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = var if mag == 1 else f"{mag} {var}"
        if idx == 0:
            parts.append(body if coef > 0 else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def export_lp(model: MilpModel) -> str:
    """LP-format text: Minimize / Subject To / Bounds / Binaries sections.

    Output is byte-identical across runs for the same instance (UTF-8, LF
    line endings, fixed variable order).
    """
    lines = ["Minimize", " obj: " + " + ".join(model.objective), "Subject To"]
    for con in model.constraints:
        lines.append(f" {con.name}: {_terms_text(con.terms)} {con.sense} {con.rhs}")
    lines.append("Bounds")
    for var in model.continuous:
        lines.append(f" {var} >= 0")
    lines.append("Binaries")
    for var in model.binaries:
        lines.append(f" {var}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def assignment_from_schedule(instance: Instance, schedule: ScheduleResult) -> dict[str, int]:
    """Model variable values induced by an evaluated schedule.

    y follows the schedule's job order, z marks jobs started after their
    deteriorating date, s and T copy the schedule.  The assignment is
    feasible in ``build_model(instance)`` and its objective equals the
    schedule total.
    """
    jobs = {job.id: job for job in instance.jobs}
    position = {job_id: pos for pos, job_id in enumerate(schedule.order)}
    values: dict[str, int] = {}
    for i in position:
        for j in position:
            if i != j:
                values[f"y_{i}_{j}"] = 1 if position[i] < position[j] else 0
    for pos, j in enumerate(schedule.order):
        values[f"z_{j}"] = 1 if schedule.starts[pos] > jobs[j].h else 0
        values[f"s_{j}"] = schedule.starts[pos]
        values[f"T_{j}"] = schedule.tardiness[pos]
    return values


def constraint_violations(model: MilpModel, values: dict[str, int]) -> list[str]:
    """Names of constraints the assignment violates (exact integer checks)."""
    violated = []
    for con in model.constraints:
        lhs = sum(coef * values[var] for coef, var in con.terms)
        ok = lhs == con.rhs if con.sense == "=" else lhs <= con.rhs
        if not ok:
            violated.append(con.name)
    for var in model.binaries:
        if values[var] not in (0, 1):
            violated.append(f"binary:{var}")
    for var in model.continuous:
        if values[var] < 0:
            violated.append(f"bound:{var}")
    return violated


def objective_value(model: MilpModel, values: dict[str, int]) -> int:
    return sum(values[var] for var in model.objective)
