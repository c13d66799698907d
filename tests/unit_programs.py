"""The ``LpProblem`` behind each unit program, for tests that record them.

``exactnum.solve_unit_program`` hands its index rows to the integer solver
and certificate check as they are and never builds an ``LpProblem``.
``unit_problem`` builds the rational program those rows stand for, so a
recorded unit program can be compared with ``solve_lp``, the dense oracle
and pinned witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from wramsey import exactnum
from wramsey.exactnum import LpConstraint, LpProblem, LpSolution, Relation, Sense

_ONE = Fraction(1)


def unit_problem(num_vars: int, rows, sense: Sense, relation: Relation) -> LpProblem:
    """Maximize or minimize the sum of the variables, each row ``relation`` 1."""
    return LpProblem(num_vars, (_ONE,) * num_vars, sense, tuple(
        LpConstraint(tuple((i, _ONE) for i in row), relation, _ONE)
        for row in rows
    ))


def capture_unit_programs(monkeypatch) -> list[tuple[LpProblem, LpSolution]]:
    """Record (problem, solution) for every unit program exactnum solves.

    The rows are taken where ``solve_unit_program`` turns them into an
    integer program, and the solution where that program is solved;
    programs that ``solve_lp`` solves are not recorded.
    """
    seen: list[tuple[LpProblem, LpSolution]] = []
    problems: dict[int, LpProblem] = {}
    build, solve = exactnum._unit_program, exactnum._solve

    def recording_build(num_vars, rows, sense, relation):
        rows = [tuple(row) for row in rows]
        prog = build(num_vars, rows, sense, relation)
        problems[id(prog)] = unit_problem(num_vars, rows, sense, relation)
        return prog

    def recording_solve(prog):
        solution = solve(prog)
        problem = problems.pop(id(prog), None)
        if problem is not None:
            seen.append((problem, solution))
        return solution

    monkeypatch.setattr(exactnum, "_unit_program", recording_build)
    monkeypatch.setattr(exactnum, "_solve", recording_solve)
    return seen
