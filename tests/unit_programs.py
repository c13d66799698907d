"""Record the unit programs ``exactnum`` solves, for tests that check them.

``exactnum.solve_unit_program`` hands its index rows to the integer solver
and certificate check as they are.  ``capture_unit_programs`` records each
program as a (num_vars, rows, sense, relation) tuple with the solution the
solver returned, so a recorded program can be compared with the dense
oracle and with pinned witnesses.
"""

from __future__ import annotations

from wramsey import exactnum
from wramsey.exactnum import LpSolution


def capture_unit_programs(monkeypatch) -> list[tuple[tuple, LpSolution]]:
    """Record ((num_vars, rows, sense, relation), solution) for every unit
    program exactnum solves.

    The rows are taken where ``solve_unit_program`` turns them into an
    integer program, and the solution where that program is solved.
    """
    seen: list[tuple[tuple, LpSolution]] = []
    programs: dict[int, tuple] = {}
    build, solve = exactnum._unit_program, exactnum._solve

    def recording_build(num_vars, rows, sense, relation):
        rows = tuple(tuple(row) for row in rows)
        prog = build(num_vars, rows, sense, relation)
        programs[id(prog)] = (num_vars, rows, sense, relation)
        return prog

    def recording_solve(prog):
        solution = solve(prog)
        seen.append((programs.pop(id(prog)), solution))
        return solution

    monkeypatch.setattr(exactnum, "_unit_program", recording_build)
    monkeypatch.setattr(exactnum, "_solve", recording_solve)
    return seen
