"""Record the unit programs ``exactnum`` solves, for tests that check them.

Every unit program reaches ``exactnum._solve`` as an integer program
stored by column, posed that way by ``packing`` and, for the weight LPs,
by ``graphs._induced_columns``.  ``capture_unit_programs`` records each
program there as a (num_vars, rows, sense, relation) tuple, its rows read
back from the columns, with the solution the solver returned as rationals,
so a recorded program can be compared with the dense oracle and with
pinned witnesses.
"""

from __future__ import annotations

from wramsey import exactnum
from wramsey.exactnum import LpSolution, Sense


def capture_unit_programs(monkeypatch) -> list[tuple[tuple, LpSolution]]:
    """Record ((num_vars, rows, sense, relation), solution) for every unit
    program exactnum solves."""
    seen: list[tuple[tuple, LpSolution]] = []
    solve = exactnum._solve

    def recording_solve(prog):
        solution = solve(prog)
        rows: list[list[int]] = [[] for _ in range(prog.m)]
        for j, col in enumerate(prog.crow):
            for i in col:
                rows[i].append(j)
        program = (len(prog.crow), tuple(map(tuple, rows)),
                   Sense.MAX if prog.maximize else Sense.MIN, prog.relation)
        seen.append((program, solution.rational()))
        return solution

    monkeypatch.setattr(exactnum, "_solve", recording_solve)
    return seen
