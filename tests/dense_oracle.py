"""The dense fraction-free simplex, kept as a test oracle for ``exactnum``.

``solve_unit`` here runs Bland's rule on the full 0/1 tableau of a unit
program, given as (num_vars, rows, sense, relation): every column of every
decision, slack and artificial variable, plus the right-hand side, held as
integer numerators over one positive common denominator and updated by
Bareiss pivots.  ``exactnum._solve`` keeps no tableau, only the integer
inverse of the basis kernel, but it derives the same numerators d * B^-1 A
for the same basis and picks pivots by the same rule, so on every unit
program both must return the same ``LpSolution``: status, optimum, primal
and dual.
"""

from __future__ import annotations

from fractions import Fraction

from wramsey.errors import CapabilityError
from wramsey.exactnum import LpSolution, LpStatus, Relation, Sense

_ZERO = Fraction(0)


def _eliminate(row: list[int], prow: list[int], p: int, f: int,
               d: int) -> list[int]:
    """One row of a fraction-free pivot; every division by d is exact."""
    if p == d:
        # (d*a - f*b) / d = a - f*b/d: only entries under a nonzero move.
        if not f:
            return row
        return [a - f * b // d if b else a for a, b in zip(row, prow)]
    if not f:
        return [p * a // d for a in row]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]


def _pivot(rows: list[list[int]], orow: list[int] | None, basis: list[int],
           d: int, r: int, c: int) -> int:
    """Bareiss pivot on (r, c); returns the new common denominator.

    With p = rows[r][c], every other row (and the objective row) becomes
    (p * row - row[c] * rows[r]) / d, the pivot row stays as it is, and p
    is the new denominator.  The division is exact by Sylvester's identity.
    A negative p, possible only when an artificial is driven out of the
    basis, negates the tableau so that the denominator stays positive.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, row[c], d)
    if orow is not None:
        orow[:] = _eliminate(orow, prow, p, orow[c], d)
    basis[r] = c
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
        if orow is not None:
            orow[:] = [-a for a in orow]
        p = -p
    return p


_MAX_PIVOTS = 500_000


def _run_simplex(rows: list[list[int]], orow: list[int], basis: list[int],
                 allowed: list[int], d: int) -> tuple[str, int]:
    """Bland's rule: smallest eligible column, smallest basic index on ties.

    Returns the outcome and the final common denominator.  All rows share
    the positive denominator d, so signs and ratios of numerators are those
    of the rational tableau; ratios are compared by cross-multiplication.
    """
    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in allowed:
            if orow[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal", d
        leave = -1
        best_b = best_a = 0
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave < 0:
                    best_b, best_a, leave = b, a, i
                    continue
                lhs = b * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    best_b, best_a, leave = b, a, i
        if leave < 0:
            return "unbounded", d
        d = _pivot(rows, orow, basis, d, leave, enter)
    raise CapabilityError(f"simplex exceeded the pivot limit of {_MAX_PIVOTS}")


def solve_unit(num_vars: int, index_rows, sense: Sense, relation: Relation) -> LpSolution:
    """Solve a unit program exactly on the dense tableau: maximize or
    minimize the sum of the variables, each index row's sum ``relation`` 1."""
    n = num_vars
    maximize = sense is Sense.MAX
    cost = [1 if maximize else -1] * n
    dense = [[1 if j in row else 0 for j in range(n)] for row in map(set, index_rows)]
    m = len(dense)

    # Column layout: decisions, then one slack/surplus per inequality row,
    # then one artificial per >=/= row.  Artificial columns are kept through
    # phase 2 (never eligible to enter) so dual values can be read off every
    # row's signature column.
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    if relation is not Relation.EQ:
        for i in range(m):
            slack_col[i] = ncols
            ncols += 1
    if relation is not Relation.LE:
        for i in range(m):
            art_col[i] = ncols
            ncols += 1

    # The tableau holds integer numerators over one positive denominator d,
    # the determinant of the current basis.  The starting basis is made of
    # unit columns, so d starts at 1.
    rows: list[list[int]] = []
    for i in range(m):
        row = dense[i] + [0] * (ncols - n) + [1]
        if slack_col[i] >= 0:
            row[slack_col[i]] = 1 if relation is Relation.LE else -1
        if art_col[i] >= 0:
            row[art_col[i]] = 1
        rows.append(row)
    d = 1

    # Starting basis: slack for <= rows; for >=/= rows prefer a decision
    # column whose only nonzero is in that row (crash basis), falling back
    # to the artificial.
    basis = [-1] * m
    claimed = [False] * m
    if relation is Relation.LE:
        basis = slack_col[:]
        claimed = [True] * m
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j]]
        if len(hits) == 1 and not claimed[hits[0]]:
            basis[hits[0]] = j
            claimed[hits[0]] = True
    for i in range(m):
        if not claimed[i]:
            basis[i] = art_col[i]

    art_start = ncols - sum(1 for c in art_col if c >= 0)
    allowed = list(range(art_start))

    art_rows = [i for i in range(m) if basis[i] == art_col[i]]
    if art_rows:
        # Phase 1 minimizes the sum of the artificials.
        orow1 = [0] * (ncols + 1)
        for i in art_rows:
            orow1 = [a + v if v else a for a, v in zip(orow1, rows[i])]
        for i in art_rows:
            orow1[art_col[i]] = 0
        _, d = _run_simplex(rows, orow1, basis, allowed, d)
        if orow1[-1] != 0:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis where possible; a row
        # with no eligible pivot is redundant and stays inert at zero.
        for i in art_rows:
            if basis[i] == art_col[i]:
                for j in allowed:
                    if rows[i][j]:
                        d = _pivot(rows, orow1, basis, d, i, j)
                        break

    orow2 = [0] * (ncols + 1)
    orow2[:n] = [d * c for c in cost]
    for i in range(m):
        b = basis[i]
        cb = cost[b] if b < n else 0
        if cb:
            orow2 = [a - cb * v if v else a for a, v in zip(orow2, rows[i])]
    outcome, d = _run_simplex(rows, orow2, basis, allowed, d)
    if outcome == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED)

    # Back to rationals: the numerators over d.
    value = Fraction(-orow2[-1], d)
    primal = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            primal[b] = Fraction(rows[i][-1], d)

    dual: list[Fraction] = []
    sense_sign = 1 if maximize else -1
    for i in range(m):
        sig = slack_col[i] if relation is Relation.LE else art_col[i]
        dual.append(Fraction(-orow2[sig] * sense_sign, d))

    return LpSolution(
        status=LpStatus.OPTIMAL,
        optimum=value if maximize else -value,
        primal=tuple(primal),
        dual=tuple(dual),
    )
