"""Exact rational linear programming.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary
precision, always stored in lowest terms with a positive denominator, and
every arithmetic operation is exact.  All linear programs in this package
take and return these rationals, so primal and dual certificates can be
checked with straight equality instead of tolerances.

The solver is a dense two-phase simplex with Bland's anti-cycling pivot
rule.  Variables are nonnegative; constraints may be <=, >= or =.  On an
OPTIMAL result the solution carries a primal vector and one dual value per
constraint, extracted from the final basis, so strong duality is checkable
without a second solve.

Inside the solver the tableau is fraction-free (Edmonds 1967; Bareiss
1968): rows scaled to integers, held as Python ``int`` numerators over one
positive common denominator, the determinant of the current basis.  Every
pivot keeps the integer tableau equal to that denominator times the
rational tableau, so the pivot path, and with it every primal and dual
witness, is the one the rational simplex would take.  Rationals appear
again only at the boundary, when the solution is read off.

``solve_unit_program`` builds, solves and certifies the one shape every
program of the package has: a 0/1 matrix, unit right-hand sides and costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

from .errors import CapabilityError, CertificateError, InputError

Rational = Fraction

_ZERO = Fraction(0)

RationalLike = Union[Fraction, int, str]


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpConstraint:
    """One row: sum(coeff * x[idx]) <relation> rhs."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    num_vars: int
    objective: tuple[Fraction, ...]
    sense: Sense
    constraints: tuple[LpConstraint, ...]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    optimum: Fraction | None = None
    primal: tuple[Fraction, ...] = ()
    dual: tuple[Fraction, ...] = ()


def constraint(
    coeffs: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]],
    relation: Relation,
    rhs: RationalLike,
) -> LpConstraint:
    """Build a constraint row, merging duplicate variable indices."""
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    merged: dict[int, Fraction] = {}
    for idx, val in items:
        merged[idx] = merged.get(idx, _ZERO) + Fraction(val)
    packed = tuple(sorted((i, v) for i, v in merged.items() if v != 0))
    return LpConstraint(packed, relation, Fraction(rhs))


def lp_problem(
    num_vars: int,
    objective: Iterable[RationalLike],
    sense: Sense,
    constraints: Iterable[LpConstraint],
) -> LpProblem:
    obj = tuple(Fraction(c) for c in objective)
    cons = tuple(constraints)
    problem = LpProblem(num_vars, obj, sense, cons)
    _validate(problem)
    return problem


def _validate(problem: LpProblem) -> None:
    if problem.num_vars < 0:
        raise InputError("num_vars must be nonnegative")
    if len(problem.objective) != problem.num_vars:
        raise InputError(
            f"objective has {len(problem.objective)} entries, expected {problem.num_vars}"
        )
    for row_no, con in enumerate(problem.constraints):
        for idx, _ in con.coeffs:
            if not 0 <= idx < problem.num_vars:
                raise InputError(f"constraint {row_no} references variable {idx}")


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


_FLIPPED = {Relation.LE: Relation.GE, Relation.GE: Relation.LE,
            Relation.EQ: Relation.EQ}


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP exactly; status plus exact primal/dual certificates.

    Deterministic: identical input always produces the identical solution.
    """
    _validate(problem)
    n = problem.num_vars
    maximize = problem.sense is Sense.MAX
    obj = [c if maximize else -c for c in problem.objective]
    obj_scale = lcm(*(c.denominator for c in obj))
    cost = [c.numerator * (obj_scale // c.denominator) for c in obj]

    # Each row is flipped to a nonnegative right-hand side, then multiplied
    # by row_scale[i], the LCM of its denominators, so that it is integral.
    # The slack and artificial columns keep their unit entries.
    m = len(problem.constraints)
    dense: list[list[int]] = []
    rels: list[Relation] = []
    rhs: list[int] = []
    flipped: list[bool] = []
    row_scale: list[int] = []
    for con in problem.constraints:
        rel, b = con.relation, con.rhs
        sign = 1
        if b < 0:
            sign = -1
            rel = _FLIPPED[rel]
        s = lcm(b.denominator, *(v.denominator for _, v in con.coeffs))
        row = [0] * n
        for idx, val in con.coeffs:
            row[idx] = sign * val.numerator * (s // val.denominator)
        dense.append(row)
        rels.append(rel)
        rhs.append(sign * b.numerator * (s // b.denominator))
        flipped.append(sign < 0)
        row_scale.append(s)

    # Column layout: decisions, then one slack/surplus per inequality row,
    # then one artificial per >=/= row.  Artificial columns are kept through
    # phase 2 (never eligible to enter) so dual values can be read off every
    # row's signature column.
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    for i, rel in enumerate(rels):
        if rel in (Relation.LE, Relation.GE):
            slack_col[i] = ncols
            ncols += 1
    for i, rel in enumerate(rels):
        if rel in (Relation.GE, Relation.EQ):
            art_col[i] = ncols
            ncols += 1

    # The tableau holds integer numerators over one positive denominator d,
    # the determinant of the current basis.  The starting basis is made of
    # unit columns, so d starts at 1.
    rows: list[list[int]] = []
    for i in range(m):
        row = dense[i] + [0] * (ncols - n) + [rhs[i]]
        if slack_col[i] >= 0:
            row[slack_col[i]] = 1 if rels[i] is Relation.LE else -1
        if art_col[i] >= 0:
            row[art_col[i]] = 1
        rows.append(row)
    d = 1

    # Starting basis: slack for <= rows; for >=/= rows prefer a decision
    # column whose only nonzero is an unscaled 1 (crash basis), falling back
    # to the artificial.
    basis = [-1] * m
    unit_row = [-1] * ncols
    col_hits = [0] * n
    for row in rows:
        for j in range(n):
            if row[j]:
                col_hits[j] += 1
    for j in range(n):
        if col_hits[j] == 1:
            for i in range(m):
                if rows[i][j] == row_scale[i]:
                    unit_row[j] = i
                    break
    claimed = [False] * m
    for i in range(m):
        if rels[i] is Relation.LE:
            basis[i] = slack_col[i]
            claimed[i] = True
    for j in range(n):
        i = unit_row[j]
        if i >= 0 and not claimed[i]:
            basis[i] = j
            claimed[i] = True
            if row_scale[i] != 1:
                d = _pivot(rows, None, basis, d, i, j)
    for i in range(m):
        if not claimed[i]:
            basis[i] = art_col[i]

    art_start = ncols - sum(1 for c in art_col if c >= 0)
    allowed = list(range(art_start))

    art_rows = [i for i in range(m) if basis[i] == art_col[i]]
    if art_rows:
        # Phase 1 minimizes the sum of the artificials of the unscaled rows:
        # row i's artificial stands for row_scale[i] of them, so its row is
        # weighted by art_scale / row_scale[i].
        art_scale = lcm(*(row_scale[i] for i in art_rows))
        orow1 = [0] * (ncols + 1)
        for i in art_rows:
            w = art_scale // row_scale[i]
            orow1 = [a + w * v if v else a for a, v in zip(orow1, rows[i])]
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

    # Back to rationals: the numerators over d, the objective row over
    # d * obj_scale, and each dual times its row's scale.
    value = Fraction(-orow2[-1], d * obj_scale)
    primal = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            primal[b] = Fraction(rows[i][-1], d)

    dual: list[Fraction] = []
    sense_sign = 1 if maximize else -1
    for i in range(m):
        sig = slack_col[i] if rels[i] is Relation.LE else art_col[i]
        y = -orow2[sig] * row_scale[i]
        if flipped[i]:
            y = -y
        dual.append(Fraction(y * sense_sign, d * obj_scale))

    return LpSolution(
        status=LpStatus.OPTIMAL,
        optimum=value if maximize else -value,
        primal=tuple(primal),
        dual=tuple(dual),
    )


def _numerators(values) -> tuple[int, list[int]]:
    """One positive common denominator of rationals and their numerators over it."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def check_certificates(problem: LpProblem, solution: LpSolution) -> bool:
    """Exact verification: primal feasible, dual feasible, objectives equal.

    Recomputed from the problem and the reported solution alone, never
    from solver state, in integers: each row is scaled by the LCM of its
    denominators, x and y become numerators over their common
    denominators, and every comparison is a cross-multiplication.
    Returns False on any violation; never raises for a malformed pair.
    """
    if solution.status is not LpStatus.OPTIMAL or solution.optimum is None:
        return False
    x = solution.primal
    y = solution.dual
    if len(x) != problem.num_vars or len(y) != len(problem.constraints):
        return False
    dx, xs = _numerators(x)
    if any(v < 0 for v in xs):
        return False

    # Row i holds s_i times the rational row, with integer coefficients
    # rows[i] and right-hand side b_i; rows compare against b_i * dx.
    rows: list[list[tuple[int, int]]] = []
    scales: list[int] = []
    for con in problem.constraints:
        s, nums = _numerators([con.rhs, *(v for _, v in con.coeffs)])
        row = [(idx, a) for (idx, _), a in zip(con.coeffs, nums[1:])]
        lhs = sum(a * xs[idx] for idx, a in row)
        rhs = nums[0] * dx
        if con.relation is Relation.LE and not lhs <= rhs:
            return False
        if con.relation is Relation.GE and not lhs >= rhs:
            return False
        if con.relation is Relation.EQ and lhs != rhs:
            return False
        rows.append(row)
        scales.append(s)

    # c.x = cx / (dc * dx) and b.y = by / (db * dy) against p / q.
    p, q = solution.optimum.numerator, solution.optimum.denominator
    dc, cs = _numerators(problem.objective)
    dy, ys = _numerators(y)
    db, bs = _numerators([con.rhs for con in problem.constraints])
    cx = sum(c * v for c, v in zip(cs, xs))
    by = sum(b * v for b, v in zip(bs, ys))
    if cx * q != p * dc * dx or by * q != p * db * dy:
        return False

    maximize = problem.sense is Sense.MAX
    for con, yi in zip(problem.constraints, ys):
        if con.relation is Relation.LE and (yi < 0 if maximize else yi > 0):
            return False
        if con.relation is Relation.GE and (yi > 0 if maximize else yi < 0):
            return False

    # The reduced costs c - A^T y, times dc * dy * L with L the LCM of the
    # scales of the rows whose dual is nonzero.
    big = lcm(*(s for s, yi in zip(scales, ys) if yi))
    reduced = [c * dy * big for c in cs]
    for row, s, yi in zip(rows, scales, ys):
        if yi:
            f = dc * yi * (big // s)
            for idx, a in row:
                reduced[idx] -= f * a
    # A^T y >= c for a max program, <= c for a min program.
    if maximize:
        return all(r <= 0 for r in reduced)
    return all(r >= 0 for r in reduced)


def solve_unit_program(num_vars: int, rows: Iterable[Iterable[int]], sense: Sense,
                       relation: Relation, what: str) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Optimize the sum of ``num_vars`` nonnegative variables, certified.

    Each row lists the variables whose sum is held to ``relation`` 1, in
    order.  Returns the optimum and the primal witness; raises
    CertificateError("<what> failed to certify") unless the program is
    optimal and ``check_certificates`` accepts the solution.
    """
    problem = lp_problem(
        num_vars, [1] * num_vars, sense,
        [constraint(dict.fromkeys(row, 1), relation, 1) for row in rows],
    )
    solution = solve_lp(problem)
    if (solution.status is not LpStatus.OPTIMAL
            or not check_certificates(problem, solution)):
        raise CertificateError(f"{what} failed to certify")
    return solution.optimum, solution.primal
