"""Exact rational linear programming.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary
precision, always stored in lowest terms with a positive denominator, and
every arithmetic operation is exact.  All linear programs in this package
take and return these rationals, so primal and dual certificates can be
checked with straight equality instead of tolerances.

The solver is a two-phase simplex with Bland's anti-cycling pivot rule.
Variables are nonnegative; constraints may be <=, >= or =.  On an OPTIMAL
result the solution carries a primal vector and one dual value per
constraint, extracted from the final basis, so strong duality is checkable
without a second solve.

Inside the solver the tableau is fraction-free (Edmonds 1967; Bareiss
1968): rows scaled to integers, held as Python ``int`` numerators over one
positive common denominator d, the determinant of the current basis.
Every pivot keeps the integer tableau equal to d times the rational
tableau.  The tableau is also condensed: a basic column is always d times
a unit vector, so only the nonbasic columns are kept, each labelled by its
variable id, beside the right-hand side.  A pivot updates them as the full
tableau would and turns the entering column into the column of the leaving
variable.  Bland's rule picks by variable id, the ratio test reads the
same column and the right-hand side, and a basic column, whose reduced
cost is zero, is never a candidate, so the pivot path, and with it every primal and dual witness, is
the one the rational simplex on the full tableau would take.  Rationals
appear again only at the boundary, when the solution is read off.

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
_ONE = Fraction(1)

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
        seen = set()
        for idx, _ in con.coeffs:
            if not 0 <= idx < problem.num_vars:
                raise InputError(f"constraint {row_no} references variable {idx}")
            if idx in seen:
                raise InputError(f"constraint {row_no} names variable {idx} twice")
            seen.add(idx)


def _eliminate(row: list[int], prow: list[int], p: int, f: int, d: int,
               c: int) -> list[int]:
    """One row of a condensed fraction-free pivot on column c.

    Every division by d is exact.  Column c turns into the column of the
    leaving variable, where the row holds -f.
    """
    if p == d:
        # (d*a - f*b) / d = a - f*b/d: only entries under a nonzero move.
        if not f:
            return row
        row = [a - f * b // d if b else a for a, b in zip(row, prow)]
    elif f:
        row = [(p * a - f * b) // d for a, b in zip(row, prow)]
    else:
        return [p * a // d for a in row]
    row[c] = -f
    return row


def _pivot(rows: list[list[int]], orow: list[int] | None, basis: list[int],
           nb: list[int], d: int, r: int, c: int) -> int:
    """Bareiss pivot on (r, c) of the condensed tableau; returns the new d.

    With p = rows[r][c], every other row (and the objective row) becomes
    (p * row - row[c] * rows[r]) / d, exact by Sylvester's identity, and
    the pivot row keeps its entries.  Column c then holds the leaving
    variable, whose dense column was d * e_r: -row[c] in every other row and
    d in row r.  p is the new denominator.  A negative p, possible only when
    an artificial is driven out of the basis, negates the tableau so that
    the denominator stays positive.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, row[c], d, c)
    if orow is not None:
        orow[:] = _eliminate(orow, prow, p, orow[c], d, c)
    prow[c] = d
    basis[r], nb[c] = nb[c], basis[r]
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
        if orow is not None:
            orow[:] = [-a for a in orow]
        p = -p
    return p


def _first_column(nb: list[int], entries: list[int], limit: int,
                  positive: bool) -> int:
    """Column of the smallest variable id below limit whose entry is
    positive (any nonzero entry if not ``positive``); -1 if none is."""
    first, col = limit, -1
    for j, (v, a) in enumerate(zip(nb, entries)):
        if v < first and (a > 0 if positive else a):
            first, col = v, j
    return col


_MAX_PIVOTS = 500_000


def _run_simplex(rows: list[list[int]], orow: list[int], basis: list[int],
                 nb: list[int], art_start: int, d: int) -> tuple[str, int]:
    """Bland's rule: smallest eligible variable id, smallest basic id on ties.

    Returns the outcome and the final common denominator.  All rows share
    the positive denominator d, so signs and ratios of numerators are those
    of the rational tableau; ratios are compared by cross-multiplication.
    Artificials (ids from art_start) never enter.
    """
    for _ in range(_MAX_PIVOTS):
        enter = _first_column(nb, orow, art_start, True)
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
        d = _pivot(rows, orow, basis, nb, d, leave, enter)
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

    # Each row is flipped to a nonnegative right-hand side; rels holds the
    # flipped relations.
    m = len(problem.constraints)
    rels: list[Relation] = []
    flipped: list[bool] = []
    for con in problem.constraints:
        flip = con.rhs < 0
        flipped.append(flip)
        rels.append(_FLIPPED[con.relation] if flip else con.relation)

    # Variable ids: decisions, then one slack/surplus per inequality row,
    # then one artificial per >=/= row.  Artificials never enter, but stay
    # as columns once they leave so dual values can be read off every row's
    # signature column.
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    for i, rel in enumerate(rels):
        if rel is not Relation.EQ:
            slack_col[i] = ncols
            ncols += 1
    art_start = ncols
    for i, rel in enumerate(rels):
        if rel is not Relation.LE:
            art_col[i] = ncols
            ncols += 1

    # The condensed tableau keeps one column per nonbasic variable, labelled
    # by nb, plus the right-hand side; a basic column is d * e_i and carries
    # nothing.  It starts from the unit basis (slack for <= rows, artificial
    # for >=/= rows), so d = 1 and the columns are the decisions, then the
    # surplus of each >= row.  Row i is multiplied by row_scale[i], the LCM
    # of its denominators, so that it is integral; the slack, surplus and
    # artificial entries stay units.
    basis = [slack_col[i] if rel is Relation.LE else art_col[i]
             for i, rel in enumerate(rels)]
    nb = list(range(n)) + [slack_col[i] for i, rel in enumerate(rels)
                           if rel is Relation.GE]
    width = len(nb) + 1
    rows: list[list[int]] = []
    row_scale: list[int] = []
    hits = [0] * n
    unit_row = [-1] * n
    surplus = n
    for i, con in enumerate(problem.constraints):
        sign = -1 if flipped[i] else 1
        b = con.rhs
        s = lcm(b.denominator, *(v.denominator for _, v in con.coeffs))
        row = [0] * width
        for idx, val in con.coeffs:
            a = sign * val.numerator * (s // val.denominator)
            row[idx] = a
            if a:
                hits[idx] += 1
                if a == s:
                    unit_row[idx] = i
        if rels[i] is Relation.GE:
            row[surplus] = -1
            surplus += 1
        row[-1] = sign * b.numerator * (s // b.denominator)
        rows.append(row)
        row_scale.append(s)
    d = 1

    # Crash basis: a >=/= row takes the first decision column whose only
    # nonzero is an unscaled 1 in that row, in place of its artificial.
    # The pivot only rescales the other rows, and leaves them as they are
    # when the row scale is 1.
    for j in range(n):
        i = unit_row[j]
        if hits[j] == 1 and i >= 0 and basis[i] == art_col[i]:
            d = _pivot(rows, None, basis, nb, d, i, j)

    art_rows = [i for i in range(m) if basis[i] == art_col[i]]
    if art_rows:
        # Phase 1 minimizes the sum of the artificials of the unscaled rows:
        # row i's artificial stands for row_scale[i] of them, so its row is
        # weighted by art_scale / row_scale[i].
        art_scale = lcm(*(row_scale[i] for i in art_rows))
        orow1 = [0] * width
        for i in art_rows:
            w = art_scale // row_scale[i]
            orow1 = [a + w * v if v else a for a, v in zip(orow1, rows[i])]
        _, d = _run_simplex(rows, orow1, basis, nb, art_start, d)
        if orow1[-1] != 0:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis where possible; a row
        # with no eligible pivot is redundant and stays inert at zero.
        for i in art_rows:
            if basis[i] == art_col[i]:
                j = _first_column(nb, rows[i], art_start, False)
                if j >= 0:
                    d = _pivot(rows, None, basis, nb, d, i, j)

    orow2 = [d * cost[v] if v < n else 0 for v in nb] + [0]
    for i, b in enumerate(basis):
        cb = cost[b] if b < n else 0
        if cb:
            orow2 = [a - cb * v if v else a for a, v in zip(orow2, rows[i])]
    outcome, d = _run_simplex(rows, orow2, basis, nb, art_start, d)
    if outcome == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED)

    # Back to rationals: the numerators over d, the objective row over
    # d * obj_scale, and each dual times its row's scale.  A basic
    # signature column has a zero reduced cost, so its dual is 0.
    value = Fraction(-orow2[-1], d * obj_scale)
    primal = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            primal[b] = Fraction(rows[i][-1], d)

    col_of = {v: j for j, v in enumerate(nb)}
    dual: list[Fraction] = []
    sense_sign = 1 if maximize else -1
    for i in range(m):
        j = col_of.get(slack_col[i] if rels[i] is Relation.LE else art_col[i])
        y = 0 if j is None else -orow2[j] * row_scale[i]
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
    problem = LpProblem(num_vars, (_ONE,) * num_vars, sense, tuple(
        LpConstraint(tuple((i, _ONE) for i in row), relation, _ONE)
        for row in rows
    ))
    solution = solve_lp(problem)
    if (solution.status is not LpStatus.OPTIMAL
            or not check_certificates(problem, solution)):
        raise CertificateError(f"{what} failed to certify")
    return solution.optimum, solution.primal
