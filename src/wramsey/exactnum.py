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

Inside the solver everything is fraction-free (Edmonds 1967; Bareiss
1968): rows scaled to integers, held as Python ``int`` numerators over one
positive common denominator d = |det B| of the current basis B.  No tableau
is kept.  A basic slack, surplus or artificial is a signed unit column, so
B is determined by its kernel K: the basic decision columns restricted to
the rows without a basic logical.  The solver keeps d * K^-1, the basic
values and the duals pi = c_B d B^-1 (Bixby 1992; Azulay and Pique 2001).
Pricing walks the nonbasic ids upward and computes each reduced cost
d * c_j - pi . a_j from the sparse column; the entering column d * B^-1 a_q
comes from K^-1 on the kernel rows and from the basic decisions' entries
on the other rows.  One Bareiss update of cost k^2 per pivot, for a kernel
of order k, keeps all three equal to d times their rational values, and
the kernel gains or loses the one row whose logical left or entered.
These are exactly the numerators d * B^-1 A of the full tableau for the
same basis, and Bland's rule and the ratio test compare them as the
tableau simplex would, so the pivot path, and with it every primal and
dual witness, is the one the rational simplex on the full tableau takes.
Rationals appear again only at the boundary, when the solution is read
off.

``solve_unit_program`` builds, solves and certifies the one shape every
program of the package has: a 0/1 matrix, unit right-hand sides and costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
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


def _numerators(values) -> tuple[int, list[int]]:
    """One positive common denominator of rationals and their numerators over it."""
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return 1, [v.numerator for v in values]
    return den, [v.numerator * (den // v.denominator) for v in values]


class _Kernel:
    """A simplex basis held as the fraction-free inverse of its kernel.

    Each row i either has a basic logical (slack, surplus or artificial, a
    column sig[i] * e_i) or is a kernel row, with sig[i] = 0.  The basic
    decision columns on the kernel rows form the square kernel K.  With
    d = |det B|, ``inv`` holds d * K^-1 in integers: one row per basic
    decision (``cols``), whose column 0 is d times the decision's value and
    whose column c >= 1 belongs to kernel row rows[c].  ``lx[i]`` is d
    times the value of row i's basic logical.  For a column a, d * B^-1 a
    is inv * a on the basic decisions and sig[i] * (d * a_i - A_i . inv * a)
    on a logical row i, A_i being row i of the decision matrix on the
    basic decisions.

    The duals pi = c_B d B^-1 are kept by the caller in a list of m + 1:
    pi[m] holds c_B times the basic values, and rows[0] = m, so that the
    objective moves with the duals as the values move with ``inv``.
    """

    __slots__ = ("n", "crow", "cval", "weights", "slack", "d", "inv", "cols",
                 "pos", "rows", "rpos", "lvar", "sig", "lx")

    def __init__(self, crow: list, cval: list, slack: list, lvar: list[int],
                 rhs: list[int]):
        """The unit basis: logical lvar[i] basic in every row i, d = 1."""
        n, m = len(crow), len(lvar)
        self.n = n
        self.crow = crow
        self.cval = cval
        self.weights = [None if v.count(1) == len(v) else v for v in cval]
        self.slack = slack
        self.d = 1
        self.inv: list[list[int]] = []
        self.cols: list[int] = []
        self.pos = [-1] * n
        self.rows = [m]
        self.rpos = [0] * m
        self.lvar = lvar
        self.sig = [1] * m
        self.lx = list(rhs)

    def column(self, q: int) -> tuple[list[int], dict[int, int]]:
        """d * B^-1 a_q for a decision, slack or surplus q: its part on the
        basic decisions, aligned with ``inv``, and its nonzero entries on
        the logical rows, by row."""
        if q < self.n:
            rows, vals, unit = self.crow[q], self.cval[q], self.weights[q] is None
        else:
            r, v = self.slack[q - self.n]
            rows, vals, unit = (r,), (v,), False
        d, sig, inv = self.d, self.sig, self.inv
        if not inv:
            return [], {i: sig[i] * d * v for i, v in zip(rows, vals)}
        rpos = self.rpos
        kcol = [(rpos[i], v) for i, v in zip(rows, vals) if rpos[i]]
        if len(kcol) == 1:
            (c, v), = kcol
            alpha = [v * row[c] for row in inv]
        elif unit and kcol:
            get = itemgetter(*[c for c, _ in kcol])
            alpha = [sum(get(row)) for row in inv]
        else:
            alpha = [sum([v * row[c] for c, v in kcol]) for row in inv]
        t = {i: d * v for i, v in zip(rows, vals) if sig[i]}
        crow, weights = self.crow, self.weights
        for j, a in zip(self.cols, alpha):
            if a:
                w = weights[j]
                if w is None:
                    for i in crow[j]:
                        if sig[i]:
                            t[i] = t.get(i, 0) - a
                else:
                    for i, v in zip(crow[j], w):
                        if sig[i]:
                            t[i] = t.get(i, 0) - v * a
        return alpha, {i: sig[i] * v for i, v in t.items() if v}

    def crash(self, pairs: list[tuple[int, int]], row_scale: list[int],
              rhs: list[int]) -> None:
        """Start from a basis where decision j is basic in row i for each
        (i, j) of ``pairs``, column j being row_scale[i] * e_i: the kernel
        is diagonal and d is the product of those scales."""
        d = 1
        for i, _ in pairs:
            d *= row_scale[i]
        size = len(pairs) + 1
        for c, (i, j) in enumerate(pairs, 1):
            row = [0] * size
            row[c] = e = d // row_scale[i]
            row[0] = e * rhs[i]
            self.inv.append(row)
            self.cols.append(j)
            self.pos[j] = c - 1
            self.rows.append(i)
            self.rpos[i] = c
            self.sig[i] = 0
        self.d = d
        self.lx = [d * b if v >= 0 else 0 for v, b in zip(self.lvar, rhs)]

    def duals(self, cost: list[int]) -> list[int]:
        """pi = c_B d B^-1 for costs on the decisions, then c_B d x_B."""
        acc = [0] * len(self.rows)
        for j, row in zip(self.cols, self.inv):
            c = cost[j]
            if c:
                acc = [a + c * b for a, b in zip(acc, row)]
        pi = [0] * (len(self.lvar) + 1)
        for r, v in zip(self.rows, acc):
            pi[r] = v
        return pi

    def leaving(self, alpha: list[int], t: dict[int, int]) -> tuple[int, int] | None:
        """The ratio test on an entering column: the inverse row (or, as
        (-1, i), the logical row) of the smallest ratio, the smallest
        basic id on ties; None if no entry is positive."""
        s_out = i_out = leave = -1
        best_b = best_a = 0
        for s, (a, v, row) in enumerate(zip(alpha, self.cols, self.inv)):
            if a > 0:
                b = row[0]
                if leave >= 0:
                    lhs = b * best_a
                    rhs = best_b * a
                    if lhs > rhs or (lhs == rhs and v > leave):
                        continue
                best_b, best_a, leave, s_out = b, a, v, s
        lx, lvar = self.lx, self.lvar
        for i, a in t.items():
            if a > 0:
                b = lx[i]
                v = lvar[i]
                if leave >= 0:
                    lhs = b * best_a
                    rhs = best_b * a
                    if lhs > rhs or (lhs == rhs and v > leave):
                        continue
                best_b, best_a, leave, s_out, i_out = b, a, v, -1, i
        return None if leave < 0 else (s_out, i_out)

    def logical_row(self, i: int) -> list[int]:
        """Row i's logical row of d * B^-1, aligned with an inverse row,
        then its entry on row i itself."""
        crow, cval = self.crow, self.cval
        acc = [0] * len(self.rows)
        for j, row in zip(self.cols, self.inv):
            rows = crow[j]
            if i in rows:
                v = cval[j][rows.index(i)]
                acc = [a - v * b for a, b in zip(acc, row)]
        sig = self.sig[i]
        if sig < 0:
            acc = [-a for a in acc]
        acc[0] = self.lx[i]
        acc.append(sig * self.d)
        return acc

    def pivot(self, q: int, alpha: list[int], t: dict[int, int], s_out: int,
              i_out: int, rc: int, pi: list[int] | None) -> list[int] | None:
        """Bareiss pivot: variable q enters, the basic decision of inverse
        row s_out (or, if s_out < 0, row i_out's logical) leaves.

        With p the pivot entry, every other basic row of d * B^-1 and value
        becomes (p * row - alpha_r * leaving row) / d, exact by Sylvester's
        identity, and the duals become (p * pi + rc * leaving row) / d.
        The leaving row itself turns into the entering variable's row.  A
        negative p, possible only when an artificial is driven out, negates
        everything so that d = |p| stays positive.  Returns the new duals.
        """
        d, inv, lx, rows, rpos = self.d, self.inv, self.lx, self.rows, self.rpos
        grow = s_out < 0
        if grow:
            p = t[i_out]
            rho = self.logical_row(i_out)
            b_out = lx[i_out]
            rows.append(i_out)
            rpos[i_out] = len(rows) - 1
            self.lvar[i_out] = -1
            self.sig[i_out] = 0
            # Row i_out joins the kernel: every inverse row gains its column.
            for row in inv:
                row.append(0)
        else:
            p = alpha[s_out]
            rho = inv[s_out]
            b_out = rho[0]
        for s, f in enumerate(alpha):
            if s == s_out:
                continue
            if p == d:
                # (d*a - f*b) / d = a - f*b/d: only entries under a nonzero move.
                if f:
                    inv[s] = [a - f * b // d if b else a for a, b in zip(inv[s], rho)]
            elif f:
                inv[s] = [(p * a - f * b) // d for a, b in zip(inv[s], rho)]
            else:
                inv[s] = [p * a // d for a in inv[s]]
        if p == d:
            for i, f in t.items():
                lx[i] -= f * b_out // d
            if pi is not None:
                for r, v in zip(rows, rho):
                    if v:
                        pi[r] += rc * v // d
        else:
            lx = [p * a for a in lx]
            for i, f in t.items():
                lx[i] -= f * b_out
            self.lx = lx = [a // d for a in lx]
            if pi is not None:
                pi = [p * a for a in pi]
                for r, v in zip(rows, rho):
                    if v:
                        pi[r] += rc * v
                pi = [a // d for a in pi]
        if grow:
            lx[i_out] = 0

        cols, pos = self.cols, self.pos
        if q < self.n:
            if grow:
                inv.append(rho)
                cols.append(q)
                pos[q] = len(cols) - 1
            else:
                pos[cols[s_out]] = -1
                cols[s_out] = q
                pos[q] = s_out
        else:
            # A logical of kernel row r enters: its kernel column, zero in
            # every remaining row, is dropped.
            r, sig = self.slack[q - self.n]
            c = rpos[r]
            for row in inv:
                row[c] = row[-1]
                row.pop()
            rows[c] = rows[-1]
            rpos[rows[c]] = c
            rows.pop()
            rpos[r] = 0
            self.lvar[r] = q
            self.sig[r] = sig
            lx[r] = b_out
            if not grow:
                pos[cols[s_out]] = -1
                inv[s_out] = inv[-1]
                cols[s_out] = cols[-1]
                inv.pop()
                cols.pop()
                if s_out < len(cols):
                    pos[cols[s_out]] = s_out
        if p < 0:
            p = -p
            self.inv = [[-a for a in row] for row in inv]
            self.lx = [-a for a in lx]
            if pi is not None:
                pi = [-a for a in pi]
        self.d = p
        return pi


_MAX_PIVOTS = 500_000


def _run_simplex(kern: _Kernel, cost: list[int], pi: list[int]) -> list[int] | None:
    """Bland's rule: smallest eligible variable id, smallest basic id on ties.

    Prices the nonbasic decisions, slacks and surpluses by id, the reduced
    cost of a column a_j being d * c_j - pi . a_j, and enters the first
    positive one; artificials never enter.  Returns the final duals, or
    None if the program is unbounded.  All numerators share the positive
    denominator d, so signs and ratios are those of the rational tableau.
    """
    crow, weights = kern.crow, kern.weights
    slack, pos, lvar = kern.slack, kern.pos, kern.lvar
    for _ in range(_MAX_PIVOTS):
        d = kern.d
        get = pi.__getitem__
        for j, (b, rows, vals, c) in enumerate(zip(pos, crow, weights, cost)):
            if b < 0:
                rc = d * c - (sum(map(get, rows)) if vals is None else
                              sum(map(mul, map(get, rows), vals)))
                if rc > 0:
                    break
        else:
            for j, (i, sig) in enumerate(slack, kern.n):
                if lvar[i] != j:
                    rc = -sig * pi[i]
                    if rc > 0:
                        break
            else:
                return pi
        alpha, t = kern.column(j)
        out = kern.leaving(alpha, t)
        if out is None:
            return None
        pi = kern.pivot(j, alpha, t, *out, rc, pi)
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
    sense_sign = 1 if maximize else -1
    obj_scale, cost = _numerators(problem.objective)
    if not maximize:
        cost = [-c for c in cost]

    # Each row is flipped to a nonnegative right-hand side and multiplied
    # by row_scale[i], the LCM of its denominators, so that it is integral;
    # the slack, surplus and artificial entries stay units.  The decision
    # matrix is kept sparse, by column: rows and values.  Variable ids:
    # decisions, then one slack (e_i) or surplus (-e_i) per inequality row,
    # in row order; row i's artificial is art_start + i, above every other
    # id.  The unit basis takes the slack of a <= row and the artificial of
    # a >=/= row, so d = 1.
    m = len(problem.constraints)
    art_start = n + m
    crow: list[list[int]] = [[] for _ in range(n)]
    cval: list[list[int]] = [[] for _ in range(n)]
    rhs: list[int] = []
    row_scale: list[int] = []
    flipped: list[bool] = []
    slack: list[tuple[int, int]] = []
    lvar: list[int] = []
    for i, con in enumerate(problem.constraints):
        b = con.rhs
        flip = b.numerator < 0
        sign = -1 if flip else 1
        s = lcm(b.denominator, *[v.denominator for _, v in con.coeffs])
        for idx, val in con.coeffs:
            a = sign * val.numerator * (s // val.denominator)
            if a:
                crow[idx].append(i)
                cval[idx].append(a)
        rhs.append(sign * b.numerator * (s // b.denominator))
        row_scale.append(s)
        flipped.append(flip)
        rel = _FLIPPED[con.relation] if flip else con.relation
        if rel is Relation.LE:
            lvar.append(n + len(slack))
            slack.append((i, 1))
        else:
            if rel is Relation.GE:
                slack.append((i, -1))
            lvar.append(art_start + i)
    kern = _Kernel(crow, cval, slack, lvar, rhs)

    # Crash basis: a >=/= row takes the first decision column whose only
    # nonzero is an unscaled 1 in that row, in place of its artificial.
    crashed = []
    for j, rows in enumerate(crow):
        if len(rows) == 1:
            i = rows[0]
            if lvar[i] >= art_start and cval[j][0] == row_scale[i]:
                lvar[i] = -1
                crashed.append((i, j))
    if crashed:
        kern.crash(crashed, row_scale, rhs)

    art_rows = [i for i, v in enumerate(lvar) if v >= art_start]
    if art_rows:
        # Phase 1 minimizes the sum of the artificials of the unscaled rows:
        # row i's artificial stands for row_scale[i] of them, so it costs
        # art_scale / row_scale[i].
        art_scale = lcm(*[row_scale[i] for i in art_rows])
        pi = [0] * (m + 1)
        for i in art_rows:
            w = art_scale // row_scale[i]
            pi[i] = -kern.d * w
            pi[m] -= w * kern.lx[i]
        pi = _run_simplex(kern, [0] * n, pi)
        if pi[m]:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis where possible; a row
        # with no eligible pivot is redundant and stays inert at zero.
        for i in art_rows:
            if lvar[i] < art_start:
                continue
            for j in range(n + len(slack)):
                basic = kern.pos[j] >= 0 if j < n else lvar[slack[j - n][0]] == j
                if basic:
                    continue
                alpha, t = kern.column(j)
                if t.get(i):
                    kern.pivot(j, alpha, t, -1, i, 0, None)
                    break

    pi = _run_simplex(kern, cost, kern.duals(cost))
    if pi is None:
        return LpSolution(status=LpStatus.UNBOUNDED)

    # Back to rationals: the numerators over d, the objective pi[m] over
    # d * obj_scale, and each dual pi_i times its row's scale.
    d = kern.d
    den = d * obj_scale
    primal = [_ZERO] * n
    for j, row in zip(kern.cols, kern.inv):
        if row[0]:
            primal[j] = Fraction(row[0], d)
    dual = [_ZERO] * m
    for i, y in enumerate(pi[:m]):
        if y:
            y *= sense_sign * row_scale[i]
            dual[i] = Fraction(-y if flipped[i] else y, den)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        optimum=Fraction(sense_sign * pi[m], den),
        primal=tuple(primal),
        dual=tuple(dual),
    )


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
