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

The simplex and the certificate check work on one integer program,
stored by column, with two front ends.  ``solve_lp`` and
``check_certificates`` scale each row of an ``LpProblem`` by the LCM of
its denominators and flip it to a nonnegative right-hand side.
``solve_unit_program`` takes the one shape every program of the package
has, a 0/1 matrix with unit right-hand sides and costs, as index rows and
hands them over as they are: every scale is 1 and no row is flipped, so
the only rationals it makes are the reported optimum, primal and dual.
Its certificate is still recomputed from the rows and the reported
solution alone, never from the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping, NamedTuple, Union

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


class _Program(NamedTuple):
    """A linear program in integers, stored by column.

    Row i is the rational row times ``scale[i]`` > 0, negated where
    ``flip[i]`` is set, so that its entries are integers and its right-hand
    side ``rhs[i]`` is nonnegative; ``rels[i]`` is its relation after the
    flip.  Column j lists its rows ``crow[j]`` and nonzero entries
    ``cval[j]``; ``weights[j]`` is None where every entry is 1.  The
    objective is ``cost`` over ``obj_scale``, to be maximized or minimized.
    """

    crow: list[list[int]]
    cval: list[list[int]]
    weights: list[list[int] | None]
    rhs: list[int]
    rels: list[Relation]
    scale: list[int]
    flip: list[bool]
    cost: list[int]
    obj_scale: int
    maximize: bool


_FLIPPED = {Relation.LE: Relation.GE, Relation.GE: Relation.LE,
            Relation.EQ: Relation.EQ}


def _integer_program(problem: LpProblem) -> _Program:
    """An ``LpProblem``'s rows, each scaled by the LCM of its denominators
    and flipped to a nonnegative right-hand side."""
    n = problem.num_vars
    crow: list[list[int]] = [[] for _ in range(n)]
    cval: list[list[int]] = [[] for _ in range(n)]
    rhs: list[int] = []
    rels: list[Relation] = []
    scale: list[int] = []
    flip: list[bool] = []
    for i, con in enumerate(problem.constraints):
        b = con.rhs
        flipped = b.numerator < 0
        sign = -1 if flipped else 1
        s = lcm(b.denominator, *[v.denominator for _, v in con.coeffs])
        for idx, val in con.coeffs:
            a = sign * val.numerator * (s // val.denominator)
            if a:
                crow[idx].append(i)
                cval[idx].append(a)
        rhs.append(sign * b.numerator * (s // b.denominator))
        rels.append(_FLIPPED[con.relation] if flipped else con.relation)
        scale.append(s)
        flip.append(flipped)
    obj_scale, cost = _numerators(problem.objective)
    weights = [None if v.count(1) == len(v) else v for v in cval]
    return _Program(crow, cval, weights, rhs, rels, scale, flip, cost,
                    obj_scale, problem.sense is Sense.MAX)


def _unit_program(num_vars: int, rows: Iterable[Iterable[int]], sense: Sense,
                  relation: Relation) -> _Program:
    """The unit program over index rows, already in integers: every entry,
    cost, right-hand side and scale is 1 and no row is flipped."""
    if num_vars < 0:
        raise InputError("num_vars must be nonnegative")
    crow: list[list[int]] = [[] for _ in range(num_vars)]
    m = 0
    for row in rows:
        for j in row:
            if not 0 <= j < num_vars:
                raise InputError(f"constraint {m} references variable {j}")
            col = crow[j]
            # Rows arrive in order, so a repeat within row m is col[-1].
            if col and col[-1] == m:
                raise InputError(f"constraint {m} names variable {j} twice")
            col.append(m)
        m += 1
    ones = [1] * m
    return _Program(crow, [[1] * len(col) for col in crow], [None] * num_vars,
                    ones, [relation] * m, ones, [False] * m, [1] * num_vars, 1,
                    sense is Sense.MAX)


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

    def __init__(self, prog: _Program, slack: list, lvar: list[int]):
        """The unit basis: logical lvar[i] basic in every row i, d = 1."""
        n, m = len(prog.crow), len(lvar)
        self.n = n
        self.crow = prog.crow
        self.cval = prog.cval
        self.weights = prog.weights
        self.slack = slack
        self.d = 1
        self.inv: list[list[int]] = []
        self.cols: list[int] = []
        self.pos = [-1] * n
        self.rows = [m]
        self.rpos = [0] * m
        self.lvar = lvar
        self.sig = [1] * m
        self.lx = list(prog.rhs)

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


def _solve(prog: _Program) -> LpSolution:
    """Two-phase simplex on an integer program; the solution is read off
    for the rational program it stands for."""
    crow, cval, rhs, row_scale = prog.crow, prog.cval, prog.rhs, prog.scale
    n, m = len(crow), len(rhs)
    maximize = prog.maximize
    cost = prog.cost if maximize else [-c for c in prog.cost]

    # Variable ids: decisions, then one slack (e_i) or surplus (-e_i) per
    # inequality row, in row order; row i's artificial is art_start + i,
    # above every other id.  The unit basis takes the slack of a <= row and
    # the artificial of a >=/= row, so d = 1.
    art_start = n + m
    slack: list[tuple[int, int]] = []
    lvar: list[int] = []
    for i, rel in enumerate(prog.rels):
        if rel is Relation.LE:
            lvar.append(n + len(slack))
            slack.append((i, 1))
        else:
            if rel is Relation.GE:
                slack.append((i, -1))
            lvar.append(art_start + i)
    kern = _Kernel(prog, slack, lvar)

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
    sense_sign = 1 if maximize else -1
    den = d * prog.obj_scale
    primal = [_ZERO] * n
    for j, row in zip(kern.cols, kern.inv):
        if row[0]:
            primal[j] = Fraction(row[0], d)
    dual = [_ZERO] * m
    for i, (y, s, flip) in enumerate(zip(pi, row_scale, prog.flip)):
        if y:
            y *= sense_sign * s
            dual[i] = Fraction(-y if flip else y, den)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        optimum=Fraction(sense_sign * pi[m], den),
        primal=tuple(primal),
        dual=tuple(dual),
    )


def _certified(prog: _Program, solution: LpSolution) -> bool:
    """Primal feasible, dual feasible, objectives equal, decided in integers.

    x and y become numerators over their common denominators.  Row i of
    ``prog`` is s_i times the rational row, negated if flipped, so the
    rational dual y_i is sign_i * y_i / s_i on it; over the LCM L of the
    scales of the rows whose dual is nonzero, those are integers.  Every
    comparison is then a cross-multiplication.
    """
    if solution.status is not LpStatus.OPTIMAL or solution.optimum is None:
        return False
    x = solution.primal
    y = solution.dual
    crow, cval, weights, rhs = prog.crow, prog.cval, prog.weights, prog.rhs
    if len(x) != len(crow) or len(y) != len(rhs):
        return False
    dx, xs = _numerators(x)
    if any(v < 0 for v in xs):
        return False

    # A x against b * dx, from the columns of the nonzero x_j.
    lhs = [0] * len(rhs)
    for rows, vals, v in zip(crow, cval, xs):
        if v:
            for i, a in zip(rows, vals):
                lhs[i] += a * v
    for ax, b, rel in zip(lhs, rhs, prog.rels):
        b *= dx
        if ax > b if rel is Relation.LE else ax < b if rel is Relation.GE else ax != b:
            return False

    # c.x = cx / (obj_scale * dx) and b.y = by / (L * dy) against p / q.
    p, q = solution.optimum.numerator, solution.optimum.denominator
    obj_scale = prog.obj_scale
    cx = sum(map(mul, prog.cost, xs))
    if cx * q != p * obj_scale * dx:
        return False
    dy, ys = _numerators(y)
    big = lcm(*[s for s, v in zip(prog.scale, ys) if v])
    ys = [(-v if flip else v) * (big // s)
          for v, s, flip in zip(ys, prog.scale, prog.flip)]
    if sum(map(mul, rhs, ys)) * q != p * big * dy:
        return False

    maximize = prog.maximize
    for rel, v in zip(prog.rels, ys):
        if rel is Relation.LE and (v < 0 if maximize else v > 0):
            return False
        if rel is Relation.GE and (v > 0 if maximize else v < 0):
            return False

    # The reduced costs c - A^T y, times obj_scale * L * dy: A^T y >= c for
    # a max program, <= c for a min program.
    get = ys.__getitem__
    cy = big * dy
    for rows, w, c in zip(crow, weights, prog.cost):
        ay = sum(map(get, rows)) if w is None else sum(map(mul, map(get, rows), w))
        r = c * cy - obj_scale * ay
        if r > 0 if maximize else r < 0:
            return False
    return True


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP exactly; status plus exact primal/dual certificates.

    Deterministic: identical input always produces the identical solution.
    """
    _validate(problem)
    return _solve(_integer_program(problem))


def check_certificates(problem: LpProblem, solution: LpSolution) -> bool:
    """Exact verification: primal feasible, dual feasible, objectives equal.

    Recomputed from the problem and the reported solution alone, never
    from solver state, in integers: each row is scaled by the LCM of its
    denominators and every comparison is a cross-multiplication.  Returns
    False on any violation; never raises for a malformed pair.
    """
    return _certified(_integer_program(problem), solution)


def solve_unit_program(num_vars: int, rows: Iterable[Iterable[int]], sense: Sense,
                       relation: Relation, what: str) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Optimize the sum of ``num_vars`` nonnegative variables, certified.

    Each row lists the variables whose sum is held to ``relation`` 1, in
    order.  The rows go to the solver and the certificate check as they
    are, with no rational row built.  Returns the optimum and the primal
    witness; raises CertificateError("<what> failed to certify") unless the
    program is optimal and the certificate check, recomputed from the rows
    and the reported solution alone, accepts it.
    """
    prog = _unit_program(num_vars, rows, sense, relation)
    solution = _solve(prog)
    if not _certified(prog, solution):
        raise CertificateError(f"{what} failed to certify")
    return solution.optimum, solution.primal
