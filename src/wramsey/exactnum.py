"""Exact rational linear programming over unit programs.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary
precision, always stored in lowest terms with a positive denominator, and
every arithmetic operation is exact.  Every linear program of the package
is a unit program: maximize or minimize the sum of nonnegative variables,
each row holding the sum of some of them ``<=``, ``>=`` or ``=`` 1.  The
weight LP behind wram(n, k) and the fractional triangle packing and cover
LPs all have this shape.  A program is stored by column: for each
variable, the rows that hold it.  ``solve_unit_program`` takes the rows as
lists of variable indices, solves the program, certifies the solution and
returns the optimum and primal witness as rationals, which are checked
with straight equality instead of tolerances.  The weight LP poses its
columns directly (``graphs._induced_columns``) and reads the certified
numerators without any rational.

The solver is a two-phase simplex with Bland's anti-cycling pivot rule.  On
an OPTIMAL result the solution carries a primal vector and one dual value
per row, extracted from the final basis, so strong duality is checkable
without a second solve.

Inside the solver everything is fraction-free (Edmonds 1967; Bareiss
1968): integer numerators over one positive common denominator
d = |det B| of the current basis B.  No tableau is kept.  A basic slack,
surplus or artificial is a signed unit column, so B is determined by its
kernel K: the basic decision columns restricted to the rows without a basic
logical.  The solver keeps d * K^-1, the basic values and the duals
pi = c_B d B^-1 (Bixby 1992; Azulay and Pique 2001).  Pricing walks the
nonbasic ids upward and computes each reduced cost d * c - pi . a_j from
the sparse column; the entering column d * B^-1 a_q comes from K^-1 on the
kernel rows and from the basic decisions' entries on the other rows.  One
Bareiss update of cost k^2 per pivot, for a kernel of order k, keeps all
three equal to d times their rational values, and the kernel gains or
loses the one row whose logical left or entered.  These are exactly the
numerators d * B^-1 A of the full tableau for the same basis, and Bland's
rule and the ratio test compare them as the tableau simplex would, so the
pivot path, and with it every primal and dual witness, is the one the
rational simplex on the full tableau takes.

The solution is read off the final basis as integers over d: the optimum,
the primal and the duals (``_Solution``).  The certificate decides these
numerators directly, recomputed from the columns and the reported
solution alone, never from the basis, as integer sums: primal rows, both
objective equalities, dual signs and every reduced cost.  Rationals are
built only where a caller reads them: ``solve_unit_program`` builds the
optimum and the primal, ``_Solution.rational`` the whole solution.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from ._record import _Frozen
from .errors import CapabilityError, CertificateError, InputError

Rational = Fraction

_ZERO = Fraction(0)


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


class LpSolution(_Frozen):
    """A solution as rationals: the view the dense oracle also returns."""

    __slots__ = ("status", "optimum", "primal", "dual")

    def __init__(self, status: LpStatus, optimum: Fraction | None = None,
                 primal: tuple[Fraction, ...] = (), dual: tuple[Fraction, ...] = ()):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "optimum", optimum)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)


class _Solution(NamedTuple):
    """A solution as integer numerators over one positive denominator d.

    On OPTIMAL, ``optimum`` is d times the optimum, ``primal`` d times each
    variable and ``dual`` d times each row's dual, read off the final basis.
    """

    status: LpStatus
    d: int = 1
    optimum: int = 0
    primal: Sequence[int] = ()
    dual: Sequence[int] = ()

    def rational(self) -> LpSolution:
        if self.status is not LpStatus.OPTIMAL:
            return LpSolution(self.status)
        d = self.d
        return LpSolution(
            self.status, Fraction(self.optimum, d),
            tuple(Fraction(v, d) if v else _ZERO for v in self.primal),
            tuple(Fraction(v, d) if v else _ZERO for v in self.dual),
        )


class _Program(NamedTuple):
    """A unit program, stored by column.

    Column j lists the rows ``crow[j]`` that hold variable j, in order;
    each of the ``m`` rows holds its sum to ``relation`` 1, and the sum of
    all variables is maximized or minimized.
    """

    crow: list[list[int]]
    m: int
    relation: Relation
    maximize: bool


def _unit_program(num_vars: int, rows: Iterable[Iterable[int]], sense: Sense,
                  relation: Relation) -> _Program:
    """The unit program over index rows."""
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
    return _Program(crow, m, relation, sense is Sense.MAX)


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

    __slots__ = ("n", "crow", "slack", "d", "inv", "cols", "pos", "rows",
                 "rpos", "lvar", "sig", "lx")

    def __init__(self, crow: list[list[int]], slack: list, lvar: list[int]):
        """The unit basis: logical lvar[i] basic in every row i, d = 1."""
        n, m = len(crow), len(lvar)
        self.n = n
        self.crow = crow
        self.slack = slack
        self.d = 1
        self.inv: list[list[int]] = []
        self.cols: list[int] = []
        self.pos = [-1] * n
        self.rows = [m]
        self.rpos = [0] * m
        self.lvar = lvar
        self.sig = [1] * m
        self.lx = [1] * m

    def column(self, q: int) -> tuple[list[int], dict[int, int]]:
        """d * B^-1 a_q for a decision, slack or surplus q: its part on the
        basic decisions, aligned with ``inv``, and its nonzero entries on
        the logical rows, by row."""
        if q < self.n:
            rows, v = self.crow[q], 1
        else:
            r, v = self.slack[q - self.n]
            rows = (r,)
        d, sig, inv = self.d, self.sig, self.inv
        if not inv:
            return [], {i: sig[i] * d * v for i in rows}
        rpos = self.rpos
        kcol = [rpos[i] for i in rows if rpos[i]]
        if len(kcol) == 1:
            c = kcol[0]
            alpha = [v * row[c] for row in inv]
        elif kcol:
            get = itemgetter(*kcol)
            alpha = [sum(get(row)) for row in inv]
        else:
            alpha = [0] * len(inv)
        t = {i: d * v for i in rows if sig[i]}
        crow = self.crow
        for j, a in zip(self.cols, alpha):
            if a:
                for i in crow[j]:
                    if sig[i]:
                        t[i] = t.get(i, 0) - a
        return alpha, {i: sig[i] * x for i, x in t.items() if x}

    def crash(self, pairs: list[tuple[int, int]]) -> None:
        """Start from a basis where decision j is basic in row i for each
        (i, j) of ``pairs``, column j being e_i: the kernel is the identity
        and d stays 1."""
        size = len(pairs) + 1
        for c, (i, j) in enumerate(pairs, 1):
            row = [0] * size
            row[0] = row[c] = 1
            self.inv.append(row)
            self.cols.append(j)
            self.pos[j] = c - 1
            self.rows.append(i)
            self.rpos[i] = c
            self.sig[i] = 0
        self.lx = [1 if v >= 0 else 0 for v in self.lvar]

    def duals(self, c: int) -> list[int]:
        """pi = c_B d B^-1 for cost c on every decision, then c_B d x_B."""
        acc = [0] * len(self.rows)
        for row in self.inv:
            acc = [a + b for a, b in zip(acc, row)]
        pi = [0] * (len(self.lvar) + 1)
        for r, v in zip(self.rows, acc):
            pi[r] = c * v
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
        crow = self.crow
        acc = [0] * len(self.rows)
        for j, row in zip(self.cols, self.inv):
            if i in crow[j]:
                acc = [a - b for a, b in zip(acc, row)]
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


def _run_simplex(kern: _Kernel, c: int, pi: list[int]) -> list[int] | None:
    """Bland's rule: smallest eligible variable id, smallest basic id on ties.

    Prices the nonbasic decisions, each of cost c, then the slacks and
    surpluses by id, the reduced cost of a column a_j being
    d * c_j - pi . a_j, and enters the first positive one; artificials
    never enter.  Returns the final duals, or None if the program is
    unbounded.  All numerators share the positive denominator d, so signs
    and ratios are those of the rational tableau.
    """
    crow, slack, pos, lvar = kern.crow, kern.slack, kern.pos, kern.lvar
    for _ in range(_MAX_PIVOTS):
        dc = kern.d * c
        get = pi.__getitem__
        for j, (b, rows) in enumerate(zip(pos, crow)):
            if b < 0:
                rc = dc - sum(map(get, rows))
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


def _solve(prog: _Program) -> _Solution:
    """Two-phase simplex on a unit program."""
    crow, m, relation, maximize = prog
    n = len(crow)

    # Variable ids: decisions, then one slack (e_i) or surplus (-e_i) per
    # row of a <= or >= program, in row order; row i's artificial is
    # art_start + i, above every other id.  The unit basis takes the slack
    # of a <= row and the artificial of a >=/= row, so d = 1.
    art_start = n + m
    if relation is Relation.LE:
        slack = [(i, 1) for i in range(m)]
        lvar = list(range(n, art_start))
    else:
        slack = [(i, -1) for i in range(m)] if relation is Relation.GE else []
        lvar = list(range(art_start, art_start + m))
    kern = _Kernel(crow, slack, lvar)

    # Crash basis: a >=/= row takes the first decision column whose only
    # 1 is in that row, in place of its artificial.
    crashed = []
    for j, rows in enumerate(crow):
        if len(rows) == 1 and lvar[rows[0]] >= art_start:
            lvar[rows[0]] = -1
            crashed.append((rows[0], j))
    if crashed:
        kern.crash(crashed)

    art_rows = [i for i, v in enumerate(lvar) if v >= art_start]
    if art_rows:
        # Phase 1 minimizes the sum of the artificials, each 1 at the start.
        pi = [0] * (m + 1)
        for i in art_rows:
            pi[i] = -1
        pi[m] = -len(art_rows)
        pi = _run_simplex(kern, 0, pi)
        if pi[m]:
            return _Solution(LpStatus.INFEASIBLE)
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

    cost = 1 if maximize else -1
    pi = _run_simplex(kern, cost, kern.duals(cost))
    if pi is None:
        return _Solution(LpStatus.UNBOUNDED)

    # The simplex maximizes cost times the sum, so the objective and the
    # duals carry its sign.
    primal = [0] * n
    for j, row in zip(kern.cols, kern.inv):
        primal[j] = row[0]
    dual = pi[:m] if maximize else [-y for y in pi[:m]]
    return _Solution(LpStatus.OPTIMAL, kern.d, cost * pi[m], primal, dual)


def _certified(prog: _Program, solution: _Solution) -> bool:
    """Primal feasible, dual feasible, objectives equal, decided in integers.

    The optimum, x and y are numerators over one denominator d > 0, so
    every comparison is between integers.
    """
    if solution.status is not LpStatus.OPTIMAL:
        return False
    crow, m, relation, maximize = prog
    d, p, xs, ys = solution.d, solution.optimum, solution.primal, solution.dual
    if d <= 0 or len(xs) != len(crow) or len(ys) != m:
        return False
    if min(xs, default=0) < 0:
        return False

    # A x against d, from the columns of the nonzero x_j.
    lhs = [0] * m
    for rows, v in zip(crow, xs):
        if v:
            for i in rows:
                lhs[i] += v
    if relation is Relation.LE:
        feasible = all(ax <= d for ax in lhs)
    elif relation is Relation.GE:
        feasible = all(ax >= d for ax in lhs)
    else:
        feasible = all(ax == d for ax in lhs)
    if not feasible:
        return False

    # The sums of x and of y against the optimum.
    if sum(xs) != p or sum(ys) != p:
        return False

    # y >= 0 on the rows of a max <= or min >= program, y <= 0 on those of
    # a max >= or min <= program.
    if relation is not Relation.EQ:
        if (relation is Relation.LE) == maximize:
            if min(ys, default=0) < 0:
                return False
        elif max(ys, default=0) > 0:
            return False

    # The reduced costs 1 - A^T y, times d: A^T y >= 1 for a max program,
    # <= 1 for a min program.
    get = ys.__getitem__
    loads = [sum(map(get, rows)) for rows in crow]
    if maximize:
        return min(loads, default=d) >= d
    return max(loads, default=d) <= d


def _solve_certified(prog: _Program, what: str) -> _Solution:
    """The optimal solution of a unit program, as numerators over d;
    raises CertificateError("<what> failed to certify") unless the program
    is optimal and the certificate check accepts the solution."""
    solution = _solve(prog)
    if not _certified(prog, solution):
        raise CertificateError(f"{what} failed to certify")
    return solution


def solve_unit_program(num_vars: int, rows: Iterable[Iterable[int]], sense: Sense,
                       relation: Relation, what: str) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Optimize the sum of ``num_vars`` nonnegative variables, certified.

    Each row lists the variables whose sum is held to ``relation`` 1, in
    order.  Returns the optimum and the primal witness; raises
    CertificateError("<what> failed to certify") unless the program is
    optimal and the certificate check, recomputed from the rows and the
    reported solution alone, accepts it.
    """
    solution = _solve_certified(_unit_program(num_vars, rows, sense, relation), what)
    d = solution.d
    return Fraction(solution.optimum, d), tuple(
        Fraction(v, d) if v else _ZERO for v in solution.primal)
