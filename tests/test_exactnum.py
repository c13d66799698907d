"""Solver-level checks: known optima, duality certificates, degeneracy."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import wramsey
from wramsey import exactnum, packing, weighted_ramsey
from wramsey.errors import CertificateError, InputError
from wramsey.exactnum import (
    LpSolution,
    LpStatus,
    Relation,
    Sense,
    solve_unit_program,
)
from wramsey.graphs import Graph, TwoColoring, all_edges, enumerate_colorings

from dense_oracle import solve_unit as dense_solve_unit
from unit_programs import capture_unit_programs


def _solved(*args):
    """The integer program of (num_vars, rows, sense, relation), its
    solution as numerators over d and that solution as rationals."""
    prog = exactnum._unit_program(*args)
    raw = exactnum._solve(prog)
    return prog, raw, raw.rational()


def _over_one_denominator(sol: LpSolution) -> exactnum._Solution:
    """A rational solution as numerators over the lcm of its denominators."""
    if sol.status is not LpStatus.OPTIMAL:
        return exactnum._Solution(sol.status)
    d = lcm(*(v.denominator for v in (sol.optimum, *sol.primal, *sol.dual)))

    def scaled(values):
        return [v.numerator * (d // v.denominator) for v in values]

    return exactnum._Solution(sol.status, d, scaled([sol.optimum])[0],
                              scaled(sol.primal), scaled(sol.dual))


def test_single_binding_constraint():
    prog, raw, sol = _solved(1, [[0]], Sense.MAX, Relation.LE)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == 1
    assert sol.primal == (F(1),)
    assert exactnum._certified(prog, raw)


def test_triangle_packing_of_k3_lp():
    # max g subject to g <= 1 on each of the 3 edges.
    prog, raw, sol = _solved(1, [[0]] * 3, Sense.MAX, Relation.LE)
    assert sol.optimum == 1
    assert exactnum._certified(prog, raw)


def _k4_cover_rows():
    # min total weight over the 4 triangles of K4 covering each of 6 edges.
    tris = list(combinations(range(4), 3))
    return [[t for t, tri in enumerate(tris) if set(e) <= set(tri)]
            for e in combinations(range(4), 2)]


def test_k4_cover_lp_optimum_two():
    rows = _k4_cover_rows()
    # Independent certificate pair: y = 1/2 on each triangle is feasible
    # (each edge lies in exactly 2 triangles) with objective 2, and w = 1/3
    # per edge is feasible for the dual (each triangle holds 3 edges) with
    # the same objective, so 2 is optimal before the solver ever runs.
    for row in rows:
        assert len(row) * F(1, 2) >= 1
    assert 4 * F(1, 2) == 2
    assert 6 * F(1, 3) == 2

    prog, raw, sol = _solved(4, rows, Sense.MIN, Relation.GE)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == 2
    assert exactnum._certified(prog, raw)


def test_certificates_reject_perturbed_optimum():
    prog, raw, sol = _solved(1, [[0]] * 3, Sense.MAX, Relation.LE)
    bad = LpSolution(LpStatus.OPTIMAL, sol.optimum + F(1, 1000), sol.primal, sol.dual)
    assert exactnum._certified(prog, raw)
    assert exactnum._certified(prog, _over_one_denominator(sol))
    assert not exactnum._certified(prog, _over_one_denominator(bad))
    assert not exactnum._certified(prog, raw._replace(optimum=raw.optimum + 1))


def test_unbounded_with_no_constraints():
    _, _, sol = _solved(1, [], Sense.MAX, Relation.LE)
    assert sol.status is LpStatus.UNBOUNDED


def test_infeasible_unit_programs():
    for args in [
        # x0 = x1 = 1 from the last two rows breaks the first.
        (2, [[0, 1], [0], [1]], Sense.MAX, Relation.EQ),
        # An empty row cannot reach 1.
        (1, [[0], []], Sense.MIN, Relation.GE),
    ]:
        _, _, sol = _solved(*args)
        assert sol.status is LpStatus.INFEASIBLE
        assert sol == dense_solve_unit(*args)


def test_min_with_ge_row():
    prog, raw, sol = _solved(3, [[0], [1], [2]], Sense.MIN, Relation.GE)
    assert sol.optimum == 3
    assert exactnum._certified(prog, raw)


def test_equality_row():
    # Five disjoint pairs, each summing to exactly 1.
    prog, raw, sol = _solved(10, [[j, j + 1] for j in range(0, 10, 2)], Sense.MAX, Relation.EQ)
    assert sol.optimum == 5
    assert exactnum._certified(prog, raw)


def test_bad_variable_index_rejected():
    with pytest.raises(InputError, match="^constraint 0 references variable 2$"):
        solve_unit_program(2, [[2]], Sense.MAX, Relation.LE, "demo LP")
    with pytest.raises(InputError, match="^constraint 1 references variable -1$"):
        solve_unit_program(2, [[0], [-1]], Sense.MAX, Relation.LE, "demo LP")


def test_repeated_variable_in_a_direct_row_rejected():
    # A row must not name one variable twice: its sum would count it twice.
    with pytest.raises(InputError, match="^constraint 0 names variable 0 twice$"):
        solve_unit_program(1, [[0, 0]], Sense.MAX, Relation.LE, "demo LP")
    with pytest.raises(InputError, match="^constraint 1 names variable 0 twice$"):
        solve_unit_program(1, [[0], [0, 0]], Sense.MAX, Relation.LE, "demo LP")


def test_negative_variable_count_rejected():
    with pytest.raises(InputError, match="^num_vars must be nonnegative$"):
        solve_unit_program(-1, [], Sense.MAX, Relation.LE, "demo LP")


def test_package_exports_the_unit_program_api():
    assert wramsey.solve_unit_program is solve_unit_program
    assert (wramsey.Sense, wramsey.Relation, wramsey.Rational) == (Sense, Relation, F)
    assert wramsey.solve_unit_program(3, [[0, 1], [1, 2]], Sense.MAX, Relation.LE, "demo LP") == (
        2, (1, 0, 1))


def _random_program(rng: random.Random):
    n = rng.randint(1, 4)
    rows = [[j for j in range(n) if rng.random() < 0.5] for _ in range(rng.randint(1, 5))]
    return n, rows, rng.choice(list(Sense)), rng.choice(list(Relation))


def test_random_problems_certify_and_commute():
    rng = random.Random(1789)
    optimal = 0
    for _ in range(250):
        n, rows, sense, relation = _random_program(rng)
        prog, raw, sol = _solved(n, rows, sense, relation)
        if sol.status is LpStatus.OPTIMAL:
            optimal += 1
            assert exactnum._certified(prog, raw)
            # Row order must not change the optimum value.
            shuffled = list(rows)
            rng.shuffle(shuffled)
            _, _, sol2 = _solved(n, shuffled, sense, relation)
            assert sol2.status is LpStatus.OPTIMAL
            assert sol2.optimum == sol.optimum
    assert optimal > 50


def test_deterministic_resolve():
    rng = random.Random(7)
    for _ in range(25):
        args = _random_program(rng)
        assert _solved(*args)[1:] == _solved(*args)[1:]


_SMALL_RATIONALS = st.builds(
    F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 4, 6])
)


@st.composite
def _unit_programs(draw):
    """num_vars, index rows, sense and relation of a small unit program."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n), max_size=6))
    return n, rows, draw(st.sampled_from(list(Sense))), draw(st.sampled_from(list(Relation)))


def _highs(num_vars, rows, sense, relation):
    """The same unit program in floating point through SciPy's HiGHS solver."""
    sign = -1.0 if sense is Sense.MAX else 1.0
    dense = [[1.0 if j in row else 0.0 for j in range(num_vars)] for row in rows]
    ones = [1.0] * len(rows)
    if relation is Relation.GE:
        dense = [[-v for v in row] for row in dense]
        ones = [-1.0] * len(rows)
    bound = {"A_eq" if relation is Relation.EQ else "A_ub": dense or None,
             "b_eq" if relation is Relation.EQ else "b_ub": ones or None}
    res = linprog([sign] * num_vars, bounds=(0, None), method="highs", **bound)
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return status[res.status], (sign * res.fun if res.status == 0 else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unit_programs())
def test_random_lps_certify_and_agree_with_highs(args):
    prog, raw, sol = _solved(*args)
    status, optimum = _highs(*args)
    assert sol.status is status
    if sol.status is LpStatus.OPTIMAL:
        assert exactnum._certified(prog, raw)
        assert abs(float(sol.optimum) - optimum) <= 1e-9 * max(1.0, abs(optimum))


def _fraction_check_certificates(args, solution) -> bool:
    """Oracle: the same certificate checks on a unit program, summed in Fractions."""
    num_vars, rows, sense, relation = args
    if solution.status is not LpStatus.OPTIMAL or solution.optimum is None:
        return False
    x = solution.primal
    y = solution.dual
    if len(x) != num_vars or len(y) != len(rows):
        return False
    if any(v < 0 for v in x):
        return False
    for row in rows:
        lhs = sum((x[j] for j in row), F(0))
        if relation is Relation.LE and not lhs <= 1:
            return False
        if relation is Relation.GE and not lhs >= 1:
            return False
        if relation is Relation.EQ and lhs != 1:
            return False
    if sum(x, F(0)) != solution.optimum or sum(y, F(0)) != solution.optimum:
        return False
    maximize = sense is Sense.MAX
    for yi in y:
        if relation is Relation.LE and (yi < 0 if maximize else yi > 0):
            return False
        if relation is Relation.GE and (yi > 0 if maximize else yi < 0):
            return False
    reduced = [F(1)] * num_vars
    for row, yi in zip(rows, y):
        for j in row:
            reduced[j] -= yi
    if maximize:
        return all(r <= 0 for r in reduced)
    return all(r >= 0 for r in reduced)


def _tampered(data, args, sol):
    """The solver's pair, or one with a single entry moved, or a random one."""
    num_vars, rows = args[0], args[1]
    shift = data.draw(_SMALL_RATIONALS)
    kind = data.draw(st.sampled_from(
        ["none", "primal", "dual", "optimum", "scale_dual", "random", "short"]
    ))
    if sol.status is not LpStatus.OPTIMAL or kind == "random":
        m = len(rows)
        x = data.draw(st.lists(_SMALL_RATIONALS, min_size=num_vars, max_size=num_vars))
        y = data.draw(st.lists(_SMALL_RATIONALS, min_size=m, max_size=m))
        return LpSolution(LpStatus.OPTIMAL, data.draw(_SMALL_RATIONALS), tuple(x), tuple(y))
    x, y, opt = list(sol.primal), list(sol.dual), sol.optimum
    if kind == "primal":
        x[data.draw(st.integers(0, len(x) - 1))] += shift
    elif kind == "dual" and y:
        y[data.draw(st.integers(0, len(y) - 1))] += shift
    elif kind == "optimum":
        opt += shift
    elif kind == "scale_dual":
        y = [v * (1 + shift) for v in y]
    elif kind == "short":
        x = x[:-1]
    return LpSolution(sol.status, opt, tuple(x), tuple(y))


@st.composite
def _oracle_programs(draw):
    """A small unit program without empty rows, plus rows and columns that
    force the solver's side paths.

    crash: a fresh variable alone in a row, so a >= or = row takes it into
    the crash basis.  drive_out: = rows and a copy of one of them, so an
    artificial may stay basic after phase 1 and leave in the drive-out.
    infeasible: an empty row, which a >= or = row cannot satisfy.
    unbounded: a fresh variable in no row, which a max program rewards.
    """
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(
        st.integers(0, n - 1), unique=True, min_size=1, max_size=n), max_size=6))
    sense = draw(st.sampled_from(list(Sense)))
    relation = draw(st.sampled_from(list(Relation)))
    extras = draw(st.sets(st.sampled_from(
        ["crash", "drive_out", "infeasible", "unbounded"])))
    if "crash" in extras:
        rows.append([j for j in range(n) if draw(st.booleans())] + [n])
        n += 1
    if "drive_out" in extras:
        relation = Relation.EQ
        rows.append(draw(st.sampled_from(rows)) if rows else [0])
    if "infeasible" in extras:
        rows.append([])
    if "unbounded" in extras:
        n += 1
    return n, rows, sense, relation


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_oracle_programs(), st.data())
def test_integer_certificate_check_matches_fraction_oracle(args, data):
    # The integer check, on the solver's numerators and on tampered pairs
    # over one denominator, against the Fraction oracle, on programs that
    # reach every side path.
    prog, raw, sol = _solved(*args)
    assert exactnum._certified(prog, raw) == _fraction_check_certificates(args, sol)
    pair = _tampered(data, args, sol)
    assert (exactnum._certified(prog, _over_one_denominator(pair))
            == _fraction_check_certificates(args, pair))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_unit_programs(), st.data())
def test_unit_certificate_check_matches_fraction_oracle(args, data):
    # The integer check, on the solver's numerators and on tampered pairs
    # over one denominator, against the Fraction oracle; the solver's pair
    # is the dense oracle's.
    prog, raw, sol = _solved(*args)
    assert sol == dense_solve_unit(*args)
    assert exactnum._certified(prog, raw) == _fraction_check_certificates(args, sol)
    pair = _tampered(data, args, sol)
    assert (exactnum._certified(prog, _over_one_denominator(pair))
            == _fraction_check_certificates(args, pair))


@pytest.mark.parametrize("sense, relation, optimum, wrong_dual", [
    (Sense.MAX, Relation.LE, 1, (2, -1)),
    (Sense.MIN, Relation.GE, 1, (2, -1)),
    (Sense.MIN, Relation.LE, 0, (1, -1)),
])
def test_unit_certificate_check_rejects_a_dual_of_the_wrong_sign(
        sense, relation, optimum, wrong_dual):
    # Two copies of the row x0 <relation> 1: moving dual weight from one copy
    # to the other keeps b.y and A^T y, so only the sign check can object.
    args = (1, [[0], [0]], sense, relation)
    prog, raw, sol = _solved(*args)
    assert sol.optimum == optimum
    assert exactnum._certified(prog, raw)
    assert not exactnum._certified(prog, raw._replace(dual=[raw.d * y for y in wrong_dual]))
    bad = LpSolution(LpStatus.OPTIMAL, sol.optimum, sol.primal, tuple(map(F, wrong_dual)))
    assert not exactnum._certified(prog, _over_one_denominator(bad))
    assert not _fraction_check_certificates(args, bad)


def _nonzero(values):
    return {i: str(v) for i, v in enumerate(values) if v}


# A dense graph on 8 vertices with 23 edges.
_DENSE_8 = Graph(8, 259514301)


def test_pinned_witness_tau_star_dense_8(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    value, _ = packing.tau_star(_DENSE_8)
    (num_vars, rows, _, _), sol = seen[-1]
    assert (num_vars, len(rows)) == (29, 23)
    assert value == sol.optimum == F(23, 3)
    assert _nonzero(sol.primal) == {
        0: "1/2", 1: "1/3", 3: "1/6", 4: "1/6", 5: "1/3", 6: "1/2", 7: "1/2",
        8: "2/3", 9: "1/6", 11: "1/6", 13: "1/2", 17: "1/6", 18: "2/3",
        19: "1/6", 20: "1/3", 22: "1/3", 23: "1/6", 24: "2/3", 25: "5/6",
        26: "1/6", 27: "1/6",
    }
    assert sol.dual == (F(1, 3),) * 23


def test_pinned_witness_r_tilde_dense_8(monkeypatch):
    # Each edge's single-edge member is posed once, so the columns are the
    # 140 members with two or three edges and 23 single-edge members.  The
    # witness is pinned by member: the column of a member depends on which
    # copies are posed, the member does not.
    seen = capture_unit_programs(monkeypatch)
    value, witness = packing.r_tilde(_DENSE_8)
    (num_vars, rows, _, _), sol = seen[-1]
    assert (num_vars, len(rows)) == (163, 23)
    assert value == sol.optimum == F(23, 3)
    pinned = {
        (0, 1, 3): "1/2", (0, 1, 4): "1/3", (0, 1, 6): "1/6", (0, 3, 4): "1/6",
        (0, 3, 6): "1/3", (0, 4, 5): "1/2", (0, 5, 6): "1/2", (1, 2, 4): "2/3",
        (1, 2, 5): "1/6", (1, 2, 7): "1/6", (1, 3, 6): "1/2", (1, 5, 6): "1/6",
        (1, 5, 7): "2/3", (1, 6, 7): "1/6", (2, 4, 5): "1/3", (2, 5, 6): "1/3",
        (2, 5, 7): "1/6", (2, 6, 7): "2/3", (3, 4, 7): "5/6", (3, 6, 7): "1/6",
        (4, 5, 7): "1/6",
    }
    # Every member of the witness is a triangle, in column order.
    assert all(d.is_triangle for d in witness.weights)
    assert {d.vertices: str(w) for d, w in witness.weights.items()} == pinned
    assert [str(v) for v in sol.primal if v] == list(pinned.values())
    assert sol.dual == (F(1, 3),) * 23


def test_pinned_witness_r_induced_dense_8(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    value, _ = packing.r_induced(_DENSE_8)
    (num_vars, rows, _, _), sol = seen[-1]
    assert (num_vars, len(rows)) == (56, 23)
    assert value == sol.optimum == F(23, 3)
    assert _nonzero(sol.primal) == {
        1: "1/2", 2: "1/3", 4: "1/6", 11: "1/6", 13: "1/3", 15: "1/2",
        18: "1/2", 22: "2/3", 23: "1/6", 25: "1/6", 28: "1/2", 33: "1/6",
        34: "2/3", 35: "1/6", 40: "1/3", 43: "1/3", 44: "1/6", 45: "2/3",
        48: "5/6", 51: "1/6", 53: "1/6",
    }
    assert sol.dual == (F(1, 3),) * 23


def test_pinned_witness_weight_lp_k7_class_k4(monkeypatch):
    # The class representative at index 261 of enumerate_colorings(7).  The
    # weight LP is solved as a red block, then a blue block; the pins are
    # those of the joint program over all 21 edges (rows: each 4-set's red
    # row, then its blue row), reassembled from the two blocks.
    c = TwoColoring(Graph(7, 7090))
    seen = capture_unit_programs(monkeypatch)
    value, _ = weighted_ramsey.r_of_coloring(c, 4)
    (red, red_sol), (blue, blue_sol) = seen
    assert (red[0], len(red[1])) == (8, 34)
    assert (blue[0], len(blue[1])) == (13, 35)
    assert value == red_sol.optimum + blue_sol.optimum == F(157, 30)
    weight = dict(zip(c.red.edges(), red_sol.primal))
    weight.update(zip(c.blue.edges(), blue_sol.primal))
    assert [str(weight[e]) for e in all_edges(7)] == [
        "1/3", "2/5", "1/6", "1/3", "1/5", "2/5", "1/3", "1/5", "2/5", "2/5",
        "1/6", "1/5", "1/5", "1/3", "1/6", "0", "1/6", "1/3", "1/3", "1/6",
        "0",
    ]
    red_dual, blue_dual = iter(red_sol.dual), iter(blue_sol.dual)
    dual = []
    for subset in combinations(range(7), 4):
        for graph, block in ((c.red, red_dual), (c.blue, blue_dual)):
            if graph.induced_edges(subset):
                dual.append(next(block))
    assert len(dual) == 69
    assert _nonzero(dual) == {
        4: "2/5", 5: "1/3", 7: "1/3", 13: "1/6", 17: "1/6", 18: "2/5",
        24: "1/5", 28: "1/5", 30: "1/5", 33: "1/2", 35: "1/3", 40: "4/5",
        51: "1/3", 52: "1/5", 65: "1/6", 67: "1/6", 68: "1/3",
    }


def test_unit_program_failures_name_the_program():
    # An empty = row cannot reach 1; a max program without rows is unbounded.
    with pytest.raises(CertificateError, match="^demo LP failed to certify$"):
        solve_unit_program(2, [[0, 1], []], Sense.MIN, Relation.EQ, "demo LP")
    with pytest.raises(CertificateError, match="^demo LP failed to certify$"):
        solve_unit_program(2, [], Sense.MAX, Relation.LE, "demo LP")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_oracle_programs())
def test_kernel_inverse_matches_dense_oracle(args):
    # Same status, optimum, primal and dual: the same pivot path.
    assert _solved(*args)[2] == dense_solve_unit(*args)


@st.composite
def _spanning_programs(draw):
    """A >= or = unit program in which every row holds a column of its own,
    at a drawn place among shared columns of two or three rows, like
    r_tilde's members.  The crash basis puts a decision in every row, as it
    does for r_tilde, so the kernel spans every row from the start; in a
    >= program a surplus can enter and reopen a logical row.  A drawn row
    may go without its own column, so that the kernel starts one row short
    of spanning and phase 1 closes the last logical row."""
    m = draw(st.integers(1, 6))
    shared = draw(st.integers(0, 8))
    cols = [draw(st.lists(st.integers(0, m - 1), unique=True, min_size=min(2, m), max_size=3))
            for _ in range(shared)]
    short = draw(st.integers(0, m - 1)) if draw(st.booleans()) else -1
    rows = [[j for j, col in enumerate(cols) if i in col] + [shared + i] * (i != short)
            for i in range(m)]
    ids = draw(st.permutations(range(shared + m)))
    rows = [sorted(ids[j] for j in row) for row in rows]
    sense = draw(st.sampled_from(list(Sense)))
    relation = draw(st.sampled_from([Relation.GE, Relation.EQ]))
    return shared + m, rows, sense, relation


@settings(max_examples=800, deadline=None, derandomize=True)
@given(_spanning_programs())
def test_kernel_spanning_every_row_matches_dense_oracle(args):
    # Same status, optimum, primal and dual: the same pivot path.
    assert _solved(*args)[2] == dense_solve_unit(*args)


def test_weight_lp_blocks_match_dense_oracle(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    for n in range(3, 7):
        for c in enumerate_colorings(n):
            for k in range(3, n + 1):
                weighted_ramsey.r_of_coloring(c, k)
    assert len(seen) == 750
    for program, sol in seen:
        assert sol == dense_solve_unit(*program)


def _assert_kernel_exact(kern):
    """d * K^-1 inverts the kernel and the basic values solve every row,
    checked against the columns rather than the pivots that built them."""
    d, crow, cols, rows = kern.d, kern.crow, kern.cols, kern.rows
    assert d > 0
    for s, row in enumerate(kern.inv):
        for s2, j in enumerate(cols):
            entry = sum(row[c] for c in range(1, len(rows)) if rows[c] in crow[j])
            assert entry == (d if s == s2 else 0)
    for i, sig in enumerate(kern.sig):
        total = sum(row[0] for j, row in zip(cols, kern.inv) if i in crow[j])
        assert total + sig * kern.lx[i] == d


def _record_pivots(monkeypatch):
    """Record (entering id, leaving id, pivot entry) of every pivot taken,
    and check the kernel after each."""
    seen = []
    pivot = exactnum._Kernel.pivot

    def recording(kern, q, alpha, t, s_out, i_out, rc, pi):
        if s_out >= 0:
            seen.append((q, kern.cols[s_out], alpha[s_out]))
        else:
            seen.append((q, kern.lvar[i_out], t[i_out]))
        pi = pivot(kern, q, alpha, t, s_out, i_out, rc, pi)
        _assert_kernel_exact(kern)
        return pi

    monkeypatch.setattr(exactnum._Kernel, "pivot", recording)
    return seen


def test_own_surplus_drives_out_an_empty_ge_row():
    # Row 1 of x0 >= 1, 0 >= 1 is empty, so phase 1 stops the program as
    # infeasible before any drive-out; the pivot is taken here on the
    # kernel directly, from the basis _solve starts from.  The crash basis
    # holds x0 in row 0 and row 1's artificial (id 4) at 1.  Only the row's
    # own surplus (id 2) has a nonzero entry in the artificial's row, -d,
    # so the pivot is on a negative entry and the kernel keeps its shape;
    # the surplus then holds -1, and the negation keeps d = 1.
    prog = exactnum._unit_program(1, [[0], []], Sense.MAX, Relation.GE)
    kern = exactnum._Kernel(prog.crow, [(0, -1), (1, -1)], [3, 4])
    kern.lvar[0] = -1
    kern.crash([(0, 0)])
    alpha, t = kern.column(2)
    assert t == {1: -1}
    kern.pivot(2, alpha, t, -1, 1, 0, None)
    assert (kern.d, kern.inv, kern.rows, kern.lvar, kern.sig, kern.lx) == (
        1, [[1, 1]], [2, 0], [-1, 2], [0, -1], [0, -1])
    _assert_kernel_exact(kern)


def test_drive_out_pivots_on_a_negative_entry(monkeypatch):
    # x1 lies only in row 1, so the crash basis takes it there.  x0 (id 0)
    # enters in phase 1 and ties with row 0's artificial (id 4); the
    # smaller id, x1, leaves, so the artificial stays basic at zero.  Only
    # x1 has a nonzero entry in the artificial's row, -d, so the drive-out
    # pivots on a negative entry, the kernel grows by row 0 and the whole
    # basis is negated to keep d positive.
    seen = _record_pivots(monkeypatch)
    args = (2, [[0], [0, 1]], Sense.MAX, Relation.EQ)
    prog, raw, sol = _solved(*args)
    assert sol == dense_solve_unit(*args)
    assert (sol.optimum, sol.primal, sol.dual) == (1, (1, 0), (0, 1))
    assert seen == [(0, 1, 1), (1, 4, -1)]
    assert exactnum._certified(prog, raw)


def test_slacks_leave_and_reenter_at_other_kernel_columns(monkeypatch):
    # The slacks of rows 1, 3, 4, 2 and 0 (ids 8, 10, 11, 9 and 7) leave in
    # turn, so the kernel columns belong to rows [1, 3, 4, 2, 0].  When
    # slack 8 comes back, row 0's column moves into row 1's place, and
    # slack 7 then re-enters from there.
    seen = _record_pivots(monkeypatch)
    args = (7, [[1, 5], [0, 1], [0, 5], [0, 1, 2], [0, 1, 3, 4, 6]], Sense.MAX, Relation.LE)
    prog, raw, sol = _solved(*args)
    assert sol == dense_solve_unit(*args)
    assert (sol.optimum, sol.primal, sol.dual) == (3, (0, 0, 1, 1, 0, 1, 0), (0, 0, 1, 1, 1))
    assert seen == [(0, 8, 1), (2, 10, 1), (3, 11, 1), (5, 9, 1), (1, 7, 2), (8, 0, 1), (7, 1, 1)]
    assert exactnum._certified(prog, raw)


def test_packing_lps_match_dense_oracle(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    rng = random.Random(2016)
    sizes = [rng.randint(3, 7) for _ in range(30)]
    graphs = [Graph(n, rng.getrandbits(n * (n - 1) // 2)) for n in sizes]
    for g in graphs + [Graph.complete(7)]:
        packing.tau_star(g)
        packing.r_induced(g)
        packing.r_tilde(g)
    assert len(seen) == 76
    for program, sol in seen:
        assert sol == dense_solve_unit(*program)
