"""Solver-level checks: known optima, duality certificates, degeneracy."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from wramsey import exactnum, packing, weighted_ramsey
from wramsey.errors import CertificateError, InputError
from wramsey.exactnum import (
    LpConstraint,
    LpProblem,
    LpSolution,
    LpStatus,
    Relation,
    Sense,
    check_certificates,
    constraint,
    lp_problem,
    solve_lp,
    solve_unit_program,
)
from wramsey.graphs import Graph, TwoColoring, all_edges, enumerate_colorings

from dense_oracle import solve_lp as dense_solve_lp
from unit_programs import capture_unit_programs, unit_problem


def test_single_binding_constraint():
    prob = lp_problem(1, [1], Sense.MAX, [constraint({0: 1}, Relation.LE, 1)])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == 1
    assert sol.primal == (F(1),)
    assert check_certificates(prob, sol)


def test_triangle_packing_of_k3_lp():
    # max g subject to g <= 1 on each of the 3 edges.
    cons = [constraint({0: 1}, Relation.LE, 1) for _ in range(3)]
    prob = lp_problem(1, [1], Sense.MAX, cons)
    sol = solve_lp(prob)
    assert sol.optimum == 1
    assert check_certificates(prob, sol)


def _k4_cover_problem():
    # min total weight over the 4 triangles of K4 covering each of 6 edges.
    tris = list(combinations(range(4), 3))
    edges = list(combinations(range(4), 2))
    cons = []
    for e in edges:
        row = {t: 1 for t, tri in enumerate(tris) if set(e) <= set(tri)}
        cons.append(constraint(row, Relation.GE, 1))
    return lp_problem(4, [1] * 4, Sense.MIN, cons)


def test_k4_cover_lp_optimum_two():
    prob = _k4_cover_problem()
    # Independent certificate pair: y = 1/2 on each triangle is feasible
    # (each edge lies in exactly 2 triangles) with objective 2, and w = 1/3
    # per edge is feasible for the dual (each triangle holds 3 edges) with
    # the same objective, so 2 is optimal before the solver ever runs.
    for e_cons in prob.constraints:
        assert sum(v * F(1, 2) for _, v in e_cons.coeffs) >= 1
    assert 4 * F(1, 2) == 2
    assert 6 * F(1, 3) == 2

    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == 2
    assert check_certificates(prob, sol)


def test_certificates_reject_perturbed_optimum():
    cons = [constraint({0: 1}, Relation.LE, 1) for _ in range(3)]
    prob = lp_problem(1, [1], Sense.MAX, cons)
    sol = solve_lp(prob)
    bad = LpSolution(LpStatus.OPTIMAL, sol.optimum + F(1, 1000), sol.primal, sol.dual)
    assert check_certificates(prob, sol)
    assert not check_certificates(prob, bad)


def test_unbounded_with_no_constraints():
    prob = lp_problem(1, [1], Sense.MAX, [])
    assert solve_lp(prob).status is LpStatus.UNBOUNDED


def test_infeasible_negative_upper_bound():
    prob = lp_problem(1, [1], Sense.MAX, [constraint({0: 1}, Relation.LE, -1)])
    assert solve_lp(prob).status is LpStatus.INFEASIBLE


def test_min_with_ge_row():
    prob = lp_problem(1, [1], Sense.MIN, [constraint({0: 1}, Relation.GE, 3)])
    sol = solve_lp(prob)
    assert sol.optimum == 3
    assert check_certificates(prob, sol)


def test_equality_row():
    prob = lp_problem(2, [1, 1], Sense.MAX, [
        constraint({0: 1, 1: 1}, Relation.EQ, 5),
        constraint({0: 1}, Relation.LE, 2),
    ])
    sol = solve_lp(prob)
    assert sol.optimum == 5
    assert check_certificates(prob, sol)


def test_mixed_relations_min():
    prob = lp_problem(2, [2, 3], Sense.MIN, [
        constraint({0: 1, 1: 1}, Relation.GE, 4),
        constraint({0: 1, 1: -1}, Relation.LE, 1),
        constraint({1: 1}, Relation.LE, 3),
    ])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == F(19, 2)
    assert sol.primal == (F(5, 2), F(3, 2))
    assert check_certificates(prob, sol)


def test_beale_degenerate_example_terminates():
    # A classic cycling trap for naive pivot rules; Bland must finish.
    prob = lp_problem(
        4,
        [F(3, 4), -150, F(1, 50), -6],
        Sense.MAX,
        [
            constraint({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, Relation.LE, 0),
            constraint({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, Relation.LE, 0),
            constraint({2: 1}, Relation.LE, 1),
        ],
    )
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.optimum == F(1, 20)
    assert check_certificates(prob, sol)


def test_bad_variable_index_rejected():
    with pytest.raises(InputError):
        lp_problem(2, [1, 1], Sense.MAX, [constraint({2: 1}, Relation.LE, 1)])


def test_duplicate_indices_merge():
    con = constraint([(0, 1), (0, 2)], Relation.LE, 4)
    assert con.coeffs == ((0, F(3)),)


def test_repeated_variable_in_a_direct_row_rejected():
    # constraint() merges repeats; a row built directly must not name one
    # variable twice, since solve_lp and check_certificates would read it
    # differently.
    row = LpConstraint(((0, F(1)), (0, F(1))), Relation.LE, F(1))
    with pytest.raises(InputError, match="^constraint 1 names variable 0 twice$"):
        lp_problem(1, [1], Sense.MAX, [constraint({0: 1}, Relation.LE, 2), row])
    with pytest.raises(InputError, match="^constraint 0 names variable 0 twice$"):
        solve_lp(LpProblem(1, (F(1),), Sense.MAX, (row,)))
    with pytest.raises(InputError, match="^constraint 0 names variable 0 twice$"):
        solve_unit_program(1, [[0, 0]], Sense.MAX, Relation.LE, "demo LP")


def _random_problem(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    sense = rng.choice([Sense.MAX, Sense.MIN])
    obj = [F(rng.randint(-4, 4)) for _ in range(n)]
    cons = []
    for _ in range(m):
        row = {j: F(rng.randint(-3, 3)) for j in range(n)}
        rel = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
        cons.append(constraint(row, rel, F(rng.randint(-4, 6))))
    return lp_problem(n, obj, sense, cons)


def test_random_problems_certify_and_commute():
    rng = random.Random(1789)
    optimal = 0
    for _ in range(250):
        prob = _random_problem(rng)
        sol = solve_lp(prob)
        if sol.status is LpStatus.OPTIMAL:
            optimal += 1
            assert check_certificates(prob, sol)
            # Constraint order must not change the optimum value.
            shuffled = list(prob.constraints)
            rng.shuffle(shuffled)
            prob2 = lp_problem(prob.num_vars, prob.objective, prob.sense, shuffled)
            sol2 = solve_lp(prob2)
            assert sol2.status is LpStatus.OPTIMAL
            assert sol2.optimum == sol.optimum
    assert optimal > 50


def test_deterministic_resolve():
    rng = random.Random(7)
    for _ in range(25):
        prob = _random_problem(rng)
        assert solve_lp(prob) == solve_lp(prob)


_SMALL_RATIONALS = st.builds(
    F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 4, 6])
)


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    integral = draw(st.booleans())
    value = st.integers(-4, 4).map(F) if integral else _SMALL_RATIONALS
    cons = [
        constraint(
            {j: draw(value) for j in range(n)},
            draw(st.sampled_from(list(Relation))),
            draw(value),
        )
        for _ in range(m)
    ]
    objective = [draw(value) for _ in range(n)]
    return lp_problem(n, objective, draw(st.sampled_from(list(Sense))), cons)


def _highs(prob):
    """The same LP in floating point through SciPy's HiGHS solver."""
    sign = -1.0 if prob.sense is Sense.MAX else 1.0
    c = [sign * float(v) for v in prob.objective]
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in prob.constraints:
        row = [0.0] * prob.num_vars
        for idx, val in con.coeffs:
            row[idx] = float(val)
        if con.relation is Relation.LE:
            a_ub.append(row)
            b_ub.append(float(con.rhs))
        elif con.relation is Relation.GE:
            a_ub.append([-v for v in row])
            b_ub.append(-float(con.rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(con.rhs))
    res = linprog(
        c,
        A_ub=a_ub or None, b_ub=b_ub or None,
        A_eq=a_eq or None, b_eq=b_eq or None,
        bounds=(0, None), method="highs",
    )
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return status[res.status], (sign * res.fun if res.status == 0 else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps())
def test_random_lps_certify_and_agree_with_highs(prob):
    sol = solve_lp(prob)
    status, optimum = _highs(prob)
    assert sol.status is status
    if sol.status is LpStatus.OPTIMAL:
        assert check_certificates(prob, sol)
        assert abs(float(sol.optimum) - optimum) <= 1e-9 * max(1.0, abs(optimum))


def _fraction_check_certificates(problem, solution) -> bool:
    """Oracle: the same three certificate checks summed in Fractions."""
    if solution.status is not LpStatus.OPTIMAL or solution.optimum is None:
        return False
    x = solution.primal
    y = solution.dual
    if len(x) != problem.num_vars or len(y) != len(problem.constraints):
        return False
    if any(v < 0 for v in x):
        return False
    for con in problem.constraints:
        lhs = sum((val * x[idx] for idx, val in con.coeffs), F(0))
        if con.relation is Relation.LE and not lhs <= con.rhs:
            return False
        if con.relation is Relation.GE and not lhs >= con.rhs:
            return False
        if con.relation is Relation.EQ and lhs != con.rhs:
            return False
    cx = sum((c * v for c, v in zip(problem.objective, x)), F(0))
    by = sum((con.rhs * yi for con, yi in zip(problem.constraints, y)), F(0))
    if cx != solution.optimum or by != solution.optimum:
        return False
    maximize = problem.sense is Sense.MAX
    for con, yi in zip(problem.constraints, y):
        if con.relation is Relation.LE and (yi < 0 if maximize else yi > 0):
            return False
        if con.relation is Relation.GE and (yi > 0 if maximize else yi < 0):
            return False
    reduced = list(problem.objective)
    for con, yi in zip(problem.constraints, y):
        for idx, val in con.coeffs:
            reduced[idx] -= yi * val
    if maximize:
        return all(r <= 0 for r in reduced)
    return all(r >= 0 for r in reduced)


def _tampered(data, prob, sol):
    """The solver's pair, or one with a single entry moved, or a random one."""
    shift = data.draw(_SMALL_RATIONALS)
    kind = data.draw(st.sampled_from(
        ["none", "primal", "dual", "optimum", "scale_dual", "random", "short"]
    ))
    if sol.status is not LpStatus.OPTIMAL or kind == "random":
        m = len(prob.constraints)
        x = data.draw(st.lists(_SMALL_RATIONALS, min_size=prob.num_vars, max_size=prob.num_vars))
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_small_lps(), st.data())
def test_integer_certificate_check_matches_fraction_oracle(prob, data):
    sol = solve_lp(prob)
    assert check_certificates(prob, sol) == _fraction_check_certificates(prob, sol)
    pair = _tampered(data, prob, sol)
    assert check_certificates(prob, pair) == _fraction_check_certificates(prob, pair)


@st.composite
def _unit_programs(draw):
    """num_vars, index rows, sense and relation of a small unit program."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n), max_size=6))
    return n, rows, draw(st.sampled_from(list(Sense))), draw(st.sampled_from(list(Relation)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_unit_programs(), st.data())
def test_unit_certificate_check_matches_fraction_oracle(args, data):
    # The unit path's integer check, on the solver's pair and on tampered
    # ones, against the Fraction oracle on the LpProblem the rows stand for.
    prog = exactnum._unit_program(*args)
    prob = unit_problem(*args)
    sol = exactnum._solve(prog)
    assert sol == solve_lp(prob)
    assert exactnum._certified(prog, sol) == _fraction_check_certificates(prob, sol)
    pair = _tampered(data, prob, sol)
    assert exactnum._certified(prog, pair) == _fraction_check_certificates(prob, pair)


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
    prog = exactnum._unit_program(*args)
    sol = exactnum._solve(prog)
    assert sol.optimum == optimum
    assert exactnum._certified(prog, sol)
    bad = LpSolution(LpStatus.OPTIMAL, sol.optimum, sol.primal, tuple(map(F, wrong_dual)))
    assert not exactnum._certified(prog, bad)
    assert not _fraction_check_certificates(unit_problem(*args), bad)


def _nonzero(values):
    return {i: str(v) for i, v in enumerate(values) if v}


# A dense graph on 8 vertices with 23 edges.
_DENSE_8 = Graph(8, 259514301)


def test_pinned_witness_tau_star_dense_8(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    value, _ = packing.tau_star(_DENSE_8)
    prob, sol = seen[-1]
    assert (prob.num_vars, len(prob.constraints)) == (29, 23)
    assert value == sol.optimum == F(23, 3)
    assert _nonzero(sol.primal) == {
        0: "1/2", 1: "1/3", 3: "1/6", 4: "1/6", 5: "1/3", 6: "1/2", 7: "1/2",
        8: "2/3", 9: "1/6", 11: "1/6", 13: "1/2", 17: "1/6", 18: "2/3",
        19: "1/6", 20: "1/3", 22: "1/3", 23: "1/6", 24: "2/3", 25: "5/6",
        26: "1/6", 27: "1/6",
    }
    assert sol.dual == (F(1, 3),) * 23


def test_pinned_witness_r_tilde_dense_8(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    value, _ = packing.r_tilde(_DENSE_8)
    prob, sol = seen[-1]
    assert (prob.num_vars, len(prob.constraints)) == (278, 23)
    assert value == sol.optimum == F(23, 3)
    assert _nonzero(sol.primal) == {
        9: "1/2", 16: "1/3", 30: "1/6", 51: "1/6", 61: "1/3", 71: "1/2",
        84: "1/2", 100: "2/3", 107: "1/6", 121: "1/6", 138: "1/2",
        169: "1/6", 176: "2/3", 183: "1/6", 200: "1/3", 217: "1/3",
        224: "1/6", 231: "2/3", 244: "5/6", 257: "1/6", 267: "1/6",
    }
    assert sol.dual == (F(1, 3),) * 23


def test_pinned_witness_r_induced_dense_8(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    value, _ = packing.r_induced(_DENSE_8)
    prob, sol = seen[-1]
    assert (prob.num_vars, len(prob.constraints)) == (56, 23)
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
    (red_prob, red_sol), (blue_prob, blue_sol) = seen
    assert (red_prob.num_vars, len(red_prob.constraints)) == (8, 34)
    assert (blue_prob.num_vars, len(blue_prob.constraints)) == (13, 35)
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


def test_rational_rows_keep_the_rational_pivot_path():
    # Both programs have more than one optimal vertex, so the witness shows
    # which pivots were taken.  x0 enters the crash basis because its
    # coefficient in the row is 1 before the row is scaled to integers.
    prob = lp_problem(4, [1, F(1, 4), F(3, 5), F(1, 3)], Sense.MIN, [
        constraint({0: 1, 3: F(1, 3)}, Relation.EQ, 2),
    ])
    sol = solve_lp(prob)
    assert (sol.optimum, sol.primal, sol.dual) == (2, (2, 0, 0, 0), (1,))
    # Phase 1 sums the artificials of the unscaled rows, whatever scale the
    # >= row is given.
    prob = lp_problem(4, [F(-2, 3), 0, F(-1, 4), F(-1, 5)], Sense.MAX, [
        constraint({1: 1, 2: -1, 3: 1}, Relation.EQ, 2),
        constraint({1: -2, 2: 1, 3: F(1, 2)}, Relation.GE, 1),
    ])
    sol = solve_lp(prob)
    assert sol.optimum == F(-2, 5)
    assert sol.primal == (0, 0, 0, 2)
    assert sol.dual == (F(-1, 20), F(-3, 10))


@st.composite
def _oracle_lps(draw):
    """A small LP plus rows and columns that force the solver's side paths.

    crash: a >= or = row over a fresh column with an unscaled 1 and a row
    scale above 1, so the crash basis pivots.  redundant: a doubled copy of
    an = row, so an artificial may stay basic after phase 1.  drive_out: an
    = row of nonpositive entries with a zero right-hand side, whose
    artificial leaves only in the drive-out, on a negative pivot.
    infeasible: x0 <= 1 and x0 >= 2.  unbounded: a fresh column in no row
    that the objective rewards.
    """
    prob = draw(_small_lps())
    n = prob.num_vars
    objective = list(prob.objective)
    cons = list(prob.constraints)
    extras = draw(st.sets(st.sampled_from(
        ["crash", "redundant", "drive_out", "infeasible", "unbounded"])))
    if "crash" in extras:
        other = {j: draw(_SMALL_RATIONALS) for j in range(n) if draw(st.booleans())}
        cons.append(constraint(
            {**other, n: 1},
            draw(st.sampled_from([Relation.GE, Relation.EQ])),
            F(draw(st.integers(1, 5)), draw(st.sampled_from([2, 3, 4]))),
        ))
        objective.append(draw(_SMALL_RATIONALS))
        n += 1
    if "redundant" in extras:
        row = {j: draw(st.integers(-3, 3)) for j in range(n)}
        rhs = draw(st.integers(-4, 4))
        cons.append(constraint(row, Relation.EQ, rhs))
        cons.append(constraint({j: 2 * v for j, v in row.items()}, Relation.EQ, 2 * rhs))
    if "drive_out" in extras:
        cons.append(constraint(
            {j: -draw(st.integers(0, 3)) for j in range(n)}, Relation.EQ, 0))
    if "infeasible" in extras:
        cons.append(constraint({0: 1}, Relation.LE, 1))
        cons.append(constraint({0: 1}, Relation.GE, 2))
    if "unbounded" in extras:
        objective.append(1 if prob.sense is Sense.MAX else -1)
        n += 1
    return lp_problem(n, objective, prob.sense, cons)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_oracle_lps())
def test_kernel_inverse_matches_dense_oracle(prob):
    # Same status, optimum, primal and dual: the same pivot path.
    assert solve_lp(prob) == dense_solve_lp(prob)


def test_weight_lp_blocks_match_dense_oracle(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    for n in range(3, 7):
        for c in enumerate_colorings(n):
            for k in range(3, n + 1):
                weighted_ramsey.r_of_coloring(c, k)
    assert len(seen) == 750
    for prob, sol in seen:
        assert sol == dense_solve_lp(prob)
        assert sol == solve_lp(prob)


def _record_pivots(monkeypatch):
    """Record (entering id, leaving id, pivot entry) of every pivot taken."""
    seen = []
    pivot = exactnum._Kernel.pivot

    def recording(kern, q, alpha, t, s_out, i_out, rc, pi):
        if s_out >= 0:
            seen.append((q, kern.cols[s_out], alpha[s_out]))
        else:
            seen.append((q, kern.lvar[i_out], t[i_out]))
        return pivot(kern, q, alpha, t, s_out, i_out, rc, pi)

    monkeypatch.setattr(exactnum._Kernel, "pivot", recording)
    return seen


def test_own_surplus_drives_out_an_empty_ge_row(monkeypatch):
    # 0 >= 0 leaves its artificial basic at zero after phase 1.  Only the
    # row's own surplus (id 2) has a nonzero entry in the artificial's row,
    # -d, so the drive-out pivots on a negative entry and the kernel keeps
    # its shape; x0 then enters in place of the slack of row 0.
    seen = _record_pivots(monkeypatch)
    prob = lp_problem(1, [1], Sense.MAX, [
        constraint({0: 1}, Relation.LE, 2),
        constraint({}, Relation.GE, 0),
    ])
    sol = solve_lp(prob)
    assert sol == dense_solve_lp(prob)
    assert (sol.optimum, sol.primal, sol.dual) == (2, (2,), (1, 0))
    assert [(q, p) for q, _, p in seen] == [(2, -1), (0, 1)]
    assert check_certificates(prob, sol)


def test_slacks_leave_and_reenter_at_other_kernel_columns(monkeypatch):
    # The slacks of rows 0, 2 and 1 (ids 3, 5 and 4) leave in turn, so the
    # kernel columns belong to rows [0, 2, 1].  When slack 3 comes back,
    # row 1's column moves into row 0's place, and slack 4 then re-enters
    # from there.
    seen = _record_pivots(monkeypatch)
    prob = lp_problem(3, [1, 3, 3], Sense.MAX, [
        constraint({0: 2, 2: 2}, Relation.LE, 4),
        constraint({0: 1, 2: 2}, Relation.LE, 3),
        constraint({0: 2, 1: 1, 2: 2}, Relation.LE, 4),
    ])
    sol = solve_lp(prob)
    assert sol == dense_solve_lp(prob)
    assert (sol.optimum, sol.primal, sol.dual) == (12, (0, 4, 0), (0, 0, 3))
    assert [(q, leaving) for q, leaving, _ in seen] == [(0, 3), (1, 5), (2, 4), (3, 0), (4, 2)]
    assert check_certificates(prob, sol)


def test_crash_rows_with_scales_above_one(monkeypatch):
    # x0 and x1 are unscaled 1s alone in their columns, in rows of scale 2
    # and 3, so the crash basis takes both with d = 6 and no phase 1.  The
    # one pivot then runs over d = 6: x2 enters, x0 leaves.
    seen = _record_pivots(monkeypatch)
    prob = lp_problem(3, [1, 1, F(1, 2)], Sense.MIN, [
        constraint({0: 1, 2: F(1, 2)}, Relation.GE, F(3, 2)),
        constraint({1: 1, 2: F(1, 3)}, Relation.EQ, F(5, 3)),
    ])
    sol = solve_lp(prob)
    assert sol == dense_solve_lp(prob)
    assert sol.optimum == F(13, 6)
    assert sol.primal == (0, F(2, 3), 3)
    assert sol.dual == (F(1, 3), 1)
    assert [(q, leaving) for q, leaving, _ in seen] == [(2, 0)]
    assert check_certificates(prob, sol)


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
    for prob, sol in seen:
        assert sol == dense_solve_lp(prob)
        assert sol == solve_lp(prob)
