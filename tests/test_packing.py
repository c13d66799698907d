"""Packing/covering invariants and the constructive conversions."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packing_oracle
from dense_oracle import solve_unit as dense_solve_unit
from unit_programs import capture_unit_programs
from wramsey import exactnum, packing
from wramsey.errors import CapabilityError, ContractViolationError, InputError
from wramsey.exactnum import Relation, Sense, solve_unit_program
from wramsey.graphs import Graph, TwoColoring, enumerate_colorings, mono_triangle_free_k5
from wramsey.packing import (
    ColoringPackingStats,
    SubgraphDescriptor,
    SubgraphWeights,
    coloring_packing_stats,
    cover_to_packing,
    induced_descriptor,
    lift_tilde_to_induced,
    packing_to_cover,
    r_induced,
    r_tilde,
    redistribute_excess,
    reduce_to_minimal,
    tau_integral,
    tau_integral_family,
    tau_min_over_colorings,
    tau_star,
    triangle_packing_bound,
    triangle_packing_bound_limit,
)
from wramsey.weighted_ramsey import r_of_coloring


def small_corpus(count: int = 60, seed: int = 424242) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 8)
        p = rng.choice([F(3, 10), F(1, 2), F(4, 5)])
        out.append(packing_oracle.random_graph(rng, n, p))
    return out


# -- tau_star ---------------------------------------------------------------

def test_tau_star_triangle_free():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    value, weights = tau_star(g)
    assert value == 0
    assert weights.weights == {}


def test_tau_star_k4():
    # Summing the six edge constraints gives 3 * total <= 6; half on each
    # of the four triangles attains it.
    value, weights = tau_star(Graph.complete(4))
    assert value == 2
    assert all(load <= 1 for load in weights.loads().values())


def test_tau_star_k5():
    value, weights = tau_star(Graph.complete(5))
    assert value == F(10, 3)
    assert all(load <= 1 for load in weights.loads().values())


# -- tau_integral -----------------------------------------------------------

def _brute_force_tau(g: Graph) -> int:
    tris = list(g.triangles())
    tri_edges = [set(itertools.combinations(t, 2)) for t in tris]
    best = 0
    for r in range(len(tris), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(len(tris)), r):
            union = set()
            ok = True
            for i in combo:
                if tri_edges[i] & union:
                    ok = False
                    break
                union |= tri_edges[i]
            if ok:
                best = max(best, r)
                break
    return best


def test_tau_integral_small_complete_graphs():
    assert tau_integral(Graph.complete(4)) == 1
    assert tau_integral(Graph.complete(5)) == 2
    # Independent oracle: exhaustive search over triangle subsets.
    assert _brute_force_tau(Graph.complete(4)) == 1
    assert _brute_force_tau(Graph.complete(5)) == 2


def test_tau_integral_triangle_free():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert tau_integral(g) == 0


def test_tau_integral_matches_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(25):
        g = packing_oracle.random_graph(rng, rng.randint(4, 6), F(3, 5))
        assert tau_integral(g) == _brute_force_tau(g)


def test_tau_integral_family_is_edge_disjoint():
    fam = tau_integral_family(Graph.complete(7))
    assert len(fam) == 7
    used = set()
    for tri in fam:
        es = set(itertools.combinations(tri, 2))
        assert not es & used
        used |= es


def test_tau_integral_family_k10_is_pinned():
    # The largest complete graph the cap allows: the greedy seed finds 10
    # triangles, so the search must find 13 and prove that 14 do not fit.
    assert tau_integral_family(Graph.complete(10)) == [
        (0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (1, 3, 5), (1, 4, 6), (1, 7, 9),
        (2, 3, 7), (2, 4, 8), (2, 6, 9), (3, 6, 8), (4, 5, 7), (5, 8, 9),
    ]


def test_tau_integral_capability_cap():
    with pytest.raises(CapabilityError):
        tau_integral(Graph.empty(11))


def test_tau_never_exceeds_fractional():
    for g in small_corpus(25, seed=7):
        assert tau_integral(g) <= tau_star(g)[0] <= F(g.edge_count, 3)


# -- r_induced / r_tilde ----------------------------------------------------

def test_r_induced_examples():
    assert r_induced(Graph.complete(3))[0] == 1
    assert r_induced(Graph.complete(4))[0] == 2
    assert r_induced(Graph.from_edges(3, [(0, 1)]))[0] == 1


def test_r_tilde_examples():
    assert r_tilde(Graph.complete(3))[0] == 1
    assert r_tilde(Graph.complete(4))[0] == 2
    assert r_tilde(Graph.empty(4))[0] == 0


def test_r_equals_r_tilde_on_corpus():
    for g in small_corpus(40, seed=13):
        assert r_induced(g)[0] == r_tilde(g)[0]


def test_sandwich_bounds_on_corpus():
    for g in small_corpus(40, seed=14):
        r_val = r_induced(g)[0]
        ts = tau_star(g)[0]
        e = F(g.edge_count)
        assert e / 2 - ts / 2 <= r_val <= e / 2 - ts / 2 + g.n // 2


# -- lift_tilde_to_induced ----------------------------------------------------

def test_lift_optimal_k3():
    _, wt = r_tilde(Graph.complete(3))
    lifted = lift_tilde_to_induced(wt)
    assert lifted.total() == 1
    tri = induced_descriptor(Graph.complete(3), (0, 1, 2))
    assert lifted.weights == {tri: F(1)}


def test_lift_moves_partial_members_onto_induced_triple():
    g = Graph.complete(4)
    half = F(1, 2)
    path_a = SubgraphDescriptor((0, 1, 2), ((0, 1), (0, 2)))
    path_b = SubgraphDescriptor((1, 2, 3), ((1, 2), (1, 3)))
    path_c = SubgraphDescriptor((1, 2, 3), ((1, 2), (2, 3)))
    tri_a = SubgraphDescriptor((0, 1, 3), ((0, 1), (0, 3), (1, 3)))
    tri_b = SubgraphDescriptor((0, 2, 3), ((0, 2), (0, 3), (2, 3)))
    tw = SubgraphWeights(
        g, {path_a: half, path_b: half, tri_a: half, tri_b: half, path_c: half}
    )
    assert all(v == 1 for v in tw.loads().values())
    lifted = lift_tilde_to_induced(tw)
    assert lifted.total() == tw.total() == F(5, 2)
    # The 1/2 on the two-edge member lands on the induced triangle of its triple.
    assert lifted.weights[induced_descriptor(g, (0, 1, 2))] == half
    # Coverage of at least one survives the lift.
    assert all(v >= 1 for v in lifted.loads().values())


def test_lift_rejects_infeasible_input():
    g = Graph.complete(4)
    lone = SubgraphDescriptor((0, 1, 2), ((0, 1),))
    with pytest.raises(ContractViolationError):
        lift_tilde_to_induced(SubgraphWeights(g, {lone: F(1, 2)}))


def _random_feasible_exact_load(g: Graph, rng: random.Random) -> SubgraphWeights:
    """Random convex mix of the LP optimum and the trivial one-edge solution."""
    _, opt = r_tilde(g)
    trivial = {}
    for u, v in g.edges():
        spare = min(x for x in range(g.n) if x not in (u, v))
        desc = SubgraphDescriptor(tuple(sorted((u, v, spare))), ((u, v),))
        trivial[desc] = trivial.get(desc, F(0)) + 1
    lam = F(rng.randint(0, 8), 8)
    mixed: dict = {}
    for d, w in opt.weights.items():
        mixed[d] = mixed.get(d, F(0)) + lam * w
    for d, w in trivial.items():
        mixed[d] = mixed.get(d, F(0)) + (1 - lam) * w
    return SubgraphWeights(g, mixed)


def test_lift_preserves_total_on_random_feasible_inputs():
    rng = random.Random(31)
    done = 0
    while done < 100:
        g = packing_oracle.random_graph(rng, rng.randint(3, 7), F(1, 2))
        if not g.edge_count:
            continue
        tw = _random_feasible_exact_load(g, rng)
        assert all(v == 1 for v in tw.loads().values())
        lifted = lift_tilde_to_induced(tw)
        assert lifted.total() == tw.total()
        assert all(v >= 1 for v in lifted.loads().values())
        done += 1


# -- redistribute_excess ------------------------------------------------------

def test_redistribute_tight_input_unchanged():
    g = Graph.complete(3)
    _, wt = r_induced(g)
    out = redistribute_excess(wt)
    assert out.weights == wt.weights


def test_redistribute_rejects_non_minimal():
    g = Graph.complete(4)
    ones = {induced_descriptor(g, t): F(1) for t in itertools.combinations(range(4), 3)}
    with pytest.raises(ContractViolationError):
        redistribute_excess(SubgraphWeights(g, ones))


def test_redistribute_k4_optimum_unchanged():
    g = Graph.complete(4)
    _, wt = r_induced(g)
    assert all(v == 1 for v in wt.loads().values())
    out = redistribute_excess(wt)
    assert out.weights == wt.weights


def test_redistribute_handles_genuinely_slack_minimal_cover():
    # Minimal but non-optimal cover of K4: three triangles at full weight.
    g = Graph.complete(4)
    t123 = induced_descriptor(g, (0, 1, 2))
    t124 = induced_descriptor(g, (0, 1, 3))
    t134 = induced_descriptor(g, (0, 2, 3))
    tw = SubgraphWeights(g, {t123: F(1), t124: F(1), t134: F(1)})
    out = redistribute_excess(tw)
    assert out.total() == 3
    assert all(v == 1 for v in out.loads().values())


def test_redistribute_on_minimal_covers_with_large_excess():
    # Start from the heaviest feasible cover (every induced member at full
    # weight), minimize greedily, then require exact unit loads.
    rng = random.Random(2024)
    done = 0
    while done < 60:
        g = packing_oracle.random_graph(rng, rng.randint(4, 8), rng.choice([F(1, 2), F(4, 5)]))
        if not g.edge_count:
            continue
        heavy = SubgraphWeights(
            g,
            {
                induced_descriptor(g, tri): F(1)
                for tri in itertools.combinations(range(g.n), 3)
                if g.induced_edges(tri)
            },
        )
        minimal = reduce_to_minimal(heavy)
        out = redistribute_excess(minimal)
        assert out.total() == minimal.total()
        assert all(v == 1 for v in out.loads().values())
        done += 1


def test_full_pipeline_on_lp_optima():
    rng = random.Random(77)
    done = 0
    while done < 100:
        g = packing_oracle.random_graph(rng, rng.randint(3, 7), rng.choice([F(2, 5), F(3, 5)]))
        if not g.edge_count:
            continue
        _, wi = r_induced(g)
        minimal = reduce_to_minimal(wi)
        out = redistribute_excess(minimal)
        assert out.total() == wi.total()
        assert all(v == 1 for v in out.loads().values())
        done += 1


# -- packing_to_cover / cover_to_packing --------------------------------------

def test_packing_to_cover_k3():
    g = Graph.complete(3)
    value, gs = tau_star(g)
    out = packing_to_cover(gs, g)
    assert out.weights == gs.weights
    assert out.total() == 1


def test_packing_to_cover_single_edge_plus_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    out = packing_to_cover(SubgraphWeights(g, {}), g)
    assert out.total() == 1
    (desc, weight), = out.weights.items()
    assert weight == 1
    assert desc.edges == ((0, 1),)
    assert desc.vertices == (0, 1, 2)
    assert out.total() <= F(g.edge_count, 2) + g.n // 2


def test_packing_to_cover_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    out = packing_to_cover(SubgraphWeights(g, {}), g)
    # Both deficiencies are 1, so one paired two-edge member settles both.
    (desc, weight), = out.weights.items()
    assert weight == 1
    assert desc.edges == ((0, 1), (1, 2))
    assert all(v == 1 for v in out.loads().values())


def test_packing_to_cover_rejects_underweight_triangle():
    g = Graph.complete(3)
    with pytest.raises(ContractViolationError):
        packing_to_cover(SubgraphWeights(g, {}), g)


def test_packing_to_cover_bound_on_corpus():
    for g in small_corpus(40, seed=15):
        if not g.edge_count:
            continue
        value, gs = tau_star(g)
        out = packing_to_cover(gs, g)
        assert all(v == 1 for v in out.loads().values())
        assert out.total() <= F(g.edge_count) / 2 - value / 2 + g.n // 2


def test_cover_to_packing_examples():
    g = Graph.complete(3)
    _, wt = r_tilde(g)
    packed = cover_to_packing(wt, g)
    assert packed.total() <= tau_star(g)[0]

    square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    _, wt = r_tilde(square)
    assert cover_to_packing(wt, square).weights == {}


def test_cover_to_packing_counting_identity_k4():
    g = Graph.complete(4)
    r_val, wt = r_tilde(g)
    packed = cover_to_packing(wt, g)
    # e(G) <= sum(g) + 2 r(G), so the triangle part carries at least e - 2r.
    assert packed.total() >= g.edge_count - 2 * r_val == 2 == tau_star(g)[0]
    assert all(v <= 1 for v in packed.loads().values())


# -- coloring-level statistics -------------------------------------------------

def test_coloring_packing_stats_examples():
    assert coloring_packing_stats(mono_triangle_free_k5()) == ColoringPackingStats(0, F(0))
    assert coloring_packing_stats(TwoColoring.monochromatic(4)) == ColoringPackingStats(1, F(2))
    assert coloring_packing_stats(TwoColoring.monochromatic(5)) == ColoringPackingStats(2, F(10, 3))


def _joint_mono_packing(c: TwoColoring) -> int:
    """Joint maximum over monochromatic triangles of both colors."""
    tris = []
    for tri in itertools.combinations(range(c.n), 3):
        if len(c.red.induced_edges(tri)) == 3 or len(c.blue.induced_edges(tri)) == 3:
            tris.append(set(itertools.combinations(tri, 2)))
    best = 0
    for r in range(len(tris), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(len(tris)), r):
            union: set = set()
            ok = True
            for i in combo:
                if tris[i] & union:
                    ok = False
                    break
                union |= tris[i]
            if ok:
                best = r
                break
    return best


def test_per_color_sum_equals_joint_maximum():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(4, 6)
        red = packing_oracle.random_graph(rng, n, F(1, 2))
        c = TwoColoring(red)
        assert coloring_packing_stats(c).tau_c == _joint_mono_packing(c)


def test_coloring_stats_capability_cap():
    with pytest.raises(CapabilityError):
        coloring_packing_stats(TwoColoring(Graph.empty(11)))


def test_tau_min_over_colorings():
    value, witness = tau_min_over_colorings(5, fractional=False)
    assert value == 0
    stats = coloring_packing_stats(witness)
    assert stats.tau_c == 0

    value, _ = tau_min_over_colorings(5, fractional=True)
    assert value == 0

    value, _ = tau_min_over_colorings(3, fractional=False)
    assert value == 0

    with pytest.raises(CapabilityError, match="enumeration supports 3 <= n <= 8"):
        tau_min_over_colorings(9, fractional=False)


# -- packing bound evaluators ---------------------------------------------------

def test_triangle_packing_bound_limit_constants():
    assert triangle_packing_bound_limit(F(3, 55)) == F(110, 49)
    assert triangle_packing_bound_limit(F(1, 12)) == F(12, 5)
    approx = triangle_packing_bound_limit(F(1000, 12888))
    assert abs(approx - F(23674, 10000)) <= F(1, 10000)


def test_triangle_packing_bound_finite_form():
    assert triangle_packing_bound(5, F(0)) == F(40, 30)
    with pytest.raises(InputError):
        triangle_packing_bound(3, F(100))
    with pytest.raises(InputError):
        triangle_packing_bound_limit(F(1, 2))


def test_finite_consistency_with_computed_tau():
    from wramsey.weighted_ramsey import wram

    # n: min tau*, min tau, wram(n,3), its witness mask, and
    # triangle_packing_bound(n, min tau*).
    table = {
        3: (0, 0, F(3, 2), 1, F(1)),
        4: (0, 0, F(3, 2), 12, F(6, 5)),
        5: (0, 0, F(2), 20, F(4, 3)),
        6: (1, 1, F(15, 7), 510, F(3, 2)),
        7: (2, 2, F(42, 19), 7804, F(21, 13)),
    }
    for n, row in table.items():
        star, star_witness = tau_min_over_colorings(n, fractional=True)
        tau_n = tau_min_over_colorings(n, fractional=False)[0]
        res = wram(n, 3)
        assert (star, tau_n, res.value, res.witness_coloring.red.mask,
                triangle_packing_bound(n, star)) == row
        assert res.value >= triangle_packing_bound(n, tau_n)
        # Up to n = 7 the class with the least fractional packing attains r(n,3).
        assert r_of_coloring(star_witness, 3)[0] == res.r_value

    # At n = 8 it does not: the tau* minimizer (mask 842232, found by
    # tau_min_over_colorings(8, True)) gives C(8,2)/r = 56/25, while the tau
    # minimizer (mask 2022000) is the wram(8,3) witness, r = 38/3.
    star_min = TwoColoring(Graph(8, 842232))
    assert coloring_packing_stats(star_min).tau_star_sum == 3
    assert 28 / r_of_coloring(star_min, 3)[0] == F(56, 25)
    tau_min = TwoColoring(Graph(8, 2022000))
    assert coloring_packing_stats(tau_min).tau_c == 2
    r = r_of_coloring(tau_min, 3)[0]
    assert (r, 28 / r) == (F(38, 3), F(42, 19))


def test_descriptor_validation():
    with pytest.raises(InputError):
        SubgraphDescriptor((0, 1, 1), ())
    with pytest.raises(InputError):
        SubgraphDescriptor((0, 1, 2), ((0, 3),))


@pytest.mark.parametrize("vertices", [(-2, 0, 1), (0, 1, 4)])
def test_subgraph_weights_reject_vertices_off_the_base_graph(vertices):
    # A negative vertex once passed and loaded edge (0, 1) of K_4.
    desc = SubgraphDescriptor(vertices, ((0, 1),))
    with pytest.raises(InputError, match="does not live on the base graph"):
        SubgraphWeights(Graph(4, 1), {desc: 1})


def test_subgraph_weights_validation_messages():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    tri = SubgraphDescriptor((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    path = SubgraphDescriptor((1, 2, 3), ((1, 2), (1, 3)))
    with pytest.raises(InputError, match=r"^.* uses non-edge \(1, 3\)$"):
        SubgraphWeights(g, {tri: F(1), path: F(1, 2)})
    for weight in (-1, "-1/2", F(-1, 3)):
        with pytest.raises(InputError, match="^negative weight on "):
            SubgraphWeights(g, {tri: weight})
    # A Fraction is kept as given, other numbers become Fractions, and
    # zero weights are dropped.
    half = F(1, 2)
    lone = SubgraphDescriptor((0, 2, 3), ((2, 3),))
    sw = SubgraphWeights(g, {tri: half, lone: "1/3", path.without_edges({(1, 3)}): 0})
    assert sw.weights == {tri: half, lone: F(1, 3)}
    assert sw.weights[tri] is half


def test_subgraph_weights_edge_check_reads_the_mask():
    # Every single-edge member of every graph on 5 vertices is accepted
    # exactly when its edge is in the graph.
    for mask in range(1 << 10):
        g = Graph(5, mask)
        for u, v in itertools.combinations(range(5), 2):
            w = next(x for x in range(5) if x not in (u, v))
            desc = SubgraphDescriptor((u, v, w), ((u, v),))
            if g.has_edge(u, v):
                assert SubgraphWeights(g, {desc: 1}).weights == {desc: 1}
            else:
                with pytest.raises(InputError, match="uses non-edge"):
                    SubgraphWeights(g, {desc: 1})


# -- the descriptor-based oracle --------------------------------------------

def test_triangles_and_integral_family_match_oracle():
    for g in packing_oracle.corpus():
        assert g.triangles() == packing_oracle.triangles(g)
        assert tau_integral_family(g) == packing_oracle.tau_integral_family(g)


# Each LP's members in the oracle's design, one column each.
_ORACLE_MEMBERS = {
    "tau_star": lambda g: [packing_oracle.induced_descriptor(g, t)
                           for t in packing_oracle.triangles(g)],
    "r_induced": packing_oracle.induced_members,
    "r_tilde": packing_oracle.all_members,
}


def _without_later_single_edge_copies(program, solution, members):
    """The oracle's program and solution with every single-edge column but
    the first of its edge removed; the removed columns must be 0."""
    num_vars, rows, sense, relation = program
    posed, kept = set(), []
    for j, d in enumerate(members):
        if d.edge_count == 1:
            if d.edges in posed:
                continue
            posed.add(d.edges)
        kept.append(j)
    assert len(members) == num_vars
    column = {j: i for i, j in enumerate(kept)}
    assert not any(v for j, v in enumerate(solution.primal) if j not in column)
    rows = tuple(tuple(column[j] for j in row if j in column) for row in rows)
    return ((len(kept), rows, sense, relation),
            solution._replace(primal=tuple(solution.primal[j] for j in kept)))


@pytest.mark.parametrize("name", ["tau_star", "r_induced", "r_tilde"])
def test_packing_lps_match_oracle(monkeypatch, name):
    # The oracle's unit programs with the later copies of each single-edge
    # member removed, their LpSolutions, and the same witness entries in the
    # same order; the n = 9 graphs only feed the cheaper test above.
    seen = capture_unit_programs(monkeypatch)
    solved = 0
    for g in packing_oracle.corpus():
        if g.n > 8:
            continue
        value, witness = getattr(packing, name)(g)
        ours = seen[:]
        seen.clear()
        want, want_witness = getattr(packing_oracle, name)(g)
        assert ours == [_without_later_single_edge_copies(program, sol, _ORACLE_MEMBERS[name](g))
                        for program, sol in seen]
        # The unit path's solutions are those of the dense oracle on the
        # same programs.
        for program, sol in ours:
            assert sol == dense_solve_unit(*program)
        solved += len(seen)
        seen.clear()
        assert value == want
        assert list(witness.weights.items()) == list(want_witness.weights.items())
    assert solved > 0


def _full_members(g: Graph, name: str):
    """Every member of the r_induced or r_tilde LP, with every copy of each
    single-edge member, in column order."""
    rows = g.induced_rows(3)
    if name == "r_induced":
        return rows
    return [(triple, subset) for triple, row in rows
            for size in range(1, len(row) + 1)
            for subset in itertools.combinations(row, size)]


def _member_rows(g: Graph, members) -> list[list[int]]:
    """One row per edge some member uses: the members that use it, in order."""
    rows: list[list[int]] = [[] for _ in range(g.edge_count)]
    for i, (_, member_edges) in enumerate(members):
        for e in member_edges:
            rows[e].append(i)
    return [row for row in rows if row]


def _row_program(g: Graph, members, sense: Sense,
                 relation: Relation) -> tuple[F, SubgraphWeights]:
    """The packing LP over members, solved from its rows through
    ``solve_unit_program``, with its witness."""
    if not members:
        return F(0), SubgraphWeights(g, {})
    optimum, primal = solve_unit_program(
        len(members), _member_rows(g, members), sense, relation, "packing LP")
    edges = g.edges()
    return optimum, SubgraphWeights(g, {
        SubgraphDescriptor(triple, tuple(edges[e] for e in member_edges)): w
        for (triple, member_edges), w in zip(members, primal) if w
    })


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(3, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))),
    st.sampled_from([("r_induced", Relation.GE), ("r_tilde", Relation.EQ)]))
def test_single_edge_copies_change_no_optimum_or_witness(graph, lp):
    g = Graph(*graph)
    name, relation = lp
    full = _full_members(g, name)
    want = _row_program(g, full, Sense.MIN, relation)
    got = _row_program(g, packing._single_edges_once(full), Sense.MIN, relation)
    assert got[0] == want[0]
    assert list(got[1].weights.items()) == list(want[1].weights.items())
    assert getattr(packing, name)(g) == got


# Each LP's members in posing order, from the full incidence, with its sense
# and relation.
_POSED_MEMBERS = {
    "tau_star": (lambda g: [m for m in g.induced_rows(3) if len(m[1]) == 3],
                 Sense.MAX, Relation.LE),
    "r_induced": (lambda g: packing._single_edges_once(_full_members(g, "r_induced")),
                  Sense.MIN, Relation.GE),
    "r_tilde": (lambda g: packing._single_edges_once(_full_members(g, "r_tilde")),
                Sense.MIN, Relation.EQ),
}


class _Posed(Exception):
    pass


def _posed_program(monkeypatch, name: str, g: Graph):
    """The program ``packing.<name>(g)`` hands to the solver, or None if it
    solves none; nothing is solved."""
    def record(program, what):
        raise _Posed(program)

    monkeypatch.setattr(packing, "_solve_certified", record)
    try:
        getattr(packing, name)(g)
    except _Posed as posed:
        return posed.args[0]
    return None


def _assert_posed_by_rows(monkeypatch, g: Graph) -> None:
    for name, (members_of, sense, relation) in _POSED_MEMBERS.items():
        members = members_of(g)
        got = _posed_program(monkeypatch, name, g)
        if not members:
            assert got is None
            continue
        assert got == exactnum._unit_program(
            len(members), _member_rows(g, members), sense, relation)


def test_programs_posed_by_column_equal_the_row_built_ones(monkeypatch):
    for g in packing_oracle.corpus():
        if g.n <= 8:
            _assert_posed_by_rows(monkeypatch, g)
    # Three of the six edges of a triangle with a pendant path lie in no
    # triangle: tau_star's rows are the other three, renumbered.
    pendant = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    _assert_posed_by_rows(monkeypatch, pendant)
    assert _posed_program(monkeypatch, "tau_star", pendant) == exactnum._Program(
        [[0, 1, 2]], 3, Relation.LE, True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
def test_programs_posed_by_column_equal_the_row_built_ones_up_to_n10(graph):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_posed_by_rows(monkeypatch, Graph(*graph))


@pytest.mark.parametrize("g", [Graph.complete(n) for n in range(3, 11)]
                         + small_corpus(40, seed=20261021))
def test_r_tilde_first_triple_members(g):
    assert packing._tilde_members(g) == packing._single_edges_once(_full_members(g, "r_tilde"))


def test_tau_family_descriptors_are_the_induced_ones():
    # The oracle's family weights, and the CLI's "| 7 | 1/1" witness lines,
    # take each family member's edges to be its three pairs.
    for g in packing_oracle.corpus() + [Graph.complete(10)]:
        count, weights = packing_oracle.tau_family(g)
        family = tau_integral_family(g)
        assert count == len(family)
        assert list(weights.weights) == [induced_descriptor(g, tri) for tri in family]
        assert all(w == 1 for w in weights.weights.values())


def test_r_tilde_builds_descriptors_only_for_the_witness(monkeypatch):
    built = []
    init = SubgraphDescriptor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubgraphDescriptor, "__init__", counting_init)
    _, witness = r_tilde(Graph.complete(8))
    assert witness.weights
    assert len(built) <= len(witness.weights)


# The digest of every packing value and witness over the oracle corpus
# (n <= 8), then of every weight-LP value and witness of every class for
# n <= 6 at every k.  A change that keeps every witness keeps it.
PINNED_WITNESS_DIGEST = "e421dbb924a1532168dae96062f4306266f90f0b63e6b27005d12e06a8023a67"


def _witness_digest() -> str:
    digest = hashlib.sha256()
    for g in packing_oracle.corpus():
        if g.n > 8:
            continue
        for stat in (tau_star, r_induced, r_tilde):
            value, witness = stat(g)
            digest.update(f"{stat.__name__} {g.n} {g.mask} {value}\n".encode())
            for d, w in witness.weights.items():
                digest.update(f"{d.vertices} {d.edges} {w}\n".encode())
    for n in range(3, 7):
        for c in enumerate_colorings(n):
            for k in range(3, n + 1):
                value, weights = r_of_coloring(c, k)
                digest.update(f"r {n} {c.red.mask} {k} {value}\n".encode())
                for e, w in weights.weights.items():
                    if w:
                        digest.update(f"{e} {w}\n".encode())
    return digest.hexdigest()


def test_witnesses_match_pinned_digest():
    assert _witness_digest() == PINNED_WITNESS_DIGEST


# The digest of every unit program solved over the same corpus and of its
# solution as reduced rationals: status, optimum, primal and dual.  A change
# in the dual path, which no witness shows, changes it.
PINNED_SOLUTION_DIGEST = "834c0e8b5f413dc41596eb4d706b1bb19b8383ce3aeae4e8cd8cb48e177471ad"


def test_solutions_match_pinned_digest(monkeypatch):
    seen = capture_unit_programs(monkeypatch)
    _witness_digest()
    digest = hashlib.sha256()
    for (num_vars, rows, sense, relation), sol in seen:
        digest.update(f"{num_vars} {rows} {sense.value} {relation.value}\n".encode())
        digest.update(f"{sol.status.value} {sol.optimum}\n".encode())
        digest.update(" ".join(map(str, sol.primal)).encode() + b"\n")
        digest.update(" ".join(map(str, sol.dual)).encode() + b"\n")
    assert len(seen) == 993
    assert digest.hexdigest() == PINNED_SOLUTION_DIGEST
