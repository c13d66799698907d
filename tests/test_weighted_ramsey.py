"""Weight LP over colorings, exhaustive search, monotone chain."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wramsey import exactnum, weighted_ramsey
from wramsey.errors import (
    CapabilityError,
    CertificateError,
    ContractViolationError,
    InputError,
)
from wramsey.exactnum import Relation, Sense, solve_unit_program
from wramsey.graphs import (
    TwoColoring,
    _deleted_classes,
    _induced_columns,
    all_edges,
    balanced_blowup,
    enumerate_colorings,
    mono_triangle_free_k5,
    turan_number,
)
from wramsey.packing import r_induced
from wramsey.weighted_ramsey import (
    _first_extremum,
    WeightAssignment,
    WramResult,
    check_monotonicity,
    r_of_coloring,
    wram,
    wram_for_colorings,
)


def both_colors_k(n: int) -> TwoColoring:
    return TwoColoring.from_red_edges(n, [(0, 1)])


def test_r_of_coloring_range_before_cap():
    with pytest.raises(InputError, match="need 3 <= k <= n, got k=5, n=4"):
        r_of_coloring(both_colors_k(4), 5)
    with pytest.raises(InputError, match="need 3 <= k <= n, got k=2, n=4"):
        r_of_coloring(both_colors_k(4), 2)
    # Past the n = 10 cap, an invalid k is still an input error, not a
    # capability one.
    with pytest.raises(InputError, match="need 3 <= k <= n, got k=12, n=11"):
        r_of_coloring(TwoColoring.monochromatic(11), 12)
    with pytest.raises(CapabilityError, match="weight LP capped at n=10"):
        r_of_coloring(TwoColoring.monochromatic(11), 5)


def test_r_of_coloring_all_red_k5():
    value, weights = r_of_coloring(TwoColoring.monochromatic(5), 3)
    assert value == F(10, 3)
    # Symmetric primal w = 1/3 with the matching cover y = 1/3 per triangle
    # certifies the optimum independently of the solver.
    uniform = WeightAssignment(5, {e: F(1, 3) for e in itertools.combinations(range(5), 2)})
    for tri in itertools.combinations(range(5), 3):
        assert sum(uniform[e] for e in itertools.combinations(tri, 2)) == 1
    assert uniform.total() == F(10, 3)
    assert 10 * F(1, 3) == F(10, 3)


def test_r_of_coloring_pentagon():
    value, weights = r_of_coloring(mono_triangle_free_k5(), 3)
    assert value == 5
    assert weights.total() == 5


def test_r_of_coloring_n_equals_k():
    value, _ = r_of_coloring(both_colors_k(5), 5)
    assert value == 2


def test_wram_5_3_and_6_3():
    res5 = wram(5, 3)
    assert res5.value == 2
    assert res5.r_value == 5
    assert res5.num_colorings == 18
    assert not res5.partial

    res6 = wram(6, 3)
    assert res6.value == F(15, 7)
    assert res6.r_value == 7
    assert res6.num_colorings == 78


@pytest.mark.parametrize("n, k, value, mask", [
    # (7, 3): 42/19 with mask 7804 is pinned in test_packing's bridge table.
    (6, 4, F(45, 13), 120),
    (6, 5, F(5), 656),
    (7, 4, F(42, 11), 42232),
    (7, 5, F(126, 23), 32700),
    (8, 3, F(42, 19), 2022000),
    (8, 4, F(336, 85), 873700),
    (8, 5, F(40, 7), 2022000),
    (7, 6, F(15, 2), 39456),
    (7, 7, F(21, 2), 1),
])
def test_exhaustive_values_and_first_maximizers(n, k, value, mask):
    # The witness is the first class, in canonical order, that attains r(n,k).
    # At (6,5) 30 classes tie, and at (7,6) the bounded order solves 515 of
    # the 522 classes, so the pruned search must keep the first of them too.
    res = wram(n, k)
    assert (res.value, res.witness_coloring.red.mask) == (value, mask)
    assert r_of_coloring(res.witness_coloring, k) == (res.r_value, res.witness_weights)


def test_wram_4_3():
    # The matching coloring of K4 reaches r = 4, and monotonicity pins the
    # maximum there: wram(4,3) >= wram(3,3) = 3/2 means r(4,3) <= 4.
    matching = TwoColoring.from_red_edges(4, [(0, 1), (2, 3)])
    assert r_of_coloring(matching, 3)[0] == 4
    assert wram(4, 3).value == F(3, 2)


def test_wram_diagonal():
    for k in (3, 4):
        res = wram(k, k)
        assert res.value == F(k * (k - 1), 4)
        assert res.r_value == 2


def test_wram_product_identity_and_witness():
    res = wram(5, 3)
    assert res.value * res.r_value == 10
    r_again, _ = r_of_coloring(res.witness_coloring, 3)
    assert r_again == res.r_value


def test_wram_capability_cap():
    # The one enumeration cap, after k is checked.
    with pytest.raises(CapabilityError, match="enumeration supports 3 <= n <= 8"):
        wram(9, 3)
    with pytest.raises(InputError):
        wram(9, 2)
    with pytest.raises(InputError):
        wram(5, 2)


def test_pruned_search_keeps_the_full_search_result():
    # Value, witness, witness weights and class count all match the first
    # maximizer over the supplied list of every class, (6,5) and its 30-way
    # tie included.
    cases = [(n, k) for n in range(3, 7) for k in range(3, n + 1)] + [(7, 3), (7, 4)]
    for n, k in cases:
        full = wram_for_colorings(enumerate_colorings(n), k)
        assert full._replace(partial=False) == wram(n, k), (n, k)


def test_supplied_list_ties_go_to_the_earlier_entry():
    # At (6,5) 30 classes tie; a reversed list keeps its own first maximizer.
    res, full = wram_for_colorings(enumerate_colorings(6)[::-1], 5), wram(6, 5)
    assert (res.witness_coloring.red.mask, res.partial) == (4060, True)
    assert (full.witness_coloring.red.mask, full.partial) == (656, False)
    assert res.r_value == full.r_value


def test_vertex_deletion_bound_holds_on_every_class():
    # (n - 2) r(c, k) <= sum over v of r(c - v, k), with each c - v read
    # from the deletion table the search reads.
    for k in range(3, 7):
        below = {c.red.mask: r_of_coloring(c, k)[0] for c in enumerate_colorings(k)}
        for n in range(k + 1, 8):
            level = {c.red.mask: r_of_coloring(c, k)[0] for c in enumerate_colorings(n)}
            for (mask, r_value), deleted in zip(level.items(), _deleted_classes(n)):
                assert (n - 2) * r_value <= sum(below[m] for m in deleted), (n, k, mask)
            below = level


def test_pruning_skips_classes(monkeypatch):
    solved = []
    r_blocks = weighted_ramsey._r_blocks

    def counting(c, k):
        solved.append(c.n)
        return r_blocks(c, k)

    monkeypatch.setattr(weighted_ramsey, "_r_blocks", counting)
    # At (7,3) all 78 classes of K_6 are solved, and the bound leaves 13 of
    # the 522 of K_7.
    assert wram(7, 3).value == F(42, 19)
    assert (solved.count(6), solved.count(7)) == (78, 13)
    # At (7,7) no 7-set fits in K_6, and at (7,6) the bound would cost more
    # than it skips: there is no bound, and every class of K_7 is solved.
    solved.clear()
    assert wram(7, 7).value == F(21, 2)
    assert (solved.count(6), solved.count(7)) == (0, 522)
    solved.clear()
    wram(7, 6)
    assert (solved.count(6), solved.count(7)) == (0, 522)


def test_searches_build_weights_only_for_the_witness(monkeypatch):
    built = []
    weights = weighted_ramsey._weights

    def counting(n, blocks):
        built.append(n)
        return weights(n, blocks)

    monkeypatch.setattr(weighted_ramsey, "_weights", counting)
    res = wram(6, 3)
    assert built == [6]
    assert r_of_coloring(res.witness_coloring, 3) == (res.r_value, res.witness_weights)
    built.clear()
    wram_for_colorings(enumerate_colorings(5), 4)
    assert built == [5]


def test_wram_for_colorings_single_candidates():
    res = wram_for_colorings([mono_triangle_free_k5()], 3)
    assert res.r_value == 5
    assert res.value == 2
    assert res.partial

    res = wram_for_colorings([TwoColoring.monochromatic(5)], 3)
    assert res.r_value == F(10, 3)
    assert res.value == 3


def test_wram_for_colorings_blowup_bound():
    blown = balanced_blowup(mono_triangle_free_k5(), 10)
    res = wram_for_colorings([blown], 5)
    assert res.r_value >= F(turan_number(10, 5), 6)
    assert res.value <= F(5, 4) * (5 * 5 // 4)
    assert res.value == F(27, 4)


def test_wram_for_colorings_validation():
    with pytest.raises(InputError):
        wram_for_colorings([], 3)
    with pytest.raises(InputError):
        wram_for_colorings([both_colors_k(4), both_colors_k(5)], 3)


def test_monotonicity_chains():
    assert check_monotonicity(3, 6)
    assert check_monotonicity(4, 5)
    assert check_monotonicity(4, 4)
    assert wram(4, 4).value == 3 <= 6


def test_monotonicity_range_is_an_input_error():
    with pytest.raises(InputError, match="need 3 <= k <= n_max, got k=2, n_max=5"):
        check_monotonicity(2, 5)
    with pytest.raises(InputError, match="need 3 <= k <= n_max, got k=5, n_max=4"):
        check_monotonicity(5, 4)


def test_monotonicity_past_the_enumeration_cap_runs_no_wram(monkeypatch):
    def unreachable(*args):
        pytest.fail("wram ran past the enumeration cap")

    monkeypatch.setattr(weighted_ramsey, "wram", unreachable)
    with pytest.raises(CapabilityError) as capped:
        enumerate_colorings(9)
    with pytest.raises(CapabilityError) as raised:
        check_monotonicity(3, 9)
    assert str(raised.value) == str(capped.value)


def test_r_bounds_over_all_classes():
    for n in (4, 5):
        for c in enumerate_colorings(n):
            value, _ = r_of_coloring(c, 3)
            assert value <= F(n * (n - 1), 2)
            if c.red.edge_count and c.blue.edge_count:
                assert value >= 2


def test_optimal_weights_rescale_to_full_total():
    # Scaling an optimal assignment by C(n,2)/r makes the total exactly
    # C(n,2) while every constraint sum stays within C(n,2)/r.
    c = mono_triangle_free_k5()
    value, weights = r_of_coloring(c, 3)
    factor = F(10) / value
    scaled = weights.scaled(factor)
    assert scaled.total() == 10
    for tri in itertools.combinations(range(5), 3):
        for graph in (c.red, c.blue):
            assert sum(scaled[e] for e in graph.induced_edges(tri)) <= factor


def test_duality_bridge_small():
    # For k = 3 the weight LP splits by color into the two covering LPs:
    # the primal restricted to one color is that color's block optimum,
    # phi_3, the LP dual of r_induced.
    for n in range(3, 7):
        for c in enumerate_colorings(n):
            lhs, weights = r_of_coloring(c, 3)
            blocks = [r_induced(graph)[0] for graph in (c.red, c.blue)]
            assert lhs == sum(blocks)
            for graph, block in zip((c.red, c.blue), blocks):
                assert sum((weights[e] for e in graph.edges()), F(0)) == block


def test_monochromatic_closed_form():
    # One block only: every k-set caps its C(k,2) edges, and the uniform
    # weight 1/C(k,2) is optimal by symmetry.
    for n in range(3, 8):
        for k in range(3, n + 1):
            value, weights = r_of_coloring(TwoColoring.monochromatic(n), k)
            assert value == weights.total() == F(n * (n - 1), k * (k - 1))


def _joint_weight_lp(c: TwoColoring, k: int) -> tuple[F, WeightAssignment]:
    """Oracle: the weight LP as one program over every edge of K_n, with
    each k-set's red row followed by its blue row."""
    edges = all_edges(c.n)
    position = {e: i for i, e in enumerate(edges)}
    rows = []
    for subset in itertools.combinations(range(c.n), k):
        for graph in (c.red, c.blue):
            row = [position[e] for e in graph.induced_edges(subset)]
            if row:
                rows.append(row)
    optimum, primal = solve_unit_program(
        len(edges), rows, Sense.MAX, Relation.LE, "joint weight LP"
    )
    return optimum, WeightAssignment(c.n, dict(zip(edges, primal)))


def test_color_blocks_match_the_joint_program():
    cases = [(c, k) for n in range(3, 7) for c in enumerate_colorings(n)
             for k in range(3, n + 1)]
    sample = random.Random(6).sample(enumerate_colorings(7), 12)
    cases += [(c, k) for c in sample for k in (3, 4)]
    for c, k in cases:
        assert r_of_coloring(c, k) == _joint_weight_lp(c, k)


def test_block_columns_match_the_row_built_program():
    # Each color block's program, posed by column from the (n, k) table,
    # is the program exactnum builds from the block's induced rows.
    cases = [(c, k) for n in range(3, 7) for c in enumerate_colorings(n)
             for k in range(3, n + 1)]
    sample = random.Random(7).sample(enumerate_colorings(7), 40)
    cases += [(c, k) for c in sample for k in range(3, 8)]
    for c, k in cases:
        for g in (c.red, c.blue):
            want = exactnum._unit_program(
                g.edge_count, [row for _, row in g.induced_rows(k)], Sense.MAX, Relation.LE)
            assert _induced_columns(c.n, g.mask, k) == (want.crow, want.m)


def test_weight_assignment_validation():
    with pytest.raises(InputError):
        WeightAssignment(4, {(0, 1): F(-1)})
    with pytest.raises(InputError):
        WeightAssignment(4, {(0, 4): F(1)})
    w = WeightAssignment(4, {(0, 1): F(1, 2)})
    assert w.total() == F(1, 2)
    assert w[(2, 3)] == 0


# A weight as a caller may give it: an int, a Fraction, or a Fraction's str.
_WEIGHT_INPUT = st.one_of(
    st.integers(0, 5),
    st.fractions(min_value=0, max_value=5, max_denominator=60),
    st.fractions(min_value=0, max_value=5, max_denominator=60).map(str),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_WEIGHT_INPUT, min_size=0, max_size=n * (n - 1) // 2))
))
def test_weight_assignment_total_is_the_fraction_sum(case):
    n, values = case
    given_weights = dict(zip(all_edges(n), values))
    w = WeightAssignment(n, given_weights)
    assert w.total() == sum(w.weights.values(), F(0)) == sum(map(F, values), F(0))
    for e, x in given_weights.items():
        assert w[e] == F(x)
        if isinstance(x, F):
            assert w[e] is x


@pytest.mark.parametrize("weight", [-1, "-1/3", F(-2, 5)])
def test_negative_weights_are_rejected_in_every_form(weight):
    with pytest.raises(InputError, match=r"^negative weight on \(2, 0\)$"):
        WeightAssignment(4, {(0, 1): 1, (2, 0): weight})


@pytest.mark.parametrize("edge", [(0, 4), (4, 0), (1, 1), (-1, 2)])
def test_non_edges_are_rejected_before_the_sign(edge):
    u, v = edge
    with pytest.raises(InputError, match=rf"^weight on non-edge \({u}, {v}\)$"):
        WeightAssignment(4, {edge: -1})


def test_inconsistent_wram_result_is_a_certificate_failure():
    res = wram(5, 3)
    with pytest.raises(CertificateError):
        WramResult(
            n=5, k=3, value=res.value, r_value=res.r_value + 1,
            witness_coloring=res.witness_coloring,
            witness_weights=res.witness_weights,
        )


def test_maximizing_over_no_coloring_is_a_contract_violation():
    with pytest.raises(ContractViolationError):
        _first_extremum([], abs, abs)


# The digest of the weight-LP value and witness of every K_7 class at k = 3,
# hashed as test_packing's PINNED_WITNESS_DIGEST hashes those for n <= 6.
PINNED_N7_K3_WITNESS_DIGEST = "a16a3498aafc90c7cd33eb21805db884ef9732ca789bf996c03e6c0fe87f2402"


def test_n7_k3_weight_lp_witnesses_match_pinned_digest():
    digest = hashlib.sha256()
    classes = enumerate_colorings(7)
    for c in classes:
        value, weights = r_of_coloring(c, 3)
        digest.update(f"r 7 {c.red.mask} 3 {value}\n".encode())
        for e, w in weights.weights.items():
            if w:
                digest.update(f"{e} {w}\n".encode())
    assert len(classes) == 522
    assert digest.hexdigest() == PINNED_N7_K3_WITNESS_DIGEST
