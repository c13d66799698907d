"""Graphs, colorings, canonical forms, Turán machinery."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wramsey import graphs
from wramsey.errors import CapabilityError, InputError
from wramsey.graphs import (
    Graph,
    TwoColoring,
    all_edges,
    balanced_blowup,
    blowup_part_sizes,
    canonical_key,
    enumerate_colorings,
    format_coloring,
    format_graph,
    mono_triangle_free_k5,
    parse_coloring,
    parse_colorings,
    parse_graph,
    turan_graph,
    turan_number,
)

# Exact Turán numbers t(k, i) for k = 3..8, i = 2..k (27 entries).
TURAN_TABLE = {
    (3, 2): 2, (4, 2): 4, (5, 2): 6, (6, 2): 9, (7, 2): 12, (8, 2): 16,
    (3, 3): 3, (4, 3): 5, (5, 3): 8, (6, 3): 12, (7, 3): 16, (8, 3): 21,
    (4, 4): 6, (5, 4): 9, (6, 4): 13, (7, 4): 18, (8, 4): 24,
    (5, 5): 10, (6, 5): 14, (7, 5): 19, (8, 5): 25,
    (6, 6): 15, (7, 6): 20, (8, 6): 26,
    (7, 7): 21, (8, 7): 27,
    (8, 8): 28,
}


def test_turan_table_reproduced_exactly():
    assert len(TURAN_TABLE) == 27
    for (k, i), expected in TURAN_TABLE.items():
        assert turan_number(k, i) == expected


def test_turan_number_complete_graph_case():
    for k in range(3, 12):
        assert turan_number(k, k) == k * (k - 1) // 2


def test_turan_number_range_check():
    with pytest.raises(InputError):
        turan_number(5, 1)
    with pytest.raises(InputError):
        turan_number(5, 6)


def test_turan_number_matches_constructed_graph():
    for k in range(3, 13):
        for i in range(2, k + 1):
            assert turan_graph(k, i).edge_count == turan_number(k, i)


def test_turan_number_matches_rational_closed_form():
    # k^2 (i-1) / (2i) - (i/2) (ceil(k/i) - k/i) (k/i - floor(k/i)).
    for k in range(2, 151):
        for i in range(2, k + 1):
            ki = F(k, i)
            ceil_gap = -(-k // i) - ki
            floor_gap = ki - k // i
            closed = F(k * k) * (i - 1) / (2 * i) - F(i, 2) * ceil_gap * floor_gap
            assert turan_number(k, i) == closed


def test_turan_bounds_chain():
    for k in range(3, 21):
        for i in range(2, k + 1):
            t = F(turan_number(k, i))
            upper = F(k * k) * (i - 1) / (2 * i)
            assert t <= upper
            assert t >= upper - F(i, 8)


def _has_clique(g: Graph, size: int) -> bool:
    return any(
        len(g.induced_edges(vs)) == size * (size - 1) // 2
        for vs in itertools.combinations(range(g.n), size)
    )


def test_turan_graph_is_clique_free():
    for n in range(3, 11):
        for i in range(1, n):
            g = turan_graph(n, i)
            assert not _has_clique(g, i + 1)


def test_turan_graph_examples():
    g = turan_graph(4, 2)
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))
    assert turan_graph(6, 3).edge_count == 12
    assert turan_graph(6, 1).edge_count == 0
    sizes = blowup_part_sizes(3, 7)
    assert sizes == [3, 2, 2]


def test_mono_triangle_free_k5():
    c = mono_triangle_free_k5()
    assert c.red.edge_count == 5
    assert all(c.red.degree(v) == 2 for v in range(5))
    mono = 0
    for tri in itertools.combinations(range(5), 3):
        if len(c.red.induced_edges(tri)) == 3 or len(c.blue.induced_edges(tri)) == 3:
            mono += 1
    assert mono == 0


def test_induced_rows_counts():
    # n = k with both colors present: exactly one red and one blue row.
    c = TwoColoring.from_red_edges(5, [(0, 1)])
    assert len(c.red.induced_rows(5)) == len(c.blue.induced_rows(5)) == 1

    c = TwoColoring.monochromatic(5)
    assert len(c.red.induced_rows(3)) == 10
    assert c.blue.induced_rows(3) == []

    pent = mono_triangle_free_k5()
    assert len(pent.red.induced_rows(3)) + len(pent.blue.induced_rows(3)) == 20
    # Oracle: every triangle of the pentagon coloring sees both colors.
    for tri in itertools.combinations(range(5), 3):
        assert 1 <= len(pent.red.induced_edges(tri)) <= 2


def test_induced_rows_are_the_nonempty_induced_edge_sets():
    c = mono_triangle_free_k5()
    graphs = [c.red, c.blue, Graph(7, 7090), Graph(7, 7090).complement()]
    for g in graphs:
        for k in range(3, g.n + 1):
            edges = g.edges()
            rows = [(s, tuple(edges[i] for i in row)) for s, row in g.induced_rows(k)]
            expected = [(s, g.induced_edges(s))
                        for s in itertools.combinations(range(g.n), k)
                        if g.induced_edges(s)]
            assert rows == expected


def _induced_rows_oracle(g: Graph, k: int):
    """The earlier ``Graph.induced_rows``: every pair of every k-set looked
    up among the edge positions."""
    position = {e: i for i, e in enumerate(g.edges())}.get
    rows = []
    for subset in itertools.combinations(range(g.n), k):
        row = tuple(i for i in map(position, itertools.combinations(subset, 2))
                    if i is not None)
        if row:
            rows.append((subset, row))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
def test_induced_rows_match_the_comprehension_oracle(graph):
    g = Graph(*graph)
    for k in range(3, g.n + 1):
        assert g.induced_rows(k) == _induced_rows_oracle(g, k)


def test_balanced_blowup_structure():
    base = mono_triangle_free_k5()
    blown = balanced_blowup(base, 10)
    assert blowup_part_sizes(5, 10) == [2, 2, 2, 2, 2]
    # Cross edges inherit the base color.
    for u, v in all_edges(10):
        pu, pv = u // 2, v // 2
        if pu != pv:
            assert blown.color_of(u, v) == base.color_of(pu, pv)
        else:
            assert blown.color_of(u, v) == "R"
    cross_red = sum(
        1 for u, v in blown.red.edges() if u // 2 != v // 2
    )
    cross_blue = blown.blue.edge_count
    assert cross_red + cross_blue == turan_number(10, 5) == 40


def test_balanced_blowup_identity_case():
    base = mono_triangle_free_k5()
    assert balanced_blowup(base, 5) == base
    with pytest.raises(InputError):
        balanced_blowup(base, 4)


@pytest.mark.parametrize("n", [17, 10 ** 19])
def test_vertex_count_checked_before_building(monkeypatch, n):
    # An out-of-range n is refused before any part list, edge list or mask
    # of size n is built.
    def unreachable(*args):
        pytest.fail("parts built for an out-of-range vertex count")

    monkeypatch.setattr(graphs, "blowup_part_of", unreachable)
    builders = [
        lambda: Graph.complete(n),
        lambda: turan_graph(n, 2),
        lambda: balanced_blowup(mono_triangle_free_k5(), n),
    ]
    for build in builders:
        with pytest.raises(InputError, match=f"^vertex count {n} outside 3..16$"):
            build()


def test_canonical_key_invariances():
    rng = random.Random(11)
    for n in (4, 5, 6):
        for _ in range(20):
            mask = rng.randrange(1 << (n * (n - 1) // 2))
            c = TwoColoring(Graph(n, mask))
            key = canonical_key(c)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = TwoColoring.from_red_edges(
                n, [(perm[u], perm[v]) for u, v in c.red.edges()]
            )
            assert canonical_key(relabeled) == key
            assert canonical_key(TwoColoring(c.blue)) == key


def test_canonical_key_distinguishes_n3_classes():
    one_edge = TwoColoring.from_red_edges(3, [(0, 1)])
    empty = TwoColoring.from_red_edges(3, [])
    # Brute force: no permutation and orientation relates the two.
    related = False
    for perm in itertools.permutations(range(3)):
        image = TwoColoring.from_red_edges(3, [(perm[0], perm[1])])
        if image.red.mask in (empty.red.mask, empty.blue.mask):
            related = True
    assert not related
    assert canonical_key(one_edge) != canonical_key(empty)


def test_canonical_key_invariance_beyond_the_pure_python_regime():
    rng = random.Random(23)
    for _ in range(3):
        mask = rng.randrange(1 << 21)
        c = TwoColoring(Graph(7, mask))
        perm = list(range(7))
        rng.shuffle(perm)
        relabeled = TwoColoring.from_red_edges(
            7, [(perm[u], perm[v]) for u, v in c.red.edges()]
        )
        assert canonical_key(relabeled) == canonical_key(c)
        assert canonical_key(TwoColoring(c.blue)) == canonical_key(c)


def test_canonical_key_capability_limit():
    with pytest.raises(CapabilityError):
        canonical_key(TwoColoring(Graph.empty(10)))


def _brute_force_min_mask(n: int, mask: int) -> int:
    full = (1 << (n * (n - 1) // 2)) - 1
    edges = list(all_edges(n))
    edge_pos = {e: i for i, e in enumerate(edges)}
    best = full
    for perm in itertools.permutations(range(n)):
        img = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                a, b = sorted((perm[u], perm[v]))
                img |= 1 << edge_pos[(a, b)]
        best = min(best, img, full ^ img)
    return best


def _brute_force_class_count(n: int) -> int:
    return len({_brute_force_min_mask(n, m) for m in range(1 << (n * (n - 1) // 2))})


def test_canonical_key_is_the_brute_force_minimum():
    rng = random.Random(31)
    for n, count in ((6, 20), (7, 6)):
        for _ in range(count):
            mask = rng.getrandbits(n * (n - 1) // 2)
            key = canonical_key(TwoColoring(Graph(n, mask)))
            assert int.from_bytes(key[1:], "big") == _brute_force_min_mask(n, mask)


def _nx_graph(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@st.composite
def _coloring_pairs(draw):
    """A coloring and a relabeled, maybe swapped copy, maybe with one edge flipped."""
    n = draw(st.integers(4, 8))
    pairs = n * (n - 1) // 2
    first = TwoColoring(Graph(n, draw(st.integers(0, (1 << pairs) - 1))))
    perm = draw(st.permutations(range(n)))
    red = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in first.red.edges()])
    if draw(st.booleans()):
        red = red.complement()
    flip = draw(st.none() | st.integers(0, pairs - 1))
    if flip is not None:
        red = Graph(n, red.mask ^ 1 << flip)
    return first, TwoColoring(red)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coloring_pairs())
def test_canonical_key_matches_networkx_isomorphism(pair):
    a, b = pair
    red = _nx_graph(a.red)
    same_class = (nx.is_isomorphic(red, _nx_graph(b.red))
                  or nx.is_isomorphic(red, _nx_graph(b.blue)))
    assert (canonical_key(a) == canonical_key(b)) == same_class


def test_enumeration_class_counts():
    assert len(enumerate_colorings(3)) == 2
    assert len(enumerate_colorings(4)) == 6
    assert len(enumerate_colorings(5)) == 18
    # Independent oracle over every raw coloring.
    assert _brute_force_class_count(3) == 2
    assert _brute_force_class_count(4) == 6
    assert _brute_force_class_count(5) == 18


def test_enumeration_representatives_are_canonical():
    for n in (3, 4, 5):
        for c in enumerate_colorings(n):
            key = canonical_key(c)
            mask = int.from_bytes(key[1:], "big")
            assert mask == c.red.mask


# Class count and sha256 of the comma-joined representative masks, recorded
# with the earlier canonicalizer that tried every vertex permutation.
PINNED_ENUMERATIONS = {
    3: (2, "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350"),
    4: (6, "6fd349e4b7e877ad4a31d3a10b870d79cde85c0ac82ba5480c130352c6bd08cc"),
    5: (18, "150efd2e7cb1f5d00d23eb85f62fa86bb4f265602a40a02f566513556ec4a470"),
    6: (78, "04322337a4fcbafa7f6d6f5ef863da43d1fb16b68b763b515b258e0244c63d05"),
    7: (522, "8e1715d90da543e1bcc2df120bfb463a1da40863e3903c588a6cf7f6c86fefd4"),
    8: (6178, "052ea08375863d20b56b482def8f7d155a1aeff4835a31cfd5f8177afb8c7d9f"),
}


def test_enumeration_matches_pinned_digests():
    for n, (count, digest) in PINNED_ENUMERATIONS.items():
        masks = [c.red.mask for c in enumerate_colorings(n)]
        assert len(masks) == count
        assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == digest


def _unbounded_class_masks(n_max: int) -> dict[int, tuple[int, ...]]:
    """Orderly generation without ``graphs._first_child``: every child of
    every minimal parent is searched."""
    levels = {2: (0,)}
    for n in range(3, n_max + 1):
        levels[n] = tuple(
            mask
            for top in levels[n - 1]
            for mask in range(top << (n - 1), (top + 1) << (n - 1))
            if graphs._canonical_mask(n, mask, stop_early=True) is None
        )
    return levels


def _relabeled(n: int, mask: int, side: int, label) -> int:
    g = Graph(n, mask).complement() if side else Graph(n, mask)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in g.edges()]).mask


@st.composite
def _masks_to_check(draw):
    """A random mask on 3..8 vertices, most rejected while the top labels
    take an independent set, or a child of a class mask as orderly
    generation tries it, most rejected only after that."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        return n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    top = draw(st.sampled_from(graphs._class_masks(n - 1)))
    return n, top << (n - 1) | draw(st.integers(0, (1 << (n - 1)) - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_masks_to_check())
def test_stop_early_returns_a_lowering_relabeling(case):
    n, mask = case
    relabeling = graphs._canonical_mask(n, mask, stop_early=True)
    if graphs._canonical_mask(n, mask) == mask:
        assert relabeling is None
    else:
        side, label = relabeling
        assert side in (0, 1) and sorted(label) == list(range(n))
        assert _relabeled(n, mask, side, label) < mask


def test_class_masks_match_the_unbounded_search():
    for n, masks in _unbounded_class_masks(7).items():
        assert graphs._class_masks(n) == masks


def _below_first_child(n: int, top: int) -> range:
    base = top << (n - 1)
    return range(base, base | graphs._first_child(n, base))


def _lowered_by_twins(n: int, top: int) -> list[int]:
    twins = graphs._twin_pairs(n - 1, graphs._parent_sets(n, top)[0])
    return [
        top << (n - 1) | x
        for x in range(1 << (n - 1))
        if any(x & pair == bit for pair, bit in twins)
    ]


def _skipped_children(n: int, rule) -> list:
    """Per parent, the children on n vertices that ``rule`` skips."""
    return [rule(n, top) for top in graphs._class_masks(n - 1)]


def test_first_child_skips_only_non_minimal_masks():
    # So does the twin rule: swapping twin labels a < b of the parent keeps
    # the parent and moves x's bit b down to a.
    rng = random.Random(14)
    for rule in (_below_first_child, _lowered_by_twins):
        for n in (3, 4, 5, 6):
            for skipped in _skipped_children(n, rule):
                for mask in skipped:
                    assert _brute_force_min_mask(n, mask) < mask
        for skipped in _skipped_children(7, rule):
            for mask in skipped:
                assert graphs._canonical_mask(7, mask) < mask
        skipped = [r for r in _skipped_children(8, rule) if r]
        for _ in range(1000):
            mask = rng.choice(rng.choice(skipped))
            assert graphs._canonical_mask(8, mask) < mask


def test_child_search_matches_the_full_search():
    # Both the answer and the relabeling behind a rejection: every child of
    # every class mask up to n = 7, and six per parent at n = 8.
    rng = random.Random(28)
    for n in range(3, 9):
        for top in graphs._class_masks(n - 1):
            parent = graphs._parent_sets(n, top)
            xs = range(1 << (n - 1)) if n < 8 else rng.sample(range(1 << (n - 1)), 6)
            for x in xs:
                mask = top << (n - 1) | x
                assert (graphs._child_relabeling(n, mask, *parent)
                        == graphs._canonical_mask(n, mask, stop_early=True)), (n, mask)


def test_orderly_generation_searches_per_level(monkeypatch):
    # Pinned so that a lost pruning rule shows: the sibling images, the
    # first child and the twin pairs leave these children to search.
    searched = []
    child_relabeling = graphs._child_relabeling

    def counting(n, *args):
        searched.append(n)
        return child_relabeling(n, *args)

    monkeypatch.setattr(graphs, "_child_relabeling", counting)
    graphs._class_masks.cache_clear()
    assert len(graphs._class_masks(8)) == 6178
    assert [searched.count(n) for n in (5, 6, 7, 8)] == [25, 118, 759, 8090]


def test_class_counts_match_oeis_with_no_search():
    # Classes under relabeling and the Red/Blue swap: graphs on n vertices
    # (OEIS A000088) plus self-complementary ones (A000171), halved.  At
    # n = 9 this gives (274668 + 36) / 2 = 137352.
    graphs_on = {3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
    self_complementary = {3: 0, 4: 1, 5: 2, 6: 0, 7: 0, 8: 10}
    for n in range(3, 9):
        assert len(enumerate_colorings(n)) == (graphs_on[n] + self_complementary[n]) // 2


def test_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wramsey; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_deleted_classes_are_the_canonical_vertex_deletions():
    # Each entry is the class of the coloring left when vertex v goes,
    # rebuilt here from its edges and keyed independently of the table.
    for n in range(4, 8):
        masks = {canonical_key(c): c.red.mask for c in enumerate_colorings(n - 1)}
        for c, deleted in zip(enumerate_colorings(n), graphs._deleted_classes(n)):
            expected = []
            for v in range(n):
                label = [u for u in range(n) if u != v]
                rest = TwoColoring.from_red_edges(n - 1, [
                    (label.index(a), label.index(b)) for a, b in c.red.edges() if v not in (a, b)
                ])
                expected.append(masks[canonical_key(rest)])
            assert deleted == tuple(expected)
            assert deleted[0] == c.red.mask >> (n - 1)


def test_enumeration_capability_limits():
    with pytest.raises(CapabilityError):
        enumerate_colorings(2)
    with pytest.raises(CapabilityError):
        enumerate_colorings(9)


def test_graph_text_roundtrip():
    g = turan_graph(5, 2)
    assert parse_graph(format_graph(g)) == g
    with pytest.raises(InputError):
        parse_graph("m 5\n0 1")
    with pytest.raises(InputError):
        parse_graph("n 4\n0 1 2")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(
    st.integers(3, 6).flatmap(lambda n: st.builds(
        lambda mask: TwoColoring(Graph(n, mask)),
        st.integers(0, (1 << n * (n - 1) // 2) - 1))),
    min_size=1, max_size=4))
def test_coloring_records_roundtrip_property(colorings):
    text = "".join(format_coloring(c) for c in colorings)
    assert parse_colorings(text) == colorings


def test_coloring_text_roundtrip():
    c = mono_triangle_free_k5()
    assert parse_coloring(format_coloring(c)) == c
    text = format_coloring(c) + format_coloring(TwoColoring.monochromatic(4))
    both = parse_colorings(text)
    assert both == [c, TwoColoring.monochromatic(4)]
    # A missing edge line is a parse error.
    lines = format_coloring(c).strip().splitlines()
    with pytest.raises(InputError):
        parse_coloring("\n".join(lines[:-1]))
    # So is an edge outside K_n in place of a missing one, in either color.
    for bad in ("0 9 B", "0 9 R"):
        with pytest.raises(InputError):
            parse_coloring("\n".join(lines[:-1] + [bad]))


def test_graph_validation():
    with pytest.raises(InputError):
        Graph.from_edges(4, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(4, [(0, 5)])
    with pytest.raises(InputError):
        Graph.empty(17)
