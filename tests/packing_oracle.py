"""Descriptor-based packing LPs and integral search, kept as a test oracle.

This is the earlier design of ``wramsey.packing``: every LP member is built
as a ``SubgraphDescriptor`` up front (``induced_members``, ``all_members``),
triangles come from a ``has_edge`` scan over all vertex triples, and the
branch and bound works on frozensets of edge tuples.  ``wramsey.packing``
reads all of them from ``Graph.induced_rows(3)`` instead, so on every graph
both must pose the same unit programs and return the same witnesses, in the
same order, and the same triangle families.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from wramsey.exactnum import Relation, Sense, solve_unit_program
from wramsey.graphs import Graph
from wramsey.packing import SubgraphDescriptor, SubgraphWeights

_ZERO = Fraction(0)


def triangles(g: Graph) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        t for t in itertools.combinations(range(g.n), 3)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(t, 2))
    )


def induced_descriptor(g: Graph, triple) -> SubgraphDescriptor:
    return SubgraphDescriptor(tuple(triple), g.induced_edges(triple))


def induced_members(g: Graph) -> list[SubgraphDescriptor]:
    return [induced_descriptor(g, t) for t in itertools.combinations(range(g.n), 3)
            if g.induced_edges(t)]


def all_members(g: Graph) -> list[SubgraphDescriptor]:
    out = []
    for triple in itertools.combinations(range(g.n), 3):
        induced = g.induced_edges(triple)
        for r in range(1, len(induced) + 1):
            for subset in itertools.combinations(induced, r):
                out.append(SubgraphDescriptor(triple, subset))
    return out


def unit_program(g: Graph, members: list[SubgraphDescriptor], sense: Sense,
                 relation: Relation) -> tuple[Fraction, SubgraphWeights]:
    if not members:
        return _ZERO, SubgraphWeights(g, {})
    rows: dict[tuple[int, int], list[int]] = {e: [] for e in g.edges()}
    for i, d in enumerate(members):
        for e in d.edges:
            rows[e].append(i)
    optimum, primal = solve_unit_program(
        len(members), [row for row in rows.values() if row], sense, relation,
        "packing LP",
    )
    return optimum, SubgraphWeights(g, dict(zip(members, primal)))


def tau_star(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    return unit_program(g, [induced_descriptor(g, t) for t in triangles(g)],
                        Sense.MAX, Relation.LE)


def r_induced(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    return unit_program(g, induced_members(g), Sense.MIN, Relation.GE)


def r_tilde(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    return unit_program(g, all_members(g), Sense.MIN, Relation.EQ)


def tau_integral_family(g: Graph) -> list[tuple[int, int, int]]:
    tris = list(triangles(g))
    if not tris:
        return []
    tri_edges = [frozenset(itertools.combinations(t, 2)) for t in tris]
    edge_list = g.edges()
    by_edge = {e: [i for i, es in enumerate(tri_edges) if e in es] for e in edge_list}

    best_sel: list[int] = []
    used: set = set()
    for i, es in enumerate(tri_edges):
        if not es & used:
            best_sel.append(i)
            used |= es
    best_len = len(best_sel)

    def search(chosen: list[int], blocked: frozenset, banned: frozenset) -> None:
        nonlocal best_len, best_sel
        dead = blocked | banned
        avail = [i for i in range(len(tris)) if not (tri_edges[i] & dead)]
        usable: set = set()
        for i in avail:
            usable |= tri_edges[i]
        if len(chosen) + len(usable) // 3 <= best_len:
            return
        if not avail:
            best_len = len(chosen)
            best_sel = list(chosen)
            return
        pivot = next(e for e in edge_list if e in usable)
        for i in by_edge[pivot]:
            if tri_edges[i] & dead:
                continue
            chosen.append(i)
            search(chosen, blocked | tri_edges[i], banned)
            chosen.pop()
        search(chosen, blocked, banned | {pivot})

    search([], frozenset(), frozenset())
    return [tris[i] for i in sorted(best_sel)]
