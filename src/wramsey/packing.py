"""Triangle packing and covering invariants of a graph.

Four invariants are computed exactly:

* ``tau_star``    - fractional triangle packing: max total triangle weight
                    with per-edge load at most 1.
* ``tau_integral``- largest edge-disjoint triangle family (branch and bound).
* ``r_induced``   - min total weight on induced 3-vertex subgraphs covering
                    every edge at least once.
* ``r_tilde``     - min total weight on arbitrary 3-vertex subgraphs with
                    every edge loaded exactly once.

The three LPs share one shape: one row per edge that some member uses,
with the edge's load held at most, at least or exactly 1, and unit costs.
A member is a vertex triple from ``Graph.induced_rows(3)`` with the
positions in ``g.edges()`` of its edges.  The rows are read once per graph
(``_incidence`` keeps the last graph's), and each program is posed by
column: a member's column is the row numbers of its edges.  Every edge is
a row of ``r_induced`` and ``r_tilde``, so there a row number is the edge
position; ``tau_star``'s rows are the edges that lie in a triangle,
numbered in edge order.  ``exactnum._solve_certified`` solves and
certifies the program in integer numerators over one denominator.  Each
LP has a private core (``_tau_star_core``, ``_r_induced_core``,
``_r_tilde_core``) that returns the optimum, the denominator d and the
witness's members with their nonzero numerators over d.  The public
functions build descriptors and rational weights for the witness's
members only; the CLI prints the witness from the core's integers and
builds none.

An edge's single-edge member is the same column on every triple that holds
it, so ``r_induced`` and ``r_tilde`` pose it once, on the first such triple
in combinations order.  For ``r_tilde`` that is the triple of the edge's
pair and the smallest vertex outside it, which depends on n alone
(``_first_triples``); ``r_induced`` poses it on the first triple that
induces exactly that edge, which depends on the graph.  Under Bland's rule
the pivot path, and with it every optimum and witness, is that of the
program with every copy:

* identical columns have equal reduced costs, so the first copy is always
  priced first, and a later copy never enters while the first is nonbasic;
* a copy of a basic column prices at 0, so it never enters either;
* the crash basis takes the first decision column of each row, the first
  copy;
* when phase 1 drives an artificial out, a copy of a basic column has no
  entry on a logical row, so the drive-out passes over it.

The two minima are equal; the constructive conversions between their
solutions, and between packings and covers, are implemented as weight
redistribution algorithms operating on ``SubgraphWeights``.

A 3-vertex subgraph is described by its vertex triple and any subset of the
edges the host graph induces there.  Members with zero edges can never help
a minimum and are excluded from LP variable sets, but the constructions may
introduce one-edge members (an edge plus an isolated vertex).
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from ._record import _Frozen, _Record
from .errors import CapabilityError, ContractViolationError, InputError
from .exactnum import Relation, _Program, _solve_certified
from .graphs import Graph, TwoColoring, enumerate_colorings
from .weighted_ramsey import _first_extremum

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SubgraphDescriptor(_Frozen):
    """A 3-vertex subgraph: sorted vertex triple plus an edge subset."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[int, int, int], edges: tuple[tuple[int, int], ...]):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != 3:
            raise InputError(f"need three distinct vertices, got {vertices}")
        pairs = set(itertools.combinations(vs, 2))
        es = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        if len(set(es)) != len(es) or not set(es) <= pairs:
            raise InputError(f"edges {edges} do not fit inside {vs}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices, self.edges) == (other.vertices, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_triangle(self) -> bool:
        return len(self.edges) == 3

    def without_edges(self, drop: set[tuple[int, int]]) -> "SubgraphDescriptor":
        return SubgraphDescriptor(
            self.vertices, tuple(e for e in self.edges if e not in drop)
        )


def induced_descriptor(g: Graph, triple) -> SubgraphDescriptor:
    return SubgraphDescriptor(tuple(triple), g.induced_edges(triple))


class SubgraphWeights(_Record):
    """Nonnegative rational weights on 3-vertex subgraphs of a base graph."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: Graph, weights: dict[SubgraphDescriptor, Fraction]):
        # A weight that is already a Fraction is kept as given.  Each edge
        # (u, v), u < v inside the checked triple, is read from the mask at
        # its K_n index.
        self.graph = graph
        cleaned = {}
        n, mask = graph.n, graph.mask
        for desc, w in weights.items():
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w.numerator < 0:
                raise InputError(f"negative weight on {desc}")
            lo, _, hi = desc.vertices
            if lo < 0 or hi >= n:
                raise InputError(f"{desc} does not live on the base graph")
            for u, v in desc.edges:
                if not mask >> (u * (2 * n - u - 1) // 2 + v - u - 1) & 1:
                    raise InputError(f"{desc} uses non-edge ({u}, {v})")
            if w:
                cleaned[desc] = w
        self.weights = cleaned

    def total(self) -> Fraction:
        return sum(self.weights.values(), _ZERO)

    def loads(self) -> dict[tuple[int, int], Fraction]:
        """Per-edge load over every edge of the base graph."""
        out = dict.fromkeys(self.graph.edges(), _ZERO)
        for desc, w in self.weights.items():
            for e in desc.edges:
                out[e] += w
        return out

    def restricted_to_triangles(self) -> "SubgraphWeights":
        return SubgraphWeights(
            self.graph,
            {d: w for d, w in self.weights.items() if d.is_triangle},
        )


def _require_unit_loads(tw: SubgraphWeights, what: str) -> None:
    for e, load in tw.loads().items():
        if load != 1:
            raise ContractViolationError(f"{what}: edge {e} has load {load}")


# Largest n each packing LP accepts.  K_n gives the largest LP of each
# size; measured on a 2-core machine: tau_star 0.53 s at n=12 (1.2 s at 13),
# r_induced 0.57 s at 12 (1.3 s at 13), r_tilde 0.32 s at 10 (0.83 s at 11).
_TAU_STAR_CAP = 12
_R_INDUCED_CAP = 12
_R_TILDE_CAP = 10


def _require_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise CapabilityError(f"{what} capped at n={cap}")


@functools.lru_cache(maxsize=1)
def _incidence(g: Graph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """``g.induced_rows(3)``: each vertex triple with an edge and the
    positions of its edges.  Only the last graph's rows are kept, so the
    statistics of one ``packing`` call build them once."""
    return tuple(g.induced_rows(3))


def _triangles(g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [m for m in _incidence(g) if len(m[1]) == 3]


def _tau_star_program(g: Graph) -> tuple[list, _Program]:
    """The triangles and the packing program over them; its rows are the
    edges that lie in a triangle, numbered in edge order."""
    _require_cap(g, _TAU_STAR_CAP, "fractional triangle packing")
    triangles = _triangles(g)
    used = [0] * g.edge_count
    for _, row in triangles:
        for e in row:
            used[e] = 1
    rank = list(itertools.accumulate(used, initial=0))
    return triangles, _Program([[rank[a], rank[b], rank[c]] for _, (a, b, c) in triangles],
                               rank[-1], Relation.LE, True)


def _tau_star_core(g: Graph) -> tuple[Fraction, int, list]:
    return _certified_witness(*_tau_star_program(g))


def tau_star(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    """Fractional triangle packing number with an optimal weight witness."""
    return _weights(g, *_tau_star_core(g))


# Measured on a 2-core machine: K_10 takes 2 ms and the slowest n = 10 graph
# found, K_10 minus a perfect matching, 0.1 s; K_11 would take 74 s.
_TAU_CAP = 10


def tau_integral(g: Graph) -> int:
    """Size of the largest edge-disjoint triangle family."""
    return len(tau_integral_family(g))


def tau_integral_family(g: Graph) -> list[tuple[int, int, int]]:
    """An explicit maximum edge-disjoint triangle family (deterministic)."""
    _require_cap(g, _TAU_CAP, "integral packing")
    triangles = _triangles(g)
    # Each triangle's edges, and each vertex's star, as a bitmask over the
    # edge positions.
    masks = [sum(1 << e for e in row) for _, row in triangles]
    stars = [0] * g.n
    for e, (u, v) in enumerate(g.edges()):
        stars[u] |= 1 << e
        stars[v] |= 1 << e

    # Greedy seed so the search starts with a strong incumbent.
    best_sel: list[int] = []
    used = 0
    for i, mask in enumerate(masks):
        if not mask & used:
            best_sel.append(i)
            used |= mask
    best_len = len(best_sel)

    def search(chosen: list[int], dead: int) -> None:
        nonlocal best_len, best_sel
        avail = [i for i, mask in enumerate(masks) if not mask & dead]
        usable = 0
        for i in avail:
            usable |= masks[i]
        # A triangle takes two edges at each of its three vertices.  Only
        # branches that cannot beat the incumbent strictly are pruned, so the
        # result is the first maximum family in branching order.
        if len(chosen) + sum((usable & star).bit_count() // 2
                             for star in stars) // 3 <= best_len:
            return
        if not avail:
            best_len = len(chosen)
            best_sel = list(chosen)
            return
        # Branch on the first edge still coverable: some triangle claims it,
        # or it is written off for good.
        pivot = usable & -usable
        for i in avail:
            if masks[i] & pivot:
                chosen.append(i)
                search(chosen, dead | masks[i])
                chosen.pop()
        search(chosen, dead | pivot)

    search([], 0)
    return [triangles[i][0] for i in sorted(best_sel)]


def _certified_witness(members: list[tuple[tuple[int, ...], tuple[int, ...]]],
                       program: _Program) -> tuple[Fraction, int, list]:
    """The certified optimum of a packing program, its denominator d and its
    witness: each member with a nonzero weight, a vertex triple with the
    positions of its edges, paired with the weight's numerator over d.
    Member j is column j."""
    if not members:
        return _ZERO, 1, []
    solution = _solve_certified(program, "packing LP")
    return Fraction(solution.optimum, solution.d), solution.d, [
        (members[j], x) for j, x in enumerate(solution.primal) if x]


def _weights(g: Graph, optimum: Fraction, d: int,
             witness: list) -> tuple[Fraction, SubgraphWeights]:
    """A packing core's optimum with its witness as validated weights."""
    edges = g.edges()
    return optimum, SubgraphWeights(g, {
        SubgraphDescriptor(triple, tuple(edges[e] for e in member_edges)): Fraction(x, d)
        for (triple, member_edges), x in witness
    })


def _cover_program(g: Graph, members, relation: Relation) -> _Program:
    """The minimum program over members that use every edge: one row per
    edge, so a member's column is its edge positions."""
    return _Program([list(m[1]) for m in members], g.edge_count, relation, False)


def _single_edges_once(members):
    """The members in order, each single-edge member only on the first
    triple that carries its edge (see the module docstring)."""
    posed = set()
    out = []
    for member in members:
        member_edges = member[1]
        if len(member_edges) == 1:
            if member_edges in posed:
                continue
            posed.add(member_edges)
        out.append(member)
    return out


def _r_induced_core(g: Graph) -> tuple[Fraction, int, list]:
    _require_cap(g, _R_INDUCED_CAP, "induced cover")
    members = _single_edges_once(_incidence(g))
    return _certified_witness(members, _cover_program(g, members, Relation.GE))


def r_induced(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    """Minimum fractional cover of E(G) by induced 3-vertex subgraphs.

    Triples that induce the same single edge are the same column; only the
    first in combinations order is posed.  Bland's rule never enters a
    later copy (module docstring), so the optimum and witness are those of
    the program over every triple.
    """
    return _weights(g, *_r_induced_core(g))


@functools.lru_cache(maxsize=None)
def _first_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """For each pair of K_n, in K_n index order, the first vertex triple in
    combinations order that holds it: the pair and the smallest vertex
    outside it."""
    return tuple(
        tuple(sorted((u, v, next(w for w in range(n) if w != u and w != v))))
        for u, v in itertools.combinations(range(n), 2)
    )


def _tilde_members(g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every nonempty edge subset of every triple, in combinations order,
    each single-edge member only on the first triple that holds its pair."""
    mask = g.mask
    # The first triple of each edge, by edge position.
    first = [t for p, t in enumerate(_first_triples(g.n)) if mask >> p & 1]
    members = []
    for triple, row in _incidence(g):
        for e in row:
            if first[e] == triple:
                members.append((triple, (e,)))
        for size in range(2, len(row) + 1):
            for subset in itertools.combinations(row, size):
                members.append((triple, subset))
    return members


def _r_tilde_core(g: Graph) -> tuple[Fraction, int, list]:
    _require_cap(g, _R_TILDE_CAP, "exact-load cover")
    members = _tilde_members(g)
    return _certified_witness(members, _cover_program(g, members, Relation.EQ))


def r_tilde(g: Graph) -> tuple[Fraction, SubgraphWeights]:
    """Minimum total weight with every edge loaded exactly once.

    Each edge's single-edge member is posed only on the first triple that
    holds the edge.  Its copies on later triples are the same column, which
    Bland's rule never enters (module docstring), so the optimum and witness
    are those of the program over every member.
    """
    return _weights(g, *_r_tilde_core(g))


def lift_tilde_to_induced(tw: SubgraphWeights) -> SubgraphWeights:
    """Push exact-load weights onto the induced subgraphs of their triples.

    Each member sits inside a unique induced 3-vertex subgraph: the one on
    its own vertex triple.  Summing the weights per triple preserves the
    total and turns exact unit loads into coverage of at least one.
    """
    g = tw.graph
    _require_unit_loads(tw, "input is not an exact unit-load solution")
    out: dict[SubgraphDescriptor, Fraction] = {}
    for desc, w in tw.weights.items():
        target = induced_descriptor(g, desc.vertices)
        out[target] = out.get(target, _ZERO) + w
    return SubgraphWeights(g, out)


def reduce_to_minimal(tw: SubgraphWeights) -> SubgraphWeights:
    """Greedily shrink a feasible cover until no single weight can drop.

    Weights are visited in descriptor order and each is reduced by the
    smallest excess among its edges; passes repeat until stable.
    """
    g = tw.graph
    loads = tw.loads()
    if any(v < 1 for v in loads.values()):
        raise ContractViolationError("input does not cover every edge")
    weights = dict(tw.weights)
    changed = True
    while changed:
        changed = False
        for desc in sorted(weights, key=lambda d: (d.vertices, d.edges)):
            w = weights[desc]
            slack = min(loads[e] - 1 for e in desc.edges)
            cut = min(w, slack)
            if cut > 0:
                changed = True
                weights[desc] = w - cut
                for e in desc.edges:
                    loads[e] -= cut
                if not weights[desc]:
                    del weights[desc]
    return SubgraphWeights(g, weights)


def redistribute_excess(tw: SubgraphWeights) -> SubgraphWeights:
    """Turn a minimal induced cover into an exact unit-load solution.

    Repeatedly picks a positive-weight member containing an overweight edge
    and moves weight onto the member with that edge (and, when present, a
    second overweight edge) removed.  Loads never increase, deficiencies are
    never created, and the total weight is unchanged, so the process stops
    with every load exactly one.
    """
    g = tw.graph
    loads = tw.loads()
    if any(v < 1 for v in loads.values()):
        raise ContractViolationError("input does not cover every edge")
    for desc in tw.weights:
        if desc.edges != g.induced_edges(desc.vertices):
            raise ContractViolationError(
                f"{desc} is not an induced subgraph of the base graph"
            )
        if min(loads[e] for e in desc.edges) > 1:
            raise ContractViolationError(
                f"input is not minimal: weight on {desc} can be reduced"
            )

    weights = dict(tw.weights)
    member_order = sorted(weights, key=lambda d: (d.vertices, d.edges))
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise ContractViolationError("excess redistribution failed to terminate")
        over = [e for e, v in loads.items() if v > 1]
        if not over:
            break
        over_set = set(over)
        pick = None
        for desc in member_order:
            if weights.get(desc) and over_set & set(desc.edges):
                pick = desc
                break
        if pick is None:
            raise ContractViolationError(
                "an overweight edge lies in no weighted member"
            )
        hot = sorted(
            (e for e in pick.edges if e in over_set),
            key=lambda e: (-(loads[e] - 1), e),
        )
        if len(hot) == 3:
            raise ContractViolationError(
                f"three overweight edges inside {pick}: input was not minimal"
            )
        w = weights[pick]
        first = hot[0]
        delta = min(w, loads[first] - 1)
        second = hot[1] if len(hot) > 1 else None
        eps = min(delta, loads[second] - 1) if second else _ZERO

        weights[pick] = w - delta
        if not weights[pick]:
            del weights[pick]
        if delta - eps:
            tgt = pick.without_edges({first})
            weights[tgt] = weights.get(tgt, _ZERO) + (delta - eps)
            if tgt not in member_order:
                member_order.append(tgt)
        if eps:
            tgt = pick.without_edges({first, second})
            weights[tgt] = weights.get(tgt, _ZERO) + eps
            if tgt not in member_order:
                member_order.append(tgt)
        loads[first] -= delta
        if second:
            loads[second] -= eps

    result = SubgraphWeights(g, weights)
    if result.total() != tw.total():
        raise ContractViolationError("excess redistribution changed the total")
    _require_unit_loads(result, "excess redistribution left a load off one")
    return result


def _max_matching_bruteforce(nodes: list, adjacent) -> list[tuple]:
    """Deterministic exact maximum matching on a tiny general graph."""
    best: list[tuple] = []

    def grow(avail: list, current: list):
        nonlocal best
        if len(current) + len(avail) // 2 <= len(best):
            return
        if not avail:
            if len(current) > len(best):
                best = list(current)
            return
        head, rest = avail[0], avail[1:]
        partners = [b for b in rest if adjacent(head, b)]
        for b in partners:
            current.append((head, b))
            grow([x for x in rest if x != b], current)
            current.pop()
        grow(rest, current)

    grow(list(nodes), [])
    return best


def packing_to_cover(gs: SubgraphWeights, g: Graph) -> SubgraphWeights:
    """Grow an optimal fractional packing into an exact unit-load cover.

    Underweight edges of an optimal packing span no triangle, so they can be
    patched with two-edge members (paired along shared endpoints, as many
    pairs as possible per round) and finally one-edge members once the
    remaining underweight edges form a matching.
    """
    if gs.graph != g:
        raise InputError("weights are not over the given graph")
    for desc in gs.weights:
        if not desc.is_triangle:
            raise ContractViolationError(f"packing weight on non-triangle {desc}")
    loads = gs.loads()
    if any(v > 1 for v in loads.values()):
        raise ContractViolationError("packing overloads an edge")

    deficiency = {e: _ONE - v for e, v in loads.items()}
    under = [e for e in g.edges() if deficiency[e] > 0]
    for tri in g.triangles():
        tri_edges = list(itertools.combinations(tri, 2))
        if all(deficiency[e] > 0 for e in tri_edges):
            raise ContractViolationError(
                f"underweight edges contain triangle {tri}: packing is not optimal"
            )

    weights = dict(gs.weights)

    def share_endpoint(e1, e2):
        return bool(set(e1) & set(e2))

    while True:
        under = sorted(e for e in under if deficiency[e] > 0)
        pairs = _max_matching_bruteforce(under, share_endpoint)
        if not pairs:
            break
        for a, b in pairs:
            # The smaller deficiency is settled in full; lexicographic order
            # breaks exact ties.
            lo, hi = sorted((a, b), key=lambda e: (deficiency[e], e))
            move = deficiency[lo]
            triple = tuple(sorted(set(lo) | set(hi)))
            desc = SubgraphDescriptor(triple, (lo, hi))
            weights[desc] = weights.get(desc, _ZERO) + move
            deficiency[lo] = _ZERO
            deficiency[hi] -= move

    for e in sorted(e for e in under if deficiency[e] > 0):
        spare = min(v for v in range(g.n) if v not in e)
        desc = SubgraphDescriptor((e[0], e[1], spare), (e,))
        weights[desc] = weights.get(desc, _ZERO) + deficiency[e]
        deficiency[e] = _ZERO

    result = SubgraphWeights(g, weights)
    _require_unit_loads(result, "packing-to-cover growth left a load off one")
    return result


def cover_to_packing(ts: SubgraphWeights, g: Graph) -> SubgraphWeights:
    """Restrict an exact unit-load cover to its triangles: a valid packing."""
    if ts.graph != g:
        raise InputError("weights are not over the given graph")
    _require_unit_loads(ts, "input is not an exact unit-load solution")
    return ts.restricted_to_triangles()


class ColoringPackingStats(_Frozen):
    __slots__ = ("tau_c", "tau_star_sum")

    def __init__(self, tau_c: int, tau_star_sum: Fraction):
        object.__setattr__(self, "tau_c", tau_c)
        object.__setattr__(self, "tau_star_sum", tau_star_sum)


def _tau_sum(c: TwoColoring) -> int:
    return tau_integral(c.red) + tau_integral(c.blue)


def _tau_star_sum(c: TwoColoring) -> Fraction:
    return _tau_star_core(c.red)[0] + _tau_star_core(c.blue)[0]


def coloring_packing_stats(c: TwoColoring) -> ColoringPackingStats:
    """Joint monochromatic packing number and its fractional analogue.

    Red and blue triangles are automatically edge-disjoint across colors, so
    the joint maximum is the per-color sum; tests confirm this equivalence
    against a direct joint search on small instances.
    """
    return ColoringPackingStats(tau_c=_tau_sum(c), tau_star_sum=_tau_star_sum(c))


def tau_min_over_colorings(n: int, fractional: bool) -> tuple[Fraction, TwoColoring]:
    """Minimum of the packing statistic over one coloring per class; the
    fractional one reads tau_star values, building no weights."""
    coloring, value = _first_extremum(
        enumerate_colorings(n), _tau_star_sum if fractional else _tau_sum, operator.neg
    )
    return Fraction(value), coloring


def triangle_packing_bound(n: int, tau: Fraction) -> Fraction:
    """Lower bound on wram(n, 3) from a monochromatic packing number."""
    tau = Fraction(tau)
    denom = Fraction(n * n) - 2 * tau + n
    if denom <= 0:
        raise InputError(f"nonpositive denominator for n={n}, tau={tau}")
    return 4 * Fraction(n * (n - 1), 2) / denom


def triangle_packing_bound_limit(gamma: Fraction) -> Fraction:
    """Large-n limit of the packing bound when tau grows like gamma * n^2."""
    gamma = Fraction(gamma)
    denom = 1 - 2 * gamma
    if denom <= 0:
        raise InputError(f"gamma={gamma} is too large")
    return Fraction(2) / denom
