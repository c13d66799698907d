"""Small graphs, Red/Blue colorings of K_n, canonical forms, Turán graphs.

Graphs live on at most 16 vertices so an edge set fits comfortably in a
single Python int bitmask.  Edges are indexed lexicographically: (0,1),
(0,2), ..., (0,n-1), (1,2), ...  A TwoColoring is stored through its red
graph; the blue graph is the complement inside K_n.

The canonical form is the minimum red-edge bitmask over all vertex
relabelings and both color orientations, found label by label from the top
bits (n <= 9, as the key stores it in 5 bytes).  Class representatives come
from orderly generation, which grows them one vertex at a time: a minimal
mask on n vertices is a minimal (n-1)-vertex parent shifted up, plus the
block x of label 0.  Of a parent's children only x >= b_w << w, for every
label 1 <= w <= n-2 with block b_w, are searched: swapping labels 0 and w
keeps every block above w and makes w's block x >> w, so any lower x has
a lower relabeling.  Nor is x searched if it holds the bit of b but not
of a, for twin labels a < b of the parent, whose rows agree apart from
each other: swapping them keeps the parent and moves that bit down.  Each
child the search rejects yields a relabeling that lowers it, and the later
siblings are first tested against these: an image below the child proves
it is not minimal, with no search.

A child's search starts from its parent's independent sets, computed once
per parent.  The child's sets are {0} | S for each parent set S off
label 0's neighbours, and the parent's own.  An independent set of the
parent's largest size alpha on its top labels would zero their top
alpha - 1 blocks, so the minimal parent has them zero already, and so has
the child: its search cannot stop early before its sets outgrow alpha.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._record import _Frozen
from .errors import CapabilityError, InputError

MAX_VERTICES = 16

_CANONICAL_CAP = 9
_ENUMERATION_CAP = 8


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge (u, v) in the lexicographic edge order of K_n."""
    if u > v:
        u, v = v, u
    if u == v or not 0 <= u < n or not 0 <= v < n:
        raise InputError(f"bad edge ({u}, {v}) for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


@lru_cache(maxsize=None)
def all_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _subset_pairs(n: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each k-subset of range(n), in combinations order, with the K_n
    indices of its pairs, ascending."""
    return tuple(
        (subset, tuple(edge_index(n, u, v) for u, v in itertools.combinations(subset, 2)))
        for subset in itertools.combinations(range(n), k)
    )


@lru_cache(maxsize=None)
def _subset_holders(n: int, k: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The K_n pair mask of each k-subset of range(n), in combinations
    order, and for each pair the indices of the k-subsets that hold it,
    ascending."""
    masks = []
    holders: list[list[int]] = [[] for _ in range(n * (n - 1) // 2)]
    for s, (_, pairs) in enumerate(_subset_pairs(n, k)):
        masks.append(sum(1 << p for p in pairs))
        for p in pairs:
            holders[p].append(s)
    return tuple(masks), tuple(map(tuple, holders))


def _induced_columns(n: int, mask: int, k: int) -> tuple[list[list[int]], int]:
    """``Graph(n, mask).induced_rows(k)`` by column: for each edge, in
    ``edges()`` order, the numbers of the rows that hold it, and the row
    count.

    The rows are the k-subsets that hold an edge, numbered in combinations
    order, so a subset's row number is the count of such subsets before
    it.
    """
    masks, holders = _subset_holders(n, k)
    row = list(itertools.accumulate(map(bool, map(mask.__and__, masks)), initial=0))
    get = row.__getitem__
    return [list(map(get, holders[p])) for p in range(len(holders)) if mask >> p & 1], row[-1]


def edges_to_mask(n: int, edges) -> int:
    mask = 0
    for u, v in edges:
        bit = 1 << edge_index(n, u, v)
        if mask & bit:
            raise InputError(f"duplicate edge ({u}, {v})")
        mask |= bit
    return mask


def _check_vertex_count(n: int) -> None:
    if not 3 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n} outside 3..{MAX_VERTICES}")


class Graph(_Frozen):
    """Undirected simple graph on n vertices, adjacency as an edge bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        _check_vertex_count(n)
        if not 0 <= mask < (1 << (n * (n - 1) // 2)):
            raise InputError("edge mask out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.mask) == (other.n, other.mask)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        # Checked before any edge is shifted into the mask, whose bits run
        # up to C(n,2).
        _check_vertex_count(n)
        return cls(n, edges_to_mask(n, edges))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls(n, (1 << (n * (n - 1) // 2)) - 1)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, 0)

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_count(self) -> int:
        return bin(self.mask).count("1")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.mask >> edge_index(self.n, u, v) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for i, e in enumerate(all_edges(self.n)) if self.mask >> i & 1)

    def complement(self) -> "Graph":
        return Graph(self.n, self.mask ^ ((1 << self.num_pairs) - 1))

    def degree(self, v: int) -> int:
        return sum(1 for u in range(self.n) if u != v and self.has_edge(u, v))

    def induced_edges(self, vertices) -> tuple[tuple[int, int], ...]:
        vs = sorted(vertices)
        return tuple(
            (u, v) for u, v in itertools.combinations(vs, 2) if self.has_edge(u, v)
        )

    def induced_rows(self, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each k-set S with an edge in G[S], in combinations order, paired
        with the ascending positions in ``edges()`` of the edges of G[S].
        Rows of the weight LP; at k = 3, the triangles and packing members.

        Each k-subset and the K_n indices of its pairs come from the table
        ``_subset_pairs(n, k)``; the rank of each pair among the edges maps
        those indices to positions in ``edges()``.
        """
        rank = [-1] * self.num_pairs
        for i, p in enumerate(p for p in range(self.num_pairs) if self.mask >> p & 1):
            rank[p] = i
        rows = []
        for subset, pairs in _subset_pairs(self.n, k):
            row = tuple([r for r in map(rank.__getitem__, pairs) if r >= 0])
            if row:
                rows.append((subset, row))
        return rows

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(t for t, row in self.induced_rows(3) if len(row) == 3)


class TwoColoring(_Frozen):
    """Red/Blue edge coloring of K_n, stored through its red graph."""

    __slots__ = ("red",)

    def __init__(self, red: Graph):
        object.__setattr__(self, "red", red)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.red,) == (other.red,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.red,))

    @property
    def n(self) -> int:
        return self.red.n

    @property
    def blue(self) -> Graph:
        return self.red.complement()

    def color_of(self, u: int, v: int) -> str:
        return "R" if self.red.has_edge(u, v) else "B"

    @classmethod
    def from_red_edges(cls, n: int, edges) -> "TwoColoring":
        return cls(Graph.from_edges(n, edges))

    @classmethod
    def monochromatic(cls, n: int) -> "TwoColoring":
        return cls(Graph.complete(n))


CanonicalKey = bytes


def _canonical_mask(n: int, mask: int, stop_early: bool = False):
    """Minimum red mask over all relabelings and both color orientations.

    Labels are placed from n-1 down to 0.  Placing label j fixes the bits
    (j, j+1..n-1), the next most significant block, whose value is the
    chosen vertex's adjacency to the labels already placed, label n-1 the
    top bit.  Every partial labeling that ties on the smallest prefix is
    kept, once per distinct future.

    With ``stop_early`` the search stops as soon as some prefix falls below
    mask's own and returns a relabeling that gives it, as (orientation,
    label of each vertex), or None if ``mask`` is minimal.  Only then does
    it keep the labels of the placed vertices.
    """
    orientations = _orientations(n, _red_rows(n, mask))
    # While the placed vertices are pairwise non-adjacent, every order of
    # them gives all-zero blocks, so the top labels go to an independent set
    # kept as one unordered cell: the s-sets take labels n-s..n-1.
    levels = _independent_levels(n, orientations)
    if stop_early:
        for s in range(1, len(levels)):
            if mask >> ((n - s) * (n + s - 1) // 2):
                side, cell, _ = levels[s][0]
                return side, _labeling(n, _spread(n - s, cell))
    level = [(side, cell) for side, cell, _ in levels[-1]]
    return _label_search(n, mask, orientations, n + 1 - len(levels), level, stop_early)


def _red_rows(n: int, mask: int) -> list[int]:
    """Each vertex's red neighbours, as a bitmask."""
    red = [0] * n
    for i, (u, v) in enumerate(all_edges(n)):
        if mask >> i & 1:
            red[u] |= 1 << v
            red[v] |= 1 << u
    return red


def _orientations(n: int, red: list[int]) -> tuple[list[int], list[int]]:
    """The red rows and the blue rows of the complement, in that order."""
    everyone = (1 << n) - 1
    return red, [everyone ^ (1 << v) ^ row for v, row in enumerate(red)]


def _independent_levels(n: int, orientations) -> list[list[tuple[int, int, int]]]:
    """The independent sets of every size s = 0, 1, ..., in both orientations.

    Level s holds (orientation, set, set | its neighbours) for each s-set,
    in lexicographic (orientation, vertices) order.  A set only grows by
    vertices above its largest, so each is reached once; the last level
    holds the largest.
    """
    everyone = (1 << n) - 1
    levels = [[(0, 0, 0), (1, 0, 0)]]
    while True:
        grown = []
        for side, cell, closed in levels[-1]:
            rows = orientations[side]
            top = cell.bit_length()
            free = everyone >> top << top & ~closed
            while free:
                bit = free & -free
                free ^= bit
                grown.append((side, cell | bit, closed | bit | rows[bit.bit_length() - 1]))
        if not grown:
            return levels
        levels.append(grown)


def _label_search(n: int, mask: int, orientations, j: int, level, stop_early: bool):
    """The labels j-1 down to 0 of ``_canonical_mask``, once the sets of
    ``level``, (orientation, set) pairs, have taken labels j..n-1."""
    # A state is (orientation, codes, cells).  codes[v] is -1 once v is
    # placed, else the bits of the singly placed labels adjacent to v.  A
    # cell (lowest label, members) is a run of labels whose order among its
    # members is still free: a vertex's neighbours in it take its lowest
    # labels, and placing that vertex splits the cell at that point.  With
    # ``stop_early``, ``placed`` maps each state to the (label, vertex bit)
    # of its singly placed vertices, from the first labeling that reached it.
    states = {
        (side, tuple(-(cell >> v & 1) for v in range(n)), ((j, cell),))
        for side, cell in level
    }
    placed = dict.fromkeys(states, ()) if stop_early else None
    prefix = 0
    for j in range(j - 1, -1, -1):
        best = -1
        for state in states:
            side, codes, cells = state
            rows = orientations[side]
            for v in range(n):
                code = codes[v]
                if code < 0:
                    continue
                for lo, members in cells:
                    code |= ((1 << (members & rows[v]).bit_count()) - 1) << lo
                if code < best or best < 0:
                    best, ties = code, [(state, v)]
                elif code == best:
                    ties.append((state, v))
        offset = j * (2 * n - j - 1) // 2
        prefix |= best >> (j + 1) << offset
        if stop_early and prefix >> offset < mask >> offset:
            state, v = ties[0]
            side, _, cells = state
            near = orientations[side][v]
            labels = [*placed[state], (j, 1 << v)]
            for lo, members in cells:
                labels += _spread(lo, members & near)
                labels += _spread(lo + (members & near).bit_count(), members & ~near)
            return side, _labeling(n, labels)
        states = set()
        if stop_early:
            earlier, placed = placed, {}
        for state, v in ties:
            side, codes, cells = state
            rows = orientations[side]
            codes = list(codes)
            codes[v] = -1
            singles = [(j, 1 << v)]
            split = []
            for lo, members in cells:
                near = members & rows[v]
                for low, part in ((lo, near), (lo + near.bit_count(), members ^ near)):
                    if part & (part - 1):
                        split.append((low, part))
                    elif part:
                        singles.append((low, part))
            for u in range(n):
                if codes[u] >= 0:
                    for label, bit in singles:
                        if rows[u] & bit:
                            codes[u] |= 1 << label
            child = (side, tuple(codes), tuple(split))
            states.add(child)
            if stop_early and child not in placed:
                placed[child] = earlier[state] + tuple(singles)
    return None if stop_early else prefix


def _spread(lo: int, members: int) -> list[tuple[int, int]]:
    """(label, vertex bit) for ``members`` on labels lo, lo+1, ..., in vertex order."""
    out = []
    while members:
        bit = members & -members
        members ^= bit
        out.append((lo + len(out), bit))
    return out


def _labeling(n: int, labels) -> tuple[int, ...]:
    """The label of each vertex: those of the (label, vertex bit) pairs
    ``labels``, and the lowest labels, in vertex order, for the rest."""
    label = [-1] * n
    for at, bit in labels:
        label[bit.bit_length() - 1] = at
    low = itertools.count()
    return tuple(at if at >= 0 else next(low) for at in label)


def canonical_key(coloring: TwoColoring) -> CanonicalKey:
    """Byte key invariant under vertex relabeling and the Red/Blue swap."""
    n = coloring.n
    if n > _CANONICAL_CAP:
        raise CapabilityError(
            f"canonical_key stores the mask in 5 bytes, capped at n={_CANONICAL_CAP}"
        )
    best = _canonical_mask(n, coloring.red.mask)
    return bytes([n]) + best.to_bytes(5, "big")


def _first_child(n: int, base: int) -> int:
    """Largest b_w << w over the blocks b_w of labels 1..n-2 in ``base``."""
    return max(
        (base >> (w * (2 * n - w - 1) // 2) & ((1 << (n - 1 - w)) - 1)) << w
        for w in range(1, n - 1)
    )


@lru_cache(maxsize=None)
def _class_masks(n: int) -> tuple[int, ...]:
    """Minimal red masks of the coloring classes of K_n, ascending.

    Orderly generation: dropping label 0 from a mask M leaves the mask of
    the other labels, in (n-1)-vertex indexing, as M >> (n-1), and a
    relabeling that lowered it would lower M.  So every minimal mask on n
    vertices is a minimal one on n-1 vertices shifted up, ``base``, plus
    the n-1 bits x of label 0.  Only x >= ``_first_child(n, base)`` is
    searched: swapping labels 0 and w keeps every block above w and makes
    w's block, b_w in ``base``, into x >> w, so x < b_w << w is not minimal.
    Nor is x with the bit of b but not of a, for twin labels a < b of the
    parent (rows that agree apart from each other): swapping them keeps
    ``base`` and moves that bit of x down to a.

    Each rejected child's search returns a relabeling that lowers it, and
    every later sibling is tested against those relabelings first: siblings
    differ only in x, so the image of base | x is a fixed part OR'd with a
    table lookup on x.  An image below base | x proves that it is not
    minimal; every mask kept still passes the full search, so the masks and
    their order are those of the search alone.

    That search (``_child_relabeling``) takes its first phase, the
    independent sets, from the parent's.  The child's s-sets in one
    orientation are {0} | S for each parent (s-1)-set S that avoids label
    0's neighbours, and the parent's s-sets.  The parent's largest sets
    have some size alpha, and one of them on the top labels would make the
    top alpha - 1 blocks zero; the parent is minimal, so its own are zero,
    and they are the child's top alpha - 1 blocks.  So no level up to alpha
    stops the child's search, and only {0} | S, S an alpha-set, can be
    larger.
    """
    if n == 2:
        return (0,)
    masks = []
    for top in _class_masks(n - 1):
        base = top << (n - 1)
        parent = _parent_sets(n, top)
        twins = _twin_pairs(n - 1, parent[0])
        lowering = []  # (fixed image, image of each x, x's flip)
        for x in range(_first_child(n, base), 1 << (n - 1)):
            if twins and any(x & pair == bit for pair, bit in twins):
                continue
            mask = base | x
            for fixed, image, flip in lowering:
                if fixed | image[x ^ flip] < mask:
                    break
            else:
                relabeling = _child_relabeling(n, mask, *parent)
                if relabeling is None:
                    masks.append(mask)
                else:
                    lowering.append(_sibling_images(n, base, *relabeling))
    return tuple(masks)


def _twin_pairs(n: int, red: list[int]) -> list[tuple[int, int]]:
    """Each pair of labels a < b whose ``red`` rows agree apart from each
    other, as (bits of a and b, bit of b)."""
    return [
        (1 << a | 1 << b, 1 << b)
        for a, b in itertools.combinations(range(n), 2)
        if not (red[a] ^ red[b]) & ~(1 << a | 1 << b)
    ]


def _parent_sets(n: int, top: int):
    """What every child of the minimal (n-1)-vertex mask ``top`` shares: its
    red rows, its largest independent-set size alpha over both orientations,
    and its sets of sizes alpha - 1 and alpha, as child vertices 1..n-1,
    one list per orientation."""
    red = _red_rows(n - 1, top)
    levels = _independent_levels(n - 1, _orientations(n - 1, red))

    def by_side(level):
        return tuple([cell << 1 for side, cell, _ in level if side == s] for s in (0, 1))

    return red, len(levels) - 1, by_side(levels[-2]), by_side(levels[-1])


def _child_relabeling(n: int, mask: int, red: list[int], alpha: int, below, last):
    """``_canonical_mask(n, mask, stop_early=True)`` for a child ``mask`` of
    the parent that ``_parent_sets`` describes (see ``_class_masks``).  Each
    level lists {0} | S before the parent's sets, the order of
    ``_independent_levels``."""
    x = mask & ((1 << (n - 1)) - 1)
    child = [x << 1, *(row << 1 | x >> u & 1 for u, row in enumerate(red))]
    orientations = _orientations(n, child)
    near = orientations[0][0], orientations[1][0]  # label 0's neighbours
    j = n - 1 - alpha
    level = [
        (side, cell | 1) for side in (0, 1) for cell in last[side] if not cell & near[side]
    ]
    if not level:
        j += 1
        level = [
            (side, cell)
            for side in (0, 1)
            for cell in [*(c | 1 for c in below[side] if not c & near[side]), *last[side]]
        ]
    elif mask >> (j * (2 * n - j - 1) // 2):
        side, cell = level[0]
        return side, _labeling(n, _spread(j, cell))
    return _label_search(n, mask, orientations, j, level, True)


def _sibling_images(n: int, base: int, side: int, label) -> tuple[int, list[int], int]:
    """The image of every child base | x under one relabeling, in parts.

    The edges off label 0 come from ``base`` and give a fixed part; the
    edges at label 0 come from x, flipped in the complement orientation,
    and give image[x ^ flip].
    """
    fixed = 0
    for i, (u, v) in enumerate(all_edges(n)[n - 1:], n - 1):
        if base >> i & 1 != side:
            fixed |= 1 << edge_index(n, label[u], label[v])
    image = [0]
    for v in range(1, n):
        bit = 1 << edge_index(n, label[0], label[v])
        image += [part | bit for part in image]
    return fixed, image, side * ((1 << (n - 1)) - 1)


def _without_label(n: int, mask: int, v: int) -> int:
    """The (n-1)-vertex mask left when label v is deleted from ``mask``.

    Each label j < v loses bit v-j-1 of its block; the blocks of the labels
    above v, which become j-1, move down by n-1 bits as one piece.
    """
    offset = v * (2 * n - v - 1) // 2
    out = mask >> (offset + n - 1 - v) << (offset - v)
    for j in range(v):
        start = j * (2 * n - j - 1) // 2
        block = mask >> start & ((1 << (n - 1 - j)) - 1)
        low = (1 << (v - j - 1)) - 1
        out |= (block & low | block >> 1 & ~low) << (start - j)
    return out


@lru_cache(maxsize=None)
def _deleted_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """For each class of ``_class_masks(n)``, the minimal masks of its n
    vertex-deleted colorings, label 0 first.

    Deleting label 0 leaves the parent, ``mask >> (n-1)``, already minimal;
    so is any deletion that is itself a class mask.  The rest are looked up,
    each distinct mask once.
    """
    canonical = {m: m for m in _class_masks(n - 1)}

    def lookup(m: int) -> int:
        if m not in canonical:
            canonical[m] = _canonical_mask(n - 1, m)
        return canonical[m]

    return tuple(
        tuple(lookup(_without_label(n, mask, v)) for v in range(n))
        for mask in _class_masks(n)
    )


def enumerate_colorings(n: int) -> list[TwoColoring]:
    """One representative per coloring class of K_n under relabeling + swap.

    Representatives are the minimum red bitmask of each class, in ascending
    order, so the output order is itself canonical.  The class count is the
    length of the returned list.
    """
    _check_enumerable(n)
    return [TwoColoring(Graph(n, mask)) for mask in _class_masks(n)]


def _check_enumerable(n: int) -> None:
    if not 3 <= n <= _ENUMERATION_CAP:
        raise CapabilityError(
            f"exhaustive coloring enumeration supports 3 <= n <= {_ENUMERATION_CAP}"
        )


def turan_number(k: int, i: int) -> int:
    """Edge count t(k, i) of the balanced complete i-partite graph on k vertices.

    With r parts of size q + 1 and i - r of size q (k = q*i + r), the pairs
    inside parts are missing: t(k, i) = (k^2 - sum of squared part sizes) / 2.
    """
    if not 2 <= i <= k:
        raise InputError(f"turan_number requires 2 <= i <= k, got i={i}, k={k}")
    q, r = divmod(k, i)
    return (k * k - r * (q + 1) ** 2 - (i - r) * q * q) // 2


def turan_graph(n: int, i: int) -> Graph:
    """Complete i-partite graph on n vertices with near-equal parts."""
    _check_vertex_count(n)
    if not 1 <= i <= n:
        raise InputError(f"turan_graph requires 1 <= i <= n, got i={i}, n={n}")
    part_of = blowup_part_of(i, n)
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if part_of[u] != part_of[v]
    ]
    return Graph.from_edges(n, edges)


def balanced_blowup(base: TwoColoring, n: int) -> TwoColoring:
    """Blow each vertex of ``base`` up into a near-equal part on n vertices.

    Cross edges inherit the base color of their parts; edges inside a part
    are colored Red (a fixed choice: any color works, and such edges carry
    weight zero in every construction that consumes blow-ups).
    """
    _check_vertex_count(n)
    m = base.n
    if n < m:
        raise InputError(f"blow-up target n={n} smaller than base size {m}")
    part_of = blowup_part_of(m, n)
    red_edges = []
    for u, v in itertools.combinations(range(n), 2):
        pu, pv = part_of[u], part_of[v]
        if pu == pv or base.red.has_edge(pu, pv):
            red_edges.append((u, v))
    return TwoColoring(Graph.from_edges(n, red_edges))


def blowup_part_sizes(base_n: int, n: int) -> list[int]:
    """Near-equal part sizes of :func:`balanced_blowup`, larger parts first."""
    q, r = divmod(n, base_n)
    return [q + 1] * r + [q] * (base_n - r)


def blowup_part_of(base_n: int, n: int) -> list[int]:
    """Base vertex of each of the n vertices in :func:`balanced_blowup`."""
    return [p for p, size in enumerate(blowup_part_sizes(base_n, n)) for _ in range(size)]


def mono_triangle_free_k5() -> TwoColoring:
    """The K_5 coloring whose red graph is the 5-cycle; no mono triangle."""
    return TwoColoring.from_red_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


# ---------------------------------------------------------------------------
# Text formats.
#
# Graph:    "n <count>" then one "u v" line per edge, 0-based.
# Coloring: "n <count>" then one "u v R" or "u v B" line per K_n edge; every
#           edge must appear exactly once.


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _parse_header(line: str, what: str) -> int:
    """The vertex count of an ``n <count>`` header line of a ``what`` record."""
    head = line.split()
    if len(head) != 2 or head[0] != "n":
        raise InputError(f"bad {what} header: {line!r}")
    try:
        return int(head[1])
    except ValueError as exc:
        raise InputError(f"bad vertex count: {head[1]!r}") from exc


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty graph text")
    n = _parse_header(lines[0], "graph")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_coloring(c: TwoColoring) -> str:
    lines = [f"n {c.n}"]
    lines.extend(f"{u} {v} {c.color_of(u, v)}" for u, v in all_edges(c.n))
    return "\n".join(lines) + "\n"


def _parse_coloring_lines(n: int, lines: list[str]) -> TwoColoring:
    expected = n * (n - 1) // 2
    if len(lines) != expected:
        raise InputError(
            f"coloring for n={n} needs {expected} edge lines, got {len(lines)}"
        )
    seen = set()
    red = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("R", "B"):
            raise InputError(f"bad coloring line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"bad coloring line: {ln!r}") from exc
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"edge ({u}, {v}) colored twice")
        seen.add(key)
        if parts[2] == "R":
            red.append(key)
    if seen != set(all_edges(n)):
        raise InputError("coloring does not cover every edge of K_n")
    return TwoColoring.from_red_edges(n, red)


def parse_coloring(text: str) -> TwoColoring:
    colorings = parse_colorings(text)
    if len(colorings) != 1:
        raise InputError(f"expected one coloring record, found {len(colorings)}")
    return colorings[0]


def parse_colorings(text: str) -> list[TwoColoring]:
    """Parse one or more concatenated coloring records."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty coloring text")
    records: list[TwoColoring] = []
    pos = 0
    while pos < len(lines):
        n = _parse_header(lines[pos], "coloring")
        _check_vertex_count(n)
        end = pos + 1 + n * (n - 1) // 2
        records.append(_parse_coloring_lines(n, lines[pos + 1:end]))
        pos = end
    return records
