"""Weighted Ramsey numbers via exact linear programming.

For a Red/Blue coloring c of K_n and a clique size k, every k-vertex subset
spans at most two monochromatic subgraphs worth constraining: the red edges
inside it and the blue edges inside it.  r(c; n, k) is the maximum total
edge weight subject to each such monochromatic edge set summing to at most
one; r(n, k) maximizes over colorings, and the weighted Ramsey number is
wram(n, k) = C(n,2) / r(n, k).

Only the maximal monochromatic subgraph per (k-set, color) is constrained:
weights are nonnegative, so every smaller monochromatic subgraph on the
same k-set is dominated by it.  No row mixes the colors, so the program is
block-diagonal and r(c; n, k) = phi_k(R) + phi_k(B), where phi_k(G) is the
largest total edge weight on G with every G[S], |S| = k, held to at most
one (for k = 3, the LP dual of ``packing.r_induced``).  Each block is a unit
program over the edges of its color, in ``Graph.edges()`` order, with one
row per k-set that holds an edge of the color, in combinations order: the
rows of ``Graph.induced_rows``.  It is posed by column from the color's
mask (``graphs._induced_columns``, over one table per (n, k)) and solved
and certified in integers by ``exactnum``.

The witness is the one the joint program over all edges would give.  A
simplex pivot in one block multiplies the other block's rows and objective
entries by a positive factor, so their signs, and with them Bland's choices
there, do not change; each block keeps the relative order of its variables,
slacks and rows, so Bland's rule on the joint program is Bland's rule on
each block.  The final bases, the primal and the dual are the same.

The searches read values only.  ``_r_blocks`` returns r(c) and each
block's certified numerators; ``wram`` and ``wram_for_colorings`` keep the
best class's, and the rational ``WeightAssignment`` is built once, for the
reported coloring.  The vertex-deletion bounds read r alone.

One search loop, ``_first_extremum``, finds every extremum over a list of
coloring classes: the maximum of r here, the minimum of a packing statistic
in ``packing``.  It keeps the first item with the best value, and takes an
optional upper bound per item: then it visits the items by descending bound
and stops at the first bound below the best value.  Ties go to the earlier
list index either way, so a bound changes which items are solved, never the
result.

``wram`` bounds r with vertex deletion: for k < n,

    r(c; n, k) <= sum over v of r(c - v; n - 1, k) / (n - 2).

Proof: restrict an optimal weighting of c to K_n - v.  Every k-set of
K_n - v is a k-set of K_n with the same monochromatic edges, so the
restriction is feasible for c - v and its total is at most r(c - v).  Each
edge uv lies in K_n - x for the n - 2 vertices x other than u and v, so
the n restricted totals sum to (n - 2) r(c).  ``wram`` solves every class
of K_{n-1} once and reads each c - v from ``graphs._deleted_classes``.  A
class left unsolved has r <= bound < best; a class with r = best has
bound >= best and was solved, so the value and the witness (the smallest
mask with r = best) are those of the unbounded search.  The bound applies
only for k < n - 1: at n = k no k-set fits in K_{n-1}, and at n = k + 1
solving the classes of K_{n-1} costs more than the few classes of K_n it
skips (at (7,6), 78 solved to skip 7 of 522), so there the search runs
unbounded over every class.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import lcm

from ._record import _Frozen
from .errors import CapabilityError, CertificateError, ContractViolationError, InputError
from .exactnum import Relation, _Program, _Solution, _solve_certified
from .graphs import (
    TwoColoring,
    _check_enumerable,
    _deleted_classes,
    _induced_columns,
    all_edges,
    enumerate_colorings,
)


class WeightAssignment(_Frozen):
    """Nonnegative rational weight on every edge of K_n."""

    __slots__ = ("n", "weights")

    def __init__(self, n: int, weights: dict[tuple[int, int], Fraction]):
        # A weight that is already a Fraction is kept as given.
        full = dict.fromkeys(all_edges(n), Fraction(0))
        for (u, v), w in weights.items():
            key = (u, v) if u < v else (v, u)
            if key not in full:
                raise InputError(f"weight on non-edge ({u}, {v})")
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w.numerator < 0:
                raise InputError(f"negative weight on ({u}, {v})")
            full[key] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", full)

    def __getitem__(self, edge: tuple[int, int]) -> Fraction:
        u, v = edge
        return self.weights[(min(u, v), max(u, v))]

    def total(self) -> Fraction:
        """The sum of the weights: numerators over one common denominator."""
        ws = self.weights.values()
        den = lcm(*{w.denominator for w in ws})
        return Fraction(sum(w.numerator * (den // w.denominator) for w in ws), den)

    def scaled(self, factor: Fraction) -> "WeightAssignment":
        if factor < 0:
            raise InputError("scale factor must be nonnegative")
        return WeightAssignment(
            self.n, {e: w * factor for e, w in self.weights.items()}
        )


class WramResult(_Frozen):
    __slots__ = ("n", "k", "value", "r_value", "witness_coloring", "witness_weights",
                 "partial", "num_colorings")

    def __init__(self, n: int, k: int, value: Fraction, r_value: Fraction,
                 witness_coloring: TwoColoring, witness_weights: WeightAssignment,
                 partial: bool = False, num_colorings: int = 0):
        if value * r_value != Fraction(n * (n - 1), 2):
            raise CertificateError("wram value times r value must equal C(n,2)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "r_value", r_value)
        object.__setattr__(self, "witness_coloring", witness_coloring)
        object.__setattr__(self, "witness_weights", witness_weights)
        object.__setattr__(self, "partial", partial)
        object.__setattr__(self, "num_colorings", num_colorings)


# Largest n the weight LP accepts.  Measured on a 2-core machine over a
# pentagon blow-up, a random and a bipartite coloring at every k, the
# slowest is the bipartite one: 0.2 s at n=10 (k=7), 3.2 s at n=11 (k=6).
# Exhaustive wram needs n <= 8.
_WEIGHT_LP_CAP = 10


def _check_weight_lp(n: int, k: int) -> None:
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    if n > _WEIGHT_LP_CAP:
        raise CapabilityError(f"weight LP capped at n={_WEIGHT_LP_CAP}")


def _r_blocks(c: TwoColoring, k: int) -> tuple[Fraction, list[tuple[int, _Solution]]]:
    """r(c; n, k) and each nonempty color block's mask and certified
    solution, red first; no weight is built."""
    n = c.n
    blocks = []
    num, den = 0, 1
    red = c.red.mask
    for mask in (red, red ^ ((1 << (n * (n - 1) // 2)) - 1)):
        if mask:
            crow, m = _induced_columns(n, mask, k)
            solution = _solve_certified(_Program(crow, m, Relation.LE, True), "weight LP")
            blocks.append((mask, solution))
            num, den = num * solution.d + solution.optimum * den, den * solution.d
    return Fraction(num, den), blocks


def _weights(n: int, blocks: list[tuple[int, _Solution]]) -> WeightAssignment:
    """The weight on every edge from the blocks' primal numerators."""
    edges = all_edges(n)
    weights = {}
    for mask, solution in blocks:
        d = solution.d
        block_edges = [e for p, e in enumerate(edges) if mask >> p & 1]
        weights.update((e, Fraction(x, d)) for e, x in zip(block_edges, solution.primal) if x)
    return WeightAssignment(n, weights)


def r_of_coloring(c: TwoColoring, k: int) -> tuple[Fraction, WeightAssignment]:
    """Optimum of max sum(w) subject to unit caps on monochromatic k-sets."""
    _check_weight_lp(c.n, k)
    value, blocks = _r_blocks(c, k)
    return value, _weights(c.n, blocks)


def _first_extremum(items, fn, key, bounds=None):
    """The first (item, fn(item)) with the largest key(fn(item)).

    Without ``bounds`` the items are visited in list order.  With them,
    ``bounds[i] >= key(fn(items[i]))``, the items are visited by descending
    bound, ties in list order, and the search stops at the first bound
    below the best key.  Either way a tie goes to the earlier list index.
    """
    order = range(len(items))
    if bounds is not None:
        order = sorted(order, key=bounds.__getitem__, reverse=True)
    best = None  # (key, -index, result)
    for i in order:
        if best is not None and bounds is not None and bounds[i] < best[0]:
            break
        result = fn(items[i])
        if best is None or (key(result), -i) > best[:2]:
            best = (key(result), -i, result)
    if best is None:
        raise ContractViolationError("no coloring class to search")
    return items[-best[1]], best[2]


def _deletion_bounds(n: int, k: int) -> list[Fraction]:
    """The vertex-deletion bound on r of each class of K_n, k < n - 1."""
    r_below = {c.red.mask: _r_blocks(c, k)[0] for c in enumerate_colorings(n - 1)}
    return [sum(map(r_below.__getitem__, deleted)) / (n - 2)
            for deleted in _deleted_classes(n)]


def _max_r(colorings: list[TwoColoring], k: int, bounds, partial: bool) -> WramResult:
    """The first coloring of the list with the largest r, as a WramResult;
    only its weights are built."""
    n = colorings[0].n
    witness, (r_value, blocks) = _first_extremum(
        colorings, functools.partial(_r_blocks, k=k), operator.itemgetter(0), bounds
    )
    return WramResult(
        n=n, k=k, value=Fraction(n * (n - 1), 2) / r_value, r_value=r_value,
        witness_coloring=witness, witness_weights=_weights(n, blocks),
        partial=partial, num_colorings=len(colorings),
    )


def wram(n: int, k: int) -> WramResult:
    """Exhaustive wram(n, k): max of r over one coloring per class.

    Enumeration order is canonical (ascending minimal red mask), so the
    reported witness is deterministic: ties go to the smallest canonical key.
    The vertex-deletion bound prunes the search without changing either.
    """
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    return _max_r(enumerate_colorings(n), k,
                  _deletion_bounds(n, k) if k < n - 1 else None, partial=False)


def wram_for_colorings(colorings: list[TwoColoring], k: int) -> WramResult:
    """Same maximization over a supplied candidate list; flagged partial.

    Every list gives an upper bound on wram(n, k), as its best r is at most
    r(n, k); the bound is wram(n, k) itself when the list covers every
    coloring class.  Ties go to the earlier list entry.
    """
    if not colorings:
        raise InputError("need at least one coloring")
    n = colorings[0].n
    if any(c.n != n for c in colorings):
        raise InputError("all colorings must share the same vertex count")
    _check_weight_lp(n, k)
    return _max_r(colorings, k, None, partial=True)


def check_monotonicity(k: int, n_max: int) -> bool:
    """wram(l, k) <= wram(l+1, k) along k <= l <= n_max, capped by C(k,2)."""
    if not 3 <= k <= n_max:
        raise InputError(f"need 3 <= k <= n_max, got k={k}, n_max={n_max}")
    _check_enumerable(n_max)
    values = [wram(ell, k).value for ell in range(k, n_max + 1)]
    chain_ok = all(a <= b for a, b in zip(values, values[1:]))
    return chain_ok and values[-1] <= Fraction(k * (k - 1), 2)
