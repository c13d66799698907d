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
program over the edges of its color, in ``Graph.edges()`` order, with the
rows of ``Graph.induced_rows``, solved and certified by
``exactnum.solve_unit_program``.

The witness is the one the joint program over all edges would give.  A
simplex pivot in one block multiplies the other block's rows and objective
entries by a positive factor, so their signs, and with them Bland's choices
there, do not change; each block keeps the relative order of its variables,
slacks and rows, so Bland's rule on the joint program is Bland's rule on
each block.  The final bases, the primal and the dual are the same.

One driver, ``_first_extremum``, finds every extremum over coloring classes:
the maximum of r here, the minimum of a packing statistic in ``packing``.
It maps a function of the red mask over the masks in class order, serially
or in a pool, and keeps the first best one: ties go to the earliest class.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from multiprocessing import Pool

from .errors import CapabilityError, CertificateError, ContractViolationError, InputError
from .exactnum import Relation, Sense, solve_unit_program
from .graphs import Graph, TwoColoring, all_edges, enumerate_colorings


@dataclass(frozen=True)
class WeightAssignment:
    """Nonnegative rational weight on every edge of K_n."""

    n: int
    weights: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        full = dict.fromkeys(all_edges(self.n), Fraction(0))
        for (u, v), w in self.weights.items():
            key = (min(u, v), max(u, v))
            if key not in full:
                raise InputError(f"weight on non-edge ({u}, {v})")
            if w < 0:
                raise InputError(f"negative weight on ({u}, {v})")
            full[key] = Fraction(w)
        object.__setattr__(self, "weights", full)

    def __getitem__(self, edge: tuple[int, int]) -> Fraction:
        u, v = edge
        return self.weights[(min(u, v), max(u, v))]

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def scaled(self, factor: Fraction) -> "WeightAssignment":
        if factor < 0:
            raise InputError("scale factor must be nonnegative")
        return WeightAssignment(
            self.n, {e: w * factor for e, w in self.weights.items()}
        )


@dataclass(frozen=True)
class WramResult:
    n: int
    k: int
    value: Fraction
    r_value: Fraction
    witness_coloring: TwoColoring
    witness_weights: WeightAssignment
    partial: bool = False
    num_colorings: int = 0

    def __post_init__(self):
        pairs = Fraction(self.n * (self.n - 1), 2)
        if self.value * self.r_value != pairs:
            raise CertificateError("wram value times r value must equal C(n,2)")


# Largest n the weight LP accepts.  Measured on a 2-core machine over a
# pentagon blow-up, a random and a bipartite coloring at every k, the
# slowest is the bipartite one: 0.2 s at n=10 (k=7), 3.2 s at n=11 (k=6).
# Exhaustive wram needs n <= 8.
_WEIGHT_LP_CAP = 10


def r_of_coloring(c: TwoColoring, k: int) -> tuple[Fraction, WeightAssignment]:
    """Optimum of max sum(w) subject to unit caps on monochromatic k-sets."""
    n = c.n
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    if n > _WEIGHT_LP_CAP:
        raise CapabilityError(f"weight LP capped at n={_WEIGHT_LP_CAP}")
    value = Fraction(0)
    weights = {}
    for g in (c.red, c.blue):
        if g.mask:
            optimum, primal = solve_unit_program(
                g.edge_count, [row for _, row in g.induced_rows(k)],
                Sense.MAX, Relation.LE, "weight LP",
            )
            value += optimum
            weights.update(zip(g.edges(), primal))
    return value, WeightAssignment(n, weights)


def _r_of_mask(n: int, k: int, red_mask: int) -> tuple[Fraction, WeightAssignment]:
    return r_of_coloring(TwoColoring(Graph(n, red_mask)), k)


# Masks handed to a pool worker at a time.
_CHUNK = 8


def _first_extremum(masks: list[int], fn, maximize: bool, jobs: int | None = None):
    """The first (mask, fn(mask)) whose fn(mask)[0] is largest, or smallest.

    At most one worker per chunk is started; one worker means a serial run.
    """
    workers = min(jobs or 1, ceil(len(masks) / _CHUNK))
    sign = 1 if maximize else -1
    best = None
    with Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        results = map(fn, masks) if pool is None else pool.imap(fn, masks, chunksize=_CHUNK)
        for mask, result in zip(masks, results):
            if best is None or sign * result[0] > sign * best[1][0]:
                best = (mask, result)
    if best is None:
        raise ContractViolationError("no coloring class to search")
    return best


def wram(n: int, k: int, jobs: int | None = None) -> WramResult:
    """Exhaustive wram(n, k): max of r over one coloring per class.

    Enumeration order is canonical (ascending minimal red mask), so the
    reported witness is deterministic: ties go to the smallest canonical key.
    """
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    if n > 8:
        raise CapabilityError("exhaustive search is capped at n=8; use wram_for_colorings")
    return replace(wram_for_colorings(enumerate_colorings(n), k, jobs), partial=False)


def wram_for_colorings(colorings: list[TwoColoring], k: int,
                       jobs: int | None = None) -> WramResult:
    """Same maximization over a supplied candidate list; flagged partial.

    The result bounds wram(n, k) from above only when the list covers every
    coloring class; otherwise it is a lower bound on r(n, k).
    """
    if not colorings:
        raise InputError("need at least one coloring")
    n = colorings[0].n
    if any(c.n != n for c in colorings):
        raise InputError("all colorings must share the same vertex count")
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    mask, (r_value, weights) = _first_extremum(
        [c.red.mask for c in colorings], functools.partial(_r_of_mask, n, k),
        maximize=True, jobs=jobs,
    )
    return WramResult(
        n=n, k=k, value=Fraction(n * (n - 1), 2) / r_value, r_value=r_value,
        witness_coloring=TwoColoring(Graph(n, mask)), witness_weights=weights,
        partial=True, num_colorings=len(colorings),
    )


def check_monotonicity(k: int, n_max: int, jobs: int | None = None) -> bool:
    """wram(l, k) <= wram(l+1, k) along k <= l <= n_max, capped by C(k,2)."""
    if not 3 <= k <= n_max <= 8:
        raise InputError(f"need 3 <= k <= n_max <= 8, got k={k}, n_max={n_max}")
    values = [wram(ell, k, jobs=jobs).value for ell in range(k, n_max + 1)]
    chain_ok = all(a <= b for a, b in zip(values, values[1:]))
    return chain_ok and values[-1] <= Fraction(k * (k - 1), 2)
