"""Closed-form bounds on the weighted Ramsey limit, with checked certificates.

The lower-bound side combines exact Turán numbers with tabled upper bounds
on diagonal Ramsey numbers into a density coefficient c(k); 1/c(k) bounds
the limit from below.  The bracket is computed in integer pairs
(numerator, denominator) and becomes a ``Fraction`` only when a caller
asks for one.  Each gap term is one pair; ``_bracket`` sums c(k) over one
unreduced integer fraction, reduces it with one gcd, and returns c(k),
L(k) = 1/c(k) and U(k) as reduced pairs, after checking L(k) * c(k) = 1
and U(k) >= L(k) by cross-multiplication.  ``density_coefficient``,
``wram_lower_bound``, ``bounds_report`` and the CLI's ck and lk tables
all read it; only ``bounds_report`` builds the per-i ``Fraction`` rows.

The upper-bound side is constructive: two explicit colored weightings
whose feasibility this module verifies over every k-subset, in integers:
the weights are scaled to numerators over one common denominator, twin
vertices are grouped into classes, and the red and blue loads are built
up pick by pick along a depth-first walk over how many vertices a subset
takes from each class.  Both constructions have
few classes (2 and 5): the blow-up at n = 16, k = 6 has 145 count vectors
for its 8008 6-subsets.

Decimal constants from the large-k closed form are stored as exact
rationals with their printed digits; comparisons against published table
entries use "at most the printed value" semantics because those entries
are rounded outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateError, InputError
from .graphs import (
    TwoColoring,
    all_edges,
    balanced_blowup,
    blowup_part_of,
    mono_triangle_free_k5,
    turan_number,
)
from .weighted_ramsey import WeightAssignment

_RAMSEY_UPPER = {3: 5, 4: 17, 5: 48, 6: 164, 7: 539, 8: 1869}

_Pair = tuple[int, int]


def diagonal_ramsey_upper(i: int) -> int:
    """Tabled upper bound on R(i) - 1 for the diagonal Ramsey number."""
    if i not in _RAMSEY_UPPER:
        raise InputError(f"diagonal Ramsey bound tabled only for 3 <= i <= 8, got {i}")
    return _RAMSEY_UPPER[i]


def _gap_exact(k: int, i: int) -> tuple[int, int]:
    """t(k,2)/t(k,i-1) - t(k,2)/t(k,i) as an unreduced integer pair."""
    lo, hi = turan_number(k, i - 1), turan_number(k, i)
    return turan_number(k, 2) * (hi - lo), lo * hi


def _gap_closed_form(k: int, i: int) -> tuple[int, int]:
    """2*floor(k^2/4)/k^2 * (1/((i-1)(i-2)) - i/((i-1)(4k-5))), unreduced."""
    m = 4 * k - 5
    return 2 * (k * k // 4) * (m - i * (i - 2)), k * k * (i - 1) * (i - 2) * m


def turan_ratio_gap(k: int, i: int) -> Fraction:
    """t(k,2)/t(k,i-1) - t(k,2)/t(k,i), the weight of one summation term."""
    if not 3 <= i <= k:
        raise InputError(f"need 3 <= i <= k, got i={i}, k={k}")
    return Fraction(*_gap_exact(k, i))


def turan_ratio_gap_lower(k: int, i: int) -> Fraction:
    """Closed-form lower bound on the gap, valid for k >= 9."""
    if k < 9:
        raise InputError(f"the closed-form gap bound needs k >= 9, got {k}")
    if not 3 <= i <= 8:
        raise InputError(f"need 3 <= i <= 8, got {i}")
    return Fraction(*_gap_closed_form(k, i))


def _upper_pair(k: int) -> _Pair:
    """U(k) as a reduced integer pair: 24/5 at k=4, else 5*floor(k^2/4)/4."""
    if k < 4:
        raise InputError(f"upper bound defined for k >= 4, got {k}")
    if k == 4:
        return 24, 5
    num = 5 * (k * k // 4)
    g = gcd(num, 4)
    return num // g, 4 // g


def _bracket(k: int) -> tuple[_Pair, _Pair, _Pair, list[tuple[int, int, int, int]]]:
    """c(k), L(k) = 1/c(k) and U(k) as reduced integer pairs, with the
    per-i terms (i, gap numerator, gap denominator, tabled Ramsey bound).

    Exact table gaps drive k <= 8; the closed-form lower bound on the gap
    takes over from k = 9 on.  The sum of gap/R over the terms is kept as
    one unreduced integer fraction p/q, so c(k) = (1 - p/q)/t(k,2) is
    reduced with one gcd.  L(k) * c(k) = 1 and U(k) >= L(k) are checked by
    cross-multiplication; either failing is a CertificateError.
    """
    if k < 4:
        raise InputError(f"density coefficient defined for k >= 4, got {k}")
    gap = _gap_exact if k <= 8 else _gap_closed_form
    terms = []
    p, q = 0, 1
    for i in range(3, min(k, 8) + 1):
        num, den = gap(k, i)
        ramsey = _RAMSEY_UPPER[i]
        terms.append((i, num, den, ramsey))
        p, q = p * den * ramsey + num * q, q * den * ramsey
    c_num, c_den = q - p, q * turan_number(k, 2)
    g = gcd(c_num, c_den)
    c = c_num // g, c_den // g
    lower = c[1], c[0]
    upper = _upper_pair(k)
    if lower[0] * c[0] != lower[1] * c[1]:
        raise CertificateError("lower bound must be the reciprocal of c(k)")
    if upper[0] * lower[1] < lower[0] * upper[1]:
        raise CertificateError("upper bound fell below lower bound")
    return c, lower, upper, terms


def density_coefficient(k: int) -> Fraction:
    """c(k): r(n,k) stays below (1+o(1)) * C(n,2) * c(k)."""
    return Fraction(*_bracket(k)[0])


def wram_lower_bound(k: int) -> Fraction:
    """1/c(k): the computable lower bound on the weighted Ramsey limit."""
    return Fraction(*_bracket(k)[1])


def wram_upper_bound(k: int) -> Fraction:
    """Constructive upper bound: 24/5 at k=4, else 1.25 * floor(k^2/4)."""
    return Fraction(*_upper_pair(k))


def density_coefficient_tail(k: int) -> Fraction:
    """Large-k closed form for c(k) * t(k,2): decreasing, < 0.9515."""
    if k < 9:
        raise InputError(f"tail expression defined for k >= 9, got {k}")
    return (
        Fraction("0.94405")
        + Fraction("0.05596") / (k * k)
        + Fraction("0.20729") / (4 * k - 5)
    )


def tail_drop_threshold(cap: Fraction = Fraction("0.9441")) -> int:
    """Smallest k >= 9 with density_coefficient_tail(k) < cap.

    The tail is strictly decreasing with limit 0.94405, so the threshold
    exists for any cap above that; found by doubling then bisecting.
    """
    cap = Fraction(cap)
    if cap <= Fraction("0.94405"):
        raise InputError(f"cap {cap} is at or below the tail limit")
    lo = 9
    if density_coefficient_tail(lo) < cap:
        return lo
    hi = 16
    while density_coefficient_tail(hi) >= cap:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if density_coefficient_tail(mid) < cap:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class BoundsReport:
    k: int
    c_k: Fraction
    lower_bound: Fraction
    upper_bound: Fraction
    table_rows: tuple[tuple[int, Fraction, int], ...]

    def __post_init__(self):
        if self.lower_bound * self.c_k != 1:
            raise CertificateError("lower bound must be the reciprocal of c(k)")
        if self.upper_bound < self.lower_bound:
            raise CertificateError("upper bound fell below lower bound")


def bounds_report(k: int) -> BoundsReport:
    """Bracket [1/c(k), U(k)] with the per-i terms that produced c(k)."""
    c, lower, upper, terms = _bracket(k)
    return BoundsReport(
        k=k,
        c_k=Fraction(*c),
        lower_bound=Fraction(*lower),
        upper_bound=Fraction(*upper),
        table_rows=tuple((i, Fraction(num, den), r) for i, num, den, r in terms),
    )


def _twin_classes(red: list[list[int]], blue: list[list[int]]) -> list[list[int]]:
    """The twin classes of the tables, each ascending, ordered by least vertex.

    u and v are twins when every third vertex x sees the same (red, blue)
    numerators on ux as on vx: the rows of u and v agree once the entries
    at u and v are swapped.  Twinship is an equivalence, so comparing with
    each class's least vertex suffices.
    """
    classes: list[list[int]] = []
    for v in range(len(red)):
        for members in classes:
            u = members[0]
            ru, bu = red[u][:], blue[u][:]
            ru[u], ru[v], bu[u], bu[v] = ru[v], ru[u], bu[v], bu[u]
            if ru == red[v] and bu == blue[v]:
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def verify_weighting(c: TwoColoring, k: int, w: WeightAssignment) -> None:
    """Check every (k-subset, color) weight sum stays at most 1.

    Exact and exhaustive, in integers: the weights become numerators over
    one common denominator ``den``, in a red and a blue n x n table.  Twin
    vertices (``_twin_classes``) are interchangeable: all edges inside a
    class, or between two classes, carry the same numerators, so a
    k-subset's loads depend only on how many vertices it takes from each
    class.  The walk is over those count vectors, depth first; each pick
    extends the red and blue loads by its weights to the picks before it.
    The last pick is compared against ``den`` through one exact maximum
    per color, and its candidates are scanned one by one only when a
    maximum exceeds it.  Without twins this is the lexicographic walk over
    all k-subsets, at most C(16,8) = 12870 under ``Graph``'s n <= 16 cap.

    Raises CertificateError on the lexicographically first violating
    subset, Red before Blue, naming its subset, color and rational weight.
    A count vector stands for the subset of the lowest-numbered vertices
    of each class, which is lexicographically first among the subsets with
    those counts; the walk keeps the first over all violating vectors.
    """
    n = c.n
    if w.n != n:
        raise InputError("weighting and coloring disagree on n")
    if not 3 <= k <= n:
        raise InputError(f"need 3 <= k <= n, got k={k}, n={n}")
    den = lcm(*(x.denominator for x in w.weights.values()))
    red = [[0] * n for _ in range(n)]
    blue = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(all_edges(n)):
        x = w.weights[(u, v)]
        table = red if c.red.mask >> i & 1 else blue
        table[u][v] = table[v][u] = x.numerator * (den // x.denominator)
    classes = _twin_classes(red, blue)
    p = len(classes)
    # One vertex of each class stands for it; a class's own label sits on
    # its diagonal.
    reps = [m[0] for m in classes]
    red_c = [[red[u][v] for v in reps] for u in reps]
    blue_c = [[blue[u][v] for v in reps] for u in reps]
    for i, m in enumerate(classes):
        if len(m) > 1:
            red_c[i][i], blue_c[i][i] = red[m[0]][m[1]], blue[m[0]][m[1]]
    # Slots list the vertices class by class.  A subset takes a prefix of
    # each class's slots, so after slot s (-1 before the first pick) comes
    # slot s + 1 or the first slot of a later class.  steps[s + 1][need]
    # lists those (class, slot) pairs that leave room for ``need`` picks:
    # slot s + 1, which the pick of s made sure of, and the first slots up
    # to n - need, which are those of the first fits[need] classes.
    slots = [v for m in classes for v in m]
    class_of = [i for i, m in enumerate(classes) for _ in m]
    heads = [(i, class_of.index(i)) for i in range(p)]
    fits = [sum(t <= n - need for _, t in heads) for need in range(k + 1)]
    steps = []
    for s in range(-1, n - 1):
        lo = class_of[s + 1]
        after = [(lo, s + 1)] + heads[lo + 1:]
        steps.append([after[:max(1, f - lo)] for f in fits])
    chosen: list[int] = []
    found = None  # (subset, 0 for Red or 1 for Blue, load)

    def note(color: int, s: int, j: int, load: int) -> None:
        nonlocal found
        t = s + 1 if j == class_of[s + 1] else heads[j][1]
        subset = tuple(sorted(slots[x] for x in chosen + [t]))
        if found is None or (subset, color) < found[:2]:
            found = (subset, color, load)

    def extend(s: int, need: int, r: int, b: int, add_r: list[int], add_b: list[int]) -> None:
        # s is the last slot picked, and ``need`` picks are left; r and b
        # are the loads of the picks ``chosen``; add_r[j] and add_b[j] are
        # the loads that one more vertex of class j would add to them.
        if need == 1:
            # The last vertex: one exact maximum per color clears every
            # completion at once; otherwise the candidates are scanned.
            lo = class_of[s + 1]
            if r + max(add_r[lo:]) > den or b + max(add_b[lo:]) > den:
                for j in range(lo, p):
                    if r + add_r[j] > den:
                        note(0, s, j, r + add_r[j])
                    if b + add_b[j] > den:
                        note(1, s, j, b + add_b[j])
            return
        for u, t in steps[s + 1][need]:
            chosen.append(t)
            extend(t, need - 1, r + add_r[u], b + add_b[u],
                   [x + y for x, y in zip(add_r, red_c[u])],
                   [x + y for x, y in zip(add_b, blue_c[u])])
            chosen.pop()

    extend(-1, k, 0, 0, [0] * p, [0] * p)
    if found is not None:
        subset, color, load = found
        raise CertificateError(
            f"{'RB'[color]} subgraph on {subset} "
            f"exceeds the unit cap with weight {Fraction(load, den)}"
        )


def _certified(
    what: str, coloring: TwoColoring, k: int, weights: WeightAssignment, expected: Fraction
) -> tuple[TwoColoring, WeightAssignment, Fraction]:
    """Check a construction's total against its closed form, then verify it."""
    total = weights.total()
    if total != expected:
        raise CertificateError(f"{what} weighting totals {total}, not {expected}")
    verify_weighting(coloring, k, weights)
    return coloring, weights, total


def bipartite_total_weight(n: int) -> Fraction:
    """Closed-form total of the k=4 certificate: (5/24)C(n,2) + (1/24)floor(n/2)."""
    pairs = Fraction(n * (n - 1), 2)
    return Fraction(5, 24) * pairs + Fraction(n // 2, 24)


def bipartite_implied_bound(n: int) -> Fraction:
    return Fraction(n * (n - 1), 2) / bipartite_total_weight(n)


def construction_k4(n: int) -> tuple[TwoColoring, WeightAssignment, Fraction]:
    """Red complete bipartite coloring with 1/4 red, 1/6 blue weights.

    Feasible for k = 4 by construction; this builds it, re-verifies
    feasibility subset by subset, and returns the exact total weight.
    """
    if n < 4:
        raise InputError(f"the bipartite certificate needs n >= 4, got {n}")
    half = n // 2
    red_edges = [(u, v) for u in range(half) for v in range(half, n)]
    coloring = TwoColoring.from_red_edges(n, red_edges)
    red, blue, mask = Fraction(1, 4), Fraction(1, 6), coloring.red.mask
    weights = WeightAssignment(
        n, {e: red if mask >> i & 1 else blue for i, e in enumerate(all_edges(n))}
    )
    return _certified("bipartite", coloring, 4, weights, bipartite_total_weight(n))


def blowup_total_weight(n: int, k: int) -> Fraction:
    return Fraction(turan_number(n, 5), k * k // 4)


def construction_blowup(
    n: int, k: int, enforce_threshold: bool = True
) -> tuple[TwoColoring, WeightAssignment, Fraction]:
    """Pentagon blow-up with uniform cross weights 1/floor(k^2/4).

    Neither color class of the blow-up carries a triangle on cross edges,
    so every monochromatic k-subgraph holds at most floor(k^2/4) weighted
    edges.  The stated validity regime is n >= 5*ceil(k/2); pass
    ``enforce_threshold=False`` to build and verify the certificate for any
    n >= max(5, k) (feasibility is checked either way).
    """
    if k < 5:
        raise InputError(f"the blow-up certificate needs k >= 5, got {k}")
    threshold = 5 * ((k + 1) // 2)
    if enforce_threshold and n < threshold:
        raise InputError(
            f"n={n} is below the 5*ceil(k/2) = {threshold} threshold for k={k}"
        )
    if n < max(5, k):
        raise InputError(f"need n >= max(5, k) = {max(5, k)}, got {n}")
    coloring = balanced_blowup(mono_triangle_free_k5(), n)
    part_of = blowup_part_of(5, n)
    unit, zero = Fraction(1, k * k // 4), Fraction(0)
    weights = WeightAssignment(
        n, {(u, v): unit if part_of[u] != part_of[v] else zero for u, v in all_edges(n)}
    )
    return _certified("blow-up", coloring, k, weights, blowup_total_weight(n, k))
