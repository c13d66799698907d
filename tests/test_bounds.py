"""Closed-form bound machinery and the two constructive certificates."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_oracle
from wramsey import bounds
from wramsey.errors import CertificateError, InputError
from wramsey.bounds import (
    BoundsReport,
    bipartite_implied_bound,
    tail_drop_threshold,
    bipartite_total_weight,
    blowup_total_weight,
    _twin_classes,
    bounds_report,
    construction_blowup,
    construction_k4,
    density_coefficient,
    density_coefficient_tail,
    diagonal_ramsey_upper,
    turan_ratio_gap,
    turan_ratio_gap_lower,
    verify_weighting,
    wram_lower_bound,
    wram_upper_bound,
)
from wramsey.graphs import Graph, TwoColoring, all_edges, turan_number
from wramsey.weighted_ramsey import WeightAssignment

RAMSEY_UPPER_TABLE = {3: 5, 4: 17, 5: 48, 6: 164, 7: 539, 8: 1869}

# Exact gap values for k = 3..8, i = 3..k (21 entries).
GAP_TABLE = {
    (3, 3): F(1, 3), (4, 3): F(1, 5), (5, 3): F(1, 4), (6, 3): F(1, 4),
    (7, 3): F(1, 4), (8, 3): F(5, 21),
    (4, 4): F(2, 15), (5, 4): F(1, 12), (6, 4): F(3, 52), (7, 4): F(1, 12),
    (8, 4): F(2, 21),
    (5, 5): F(1, 15), (6, 5): F(9, 182), (7, 5): F(2, 57), (8, 5): F(2, 75),
    (6, 6): F(3, 70), (7, 6): F(3, 95), (8, 6): F(8, 325),
    (7, 7): F(1, 35), (8, 7): F(8, 351),
    (8, 8): F(4, 189),
}

# Published rounded bracket for the weighted Ramsey limit, k = 4..8.
PUBLISHED_L = {4: F("4.1999"), 5: F("6.3572"), 6: F("9.5197"),
               7: F("12.7091"), 8: F("16.9115")}
PUBLISHED_U = {4: F(24, 5), 5: F(15, 2), 6: F(45, 4), 7: F(15), 8: F(20)}

# Published upper roundings of c(k) * t(k,2), k = 4..8.
PUBLISHED_C_SCALED = {4: F("0.9524"), 5: F("0.9438"), 6: F("0.9454"),
                      7: F("0.9442"), 8: F("0.9461")}


def test_ramsey_upper_table():
    for i, val in RAMSEY_UPPER_TABLE.items():
        assert diagonal_ramsey_upper(i) == val
    with pytest.raises(InputError):
        diagonal_ramsey_upper(2)
    with pytest.raises(InputError):
        diagonal_ramsey_upper(9)


def test_gap_table_reproduced_exactly():
    assert len(GAP_TABLE) == 21
    for (k, i), val in GAP_TABLE.items():
        assert turan_ratio_gap(k, i) == val


def test_gap_range_check():
    with pytest.raises(InputError):
        turan_ratio_gap(5, 2)
    with pytest.raises(InputError):
        turan_ratio_gap(5, 6)


def test_gap_lower_bound_direct_substitution():
    # (2/81) * 20 * (1/2 - (3/2)/31), assembled independently.
    expected = F(2, 81) * 20 * (F(1, 2) - F(3, 2) / 31)
    assert expected == F(560, 2511)
    assert turan_ratio_gap_lower(9, 3) == expected
    with pytest.raises(InputError):
        turan_ratio_gap_lower(8, 3)
    with pytest.raises(InputError):
        turan_ratio_gap_lower(9, 9)


def test_gap_lower_bound_below_exact_gap():
    for k in range(9, 21):
        for i in range(3, 9):
            assert turan_ratio_gap_lower(k, i) <= turan_ratio_gap(k, i)


def test_gap_lower_bound_dominant_term():
    k = 10**6
    for i in range(3, 9):
        target = F(1, (i - 1) * (i - 2))
        assert abs(2 * turan_ratio_gap_lower(k, i) - target) < F(1, 10_000)


def _coefficient_from_tables(k: int) -> F:
    acc = F(1)
    for i in range(3, min(k, 8) + 1):
        acc -= GAP_TABLE[(k, i)] / RAMSEY_UPPER_TABLE[i]
    return acc / turan_number(k, 2)


def test_density_coefficient_exact_values():
    assert density_coefficient(4) == F(607, 2550)
    for k in range(4, 9):
        assert density_coefficient(k) == _coefficient_from_tables(k)
    with pytest.raises(InputError):
        density_coefficient(3)


def test_density_coefficient_against_published_roundings():
    for k in range(4, 9):
        scaled = density_coefficient(k) * turan_number(k, 2)
        assert scaled <= PUBLISHED_C_SCALED[k]


def test_lower_bound_dominates_published_table():
    for k in range(4, 9):
        lb = wram_lower_bound(k)
        assert lb >= PUBLISHED_L[k]
        assert lb <= wram_upper_bound(k)
        assert lb >= F(k * (k - 1), 4)


def test_gaps_match_the_fraction_oracle():
    for k in range(3, 201):
        for i in range(3, k + 1):
            assert turan_ratio_gap(k, i) == bounds_oracle.gap(k, i)
    for k in range(9, 201):
        for i in range(3, 9):
            assert turan_ratio_gap_lower(k, i) == bounds_oracle.gap_lower(k, i)


def test_density_matches_the_fraction_oracle():
    for k in range(4, 1001):
        c_k, rows = bounds_oracle.density(k)
        assert density_coefficient(k) == c_k
        assert bounds_report(k).table_rows == rows


def test_bracket_pairs_are_reduced_and_match_the_fraction_oracle():
    for k in range(4, 301):
        c, lower, upper, _ = bounds._bracket(k)
        for num, den in (c, lower, upper):
            assert den > 0 and gcd(num, den) == 1
        assert F(*c) == bounds_oracle.density(k)[0]
        assert F(*lower) == 1 / F(*c) == wram_lower_bound(k)
        assert F(*upper) == bounds_oracle.upper(k) == wram_upper_bound(k)


def test_inverted_bracket_is_a_certificate_error(monkeypatch):
    monkeypatch.setattr(bounds, "_upper_pair", lambda k: (1, 1))
    for call in (bounds_report, density_coefficient, wram_lower_bound):
        with pytest.raises(CertificateError, match="upper bound fell below lower bound"):
            call(9)


def test_upper_bound_values():
    for k, val in PUBLISHED_U.items():
        assert wram_upper_bound(k) == val
    with pytest.raises(InputError):
        wram_upper_bound(3)


def test_bounds_report_consistency():
    for k in (4, 6, 8, 9, 12):
        rep = bounds_report(k)
        assert rep.lower_bound * rep.c_k == 1
        assert rep.upper_bound >= rep.lower_bound
        assert len(rep.table_rows) == min(k, 8) - 2


def test_inconsistent_bounds_report_is_a_certificate_error():
    rep = bounds_report(4)
    with pytest.raises(CertificateError, match="reciprocal"):
        BoundsReport(4, rep.c_k, rep.lower_bound + 1, rep.upper_bound, rep.table_rows)
    with pytest.raises(CertificateError, match="fell below"):
        BoundsReport(4, rep.c_k, rep.lower_bound, rep.lower_bound - 1, rep.table_rows)


def test_tail_expression_values():
    tail9 = density_coefficient_tail(9)
    assert tail9 == F("0.94405") + F("0.05596") / 81 + F("0.20729") / 31
    assert tail9 <= F("0.95143")
    prev = tail9
    for k in range(10, 1001):
        cur = density_coefficient_tail(k)
        assert cur < prev
        prev = cur
    assert density_coefficient_tail(10**6) < F("0.9441")
    with pytest.raises(InputError):
        density_coefficient_tail(8)


def test_limit_ratio_constants():
    # 1/c(k) measured against floor(k^2/4), the scale of the limit.
    for k in range(9, 41):
        assert wram_lower_bound(k) / (k * k // 4) > F("1.051")
    for k in (1000, 5000, 10**6):
        assert 1 / density_coefficient_tail(k) > F("1.059")


def test_large_k_coefficient_stays_under_printed_cap():
    for k in range(9, 41):
        assert density_coefficient(k) * turan_number(k, 2) <= F("0.95143")


def test_tail_drop_threshold():
    k = tail_drop_threshold()
    assert density_coefficient_tail(k) < F("0.9441") <= density_coefficient_tail(k - 1)
    with pytest.raises(InputError):
        tail_drop_threshold(F("0.944"))


def test_bipartite_construction_instances():
    _, _, total = construction_k4(8)
    assert total == bipartite_total_weight(8) == 6
    assert bipartite_implied_bound(8) == F(14, 3)

    _, _, total = construction_k4(4)
    assert total == bipartite_total_weight(4) == F(4, 3)
    assert bipartite_implied_bound(4) == F(9, 2)

    with pytest.raises(InputError):
        construction_k4(3)


def test_bipartite_bound_approaches_24_fifths():
    for n in range(4, 30):
        assert bipartite_implied_bound(n) <= F(24, 5)
    assert abs(bipartite_implied_bound(10**6) - F(24, 5)) < F(1, 10**5)


def test_bipartite_feasibility_via_constraint_scan():
    coloring, weights, _ = construction_k4(9)
    for subset in itertools.combinations(range(9), 4):
        for graph in (coloring.red, coloring.blue):
            assert sum(weights[e] for e in graph.induced_edges(subset)) <= 1


def test_blowup_construction_instance():
    coloring, weights, total = construction_blowup(15, 5)
    assert total == 15
    assert blowup_total_weight(15, 5) == F(90, 6)
    assert turan_number(15, 5) == 90
    implied = F(15 * 14, 2) / total
    assert implied == 7 <= F(15, 2)

    # Largest monochromatic weighted edge count over every 5-subset is
    # exactly floor(25/4) = 6.
    best = F(0)
    for subset in itertools.combinations(range(15), 5):
        for graph in (coloring.red, coloring.blue):
            load = sum(weights[e] for e in graph.induced_edges(subset))
            best = max(best, load * (5 * 5 // 4))
    assert best == 6


def test_blowup_threshold():
    with pytest.raises(InputError):
        construction_blowup(5, 5)
    with pytest.raises(InputError):
        construction_blowup(14, 5)
    with pytest.raises(InputError):
        construction_blowup(10, 4)


def test_blowup_below_threshold_still_verifies():
    coloring, weights, total = construction_blowup(10, 5, enforce_threshold=False)
    assert total == F(40, 6)
    implied = F(45) / total
    assert implied == F(27, 4) <= F(15, 2)


def test_verify_weighting_flags_violations():
    c = TwoColoring.monochromatic(4)
    heavy = WeightAssignment(4, {e: F(1) for e in itertools.combinations(range(4), 2)})
    with pytest.raises(CertificateError):
        verify_weighting(c, 3, heavy)


_FORCED_TOTAL_MISMATCH = """
import wramsey.bounds as bounds
from wramsey.errors import CertificateError
assert False, "assert statements must be stripped under -O"
bounds.bipartite_total_weight = lambda n: 0
try:
    bounds.construction_k4(6)
except CertificateError as exc:
    print("raised:", exc)
"""


def test_construction_total_check_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_TOTAL_MISMATCH],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: bipartite weighting totals")


def _sum_over_constraints(c: TwoColoring, k: int, w: WeightAssignment) -> None:
    """Oracle: Fraction loads summed over each k-set's red, then blue edges."""
    if w.n != c.n:
        raise InputError("weighting and coloring disagree on n")
    graphs = (("R", c.red), ("B", c.blue))
    for subset in itertools.combinations(range(c.n), k):
        for color, graph in graphs:
            load = sum((w[e] for e in graph.induced_edges(subset)), F(0))
            if load > 1:
                raise CertificateError(
                    f"{color} subgraph on {subset} "
                    f"exceeds the unit cap with weight {load}"
                )


def _outcome(check, c, k, w):
    try:
        check(c, k, w)
    except (CertificateError, InputError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _weighted_colorings(draw):
    n = draw(st.integers(3, 10))
    k = draw(st.integers(3, n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    raw = [
        F(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3, 4, 5, 6])))
        for _ in range(n * (n - 1) // 2)
    ]
    # A k-subset holds C(k,2) edges split between two colors; dividing by
    # a quarter to twice C(k,2) lets both outcomes occur.
    pairs = k * (k - 1) // 2
    scale = F(draw(st.integers(max(1, pairs // 2), 4 * pairs)), 2)
    w = WeightAssignment(n, {e: x / scale for e, x in zip(all_edges(n), raw)})
    return TwoColoring(Graph(n, mask)), k, w


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_weighted_colorings())
def test_verify_weighting_matches_fraction_oracle(case):
    c, k, w = case
    assert _outcome(verify_weighting, c, k, w) == _outcome(_sum_over_constraints, c, k, w)


@st.composite
def _weighted_blowups(draw):
    # A base coloring on p <= 5 classes blown up to n <= 10 vertices, the
    # vertices dealt to the classes at random, with one color and weight
    # per class pair and per class interior, so that twins are common;
    # optionally one edge is recolored and reweighted, which splits them.
    p = draw(st.integers(1, 5))
    n = draw(st.integers(3, 10))
    k = draw(st.integers(3, n))
    part = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    label = {
        pair: (draw(st.booleans()),
               F(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3, 4, 5, 6]))))
        for pair in itertools.combinations_with_replacement(range(p), 2)
    }
    edges = {(u, v): label[tuple(sorted((part[u], part[v])))] for u, v in all_edges(n)}
    if draw(st.booleans()):
        edge = draw(st.sampled_from(all_edges(n)))
        edges[edge] = (draw(st.booleans()), F(draw(st.integers(0, 4)), 3))
    pairs = k * (k - 1) // 2
    scale = F(draw(st.integers(max(1, pairs // 2), 4 * pairs)), 2)
    c = TwoColoring.from_red_edges(n, [e for e, (is_red, _) in edges.items() if is_red])
    w = WeightAssignment(n, {e: x / scale for e, (_, x) in edges.items()})
    return c, k, w


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_weighted_blowups())
def test_verify_weighting_matches_fraction_oracle_on_blowups(case):
    c, k, w = case
    assert _outcome(verify_weighting, c, k, w) == _outcome(_sum_over_constraints, c, k, w)


def test_verify_weighting_walks_twin_classes(monkeypatch):
    # The walk is over count vectors of these classes; all single-vertex
    # classes would stay correct but walk every k-subset.
    walked = []

    def recording(red, blue):
        walked.append(_twin_classes(red, blue))
        return walked[-1]

    monkeypatch.setattr(bounds, "_twin_classes", recording)
    construction_blowup(16, 6)
    assert walked[-1] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [13, 14, 15]]
    construction_k4(16)
    assert walked[-1] == [list(range(8)), list(range(8, 16))]
    uniform = WeightAssignment(16, {e: F(1, 40) for e in all_edges(16)})
    verify_weighting(TwoColoring.monochromatic(16), 8, uniform)
    assert walked[-1] == [list(range(16))]
    twin_free = TwoColoring(Graph(16, random.Random(1).getrandbits(120)))
    verify_weighting(twin_free, 8, uniform)
    assert walked[-1] == [[v] for v in range(16)]


def test_verify_weighting_first_violation_messages():
    # One 4-subset whose red triangle and blue star both carry 3/2: Red is
    # reported first; with the red weights lowered, Blue is.
    c = TwoColoring.from_red_edges(4, [(0, 1), (0, 2), (1, 2)])
    both = WeightAssignment(4, {e: F(1, 2) for e in all_edges(4)})
    with pytest.raises(CertificateError) as exc:
        verify_weighting(c, 4, both)
    assert str(exc.value) == "R subgraph on (0, 1, 2, 3) exceeds the unit cap with weight 3/2"
    blue_only = WeightAssignment(
        4, {e: F(1, 4) if c.red.has_edge(*e) else F(1, 2) for e in all_edges(4)}
    )
    with pytest.raises(CertificateError) as exc:
        verify_weighting(c, 4, blue_only)
    assert str(exc.value) == "B subgraph on (0, 1, 2, 3) exceeds the unit cap with weight 3/2"

    # The lexicographically first violating subset wins over the color:
    # (0, 1, 4) fails in Blue before (1, 2, 3) fails in Red.
    c = TwoColoring.from_red_edges(5, [(1, 2), (1, 3), (2, 3)])
    weights = {e: F(0) for e in all_edges(5)}
    weights.update({(1, 2): F(1, 2), (1, 3): F(1, 2), (2, 3): F(1, 2),
                    (0, 1): F(3, 5), (0, 4): F(1, 5), (1, 4): F(1, 3)})
    with pytest.raises(CertificateError) as exc:
        verify_weighting(c, 3, WeightAssignment(5, weights))
    assert str(exc.value) == "B subgraph on (0, 1, 4) exceeds the unit cap with weight 17/15"


def test_verify_weighting_input_errors():
    c = TwoColoring.monochromatic(5)
    w = WeightAssignment(5, {})
    for k in (2, 6):
        with pytest.raises(InputError, match=f"need 3 <= k <= n, got k={k}, n=5"):
            verify_weighting(c, k, w)
    with pytest.raises(InputError, match="disagree on n"):
        verify_weighting(c, 4, WeightAssignment(6, {}))


_VIOLATED_CONSTRUCTION = """
from fractions import Fraction
import wramsey.bounds as bounds
from wramsey.errors import CertificateError
assert False, "assert statements must be stripped under -O"
coloring, weights, _ = bounds.construction_k4(8)
try:
    bounds.verify_weighting(coloring, 4, weights.scaled(Fraction(6, 5)))
except CertificateError as exc:
    print("raised:", exc)
"""


def test_verify_weighting_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _VIOLATED_CONSTRUCTION],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "raised: B subgraph on (0, 1, 2, 3) exceeds the unit cap with weight 6/5\n"
    )
