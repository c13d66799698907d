"""Exact weighted Ramsey numbers and fractional triangle packing.

Everything is computed over arbitrary-precision rationals: the weight LPs
behind wram(n, k), the packing/covering invariants of a graph, and the
closed-form bound tables on the weighted Ramsey limit.
"""

from .errors import (
    CapabilityError,
    CertificateError,
    ContractViolationError,
    InputError,
    WramseyError,
)
from .exactnum import Rational, Relation, Sense, solve_unit_program
from .graphs import (
    CanonicalKey,
    Graph,
    TwoColoring,
    balanced_blowup,
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
from .weighted_ramsey import (
    WeightAssignment,
    WramResult,
    check_monotonicity,
    r_of_coloring,
    wram,
    wram_for_colorings,
)
from .packing import (
    ColoringPackingStats,
    SubgraphDescriptor,
    SubgraphWeights,
    coloring_packing_stats,
    cover_to_packing,
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
from .bounds import (
    BoundsReport,
    bounds_report,
    construction_blowup,
    construction_k4,
    density_coefficient,
    density_coefficient_tail,
    diagonal_ramsey_upper,
    tail_drop_threshold,
    turan_ratio_gap,
    turan_ratio_gap_lower,
    verify_weighting,
    wram_lower_bound,
    wram_upper_bound,
)

__version__ = "0.1.0"
