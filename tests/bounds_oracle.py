"""The ``Fraction`` formulas for the bound tables, kept as a test oracle.

``bounds`` computes each Turán ratio gap as one integer pair and sums c(k)
over one unreduced integer fraction, reduced once at the end.  The
functions here build the same quantities step by step from ``Fraction``
operations, as the formulas read: the gap as a difference of two ratios,
the closed form as a lead factor times a difference of two fractions,
c(k) as 1 minus a running ``Fraction`` sum, divided by t(k,2), and U(k)
as a ``Fraction`` product.  Both must
agree exactly, term by term.
"""

from __future__ import annotations

from fractions import Fraction

from wramsey.graphs import turan_number

RAMSEY_UPPER = {3: 5, 4: 17, 5: 48, 6: 164, 7: 539, 8: 1869}


def gap(k: int, i: int) -> Fraction:
    """t(k,2)/t(k,i-1) - t(k,2)/t(k,i), for 3 <= i <= k."""
    t2 = Fraction(turan_number(k, 2))
    return t2 / turan_number(k, i - 1) - t2 / turan_number(k, i)


def gap_lower(k: int, i: int) -> Fraction:
    """The closed-form lower bound on the gap, for k >= 9 and 3 <= i <= 8."""
    lead = Fraction(2, k * k) * (k * k // 4)
    return lead * (Fraction(1, (i - 1) * (i - 2)) - Fraction(i, i - 1) / (4 * k - 5))


def density(k: int) -> tuple[Fraction, tuple[tuple[int, Fraction, int], ...]]:
    """c(k) and its rows (i, gap, tabled Ramsey bound), for k >= 4."""
    term = gap if k <= 8 else gap_lower
    rows = tuple((i, term(k, i), RAMSEY_UPPER[i]) for i in range(3, min(k, 8) + 1))
    acc = 1 - sum(g / ramsey for _, g, ramsey in rows)
    return acc / turan_number(k, 2), rows


def upper(k: int) -> Fraction:
    """The constructive upper bound U(k): 24/5 at k = 4, else 1.25 floor(k^2/4)."""
    return Fraction(24, 5) if k == 4 else Fraction(5, 4) * (k * k // 4)


def format_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point rendering by ``round`` on the scaled ``Fraction``."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    whole, frac = divmod(round(abs(x) * 10**places), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
