"""Closed-form quantities: packing numbers, block-count bounds, gap bounds.

Everything here is exact integer or rational arithmetic.  The central
objects are the two bounds on beta(rho, v) -- the largest number of blocks a
PSTS(v) can have when its maximum partial parallel class has size exactly
rho.  ``beta_lower`` comes from the factor-join constructions, ``beta_upper``
from a counting argument over a maximum class (at most C(3*rho,2) - 2*rho
blocks meet the class twice; each class point carries at most
max(6, floor((v-3*rho)/2)) pendant blocks), capped by the packing number
D(v), since no PSTS(v) has more blocks.  ``bound_table`` assembles rows,
optionally overlaying the known exact values.

A flagged discrepancy: for rho=2 and v >= 18 the upper bound is sometimes
quoted as v+1, but direct evaluation of the counting bound gives v+5 for
even v and v+4 for odd v (substituting rho=2 into rho*(6*rho+v-7)/2 yields
v+5).  This module reports the computed value; ``bound_table`` rows never
silently substitute the smaller quoted constant.
"""

from fractions import Fraction
from math import comb
from typing import List, NamedTuple, Optional

from .core import OutOfRange, ToolkitError


def packing_number(v: int) -> int:
    """D(v): the maximum number of blocks in any PSTS(v).

    floor(v/3 * floor((v-1)/2)), reduced by one exactly when v = 5 mod 6.
    Defined as 0 for v < 3.
    """
    if v < 3:
        return 0
    d = v * ((v - 1) // 2) // 3
    if v % 6 == 5:
        d -= 1
    return d


def _in_domain(rho: int, v: int, strict: bool = True) -> bool:
    """Whether v >= 3*rho >= 3.  A rho or v that is not an int (a bool is
    not one) raises ToolkitError, and so does a pair outside if ``strict``."""
    if type(rho) is int and type(v) is int and (1 <= rho <= v // 3 or not strict):
        return 1 <= rho <= v // 3
    raise ToolkitError(f"need v >= 3*rho >= 3, got rho={rho!r}, v={v!r}")


def beta_lower(rho: int, v: int) -> int:
    """Constructive lower bound on beta(rho, v).

    Even v-rho: rho*(v-rho)/2 + D(rho); odd v-rho: rho*(v-rho-1)/2 + D(rho).
    The pair (v, rho) = (6, 2) is excluded from the even case and handled
    with the odd-style value, 3.  (Caveat: exhaustive search shows the true
    beta(2,6) is 2, so at that single pair this function overstates by one;
    it is kept as the formula value deliberately -- see the test suite.)
    """
    _in_domain(rho, v)
    d = packing_number(rho)
    if (v - rho) % 2 == 0 and (v, rho) != (6, 2):
        return rho * (v - rho) // 2 + d
    return rho * (v - rho - 1) // 2 + d


def beta_upper(rho: int, v: int) -> int:
    """Counting upper bound on beta(rho, v), capped by the packing number.

    min( C(3*rho,2) - 2*rho + rho*max(6, (v-3*rho)//2),  D(v) ).
    The first term equals rho*((9*rho-7)/2 + max(...)) but is computed in
    the integral binomial form to avoid fractional intermediates.
    """
    _in_domain(rho, v)
    counting = comb(3 * rho, 2) - 2 * rho + rho * max(6, (v - 3 * rho) // 2)
    return min(counting, packing_number(v))


def beta_exact_known(rho: int, v: int) -> Optional[int]:
    """Exact beta(rho, v) where it is established, else None: ``beta_upper``
    where a known design attains it -- rho = 1; rho = floor(v/3) with v = 1
    or 3 mod 6, v != 7 (an STS(v) with a parallel class); (4,15), (6,21),
    (8,27) -- and 5 at (2,7), two below it, as exhaustive search shows."""
    if not _in_domain(rho, v, strict=False):
        return None
    if (rho, v) == (2, 7):
        return 5
    if (rho == 1 or (rho == v // 3 and v % 6 in (1, 3) and v != 7)
            or (rho, v) in ((4, 15), (6, 21), (8, 27))):
        return beta_upper(rho, v)
    return None


def gap_bound(rho: int) -> Fraction:
    """Cap on beta_upper - beta_lower for fixed rho: (10*rho^2 - 8*rho + 1)/3."""
    if type(rho) is not int or rho < 1:
        raise ToolkitError(f"need rho >= 1, got {rho!r}")
    return Fraction(10 * rho * rho - 8 * rho + 1, 3)


class BoundRecord(NamedTuple):
    """One table row; ``exact`` is set only when the known exact values were
    overlaid, and then both bound fields hold it."""

    rho: int
    v: int
    d_rho: int
    lower: int
    upper: int
    exact: Optional[int] = None


def bound_table(
    v: int, rho_max: Optional[int] = None, with_known: bool = False
) -> List[BoundRecord]:
    """Rows (rho = 1..rho_max) of D(rho), lower, upper for the given v.

    With ``with_known`` the known exact values overwrite both bound fields
    (an exact value is simultaneously the best lower and upper bound).
    A v that is not an int >= 1 raises ``OutOfRange`` as ``validate`` does,
    and a rho_max that is neither an int nor None raises ``ToolkitError``.
    """
    if type(v) is not int or v < 1:  # type(): bool subclasses int
        raise OutOfRange(f"point count must be a positive integer, got {v!r}")
    if rho_max is not None and type(rho_max) is not int:
        raise ToolkitError(f"rho_max must be an int or None, got {rho_max!r}")
    top = v // 3
    rho_max = top if rho_max is None else min(rho_max, top)
    rows = []
    for rho in range(1, rho_max + 1):
        exact = beta_exact_known(rho, v) if with_known else None
        lower = beta_lower(rho, v) if exact is None else exact
        upper = beta_upper(rho, v) if exact is None else exact
        rows.append(BoundRecord(rho, v, packing_number(rho), lower, upper, exact))
    return rows


def format_table(rows: List[BoundRecord], style: str = "text") -> str:
    """Render rows: ``text`` is an aligned human table, and ``rows`` prints
    ``rho,D,lower,upper,exact,lower=<tag>;upper=<tag>`` per row, ``exact``
    empty unless overlaid.  A bound's tag is ``known-special`` where the
    exact value differs from its formula, else ``generic-theorem``."""
    if style == "rows":
        lines = []
        for r in rows:
            exact = "" if r.exact is None else str(r.exact)
            lo, up = (
                "generic-theorem" if r.exact is None or r.exact == bound(r.rho, r.v)
                else "known-special"
                for bound in (beta_lower, beta_upper)
            )
            lines.append(f"{r.rho},{r.d_rho},{r.lower},{r.upper},{exact},lower={lo};upper={up}")
        return "\n".join(lines) + "\n"
    if style != "text":
        raise ToolkitError(f"unknown table style {style!r}")
    head = ("rho", "D(rho)", "lower", "upper")
    data = [head] + [(str(r.rho), str(r.d_rho), str(r.lower), str(r.upper)) for r in rows]
    widths = [max(len(row[i]) for row in data) for i in range(4)]
    out = []
    for i, row in enumerate(data):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
