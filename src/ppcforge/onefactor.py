"""One-factorizations of complete graphs and Room squares.

A one-factor of K_ell (ell even) is a perfect matching on the vertex set
0..ell-1; a one-factorization partitions all edges into ell-1 one-factors.
A Room square of side n (n odd) on the ell = n+1 symbols 0..n is an n x n
grid whose cells are empty or hold an edge, such that every edge of K_ell
appears exactly once and every row and every column covers all ell symbols,
i.e. forms a one-factor.  Room squares of side n exist for every odd n >= 7;
none exist for sides 3 and 5.  A bad square is one ``RoomValidationError``
from ``validate_room``, whose message names the first failed condition.

``room_square`` builds and validates every odd side from 7 to 51; it
searches nothing, so a square depends only on its side.  Side 9 is a
stored square, since Z_9 has no strong starter, and every other side
develops the strong starter stored in ``_STARTERS``, the first that the
exhaustive search ``strong_starter`` finds (the tests re-derive the
table).  Room squares of every other odd side exist, but none is built
here: the search finds no starter for any side from 53 to 129 within
2,000,000 nodes.

``select_factors`` picks, for a requested count rho, pairwise
edge-disjoint one-factors F_1..F_rho of K_ell together with representative
edges e_j in F_j that are pairwise vertex-disjoint; the order alone picks
the rule.  For 8 <= ell <= 52 the factors are rows of a Room square of
side ell-1 and the representatives their first-column cells, independent
since that column is itself a one-factor.  ``room_square`` and the
selection read one cached grid per side, ``_grid``; a selection does not
validate it, since ``construct`` checks what it builds from the rows.
Each selection is built once per process and shared by every factor join
of its (ell, rho).  No selection exists for (ell, rho) = (4, 2): disjoint
edges of K_4 share a one-factor.
"""

from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .core import NODE_LIMIT, Exhausted, ParseError, SearchTooDeep, ToolkitError, read_text

Edge = Tuple[int, int]
Factor = Tuple[Edge, ...]


class RoomValidationError(ToolkitError):
    """A grid that is not a Room square.  The message names what failed:
    the side, the shape, a cell that is not an edge, an edge doubled or
    missing, or the first row or column that is not a one-factor."""


class RoomSquare(NamedTuple):
    """Grid of side ``side`` over symbols 0..side; cells are edges or None.

    Rows and columns are stored 0-based; human-facing messages use 1-based
    coordinates to match the usual "first column" phrasing.
    """

    side: int
    grid: Tuple[Tuple[Optional[Edge], ...], ...]


class FactorSelection(NamedTuple):
    factors: Tuple[Factor, ...]
    reps: Tuple[Edge, ...]


def round_robin(ell: int) -> Tuple[Factor, ...]:
    """Circle-method one-factorization of K_ell for even ell >= 2: factors
    that partition the edges of K_ell, each a perfect matching.

    Vertex ell-1 stays fixed; vertices 0..ell-2 rotate.  Factor r pairs r
    with the fixed vertex and pairs r-k with r+k (mod ell-1) for each k.
    """
    if type(ell) is not int or ell < 2 or ell % 2:
        raise ToolkitError(f"need an even order >= 2, got {ell!r}")
    return tuple(_circle_factor(ell, r) for r in range(ell - 1))


def _circle_factor(ell: int, r: int) -> Factor:
    """Factor r of ``round_robin(ell)``."""
    m = ell - 1
    edges = [(r, m)]
    for k in range(1, ell // 2):
        a, b = (r - k) % m, (r + k) % m
        edges.append((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def rainbow_matching(ell: int) -> List[Tuple[Edge, int]]:
    """A perfect matching of K_ell, even ell >= 6, that meets every factor
    of ``round_robin(ell)`` at most once, as (edge, factor index) pairs.

    With m = ell-1, the edge {a, b} with a, b < m lies in factor
    (a+b)/2 mod m and {r, m} lies in factor r.  For m = 1 (mod 4) the
    matching is {0, m} and {2j+1, 2j+2}; for m = 3 (mod 4) it is {2i, 2i+1}
    for i < (m-5)/2, then {m-5, m-3}, {m-4, m-1} and {m-2, m}.  Either way
    the factor indices are pairwise distinct.
    """
    if type(ell) is not int or ell < 6 or ell % 2:
        raise ToolkitError(f"rainbow matchings are built for even orders >= 6, got {ell!r}")
    m = ell - 1
    if m % 4 == 1:
        edges = [(0, m)] + [(2 * j + 1, 2 * j + 2) for j in range((m - 1) // 2)]
    else:
        edges = [(2 * i, 2 * i + 1) for i in range((m - 5) // 2)]
        edges += [(m - 5, m - 3), (m - 4, m - 1), (m - 2, m)]
    half = (m + 1) // 2  # the inverse of 2 mod m
    return [((a, b), a if b == m else (a + b) * half % m) for a, b in edges]


def strong_starter(n: int, budget: int = NODE_LIMIT) -> Optional[List[Edge]]:
    """Exhaustively search Z_n for a strong starter.

    A starter is a set of (n-1)/2 pairs partitioning 1..n-1 whose
    differences cover every nonzero difference class exactly once; it is
    strong when the pair sums are distinct and nonzero (the negated sums then
    serve as the adder).  Deterministic order: the smallest unused element is
    paired with candidate partners in descending order.  Returns None only
    when the whole space was searched (as happens for n = 9); raises
    ``Exhausted`` past ``budget`` nodes and ``SearchTooDeep`` past the
    recursion limit (one frame per pair).  No square is built from
    this search: ``_grid`` reads ``_STARTERS``, and the search is the
    referee that re-derives that table.
    """
    if type(n) is not int or n < 1:
        raise ToolkitError(f"strong starters need an int n >= 1, got n={n!r}")
    out: List[Edge] = []
    nodes = 0

    # Bitmasks over Z_n: free holds the unpaired elements, diffs the
    # differences d whose class {d, n-d} is still open, sums the pair sums
    # still open (0 never is).  The partners y > x of x that keep the pairs
    # a strong starter form one mask: y - x in diffs, and x + y in sums,
    # which is sums rotated down by x.
    def rec(free: int, diffs: int, sums: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise Exhausted(f"strong starter search for Z_{n}", budget)
        if not free:
            return True
        xbit = free & -free
        x = xbit.bit_length() - 1
        free ^= xbit
        partners = free & (diffs << x) & ((sums >> x) | (sums << (n - x)))
        while partners:
            y = partners.bit_length() - 1
            ybit = 1 << y
            partners ^= ybit
            cls = 1 << (y - x) | 1 << (n - y + x)
            out.append((x, y))
            if rec(free ^ ybit, diffs & ~cls, sums & ~(1 << (x + y) % n)):
                return True
            out.pop()
        return False

    rest = (1 << n) - 2  # 1..n-1
    try:
        return list(out) if rec(rest, rest, rest) else None
    except RecursionError:
        raise SearchTooDeep(f"strong starter search for Z_{n}", n) from None


# Strong starters of Z_n, n odd from 7 to 51 except 9, as ``strong_starter``
# finds them: pair by pair, the partner of the smallest unpaired element.
_STARTERS = {
    7: (5, 3, 6),
    11: (8, 3, 10, 7, 9),
    13: (11, 4, 7, 10, 12, 9),
    15: (13, 11, 7, 12, 6, 10, 14),
    17: (15, 13, 8, 5, 14, 11, 16, 12),
    19: (17, 15, 13, 8, 16, 7, 14, 12, 18),
    21: (19, 17, 15, 11, 9, 7, 16, 20, 14, 18),
    23: (21, 19, 17, 20, 13, 11, 9, 18, 22, 16, 15),
    25: (23, 21, 24, 17, 15, 11, 8, 20, 18, 19, 22, 16),
    27: (25, 23, 26, 20, 18, 11, 15, 10, 21, 19, 22, 24, 17),
    29: (27, 25, 28, 22, 20, 18, 16, 9, 12, 21, 26, 19, 23, 24),
    31: (29, 27, 30, 28, 21, 19, 16, 20, 11, 24, 23, 14, 25, 22, 26),
    33: (31, 29, 32, 30, 25, 23, 18, 20, 10, 16, 26, 28, 22, 24, 27, 21),
    35: (33, 31, 34, 32, 27, 24, 19, 23, 20, 11, 26, 15, 30, 25, 22, 28, 29),
    37: (35, 33, 36, 34, 29, 27, 25, 17, 21, 18, 13, 32, 28, 26, 31, 24, 30, 23),
    39: (37, 35, 38, 36, 31, 29, 27, 25, 21, 19, 16, 13, 28, 33, 32, 26, 30, 24, 34),
    41: (39, 37, 40, 38, 33, 31, 29, 26, 24, 20, 16, 13, 35, 32, 28, 30, 27, 23, 36,
         34),
    43: (41, 39, 42, 40, 35, 33, 31, 29, 27, 24, 20, 13, 16, 38, 32, 28, 36, 26, 30, 34,
         37),
    45: (43, 41, 44, 42, 37, 35, 33, 31, 39, 28, 25, 17, 22, 16, 36, 38, 30, 32, 29, 40,
         34, 27),
    47: (45, 43, 46, 44, 39, 37, 35, 33, 42, 30, 28, 23, 25, 22, 16, 40, 36, 34, 41, 31,
         26, 32, 38),
    49: (47, 45, 48, 46, 41, 39, 37, 35, 44, 31, 29, 23, 14, 27, 21, 42, 38, 36, 43, 32,
         33, 40, 34, 30),
    51: (49, 47, 50, 48, 43, 41, 39, 37, 46, 34, 32, 30, 28, 24, 17, 44, 19, 45, 33, 42,
         40, 36, 31, 35, 38),
}

# Largest order whose factors come from a Room square, one past the largest
# stored starter.  Measured: the search finds a strong starter for every odd
# side up to 51 within 2,000,000 nodes (side 51 takes 1,617,930 nodes), and
# for no side from 53 to 129.
ROOM_MAX_ORDER = max(_STARTERS) + 1


def _stored_starter(n: int) -> Tuple[Edge, ...]:
    """Decode ``_STARTERS[n]`` into its pairs."""
    free = (1 << n) - 2  # 1..n-1
    pairs = []
    for y in _STARTERS[n]:
        xbit = free & -free
        pairs.append((xbit.bit_length() - 1, y))
        free ^= xbit | 1 << y
    return tuple(pairs)


# Square of side 9, where Z_9 has no strong starter.  Diagonal carries
# {i, 9}.
_SIDE9_CELLS = {
    (0, 0): (0, 9), (0, 1): (3, 4), (0, 2): (5, 6), (0, 3): (1, 2),
    (0, 4): (7, 8), (1, 0): (3, 5), (1, 1): (1, 9), (1, 2): (4, 7),
    (1, 3): (6, 8), (1, 4): (0, 2), (2, 0): (4, 8), (2, 1): (5, 7),
    (2, 2): (2, 9), (2, 4): (3, 6), (2, 5): (0, 1), (3, 3): (3, 9),
    (3, 4): (1, 5), (3, 5): (2, 8), (3, 6): (0, 4), (3, 8): (6, 7),
    (4, 1): (2, 6), (4, 2): (0, 3), (4, 4): (4, 9), (4, 6): (1, 7),
    (4, 7): (5, 8), (5, 0): (2, 7), (5, 5): (5, 9), (5, 6): (3, 8),
    (5, 7): (0, 6), (5, 8): (1, 4), (6, 2): (1, 8), (6, 5): (3, 7),
    (6, 6): (6, 9), (6, 7): (2, 4), (6, 8): (0, 5), (7, 0): (1, 6),
    (7, 1): (0, 8), (7, 3): (4, 5), (7, 7): (7, 9), (7, 8): (2, 3),
    (8, 3): (0, 7), (8, 5): (4, 6), (8, 6): (2, 5), (8, 7): (1, 3),
    (8, 8): (8, 9),
}


@lru_cache(maxsize=None)
def _grid(n: int) -> Tuple[Tuple[Optional[Edge], ...], ...]:
    """The grid of the stored square of side n, not validated: the cells
    of ``_SIDE9_CELLS`` for n = 9, else the stored starter developed
    through Z_n, row g holding {g, n} at column g and each pair {x, y}
    shifted by g at column g+x+y."""
    if n == 9:
        return tuple(tuple(_SIDE9_CELLS.get((r, c)) for c in range(9)) for r in range(9))
    starter = _stored_starter(n)
    rows = []
    for g in range(n):
        row: List[Optional[Edge]] = [None] * n
        row[g] = (g, n)
        for x, y in starter:
            u, w = (x + g) % n, (y + g) % n
            row[(g + x + y) % n] = (u, w) if u < w else (w, u)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None, typed=True)  # typed: 7.0 must not find the square of 7
def room_square(side: int) -> RoomSquare:
    """Build a Room square of the given side, validated.

    Sides must be odd and at least 7 (there is no Room square of side 3 or
    5, and side 1 is trivial and unused here).  The grid is ``_grid(side)``,
    the one that ``select_factors`` reads, for every side up to 51; every
    larger side raises ``ToolkitError``.
    """
    if type(side) is not int or side % 2 == 0 or side < 7:
        raise ToolkitError(f"Room squares need an odd side >= 7, got {side!r}")
    if side >= ROOM_MAX_ORDER:
        raise ToolkitError(
            f"ppcforge builds Room squares of odd sides 7 to {ROOM_MAX_ORDER - 1} "
            f"only (one exists for every odd side >= 7), got {side}"
        )
    square = RoomSquare(side, _grid(side))
    validate_room(square)
    return square


def validate_room(square: RoomSquare) -> None:
    """Check that the side is an odd int >= 1 and the grid side x side,
    then the four Room square conditions in order: cells hold edges, every
    edge of K_{side+1} appears exactly once, rows and then columns are
    one-factors.  Raises ``RoomValidationError`` for the first violation,
    its message naming the side, the shape, the cell, the edge, or the row
    or column.  One pass over the cells marks each edge {a, b} at code
    a*(side+1)+b in a flat byte array and ORs its symbol bits into masks
    for its row and column.  Once every edge appears once, the side rows
    hold side*(side+1)/2 cells, so full masks in every row leave each row
    (side+1)/2 cells, and so for columns: a line is checked by its mask
    alone, and cells are counted only to name the first failing line."""
    n = square.side
    if type(n) is not int or n < 1 or n % 2 == 0:  # type(): bool subclasses int
        raise RoomValidationError(f"side must be an odd int >= 1, got {n!r}")
    grid = square.grid
    try:
        shaped = len(grid) == n and all(len(row) == n for row in grid)
    except TypeError:  # a grid or row with no length, as None or an int
        shaped = False
    if not shaped:
        raise RoomValidationError(f"grid is not {n} x {n} cells")
    sym = n + 1
    full = (1 << sym) - 1
    seen = bytearray(n * sym)  # 1 at a*sym + b for each edge {a, b} met
    row_masks, col_masks = [], [0] * n
    for r, row in enumerate(grid):
        mask = 0
        for c, cell in enumerate(row):
            if cell is None:
                continue
            try:  # no other cell than a tuple or list of two unpacks
                a, b = cell if type(cell) is tuple or type(cell) is list else ()
            except ValueError:
                a = b = None
            if type(a) is not int or type(b) is not int or not 0 <= a < b <= n:
                raise RoomValidationError(
                    f"cell ({r + 1},{c + 1}) holds {cell!r}, not an edge on 0..{n}"
                )
            code = a * sym + b
            if seen[code]:
                r0, c0 = next((r0, c0) for r0, row0 in enumerate(grid)
                              for c0, cell0 in enumerate(row0)
                              if cell0 is not None and tuple(cell0) == (a, b))
                raise RoomValidationError(
                    f"edge {a}-{b} appears at cells ({r0 + 1}, {c0 + 1}) and ({r + 1},{c + 1})"
                )
            seen[code] = 1
            bits = 1 << a | 1 << b
            mask |= bits
            col_masks[c] |= bits
        row_masks.append(mask)
    missing = n * sym // 2 - seen.count(1)
    if missing:
        raise RoomValidationError(f"{missing} edges of K_{sym} never appear")
    for masks, lines, kind in ((row_masks, grid, "row"), (col_masks, zip(*grid), "column")):
        if masks.count(full) < n:  # cells are counted only to name the first bad line
            bad = next(i for i, (mask, line) in enumerate(zip(masks, lines))
                       if mask != full or sum(cell is not None for cell in line) != sym // 2)
            raise RoomValidationError(f"{kind} {bad + 1} does not cover 0..{n} exactly once")


def room_to_text(square: RoomSquare) -> str:
    """Text format: ``side=<n>`` header, then rows of ``a-b`` or ``.``."""
    lines = [f"side={square.side}"]
    for row in square.grid:
        # tuple(): validate_room accepts list cells as edges too
        cells = ["." if cell is None else "%d-%d" % tuple(cell) for cell in row]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def room_from_text(text: str) -> RoomSquare:
    """Read what ``room_to_text`` writes, in the layout of ``read_text``."""
    side, records = read_text(text, "side")
    if len(records) != side:
        raise ParseError(f"expected {side} rows, got {len(records)}")
    rows = []
    for lineno, line in records:
        parts = line.split()
        if len(parts) != side:
            raise ParseError(f"line {lineno}: expected {side} cells, got {line!r}")
        cells = []
        for tok in parts:
            if tok == ".":
                cells.append(None)
                continue
            try:  # a cell of other than two parts fails to unpack, as 1-2-3
                a, b = map(int, tok.split("-"))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad cell {tok!r}") from exc
            cells.append((a, b) if a < b else (b, a))
        rows.append(tuple(cells))
    return RoomSquare(side, tuple(rows))


def select_factors(ell: int, rho: int) -> FactorSelection:
    """Pick rho edge-disjoint one-factors of K_ell plus independent reps.

    Preconditions: ell even, 1 <= rho <= ell/2, and (ell, rho) != (4, 2),
    which is infeasible.  The order alone picks the rule, and none
    searches:

    * ell <= 4: the first round-robin factor and its first edge;
    * 8 <= ell <= ROOM_MAX_ORDER: the first rho rows, in row order, of
      ``_grid(ell-1)``, the grid of the Room square of side ell-1, whose
      first-column cell is filled, that cell being the representative.
      The grid is developed once per side and cached, not validated, since
      ``construct`` checks what it builds from it;
    * ell = 6 and ell > ROOM_MAX_ORDER, where no starter is stored: the
      round-robin factors through the first rho edges of
      ``rainbow_matching``, with the points relabelled so that the
      matching's j-th edge is {2j, 2j+1} and serves as rep j.

    The relabelling puts the reps first in block order, so first-fit over
    the sorted blocks of a factor join takes exactly the witness class.
    Each (ell, rho) is built once per process and then shared.
    """
    if type(ell) is not int or ell < 2 or ell % 2:  # type(): bool subclasses int
        raise ToolkitError(f"need an even order >= 2, got {ell!r}")
    if type(rho) is not int or rho < 1 or 2 * rho > ell:
        raise ToolkitError(f"need 1 <= rho <= ell/2, got rho={rho!r}, ell={ell}")
    if (ell, rho) == (4, 2):
        raise ToolkitError("two vertex-disjoint edges of K_4 lie in one one-factor")
    return _selection(ell, rho)


@lru_cache(maxsize=256)  # reached only with the ints that select_factors checked
def _selection(ell: int, rho: int) -> FactorSelection:
    if ell <= 4:
        factor = round_robin(ell)[0]
        return FactorSelection((factor,), (factor[0],))
    if 8 <= ell <= ROOM_MAX_ORDER:
        rows = [row for row in _grid(ell - 1) if row[0]][:rho]
        return FactorSelection(tuple(tuple(sorted(filter(None, row))) for row in rows),
                               tuple(row[0] for row in rows))
    matching = rainbow_matching(ell)
    label = [0] * ell
    for j, ((a, b), _) in enumerate(matching):
        label[a], label[b] = 2 * j, 2 * j + 1

    def relabelled(factor: Factor) -> Factor:
        return tuple(sorted(tuple(sorted((label[a], label[b]))) for a, b in factor))

    return FactorSelection(
        tuple(relabelled(_circle_factor(ell, r)) for _, r in matching[:rho]),
        tuple((2 * j, 2 * j + 1) for j in range(rho)),
    )
