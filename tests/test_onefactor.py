import hashlib
import random
import sys
import time
from collections import Counter
from itertools import combinations, count

import pytest

import ppcforge as pf
from ppcforge.onefactor import (
    ROOM_MAX_ORDER,
    _STARTERS,
    RoomSquare,
    RoomValidationError,
    rainbow_matching,
    room_from_text,
    room_square,
    room_to_text,
    strong_starter,
    _grid,
    _selection,
    _stored_starter,
)

from conftest import raises_exactly, recursion_headroom


def all_edges(ell):
    return set(combinations(range(ell), 2))


@pytest.mark.parametrize("ell", range(2, 42, 2))
def test_round_robin_covers_every_edge_once(ell):
    factors = pf.round_robin(ell)
    assert len(factors) == max(1, ell - 1)
    seen = set()
    for factor in factors:
        pts = sorted(p for e in factor for p in e)
        assert pts == list(range(ell))  # perfect matching
        for e in factor:
            assert e not in seen
            seen.add(e)
    if ell > 2:
        assert seen == all_edges(ell)


def test_round_robin_rejects_odd():
    with raises_exactly("need an even order >= 2, got 5"):
        pf.round_robin(5)


def test_no_strong_starter_of_order_9():
    assert strong_starter(9) is None


def test_strong_starter_needs_an_int_order_of_at_least_1():
    for n in (0, -3, 7.0, "7", True):
        with raises_exactly(f"strong starters need an int n >= 1, got n={n!r}"):
            strong_starter(n)
    # an order with no strong starter is an answer, not an error
    assert strong_starter(3) is None and strong_starter(5) is None


def test_a_too_deep_starter_search_is_search_too_deep():
    # the search nests one frame per pair; past the recursion limit it
    # raises the error every search shares, not a bare RecursionError
    with recursion_headroom(60):
        limit = sys.getrecursionlimit()
        with raises_exactly(
            f"strong starter search for Z_201 on 201 points nests deeper than "
            f"the recursion limit of {limit}", pf.SearchTooDeep
        ):
            strong_starter(201, budget=100_000)


def test_stored_starters_are_what_the_search_finds():
    # every odd side below ROOM_MAX_ORDER is side 9 or has a stored starter;
    # side 51 is left out here, its search takes 1.6M nodes
    assert set(_STARTERS) == set(range(7, ROOM_MAX_ORDER, 2)) - {9}
    for side in _STARTERS:
        assert len(_STARTERS[side]) == (side - 1) // 2, side
        if side <= 49:
            assert strong_starter(side) == list(_stored_starter(side)), side


def test_room_square_does_not_search(monkeypatch):
    def no_search(n):
        raise AssertionError(f"strong_starter({n}) called")

    monkeypatch.setattr(pf.onefactor, "strong_starter", no_search)
    room_square.cache_clear()
    try:
        for side in range(7, ROOM_MAX_ORDER, 2):
            room_square(side)
    finally:
        room_square.cache_clear()


# sha256 of room_to_text(room_square(side)): side 9 is the stored square,
# every other side develops the first strong starter in the search order
# (sides 49 and 51 recorded from that search, before the starters were
# stored)
ROOM_SQUARE_SHA256 = {
    7: "51cb89e2049e97a2565a4a829cdd12e4989f11133c8e8d7a952327353d3c3ef1",
    9: "70b7df9c39bfa4c9b5192c07b37ac061092abd6cab4da4d6711ea639db22c4ea",
    11: "87ca255b5ac7adaa3265d4a911221737ed7e9f62ec2044dc343d95dde7bebeb3",
    13: "1e6223919caf12ac63de22dfcd43163667ea03d378abcc670bc459f47f16e685",
    15: "bf7e7ea6342a1bce9bc59b8500c80cdc6433ff2b7e7af7e829df426d42ed1765",
    17: "6bf09350dcd3390d9b4d806fa63e57b84b145006e22e33abefcd328ae2e09c65",
    19: "c16b75d5b3a72ba6ebde9d334f3d2ecaaee445e773b4ee50af7de32a765192b7",
    21: "92962d51934b2dd4891253445e01ea044b248e0221ca7395abb5c8884708b25c",
    23: "90515d3ce70bb6dafed54ac60843d8cf146a6bc33df83b30322caa67aa02dfa7",
    25: "9a3344f94590984f11ef9cbb92488867564d746891f9ce48d2e85ebee90d08ba",
    27: "86f03e25d33af4caadd233f5cae50e9883333a1d6df87f4d320bd098418c700d",
    29: "a5f4f6a46c6489d81ebe163a2f80e48a85880e5e0891c48bb3c885f93634022c",
    31: "0ae8d3cf5e688c2ed80b93b225f2628be3cec96d5ccadcc6706a40593e744de8",
    33: "b84a55a66a1a448ca5a27a96ad22cc22a8b1c4f956d4a224c236093641bec242",
    35: "5d1d2432c1b4988cb6b769fb15311e0cc6440e5d71a75b935b600e72e194a9c2",
    37: "c85b78d250222e6338fec2e1c1bd224bbff7a7ac7a13f99b6b3926a179794c98",
    39: "03ecd3d7a77e5900d3a17b621b2e5249a20c2e0fc9ae1ff27fdf8ae942cc862a",
    41: "47e350e2b1229b00bb421f0a1c1a2e4cf9f0c43520c99160a07ee56e718edc22",
    43: "3f21fdc0eeffc64263fff1ba3b945adcfa0f931ffabe8d29e240af04efcceac3",
    45: "abd458fa116b4619283c52c9a2a2c1166006056315ed07b20d7bfacd425048af",
    47: "6e25117f36b1a2602107ba4379f45461c46fba8b08c5112bbd9e0bf48b26d6c4",
    49: "27925dd9177850d488444c3a96a32cc75e6bd07298e13af57cd977cf48414f76",
    51: "289bd495b6edaebdc09ec2cd31f3e7bf1602f6189811a4b079efb9994ddf86cb",
}


# sha256 of the texts above joined in side order, 7 to 51
ROOM_SQUARES_ALL_SHA256 = "34baac7456b9accbc6e238fe22cc5344bbb105f0053ced5dcca8259abcd9f22e"


def test_room_squares_are_pinned():
    assert set(ROOM_SQUARE_SHA256) == set(range(7, ROOM_MAX_ORDER, 2))
    joined = hashlib.sha256()
    for side, digest in sorted(ROOM_SQUARE_SHA256.items()):
        text = room_to_text(room_square(side))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, side
        joined.update(text.encode())
    assert joined.hexdigest() == ROOM_SQUARES_ALL_SHA256


def test_rainbow_matching_meets_each_factor_once():
    for m in range(5, 2002, 2):
        pairs = rainbow_matching(m + 1)
        pts = sorted(p for (a, b), _ in pairs for p in (a, b))
        assert pts == list(range(m + 1)), m  # perfect matching of K_{m+1}
        for (a, b), r in pairs:
            # {r, m} lies in factor r; {a, b} in factor r with 2r = a+b mod m
            assert (r == a) if b == m else ((2 * r - a - b) % m == 0), (m, a, b)
        assert len({r for _, r in pairs}) == len(pairs), m
        if m < 60:
            factors = pf.round_robin(m + 1)
            assert all(e in factors[r] for e, r in pairs), m
    with raises_exactly("rainbow matchings are built for even orders >= 6, got 4"):
        rainbow_matching(4)


def test_square_does_not_depend_on_the_clock(monkeypatch):
    room_square.cache_clear()
    try:
        expected = room_square(11)
        room_square.cache_clear()
        ticks = count(step=1000.0)
        monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
        assert room_square(11) == expected
    finally:
        room_square.cache_clear()


@pytest.mark.parametrize("side", [7, 9, 11, 13, 15])
def test_generated_squares_validate(side):
    pf.validate_room(room_square(side))


def test_bad_sides():
    for side in (3, 5, 8, 1):
        with raises_exactly(f"Room squares need an odd side >= 7, got {side}"):
            room_square(side)
    room_square(7)  # cached, and 7.0 == 7 with the same hash
    for side in (7.0, "7", True):
        with raises_exactly(f"Room squares need an odd side >= 7, got {side!r}"):
            room_square(side)
    with raises_exactly("ppcforge builds Room squares of odd sides 7 to 51 only "
                        "(one exists for every odd side >= 7), got 53"):
        room_square(53)


def test_validate_room_needs_an_odd_int_side():
    # checked before the shape: a 0 x 0 grid is no Room square, and a side
    # that is no int fails with the class, not a TypeError
    square7 = room_square(7).grid
    for side, grid in ((0, ()), (-1, ()), (2, ((None, None),) * 2), (True, (((0, 1),),)),
                       (7.0, square7), ("7", square7)):
        with raises_exactly(f"side must be an odd int >= 1, got {side!r}", RoomValidationError):
            pf.validate_room(RoomSquare(side, grid))
    pf.validate_room(RoomSquare(1, (((0, 1),),)))  # the one edge of K_2


def test_validate_room_checks_the_shape_first():
    # an eighth column of empty cells, an eighth empty row, a row missing,
    # no grid, rows that are ints: each is the wrong shape, whatever its
    # cells would fail, and no TypeError
    grid = room_square(7).grid
    for bad in (tuple(row + (None,) for row in grid), grid + ((None,) * 7,), grid[:-1],
                None, (0,) * 7):
        with raises_exactly("grid is not 7 x 7 cells", RoomValidationError):
            pf.validate_room(RoomSquare(7, bad))


def test_swapped_diagonal_breaks_a_row_first():
    # swapping the (1,1) and (2,2) diagonal cells damages rows 1 and 2 as
    # well as columns 1 and 2; the row check runs before the column check,
    # so the row error surfaces
    grid = [list(row) for row in room_square(7).grid]
    grid[0][0], grid[1][1] = grid[1][1], grid[0][0]
    with raises_exactly("row 1 does not cover 0..7 exactly once", RoomValidationError):
        pf.validate_room(RoomSquare(7, tuple(tuple(r) for r in grid)))


def test_column_error_when_rows_are_intact():
    # swap two filled cells within one row: rows stay one-factors, the two
    # affected columns do not
    grid = [list(row) for row in room_square(7).grid]
    grid[0][0], grid[0][3] = grid[0][3], grid[0][0]
    with raises_exactly("column 1 does not cover 0..7 exactly once", RoomValidationError):
        pf.validate_room(RoomSquare(7, tuple(tuple(r) for r in grid)))


def reference_validate_room(square):
    """``validate_room`` as it was before the one-pass rewrite: the cells
    checked first, then the points of each row, then of each column, sorted
    and compared with 0..side.  A list cell is kept as the tuple it equals."""
    n = square.side
    sym = n + 1
    grid = square.grid
    seen = {}
    for r in range(n):
        row = grid[r]
        for c in range(n):
            cell = row[c]
            if cell is None:
                continue
            if (
                len(cell) != 2
                or not all(isinstance(p, int) for p in cell)
                or not (0 <= cell[0] < cell[1] <= n)
            ):
                raise RoomValidationError(
                    f"cell ({r + 1},{c + 1}) holds {cell!r}, not an edge on 0..{n}"
                )
            edge = tuple(cell)
            if edge in seen:
                raise RoomValidationError(
                    f"edge {cell[0]}-{cell[1]} appears at cells "
                    f"{seen[edge]} and ({r + 1},{c + 1})"
                )
            seen[edge] = (r + 1, c + 1)
    if len(seen) != sym * (sym - 1) // 2:
        raise RoomValidationError(
            f"{sym * (sym - 1) // 2 - len(seen)} edges of K_{sym} never appear"
        )
    for r in range(n):
        row = grid[r]
        pts = sorted(p for c in range(n) if row[c] for p in row[c])
        if pts != list(range(sym)):
            raise RoomValidationError(f"row {r + 1} does not cover 0..{n} exactly once")
    for c in range(n):
        pts = sorted(p for r in range(n) if grid[r][c] for p in grid[r][c])
        if pts != list(range(sym)):
            raise RoomValidationError(f"column {c + 1} does not cover 0..{n} exactly once")


def room_outcome(check, square):
    try:
        check(square)
    except RoomValidationError as exc:
        return type(exc).__name__, str(exc)
    return None


def condition(outcome):
    """The Room condition that a ``room_outcome`` names: cell, edge, row or
    column (a count of edges never met is the edge condition), or valid."""
    if outcome is None:
        return "valid"
    word = outcome[1].split()[0]
    return "edge" if word.isdigit() else word


def mutated_squares(square, rng):
    """Damaged copies of ``square``, tuple cells only: swaps within a row,
    within a column and across rows, a cleared cell, a doubled edge, a
    reversed pair, an out-of-range or repeated symbol, a 3-tuple, a string."""
    n = square.side
    cells = [(r, c) for r in range(n) for c in range(n)]
    filled = [(r, c) for r, c in cells if square.grid[r][c] is not None]

    def changed(*updates):
        grid = [list(row) for row in square.grid]
        for (r, c), cell in updates:
            grid[r][c] = cell
        return RoomSquare(n, tuple(tuple(row) for row in grid))

    def at(rc):
        return square.grid[rc[0]][rc[1]]

    def swapped(p, q):
        return changed((p, at(q)), (q, at(p)))

    for _ in range(3):
        r, c1, c2, r2 = (rng.randrange(n) for _ in range(4))
        yield swapped((r, c1), (r, c2))
        yield swapped((c1, r), (c2, r))
        yield swapped((r, c1), (r2, c2))
        p = rng.choice(filled)
        a, b = at(p)
        yield changed((p, None))
        yield changed((rng.choice(cells), at(p)))
        yield changed((p, (b, a)))
        yield changed((p, (a, n + 1)))
        yield changed((p, (-1, b)))
        yield changed((p, (a, a)))
        yield changed((p, (a, b, (a + b) % n)))
        yield changed((p, f"{a}-"))


def moved_cells(square, rng):
    """Copies of ``square``, tuple cells only, with a filled cell moved into
    an empty cell of an earlier row, or of an earlier column in its own row:
    every edge still appears once, the line the cell joins covers every
    symbol with a cell too many, and a later line is short."""
    grid = square.grid
    cells = [(r, c) for r in range(square.side) for c in range(square.side)]
    filled = [(r, c) for r, c in cells if grid[r][c] is not None]

    def moved(r, c, r2, c2):
        rows = [list(row) for row in grid]
        rows[r2][c2], rows[r][c] = rows[r][c], None
        return RoomSquare(square.side, tuple(map(tuple, rows)))

    for _ in range(3):
        r, c = rng.choice([(r, c) for r, c in filled if r > 0])
        empty = [(r2, c2) for r2, c2 in cells if r2 < r and grid[r2][c2] is None]
        yield moved(r, c, *rng.choice(empty))
        r, c = rng.choice([(r, c) for r, c in filled if None in grid[r][:c]])
        yield moved(r, c, r, rng.choice([c2 for c2 in range(c) if grid[r][c2] is None]))


def listed(square):
    """``square`` with every tuple cell a list."""
    return RoomSquare(square.side, tuple(
        tuple(list(cell) if type(cell) is tuple else cell for cell in row) for row in square.grid
    ))


def test_one_pass_validator_matches_the_reference():
    # each case with tuple cells and again with list cells; the moves draw
    # from a generator of their own and are counted apart
    rng, move_rng = random.Random(23), random.Random(29)
    outcomes = {tuple: Counter(), list: Counter(), "moves": Counter()}
    for side in range(7, ROOM_MAX_ORDER, 2):
        square = room_square(side)
        for case in [square, *mutated_squares(square, rng)]:
            for kind, copy in ((tuple, case), (list, listed(case))):
                got = room_outcome(pf.validate_room, copy)
                assert got == room_outcome(reference_validate_room, copy), (side, copy.grid)
                outcomes[kind][condition(got)] += 1
        for case in moved_cells(square, move_rng):
            for copy in (case, listed(case)):
                got = room_outcome(pf.validate_room, copy)
                assert got == room_outcome(reference_validate_room, copy), (side, copy.grid)
                outcomes["moves"][condition(got)] += 1
    assert outcomes.pop("moves") == {"row": 138, "column": 138}
    for counted in outcomes.values():
        assert counted["valid"] >= 80 and counted["cell"] >= 400, counted
        assert counted["edge"] >= 130, counted
        assert counted["row"] >= 90 and counted["column"] >= 45, counted


def test_a_line_with_a_cell_too_many_is_named_before_a_short_one():
    # a filled cell moved into an empty cell of an earlier line: every edge
    # still appears once, the earlier line covers every symbol with one cell
    # too many, and a later line is short; the earlier line is named
    for (r, c), (r2, c2), message in (((6, 2), (0, 1), "row 1"), ((0, 3), (0, 1), "column 2")):
        grid = [list(row) for row in room_square(7).grid]
        assert grid[r2][c2] is None
        grid[r2][c2], grid[r][c] = grid[r][c], None
        with raises_exactly(f"{message} does not cover 0..7 exactly once", RoomValidationError):
            pf.validate_room(RoomSquare(7, tuple(map(tuple, grid))))


@pytest.mark.parametrize("cell", [(False, True), (False, 1), (0, True)])
def test_bool_symbols_are_not_an_edge(cell):
    grid = [list(row) for row in room_square(7).grid]
    r, c = next((r, c) for r in range(7) for c in range(7) if grid[r][c] == (0, 1))
    grid[r][c] = cell
    with raises_exactly(f"cell ({r + 1},{c + 1}) holds {cell}, not an edge on 0..7",
                        RoomValidationError):
        pf.validate_room(RoomSquare(7, tuple(map(tuple, grid))))


@pytest.mark.parametrize("side", range(7, 52, 2))
def test_list_cells_print_as_the_tuple_square(side):
    square = room_square(side)
    grid = tuple(tuple(None if cell is None else list(cell) for cell in row)
                 for row in square.grid)
    listed = RoomSquare(side, grid)
    pf.validate_room(listed)
    assert pf.room_to_text(listed) == pf.room_to_text(square)


def test_list_cells_are_edges():
    grid = [[None if cell is None else list(cell) for cell in row] for row in room_square(7).grid]
    pf.validate_room(RoomSquare(7, tuple(map(tuple, grid))))
    # a list equal to an edge elsewhere doubles it
    r, c = next((r, c) for r in range(7) for c in range(7) if grid[r][c] is None)
    grid[r][c] = list(room_square(7).grid[0][0])
    doubled = f"edge 0-7 appears at cells (1, 1) and ({r + 1},{c + 1})"
    with raises_exactly(doubled, RoomValidationError):
        pf.validate_room(RoomSquare(7, tuple(map(tuple, grid))))
    # any other cell is not an edge
    for cell in ([0, 1, 2], [0, True], {0, 1}, {0: 1, 1: 2}, 5, "01"):
        grid[r][c] = cell
        named = f"cell ({r + 1},{c + 1}) holds {cell!r}, not an edge on 0..7"
        with raises_exactly(named, RoomValidationError):
            pf.validate_room(RoomSquare(7, tuple(map(tuple, grid))))


def test_empty_grid_misses_edges():
    empty = RoomSquare(7, tuple((None,) * 7 for _ in range(7)))
    with raises_exactly("28 edges of K_8 never appear", RoomValidationError):
        pf.validate_room(empty)


def test_room_text_round_trip():
    for side in range(7, ROOM_MAX_ORDER, 2):
        sq = room_square(side)
        assert room_from_text(room_to_text(sq)) == sq, side


def test_select_factors_ell6_matches_the_fixed_choice():
    # the round-robin factors through the rainbow matching {0,5}, {1,2},
    # {3,4}, relabelled so that the matching is {0,1}, {2,3}, {4,5}
    sel = pf.select_factors(6, 3)
    assert sel.factors == (
        ((0, 1), (2, 5), (3, 4)),
        ((0, 4), (1, 5), (2, 3)),
        ((0, 3), (1, 2), (4, 5)),
    )
    assert sel.reps == ((0, 1), (2, 3), (4, 5))


def test_select_factors_room_reps_for_ell8():
    sel = pf.select_factors(8, 3)
    assert set(sel.reps) == {(0, 7), (2, 6), (4, 5)}


# sha256 of repr((ell, rho, factors, reps)) over every (ell, rho) with
# 8 <= ell <= 48: the Room square rows behind the pinned construct outputs
ROOM_SELECTION_SHA256 = "ed5ed5dbf99a8c8960a1dd3b5d07c1f39d50d9087d6992036fa62ce16cc43a9c"


def test_room_selection_is_pinned():
    h = hashlib.sha256()
    for ell in range(8, 49, 2):
        for rho in range(1, ell // 2 + 1):
            sel = pf.select_factors(ell, rho)
            h.update(repr((ell, rho, sel.factors, sel.reps)).encode())
    assert h.hexdigest() == ROOM_SELECTION_SHA256


@pytest.mark.parametrize("side", range(7, ROOM_MAX_ORDER, 2))
def test_selection_is_the_first_column_rows_of_the_square(side):
    # the rows and their first-column cells are those of the validated square
    square = room_square(side)
    pf.validate_room(square)
    rows = [r for r in range(side) if square.grid[r][0] is not None]
    assert len(rows) == (side + 1) // 2
    sel = pf.select_factors(side + 1, (side + 1) // 2)
    assert sel.factors == tuple(tuple(sorted(c for c in square.grid[r] if c)) for r in rows)
    assert sel.reps == tuple(square.grid[r][0] for r in rows)


def test_factor_joins_never_build_a_square(monkeypatch):
    def no_square(*args):
        raise AssertionError("room_square or validate_room was called")

    monkeypatch.setattr(pf.onefactor, "room_square", no_square)
    monkeypatch.setattr(pf.onefactor, "validate_room", no_square)
    for ell in range(8, ROOM_MAX_ORDER + 1, 2):
        for rho in sorted({*range(1, min(5, ell // 2) + 1), ell // 2}):
            for kind, build in pf.FACTOR_JOINS.items():
                if kind != "trimmed" or ell > 2 * rho:
                    assert build(rho, ell).rho == rho, (kind, rho, ell)


def test_every_square_is_the_stored_grid():
    for side in range(7, ROOM_MAX_ORDER, 2):
        assert room_square(side).grid is _grid(side), side


@pytest.mark.parametrize("ell", [10, 16])  # the side-9 cells and a developed starter
def test_a_selection_and_its_square_develop_one_grid(ell):
    _grid.cache_clear()
    _selection.cache_clear()  # else a cached selection would not read the grid
    room_square.cache_clear()
    try:
        for rho in range(1, ell // 2 + 1):
            pf.select_factors(ell, rho)
        assert room_square(ell - 1).grid is _grid(ell - 1)
        assert _grid.cache_info().misses == 1
    finally:
        room_square.cache_clear()


@pytest.mark.parametrize("ell", [6, 54, 58])
def test_rainbow_selection_is_proven_at_the_root(ell):
    # the relabelled matching makes first-fit take the witness class, and a
    # transversal of size rho (or free//3 when the class spans v = 3*rho)
    # closes the search at node 1
    for rho in range(1, ell // 2 + 1):
        for kind, build in pf.FACTOR_JOINS.items():
            if kind == "trimmed" and ell == 2 * rho:
                continue
            w = build(rho, ell)
            assert tuple(pf.greedy_ppc(w.design)) == w.witness_ppc, (kind, rho)
            r = pf.solve_max_ppc(w.design)
            assert (r.size, r.optimal, r.nodes) == (rho, True, 1), (kind, rho)
            if r.cover:
                assert len(r.cover) == rho
                assert all(set(r.cover) & set(blk) for blk in w.design.blocks)
            else:
                assert w.design.v == 3 * rho, (kind, rho)


def test_select_factors_4_2_infeasible():
    with raises_exactly("two vertex-disjoint edges of K_4 lie in one one-factor"):
        pf.select_factors(4, 2)


@pytest.mark.parametrize("ell,rho,message", [
    (8.0, 1, "need an even order >= 2, got 8.0"),
    (10.0, 1, "need an even order >= 2, got 10.0"),  # not the rows of side 9
    (8, 1.0, "need 1 <= rho <= ell/2, got rho=1.0, ell=8"),
    (8, True, "need 1 <= rho <= ell/2, got rho=True, ell=8"),
])
def test_select_factors_needs_int_orders(ell, rho, message):
    with raises_exactly(message):
        pf.select_factors(ell, rho)
    with raises_exactly(message):
        pf.factor_join(rho, ell)


# ell <= 4, ell = 6, the side-9 cells, a stored starter, the largest one and
# rainbow orders past it
@pytest.mark.parametrize("ell,rho", [(2, 1), (4, 1), (6, 3), (10, 2), (16, 5), (52, 26),
                                     (54, 3), (60, 30)])
def test_a_selection_is_built_once_and_shared(ell, rho):
    assert pf.select_factors(ell, rho) is pf.select_factors(ell, rho)
    assert _selection.cache_parameters()["maxsize"] is not None  # ell and rho are user input


@pytest.mark.parametrize("ell,rho,message", [
    (8.0, 1, "need an even order >= 2, got 8.0"),
    (8, True, "need 1 <= rho <= ell/2, got rho=True, ell=8"),
    ([8], 1, "need an even order >= 2, got [8]"),  # not an unhashable TypeError
])
def test_a_cached_selection_keeps_the_checks(ell, rho, message):
    pf.select_factors(8, 1)
    with raises_exactly(message):
        pf.select_factors(ell, rho)


def test_select_factors_needs_rho_at_most_half_ell():
    with raises_exactly("need 1 <= rho <= ell/2, got rho=5, ell=8"):
        pf.select_factors(8, 5)


@pytest.mark.parametrize("ell", range(6, 61, 2))  # both rules, past ROOM_MAX_ORDER too
def test_selection_is_a_prefix_of_the_widest(ell):
    widest = pf.select_factors(ell, ell // 2)
    for rho in range(1, ell // 2):
        sel = pf.select_factors(ell, rho)
        assert sel.factors == widest.factors[:rho] and sel.reps == widest.reps[:rho]


# Both selection rules take their factors and reps as a prefix of one
# ordered list (checked above up to ell = 60), so rho = ell/2 checks every
# rho at that ell; (4, 2) has no selection, so (4, 1) stands in for it.
@pytest.mark.parametrize(
    "ell,rho",
    sorted({(6, 2), (8, 3), (10, 4), (12, 5), (14, 3), (200, 100), (4, 1)}
           | {(ell, ell // 2) for ell in range(2, 121, 2) if ell != 4}),
)
def test_selection_postconditions(ell, rho):
    sel = pf.select_factors(ell, rho)
    assert len(sel.factors) == rho
    # reps pairwise vertex-disjoint, each inside its factor
    used = set()
    for j, rep in enumerate(sel.reps):
        assert rep in sel.factors[j]
        assert not used & set(rep)
        used |= set(rep)
    # factors pairwise edge-disjoint => union has rho*ell/2 edges
    edges = {e for f in sel.factors for e in f}
    assert len(edges) == rho * ell // 2
