"""Exact and heuristic solvers for the maximum partial parallel class.

A partial parallel class (PPC) of a partial triple system is a set of
pairwise vertex-disjoint blocks.  No PPC is larger than a point set meeting
every block (weak duality, nu <= tau), so a class and a transversal of the
same size prove the maximum, with the transversal as the certificate.
``solve_max_ppc`` finds the exact maximum, or its best class when its node
budget runs out; ``greedy_ppc`` and ``greedy_transversal`` give quick lower
and upper bounds; ``certify`` checks a class against a cover in O(b),
without any search.  ``extension_profile`` reports how a maximum class
connects to the uncovered points -- certifying either that the standard
swap arguments cannot grow the class, or that it was not maximum after all.
"""

from bisect import bisect_left
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple, Union

from .core import NODE_LIMIT, Block, Design, Exhausted, SearchTooDeep, ToolkitError


class NotMaximum(ToolkitError):
    """The PPC handed to ``extension_profile`` can be enlarged."""


class BadCertificate(ToolkitError):
    """A claimed class is not disjoint blocks of the design, or its cover fails."""


class PpcResult(NamedTuple):
    size: int
    witness: Tuple[Block, ...]
    optimal: bool
    nodes: int
    # the root transversal when it proved the optimum (len(cover) == size),
    # else (): a point set meeting every block, checkable in O(b)
    cover: Tuple[int, ...] = ()


def greedy_ppc(design: Design) -> List[Block]:
    """First-fit disjoint blocks; a quick lower bound for the exact search."""
    used = 0
    out = []
    for a, b, c in design.blocks:
        bits = (1 << a) | (1 << b) | (1 << c)
        if used & bits:
            continue
        used |= bits
        out.append((a, b, c))
    return out


def _through(design: Design) -> List[int]:
    """Bitmask of the block indices through each point."""
    through = [0] * design.v
    for i, (a, b, c) in enumerate(design.blocks):
        bit = 1 << i
        through[a] |= bit
        through[b] |= bit
        through[c] |= bit
    return through


def greedy_transversal(design: Design) -> Tuple[int, ...]:
    """A point set meeting every block; a quick upper bound on the PPC.

    Repeatedly takes the point that meets the most blocks not yet met,
    lowest label on ties.  The blocks of a PPC are disjoint, so each needs
    its own transversal point: no PPC is larger than any transversal.
    """
    return _greedy_transversal(_through(design), design.b)


def _greedy_transversal(through: List[int], b: int) -> Tuple[int, ...]:
    """``greedy_transversal`` on a ``_through`` table of ``b`` blocks.

    A point that meets no unmet block never meets one again, so each round
    scans only the points left live by the round before, in increasing
    order.
    """
    unmet = (1 << b) - 1
    live: Sequence[int] = range(len(through))
    cover = []
    while unmet:
        x, most = -1, 0
        alive = []
        for p in live:
            deg = (through[p] & unmet).bit_count()
            if deg:
                alive.append(p)
                if deg > most:  # strict: the lowest label wins a tie
                    x, most = p, deg
        cover.append(x)
        unmet &= ~through[x]
        live = alive
    return tuple(sorted(cover))


def solve_max_ppc(design: Design, budget: int = NODE_LIMIT) -> PpcResult:
    """Exact maximum PPC via branch and bound on block bitmasks.

    A greedy incumbent seeds the search and one greedy transversal, taken
    at the root, caps it: no class outgrows a transversal, so the search
    stops as soon as the incumbent is as large.  Every factor-join design
    has a transversal of size rho (its apex points), and its search closes
    this way at node 1 when the greedy transversal and class both reach
    rho.  The transversal is then returned as ``cover``, an optimality
    certificate checkable in O(b); otherwise ``cover`` is ().  The clash
    table (for each block, the blocks meeting it) is built only when the
    root does not close: only the search below the root chooses blocks.

    Below the root the search branches on the point with the fewest usable
    blocks, lowest label on ties: either some block through that point
    joins the class, or the point is skipped, which discards every block
    through it.  A point is free while some usable block passes through it,
    and the bound ``chosen + free_points // 3`` prunes.  Skipping the
    branching point leaves it dead, so the skip child is entered only when
    ``chosen + (free_points - 1) // 3`` beats the incumbent; a child that
    bound rules out holds no larger class, so a search that ends within its
    budget gives the same answer as with the check at the child's entry, in
    fewer nodes.  Usable blocks only shrink down the tree, so a point once
    dead stays dead: each node scans just the points still free at its
    parent and hands its own free points, in increasing order, to its
    children.  The root transversal comes from the same block table as the
    search.  If the ``budget`` nodes (by default ``NODE_LIMIT``) run out,
    the best class found so far is returned with ``optimal=False``.  Raises
    ``SearchTooDeep`` when the search nests deeper than the interpreter's
    recursion limit.
    """
    v = design.v
    blocks = design.blocks
    through = _through(design)
    best = greedy_ppc(design)
    best_size = len(best)
    cover = _greedy_transversal(through, len(blocks))
    # choosing block i discards every block that meets it; a closed root chooses none
    clash = [] if best_size == len(cover) else [
        through[a] | through[b] | through[c] for a, b, c in blocks]
    chosen: List[int] = []
    nodes = 0

    def rec(usable: int, live: Sequence[int]) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > budget:
            raise Exhausted("exact PPC search", budget)
        if best_size == len(cover):  # no class outgrows a transversal
            return
        x, fewest = -1, len(blocks) + 1
        alive: List[int] = []
        for p in live:
            deg = (through[p] & usable).bit_count()
            if deg:
                alive.append(p)
                if deg < fewest:
                    x, fewest = p, deg
        if len(chosen) + len(alive) // 3 <= best_size:
            return
        if x < 0:  # no free point: the bound above returned unless chosen beats best
            best_size = len(chosen)
            best = [blocks[i] for i in chosen]
            return
        scan = through[x] & usable
        while scan:
            low = scan & -scan
            scan ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            rec(usable & ~clash[i], alive)
            chosen.pop()
        # skipping x discards every block through it and kills x, so that
        # child has at most len(alive) - 1 free points
        if len(chosen) + (len(alive) - 1) // 3 > best_size:
            rec(usable & ~through[x], alive)

    optimal = True
    if blocks:
        try:
            rec((1 << len(blocks)) - 1, range(v))
        except Exhausted:
            optimal = False
        except RecursionError:
            raise SearchTooDeep("exact PPC search", v) from None
    return PpcResult(
        size=best_size,
        witness=tuple(sorted(best)),
        optimal=optimal,
        nodes=nodes,
        cover=cover if optimal and best_size == len(cover) else (),
    )


def class_points(design: Design, blocks: Sequence[Block]) -> Set[int]:
    """The points a claimed class covers.

    Raises ``BadCertificate`` unless every block is a block of the design
    and no two blocks share a point.  The design's blocks are canonical and
    sorted, so each class block is looked up by bisection.
    """
    rows = design.blocks
    covered: Set[int] = set()
    for blk in blocks:
        key = tuple(sorted(blk))
        try:
            i = bisect_left(rows, key)
        except TypeError:  # points that do not compare with ints match no block
            i = len(rows)
        if i == len(rows) or rows[i] != key:
            raise BadCertificate(f"class block {blk} is not in the design")
        for p in blk:
            if p in covered:
                raise BadCertificate(f"class reuses point {p}")
            covered.add(p)
    return covered


def certify(design: Design, klass: Sequence[Block], cover: Sequence[int]) -> int:
    """Prove in O(b) that ``klass`` is a maximum PPC of ``design``.

    ``klass`` must be ``len(cover)`` pairwise disjoint blocks of the design
    and every block must meet ``cover``.  Each class block then holds its
    own cover point, so no class is larger (nu <= tau) and the maximum is
    ``len(cover)``, which is returned.  Raises ``BadCertificate`` naming
    the first check that fails.
    """
    if len(klass) != len(cover):
        raise BadCertificate(
            f"class of {len(klass)} blocks against a cover of {len(cover)} points")
    class_points(design, klass)
    met = set(cover)
    # the largest point first: a factor join's apex points are its top labels
    for a, b, c in design.blocks:
        if c not in met and b not in met and a not in met:
            raise BadCertificate(f"block {(a, b, c)} misses the cover")
    return len(cover)


class ExtensionProfile(NamedTuple):
    """How the points of a maximum PPC connect to the uncovered part.

    ``t`` maps each covered point x to the number of blocks through x whose
    other two points lie outside the class; by linearity those blocks use
    pairwise disjoint uncovered pairs.  ``x0`` lists the covered points with
    t > 0.  Each class block is tagged with the case that applies to it:
    condition 1 (meets x0 in at least two points, t-sum at most 6) or
    condition 2 (at most one x0 point, t-sum at most (v - 3*size)/2).
    ``condition2_tight`` lists the condition-2 blocks where the bound holds
    with equality.  After the swap check (NotMaximum) each t of a
    condition-1 block is at most 2; only a ``Design`` built without
    ``validate`` can break condition 2 (RuntimeError).  ``t`` is in the repr.
    """

    size: int
    t: Dict[int, int]
    p: Tuple[int, ...] = ()
    x0: Tuple[int, ...] = ()
    block_conditions: Tuple[Tuple[Block, int], ...] = ()
    condition2_tight: Tuple[Block, ...] = ()


def extension_profile(
    design: Design, ppc: Union[PpcResult, Sequence[Block]]
) -> ExtensionProfile:
    """Profile a maximum PPC; raise NotMaximum when it provably is not.

    Accepts the solver's result (it must be a proven optimum) or a bare
    block sequence.  Two certificates of non-maximality are checked.
    First, a block disjoint from the class extends it directly.  Second, a
    class block {x, y, z} with t_x >= 3 and t_y >= 1 can be traded away:
    pick a block through y into the uncovered part, then one of the >= 3
    disjoint uncovered pairs at x avoids it, giving two disjoint
    replacements for one removed block.  Three lookups in a list marking
    the class points classify each block; t is counted in a list too.
    """
    if isinstance(ppc, PpcResult):
        if not ppc.optimal:
            raise ToolkitError("profile needs a proven-maximum class")
        ppc = ppc.witness
    points = tuple(sorted(class_points(design, ppc)))
    marked, hang = [0] * design.v, [0] * design.v
    for p in points:
        marked[p] = 1
    for a, b, c in design.blocks:
        inside = marked[a] + marked[b] + marked[c]
        if inside == 1:
            hang[a if marked[a] else b if marked[b] else c] += 1
        elif not inside:
            raise NotMaximum(
                f"block ({a},{b},{c}) is disjoint from the class; "
                f"size {len(ppc)} is not maximum"
            )
    t: Dict[int, int] = {p: hang[p] for p in points}
    x0 = tuple(p for p in points if hang[p])

    v = design.v
    rho = len(ppc)
    tags: List[Tuple[Block, int]] = []
    tight: List[Block] = []
    for blk in sorted(tuple(sorted(b)) for b in ppc):
        key: Block = blk  # type: ignore[assignment]
        counts = sorted((t[p] for p in key), reverse=True)
        if counts[0] >= 3 and counts[1] >= 1:
            raise NotMaximum(
                f"class block {key} trades for two blocks through its "
                f"high-t points; size {rho} is not maximum"
            )
        ssum = sum(counts)
        if counts[1]:  # two points of key in x0; the swap check left each t <= 2
            tags.append((key, 1))
        else:
            tags.append((key, 2))
            # exact integer form of ssum <= (v - 3*rho)/2
            if 2 * ssum > v - 3 * rho:
                raise RuntimeError(
                    f"block {key} has t-sum {ssum} > (v-3*rho)/2; "
                    f"impossible for a valid design, input must be corrupt"
                )
            if 2 * ssum == v - 3 * rho:
                tight.append(key)
    return ExtensionProfile(
        size=rho,
        t=t,
        p=points,
        x0=x0,
        block_conditions=tuple(tags),
        condition2_tight=tuple(tight),
    )
