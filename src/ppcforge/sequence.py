"""Sequenceability of partial triple systems.

A PSTS(v) is sequenceable when some permutation of its points has no run of
3t consecutive entries (for any t up to floor(v/3)) whose point set is a
union of t blocks.  Because blocks have size 3, "union of t blocks" on 3t
points means an exact partition into t blocks, which is what the window
check decides.  The t blocks of such a window form a PPC, and each holds its
own point of any transversal, so t <= nu <= tau: only windows with t up to
the size tau of one greedy transversal are ever tested.
``check_sequencing`` referees a permutation.  ``find_sequencing`` searches
for one, and calls a design nonsequenceable only on a proof: a spanning
class or an exhausted search tree, never a budget that ran out.
``sufficient_conditions`` evaluates the known PPC-based guarantees under
which a sequencing must exist.
"""

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import (NODE_LIMIT, Design, Exhausted, ParseError, SearchTooDeep, ToolkitError,
                   read_text)
from .ppc import greedy_transversal


class Sequencing(NamedTuple):
    perm: Tuple[int, ...]
    valid: bool
    violation: Optional[Tuple[int, int]] = None  # (t, window start)


class SearchOutcome(NamedTuple):
    sequencing: Optional[Sequencing]
    proven_nonsequenceable: bool
    nodes: int
    proof: Optional[str] = None  # "spanning class" or "exhaustion" when proven

    @property
    def found(self) -> bool:
        return self.sequencing is not None


class _WindowOracle:
    """Memoized exact-partition test on point bitmasks.

    A mask partitions iff some block through its lowest point lies inside
    the mask and the remainder partitions.  Only blocks fully inside the
    window can participate, which the subset test enforces for free.  The
    blocks of a partition are disjoint and each holds a point of the
    transversal ``cover``, so a mask with fewer than |mask|/3 cover points
    fails at once.  ``partitions`` answers a memo hit or such a reject
    before it allocates anything.  A queried mask with no block inside it
    through its lowest point is rejected by one scan of that point's blocks
    and not memoized: a window check asks about most windows once, so its
    verdict would only grow the memo.  Otherwise ``partitions`` walks the
    remainders from a list, not by recursion, so any window is tested.  The
    mask and each remainder it explores are memoized False, since other
    walks meet remainders again, and on success those entries give way to
    one True for the queried mask.
    """

    def __init__(self, design: Design):
        self.by_point: List[List[int]] = [[] for _ in range(design.v)]
        for a, b, c in design.blocks:
            m = (1 << a) | (1 << b) | (1 << c)
            self.by_point[a].append(m)
            self.by_point[b].append(m)
            self.by_point[c].append(m)
        transversal = greedy_transversal(design)
        self.tau = len(transversal)  # no window with t > tau partitions
        self.cover = sum(1 << p for p in transversal)
        self.memo: Dict[int, bool] = {0: True}

    def partitions(self, mask: int) -> bool:
        memo, cover, by_point = self.memo, self.cover, self.by_point
        known = memo.get(mask)
        if known is not None:
            return known
        if 3 * (mask & cover).bit_count() < mask.bit_count():
            return False
        p = (mask & -mask).bit_length() - 1
        todo = [mask & ~bm for bm in by_point[p] if bm & mask == bm]
        if not todo:
            return False
        memo[mask] = False
        explored = [mask]  # False in the memo unless this call succeeds
        while todo:
            m = todo.pop()
            known = memo.get(m)
            if known:  # m partitions, so mask does
                for m in explored:
                    del memo[m]
                memo[mask] = True
                return True
            if known is None and 3 * (m & cover).bit_count() >= m.bit_count():
                memo[m] = False
                explored.append(m)
                p = (m & -m).bit_length() - 1
                todo += [m & ~bm for bm in by_point[p] if bm & m == bm]
        return False


def check_sequencing(design: Design, perm: Sequence[int]) -> Sequencing:
    """Decide whether ``perm`` sequences the design.

    Scans every window of 3t consecutive points for t = 1..min(floor(v/3),
    tau), tau the size of a greedy transversal (no window with t > tau can
    partition); the first window that is exactly a union of t blocks is
    reported as the violation (t, start).
    """
    v = design.v
    perm = tuple(perm)
    # ints only, as validate's points: type(), since bool subclasses int
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(v)):
        raise ToolkitError(f"expected a permutation of 0..{v - 1}")
    violation = _first_union(_WindowOracle(design), perm)
    return Sequencing(perm, violation is None, violation)


def _first_union(oracle: _WindowOracle, perm: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """The first window (t, start) of ``perm`` that ``oracle`` partitions,
    t = 1, 2, ... and each t left to right, or None when no window does."""
    v = len(perm)
    for t in range(1, min(v // 3, oracle.tau) + 1):
        width = 3 * t
        mask = 0
        for i in range(width):
            mask |= 1 << perm[i]
        start = 0
        while True:
            if oracle.partitions(mask):
                return t, start
            if start + width >= v:
                break
            mask &= ~(1 << perm[start])
            mask |= 1 << perm[start + width]
            start += 1
    return None


def find_sequencing(design: Design, budget: int = NODE_LIMIT) -> SearchOutcome:
    """Search for a valid sequencing by backtracking over prefixes.

    A prefix dies as soon as any suffix window of it (length 3t ending at
    the newest point) is a union of t blocks, so every full permutation the
    search emits is already valid.  Children are tried in increasing point
    order, so the sequencing returned is the first valid permutation in
    lexicographic order.

    ``proven_nonsequenceable`` is set by one of two proofs, named in
    ``proof``.  When v is a multiple of 3 and the whole point set is a union
    of v/3 blocks (a spanning class), the last window of every permutation
    partitions, and the search closes at node 1 ("spanning class").
    Otherwise a proof needs the whole tree exhausted within ``budget`` nodes
    ("exhaustion") -- no symmetry shortcuts are taken, since sequencings
    are not closed under relabeling-free transforms other than reversal.

    Only windows with t up to the size tau of the oracle's transversal are
    built: no other window partitions, so the tree is the one all windows
    give.  Each window of 3t-1 placed points keeps two search-wide masks:
    the points tested with it (``tested``) and those that complete it to a
    union of t blocks (``kills``).  A node drops the killed points from its
    candidates window by window, from t = tau down to t = 1, since the
    widest window is the one most nodes die at, and returns as soon as none
    is left.  A candidate some window has not yet tested goes to the oracle
    in increasing t, so the order of the windows changes no answer and no
    node count.  The permutation found is checked against the search's own
    oracle: its memo answers the windows whose verdicts it kept, and a
    window whose False verdict was not kept (no block inside it through its
    lowest point) is re-derived by one scan of that point's blocks.
    ``budget`` defaults to ``NODE_LIMIT``, the node limit of every
    search; a search that runs out of it finds and proves nothing.  Raises
    ``SearchTooDeep`` when the search nests deeper than the interpreter's
    recursion limit.
    """
    v = design.v
    oracle = _WindowOracle(design)
    partitions = oracle.partitions
    nodes = 0
    # placed[d] holds the bits of the first d placed points, so the window of
    # the placed points from position lo on is placed[depth] ^ placed[lo]
    placed = [0] * (v + 1)
    # widest[depth] lists those lo for the windows of 3t-1 placed points that
    # a new point completes to 3t, for t = tau..1: the widest window first
    widest = [tuple(range(max((d - 2) % 3, d + 1 - 3 * oracle.tau), d - 1, 3)) for d in range(v)]
    # window of 3t-1 placed points -> the points tested with it, and the
    # points that complete it to a union of t blocks; one entry per window
    # for the whole search, so no (window, point) pair is tested twice
    tested: Dict[int, int] = {}
    kills: Dict[int, int] = {}
    tried = tested.get
    killed = kills.get

    def completes(here: int, depth: int, bit: int) -> bool:
        # a point already tested with a window does not complete it: the
        # completers left the candidates, and no descendant shares these
        # windows (each of its windows holds a point not placed here)
        for lo in reversed(widest[depth]):
            window = here ^ placed[lo]
            done = tried(window, 0)
            if not done & bit:
                tested[window] = done | bit
                if partitions(window | bit):
                    kills[window] = killed(window, 0) | bit
                    return True
        return False

    def extend(free: int, depth: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise Exhausted("sequencing search", budget)
        if depth == v:
            return True
        here = placed[depth]
        candidates = free
        seen = -1  # points every window has tested; they pass them all
        for lo in widest[depth]:
            window = here ^ placed[lo]
            candidates &= ~killed(window, 0)
            if not candidates:
                return False
            seen &= tried(window, 0)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            if not bit & seen and completes(here, depth, bit):
                continue
            placed[depth + 1] = here | bit
            if extend(free ^ bit, depth + 1):
                return True
        return False

    # a budget below 1 skips the proof and runs out at the search's first node
    if budget >= 1 and v % 3 == 0 and partitions((1 << v) - 1):  # the proof's one node
        return SearchOutcome(None, True, 1, "spanning class")
    try:
        found = extend((1 << v) - 1, 0)
    except Exhausted:
        return SearchOutcome(None, False, nodes)
    except RecursionError:
        raise SearchTooDeep("sequencing search", v) from None
    if not found:
        return SearchOutcome(None, True, nodes, "exhaustion")
    perm = tuple((placed[d + 1] ^ placed[d]).bit_length() - 1 for d in range(v))
    # the search tested every window of perm, so this self-check answers
    # each from the oracle's memo, its cover count or one scan of a point
    assert _first_union(oracle, perm) is None
    return SearchOutcome(Sequencing(perm, True), False, nodes)


def sufficient_conditions(design: Design, rho: int) -> set:
    """Which of the known sequenceability guarantees apply, given the
    proven maximum PPC size rho.

    C1: rho <= 3 and v > 3*rho.  (At v = 3*rho the maximum class spans
    every point, so the whole permutation is a window it partitions.)
    C2: v >= 15*rho - 5.  C3: v >= 9*rho + 22*rho^(2/3) + 10,
    evaluated exactly: with m = v - 9*rho - 10, the condition is m >= 0 and
    m^3 >= 22^3 * rho^2 (cubing avoids any floating-point root).
    """
    v = design.v
    out = set()
    if rho <= 3 and v > 3 * rho:
        out.add("C1")
    if v >= 15 * rho - 5:
        out.add("C2")
    m = v - 9 * rho - 10
    if m >= 0 and m**3 >= 10648 * rho * rho:
        out.add("C3")
    return out


def sequencing_to_text(v: int, perm: Sequence[int]) -> str:
    return f"v={v}\n" + " ".join(str(p) for p in perm) + "\n"


def sequencing_from_text(text: str) -> Tuple[int, Tuple[int, ...]]:
    """Read what ``sequencing_to_text`` writes; the entries may span lines."""
    v, records = read_text(text, "v")
    perm: List[int] = []
    for lineno, line in records:
        try:
            perm.extend(map(int, line.split()))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer entry in {line!r}") from exc
    return v, tuple(perm)
