"""Brute-force ground truth for tiny instances.

These routines trade speed for transparency: plain enumeration of disjoint
block sets with no clever bounds beyond feasibility pruning, so their
answers can serve as an independent check on the optimized solver and on
the construction claims.  ``brute_max_ppc`` enumerates disjoint block
subsets directly; ``brute_beta`` enumerates partial Steiner triple systems
themselves (anchored at a first block, which is harmless by relabeling) and
reports the largest block count among those whose maximum PPC is exactly
rho.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import Block, Budget, Design, Exhausted, ToolkitError


class TooLarge(ToolkitError):
    """Instance exceeds the deliberate size cap of the brute-force oracle."""


def _max_ppc_masks(masks: List[int]) -> int:
    """Largest set of pairwise disjoint masks, extending each set by a
    later disjoint mask in every possible way."""
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(masks)):
            if used & masks[j] == 0:
                rec(j + 1, used | masks[j], size + 1)

    rec(0, 0, 0)
    return best


def brute_max_ppc(design: Design, cap: int = 25) -> int:
    """Maximum PPC size by enumerating every set of disjoint blocks."""
    if design.b > cap:
        raise TooLarge(f"{design.b} blocks exceeds the oracle cap of {cap}")
    return _max_ppc_masks([(1 << x) | (1 << y) | (1 << z) for x, y, z in design.blocks])


@dataclass(frozen=True)
class BetaResult:
    value: int
    witness: Tuple[Block, ...]
    nodes: int
    complete: bool  # False = budget ran out, value is only a lower bound


def brute_beta(rho: int, v: int, budget: int = 50_000_000, cap: int = 8) -> BetaResult:
    """beta(rho, v) by exhaustive search over PSTS(v) block sets.

    Enumerates designs as lexicographically increasing chains of triples
    starting from the anchored first block (0,1,2) -- every nonempty design
    can be relabeled to contain it, and relabeling changes neither the
    block count nor the maximum PPC.  A branch dies when its maximum PPC
    already exceeds rho (adding blocks never shrinks the maximum), and a
    bound on the remaining compatible triples prunes hopeless chains.
    """
    if v > cap:
        raise TooLarge(f"v={v} exceeds the oracle cap of {cap}")
    if rho < 1 or v < 3 * rho:
        raise ValueError(f"need 1 <= rho and v >= 3*rho, got rho={rho}, v={v}")

    triples: List[Block] = list(combinations(range(v), 3))
    tri_mask = {t: (1 << t[0]) | (1 << t[1]) | (1 << t[2]) for t in triples}

    def pairs(t: Block) -> List[Tuple[int, int]]:
        a, b, c = t
        return [(a, b), (a, c), (b, c)]

    counter = Budget(budget, "beta search")
    best_value = 0
    best_witness: Tuple[Block, ...] = ()
    anchor = (0, 1, 2)

    cur: List[Block] = []
    cur_masks: List[int] = []
    used_pairs: set = set()

    def max_ppc_with(new_mask: int) -> int:
        """Maximum PPC of cur + the new block, reusing that any improving
        class must contain the new block (older classes were already
        counted when their blocks arrived)."""
        rest = [m for m in cur_masks if m & new_mask == 0]
        return 1 + _max_ppc_masks(rest)

    def rec(start_idx: int, cur_max: int) -> None:
        nonlocal best_value, best_witness
        counter.tick()
        if cur_max == rho and len(cur) > best_value:
            best_value = len(cur)
            best_witness = tuple(cur)
        # optimistic bound: every remaining compatible triple joins
        compat = [
            i
            for i in range(start_idx, len(triples))
            if not any(p in used_pairs for p in pairs(triples[i]))
        ]
        if len(cur) + len(compat) <= best_value:
            return
        for i in compat:
            t = triples[i]
            m = tri_mask[t]
            new_max = max(cur_max, max_ppc_with(m))
            if new_max > rho:
                continue
            cur.append(t)
            cur_masks.append(m)
            for p in pairs(t):
                used_pairs.add(p)
            rec(i + 1, new_max)
            for p in pairs(t):
                used_pairs.discard(p)
            cur_masks.pop()
            cur.pop()

    anchor_idx = triples.index(anchor)
    cur.append(anchor)
    cur_masks.append(tri_mask[anchor])
    for p in pairs(anchor):
        used_pairs.add(p)
    complete = True
    try:
        rec(anchor_idx + 1, 1)
    except Exhausted:
        complete = False
    return BetaResult(best_value, best_witness, counter.nodes, complete)
