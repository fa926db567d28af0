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

from itertools import combinations
from typing import List, NamedTuple, Tuple

from .bounds import _in_domain
from .core import NODE_LIMIT, Block, Design, Exhausted, ToolkitError


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


def brute_max_ppc(design: Design) -> int:
    """Maximum PPC size by enumerating every set of disjoint blocks, of 25 at most."""
    if design.b > 25:
        raise ToolkitError(f"{design.b} blocks exceeds the oracle cap of 25")
    return _max_ppc_masks([(1 << x) | (1 << y) | (1 << z) for x, y, z in design.blocks])


class BetaResult(NamedTuple):
    value: int
    witness: Tuple[Block, ...]
    nodes: int
    complete: bool  # False = budget ran out, value is only a lower bound


def brute_beta(rho: int, v: int, budget: int = NODE_LIMIT) -> BetaResult:
    """beta(rho, v) by exhaustive search over PSTS(v) block sets.

    Enumerates designs as lexicographically increasing chains of triples
    starting from the anchored first block (0,1,2) -- every nonempty design
    can be relabeled to contain it, and relabeling changes neither the
    block count nor the maximum PPC.  A branch dies when its maximum PPC
    already exceeds rho (adding blocks never shrinks the maximum), and a
    bound on the remaining compatible triples prunes hopeless chains.  Each
    triple's three pairs {a, b} are the bits a*v + b of one mask, and a
    chain's compatible triples are its parent's, past the new triple,
    whose pairs miss the new triple's.

    The search gets ``budget`` nodes, by default ``NODE_LIMIT``; when they
    run out, ``complete`` is False and ``value`` is only a lower bound.
    v is capped at 9: the pair masks alone take C(v,3) * v**2 bits.
    """
    if v > 9:
        raise ToolkitError(f"v={v} exceeds the oracle cap of 9")
    _in_domain(rho, v)

    triples: List[Block] = list(combinations(range(v), 3))
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triples]
    pair_masks = [(1 << (a * v + b)) | (1 << (a * v + c)) | (1 << (b * v + c))
                  for a, b, c in triples]

    nodes = 0
    best_value = 0
    best_witness: Tuple[Block, ...] = ()
    cur: List[int] = [0]  # triple indices; triples[0] is the anchor (0,1,2)

    def max_ppc_with(new_mask: int) -> int:
        """Maximum PPC of cur + the new block, reusing that any improving
        class must contain the new block (older classes were already
        counted when their blocks arrived)."""
        rest = [masks[i] for i in cur if masks[i] & new_mask == 0]
        return 1 + _max_ppc_masks(rest)

    def rec(compat: List[int], cur_max: int) -> None:
        nonlocal best_value, best_witness, nodes
        nodes += 1
        if nodes > budget:
            raise Exhausted("beta search", budget)
        if cur_max == rho and len(cur) > best_value:
            best_value = len(cur)
            best_witness = tuple(triples[i] for i in cur)
        # optimistic bound: every remaining compatible triple joins
        if len(cur) + len(compat) <= best_value:
            return
        for k, i in enumerate(compat):
            new_max = max(cur_max, max_ppc_with(masks[i]))
            if new_max > rho:
                continue
            pairs = pair_masks[i]
            cur.append(i)
            rec([j for j in compat[k + 1:] if not pair_masks[j] & pairs], new_max)
            cur.pop()

    complete = True
    try:
        rec([j for j in range(1, len(triples)) if not pair_masks[j] & pair_masks[0]], 1)
    except Exhausted:
        complete = False
    return BetaResult(best_value, best_witness, nodes, complete)
