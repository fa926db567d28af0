"""Builders for partial Steiner triple systems with a prescribed maximum PPC.

The core family ("factor join"): take rho pairwise edge-disjoint one-factors
F_1..F_rho of K_ell together with independent representative edges e_j in
F_j, adjoin a fresh apex point s_j to every edge of F_j, and the result is a
PSTS(rho + ell) with rho*ell/2 blocks whose maximum partial parallel class
has size exactly rho: the blocks holding e_1..e_rho are disjoint, and every
block meets the apex set S, so no rho+1 disjoint blocks exist.  Variants:

* ``factor_join_packed`` adds a maximum packing of triples on S itself
  (D(rho) extra blocks, still every block meets S).
* ``factor_join_odd`` handles odd v - rho: build the packed design on ell
  points with ell > 2*rho, pick a point of T outside all representative
  edges, delete it together with the rho blocks through it, and relabel.

``construct_bose`` builds the classic STS(v) for v = 3 mod 6 over
Z_n x {0,1,2}, which contains a full parallel class.  ``max_packing``
supplies the D(rho)-block packings; ``check_sts27_triples`` verifies the
eight stored sum-zero triples over Z_5 x Z_5 that witness a PPC of size 8
inside a parallel-class-free STS(27).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import packing_number
from .core import Block, Budget, Design, OutOfRange, ToolkitError, validate
from .onefactor import FactorSelection, select_factors

Vec = Tuple[int, int]


class PackingShortfall(ToolkitError):
    """No packing with D(rho) blocks: rho is above the search cap, the
    target exceeds the pair supply, or a complete search found none."""


class BadResidue(ToolkitError):
    """The Bose construction needs v = 3 mod 6."""


class NoDeletablePoint(ToolkitError):
    """No point of T avoids every representative edge (needs ell > 2*rho)."""


class SumViolation(ToolkitError):
    """A stored triple does not sum to (0,0) over Z_5 x Z_5."""


class NotDisjoint(ToolkitError):
    """The stored triples repeat a point."""


@dataclass(frozen=True)
class ConstructionWitness:
    """A built design plus the certificate of its claimed maximum PPC.

    ``witness_ppc`` holds rho pairwise disjoint blocks (the representative
    blocks), and ``s_points`` the apex labels; every block of a factor-join
    design meets ``s_points``, which is what caps the PPC at rho.
    """

    design: Design
    rho: int
    witness_ppc: Tuple[Block, ...]
    s_points: Tuple[int, ...]


def _apex_blocks(sel: FactorSelection, rho: int, ell: int) -> List[Block]:
    out = []
    for j, factor in enumerate(sel.factors):
        s = ell + j
        for a, b in factor:
            out.append((a, b, s))
    return out


def factor_join(rho: int, ell: int, strategy: str = "room") -> ConstructionWitness:
    """PSTS(rho + ell) with rho*ell/2 blocks and maximum PPC exactly rho.

    Requires ell even, ell >= 2*rho, (ell, rho) != (4, 2).
    """
    sel = select_factors(ell, rho, strategy)
    v = rho + ell
    blocks = _apex_blocks(sel, rho, ell)
    assert len(blocks) == rho * ell // 2
    design = validate(v, blocks)
    witness = tuple(sorted((a, b, ell + j) for j, (a, b) in enumerate(sel.reps)))
    return ConstructionWitness(design, rho, witness, tuple(range(ell, ell + rho)))


def factor_join_packed(
    rho: int, ell: int, strategy: str = "room"
) -> ConstructionWitness:
    """PSTS(rho + ell) with rho*ell/2 + D(rho) blocks and maximum PPC rho.

    The extra blocks are a maximum packing placed on the apex points; they
    keep every block meeting S, so the PPC cap still holds.  Relative to the
    witness class the uncovered points are U = T minus the representative
    points, so witness block j meets the counting condition
    2 * t-sum <= v - 3*rho with equality exactly when F_j pairs the points
    of U among themselves.  That is promised only for rho = 1 or
    ell = 2*rho; the factors chosen here need not reach it otherwise.
    """
    sel = select_factors(ell, rho, strategy)
    v = rho + ell
    blocks = _apex_blocks(sel, rho, ell)
    for p, q, r in max_packing(rho).blocks:
        blocks.append((ell + p, ell + q, ell + r))
    assert len(blocks) == rho * ell // 2 + packing_number(rho)
    design = validate(v, blocks)
    witness = tuple(sorted((a, b, ell + j) for j, (a, b) in enumerate(sel.reps)))
    return ConstructionWitness(design, rho, witness, tuple(range(ell, ell + rho)))


def factor_join_odd(
    rho: int, ell: int, strategy: str = "room"
) -> ConstructionWitness:
    """PSTS(rho + ell - 1) with rho*ell/2 + D(rho) - rho blocks, max PPC rho.

    Start from ``factor_join_packed(rho, ell)`` with ell > 2*rho, delete the
    smallest T-point lying on no representative edge together with the rho
    blocks through it, and close the label gap.  The witness class survives
    untouched (its blocks only use representative points), so the maximum
    PPC is still exactly rho.
    """
    packed = factor_join_packed(rho, ell, strategy)
    rep_points = {p for blk in packed.witness_ppc for p in blk if p < ell}
    eligible = [x for x in range(ell) if x not in rep_points]
    if not eligible:
        raise NoDeletablePoint(
            f"every T-point lies on a representative edge (ell={ell}, rho={rho})"
        )
    x = eligible[0]

    def relabel(p: int) -> int:
        return p - 1 if p > x else p

    kept = [blk for blk in packed.design.blocks if x not in blk]
    assert len(packed.design.blocks) - len(kept) == rho
    blocks = [tuple(sorted(relabel(p) for p in blk)) for blk in kept]
    v = rho + ell - 1
    design = validate(v, blocks)
    witness = tuple(
        sorted(tuple(sorted(relabel(p) for p in blk)) for blk in packed.witness_ppc)
    )
    s_points = tuple(range(ell - 1, ell - 1 + rho))
    return ConstructionWitness(design, rho, witness, s_points)


FACTOR_JOINS = {"pure": factor_join, "packed": factor_join_packed, "trimmed": factor_join_odd}


def sweep_grid(rho_max: int = 5, ell_max: int = 24) -> List[Tuple[str, int, int]]:
    """The (variant, rho, ell) builds of the construction sweep.

    Every rho up to ``rho_max`` and even ell from 2*rho up to ``ell_max``,
    pure and packed, plus trimmed where ell > 2*rho.  (ell, rho) = (4, 2)
    is left out: two vertex-disjoint edges of K_4 always lie in one
    one-factor, so no two factors have independent representatives.  The
    defaults give the 143 builds of the acceptance sweep.
    """
    out = []
    for rho in range(1, rho_max + 1):
        for ell in range(2 * rho, ell_max + 1, 2):
            if (ell, rho) == (4, 2):
                continue
            out += [("pure", rho, ell), ("packed", rho, ell)]
            if ell > 2 * rho:
                out.append(("trimmed", rho, ell))
    return out


# Maximum packings on small point counts, one per rho; block counts equal
# packing_number(rho).  rho=7 is the projective plane of order 2 developed
# from the difference set {0,1,3}; rho=8 and 9 come from the 12 lines of the
# 3x3 affine plane (rho=8 keeps the 8 lines missing the last point).
_AFFINE9: Tuple[Block, ...] = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6),
)
_PACKINGS: Dict[int, Tuple[Block, ...]] = {
    1: (),
    2: (),
    3: ((0, 1, 2),),
    4: ((0, 1, 2),),
    5: ((0, 1, 2), (0, 3, 4)),
    6: ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)),
    7: tuple(
        sorted(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
    ),
    8: tuple(sorted(b for b in _AFFINE9 if 8 not in b)),
    9: _AFFINE9,
}


def _packing_search(n: int, target: int, node_budget: int) -> List[Block]:
    """Find ``target`` pair-disjoint triples on 0..n-1 by branch and bound.

    Branches on the lowest pair not yet covered and not yet written off:
    either some triple through it joins the packing, or the pair is left
    uncovered, spending one unit of the leave budget C(n,2) - 3*target.
    Raises ``Exhausted`` past ``node_budget`` nodes.
    """
    pair_idx = {}
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            pair_idx[(a, b)] = k
            k += 1
    npairs = k
    leave_budget = npairs - 3 * target
    if leave_budget < 0:
        raise PackingShortfall(f"target {target} exceeds the pair supply on {n} points")
    chosen: List[Block] = []
    counter = Budget(node_budget, f"packing search for {target} triples on {n} points")

    def pi(a: int, b: int) -> int:
        return pair_idx[(a, b) if a < b else (b, a)]

    def rec(assigned: int, leaves: int) -> bool:
        if len(chosen) == target:
            return True
        counter.tick()
        idx = 0
        first = None
        for a in range(n):
            for b in range(a + 1, n):
                if not assigned & (1 << idx):
                    first = (a, b)
                    break
                idx += 1
            if first:
                break
        if first is None:
            return False
        a, b = first
        bit = 1 << idx
        for c in range(n):
            if c in (a, b):
                continue
            i1, i2 = pi(a, c), pi(b, c)
            if assigned & ((1 << i1) | (1 << i2)):
                continue
            chosen.append(tuple(sorted((a, b, c))))
            if rec(assigned | bit | (1 << i1) | (1 << i2), leaves):
                return True
            chosen.pop()
        if leaves > 0 and rec(assigned | bit, leaves - 1):
            return True
        return False

    if not rec(0, leave_budget):
        raise PackingShortfall(
            f"no packing with {target} triples on {n} points was found"
        )
    return sorted(chosen)


def max_packing(rho: int, cap: int = 13, node_budget: int = 20_000_000) -> Design:
    """A PSTS(rho) with the full packing_number(rho) blocks.

    Stored answers for rho <= 9, exact search above; the default cap keeps
    the search in territory where it finishes in well under a second.
    """
    if rho < 1:
        raise OutOfRange(f"need rho >= 1, got {rho}")
    if rho > cap:
        raise PackingShortfall(f"rho={rho} is above the search cap {cap}")
    if rho in _PACKINGS:
        return validate(rho, list(_PACKINGS[rho]))
    blocks = _packing_search(rho, packing_number(rho), node_budget)
    return validate(rho, blocks)


def construct_bose(v: int) -> ConstructionWitness:
    """The standard STS(v) for v = 3 mod 6, with its parallel class.

    Points are (x, j) for x in Z_n, j in {0,1,2}, labeled 3x+j, n = v/3 odd.
    Column triples {(x,0),(x,1),(x,2)} form the parallel class; the mixed
    triples are {(x,j),(y,j),((x+y)/2, j+1)} for x < y, halving mod n.
    """
    if v % 6 != 3:
        raise BadResidue(f"need v = 3 mod 6, got {v}")
    n = v // 3
    inv2 = (n + 1) // 2
    blocks: List[Block] = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            z = ((x + y) * inv2) % n
            for j in range(3):
                blocks.append(
                    tuple(sorted((3 * x + j, 3 * y + j, 3 * z + (j + 1) % 3)))
                )
    design = validate(v, blocks)
    assert design.b == v * (v - 1) // 6
    witness = tuple((3 * x, 3 * x + 1, 3 * x + 2) for x in range(n))
    return ConstructionWitness(design, n, witness, ())


def psts7_fixture() -> Design:
    """The 5-block PSTS(7) whose maximum PPC has size 2."""
    return validate(7, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 6), (2, 5, 6)])


# Eight triples over Z_5 x Z_5, each summing to (0,0), pairwise disjoint:
# together they cover all 24 nonzero points, witnessing a PPC of size 8 in
# an STS(27) (on Z_5 x Z_5 plus two extra points) with no parallel class.
STS27_TRIPLES: Tuple[Tuple[Vec, Vec, Vec], ...] = (
    ((1, 0), (1, 1), (3, 4)),
    ((2, 0), (2, 2), (1, 3)),
    ((3, 0), (3, 3), (4, 2)),
    ((4, 0), (4, 4), (2, 1)),
    ((0, 1), (3, 1), (2, 3)),
    ((0, 2), (1, 2), (4, 1)),
    ((0, 3), (1, 4), (4, 3)),
    ((0, 4), (3, 2), (2, 4)),
)


def check_sts27_triples(
    triples: Optional[Sequence[Tuple[Vec, Vec, Vec]]] = None,
) -> Tuple[Tuple[Vec, Vec, Vec], ...]:
    """Verify the sum-zero condition and disjointness of the stored triples.

    Each triple must sum to (0,0) componentwise mod 5, and no point may
    appear twice across (or within) triples.  Returns the checked triples.
    """
    checked = tuple(triples) if triples is not None else STS27_TRIPLES
    seen = set()
    for tri in checked:
        sx = sum(p[0] for p in tri) % 5
        sy = sum(p[1] for p in tri) % 5
        if (sx, sy) != (0, 0):
            pretty = ",".join(f"{p[0]}{p[1]}" for p in tri)
            raise SumViolation(f"triple {{{pretty}}} sums to ({sx},{sy}), not (0,0)")
        for p in tri:
            if not (0 <= p[0] < 5 and 0 <= p[1] < 5):
                raise OutOfRange(f"point {p} is outside Z_5 x Z_5")
            if p in seen:
                raise NotDisjoint(f"point {p[0]}{p[1]} appears in two triples")
            seen.add(p)
    return checked
