"""Builders for partial Steiner triple systems with a prescribed maximum PPC.

The core family ("factor join"): take rho pairwise edge-disjoint one-factors
F_1..F_rho of K_ell together with independent representative edges e_j in
F_j, adjoin a fresh apex point s_j to every edge of F_j, and the result is a
PSTS(rho + ell) with rho*ell/2 blocks whose maximum partial parallel class
has size exactly rho: the blocks holding e_1..e_rho are disjoint, and every
block meets the apex set S, so no rho+1 disjoint blocks exist.  Each
builder in ``FACTOR_JOINS`` (pure, packed and trimmed, by the CLI's variant
names) returns that class and S with the design, for ``ppc.certify`` to
check in O(b).  A join's ingredients, ``select_factors(ell, rho)`` and
``max_packing(rho)``, are each built once per process and shared by the
joins that use them.  ``construct_bose`` and ``max_packing`` build classical
designs in closed form, and ``check_sts27_triples`` checks the stored
witness of a PPC of size 8 in an STS(27) with no parallel class.
"""

from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bounds import packing_number
from .core import Block, Design, OutOfRange, ToolkitError, validate
from .onefactor import select_factors

Vec = Tuple[int, int]


class ConstructionWitness(NamedTuple):
    """A built design plus the certificate of its claimed maximum PPC.

    ``witness_ppc`` holds the rho representative blocks and ``s_points``
    the apex labels, which meet every block of a factor-join design and so
    cap the PPC at rho.  ``ppc.certify`` checks both; the builders do not.
    """

    design: Design
    rho: int
    witness_ppc: Tuple[Block, ...]
    s_points: Tuple[int, ...]


def _join(rho: int, ell: int, packing: Sequence[Block], trim: bool = False) -> ConstructionWitness:
    """The factor join of ``select_factors(ell, rho)`` with ``packing``, a
    PSTS(rho), placed on the apex points ell..ell+rho-1; with ``trim``,
    less the smallest T-point on no representative edge and the rho blocks
    through it, labels above it shifted down by one.

    The design returned, and only that one, is validated: ``validate``
    rejects an edge used twice and two edges of one factor that share a
    point (their blocks share the pair with the apex), and the block count
    then makes every factor perfect.  The witness is left to
    ``ppc.certify``, which proves it a maximum class of the design.
    """
    sel = select_factors(ell, rho)
    blocks = [(a, b, ell + j) for j, factor in enumerate(sel.factors) for a, b in factor]
    blocks += [(ell + p, ell + q, ell + r) for p, q, r in packing]
    assert len(blocks) == rho * ell // 2 + len(packing)
    witness = sorted((a, b, ell + j) for j, (a, b) in enumerate(sel.reps))
    v = rho + ell
    if trim:
        rep_points = {p for rep in sel.reps for p in rep}
        x = next((p for p in range(ell) if p not in rep_points), None)
        if x is None:
            raise ToolkitError(
                f"every T-point lies on a representative edge (ell={ell}, rho={rho})"
            )
        # p - (p > x) closes the gap and keeps the order of the points left, so
        # every block stays ascending and the witness stays sorted
        kept = [(a - (a > x), b - (b > x), c - (c > x))
                for a, b, c in blocks if x not in (a, b, c)]
        assert len(blocks) - len(kept) == rho
        blocks, v = kept, v - 1
        witness = [(a - (a > x), b - (b > x), c - (c > x)) for a, b, c in witness]
    return ConstructionWitness(validate(v, blocks), rho, tuple(witness), tuple(range(v - rho, v)))


def factor_join(rho: int, ell: int) -> ConstructionWitness:
    """PSTS(rho + ell) with rho*ell/2 blocks and maximum PPC exactly rho.

    Requires ell even, ell >= 2*rho, (ell, rho) != (4, 2).
    """
    return _join(rho, ell, ())


def factor_join_packed(rho: int, ell: int) -> ConstructionWitness:
    """PSTS(rho + ell) with rho*ell/2 + D(rho) blocks and maximum PPC rho.

    The extra blocks are a maximum packing placed on the apex points; they
    keep every block meeting S, so the PPC cap still holds.  Relative to the
    witness class the uncovered points are U = T minus the representative
    points, so witness block j meets the counting condition
    2 * t-sum <= v - 3*rho with equality exactly when F_j pairs the points
    of U among themselves.  That is promised only for rho = 1 or
    ell = 2*rho; the factors chosen here need not reach it otherwise.
    """
    return _join(rho, ell, max_packing(rho).blocks)


def factor_join_odd(rho: int, ell: int) -> ConstructionWitness:
    """PSTS(rho + ell - 1) with rho*ell/2 + D(rho) - rho blocks, max PPC rho.

    The blocks of ``factor_join_packed(rho, ell)`` with ell > 2*rho, less
    the smallest T-point lying on no representative edge together with the
    rho blocks through it, with the label gap closed.  The trimmed design
    is built straight from the selection and the packing, and only it is
    validated.  The witness class survives untouched (its blocks only use
    representative points), so the maximum PPC is still exactly rho.
    """
    return _join(rho, ell, max_packing(rho).blocks, trim=True)


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


# Maximum packings kept for rho = 6, 7, 9, 10, where the closed forms below
# give other packings of the same size that would change what ``construct``
# prints.  rho=7 is the projective plane of order 2 developed from the
# difference set {0,1,3}; rho=9 is the 3x3 affine plane, and the even-rho
# rule of ``_packing`` makes rho=8 of its 8 lines missing the last point.
_PACKINGS: Dict[int, Tuple[Block, ...]] = {
    6: ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)),
    7: tuple(
        sorted(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
    ),
    9: (
        (0, 1, 2), (3, 4, 5), (6, 7, 8),
        (0, 3, 6), (1, 4, 7), (2, 5, 8),
        (0, 4, 8), (1, 5, 6), (2, 3, 7),
        (0, 5, 7), (1, 3, 8), (2, 4, 6),
    ),
    10: (
        (0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (1, 3, 5), (1, 4, 6),
        (1, 7, 9), (2, 3, 7), (2, 4, 8), (2, 6, 9), (3, 6, 8), (4, 5, 7),
        (5, 8, 9),
    ),
}


def _mixed_triples(m: int, op: Callable[[int, int], int]) -> List[Block]:
    """{(x,i), (y,i), (x op y, i+1)} for x < y in Z_m and i in Z_3, with
    (x, i) labelled 3x+i: the bulk of the Bose, Skolem and 6n+5 designs."""
    return [
        (3 * x + i, 3 * y + i, 3 * op(x, y) + (i + 1) % 3)
        for x, y in combinations(range(m), 2)
        for i in range(3)
    ]


def _skolem(v: int) -> List[Block]:
    """Skolem's STS(v), v = 6n+1, on Z_2n x Z_3 (labelled 3x+i) plus inf =
    v-1: the columns (x, 0..2) and {inf, (n+x, i), (x, i+1)} for x < n, and
    mixed triples from x o y = sigma(x+y mod 2n), sigma(2i) = i and
    sigma(2i+1) = n+i, a half-idempotent commutative quasigroup."""
    n = (v - 1) // 6

    def op(x: int, y: int) -> int:
        s = (x + y) % (2 * n)
        return s // 2 + n * (s % 2)

    blocks = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(n)]
    for x in range(n):
        blocks += [(v - 1, 3 * (n + x) + i, 3 * x + (i + 1) % 3) for i in range(3)]
    return blocks + _mixed_triples(2 * n, op)


def _packing_6n5(v: int) -> List[Block]:
    """A maximum packing for v = 6n+5 whose leave is a 4-cycle.

    The 6n+5 design on Z_2n+1 x Z_3 (labelled 3x+i) plus inf_1 = v-2 and
    inf_2 = v-1 has one 5-block {(0,0), (0,1), (0,2), inf_1, inf_2}, split
    here into two triples through (0,0).  Its triples are {inf_1, (a,i),
    (b,i+1)} and {inf_2, (b,i), (a,i+1)} for a = 2x-1, b = 2x, and {(x,i),
    (y,i), (alpha(x o y), i+1)} with x o y = (x+y)/2, alpha = (0)(1 2)(3 4)...
    """
    n = (v - 5) // 6
    m = 2 * n + 1

    def op(x: int, y: int) -> int:
        z = (x + y) * (n + 1) % m
        return z + 1 if z % 2 else max(z - 1, 0)

    blocks = [(0, 1, 2), (0, v - 2, v - 1)]
    for a in range(1, m, 2):
        b = a + 1
        for i in range(3):
            blocks.append((v - 2, 3 * a + i, 3 * b + (i + 1) % 3))
            blocks.append((v - 1, 3 * b + i, 3 * a + (i + 1) % 3))
    return blocks + _mixed_triples(m, op)


def _bose(v: int) -> List[Block]:
    n = v // 3
    inv2 = (n + 1) // 2
    columns = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(n)]
    return columns + _mixed_triples(n, lambda x, y: (x + y) * inv2 % n)


def _packing(rho: int) -> Sequence[Block]:
    if rho in _PACKINGS:
        return _PACKINGS[rho]
    if rho % 2 == 0:
        return [blk for blk in _packing(rho + 1) if rho not in blk]
    return {1: _skolem, 3: _bose, 5: _packing_6n5}[rho % 6](rho)


def max_packing(rho: int) -> Design:
    """A PSTS(rho) with the full packing_number(rho) blocks, in closed form.

    Stored for rho = 6, 7, 9, 10, else by rho mod 6 (Colbourn & Rosa, *Triple
    Systems*, 1999; Lindner & Rodger, *Design Theory*, ch. 1):

    * rho = 3: the Bose STS(rho) of ``construct_bose``;
    * rho = 1: Skolem's STS(rho);
    * rho = 5: the 6n+5 design with its 5-block split, leaving a 4-cycle;
    * even rho, 8 included: the packing on rho+1 points minus its last
      point, rho.  The leave becomes a perfect matching for rho = 0, 2
      and, since point rho lies on the 4-cycle, K_1,3 plus a matching for
      rho = 4.

    No PSTS(rho) has more than D(rho) blocks, so the result is maximum.
    Each rho is built and validated once per process and then shared.
    """
    if type(rho) is not int or rho < 1:
        raise OutOfRange(f"need rho >= 1, got {rho!r}")
    return _max_packing(rho)


@lru_cache(maxsize=256)  # reached only with an int rho that max_packing checked
def _max_packing(rho: int) -> Design:
    design = validate(rho, _packing(rho))
    assert design.b == packing_number(rho)
    return design


def construct_bose(v: int) -> ConstructionWitness:
    """The standard STS(v) for v = 3 mod 6, with its parallel class.

    Points are (x, j) for x in Z_n, j in {0,1,2}, labeled 3x+j, n = v/3 odd.
    Column triples {(x,0),(x,1),(x,2)} form the parallel class; the mixed
    triples are {(x,j),(y,j),((x+y)/2, j+1)} for x < y, halving mod n.
    """
    if type(v) is not int or v % 6 != 3:
        raise ToolkitError(f"need v = 3 mod 6, got {v!r}")
    n = v // 3
    design = validate(v, _bose(v))
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
            raise ToolkitError(f"triple {{{pretty}}} sums to ({sx},{sy}), not (0,0)")
        for p in tri:
            if not (0 <= p[0] < 5 and 0 <= p[1] < 5):
                raise OutOfRange(f"point {p} is outside Z_5 x Z_5")
            if p in seen:
                raise ToolkitError(f"point {p[0]}{p[1]} appears in two triples")
            seen.add(p)
    return checked
