import hashlib
from collections import Counter

import pytest

import ppcforge as pf
from ppcforge.construct import _max_packing, check_sts27_triples
from ppcforge.ppc import BadCertificate

from conftest import raises_exactly


def test_example_rho3_ell8(example11):
    d = example11.design
    assert d.v == 11 and d.b == 13
    assert example11.s_points == (8, 9, 10)
    assert (8, 9, 10) in d.blocks  # the packing block on S
    assert example11.witness_ppc == ((0, 7, 8), (2, 6, 9), (4, 5, 10))


def test_pure_variant_block_count():
    w = pf.factor_join(3, 8)
    assert w.design.b == 12
    assert w.design.v == 11


def test_tiny_pure_case():
    w = pf.factor_join(1, 2)
    assert w.design.v == 3 and w.design.blocks == ((0, 1, 2),)


def test_infeasible_pair_propagates():
    with raises_exactly("two vertex-disjoint edges of K_4 lie in one one-factor"):
        pf.factor_join(2, 4)


def _overlapping_reps(ell, rho):
    """``select_factors`` with rep 1 swapped for an edge of factor 1 that
    meets rep 0."""
    sel = pf.select_factors(ell, rho)
    clash = next(e for e in sel.factors[1] if set(e) & set(sel.reps[0]))
    return pf.onefactor.FactorSelection(sel.factors, (sel.reps[0], clash, *sel.reps[2:]))


def _misplaced_reps(ell, rho):
    """``select_factors`` with reps 0 and 1 swapped: still disjoint, each
    outside its factor."""
    sel = pf.select_factors(ell, rho)
    reps = (sel.reps[1], sel.reps[0], *sel.reps[2:])
    return pf.onefactor.FactorSelection(sel.factors, reps)


@pytest.mark.parametrize("kind", pf.FACTOR_JOINS)
@pytest.mark.parametrize("bad", [_overlapping_reps, _misplaced_reps])
def test_join_checks_its_witness(monkeypatch, kind, bad):
    # the builders trust the selection; certify, which construct runs on
    # every build it prints, refuses a witness that is not a class
    monkeypatch.setattr(pf.construct, "select_factors", bad)
    w = pf.FACTOR_JOINS[kind](3, 10)
    if bad is _overlapping_reps:
        message = "class reuses point 0"
    else:
        message = f"class block {(0, 8, 10) if kind == 'trimmed' else (0, 9, 11)} is not in the design"
    with pytest.raises(BadCertificate) as err:
        pf.certify(w.design, w.witness_ppc, w.s_points)
    assert str(err.value) == message


def test_packed_examples():
    w = pf.factor_join_packed(2, 6)
    assert w.design.v == 8 and w.design.b == 6  # D(2) = 0
    w = pf.factor_join_packed(1, 14)
    assert w.design.v == 15 and w.design.b == 7


def test_packed_restricted_to_t_points_equals_pure():
    for rho, ell in [(2, 6), (3, 8), (4, 10)]:
        pure = pf.factor_join(rho, ell)
        packed = pf.factor_join_packed(rho, ell)
        t_only = [b for b in packed.design.blocks if min(b) < ell and max(b) >= ell]
        mixed = [b for b in packed.design.blocks if max(b) < ell]
        assert mixed == []  # no block lives entirely inside T
        assert tuple(sorted(t_only)) == pure.design.blocks


def test_trimmed_examples():
    w = pf.factor_join_odd(2, 8)
    assert w.design.v == 9 and w.design.b == 6
    w = pf.factor_join_odd(3, 10)
    assert w.design.v == 12 and w.design.b == 13
    w = pf.factor_join_odd(1, 4)
    assert w.design.v == 4 and w.design.b == 1


def test_trimmed_needs_headroom():
    with raises_exactly("every T-point lies on a representative edge (ell=6, rho=3)"):
        pf.factor_join_odd(3, 6)


def test_every_block_meets_s(sweep):
    for kind, rho, ell, witness, _ in sweep:
        s = set(witness.s_points)
        assert len(s) == rho
        for blk in witness.design.blocks:
            assert s & set(blk), (kind, rho, ell, blk)


def test_witness_is_disjoint_in_design(sweep):
    for kind, rho, ell, witness, _ in sweep:
        seen = set()
        for blk in witness.witness_ppc:
            assert blk in witness.design.blocks
            assert not seen & set(blk)
            seen |= set(blk)


def _leave_pairs(rho):
    """How many pairs a maximum packing on rho points leaves uncovered: none
    for rho = 1, 3 mod 6, a perfect matching for 0, 2, K_1,3 plus a matching
    for 4, a 4-cycle for 5."""
    return {0: rho // 2, 1: 0, 2: rho // 2, 3: 0, 4: rho // 2 + 1, 5: 4}[rho % 6]


@pytest.mark.parametrize(
    "rho,expected",
    [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 4), (7, 7), (8, 8), (9, 12),
     (10, 13), (11, 17), (12, 20), (13, 26)]
    + [(rho, (rho * (rho - 1) // 2 - _leave_pairs(rho)) // 3)
       for rho in range(14, 101)],
)
def test_max_packing_hits_the_packing_number(rho, expected):
    mp = pf.max_packing(rho)
    assert mp.b == expected == pf.packing_number(rho)


def test_max_packing_needs_rho_of_at_least_1():
    with raises_exactly("need rho >= 1, got 0", pf.OutOfRange):
        pf.max_packing(0)


@pytest.mark.parametrize("rho", [1, 5, 6, 8, 13])  # closed forms, stored, rho+1 less a point
def test_a_packing_is_built_once_and_shared(rho):
    assert pf.max_packing(rho) is pf.max_packing(rho)
    assert _max_packing.cache_parameters()["maxsize"] is not None  # rho is user input


@pytest.mark.parametrize("rho", [True, 5.0, [5]])  # [5]: not an unhashable TypeError
def test_a_cached_packing_keeps_the_check(rho):
    pf.max_packing(5)
    with raises_exactly(f"need rho >= 1, got {rho!r}", pf.OutOfRange):
        pf.max_packing(rho)


@pytest.mark.parametrize("rho", range(1, 101))
def test_max_packing_leave_by_residue(rho):
    covered = {pair for a, b, c in pf.max_packing(rho).blocks
               for pair in ((a, b), (a, c), (b, c))}
    degree = Counter(p for x in range(rho) for y in range(x + 1, rho)
                     if (x, y) not in covered for p in (x, y))
    degrees = sorted(degree.values())
    if rho % 6 in (1, 3):
        assert degrees == []
    elif rho % 6 in (0, 2):
        assert degrees == [1] * rho  # a perfect matching
    elif rho % 6 == 4:
        # one point of degree 3, all others of degree 1: K_1,3 plus a matching
        assert degrees == [1] * (rho - 1) + [3]
    else:
        # four points of degree 2 and four pairs: a 4-cycle
        assert degrees == [2, 2, 2, 2]
    assert sum(degrees) == 2 * _leave_pairs(rho)


def test_grid_builds_are_pinned():
    # every block, witness class and apex set of the 143 sweep builds; a
    # relabelling of the trimmed variant or a canonical form of validate
    # that moves any of them changes the digest
    builds = []
    for kind, rho, ell in pf.sweep_grid():
        w = pf.FACTOR_JOINS[kind](rho, ell)
        builds.append((w.design.blocks, w.witness_ppc, w.s_points))
    assert len(builds) == 143
    assert hashlib.sha256(repr(builds).encode()).hexdigest() == (
        "ba58fa29b643dc1c94f44ebc0a6d8c22c7c317e4b85a00b2cca4a82fdf47e4f2"
    )


def test_trimmed_builds_are_pinned():
    # every trimmed build with rho <= 12 and 2*rho < ell <= 52, recorded
    # when factor_join_odd still validated the whole packed design first;
    # building the trimmed design straight from the selection moves none
    builds = []
    for rho in range(1, 13):
        for ell in range(2 * rho + 2, 53, 2):
            w = pf.factor_join_odd(rho, ell)
            builds.append((w.design.blocks, w.witness_ppc, w.s_points))
    assert len(builds) == 234
    assert hashlib.sha256(repr(builds).encode()).hexdigest() == (
        "b2ec01a8a8c0cf0b5702e1dbb596568fc221f1d999abffa85ba5bf514a3b6ac9"
    )


def test_max_packing_small_rho_unchanged():
    # the packings of rho <= 10 are kept as they were before the closed
    # forms: the stored construct outputs and the benchmark designs use them
    blocks = repr([pf.max_packing(rho).blocks for rho in range(1, 11)])
    assert hashlib.sha256(blocks.encode()).hexdigest() == (
        "27ca35f98e3d4471e79d1430df6af3187b34ff85ccb271ebae7c0fa71cb563e5"
    )


def test_bose_9(bose9):
    assert bose9.design.b == 12
    assert bose9.rho == 3
    assert bose9.witness_ppc == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_bose_15():
    w = pf.construct_bose(15)
    assert w.design.b == 35
    assert len(w.witness_ppc) == 5


def test_bose_bad_residue():
    for v in (10, 13):
        with raises_exactly(f"need v = 3 mod 6, got {v}"):
            pf.construct_bose(v)


def test_sts27_triples_pass():
    triples = check_sts27_triples()
    assert len(triples) == 8
    assert len({p for tri in triples for p in tri}) == 24


def test_sts27_single_triple_sum(monkeypatch):
    tri = (((1, 0), (1, 1), (3, 4)),)
    monkeypatch.setattr("ppcforge.construct.STS27_TRIPLES", tri)
    assert check_sts27_triples() == tri


def test_sts27_mutation_breaks_sum(monkeypatch):
    monkeypatch.setattr("ppcforge.construct.STS27_TRIPLES", (((1, 0), (1, 1), (3, 3)),))
    with raises_exactly("triple {10,11,33} sums to (0,4), not (0,0)"):
        check_sts27_triples()


def test_sts27_point_outside_the_grid(monkeypatch):
    # (5,0) sums like (0,0) but lies outside Z_5 x Z_5
    monkeypatch.setattr("ppcforge.construct.STS27_TRIPLES", [((5, 0), (0, 1), (0, 4))])
    with raises_exactly("point (5, 0) is outside Z_5 x Z_5", pf.OutOfRange):
        check_sts27_triples()


def test_sts27_repeat_breaks_disjointness(monkeypatch):
    monkeypatch.setattr("ppcforge.construct.STS27_TRIPLES",
                        (((1, 0), (1, 1), (3, 4)), ((1, 0), (2, 2), (2, 3))))
    with raises_exactly("point 10 appears in two triples"):
        check_sts27_triples()
