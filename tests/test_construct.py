import pytest

import ppcforge as pf
from ppcforge.construct import (
    BadResidue,
    NoDeletablePoint,
    NotDisjoint,
    PackingShortfall,
    SumViolation,
    check_sts27_triples,
)
from ppcforge.onefactor import Infeasible


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
    with pytest.raises(Infeasible):
        pf.factor_join(2, 4)


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
    with pytest.raises(NoDeletablePoint):
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


@pytest.mark.parametrize("rho,expected", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2),
                                          (6, 4), (7, 7), (8, 8), (9, 12), (10, 13),
                                          (11, 17), (12, 20), (13, 26)])
def test_max_packing_hits_the_packing_number(rho, expected):
    mp = pf.max_packing(rho)
    assert mp.b == expected == pf.packing_number(rho)


def test_packing_cap():
    with pytest.raises(PackingShortfall):
        pf.max_packing(14)


def test_packing_search_out_of_nodes_is_exhausted():
    with pytest.raises(pf.Exhausted):
        pf.max_packing(10, node_budget=5)


def test_bose_9(bose9):
    assert bose9.design.b == 12
    assert bose9.rho == 3
    assert bose9.witness_ppc == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_bose_15():
    w = pf.construct_bose(15)
    assert w.design.b == 35
    assert len(w.witness_ppc) == 5


def test_bose_bad_residue():
    with pytest.raises(BadResidue):
        pf.construct_bose(13)


def test_sts27_triples_pass():
    triples = check_sts27_triples()
    assert len(triples) == 8
    assert len({p for tri in triples for p in tri}) == 24


def test_sts27_single_triple_sum():
    tri = (((1, 0), (1, 1), (3, 4)),)
    assert check_sts27_triples(tri) == tri


def test_sts27_mutation_breaks_sum():
    with pytest.raises(SumViolation):
        check_sts27_triples((((1, 0), (1, 1), (3, 3)),))


def test_sts27_repeat_breaks_disjointness():
    with pytest.raises(NotDisjoint):
        check_sts27_triples(
            (((1, 0), (1, 1), (3, 4)), ((1, 0), (2, 2), (2, 3)))
        )
