import itertools

import pytest
from hypothesis import given, settings

import ppcforge as pf
from ppcforge.sequence import NotPermutation

from conftest import designs


def psts3():
    return pf.validate(3, [(0, 1, 2)])


def test_single_block_never_sequenceable():
    d = psts3()
    for perm in itertools.permutations(range(3)):
        seq = pf.check_sequencing(d, perm)
        assert not seq.valid
        assert seq.violation == (1, 0)


def test_isolated_point_breaks_the_window():
    d = pf.validate(4, [(0, 1, 2)])
    assert pf.check_sequencing(d, (0, 1, 3, 2)).valid
    bad = pf.check_sequencing(d, (3, 0, 1, 2))
    assert bad.violation == (1, 1)


def test_rejects_non_permutations():
    d = psts3()
    with pytest.raises(NotPermutation):
        pf.check_sequencing(d, (0, 1, 1))
    with pytest.raises(NotPermutation):
        pf.check_sequencing(d, (0, 1))
    with pytest.raises(NotPermutation):
        pf.check_sequencing(d, (0, 1, 3))


def test_find_sequencing_psts7(psts7):
    out = pf.find_sequencing(psts7)
    assert out.found
    assert pf.check_sequencing(psts7, out.sequencing.perm).valid
    assert not out.proven_nonsequenceable


def test_find_sequencing_psts10():
    w = pf.factor_join_packed(2, 8)
    out = pf.find_sequencing(w.design)
    assert out.found and out.sequencing.valid


def test_proof_of_nonsequenceability_needs_exhaustion():
    d = psts3()
    out = pf.find_sequencing(d)
    assert not out.found
    assert out.proven_nonsequenceable
    # a budget too small to exhaust the tree must not claim a proof
    starved = pf.find_sequencing(d, budget=2)
    assert not starved.found and not starved.proven_nonsequenceable


def test_exhausted_search_stops_at_the_node_past_its_budget():
    out = pf.find_sequencing(pf.factor_join_packed(4, 10).design, budget=1000)
    assert not out.found and not out.proven_nonsequenceable
    assert out.nodes == 1001


def test_valid_sequencings_reverse():
    d = pf.factor_join(2, 6).design
    out = pf.find_sequencing(d)
    assert out.found
    back = tuple(reversed(out.sequencing.perm))
    assert pf.check_sequencing(d, back).valid


def naive_check(design, perm):
    """Recompute every window from scratch against all block subsets."""
    v = design.v
    for t in range(1, v // 3 + 1):
        for start in range(v - 3 * t + 1):
            window = set(perm[start:start + 3 * t])
            for combo in itertools.combinations(design.blocks, t):
                pts = set(itertools.chain.from_iterable(combo))
                if len(pts) == 3 * t and pts == window:
                    return (t, start)
    return None


@given(designs(max_v=8, max_blocks=6))
@settings(max_examples=40, deadline=None)
def test_window_scan_matches_naive_recomputation(design):
    perm = tuple(reversed(range(design.v)))
    seq = pf.check_sequencing(design, perm)
    assert seq.violation == naive_check(design, perm)


def test_guarantee_flags():
    table = [
        (1, 15, {"C1", "C2"}),
        (3, 21, {"C1"}),
        (4, 60, {"C2"}),
        (7, 21, set()),
        (1, 41, {"C1", "C2", "C3"}),
        (3, 9, set()),
        (1, 3, set()),
    ]
    for rho, v, expected in table:
        d = pf.Design(v, ())
        assert pf.sufficient_conditions(d, rho) == expected, (rho, v)


def test_every_flagged_grid_design_is_sequenced():
    flagged = 0
    for variant, rho, ell in pf.sweep_grid():
        d = pf.FACTOR_JOINS[variant](rho, ell).design
        if d.v <= 15 and pf.sufficient_conditions(d, rho):
            flagged += 1
            assert pf.find_sequencing(d).found, (variant, rho, ell)
    assert flagged


def test_cube_comparison_is_exact():
    # v = 9*rho + 10 + m with m^3 just below / at the threshold for rho = 8:
    # 10648 * 64 = 681472, cube root = 88 exactly
    assert "C3" not in pf.sufficient_conditions(pf.Design(8 * 9 + 10 + 87, ()), 8)
    assert "C3" in pf.sufficient_conditions(pf.Design(8 * 9 + 10 + 88, ()), 8)


def test_text_round_trip():
    v, perm = 7, (3, 0, 6, 1, 4, 2, 5)
    text = pf.sequencing_to_text(v, perm)
    assert pf.sequencing_from_text(text) == (v, perm)


def test_text_rejects_missing_header():
    with pytest.raises(pf.ParseError):
        pf.sequencing_from_text("0 1 2\n")
