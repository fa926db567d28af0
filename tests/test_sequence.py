import functools
import hashlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppcforge as pf
from ppcforge.ppc import greedy_transversal
from ppcforge.sequence import SearchTooDeep, _first_union, _WindowOracle

from conftest import designs, linear_subset, raises_exactly, recursion_headroom


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
    with raises_exactly("expected a permutation of 0..2"):
        pf.check_sequencing(d, (0, 1, 1))
    with raises_exactly("expected a permutation of 0..2"):
        pf.check_sequencing(d, (0, 1))
    with raises_exactly("expected a permutation of 0..2"):
        pf.check_sequencing(d, (0, 1, 3))


@pytest.mark.parametrize("perm", [(0, 1.0, 2, 3, 4, 5), (False, True, 2, 3, 4, 5)])
def test_rejects_entries_that_are_not_ints(perm):
    # validate's rule for points: 1.0 and True are not the int 1
    with raises_exactly("expected a permutation of 0..5"):
        pf.check_sequencing(pf.validate(6, [(0, 1, 2)]), perm)


def test_search_builds_one_window_oracle(monkeypatch, example11):
    built = []

    class Counted(_WindowOracle):
        def __init__(self, design):
            built.append(design)
            super().__init__(design)

    monkeypatch.setattr(pf.sequence, "_WindowOracle", Counted)
    out = pf.find_sequencing(example11.design)
    assert out.found and len(built) == 1
    # the checker stays independent of the search: it builds its own
    assert pf.check_sequencing(example11.design, out.sequencing.perm).valid
    assert len(built) == 2


def test_found_sequencing_must_pass_the_self_check(monkeypatch, psts7):
    monkeypatch.setattr(pf.sequence, "_first_union", lambda oracle, perm: (1, 0))
    with pytest.raises(AssertionError):
        pf.find_sequencing(psts7)


def test_find_sequencing_psts7(psts7):
    out = pf.find_sequencing(psts7)
    assert out.found
    assert pf.check_sequencing(psts7, out.sequencing.perm).valid
    assert not out.proven_nonsequenceable


def test_find_sequencing_psts10():
    w = pf.factor_join_packed(2, 8)
    out = pf.find_sequencing(w.design)
    assert out.found and out.sequencing.valid


def test_spanning_class_certifies_nonsequenceability(bose9):
    # v = 3 * (v/3) and the points split into v/3 blocks: the last window of
    # every permutation partitions, so the proof needs no search
    for d in (psts3(), bose9.design):
        out = pf.find_sequencing(d)
        assert not out.found and out.proven_nonsequenceable
        assert out.proof == "spanning class" and out.nodes == 1
    # a budget too small for even the root node must not claim a proof
    for budget in (0, -1):
        assert pf.find_sequencing(psts3(), budget=budget) == pf.SearchOutcome(None, False, 1)
    # v not a multiple of 3: disjoint blocks on all points but one or two
    # certify nothing, and a sequencing exists
    for v, blocks in ((4, [(0, 1, 2)]), (7, [(0, 1, 2), (3, 4, 5)]),
                      (8, [(0, 1, 2), (3, 4, 5)]), (10, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])):
        out = pf.find_sequencing(pf.validate(v, blocks))
        assert out.found and out.proof is None and out.nodes > 1, v


@given(designs(max_v=7, max_blocks=7))
@settings(max_examples=40, deadline=None)
def test_search_returns_the_first_valid_permutation(design):
    first = next((perm for perm in itertools.permutations(range(design.v))
                  if pf.check_sequencing(design, perm).valid), None)
    out = pf.find_sequencing(design)
    assert out.proven_nonsequenceable == (first is None)
    assert (out.sequencing.perm if out.found else None) == first
    if out.proof == "spanning class":
        assert design.v % 3 == 0 and out.nodes == 1


def test_node_counts_are_pinned(example11):
    # the search tree is fixed: same children, same order, same node count
    for design, nodes, perm in (
        (example11.design, 22, (0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10)),
        (pf.factor_join_packed(5, 12).design, 236_102,
         (0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 15, 14, 16)),
        # tau = 11 < v/3 = 17: the windows with t > tau never partition, and
        # their exact-cover memo would take over a GB, so none is built
        (pf.factor_join(11, 40).design, 52, tuple(range(51))),
        # a PSTS(13) with maximum PPC 3, so C1 holds, that no construction made
        (pf.validate(13, [(0, 2, 5), (0, 3, 10), (1, 4, 8), (1, 5, 11), (2, 4, 11),
                          (2, 6, 10), (2, 7, 12), (3, 4, 12), (3, 9, 11), (4, 5, 9),
                          (5, 6, 7), (6, 11, 12), (7, 8, 10)]),
         370_234, (0, 1, 2, 4, 3, 5, 6, 8, 7, 9, 10, 11, 12)),
    ):
        out = pf.find_sequencing(design, budget=1_000_000)
        assert (out.nodes, out.sequencing.perm) == (nodes, perm)


def test_grid_outcomes_are_pinned():
    # sha256 of repr((found, perm, nodes, proof)) for every sweep-grid build
    # at a 20k-node budget: the tree, its order and its proofs stay fixed
    digest = hashlib.sha256()
    for variant, rho, ell in pf.sweep_grid():
        out = pf.find_sequencing(pf.FACTOR_JOINS[variant](rho, ell).design, budget=20_000)
        perm = out.sequencing.perm if out.found else None
        digest.update(repr((out.found, perm, out.nodes, out.proof)).encode())
    assert digest.hexdigest() == (
        "3af2f9a49e61a530d6fbe537791c1c9562605dd78bb00c01d85062c0d6860472")


def random_psts(rng, v, b):
    """``b`` random triples on ``v`` points, no pair in two of them."""
    pairs, blocks = set(), []
    while len(blocks) < b:
        t = tuple(sorted(rng.sample(range(v), 3)))
        tp = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if not tp & pairs:
            pairs |= tp
            blocks.append(t)
    return pf.validate(v, blocks)


def seeded_psts(seed, count, lo=7, hi=22):
    """``count`` random PSTS(lo..hi) with b <= min(v, v(v-1)/12)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(lo, hi)
        out.append(random_psts(rng, v, rng.randint(1, min(v, v * (v - 1) // 12))))
    return out


def maximal_psts(rng, v):
    """A PSTS(v) no triple can extend, from the triples in random order."""
    pool = list(itertools.combinations(range(v), 3))
    rng.shuffle(pool)
    return pf.validate(v, linear_subset(pool))


def test_random_outcomes_are_pinned():
    # sha256 of repr((found, perm, nodes, proof)) at a 100k-node budget for
    # designs no construction made: the tree and its order stay fixed
    digest = hashlib.sha256()
    for design in seeded_psts(17, 60):
        out = pf.find_sequencing(design, budget=100_000)
        perm = out.sequencing.perm if out.found else None
        digest.update(repr((out.found, perm, out.nodes, out.proof)).encode())
    assert digest.hexdigest() == (
        "09d06e29d238dfa962fca3cce3b94d5600df5c7f388c08d33591680d32ac34de")


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


def test_window_scan_matches_naive_recomputation_past_the_transversal():
    # tau < v/3, so check_sequencing stops at t = tau; the naive scan goes
    # on to v/3 and must find no later violation
    rng = random.Random(7)
    # each first permutation has no block on 3 consecutive points, but its
    # first six points are the union of two blocks: the violation has t = 2
    for v, blocks, first in (
        (12, [(0, 1, 2), (3, 4, 5)], (0, 3, 1, 4, 2, 5, 6, 7, 8, 9, 10, 11)),
        (13, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (6, 7, 8)],
         (0, 3, 1, 4, 2, 5, 6, 9, 7, 10, 8, 11, 12)),
    ):
        d = pf.validate(v, blocks)
        assert len(greedy_transversal(d)) < v // 3
        perms = [first]
        for _ in range(200):
            perm = list(range(v))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        for perm in perms:
            assert pf.check_sequencing(d, perm).violation == naive_check(d, perm), perm
        assert pf.check_sequencing(d, perms[0]).violation == (2, 0)


def test_window_oracle_rejects_masks_short_of_cover_points():
    d = pf.factor_join(2, 8).design
    oracle = _WindowOracle(d)
    cover = set(greedy_transversal(d))
    # a block with one cover point plus three points outside the cover: two
    # disjoint blocks would need two cover points
    block = next(blk for blk in d.blocks if len(cover & set(blk)) == 1)
    window = block + tuple(p for p in range(d.v) if p not in cover and p not in block)[:3]
    mask = sum(1 << p for p in window)
    assert mask.bit_count() == 6 and len(cover & set(window)) == 1
    assert not oracle.partitions(mask)
    assert oracle.memo == {0: True}
    # without the bound the same answer takes an exact-cover search
    unbounded = _WindowOracle(d)
    unbounded.cover = (1 << d.v) - 1
    assert not unbounded.partitions(mask)
    assert len(unbounded.memo) > 1


def test_window_oracle_keeps_no_verdict_that_one_scan_gives():
    d = pf.validate(9, [(0, 1, 2), (3, 4, 5), (3, 6, 7), (4, 6, 8), (5, 7, 8)])
    assert greedy_transversal(d) == (0, 3, 8)
    oracle = _WindowOracle(d)
    # 6 7 8 holds the cover point 8, but no block through 6 lies inside it:
    # one scan of 6's blocks says False, and nothing is kept
    assert not oracle.partitions(0b111000000)
    assert oracle.memo == {0: True}
    # the walk of all 9 points explores 3..8 (left by 0 1 2), then 6 7 8 and
    # 4 5 8 (left by 3 4 5 and 3 6 7), and keeps each: other walks meet
    # remainders again
    explored = [0b111111111, 0b111111000, 0b111000000, 0b100110000]
    assert not oracle.partitions(explored[0])
    assert oracle.memo == {0: True, **dict.fromkeys(explored, False)}
    oracle.by_point = None  # asked again, each is a memo hit
    assert not any(oracle.partitions(m) for m in explored)


def exact_cover(design, mask):
    """Whether some |mask|/3 blocks inside ``mask`` cover it, by plain
    enumeration: that many blocks of 3 points cover it only when disjoint."""
    inside = [bm for bm in ((1 << a) | (1 << b) | (1 << c) for a, b, c in design.blocks)
              if bm & mask == bm]
    t, rest = divmod(mask.bit_count(), 3)
    return not rest and any(functools.reduce(operator.or_, c, 0) == mask
                            for c in itertools.combinations(inside, t))


@given(designs(max_v=12, max_blocks=20), st.data())
@settings(max_examples=60, deadline=None)
def test_window_oracle_matches_a_naive_exact_cover(design, data):
    # unions of disjoint blocks make True answers common; one oracle answers
    # the drawn masks, every union of the family, and the drawn masks again,
    # so each query reuses the memo that True and False answers left
    family = []
    for a, b, c in data.draw(st.permutations(design.blocks)):
        bm = (1 << a) | (1 << b) | (1 << c)
        if not any(bm & f for f in family):
            family.append(bm)
    unions = [sum(c) for k in range(len(family) + 1) for c in itertools.combinations(family, k)]
    masks = data.draw(st.lists(st.sampled_from(unions) | st.integers(0, (1 << design.v) - 1),
                               min_size=1, max_size=30))
    oracle = _WindowOracle(design)
    for mask in masks + unions + masks[::-1]:
        assert oracle.partitions(mask) == exact_cover(design, mask), mask


def test_guarantee_flags():
    table = [
        (1, 15, {"C1", "C2"}),
        (3, 21, {"C1"}),
        (4, 60, {"C2"}),
        (7, 21, set()),
        (1, 41, {"C1", "C2", "C3"}),
        (3, 9, set()),
        (1, 3, set()),
        (0, 7, {"C1", "C2"}),  # rho = 0 fits a design with no block
    ]
    for rho, v, expected in table:
        d = pf.Design(v, ())
        assert pf.sufficient_conditions(d, rho) == expected, (rho, v)


@pytest.mark.parametrize("design,rho,message", [
    # the spanning class proves this design nonsequenceable, so no guarantee may hold
    (psts3(), 0, "rho=0 is not an int in 1..1 for a PSTS(3)"),
    (psts3(), -1, "rho=-1 is not an int in 1..1 for a PSTS(3)"),
    (psts3(), 2, "rho=2 is not an int in 1..1 for a PSTS(3)"),
    (pf.psts7_fixture(), 1.5, "rho=1.5 is not an int in 1..2 for a PSTS(7)"),
    (pf.psts7_fixture(), True, "rho=True is not an int in 1..2 for a PSTS(7)"),
    (pf.Design(7, ()), -1, "rho=-1 is not an int in 0..2 for a PSTS(7)"),
], ids=["zero", "negative", "past-v-over-3", "float", "bool", "negative-no-blocks"])
def test_guarantees_refuse_a_rho_no_design_has(design, rho, message):
    with raises_exactly(message):
        pf.sufficient_conditions(design, rho)


def test_every_flagged_grid_design_is_sequenced():
    # the acceptance grid, then the held-out grid of the CI sweep
    for grid, expected in ((pf.sweep_grid(), 90), (pf.sweep_grid(8, 40), 162)):
        flagged = 0
        for variant, rho, ell in grid:
            d = pf.FACTOR_JOINS[variant](rho, ell).design
            if pf.sufficient_conditions(d, rho):
                flagged += 1
                out = pf.find_sequencing(d)
                assert out.found and not out.proven_nonsequenceable, (variant, rho, ell)
        assert flagged == expected


def test_flagged_random_designs_are_never_proven_nonsequenceable():
    # C1, C2 and C3 each guarantee a sequencing, so no search may prove a
    # flagged design nonsequenceable; sparse designs and maximal ones
    rng = random.Random(5)
    instances = seeded_psts(5, 200) + [maximal_psts(rng, rng.randint(4, 22)) for _ in range(300)]
    flagged = 0
    for design in instances:
        solved = pf.solve_max_ppc(design)
        assert solved.optimal
        if pf.sufficient_conditions(design, solved.size):
            flagged += 1
            out = pf.find_sequencing(design, budget=20_000)
            assert not out.proven_nonsequenceable, design
    assert flagged == 268


def test_flagged_random_designs_up_to_30_points_are_sequenced():
    # past v = 22 the search must find the sequencing that C1, C2 or C3
    # guarantees, not only fail to refute it; sparse designs and maximal ones
    rng = random.Random(23)
    instances = (seeded_psts(23, 200, 23, 30)
                 + [maximal_psts(rng, rng.randint(23, 30)) for _ in range(40)])
    flagged = 0
    for design in instances:
        solved = pf.solve_max_ppc(design)
        assert solved.optimal
        if pf.sufficient_conditions(design, solved.size):
            flagged += 1
            out = pf.find_sequencing(design, budget=20_000)
            assert out.found and pf.check_sequencing(design, out.sequencing.perm).valid, design
    assert flagged == 43


def test_every_grid_design_with_a_spanning_class_is_proven_at_once():
    spanning = 0
    for variant, rho, ell in pf.sweep_grid():
        d = pf.FACTOR_JOINS[variant](rho, ell).design
        if d.v == 3 * rho:
            spanning += 1
            out = pf.find_sequencing(d)
            assert out.proven_nonsequenceable and out.nodes == 1, (variant, rho, ell)
    assert spanning == 8


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


def test_too_deep_is_the_shared_error():
    assert SearchTooDeep is pf.SearchTooDeep is pf.core.SearchTooDeep



def test_check_past_the_recursion_limit_answers():
    # a parallel class {3i, 3i+1, 3i+2} under 0, 3, 6, ..., 1, 4, ..., 2, 5,
    # ...: only the whole permutation partitions, and the exact-cover test
    # walks its 40 blocks from a list, so a limit 60 frames up is no bar
    design = pf.validate(120, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(40)])
    perm = [p for r in range(3) for p in range(r, 120, 3)]
    with recursion_headroom(60):
        assert pf.check_sequencing(design, perm).violation == (40, 0)


def test_check_of_600_blocks_keeps_few_verdicts():
    # each (t, start) window is asked once, so the False verdict of a window
    # that one scan rejects is never read again, and is not kept
    design = pf.validate(1800, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(600)])
    perm = tuple(p for r in range(3) for p in range(r, 1800, 3))
    oracle = _WindowOracle(design)
    assert _first_union(oracle, perm) == (600, 0)
    assert len(oracle.memo) <= 240_001 // 2


def test_a_spanning_class_of_600_blocks_is_proven_in_one_node():
    design = pf.validate(1800, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(600)])
    out = pf.find_sequencing(design)
    assert out == pf.SearchOutcome(None, True, 1, "spanning class")
