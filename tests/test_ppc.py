import hashlib
import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

import ppcforge as pf
from ppcforge.ppc import (BadCertificate, ExtensionProfile, NotMaximum, certify, class_points,
                          extension_profile)

from conftest import designs, fano_union, linear_subset, raises_exactly, recursion_headroom


def test_psts7_has_max_ppc_2(psts7):
    result = pf.solve_max_ppc(psts7)
    assert result.size == 2
    assert result.optimal


def test_empty_design():
    result = pf.solve_max_ppc(pf.validate(6, ()))
    assert result.size == 0 and result.optimal


def test_example11_solves_to_3(example11):
    result = pf.solve_max_ppc(example11.design)
    assert result.size == 3
    assert result.optimal


def test_witness_blocks_are_disjoint_design_blocks(example11):
    result = pf.solve_max_ppc(example11.design)
    seen = set()
    for blk in result.witness:
        assert blk in example11.design.blocks
        assert not seen & set(blk)
        seen |= set(blk)
    assert len(result.witness) == result.size


def test_budget_exhaustion_flagged(fano):
    # bose9 or a factor-join build would not do here: the v//3 bound or the
    # greedy transversal proves them at the root, without searching.  The
    # Fano plane leaves real slack between both bounds and the optimum.
    result = pf.solve_max_ppc(fano, budget=2)
    assert not result.optimal
    assert result.size >= 1  # greedy incumbent still reported
    assert result.cover == ()
    proven = pf.solve_max_ppc(fano)
    assert proven.optimal and proven.size == 1 and proven.nodes > 2
    assert result.size <= proven.size


def test_search_past_the_recursion_limit_is_a_clean_error():
    # the search dives one level per Fano plane before it backtracks, so 60
    # planes nest past a limit 60 frames above the caller
    design = fano_union(60)
    with recursion_headroom(60):
        limit = sys.getrecursionlimit()
        with pytest.raises(pf.SearchTooDeep) as err:
            pf.solve_max_ppc(design)
    assert str(err.value) == (
        f"exact PPC search on 420 points nests deeper than the recursion limit of {limit}"
    )


def test_greedy_is_a_lower_bound(bose9):
    greedy = pf.greedy_ppc(bose9.design)
    assert 1 <= len(greedy) <= 3
    exact = pf.solve_max_ppc(bose9.design)
    assert exact.size == 3
    assert len(greedy) <= exact.size


@given(designs(max_v=9, max_blocks=10))
@settings(max_examples=60, deadline=None)
def test_solver_matches_oracle(d):
    assert pf.solve_max_ppc(d).size == pf.brute_max_ppc(d)


@given(designs(max_v=8, max_blocks=9))
@settings(max_examples=40, deadline=None)
def test_order_independence(d):
    forward = pf.solve_max_ppc(d).size
    reversed_design = pf.Design(d.v, tuple(reversed(d.blocks)))
    assert pf.solve_max_ppc(reversed_design).size == forward


@given(designs())
@settings(max_examples=40, deadline=None)
def test_size_caps(d):
    r = pf.solve_max_ppc(d)
    assert r.size <= d.v // 3
    assert len(pf.greedy_ppc(d)) <= r.size


@given(designs())
@settings(max_examples=60, deadline=None)
def test_greedy_transversal_bounds_the_ppc(d):
    cover = pf.greedy_transversal(d)
    assert all(set(cover) & set(blk) for blk in d.blocks)
    r = pf.solve_max_ppc(d)
    assert r.size <= len(cover)
    # the certificate comes back exactly when it proves the optimum
    assert r.cover == (cover if r.size == len(cover) else ())


def test_root_cover_certifies_grid_builds(sweep):
    # the transversal closes 137 builds at node 1 and 4 more once the
    # search reaches its size; trimmed (2, 6) closes at node 1 by v//3
    certified = [(w, r) for _, _, _, w, r in sweep if r.cover]
    assert len(certified) >= 141
    assert sum(r.nodes == 1 for _, r in certified) >= 137
    for witness, solved in certified:
        assert solved.optimal and len(solved.cover) == solved.size
        assert all(set(solved.cover) & set(blk) for blk in witness.design.blocks)


def test_branching_matches_oracle_up_to_20_blocks():
    # random PSTS on 10..15 points with up to 20 blocks; the root
    # transversal closes few of them, so the branching is what gets checked
    rng = random.Random(2020)
    searched = 0
    for _ in range(60):
        v = rng.randint(10, 15)
        triples = rng.sample(list(combinations(range(v), 3)), 60)
        d = pf.validate(v, linear_subset(triples)[:20])
        r = pf.solve_max_ppc(d)
        assert r.optimal and r.size == pf.brute_max_ppc(d)
        searched += r.nodes > 1
    assert searched >= 40


def random_psts(rng, v, b):
    """``b`` random triples on ``v`` points, no pair in two of them."""
    blocks, pairs = [], set()
    while len(blocks) < b:
        t = tuple(sorted(rng.sample(range(v), 3)))
        tp = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if tp & pairs:
            continue
        pairs |= tp
        blocks.append(t)
    return pf.validate(v, blocks)


def seeded_psts30():
    """Two seeded random PSTS(30) for each b from 30 to 60."""
    rng = random.Random("solver-pin")
    return [random_psts(rng, 30, b) for b in range(30, 61) for _ in range(2)]


def test_search_answers_are_pinned():
    # sha256 of (size, witness, cover) over 62 sparse PSTS(30) that all need
    # a search; a prune that only skips subtrees holding no larger class
    # leaves every answer as it was
    digest = hashlib.sha256()
    for d in seeded_psts30():
        r = pf.solve_max_ppc(d)
        assert r.optimal and r.nodes > 1
        digest.update(repr((r.size, r.witness, r.cover)).encode())
    assert digest.hexdigest() == (
        "6aee4bb9ee7d3e99e677dc3ea8efc3958712a29e6335bd17d2eac5fff250f587"
    )


def test_search_tree_is_pinned():
    # the node count of each of the same 62 searches; any change to the
    # branching point, the free-point count or the pruning moves them
    nodes = tuple(pf.solve_max_ppc(d).nodes for d in seeded_psts30())
    assert sum(nodes) == 3_791
    assert hashlib.sha256(repr(nodes).encode()).hexdigest() == (
        "09cc5c98df3f5e2681b84d01852ec0cd23fb49c5bbe71e97f45296aad61a410a"
    )


def max_key_transversal(design):
    """The greedy transversal as a max over points keyed on (unmet count, -label)."""
    through = [{i for i, blk in enumerate(design.blocks) if p in blk} for p in range(design.v)]
    unmet = set(range(design.b))
    cover = []
    while unmet:
        x = max(range(design.v), key=lambda p: (len(through[p] & unmet), -p))
        cover.append(x)
        unmet -= through[x]
    return tuple(sorted(cover))


def test_greedy_transversal_matches_max_key_rule(sweep):
    rng = random.Random(8)
    small = []
    for _ in range(100):
        v = rng.randint(9, 16)
        triples = rng.sample(list(combinations(range(v), 3)), rng.randint(1, 40))
        small.append(pf.validate(v, linear_subset(triples)))
    for d in seeded_psts30() + small + [w.design for _, _, _, w, _ in sweep]:
        assert pf.greedy_transversal(d) == max_key_transversal(d)


def test_profile_on_example(example11):
    prof = extension_profile(example11.design, example11.witness_ppc)
    assert prof.size == 3
    assert prof.p == (0, 2, 4, 5, 6, 7, 8, 9, 10)
    # every t is zero here: the uncovered pair {1,3} lies in no factor
    assert set(prof.t.values()) == {0}
    assert prof.x0 == ()
    assert all(cond == 2 for _, cond in prof.block_conditions)


def test_profile_single_block():
    d = pf.validate(3, [(0, 1, 2)])
    prof = extension_profile(d, [(0, 1, 2)])
    assert prof.x0 == ()
    assert prof.block_conditions == (((0, 1, 2), 2),)
    assert prof.condition2_tight == (((0, 1, 2)),)


def test_profile_psts7(psts7):
    result = pf.solve_max_ppc(psts7)
    prof = extension_profile(psts7, result)
    # v - 3*rho = 1, so every t_x is 0 and condition 2 is strict
    assert set(prof.t.values()) == {0}
    assert prof.condition2_tight == ()


def test_profile_rejects_extendable_class(psts7):
    with pytest.raises(NotMaximum):
        extension_profile(psts7, [(0, 1, 2)])  # (3,4,5) is disjoint from it


def test_profile_rejects_swap_improvable():
    # one class block {0,1,2}; three pendant blocks at 0 and one at 1, all
    # into the uncovered part -> t_0 = 3, t_1 = 1, the swap wins
    blocks = [
        (0, 1, 2),
        (0, 3, 4), (0, 5, 6), (0, 7, 8),
        (1, 3, 5),
    ]
    d = pf.validate(9, blocks)
    with pytest.raises(NotMaximum):
        extension_profile(d, [(0, 1, 2)])


def test_profile_of_a_corrupt_design_is_a_runtime_error():
    # built past validate: (0,3,4) twice gives point 0 two pendant blocks,
    # more than the (v - 3*rho)/2 = 1 a valid design allows
    corrupt = pf.Design(5, ((0, 1, 2), (0, 3, 4), (0, 3, 4)))
    with raises_exactly("block (0, 1, 2) has t-sum 2 > (v-3*rho)/2; "
                        "impossible for a valid design, input must be corrupt", RuntimeError):
        extension_profile(corrupt, [(0, 1, 2)])


def test_profile_rejects_overlapping_class(psts7):
    with raises_exactly("class reuses point 2", BadCertificate):
        extension_profile(psts7, [(0, 1, 2), (2, 5, 6)])


def test_profile_rejects_foreign_block(psts7):
    with raises_exactly("class block (0, 1, 3) is not in the design", BadCertificate):
        extension_profile(psts7, [(0, 1, 3)])


def test_profile_requires_proven_optimum(fano):
    capped = pf.solve_max_ppc(fano, budget=1)
    assert not capped.optimal
    with raises_exactly("profile needs a proven-maximum class"):
        extension_profile(fano, capped)


def test_condition_tags_partition_the_class(sweep):
    for kind, rho, ell, witness, solved in sweep:
        prof = extension_profile(witness.design, witness.witness_ppc)
        assert len(prof.block_conditions) == rho
        assert {blk for blk, _ in prof.block_conditions} == set(witness.witness_ppc)


def reference_profile(design, ppc):
    """``extension_profile`` with the uncovered points as a set and each
    block's outside points listed: the plain form the bitmask count must
    agree with.  The guards that no valid input reaches are left out."""
    if isinstance(ppc, pf.PpcResult):
        ppc = ppc.witness
    covered = class_points(design, ppc)
    unc = set(range(design.v)) - covered
    t = {p: 0 for p in sorted(covered)}
    for a, b, c in design.blocks:
        outside = [p for p in (a, b, c) if p in unc]
        if len(outside) == 3:
            raise NotMaximum(
                f"block ({a},{b},{c}) is disjoint from the class; "
                f"size {len(ppc)} is not maximum"
            )
        if len(outside) == 2:
            t[next(p for p in (a, b, c) if p not in unc)] += 1
    x0 = tuple(p for p in sorted(covered) if t[p] > 0)
    rho, v = len(ppc), design.v
    tags, tight = [], []
    for key in sorted(tuple(sorted(b)) for b in ppc):
        counts = sorted((t[p] for p in key), reverse=True)
        if counts[0] >= 3 and counts[1] >= 1:
            raise NotMaximum(
                f"class block {key} trades for two blocks through its "
                f"high-t points; size {rho} is not maximum"
            )
        ssum = sum(counts)
        if sum(1 for p in key if p in x0) >= 2:
            tags.append((key, 1))
        else:
            tags.append((key, 2))
            if 2 * ssum == v - 3 * rho:
                tight.append(key)
    return ExtensionProfile(rho, t, tuple(sorted(covered)), x0, tuple(tags), tuple(tight))


def profile_outcome(fn, design, ppc):
    """The profile, equal to another only field by field, or the message."""
    try:
        return fn(design, ppc)
    except NotMaximum as exc:
        return str(exc)


def test_profile_matches_the_reference_on_the_grid(sweep):
    for kind, rho, ell, witness, solved in sweep:
        for klass in (witness.witness_ppc, solved):
            got = profile_outcome(extension_profile, witness.design, klass)
            assert got == profile_outcome(reference_profile, witness.design, klass), (kind, rho, ell)
            assert not isinstance(got, str)


def first_fit(blocks):
    """The blocks kept by one pass that takes each block missing the ones kept."""
    kept, used = [], set()
    for blk in blocks:
        if not used & set(blk):
            kept.append(blk)
            used |= set(blk)
    return kept


def test_profile_matches_the_reference_on_random_designs():
    # a first-fit class, in either block order, is maximal, and on these
    # dense designs sometimes not maximum by the swap certificate; less one
    # block, it leaves that block disjoint from it, so the first certificate
    # fires
    rng = random.Random("profile-reference")
    seen = Counter()
    for _ in range(200):
        v = rng.randint(7, 30)
        pool = list(combinations(range(v), 3))
        rng.shuffle(pool)
        design = pf.validate(v, linear_subset(pool)[:rng.randint(v, 3 * v)])
        greedy = pf.greedy_ppc(design)
        last_fit = first_fit(reversed(design.blocks))
        for klass in (greedy, greedy[:-1], last_fit):
            got = profile_outcome(extension_profile, design, klass)
            assert got == profile_outcome(reference_profile, design, klass), (v, design.blocks)
            seen["profile" if not isinstance(got, str) else got.split()[0]] += 1
    assert seen["profile"] >= 300 and seen["block"] == 200 and seen["class"] >= 8, seen


def reference_class_points(design, blocks):
    """``class_points`` with the design's blocks as a set: the plain form the
    bisection must agree with."""
    block_set = set(design.blocks)
    covered = set()
    for blk in blocks:
        if tuple(sorted(blk)) not in block_set:
            raise BadCertificate(f"class block {blk} is not in the design")
        for p in blk:
            if p in covered:
                raise BadCertificate(f"class reuses point {p}")
            covered.add(p)
    return covered


def class_outcome(fn, design, blocks):
    try:
        return fn(design, blocks)
    except BadCertificate as exc:
        return str(exc)


def claimed_classes(design, klass, rng):
    """``klass`` as given, with its points and blocks out of order, and with
    a foreign or an overlapping block put in; the foreign blocks fall
    before, between and after the design's blocks, and one is a class
    block written as strings."""
    rows = design.blocks
    v = design.v
    foreign = [t for t in [(0, 1, 2), (v - 3, v - 2, v - 1), tuple(sorted(rng.sample(range(v), 3)))]
               if t not in rows] + [tuple(map(str, klass[0]))]
    overlapping = [blk for blk in rows if blk not in klass and any(set(blk) & set(k) for k in klass)]
    out = [list(klass), [blk[::-1] for blk in reversed(klass)], [], [rows[-1]], [rows[0]]]
    for extra in foreign + overlapping[:1] + overlapping[-1:]:
        mixed = list(klass)
        mixed.insert(rng.randint(0, len(mixed)), extra[::-1] if rng.random() < 0.5 else extra)
        out.append(mixed)
    return out


def test_class_points_matches_the_reference(sweep):
    rng = random.Random("class-points")
    seen = Counter()
    cases = [(w.design, w.witness_ppc) for _, _, _, w, _ in sweep]
    for _ in range(200):
        v = rng.randint(7, 30)
        pool = list(combinations(range(v), 3))
        rng.shuffle(pool)
        design = pf.validate(v, linear_subset(pool)[:rng.randint(v, 3 * v)])
        cases.append((design, pf.greedy_ppc(design)))
    for design, klass in cases:
        for claimed in claimed_classes(design, klass, rng):
            got = class_outcome(class_points, design, claimed)
            assert got == class_outcome(reference_class_points, design, claimed), (design, claimed)
            seen["points" if isinstance(got, set) else got.split()[-1]] += 1
    assert seen["design"] >= 700 and seen["points"] >= 1500, seen
    assert sum(n for key, n in seen.items() if key.isdigit()) >= 500, seen  # "reuses point p"


# the packed builds past the grid that the benchmark's sweep runs through
# construct, and the builds of the CI smoke steps
FRONTIER = ((6, 12), (8, 16), (10, 20), (6, 24), (8, 32), (10, 30), (6, 48), (12, 36))
CI_BUILDS = (("packed", 26, 52), ("packed", 27, 54), ("pure", 11, 40), ("packed", 3, 52))


def test_certificate_matches_the_solver(sweep):
    # the solver stays the referee of every certificate construct relies on
    builds = [(w, r) for _, _, _, w, r in sweep]
    for kind, rho, ell in [("packed", rho, ell) for rho, ell in FRONTIER] + list(CI_BUILDS):
        w = pf.FACTOR_JOINS[kind](rho, ell)
        builds.append((w, pf.solve_max_ppc(w.design)))
    assert len(builds) == 143 + 8 + 4
    for w, solved in builds:
        assert certify(w.design, w.witness_ppc, w.s_points) == w.rho
        assert solved.optimal and solved.size == w.rho
        if solved.cover:
            assert certify(w.design, solved.witness, solved.cover) == solved.size


@given(designs())
@settings(max_examples=60, deadline=None)
def test_certify_is_sound(d):
    # a greedy class against a greedy transversal: certified exactly when
    # they have the same size, and then the maximum is that size
    klass, cover = pf.greedy_ppc(d), pf.greedy_transversal(d)
    if len(klass) == len(cover):
        assert certify(d, klass, cover) == pf.brute_max_ppc(d)
    else:
        with pytest.raises(BadCertificate, match="against a cover of"):
            certify(d, klass, cover)


@pytest.mark.parametrize("klass,cover,message", [
    (((0, 7, 8), (1, 5, 8), (4, 5, 10)), (8, 9, 10), "class reuses point 8"),
    (((0, 7, 8), (2, 6, 9), (0, 1, 2)), (8, 9, 10), r"class block \(0, 1, 2\) is not in the design"),
    (((0, 7, 8), (2, 6, 9), (4, 5, 10)), (0, 8, 9), r"block \(1, 6, 10\) misses the cover"),
    (((0, 7, 8), (2, 6, 9), (4, 5, 10)), (8, 9), "class of 3 blocks against a cover of 2 points"),
    (((0, 7, 8), (2, 6, 9)), (8, 9, 10), "class of 2 blocks against a cover of 3 points"),
])
def test_certify_refuses_a_bad_certificate(example11, klass, cover, message):
    assert certify(example11.design, example11.witness_ppc, example11.s_points) == 3
    with pytest.raises(BadCertificate, match=f"^{message}$"):
        certify(example11.design, klass, cover)
