import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ppcforge as pf
from ppcforge.bounds import bound_table, format_table

from conftest import DATA, fano_union, raises_exactly


TABLE1 = {
    # rho: (D, lower, upper) as printed for v=27 with known values overlaid
    1: (0, 13, 13),
    2: (0, 24, 31),
    3: (1, 37, 57),
    4: (1, 45, 86),
    5: (2, 57, 117),
    6: (4, 64, 117),
    7: (7, 77, 117),
    8: (8, 117, 117),
    9: (12, 117, 117),
}


@pytest.mark.parametrize("v,expected", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2),
                                        (6, 4), (7, 7), (8, 8), (9, 12), (10, 13),
                                        (11, 17), (12, 20), (13, 26)])
def test_packing_number_small(v, expected):
    assert pf.packing_number(v) == expected


def test_packing_number_mod5_penalty():
    assert pf.packing_number(11) == 11 * 5 // 3 - 1
    assert pf.packing_number(17) == 17 * 8 // 3 - 1


def test_beta_lower_table1_rows():
    assert pf.beta_lower(3, 27) == 37
    assert pf.beta_lower(2, 27) == 24
    assert pf.beta_lower(7, 27) == 77


def test_beta_lower_62_exception():
    # the even-case formula is excluded at (6,2); the odd-style value is 3.
    # Exhaustive search (see oracle tests) shows the true beta(2,6) is 2,
    # so this is a deliberate formula-faithful overestimate at one point.
    assert pf.beta_lower(2, 6) == 3


def test_beta_lower_domain():
    with raises_exactly("need v >= 3*rho >= 3, got rho=3, v=8"):
        pf.beta_lower(3, 8)


def test_beta_upper_table1_rows():
    assert pf.beta_upper(1, 27) == 13
    assert pf.beta_upper(4, 27) == 86
    assert pf.beta_upper(5, 27) == 117  # counting bound 125 loses to the cap


def test_beta_upper_domain():
    with raises_exactly("need v >= 3*rho >= 3, got rho=2, v=5"):
        pf.beta_upper(2, 5)


def test_beta_exact_known_values():
    assert pf.beta_exact_known(1, 6) == 4
    assert pf.beta_exact_known(2, 7) == 5
    assert pf.beta_exact_known(9, 27) == 117
    assert pf.beta_exact_known(8, 27) == 117
    assert pf.beta_exact_known(4, 15) == 35
    assert pf.beta_exact_known(6, 21) == 70
    assert pf.beta_exact_known(3, 25) is None
    assert pf.beta_exact_known(2, 6) is None


def test_beta1_full_table():
    expected = {3: 1, 4: 1, 5: 2, 6: 4}
    for v, val in expected.items():
        assert pf.beta_exact_known(1, v) == val
    for v in range(7, 15):
        assert pf.beta_exact_known(1, v) == 7
    for v in range(15, 60):
        assert pf.beta_exact_known(1, v) == (v - 1) // 2


def parent_beta_exact_known(rho, v):
    """beta_exact_known as it stood when it wrote out each value by hand."""
    if rho == 1 and v >= 3:
        if v in (3, 4):
            return 1
        if v == 5:
            return 2
        if v == 6:
            return 4
        if v <= 14:
            return 7
        return (v - 1) // 2
    if (rho, v) == (2, 7):
        return 5
    if (rho, v) in {(4, 15), (6, 21), (8, 27)}:
        return {(4, 15): 35, (6, 21): 70, (8, 27): 117}[(rho, v)]
    if v >= 3 and rho == v // 3 and v % 6 in (1, 3) and v != 7:
        return v * (v - 1) // 6
    return None


def test_exact_values_are_the_ones_written_out_by_hand():
    for rho in range(-2, 120):
        for v in range(-2, 700):
            assert pf.beta_exact_known(rho, v) == parent_beta_exact_known(rho, v), (rho, v)


def beta1_witness(v):
    """A PSTS(v) with beta(1, v) blocks, every two of which meet: one block,
    two on a point, the Pasch configuration, the Fano plane, a star."""
    if v <= 4:
        return [(0, 1, 2)]
    if v == 5:
        return [(0, 1, 2), (0, 3, 4)]
    if v == 6:
        return [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    if v <= 14:
        return fano_union(1).blocks
    return [(0, 2 * i - 1, 2 * i) for i in range(1, (v + 1) // 2)]


# (rho, v) -> a witness with beta_exact_known(rho, v) blocks and maximum
# class rho; its upper side is beta_upper, or at (2,7) the exhaustive search
EXACT_WITNESSES = {
    **{(1, v): beta1_witness(v) for v in range(3, 200)},
    **{(v // 3, v): pf.max_packing(v).blocks for v in range(9, 100) if v % 6 in (1, 3)},
    (2, 7): pf.psts7_fixture().blocks,
    (4, 15): pf.deserialize((DATA / "sts15_nu4.txt").read_text()).blocks,
}
# exact values that rest on a published design, not on a witness stored here
CITED_EXACT = {(6, 21), (8, 27)}


def test_every_exact_value_is_proven_or_cited():
    for (rho, v), blocks in EXACT_WITNESSES.items():
        design = pf.validate(v, blocks)
        beta = pf.beta_exact_known(rho, v)
        assert design.b == beta, (rho, v)
        res = pf.solve_max_ppc(design)
        assert res.optimal and res.size == rho, (rho, v)
        if (rho, v) == (2, 7):
            exhaustive = pf.brute_beta(2, 7)
            assert exhaustive.complete and exhaustive.value == beta
        else:
            assert pf.beta_upper(rho, v) == beta, (rho, v)
    known = {(rho, v) for v in range(100) for rho in range(1, v // 3 + 1)
             if pf.beta_exact_known(rho, v) is not None}
    assert known - set(EXACT_WITNESSES) == CITED_EXACT


def test_gap_bound_values():
    assert pf.gap_bound(1) == 1
    assert pf.gap_bound(2) == Fraction(25, 3)
    assert pf.gap_bound(3) == Fraction(67, 3)


def test_bound_table_reproduces_table1():
    rows = bound_table(27, 9, with_known=True)
    assert [(r.rho, r.d_rho, r.lower, r.upper) for r in rows] == [
        (rho, d, lo, up) for rho, (d, lo, up) in sorted(TABLE1.items())
    ]


def test_bound_table_without_overlay():
    row8 = bound_table(27, 9)[7]
    assert row8 == (8, 27, 8, 80, 117, None)
    assert type(row8)._fields == ("rho", "v", "d_rho", "lower", "upper", "exact")
    assert format_table([row8], "rows") == (
        "8,8,80,117,,lower=generic-theorem;upper=generic-theorem\n")


def test_overlay_tags_fields_it_changes():
    row8 = bound_table(27, 9, with_known=True)[7]
    # the cap already gave 117, so only the lower field is tagged
    assert format_table([row8], "rows") == (
        "8,8,117,117,117,lower=known-special;upper=generic-theorem\n")


def test_row_format_is_stable():
    text = format_table(bound_table(27, 2, with_known=True), style="rows")
    assert text.splitlines()[0] == "1,0,13,13,13,lower=generic-theorem;upper=generic-theorem"


def test_tables_are_byte_identical():
    # every table for v up to 120, both overlays and both styles, as first
    # recorded when BoundRecord still carried its tags
    digest = hashlib.sha256()
    for v in range(1, 121):
        for with_known in (False, True):
            for style in ("rows", "text"):
                digest.update(format_table(bound_table(v, None, with_known), style).encode())
    assert digest.hexdigest() == "94f66f67ffea53e056e83cd34646d10ec52c38fdc7d2521dad9fd42532b60191"


def test_unknown_table_style_is_an_error():
    with raises_exactly("unknown table style 'csv'"):
        format_table(bound_table(27, 3), "csv")


def test_lower_never_exceeds_upper():
    for v in range(3, 201):
        for rho in range(1, v // 6 + 2):
            if 3 * rho > v:
                continue
            assert pf.beta_lower(rho, v) <= pf.beta_upper(rho, v), (rho, v)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=80, deadline=None)
def test_counting_form_matches_closed_form(rho, data):
    # upper bound via the binomial form equals rho*((9rho-7)/2 + max(...))
    # whenever v - 3*rho is even, up to the cap D(v): no PSTS(v) has more blocks
    v = data.draw(st.integers(min_value=3 * rho, max_value=220).filter(
        lambda x: (x - 3 * rho) % 2 == 0))
    closed = Fraction(rho) * (Fraction(9 * rho - 7, 2) + max(6, (v - 3 * rho) // 2))
    assert pf.beta_upper(rho, v) == min(int(closed), pf.packing_number(v))


def test_rho2_band():
    # lower bound sits in the documented band; the computed upper bound is
    # v+5 (even v) or v+4 (odd v) -- deliberately NOT the smaller v+1
    # sometimes quoted, which direct substitution does not reproduce
    for v in range(18, 41):
        lo, up = pf.beta_lower(2, v), pf.beta_upper(2, v)
        assert v - 3 <= lo <= v + 1
        assert up == (v + 5 if v % 2 == 0 else v + 4)


def test_rho3_band():
    for v in range(21, 41):
        lo, up = pf.beta_lower(3, v), pf.beta_upper(3, v)
        assert 2 * lo >= 3 * v - 10
        assert 2 * up <= 3 * v + 33


def test_fixed_rho_gap_is_bounded():
    for rho in (1, 2, 3):
        cap = pf.gap_bound(rho)
        for v in range(3 * rho + 12, 201):
            assert pf.beta_upper(rho, v) - pf.beta_lower(rho, v) <= cap


# The (rho, v) with 3*rho <= v where beta_upper - beta_lower exceeds
# gap_bound(rho); each has v - 3*rho <= 11
GAP_BOUND_EXCEPTIONS = (
    [(1, v) for v in range(6, 13)] + [(2, v) for v in range(11, 18)]
    + [(3, v) for v in range(18, 21)] + [(4, 23)]
)


def test_gap_bound_fails_only_at_the_named_pairs():
    failing = [(rho, v) for rho in range(1, 41) for v in range(3 * rho, 1201)
               if pf.beta_upper(rho, v) - pf.beta_lower(rho, v) > pf.gap_bound(rho)]
    assert failing == GAP_BOUND_EXCEPTIONS
    assert all(v - 3 * rho <= 11 for rho, v in failing)


def test_quadratic_growth_when_rho_scales():
    for c in (3, 4, 5):
        lo_ratios, up_ratios = [], []
        for v in (40, 80, 120):
            rho = v // c
            lo_ratios.append(pf.beta_lower(rho, v) / v**2)
            up_ratios.append(pf.beta_upper(rho, v) / v**2)
        assert max(lo_ratios) / min(lo_ratios) < 1.35
        assert max(up_ratios) / min(up_ratios) < 1.35
