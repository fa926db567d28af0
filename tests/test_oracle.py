from hypothesis import given, settings

import ppcforge as pf
from ppcforge.oracle import brute_beta, brute_max_ppc

from conftest import designs, raises_exactly


def test_ppc_oracle_small_designs(psts7, bose9):
    assert brute_max_ppc(psts7) == 2
    assert brute_max_ppc(bose9.design) == 3
    assert brute_max_ppc(pf.validate(3, [(0, 1, 2)])) == 1
    assert brute_max_ppc(pf.Design(6, ())) == 0


def test_ppc_oracle_refuses_large_inputs(example11):
    padded = pf.Design(60, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(20)))
    assert brute_max_ppc(padded) == 20
    too_many = pf.Design(78, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(26)))
    with raises_exactly("26 blocks exceeds the oracle cap of 25"):
        brute_max_ppc(too_many)
    assert brute_max_ppc(example11.design) == 3


@given(designs(max_v=9, max_blocks=10))
@settings(max_examples=50, deadline=None)
def test_two_oracles_never_disagree(design):
    # the include/exclude oracle and the branch-and-bound solver are
    # independent implementations; they must agree everywhere
    assert brute_max_ppc(design) == pf.solve_max_ppc(design).size


def test_exact_beta_lies_in_the_bracket():
    # every exact beta(rho, v) with v <= 8 lies in [beta_lower, beta_upper]
    # but beta(2, 6) = 2, where the lower bound says 3 and the upper bound
    # is D(6) = 4: any new escape fails
    pairs = [(rho, v) for v in range(3, 9) for rho in range(1, v // 3 + 1)]
    assert len(pairs) == 9
    escapes = {}
    for rho, v in pairs:
        res = brute_beta(rho, v)
        assert res.complete, (rho, v)
        lo, up = pf.beta_lower(rho, v), pf.beta_upper(rho, v)
        if not lo <= res.value <= up:
            escapes[rho, v] = (res.value, lo, up)
    assert escapes == {(2, 6): (2, 3, 4)}


def test_beta_rho1_tiny():
    assert brute_beta(1, 3).value == 1
    assert brute_beta(1, 4).value == 1
    assert brute_beta(1, 5).value == 2
    assert brute_beta(1, 6).value == 4


def test_beta_rho1_witnesses_are_valid():
    res = brute_beta(1, 6)
    d = pf.validate(6, res.witness)
    assert d.b == 4
    assert brute_max_ppc(d) == 1


def test_beta_2_7_is_five():
    res = brute_beta(2, 7)
    assert res.complete
    assert res.value == 5
    d = pf.validate(7, res.witness)
    assert d.b == 5 and brute_max_ppc(d) == 2


def test_beta_2_6_is_two():
    # the closed-form lower bound reports 3 here (its one overreach, kept
    # for fidelity); exhaustive search shows no PSTS(6) with maximum PPC 2
    # has more than 2 blocks
    res = brute_beta(2, 6)
    assert res.complete and res.value == 2
    assert pf.beta_lower(2, 6) == 3


def test_beta_budget_starvation_is_labelled():
    res = brute_beta(2, 7, budget=10)
    assert not res.complete
    assert res.value <= 5


def test_beta_caps_and_domain():
    # v = 9 runs, and its budget still stops it; past 9 the cap refuses
    res = brute_beta(2, 9, budget=50)
    assert not res.complete and res.nodes == 51
    for v in (10, 12):
        with raises_exactly(f"v={v} exceeds the oracle cap of 9"):
            brute_beta(2, v, budget=50)
    with raises_exactly("need v >= 3*rho >= 3, got rho=1, v=2"):
        brute_beta(1, 2)
    with raises_exactly("need v >= 3*rho >= 3, got rho=0, v=6"):
        brute_beta(0, 6)
    with raises_exactly("need v >= 3*rho >= 3, got rho=2, v=5"):
        brute_beta(2, 5)


def test_beta_1_9_is_seven():
    # the Fano plane and two isolated points; 7 = beta_upper(1, 9), so the
    # value lies in the bracket
    res = brute_beta(1, 9)
    assert res.complete and (res.value, res.nodes) == (7, 4126)
    assert pf.beta_lower(1, 9) <= res.value <= pf.beta_upper(1, 9) == 7
    d = pf.validate(9, res.witness)
    assert d.b == 7 and brute_max_ppc(d) == 1


def test_beta_below_packing_number():
    for rho, v in [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (2, 8)]:
        assert brute_beta(rho, v).value <= pf.packing_number(v)


# (rho, v) -> (value, witness, nodes) of the complete search, for every
# v <= 8: the enumeration order fixes the witness and the node count
BETA_PINS = {
    (1, 3): (1, ((0, 1, 2),), 1),
    (1, 4): (1, ((0, 1, 2),), 1),
    (1, 5): (2, ((0, 1, 2), (0, 3, 4)), 4),
    (1, 6): (4, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)), 23),
    (2, 6): (2, ((0, 1, 2), (3, 4, 5)), 35),
    (1, 7): (7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                 (2, 3, 6), (2, 4, 5)), 202),
    (2, 7): (5, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)), 479),
    (1, 8): (7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                 (2, 3, 6), (2, 4, 5)), 1456),
    (2, 8): (8, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7),
                 (2, 4, 6), (2, 5, 7), (3, 6, 7)), 10401),
}


def test_beta_search_is_pinned():
    assert set(BETA_PINS) == {(rho, v) for v in range(3, 9)
                              for rho in range(1, v // 3 + 1)}
    for (rho, v), pin in BETA_PINS.items():
        res = brute_beta(rho, v)
        assert res.complete and (res.value, res.witness, res.nodes) == pin, (rho, v)
