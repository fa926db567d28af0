import contextlib
import random
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ppcforge as pf

DATA = Path(__file__).parent / "data"


@pytest.fixture
def psts7():
    return pf.psts7_fixture()


@pytest.fixture
def fano():
    """The Fano plane: its maximum PPC is 1, but no transversal has fewer
    than 3 points and v//3 = 2, so only a search proves the maximum."""
    return fano_union(1)


@pytest.fixture
def example11():
    """The 13-block PSTS(11) built from the side-7 square with rho=3."""
    return pf.factor_join_packed(3, 8)


@pytest.fixture
def bose9():
    return pf.construct_bose(9)


@pytest.fixture
def psts11_text():
    return (DATA / "psts11.txt").read_text()


def linear_subset(triples):
    """Greedily keep triples while no pair repeats."""
    chosen, pairs = [], set()
    for t in triples:
        tp = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if tp & pairs:
            continue
        pairs |= tp
        chosen.append(t)
    return chosen


@st.composite
def designs(draw, max_v=9, max_blocks=12):
    """Random small valid designs: sample triples, drop linearity breakers."""
    v = draw(st.integers(min_value=3, max_value=max_v))
    pool = list(combinations(range(v), 3))
    picks = draw(st.lists(st.sampled_from(pool), max_size=max_blocks))
    return pf.validate(v, linear_subset(picks))


def fano_union(copies):
    """``copies`` disjoint Fano planes on 7 * copies points."""
    return pf.validate(7 * copies, [(7 * k + i, 7 * k + (i + 1) % 7, 7 * k + (i + 3) % 7)
                                    for k in range(copies) for i in range(7)])


@contextlib.contextmanager
def raises_exactly(message, cls=pf.ToolkitError):
    """``pytest.raises`` of exactly ``cls``, no subclass, with exactly
    ``message``, matched literally from its first character to its last."""
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
        yield info
    assert info.type is cls, info.type


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to about ``frames`` past the caller's stack
    depth, so a deep search meets it in milliseconds; restore it on exit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def sub_designs(design, count, max_blocks, seed):
    """Deterministic random sub-designs of one design."""
    rng = random.Random(seed)
    out = []
    blocks = list(design.blocks)
    for _ in range(count):
        k = rng.randint(0, min(max_blocks, len(blocks)))
        out.append(pf.validate(design.v, rng.sample(blocks, k)))
    return out


@pytest.fixture(scope="session")
def sweep():
    """Every construction in the verification sweep, solved once.

    Yields tuples (kind, rho, ell, witness, solved) where kind is one of
    "pure", "packed", "trimmed" and solved is the exact solver's result.
    """
    rows = []
    for kind, rho, ell in pf.sweep_grid():
        witness = pf.FACTOR_JOINS[kind](rho, ell)
        rows.append((kind, rho, ell, witness, pf.solve_max_ppc(witness.design)))
    return rows
