"""The record contract: every result type is an immutable NamedTuple."""

import subprocess
import sys
from pathlib import Path

import pytest

import ppcforge as pf

SRC = Path(__file__).resolve().parent.parent / "src"


def _records():
    """One instance of each of the ten record types, from a real call."""
    design = pf.psts7_fixture()
    result = pf.solve_max_ppc(design)
    return {
        "Design": design,
        "PpcResult": result,
        "ExtensionProfile": pf.extension_profile(design, result),
        "Sequencing": pf.check_sequencing(design, range(design.v)),
        "SearchOutcome": pf.find_sequencing(design),
        "BoundRecord": pf.bound_table(9, rho_max=1)[0],
        "ConstructionWitness": pf.factor_join_packed(3, 8),
        "RoomSquare": pf.room_square(7),
        "FactorSelection": pf.select_factors(8, 3),
        "BetaResult": pf.brute_beta(1, 4),
    }


RECORDS = _records()


def test_the_ten_records_are_named_tuples():
    assert len(RECORDS) == 10
    for name, record in RECORDS.items():
        cls = getattr(pf, name)
        assert type(record) is cls
        assert issubclass(cls, tuple) and hasattr(cls, "_fields")
        # the tuple protocol: iteration, indexing, _replace and _asdict
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert record[0] == getattr(record, record._fields[0])
        assert record._replace() == record
        assert list(record._asdict()) == list(record._fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    first = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, first, None)


def test_design_is_a_dict_key_and_equal_designs_hash_equal():
    a = pf.validate(7, [(0, 1, 2), (0, 3, 4)])
    b = pf.validate(7, [[4, 3, 0], [2, 1, 0]])
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((7, ((0, 1, 2), (0, 3, 4))))
    assert {a: "x"}[b] == "x"


def test_the_defaults_hold():
    assert pf.PpcResult(1, ((0, 1, 2),), True, 1).cover == ()
    assert pf.Sequencing((0, 1, 2), True).violation is None
    assert pf.SearchOutcome(None, False, 0).proof is None
    record = pf.BoundRecord(1, 9, 0, 0, 0)
    assert record.exact is None


def test_the_properties_still_work():
    assert pf.validate(3, [(0, 1, 2)]).b == 1
    assert not pf.SearchOutcome(None, True, 5, "exhaustion").found
    assert pf.SearchOutcome(pf.Sequencing((0, 1, 2), True), False, 1).found


def test_the_design_repr_is_unchanged():
    assert repr(pf.validate(3, [(0, 1, 2)])) == "Design(v=3, blocks=((0, 1, 2),))"
    # a NamedTuple cannot hide a field, so the profile's t is shown
    assert repr(RECORDS["ExtensionProfile"]).startswith("ExtensionProfile(size=2, t={")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import ppcforge.cli\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", snippet], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
