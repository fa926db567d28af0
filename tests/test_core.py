import json
from array import array
from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppcforge as pf
from ppcforge.cli import main
from ppcforge.core import read_ppc_comments

from conftest import designs, fano_union, linear_subset, raises_exactly


def test_valid_psts7(psts7):
    assert psts7.v == 7
    assert psts7.b == 5
    assert psts7.blocks[0] == (0, 1, 2)


def test_empty_design_is_fine():
    d = pf.validate(3, [])
    assert d.b == 0


def test_pair_violation_reports_both_blocks():
    with pytest.raises(pf.PairViolation) as err:
        pf.validate(7, [(0, 1, 2), (0, 1, 3)])
    assert err.value.pair == (0, 1)
    assert err.value.first == (0, 1, 2)
    assert err.value.second == (0, 1, 3)


def test_repeated_block_is_a_pair_violation():
    with pytest.raises(pf.PairViolation) as err:
        pf.validate(9, [(0, 1, 2), (2, 1, 0)])
    assert str(err.value) == "pair (0, 1) appears in both (0, 1, 2) and (0, 1, 2)"
    assert err.value.first == err.value.second == (0, 1, 2)


def test_pair_violation_on_the_last_pair_of_a_block():
    # (1, 3, 4) shares no pair with (0, 3, 4) until its third pair (3, 4)
    with pytest.raises(pf.PairViolation) as err:
        pf.validate(5, [(1, 4, 3), (0, 3, 4)])
    assert str(err.value) == "pair (3, 4) appears in both (0, 3, 4) and (1, 3, 4)"
    assert (err.value.first, err.value.second) == ((0, 3, 4), (1, 3, 4))


def test_repeated_point_that_sorts_last():
    with pytest.raises(pf.RepeatedPoint, match=r"^block \(2, 1, 1\) repeats a point$"):
        pf.validate(5, [(0, 3, 4), (2, 1, 1)])


def test_string_points_are_a_parse_error():
    # a point is an int: a decimal string is not read, as a float is not truncated
    with raises_exactly("block ('10', '2', '3') has a non-integer point", pf.ParseError):
        pf.validate(11, [("10", "2", "3"), ["0", "1", "2"]])


@pytest.mark.parametrize("block,message", [
    (5, "block 5 is not a sequence of points"),
    (None, "block None is not a sequence of points"),
    (2.5, "block 2.5 is not a sequence of points"),
    # three characters would unpack into three decimal strings
    ("012", "block '012' is not a sequence of points"),
    ("01", "block '01' does not have exactly 3 points"),
    # bytes unpack into byte values and a dict into its keys
    (b"\x00\x01\x02", "block b'\\x00\\x01\\x02' is not a sequence of points"),
    (bytearray(b"\x00\x01\x02"), "block bytearray(b'\\x00\\x01\\x02') is not a sequence of points"),
    ({0: "a", 1: "b", 2: "c"}, "block {0: 'a', 1: 'b', 2: 'c'} is not a sequence of points"),
    (b"012", "block b'012' is not a sequence of points"),
])
def test_a_block_that_is_not_a_sequence_of_points_is_a_parse_error(block, message):
    with pytest.raises(pf.ParseError) as err:
        pf.validate(3, [block])
    assert str(err.value) == message


@pytest.mark.parametrize("block", [(0, 1, 2.5), (True, 2, 3), (0, 1, "x"), (0, 1, None),
                                   ["2", 1.0, 0]])
def test_non_integer_points_are_not_truncated(block):
    with pytest.raises(pf.ParseError) as err:
        pf.validate(7, [(3, 4, 5), block])
    assert str(err.value) == f"block {block!r} has a non-integer point"


@pytest.mark.parametrize("block", [range(0, 3), deque([2, 0, 1]), array("i", [1, 2, 0])])
def test_any_sequence_of_three_ints_is_a_block(block):
    assert pf.validate(7, [(3, 4, 5), block]).blocks == ((0, 1, 2), (3, 4, 5))


def test_bool_point_count_is_rejected():
    with pytest.raises(pf.OutOfRange, match="^point count must be a positive integer, got True$"):
        pf.validate(True, [])


def test_out_of_range_point():
    with pytest.raises(pf.OutOfRange):
        pf.validate(4, [(0, 1, 5)])
    with pytest.raises(pf.OutOfRange):
        pf.validate(4, [(-1, 1, 2)])


def test_short_block_rejected():
    with pytest.raises(pf.RepeatedPoint):
        pf.validate(5, [(1, 1, 2)])
    with pytest.raises(pf.ParseError):
        pf.validate(5, [(1, 2)])


def test_sts9_is_regular(bose9):
    degrees = Counter(p for blk in bose9.design.blocks for p in blk)
    assert sorted(degrees) == list(range(9))
    assert set(degrees.values()) == {4}  # (v-1)/2 for v=9


def test_serialize_round_trip(psts7):
    assert pf.deserialize(pf.serialize(psts7)) == psts7


@pytest.mark.parametrize("ppc,cls,message", [
    ([("a", "b", "c")], pf.ParseError, "block ('a', 'b', 'c') has a non-integer point"),
    ([(0, 1, 2.5)], pf.ParseError, "block (0, 1, 2.5) has a non-integer point"),
    ([(9, 10, 11)], pf.OutOfRange, "block (9, 10, 11) is outside points 0..6"),
    ([(0, 1)], pf.ParseError, "block (0, 1) does not have exactly 3 points"),
    ([True], pf.ParseError, "block True is not a sequence of points"),
], ids=["strings", "float", "outside", "two-points", "bool"])
def test_serialize_refuses_a_class_its_readers_would_refuse(psts7, ppc, cls, message):
    # the error validate gives for the class, raised before any line is written
    with raises_exactly(message, cls):
        pf.validate(psts7.v, ppc)
    with raises_exactly(message, cls):
        pf.serialize(psts7, ppc=ppc)


def test_serialize_keeps_the_class_order(psts7):
    text = pf.serialize(psts7, ppc=[(3, 4, 5), (2, 1, 0)])
    assert text.splitlines()[:3] == ["v=7", "# ppc: 3 4 5", "# ppc: 0 1 2"]
    assert read_ppc_comments(text) == ((3, 4, 5), (0, 1, 2))


def test_deserialize_out_of_range():
    with pytest.raises(pf.OutOfRange):
        pf.deserialize("v=4\n0 1 5\n")


def test_deserialize_psts11_file(psts11_text):
    d = pf.deserialize(psts11_text)
    assert d.v == 11
    assert d.b == 13


def test_ppc_comments_round_trip(psts11_text):
    comments = read_ppc_comments(psts11_text)
    assert comments == ((0, 7, 8), (2, 6, 9), (4, 5, 10))


def test_json_variant_accepted(psts7):
    text = json.dumps({"v": 7, "blocks": [list(b) for b in psts7.blocks]})
    assert pf.deserialize(text) == psts7


def test_json_points_are_not_truncated():
    with pytest.raises(pf.ParseError, match="non-integer point"):
        pf.deserialize('{"v": 7, "blocks": [[0, 1, 2.5]]}')


# one malformed block per row, checked through every door: the block, the
# message validate gives, and its text line with the text reader's message
# (None where text cannot write the case: a text point is a token, and a
# decimal token is read as an int)
MALFORMED_BLOCKS = [
    ([0, 1, 2.5], "block [0, 1, 2.5] has a non-integer point",
     ("0 1 2.5", "line 2: non-integer point in '0 1 2.5'")),
    ([0, 1, True], "block [0, 1, True] has a non-integer point", None),
    (["0", "1", "2"], "block ['0', '1', '2'] has a non-integer point", None),
    ([0, 1, "x"], "block [0, 1, 'x'] has a non-integer point",
     ("0 1 x", "line 2: non-integer point in '0 1 x'")),
    ([0, 1], "block [0, 1] does not have exactly 3 points",
     ("0 1", "line 2: expected 3 points, got '0 1'")),
    ("012", "block '012' is not a sequence of points",
     ("012", "line 2: expected 3 points, got '012'")),
    (None, "block None is not a sequence of points", None),
]


@pytest.mark.parametrize("block,message,text", MALFORMED_BLOCKS)
def test_a_malformed_block_fails_alike_through_every_door(tmp_path, capsys, block, message,
                                                          text):
    with raises_exactly(message, pf.ParseError):
        pf.validate(7, [block])
    doc = json.dumps({"v": 7, "blocks": [block]})
    with raises_exactly(message, pf.ParseError):
        pf.deserialize(doc)
    if text is not None:
        line, text_message = text
        with raises_exactly(text_message, pf.ParseError):
            pf.deserialize(f"v=7\n{line}\n")
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (f"invalid: {message}\n", "")


@pytest.mark.parametrize("v", [True, 7.0, "7", 0, None])
def test_json_v_is_judged_by_validate(v):
    with raises_exactly(f"point count must be a positive integer, got {v!r}", pf.OutOfRange):
        pf.validate(v, [])
    with raises_exactly(f"point count must be a positive integer, got {v!r}", pf.OutOfRange):
        pf.deserialize(json.dumps({"v": v, "blocks": []}))


@pytest.mark.parametrize("doc,message", [
    ('{"v": 7, "blocks": 5}', "JSON design: 'blocks' must be a list"),
    ('{"v": 7, "blocks": "012"}', "JSON design: 'blocks' must be a list"),
    ('{"v": 7}', "JSON design needs keys 'v' and 'blocks'"),
    ('{"blocks": []}', "JSON design needs keys 'v' and 'blocks'"),
])
def test_json_reader_checks_only_what_json_breaks(doc, message):
    with raises_exactly(message, pf.ParseError):
        pf.deserialize(doc)


def test_header_required():
    with pytest.raises(pf.ParseError):
        pf.deserialize("0 1 2\n")


def test_parse_errors_name_their_line():
    with pytest.raises(pf.ParseError) as err:
        pf.deserialize("v=7\n0 1 2\n3 4\n")
    assert str(err.value) == "line 3: expected 3 points, got '3 4'"
    with pytest.raises(pf.ParseError) as err:
        pf.deserialize("# a design\n\nv=7\n# ppc: 0 1 2\n\n0 1 x\n")
    assert str(err.value) == "line 6: non-integer point in '0 1 x'"


# the three readers share one header and comment layout (core.read_text),
# so each meets the same four header faults; then their own record rules
_READERS = {"v": (pf.deserialize, pf.sequencing_from_text), "side": (pf.room_from_text,)}
_ROOM7 = pf.room_to_text(pf.room_square(7)).splitlines()
_SHORT_ROW = _ROOM7[1].rsplit(" ", 1)[0]


def _room7(row2):
    return "\n".join([_ROOM7[0], row2, *_ROOM7[2:]]) + "\n"


@pytest.mark.parametrize("reader,text,message", [
    *((reader, text, message.format(key=key))
      for key, readers in _READERS.items() for reader in readers
      for text, message in (
          ("\n# no header\n", "missing '{key}=<int>' header"),
          ("w=7\n", "line 1: expected '{key}=<int>' header"),
          (f"{key}=seven\n", f"line 1: bad header '{key}=seven'"),
          ("# comment\n\n  0 1 2\n", "line 3: expected '{key}=<int>' header"),
      )),
    (pf.room_from_text, "\n".join(_ROOM7[:-1]) + "\n", "expected 7 rows, got 6"),
    (pf.room_from_text, _room7(_SHORT_ROW), f"line 2: expected 7 cells, got {_SHORT_ROW!r}"),
    (pf.room_from_text, _room7(". " * 6 + "a-b"), "line 2: bad cell 'a-b'"),
    (pf.room_from_text, _room7(". " * 6 + "1-2-3"), "line 2: bad cell '1-2-3'"),
    (pf.sequencing_from_text, "v=3\n0 1\n# c\n2 x\n", "line 4: non-integer entry in '2 x'"),
])
def test_malformed_text_names_its_fault(reader, text, message):
    with raises_exactly(message, pf.ParseError):
        reader(text)


@given(designs())
def test_every_design_is_linear(d):
    seen = set()
    for a, b, c in d.blocks:
        for pair in ((a, b), (a, c), (b, c)):
            assert pair not in seen
            seen.add(pair)


@given(designs())
def test_degree_sum_is_three_b(d):
    degrees = Counter(p for blk in d.blocks for p in blk)
    assert sum(degrees.values()) == 3 * d.b
    assert max(degrees.values(), default=0) <= (d.v - 1) // 2


@given(designs())
def test_serialization_bijective(d):
    assert pf.deserialize(pf.serialize(d)) == d


@given(designs())
def test_no_validated_design_outgrows_the_packing_number(d):
    # linearity alone caps b at D(v), so ``verify`` needs no block-count check
    assert d.b <= pf.packing_number(d.v)


def reference_validate(v, blocks):
    """``validate`` with every block sorted and one dict of pairs: the
    plain form the pair-code check must agree with."""
    if type(v) is not int or v < 1:
        raise pf.OutOfRange(f"point count must be a positive integer, got {v!r}")
    canon = []
    for raw in blocks:
        try:
            a, b, c = sorted(raw)
        except (TypeError, ValueError):
            a = None
        if type(a) is not int or type(b) is not int or type(c) is not int:
            a, b, c = reference_int_points(raw)
        if a == b or b == c:
            raise pf.RepeatedPoint(f"block {tuple(raw)} repeats a point")
        if a < 0 or c >= v:
            raise pf.OutOfRange(f"block {(a, b, c)} is outside points 0..{v - 1}")
        canon.append((a, b, c))
    canon.sort()
    seen = {}
    for blk in canon:
        a, b, c = blk
        for pair in ((a, b), (a, c), (b, c)):
            first = seen.setdefault(pair, blk)
            if first is not blk:
                raise pf.PairViolation(pair, first, blk)
    return pf.Design(v, tuple(canon))


def reference_int_points(raw):
    if len(raw) != 3:
        raise pf.ParseError(f"block {raw!r} does not have exactly 3 points")
    if not all(type(p) is int for p in raw):
        raise pf.ParseError(f"block {raw!r} has a non-integer point")
    a, b, c = sorted(raw)
    return a, b, c


@st.composite
def block_lists(draw):
    """A point count and a block list: a linear design, perhaps broken in
    one way, with its points shuffled within blocks."""
    v = draw(st.integers(min_value=1, max_value=10))
    pool = list(combinations(range(v), 3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)) if pool else []
    blocks = [list(blk) for blk in linear_subset(picks)]
    fault = draw(st.sampled_from(["none", "clash", "twice", "repeat", "range", "length",
                                  "type"]))
    if fault in ("clash", "twice") and blocks:
        blk = draw(st.sampled_from(blocks))
        if fault == "clash":  # a new block on one of its three pairs
            x, y = draw(st.sampled_from([(blk[0], blk[1]), (blk[0], blk[2]), (blk[1], blk[2])]))
            z = draw(st.sampled_from([p for p in range(-1, v + 1) if p not in blk]))
            blk = [x, y, z]
        blocks.insert(draw(st.integers(0, len(blocks))), list(blk))
    elif fault == "repeat":
        x, y = draw(st.integers(0, v)), draw(st.integers(0, v))
        blocks.append([x, y, x])
    elif fault == "range":
        blocks.append([draw(st.sampled_from([-2, -1, v, v + 1])), 0, 1])
    elif fault == "length":
        blocks.append(draw(st.lists(st.integers(0, v - 1), min_size=0, max_size=5)
                           .filter(lambda pts: len(pts) != 3)))
    elif fault == "type":
        odd = draw(st.sampled_from([True, False, 1.0, 2.5, "1", "x", "", None, b"1"]))
        blocks.append([odd, 0, 1])
    out = []
    for blk in draw(st.permutations(blocks)):
        # a deque is read by _int_points rather than the tuple/list fast path
        out.append(draw(st.sampled_from([tuple, list, deque]))(draw(st.permutations(blk))))
    return v, out


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are what must agree
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(block_lists())
@example((5, [(4, 3, 1), (0, 2, 1)]))
@example((11, [("10", "2", "3"), ["0", "1", "2"]]))
@example((7, [(3, 4, 5), (True, 2, 3)]))
@example((7, [(0, 1, 2.0)]))
@example((7, [(1, 2), (0, 1, 2, 3)]))
@example((7, [(2, 1, 1)]))
@example((4, [(0, 1, 5), (-1, 1, 2)]))
@example((7, [(0, 1, 2), (0, 1, 3)]))
@example((7, [(0, 1, 2), (0, 2, 3)]))
@example((7, [(0, 1, 2), (1, 2, 3)]))
@example((7, [(2, 1, 0), (0, 1, 2)]))
def test_validate_matches_the_reference(case):
    v, blocks = case
    assert outcome(pf.validate, v, blocks) == outcome(reference_validate, v, blocks)


def reference_deserialize(text):
    """The text format read one line at a time, the header, the comments
    and each block in turn: the plain form the one-comprehension reader
    in ``deserialize`` must agree with."""
    v, blocks = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if v is None:
            if not line.startswith("v="):
                raise pf.ParseError(f"line {lineno}: expected 'v=<int>' header")
            try:
                v = int(line[2:])
            except ValueError:
                raise pf.ParseError(f"line {lineno}: bad header {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise pf.ParseError(f"line {lineno}: expected 3 points, got {line!r}")
        try:
            blocks.append(tuple(int(p) for p in parts))
        except ValueError:
            raise pf.ParseError(f"line {lineno}: non-integer point in {line!r}") from None
    if v is None:
        raise pf.ParseError("missing 'v=<int>' header")
    return reference_validate(v, blocks)


def point_tokens(p):
    """Ways to write the point ``p`` that ``int()`` reads as ``p``."""
    out = [str(p), f"+{p}", f"0{p}"]
    if p == 0:
        out.append("-0")
    if p >= 10:
        out.append(f"{p // 10}_{p % 10}")
    return out


@st.composite
def design_texts(draw):
    """A design file as a person might write it: comment and blank lines
    anywhere, CRLF or LF endings, tabs and padding, ``+3``/``1_0``-style
    points, and at most one fault on one block line."""
    v = draw(st.integers(min_value=1, max_value=12))
    pool = list(combinations(range(v), 3))
    picks = draw(st.lists(st.sampled_from(pool), max_size=10)) if pool else []
    rows = [[draw(st.sampled_from(point_tokens(p))) for p in draw(st.permutations(blk))]
            for blk in linear_subset(picks)]
    fault = draw(st.sampled_from(["none", "short", "long", "word", "decimal", "negative"]))
    if rows and fault != "none":
        row = draw(st.sampled_from(rows))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append(draw(st.sampled_from(["0", "7", "x"])))
        else:
            row[draw(st.integers(0, 2))] = {"word": "x", "decimal": "2.5", "negative": "-1"}[fault]
    pad = st.sampled_from(["", " ", "\t", " \t "])
    gap = st.sampled_from([" ", "  ", "\t", " \t"])
    lines = [draw(pad) + f"v={v}" + draw(pad)]
    lines += [draw(pad) + draw(gap).join(row) + draw(pad) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(["", "  ", "\t", "# a note", "  # ppc: 0 1 2", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=400, deadline=None)
@given(design_texts())
@example("\r\n# c\r\n\tv=7 \r\n 0\t+1  0_2\r\n\r\n3 4 5\r\n")
@example("v=11\n1_0 +3 -0\n")
@example("v=7\n0 1\n0 1 2 3\n")
@example("v=7\n0 1 2.5\n0 1\n")
@example("v=7\n0 -1 2\n")
def test_deserialize_matches_the_line_by_line_reference(text):
    assert outcome(pf.deserialize, text) == outcome(reference_deserialize, text)


def test_json_nested_past_the_recursion_limit_is_a_parse_error():
    depth = 100_000
    with pytest.raises(pf.ParseError, match="^bad JSON design: ") as err:
        pf.deserialize('{"v": 7, "blocks": ' + "[" * depth + "]" * depth + "}")
    assert type(err.value.__cause__) is RecursionError


# each search with a best-so-far to report, the run that takes ``budget``
# nodes, and the field that says whether it proved its answer
BEST_SO_FAR = {
    "solve_max_ppc": (lambda n: pf.solve_max_ppc(fano_union(3), budget=n), "optimal"),
    "find_sequencing": (lambda n: pf.find_sequencing(fano_union(3), budget=n),
                        "proven_nonsequenceable"),
    "brute_beta": (lambda n: pf.brute_beta(2, 7, budget=n), "complete"),
}


@pytest.mark.parametrize("budget", [0, 1, 10])
@pytest.mark.parametrize("search", [*BEST_SO_FAR, "strong_starter"])
def test_a_search_stops_on_the_first_node_past_its_budget(search, budget):
    if search == "strong_starter":  # nothing to report: it raises
        with pytest.raises(pf.Exhausted) as err:
            pf.onefactor.strong_starter(23, budget=budget)
        assert str(err.value) == f"strong starter search for Z_23 ran out of its {budget} nodes"
        return
    run, proof = BEST_SO_FAR[search]
    res = run(budget)
    assert res.nodes == budget + 1 and not getattr(res, proof)
