"""Partial Steiner triple systems as immutable data.

A partial Steiner triple system PSTS(v) is a set of 3-element blocks drawn
from a point set of size v such that every pair of points lies in at most one
block.  When every pair lies in exactly one block the system is a full
STS(v).  This module holds the value type, structural validation, a
plain-text interchange format, ``read_text`` (the header and comment layout
of every text format), and what every search shares: the node limit
``NODE_LIMIT`` and the errors ``Exhausted`` and ``SearchTooDeep``.  Each
search counts its nodes in a local and raises ``Exhausted`` on the first
node past its limit.

Every failure the package reports is a ``ToolkitError``.  A failure has a
subclass of its own only where some caller tells it apart; every other
failure raises ``ToolkitError`` itself, and its message says what failed.

Points are always the dense labels 0..v-1.  Blocks are kept canonical:
each block is an ascending 3-tuple and the block list is sorted
lexicographically.  ``Design`` is an immutable ``NamedTuple`` record, so it
is safe to share across threads and to use as a cache key.
"""

import json
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

Block = Tuple[int, int, int]

# the default node limit of every search, from the CLI and the library alike
NODE_LIMIT = 20_000_000


class ToolkitError(Exception):
    """Base class of every error this package raises, and raised itself for
    each failure that no caller tells apart by a subclass of its own."""


class OutOfRange(ToolkitError):
    """A count or a point lies outside its range: a point count below 1, a
    block point outside 0..v-1, rho below 1, a point outside Z_5 x Z_5."""


class RepeatedPoint(ToolkitError):
    """A block mentions the same point twice."""


class PairViolation(ToolkitError):
    """Some pair of points appears in two blocks (repeated blocks included)."""

    def __init__(self, pair, first, second):
        self.pair = tuple(pair)
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(
            f"pair {self.pair} appears in both {self.first} and {self.second}"
        )


class ParseError(ToolkitError):
    """Malformed design, square, or sequencing text."""


class Exhausted(ToolkitError):
    """A search used up its node limit before it could answer."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} ran out of its {budget} nodes")


class SearchTooDeep(ToolkitError):
    """A search nests deeper than Python's recursion limit."""

    def __init__(self, what: str, v: int):
        super().__init__(
            f"{what} on {v} points nests deeper than the recursion limit "
            f"of {sys.getrecursionlimit()}"
        )


class Design(NamedTuple):
    """A validated PSTS(v): ``v`` points and canonically sorted blocks."""

    v: int
    blocks: Tuple[Block, ...]

    @property
    def b(self) -> int:
        return len(self.blocks)


def validate(v: int, blocks: Iterable[Sequence[int]]) -> Design:
    """Check linearity and ranges; return the canonical ``Design``.

    Points are ints; anything else (a decimal string, a float, a bool)
    raises ``ParseError`` rather than being read or truncated.
    Raises ``OutOfRange``, ``RepeatedPoint``, or ``PairViolation``.  A block
    listed twice is reported as a ``PairViolation`` on its first pair, since
    a repeated block repeats pairs.  Linearity is checked on one set of
    pair codes x*v + y; only a repeated code runs the scan that names it.
    """
    if type(v) is not int or v < 1:
        raise OutOfRange(f"point count must be a positive integer, got {v!r}")
    canon = []
    codes = set()  # the pair x < y has code x*v + y
    for raw in blocks:
        try:  # bytes would unpack to byte values and a dict to its keys
            a, b, c = raw if type(raw) in (tuple, list) else None
        except (TypeError, ValueError):  # not 3 points
            a = None
        # type(), not isinstance: bool subclasses int
        if type(a) is not int or type(b) is not int or type(c) is not int:
            a, b, c = _int_points(raw)
        elif not a < b < c:
            a, b, c = sorted((a, b, c))
        if a == b or b == c:  # sorted, so a repeat sits beside its twin
            raise RepeatedPoint(f"block {tuple(raw)} repeats a point")
        if a < 0 or c >= v:
            raise OutOfRange(f"block {(a, b, c)} is outside points 0..{v - 1}")
        canon.append((a, b, c))
        codes.add(a * v + b)
        codes.add(a * v + c)
        codes.add(b * v + c)
    canon.sort()
    if len(codes) < 3 * len(canon):
        seen = {}
        for blk in canon:
            a, b, c = blk
            for pair in ((a, b), (a, c), (b, c)):
                # each block is its own tuple, so a block listed twice clashes too
                first = seen.setdefault(pair, blk)
                if first is not blk:
                    raise PairViolation(pair, first, blk)
    return Design(v, tuple(canon))


def _int_points(raw: Sequence) -> Tuple[int, int, int]:
    """The sorted points of a block that is not a tuple or list of ints:
    another sequence of three ints, or else a ``ParseError``."""
    if not hasattr(raw, "__len__"):
        raise ParseError(f"block {raw!r} is not a sequence of points")
    if len(raw) != 3:
        raise ParseError(f"block {raw!r} does not have exactly 3 points")
    if isinstance(raw, (str, bytes, bytearray, dict)):  # not three points
        raise ParseError(f"block {raw!r} is not a sequence of points")
    if not all(type(p) is int for p in raw):
        raise ParseError(f"block {raw!r} has a non-integer point")
    a, b, c = sorted(raw)
    return a, b, c


def serialize(design: Design, ppc: Optional[Sequence[Block]] = None) -> str:
    """Render the text interchange format.

    Layout: a ``v=<int>`` header, optional ``# ppc: a b c`` comment lines
    carrying a known partial parallel class, then one block per line as three
    ascending space-separated integers in lexicographic order.
    """
    lines = [f"v={design.v}"]
    if ppc:
        for blk in ppc:
            a, b, c = sorted(blk)
            lines.append(f"# ppc: {a} {b} {c}")
    for a, b, c in design.blocks:
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Design:
    """Parse the text format, or a JSON object with keys ``v``/``blocks``,
    a list; ``validate`` judges ``v`` and every block and point of it."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep for json
            raise ParseError(f"bad JSON design: {exc}") from exc
        if "v" not in obj or "blocks" not in obj:  # text opening with "{" loads a dict
            raise ParseError("JSON design needs keys 'v' and 'blocks'")
        if not isinstance(obj["blocks"], list):
            raise ParseError("JSON design: 'blocks' must be a list")
        return validate(obj["v"], obj["blocks"])
    v, records = read_text(text, "v")
    try:  # a block line is three tokens that int() reads
        blocks = [(int(a), int(b), int(c)) for a, b, c in (ln.split() for _, ln in records)]
    except ValueError:  # name the first line that broke the rule
        for lineno, line in records:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 3 points, got {line!r}") from None
            try:
                [int(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer point in {line!r}") from exc
    return validate(v, blocks)


def read_text(text: str, key: str) -> Tuple[int, List[Tuple[int, str]]]:
    """The layout of designs, Room squares and sequencings: the first line
    neither blank nor a ``#`` comment is a ``key=<int>`` header, and blank
    and comment lines are skipped anywhere.  Returns the header's int and
    the other lines, stripped, with their line numbers counted from 1."""
    numbered = enumerate(text.splitlines(), start=1)
    for lineno, raw in numbered:
        line = raw.strip()
        if line and line[0] != "#":
            break
    else:
        raise ParseError(f"missing '{key}=<int>' header")
    if not line.startswith(key + "="):
        raise ParseError(f"line {lineno}: expected '{key}=<int>' header")
    try:
        head = int(line[len(key) + 1:])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad header {line!r}") from exc
    return head, [(n, ln) for n, raw in numbered if (ln := raw.strip()) and ln[0] != "#"]


def read_ppc_comments(text: str) -> Tuple[Block, ...]:
    """Collect blocks recorded in ``# ppc: a b c`` comment lines."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#") and line[1:].strip().startswith("ppc:"):
            body = line[1:].strip()[4:]
            parts = body.split()
            if len(parts) != 3:
                raise ParseError(f"bad ppc comment {raw!r}")
            try:
                out.append(tuple(sorted(int(p) for p in parts)))
            except ValueError as exc:
                raise ParseError(f"non-integer point in ppc comment {raw!r}") from exc
    return tuple(out)
