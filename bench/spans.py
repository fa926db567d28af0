"""Spans recorded around calls into ppcforge's public functions.

The benchmark never edits the package.  It replaces, in every loaded
``ppcforge`` module, each attribute bound to a traced function with a
wrapper, so every caller that looks the name up -- the package itself
included -- goes through the wrapper.  A wrapper records one span per call
while an operation is active: the function's name, start, end, the span that
called it and the operation id.  Spans stay in memory until the run ends.
"""

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _ppc_summary(r):
    return {"nodes": r.nodes, "optimal": r.optimal, "size": r.size}


def _seq_summary(r):
    return {"nodes": r.nodes, "exhausted": not r.found and not r.proven_nonsequenceable}


# (module, function, summary of the return value kept on the span)
TRACED = (
    ("core", "validate", None),
    ("core", "deserialize", None),
    ("core", "serialize", None),
    ("construct", "max_packing", None),
    ("construct", "factor_join", None),
    ("construct", "factor_join_packed", None),
    ("construct", "factor_join_odd", None),
    ("onefactor", "select_factors", None),
    ("onefactor", "room_square", None),
    ("onefactor", "strong_starter", None),
    ("onefactor", "validate_room", None),
    ("ppc", "solve_max_ppc", _ppc_summary),
    ("ppc", "greedy_ppc", lambda r: {"size": len(r)}),
    ("ppc", "extension_profile", None),
    ("sequence", "find_sequencing", _seq_summary),
    ("sequence", "check_sequencing", None),
    ("oracle", "brute_max_ppc", None),
    ("oracle", "brute_beta", lambda r: {"nodes": r.nodes}),
    ("cli", "main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "info": self.info,
        }


class Tracer:
    """Owns the wrappers and the span list of one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, summary) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # referee and set-up calls are not measured
                return fn(*args, **kwargs)
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if summary is not None:
                span.info = summary(result)
            return result

        return traced

    def install(self, package: str = "ppcforge") -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod_name, fn_name, summary in TRACED:
            fn = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", fn, summary)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        inside = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[i]
            if c.end > span.start and c.start < span.end
        ]
        out.append((span.end - span.start) - _covered(inside))
    return out


def root_covered(spans: List[Span]) -> float:
    """Wall time covered by at least one span."""
    return _covered((s.start, s.end) for s in spans if s.parent is None)


# per-layer metric names, as BENCHMARK.json lists them
LAYER_METRICS = (
    ("ppc.solve_max_ppc.calls", "count"),
    ("ppc.solve_max_ppc.self_s", "s"),
    ("ppc.solve_max_ppc.nodes", "count"),
    ("ppc.solve_max_ppc.exhausted", "count"),
    ("ppc.solve_max_ppc.root_closed", "count"),
    ("ppc.greedy_ppc.self_s", "s"),
    ("ppc.greedy_ppc.hit_ratio", "ratio"),
    ("ppc.extension_profile.self_s", "s"),
    ("construct.max_packing.calls", "count"),
    ("construct.max_packing.self_s", "s"),
    ("construct.factor_join.self_s", "s"),
    ("construct.factor_join_packed.self_s", "s"),
    ("construct.factor_join_odd.self_s", "s"),
    ("onefactor.select_factors.self_s", "s"),
    ("onefactor.room_square.calls", "count"),
    ("onefactor.room_square.misses", "count"),
    ("onefactor.room_square.self_s", "s"),
    ("onefactor.strong_starter.self_s", "s"),
    ("onefactor.validate_room.self_s", "s"),
    ("sequence.find_sequencing.calls", "count"),
    ("sequence.find_sequencing.self_s", "s"),
    ("sequence.find_sequencing.nodes", "count"),
    ("sequence.find_sequencing.exhausted", "count"),
    ("sequence.check_sequencing.self_s", "s"),
    ("oracle.brute_max_ppc.calls", "count"),
    ("oracle.brute_max_ppc.self_s", "s"),
    ("oracle.brute_beta.self_s", "s"),
    ("oracle.brute_beta.nodes", "count"),
    ("core.validate.calls", "count"),
    ("core.validate.self_s", "s"),
    ("core.deserialize.self_s", "s"),
    ("core.serialize.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.uncovered_s", "s"),
)


def layer_values(spans: List[Span], passes: int, room_misses: int,
                 scale: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``room_misses`` is the total of ``room_square.cache_info().misses``
    over those passes; the harness metrics are filled in by the caller.
    ``scale`` maps an operation id to the factor that turns its raw seconds
    into seconds of the nominal host (see ``clock.py``); self times are
    scaled by it.
    """
    scale = scale or {}
    selfs = self_times(spans)
    sums: Dict[str, float] = defaultdict(float)
    greedy_size = {}
    for i, span in enumerate(spans):
        sums[span.name + ".calls"] += 1
        sums[span.name + ".self_s"] += selfs[i] * scale.get(span.op, 1.0)
        info = span.info or {}
        sums[span.name + ".nodes"] += info.get("nodes", 0)
        sums[span.name + ".exhausted"] += bool(info.get("exhausted"))
        if span.name == "ppc.greedy_ppc" and span.parent is not None:
            greedy_size[span.parent] = info["size"]
    proven = hits = 0
    for i, span in enumerate(spans):
        if span.name != "ppc.solve_max_ppc":
            continue
        sums["ppc.solve_max_ppc.exhausted"] += not span.info["optimal"]
        sums["ppc.solve_max_ppc.root_closed"] += span.info["nodes"] == 1
        if span.info["optimal"]:
            proven += 1
            hits += greedy_size.get(i) == span.info["size"]
    sums["onefactor.room_square.misses"] = room_misses
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "ppc.greedy_ppc.hit_ratio":
            out[name] = hits / proven if proven else 0.0
        elif not name.startswith("harness."):
            out[name] = sums.get(name, 0.0) / passes
    return out
