"""The benchmark's workloads: instance generation, operations and referee.

An operation takes one instance to an answer.  ``run`` is the timed part and
calls only the package's public functions or ``cli.main``; ``check`` is the
referee, run after the pass with tracing off.  It returns ``PROVEN`` or
``UNPROVEN`` (a budget ran out, or the CLI exited with code 3) and raises
``Wrong`` for an answer that is not correct; any other exception it raises
means output it could not read, which the harness also counts as wrong.

Why each workload is here:

* ``sweep`` -- the paper's central claim: every factor-join design of the
  acceptance grid is built and its maximum PPC proven and profiled, and
  packed builds past the grid go through ``construct`` under a fixed node
  budget.  The exact solver does almost all of the work.
* ``gap`` -- the same solver on designs where the greedy incumbent and the
  ``free//3`` bound are weak: seeded sparse random PSTS(v) solved through
  ``solve-ppc``, the Fano plane, ``psts7_fixture``, and criterion-8 style
  sub-designs cross-checked against ``brute_max_ppc``.  A solver change that
  costs these instances shows here.
* ``search`` -- every search that bypasses the solver: Room squares,
  sequencings found or refuted by exhaustion, ``brute_beta`` and the
  remaining CLI commands.  A solver change should leave it unchanged.

Instances of ``sweep`` and ``search`` are fixed by the paper's grid, and the
seed draws the gap designs and sub-designs.  (Relabeling the small
sequencing instances by the seed was tried and dropped: in two seeds of five
a design sequenced at once in its own labels exhausted 300k nodes.)
"""

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

# Nodes for each `construct` past the grid.  Every build that exhausts it
# also exhausts 300k, and the three that are proven take at most 98 nodes;
# the smaller budget keeps a sweep pass short, so a run has more passes.
FRONTIER_BUDGET = 10_000
SEQUENCE_BUDGET = 300_000  # nodes for each sequencing search
# Seeded random PSTS(30) per gap pass, b from v to 2v.  Solve costs are
# heavy-tailed (the spread between designs is about the mean, and both grow
# fast with v: measured 2.5k nodes at v=30, 10k at v=34, 0.5M at v=48), so
# the gap total is steady from seed to seed only over many small designs
# (on a 2-vCPU Xeon virtual machine, ten seeds at 400 designs spread 20% in
# wall_s, at 800 7-16%).  With the Fano plane, psts7 and the 201
# sub-designs, 790 makes 993 operations: op_tail_ms is then p98 with about
# 20 operations beyond it, where 1000 or more would make it p99 with as few
# as 10, an order statistic that wanders more from seed to seed.
GAP_DESIGNS = 790
GAP_V = 30

# (rho, ell) packed builds past the acceptance grid; the first three are
# proven within the budget at the baseline, the rest exhaust it.
FRONTIER = ((6, 12), (8, 16), (10, 20), (6, 24), (8, 32), (10, 30), (6, 48), (12, 36))

PROVEN, UNPROVEN = "proven", "unproven"

# bound_table(27, 9, with_known=True), acceptance criterion 1
TABLE1 = {
    "d": (0, 0, 1, 1, 2, 4, 7, 8, 12),
    "lower": (13, 24, 37, 45, 57, 64, 77, 117, 117),
    "upper": (13, 31, 57, 86, 117, 117, 117, 117, 117),
}
# beta(2,6) = 2 is documented (beta_lower overstates it) but not in
# beta_exact_known
DOCUMENTED_BETA = {(2, 6): 2}


class Wrong(Exception):
    """The referee rejected an answer."""


@dataclass
class Op:
    key: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any], str]
    # stdout digest of a CLI call: compared with the stored digest when the
    # instance is seed-independent, else across the passes of the run
    cli: bool = False
    fixed: bool = True


def call_cli(pf, argv: Sequence[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pf.cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def packing_number(n: int) -> int:
    """D(n), computed here so the referee does not trust the package's own."""
    if n < 3:
        return 0
    return n * ((n - 1) // 2) // 3 - (n % 6 == 5)


def check_class(blocks, klass, size: int) -> None:
    """``klass`` is ``size`` pairwise disjoint blocks of the design."""
    block_set = set(blocks)
    points = [p for blk in klass for p in blk]
    if len(klass) != size or len(points) != len(set(points)):
        raise Wrong(f"class {klass} is not {size} disjoint blocks")
    missing = [blk for blk in klass if tuple(sorted(blk)) not in block_set]
    if missing:
        raise Wrong(f"class blocks {missing} are not in the design")


def write_design(path: Path, v: int, blocks) -> str:
    """Write a design file; return the sha256 of its text for the manifest."""
    text = f"v={v}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in blocks)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- sweep


def grid() -> List[Tuple[str, int, int]]:
    """The 143 builds of the acceptance sweep: rho 1..5, even ell <= 24."""
    out = []
    for rho in range(1, 6):
        for ell in range(2 * rho, 25, 2):
            if (ell, rho) == (4, 2):
                continue  # K_4 has no two disjoint one-factors
            out += [("pure", rho, ell), ("packed", rho, ell)]
            if ell > 2 * rho:
                out.append(("trimmed", rho, ell))
    return out


BUILDERS = {"pure": "factor_join", "packed": "factor_join_packed", "trimmed": "factor_join_odd"}


def grid_blocks(variant: str, rho: int, ell: int) -> int:
    extra = {"pure": 0, "packed": packing_number(rho), "trimmed": packing_number(rho) - rho}
    return rho * ell // 2 + extra[variant]


def _grid_op(pf, variant, rho, ell) -> Op:
    def run():
        w = getattr(pf, BUILDERS[variant])(rho, ell)
        r = pf.solve_max_ppc(w.design)
        if not r.optimal:
            return w, r, None
        try:
            pf.extension_profile(w.design, r)
        except pf.ppc.NotMaximum as exc:
            return w, r, str(exc)
        return w, r, None

    def check(res):
        w, r, not_max = res
        if not r.optimal:
            return UNPROVEN
        if r.size != rho:
            raise Wrong(f"solver proves max PPC {r.size}, construction claims {rho}")
        if w.design.b != grid_blocks(variant, rho, ell):
            raise Wrong(f"{w.design.b} blocks, expected {grid_blocks(variant, rho, ell)}")
        if not_max:
            raise Wrong(f"extension_profile rejects the proven class: {not_max}")
        check_class(w.design.blocks, r.witness, rho)
        check_class(w.design.blocks, w.witness_ppc, rho)
        return PROVEN

    return Op(f"sweep/{variant}/rho={rho}/ell={ell}",
              {"variant": variant, "rho": rho, "ell": ell, "budget": "default"}, run, check)


def _frontier_op(pf, rho, ell) -> Op:
    argv = ["construct", "--rho", rho, "--v", rho + ell, "--variant", "packed",
            "--budget", FRONTIER_BUDGET]

    def check(res):
        rc, out, err = res
        if rc == 3:
            return UNPROVEN
        if rc != 0:
            raise Wrong(f"construct exited {rc}: {err.strip()}")
        design = pf.deserialize(out)
        if design.b != grid_blocks("packed", rho, ell) or design.v != rho + ell:
            raise Wrong(f"construct printed v={design.v}, b={design.b}")
        if f"maximum PPC = {rho} verified" not in err:
            raise Wrong(f"construct did not verify: {err.strip()}")
        check_class(design.blocks, pf.read_ppc_comments(out), rho)
        return PROVEN

    return Op(f"sweep/frontier/rho={rho}/ell={ell}",
              {"variant": "packed", "rho": rho, "ell": ell, "budget": FRONTIER_BUDGET,
               "argv": [str(a) for a in argv]},
              lambda: call_cli(pf, argv), check, cli=True)


def build_sweep(pf, rng: random.Random, work: Path) -> List[Op]:
    ops = [_grid_op(pf, *g) for g in grid()]
    return ops + [_frontier_op(pf, rho, ell) for rho, ell in FRONTIER]


# ---------------------------------------------------------------- gap


def random_psts(rng: random.Random, v: int, b: int) -> List[Tuple[int, int, int]]:
    """``b`` random triples on ``v`` points, no pair in two of them."""
    pairs, blocks = set(), []
    while len(blocks) < b:
        t = tuple(sorted(rng.sample(range(v), 3)))
        tp = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if not tp & pairs:
            pairs |= tp
            blocks.append(t)
    return sorted(blocks)


def parse_solve(out: str):
    lines = out.splitlines()
    head = lines[0].split()
    if head[:3] != ["max", "ppc", "="]:
        raise Wrong(f"unexpected solve-ppc output {lines[0]!r}")
    klass = [tuple(int(p) for p in ln.split()) for ln in lines[1:]]
    return int(head[3]), "(optimal)" in lines[0], klass


def _solve_file_op(pf, key, work, v, blocks, expect: Optional[int], fixed: bool) -> Op:
    path = work / f"{key.rsplit('/', 1)[1]}.txt"
    sha = write_design(path, v, blocks)

    def check(res):
        rc, out, err = res
        if rc == 3:
            return UNPROVEN
        if rc != 0:
            raise Wrong(f"solve-ppc exited {rc}: {err.strip()}")
        size, optimal, klass = parse_solve(out)
        if not optimal:
            raise Wrong("exit code 0 without a proof")
        check_class(blocks, klass, size)
        if expect is not None and size != expect:
            raise Wrong(f"max PPC {size}, expected {expect}")
        return PROVEN

    return Op(key, {"v": v, "b": len(blocks), "sha256": sha, "budget": "default",
                    "expect": expect},
              lambda: call_cli(pf, ["solve-ppc", path]), check, cli=True, fixed=fixed)


def _oracle_op(pf, key, design) -> Op:
    def run():
        return pf.solve_max_ppc(design), pf.brute_max_ppc(design)

    def check(res):
        r, brute = res
        if not r.optimal:
            return UNPROVEN
        if r.size != brute:
            raise Wrong(f"solver {r.size} != brute_max_ppc {brute}")
        check_class(design.blocks, r.witness, r.size)
        return PROVEN

    return Op(key, {"v": design.v, "blocks": [list(b) for b in design.blocks]}, run, check)


def build_gap(pf, rng: random.Random, work: Path) -> List[Op]:
    ops = []
    fano = sorted(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
    for name, blocks, expect in (("fano", fano, 1),
                                 ("psts7", pf.psts7_fixture().blocks, 2)):
        ops.append(_solve_file_op(pf, f"gap/{name}", work, 7, blocks, expect, True))
    v = GAP_V
    for i in range(GAP_DESIGNS):
        b = v + (i % 12) * v // 11  # twelve block counts from v to 2v
        ops.append(_solve_file_op(pf, f"gap/psts{i:03d}", work, v, random_psts(rng, v, b),
                                  None, False))
    # criterion 8: sub-designs of grid builds with at least 20 blocks, and Bose(9)
    sources = [g for g in grid() if grid_blocks(*g) >= 20][::5][:8]
    designs = [pf.construct_bose(9).design]
    for variant, rho, ell in sources:
        blocks = list(getattr(pf, BUILDERS[variant])(rho, ell).design.blocks)
        for _ in range(25):
            k = rng.randint(0, min(20, len(blocks)))
            designs.append(pf.validate(rho + ell - (variant == "trimmed"), rng.sample(blocks, k)))
    ops += [_oracle_op(pf, f"gap/sub{i:03d}", d) for i, d in enumerate(designs)]
    return ops


# ---------------------------------------------------------------- search


def _room_op(pf, side) -> Op:
    def check(square):
        if square.side != side:
            raise Wrong(f"asked for side {side}, got {square.side}")
        try:
            pf.validate_room(square)
        except pf.onefactor.RoomValidationError as exc:
            raise Wrong(f"invalid Room square: {exc}") from exc
        return PROVEN

    return Op(f"search/room/side={side}", {"side": side}, lambda: pf.room_square(side), check)


def _sequence_op(pf, key, design, expect: str) -> Op:
    """``expect``: "found", "none" (provably nonsequenceable) or "open"."""

    def check(outcome):
        if outcome.found:
            if expect == "none":
                raise Wrong("found a sequencing of a nonsequenceable design")
            seq = pf.check_sequencing(design, outcome.sequencing.perm)
            if not seq.valid:
                raise Wrong(f"sequencing fails at window {seq.violation}")
            return PROVEN
        if outcome.proven_nonsequenceable:
            if expect == "found":
                raise Wrong("claims nonsequenceable, but a sequencing exists")
            return PROVEN
        return UNPROVEN

    return Op(key, {"v": design.v, "blocks": [list(b) for b in design.blocks],
                    "expect": expect, "budget": SEQUENCE_BUDGET},
              lambda: pf.find_sequencing(design, budget=SEQUENCE_BUDGET), check)


def _beta_op(pf, rho, v) -> Op:
    def check(r):
        if not r.complete:
            return UNPROVEN
        want = pf.beta_exact_known(rho, v) or DOCUMENTED_BETA.get((rho, v))
        if want is not None and r.value != want:
            raise Wrong(f"beta({rho},{v}) = {r.value}, expected {want}")
        if len(r.witness) != r.value or pf.brute_max_ppc(pf.validate(v, r.witness)) != rho:
            raise Wrong(f"witness of beta({rho},{v}) does not have max PPC {rho}")
        return PROVEN

    return Op(f"search/beta/rho={rho}/v={v}", {"rho": rho, "v": v, "budget": "default"},
              lambda: pf.brute_beta(rho, v), check)


def _cli_search_ops(pf, work: Path) -> List[Op]:
    example = pf.factor_join_packed(3, 8).design
    single = pf.validate(3, [(0, 1, 2)])
    ops = []
    for name, design, expect in (("example11", example, "found"), ("single3", single, "none")):
        path = work / f"{name}.txt"
        write_design(path, design.v, design.blocks)
        argv = ["sequence", "find", path, "--budget", SEQUENCE_BUDGET]

        def check(res, design=design, expect=expect):
            rc, out, err = res
            if rc == 3:
                return UNPROVEN
            if expect == "found" and rc == 0:
                lines = out.split("\n")
                perm = [int(p) for p in lines[1].split()]
                if lines[0] != f"v={design.v}" or not pf.check_sequencing(design, perm).valid:
                    raise Wrong(f"printed sequencing is not valid: {out!r}")
                return PROVEN
            if expect == "none" and rc == 2 and out.startswith("nonsequenceable"):
                return PROVEN
            raise Wrong(f"sequence find exited {rc}: {out.strip()} {err.strip()}")

        ops.append(Op(f"search/cli/sequence-find/{name}",
                      {"argv": ["sequence", "find", path.name, "--budget", str(SEQUENCE_BUDGET)]},
                      lambda argv=argv: call_cli(pf, argv), check, cli=True))

    def check_beta(res):
        rc, out, err = res
        if rc == 3:
            return UNPROVEN
        if rc != 0 or not out.startswith("beta(2,7) = 5\n"):
            raise Wrong(f"oracle beta exited {rc}: {out[:40]!r}")
        witness = pf.deserialize(out.split("witness:\n", 1)[1])
        if witness.b != 5 or pf.brute_max_ppc(witness) != 2:
            raise Wrong("beta(2,7) witness is not 5 blocks with max PPC 2")
        return PROVEN

    def check_room(res):
        rc, out, err = res
        if rc != 0:
            raise Wrong(f"roomsquare exited {rc}: {err.strip()}")
        try:
            pf.validate_room(pf.room_from_text(out))
        except pf.ToolkitError as exc:
            raise Wrong(f"printed square is invalid: {exc}") from exc
        return PROVEN

    def check_table(res):
        rc, out, err = res
        rows = [ln.split() for ln in out.splitlines()[2:]]
        got = {name: tuple(int(r[i]) for r in rows) for i, name in
               ((1, "d"), (2, "lower"), (3, "upper"))}
        if rc != 0 or got != TABLE1:
            raise Wrong(f"table1 printed {got}")
        return PROVEN

    for argv, check in ((["oracle", "beta", "--rho", "2", "--v", "7"], check_beta),
                        (["roomsquare", "--side", "15"], check_room),
                        (["table1"], check_table)):
        ops.append(Op("search/cli/" + "-".join(argv), {"argv": argv},
                      lambda argv=argv: call_cli(pf, argv), check, cli=True))
    return ops


def build_search(pf, rng: random.Random, work: Path) -> List[Op]:
    # CLI calls first, so `roomsquare` builds its square from a cold cache
    ops = _cli_search_ops(pf, work)
    ops += [_room_op(pf, side) for side in range(7, 48, 2)]
    fixed = (
        ("packed5_12", pf.factor_join_packed(5, 12).design, "found"),
        ("bose9", pf.construct_bose(9).design, "none"),
        ("single3", pf.validate(3, [(0, 1, 2)]), "none"),
        ("packed4_10", pf.factor_join_packed(4, 10).design, "open"),
    )
    ops += [_sequence_op(pf, f"search/sequence/{n}", d, e) for n, d, e in fixed]
    # criterion 10: rho <= 3, v <= 15, v > 3*rho, so a sequencing exists
    for variant, rho, ell in grid():
        v = rho + ell - (variant == "trimmed")
        if rho <= 3 and 3 * rho < v <= 15:
            design = getattr(pf, BUILDERS[variant])(rho, ell).design
            ops.append(_sequence_op(pf, f"search/sequence/{variant}-{rho}-{ell}", design, "found"))
    ops += [_beta_op(pf, rho, v) for v in range(3, 9) for rho in range(1, v // 3 + 1)]
    return ops


BUILD = {"sweep": build_sweep, "gap": build_gap, "search": build_search}


def preflight(pf) -> None:
    """Run-level referee for the closed-form layer (criterion 1)."""
    rows = pf.bound_table(27, 9, with_known=True)
    got = {"d": tuple(r.d_rho for r in rows), "lower": tuple(r.lower for r in rows),
           "upper": tuple(r.upper for r in rows)}
    if got != TABLE1:
        raise Wrong(f"bound_table(27, 9, with_known=True) = {got}")


def build(workload: str, pf, seed: int, work: Path) -> List[Op]:
    work.mkdir(parents=True, exist_ok=True)
    return BUILD[workload](pf, random.Random(f"{workload}:{seed}"), work)
