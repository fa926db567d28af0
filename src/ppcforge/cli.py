"""Command-line interface.

One executable, ``ppcforge``, with batch subcommands: construct designs
with a prescribed maximum PPC, solve/verify design files, print bound
tables, search and check sequencings, emit Room squares, and run the
brute-force oracles.  Exit codes: 0 success, 1 usage or I/O problem (or a
construction whose certificate fails, a bug), 2 verification failure, 3 a
search ran out of its node limit.  ``construct`` proves its maximum PPC
from the certificate every factor join carries, searches nothing and so
never exits 3.  Every ``--budget`` defaults to ``core.NODE_LIMIT``, the
node limit of every search, and one below 1 is a usage error.

Machine-readable output (design files, ``--format rows`` tables, square and
sequencing files) is deterministic for fixed flags; wall-clock timings go
to stderr only.

``main(argv)`` may be called any number of times in one process.  It builds
the parser on its first call and reuses it.
"""

import argparse
import sys
import time
from typing import List, Optional, TextIO

from . import bounds as bounds_mod
from . import construct as construct_mod
from .core import NODE_LIMIT, Design, ToolkitError, deserialize, read_ppc_comments, serialize
from .onefactor import room_square, room_to_text
from .oracle import brute_beta
from .ppc import BadCertificate, certify, class_points, solve_max_ppc
from .sequence import (
    check_sequencing,
    find_sequencing,
    sequencing_from_text,
    sequencing_to_text,
)

def _read(path: str) -> str:
    """The file as UTF-8 text less one leading byte-order mark, with CRLF
    and CR line ends made LF, as a text-mode ``open`` reads it (JSON error
    positions count characters), without the cost of its text layer."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise ToolkitError(f"{path}: not UTF-8 text ({where})") from None
    text = text.removeprefix("\ufeff")  # not utf-8-sig: its error offsets skip the mark
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _emit(text: str, out: Optional[str]) -> TextIO:
    """Write ``text`` to the file ``out``, or else to stdout; return the
    stream for the command's note: stdout, unless the text went there."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return sys.stdout
    sys.stdout.write(text)
    return sys.stderr


def _load_design(path: str) -> Design:
    return deserialize(_read(path))


def _cmd_construct(args: argparse.Namespace) -> int:
    rho, v = args.rho, args.v
    variant = args.variant
    if variant is None:
        variant = "packed" if (v - rho) % 2 == 0 else "trimmed"
    ell = v - rho + (variant == "trimmed")  # trimming deletes one point
    if ell % 2:
        raise ToolkitError(
            f"variant {variant} needs v-rho {'even' if variant != 'trimmed' else 'odd'} "
            f"(got rho={rho}, v={v})"
        )
    witness = construct_mod.FACTOR_JOINS[variant](rho, ell)
    # the apex points meet every block and the witness blocks are disjoint:
    # an O(b) proof of the maximum, so nothing is searched
    size = certify(witness.design, witness.witness_ppc, witness.s_points)
    note = _emit(serialize(witness.design, ppc=witness.witness_ppc), args.out)
    note.write(
        f"PSTS({witness.design.v}) with b={witness.design.b} blocks, "
        f"variant={variant}; maximum PPC = {size} verified\n"
        f"witness: {' '.join(','.join(map(str, blk)) for blk in witness.witness_ppc)}\n"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    design = _load_design(args.file)
    t0 = time.perf_counter()
    result = solve_max_ppc(design, budget=args.budget)
    elapsed = time.perf_counter() - t0
    status = "optimal" if result.optimal else "budget-exhausted (lower bound)"
    sys.stdout.write(f"max ppc = {result.size} ({status})\n"
                     + "".join(f"  {a} {b} {c}\n" for a, b, c in result.witness))
    sys.stderr.write(f"nodes: {result.nodes}\ntime: {elapsed:.3f}s\n")
    return 0 if result.optimal else 3


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read(args.file)
    try:
        design = deserialize(text)
        comments = read_ppc_comments(text)
    except ToolkitError as exc:
        print(f"invalid: {exc}")
        return 2
    if comments:
        try:
            class_points(design, comments)
        except BadCertificate as exc:
            print(f"invalid: claimed {exc}")
            return 2
        print(f"ok: v={design.v} b={design.b}, embedded class of {len(comments)} disjoint blocks")
    else:
        print(f"ok: v={design.v} b={design.b}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rows = bounds_mod.bound_table(args.v, args.rho_max, with_known=args.with_known)
    sys.stdout.write(bounds_mod.format_table(rows, style=args.format))
    return 0


def _cmd_sequence_find(args: argparse.Namespace) -> int:
    design = _load_design(args.file)
    outcome = find_sequencing(design, budget=args.budget)
    if outcome.found:
        note = _emit(sequencing_to_text(design.v, outcome.sequencing.perm), args.out)
        print(f"sequencing found ({outcome.nodes} nodes)", file=note)
        return 0
    if outcome.proven_nonsequenceable:
        print("nonsequenceable: the search space was exhausted")
        print(f"proof: {outcome.proof}, {outcome.nodes} nodes", file=sys.stderr)
        return 2
    print(f"not found within budget ({outcome.nodes} nodes; not a nonsequenceability proof)",
          file=sys.stderr)
    return 3


def _cmd_sequence_check(args: argparse.Namespace) -> int:
    design = _load_design(args.file)
    v, perm = sequencing_from_text(_read(args.perm))
    if v != design.v:
        raise ToolkitError(f"permutation file says v={v}, design has v={design.v}")
    seq = check_sequencing(design, perm)
    if seq.valid:
        print("valid sequencing")
        return 0
    t, start = seq.violation
    print(f"invalid: window of {3 * t} points at position {start} is a union of {t} blocks")
    return 2


def _cmd_roomsquare(args: argparse.Namespace) -> int:
    _emit(room_to_text(room_square(args.side)), args.out)
    if args.out:
        print(f"side-{args.side} square written")
    return 0


def _cmd_oracle_beta(args: argparse.Namespace) -> int:
    result = brute_beta(args.rho, args.v, budget=args.budget)
    if not result.complete:
        print(f"budget exhausted; best found so far {result.value}", file=sys.stderr)
        return 3
    print(f"beta({args.rho},{args.v}) = {result.value}")
    if result.witness:
        print("witness:")
        sys.stdout.write(serialize(Design(args.v, tuple(sorted(result.witness)))))
    return 0


def _cmd_check_sts27(args: argparse.Namespace) -> int:
    try:
        triples = construct_mod.check_sts27_triples()
    except ToolkitError as exc:
        print(f"invalid: {exc}")
        return 2
    points = {p for tri in triples for p in tri}
    print(f"ok: {len(triples)} sum-zero triples, {len(points)} distinct points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppcforge",
        description="Partial Steiner triple systems with a prescribed maximum "
        "partial parallel class: construction, exact solving, bounds, Room "
        "squares, sequencings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a PSTS(v) whose maximum PPC is rho")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument(
        "--variant",
        choices=tuple(construct_mod.FACTOR_JOINS),
        default=None,
        help="pure: factors only; packed: plus apex packing (default for even "
        "v-rho); trimmed: packed then one point deleted (default for odd v-rho)",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=NODE_LIMIT,
                   help="ignored: construct searches nothing (kept: bench/workloads.py passes it)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve-ppc", help="exact maximum PPC of a design file")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=NODE_LIMIT)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="validate a design file and its embedded class")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="bound table for one v")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--rho-max", type=int, default=None)
    p.add_argument("--with-known", action="store_true")
    p.add_argument("--format", choices=("text", "rows"), default="text")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table1", help="shorthand: bounds --v 27 --rho-max 9 --with-known")
    p.add_argument("--format", choices=("text", "rows"), default="text")
    p.set_defaults(func=_cmd_bounds, v=27, rho_max=9, with_known=True)

    p = sub.add_parser("sequence", help="find or check sequencings")
    seq_sub = p.add_subparsers(dest="action", required=True)
    pf = seq_sub.add_parser("find")
    pf.add_argument("file")
    pf.add_argument("--out", default=None)
    pf.add_argument("--budget", type=int, default=NODE_LIMIT)
    pf.set_defaults(func=_cmd_sequence_find)
    pc = seq_sub.add_parser("check")
    pc.add_argument("file")
    pc.add_argument("perm", help="sequencing file: 'v=<n>' header then the permutation")
    pc.set_defaults(func=_cmd_sequence_check)

    p = sub.add_parser("roomsquare", help="generate and print a Room square")
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_roomsquare)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    orc_sub = p.add_subparsers(dest="action", required=True)
    po = orc_sub.add_parser("beta")
    po.add_argument("--rho", type=int, required=True)
    po.add_argument("--v", type=int, required=True)
    po.add_argument("--budget", type=int, default=NODE_LIMIT)
    po.set_defaults(func=_cmd_oracle_beta)

    p = sub.add_parser("check-sts27", help="verify the stored sum-zero triples")
    p.set_defaults(func=_cmd_check_sts27)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 means verification
        # failure here, so fold usage problems into the generic error code
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code == 2 else code
    try:
        if getattr(args, "budget", 1) < 1:
            raise ToolkitError(f"--budget must be at least 1, got {args.budget}")
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entry()
