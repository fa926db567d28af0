#!/usr/bin/env python3
"""ppcforge benchmark: time to a proven answer, per workload and per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all      # each workload in its own process

One run imports ppcforge from ``src/`` of this checkout, sets the workload up
several times (import, instance generation, design files) and reports the
median as ``setup_s``.  It then runs the workload's operation list in passes,
each from empty caches, until ``--seconds`` are used, and checks every
answer.  Each operation's time is its median over the passes (a pass times
a very short operation over a batch of runs), and ``wall_s``, the time to
finish the whole list, is the sum of those times.
One operation takes one instance to an answer; it fails when it ends without
a proof (a node budget ran out, the CLI exited with code 3, or it raised).
A wrong answer fails the run.

Every reported time is in seconds of a nominal host (see ``clock.py``): each
call is scaled by the host's speed measured around it, which keeps the
figures steady on a shared machine whose speed wanders.  The raw wall time
is printed and written to ``bench/out/`` beside them.

With ``--trace 0`` the last line holds the end-to-end metrics.  Its
``failed`` counts operations that raised; budget exhaustion shows in
``proven_frac`` there, and in ``failed_frac``, printed above it, which is 0 on
some workloads and so cannot be a bounded metric.  With
``--trace 1`` untraced passes alternate with passes that record spans at
every traced public function (see ``spans.py``), and the last line holds the
per-layer metrics, the tracing overhead and the wall time no span covers.

Everything a run learns -- header, instance manifest, per-operation records
and, when traced, the spans -- is written to ``bench/out/``.  The seed draws
the gap designs; develop a change against ``DEFAULT_SEED`` and confirm its
claim on ``HOLDOUT_SEED``.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sweep", "gap", "search")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SETUPS = 5  # set-ups per run; setup_s is their median
SHORT_S = 0.002  # nominal seconds under which an operation is timed in a batch
REPEAT_S = 0.01  # raw seconds a batch of a short operation lasts
DIGESTS = HERE / "cli_digests.json"
OUT = HERE / "out"
TAIL_CANDIDATES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)


def fresh_import():
    """Import ppcforge anew, so module state and caches start empty."""
    for name in [n for n in sys.modules if n == "ppcforge" or n.startswith("ppcforge.")]:
        del sys.modules[name]
    pf = importlib.import_module("ppcforge")
    importlib.import_module("ppcforge.cli")
    return pf


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(ops_per_pass):
    """Highest candidate percentile with at least ten operations beyond it."""
    for p in TAIL_CANDIDATES:
        if ops_per_pass * (100 - p) / 100 >= 10:
            return p
    return 50


def header(seed):
    sha = "unknown"  # a checkout without .git has no SHA to report
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "holdout_seed": HOLDOUT_SEED, "ref_s": clock.REF_S,
            "budgets": {"frontier": workloads.FRONTIER_BUDGET,
                        "sequence": workloads.SEQUENCE_BUDGET}}


def attempt(op):
    """Run one operation; return (result, error)."""
    try:
        return op.run(), None
    except Exception as exc:  # a raising operation is a failed one
        return None, f"{type(exc).__name__}: {exc}"


def repeat(op, runs):
    """Run an operation ``runs`` times, keeping no result."""
    for _ in range(runs):
        attempt(op)


def run_pass(ops, room, timer, tracer=None, pass_no=0):
    """Run every operation from empty caches; return (start, wall, records).

    A record is (op, raw seconds, nominal seconds, result, error).  In an
    untraced pass, an operation that ran in under ``SHORT_S`` without
    building a Room square, so that the cache it would see again is
    unchanged, is then timed over as many runs back to back as fill
    ``REPEAT_S``, and its times are their mean: a short call alone would be
    scaled by a host speed measured over far longer than the call.
    """
    room.cache_clear()
    records = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        misses = room.cache_info().misses
        if tracer is not None:
            tracer.op = f"{pass_no}:{i}"
        (result, error), raw, nominal = timer.measure(lambda: attempt(op))
        if tracer is not None:
            tracer.op = None
        elif error is None and nominal < SHORT_S and room.cache_info().misses == misses:
            runs = math.ceil(REPEAT_S / max(raw, 1e-6))
            _, raw, nominal = timer.measure(lambda: repeat(op, runs))
            raw, nominal = raw / runs, nominal / runs
        records.append((op, raw, nominal, result, error))
    return t_pass, time.perf_counter() - t_pass, records


def check_digest(op, result, stored, seen):
    """A CLI call's stdout must match the stored digest of a seed-independent
    call (or, while recording, of its first pass); that of a seeded call must
    match across the passes of the run.  Only calls that end with the same
    exit code are compared, so a budget exhaustion that becomes a proof is
    not a mismatch."""
    rc, digest = result[0], hashlib.sha256(result[1].encode()).hexdigest()
    if op.fixed and stored is not None:
        want = stored.get(op.key)
        if want is None:
            raise workloads.Wrong("no stored stdout digest (see --record-digests)")
    else:
        want = seen.get(op.key)
    if want is not None and want["rc"] == rc and want["sha256"] != digest:
        raise workloads.Wrong(
            f"stdout digest {digest[:12]} differs from {want['sha256'][:12]}")
    seen[op.key] = {"rc": rc, "sha256": digest}


def referee(records, stored, seen, problems):
    """Turn results into outcomes; collect every wrong answer."""
    out = []
    for op, raw, seconds, result, error in records:
        outcome = "raised"
        if error is None:
            try:
                outcome = op.check(result)
                if op.cli:
                    check_digest(op, result, stored, seen)
            except workloads.Wrong as exc:
                problems.append(f"{op.key}: {exc}")
                outcome = "wrong"
            except Exception as exc:  # output the referee could not read
                problems.append(f"{op.key}: unreadable answer: {type(exc).__name__}: {exc}")
                outcome = "wrong"
        out.append({"key": op.key, "seconds": seconds, "raw_s": raw, "outcome": outcome,
                    "error": error})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the stdout digests of this run's seed-independent "
                         "CLI calls instead of checking them")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "ppcforge" / "__init__.py").is_file():
        print(f"bench: no ppcforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, work):
    timer = clock.Clock()

    def set_up():
        pf = fresh_import()
        return pf, workloads.build(args.workload, pf, args.seed, work)

    # Every set-up writes the same design files.  Later ones overwrite them:
    # creating hundreds of files costs a varying share of the host's disk,
    # which the reference runs do not measure.
    setup_times = []
    with timer:
        for _ in range(SETUPS):
            (pf, ops), _, nominal = timer.measure(set_up)
            setup_times.append(nominal)
    room = pf.onefactor.room_square  # the lru_cache object, before any wrapping
    problems = []
    try:
        workloads.preflight(pf)
    except workloads.Wrong as exc:
        problems.append(f"preflight: {exc}")
    stored = None if args.record_digests else (
        json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {})
    seen = {}
    t_start = time.perf_counter()

    def another(walls):
        """Start a pass while it should end within a quarter pass of the limit."""
        spent = time.perf_counter() - t_start
        return not walls or spent + 0.75 * statistics.median(walls) < args.seconds

    # A traced run alternates untraced and traced passes, so the overhead
    # compares passes from the same stretch of the run.  Traced passes take
    # no reference runs during a call, so that none falls inside a span;
    # their calls are scaled by the reference runs around them only.
    plain_walls, plain, traced_walls, traced, windows, misses = [], [], [], [], [], 0
    probing = 0.0  # seconds of reference runs in traced passes
    scale = {}  # nominal over raw seconds of each traced operation
    tracer = spans.Tracer() if args.trace else None
    while another(plain_walls + traced_walls) or (tracer is not None and not traced_walls):
        if tracer is None or len(plain_walls) == len(traced_walls):
            with timer:
                _, wall, recs = run_pass(ops, room, timer)
            plain_walls.append(wall)
            plain += referee(recs, stored, seen, problems)
            continue
        tracer.install()
        probed = timer.probing
        try:
            start, wall, recs = run_pass(ops, room, timer, tracer, len(traced_walls))
        finally:
            tracer.uninstall()
        scale.update((f"{len(traced_walls)}:{i}", nominal / raw)
                     for i, (_, raw, nominal, _, _) in enumerate(recs) if raw > 0)
        probing += timer.probing - probed
        traced_walls.append(wall)
        windows.append((start, start + wall))
        misses += room.cache_info().misses
        traced += referee(recs, stored, seen, problems)

    records = plain + traced
    # The median of the passes: each time is already scaled to the nominal
    # host, so what is left between passes is noise on both sides of it, and
    # unlike the best of the passes, the median does not fall as a faster
    # host fits more passes into the run.
    n = len(ops)
    per_op = [statistics.median(r["seconds"] for r in plain[i::n]) for i in range(n)]
    raw_wall = sum(statistics.median(r["raw_s"] for r in plain[i::n]) for i in range(n))
    times = sorted(per_op)
    failed = [r for r in plain if r["outcome"] in ("unproven", "raised")]
    proven = sum(r["outcome"] == "proven" for r in plain)
    tail_p = tail_percentile(len(ops))
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * percentile(times, tail_p), "ms"),
        "failed_frac": (len(failed) / len(plain), "ratio"),
        "proven_frac": (proven / len(plain), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "wall_s": f"{n} operations, each the median of {len(plain_walls)} passes; "
                  f"{raw_wall:.4f} s raw",
        "op_tail_ms": f"p{tail_p:g} of {len(times)} operations",
        "failed_frac": f"{len(failed)} of {len(plain)} ended without a proof, "
                       f"{sum(r['outcome'] == 'raised' for r in failed)} raised",
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(plain_walls)} untraced "
          f"and {len(traced_walls)} traced passes")
    for name, (value, unit) in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<13} {value:12.4f} {unit}{note}")
    for r in failed[: len(failed) // len(plain_walls)]:
        print(f"  failed: {r['key']} {r['outcome']} {r['error'] or ''}".rstrip())

    manifest = {op.key: op.params for op in ops}
    manifest_sha = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    print(f"  manifest sha256 {manifest_sha}")
    result = {"header": header(args.seed), "workload": args.workload,
              "seconds": args.seconds, "setup_times": setup_times,
              "untraced_walls": plain_walls, "traced_walls": traced_walls,
              "raw_wall_s": raw_wall, "reference_ticks": timer.ticks,
              "end_to_end": {n: {"value": v, "unit": u, "note": notes.get(n)}
                             for n, (v, u) in e2e.items()},
              "manifest_sha256": manifest_sha, "manifest": manifest,
              "operations": records, "problems": problems}

    if tracer is not None:
        layers = spans.layer_values(tracer.spans, len(traced_walls), misses, scale)
        covered = sum(spans.root_covered([s for s in tracer.spans if a <= s.start < b])
                      for a, b in windows)
        traced_ops = sum(statistics.median(r["seconds"] for r in traced[i::n])
                         for i in range(n))
        layers["harness.trace_overhead_frac"] = traced_ops / sum(per_op) - 1
        uncovered = sum(traced_walls) - covered - probing
        layers["harness.uncovered_s"] = uncovered / len(traced_walls)
        units = dict(spans.LAYER_METRICS)
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in units}
        for name, unit in spans.LAYER_METRICS:
            if layers[name]:
                print(f"  {name:<38} {layers[name]:14.6g} {unit}")
        result["per_layer"] = metrics
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps([s.as_dict() for s in tracer.spans]))
    else:
        # failed_frac is 0 on some workloads, so BENCHMARK.json bounds proven_frac
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()
                   if n != "failed_frac"}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    if args.record_digests:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests.update({op.key: seen[op.key] for op in ops if op.cli and op.fixed})
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": sum(r["outcome"] == "raised" for r in records),
                      "metrics": metrics}))
    return 1 if problems else 0


def run_all(args):
    """Each workload in a fresh process; print every end-to-end metric."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
