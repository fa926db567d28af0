"""End-to-end acceptance checks.

Each test prints exactly one ``[criterion N] PASS|FAIL <detail>`` line and
then asserts, so the whole gate reads as eleven lines under
``pytest -s tests/test_acceptance.py -v``.

Criterion 9 checks the counting lemma behind the upper bound on every
proven-maximum class, and then the equality case of its condition 2 on
the packed builds, with the expected t-values read from the factors in
the design itself.  Equality at every witness block is promised only when
rho = 1 or ell = 2*rho; for rho = 2 and ell > 4 it is impossible, since
the two factors are edge-disjoint and only one of them can pair the
uncovered points.
"""

import contextlib
import io
import time
from itertools import combinations

import ppcforge as pf
from ppcforge.cli import main as cli_main

from conftest import sub_designs


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_criterion_01_reference_bound_table():
    t0 = time.perf_counter()
    rc, stdout, _ = run_cli("bounds", "--v", "27", "--rho-max", "9", "--with-known")
    elapsed = time.perf_counter() - t0
    body = [ln.split() for ln in stdout.splitlines()[2:]]  # drop header + rule
    got_d = tuple(int(r[1]) for r in body)
    got_lower = tuple(int(r[2]) for r in body)
    got_upper = tuple(int(r[3]) for r in body)
    ok = (
        rc == 0
        and got_d == (0, 0, 1, 1, 2, 4, 7, 8, 12)
        and got_lower == (13, 24, 37, 45, 57, 64, 77, 117, 117)
        and got_upper == (13, 31, 57, 86, 117, 117, 117, 117, 117)
        and elapsed < 1.0
    )
    report(1, ok, f"bounds --v 27 --rho-max 9 --with-known reproduces all 27 "
                  f"reference values in {elapsed:.3f}s")


def test_criterion_02_worked_example():
    t0 = time.perf_counter()
    rc, stdout, stderr = run_cli("construct", "--rho", "3", "--v", "11")
    elapsed = time.perf_counter() - t0
    design = pf.deserialize(stdout)
    solved = pf.solve_max_ppc(design)
    ok = (
        rc == 0
        and design.v == 11
        and design.b == 13
        and "maximum PPC = 3 verified" in stderr
        and solved.optimal
        and solved.size == 3
        and elapsed < 1.0
    )
    report(2, ok, f"construct --rho 3 --v 11 gives b={design.b}, solver proves "
                  f"max PPC = {solved.size} in {elapsed:.3f}s")


def test_criterion_03_construction_sweep(sweep):
    bad = []
    for kind, rho, ell, witness, solved in sweep:
        d = witness.design
        bonus = 0 if kind == "pure" else pf.packing_number(rho) - (rho if kind == "trimmed" else 0)
        pairs = set()
        linear = True
        for blk in d.blocks:
            for pr in combinations(blk, 2):
                linear = linear and pr not in pairs
                pairs.add(pr)
        if not (linear and d.b == rho * ell // 2 + bonus and solved.optimal and solved.size == rho):
            bad.append((kind, rho, ell))
    ok = len(sweep) == 143 and not bad
    report(3, ok, f"all {len(sweep)} constructions (rho 1..5, even ell 2rho..24, "
                  f"three variants) are linear with the stated block counts and "
                  f"solver-proven max PPC{'' if ok else ': failing ' + repr(bad[:4])}")


def test_criterion_04_single_class_exact_values():
    mismatch = []
    for v in range(15, 61):
        want = (v - 1) // 2
        if not (pf.beta_lower(1, v) == pf.beta_upper(1, v) == want):
            mismatch.append(v)
    for v in range(7, 15):
        row = pf.bound_table(v, 1, with_known=True)[0]
        if not (row.lower == row.upper == 7):
            mismatch.append(v)
    t0 = time.perf_counter()
    oracle_vals = tuple(pf.brute_beta(1, v).value for v in (3, 4, 5, 6))
    elapsed = time.perf_counter() - t0
    ok = not mismatch and oracle_vals == (1, 1, 2, 4) and elapsed < 300
    report(4, ok, f"single-class bounds agree at floor((v-1)/2) for v=15..60, both 7 "
                  f"for v=7..14 (known-value overlay), oracle gives {oracle_vals} "
                  f"for v=3..6 in {elapsed:.2f}s")


def test_criterion_05_exhaustive_beta_2_7():
    t0 = time.perf_counter()
    res = pf.brute_beta(2, 7)
    elapsed = time.perf_counter() - t0
    witness = pf.validate(7, res.witness)
    ok = (
        res.complete
        and res.value == 5
        and witness.b == 5
        and pf.brute_max_ppc(witness) == 2
        and elapsed < 600
    )
    report(5, ok, f"exhaustive search proves beta(2,7)={res.value} (complete, "
                  f"{res.nodes} nodes, {elapsed:.2f}s) with a verified 5-block witness")


def test_criterion_06_room_squares():
    ok = True
    slow = []
    for side in range(7, pf.onefactor.ROOM_MAX_ORDER, 2):
        t0 = time.perf_counter()
        try:
            pf.validate_room(pf.room_square(side))
        except pf.ToolkitError:
            ok = False
        if time.perf_counter() - t0 >= 120:
            slow.append(side)
    ok = ok and not slow
    report(6, ok, "every built side 7,9,...,51 satisfies the four Room conditions")


def test_criterion_07_sum_zero_triples():
    try:
        triples = pf.check_sts27_triples()
    except pf.ToolkitError:
        triples = ()
    points = {p for tri in triples for p in tri}
    ok = len(triples) == 8 and len(points) == 24
    report(7, ok, f"{len(triples)} base triples each sum to (0,0) over Z5 x Z5 "
                  f"and cover {len(points)} distinct points")


def test_criterion_08_solver_oracle_equivalence(sweep):
    sources = [w.design for _, _, _, w, _ in sweep if w.design.b >= 20][::5][:8]
    cases = [pf.construct_bose(9).design]
    for i, src in enumerate(sources):
        cases.extend(sub_designs(src, 25, 20, seed=20260819 + i))
    t0 = time.perf_counter()
    disagree = sum(
        1 for d in cases if pf.solve_max_ppc(d).size != pf.brute_max_ppc(d)
    )
    elapsed = time.perf_counter() - t0
    ok = len(cases) >= 200 and disagree == 0 and elapsed < 300
    report(8, ok, f"solver and oracle agree on {len(cases)} designs with "
                  f"b <= 20 ({elapsed:.1f}s, {disagree} disagreements)")


def test_criterion_09_class_block_conditions(sweep):
    cond_bad = []
    for kind, rho, ell, witness, solved in sweep:
        profile = pf.extension_profile(witness.design, solved)
        tags = dict(profile.block_conditions)
        if set(tags) != set(solved.witness) or not set(tags.values()) <= {1, 2}:
            cond_bad.append((kind, rho, ell))
    # Equality case of condition 2 on the packed builds.  Every block meets
    # S and the packing lies inside S, so the uncovered set is U = T minus
    # the representative points, t is 0 on T, and at witness block
    # {a_j, b_j, s_j} the t-sum is t[s_j] = |F_j inside U|.  Equality
    # 2*t[s_j] = v - 3*rho = |U| means F_j pairs U among itself: forced when
    # rho = 1 or ell = 2*rho, impossible when rho = 2 (F_1 would then also
    # pair the representative points, so contain e_2, an edge of F_2).
    packed = [(rho, ell, w) for kind, rho, ell, w, _ in sweep if kind == "packed"]
    eq_bad = []
    tight_rows = forced_rows = rho2_rows = 0
    for rho, ell, witness in packed:
        d = witness.design
        s_points = set(witness.s_points)
        t_points = set(range(d.v)) - s_points
        reps = {p for blk in witness.witness_ppc for p in blk if p in t_points}
        unc = t_points - reps
        wp = pf.extension_profile(d, witness.witness_ppc)
        want_tight = set()
        for blk in witness.witness_ppc:
            (s,) = s_points.intersection(blk)
            factor = [set(b) - {s} for b in d.blocks if s in b]
            factor = [e for e in factor if e <= t_points]
            inside = sum(1 for e in factor if e <= unc)
            if (
                len(factor) != ell // 2
                or set().union(*factor) != t_points
                or wp.t[s] != inside
                or any(wp.t[p] for p in blk if p != s)
            ):
                eq_bad.append((rho, ell, blk))
            if 2 * inside == len(unc):
                want_tight.add(blk)
        if set(wp.condition2_tight) != want_tight:
            eq_bad.append((rho, ell, "tight set"))
        all_tight = want_tight == set(witness.witness_ppc)
        tight_rows += all_tight
        if rho == 1 or ell == 2 * rho:
            forced_rows += 1
            if not all_tight:
                eq_bad.append((rho, ell, "forced equality missing"))
        if rho == 2:
            rho2_rows += 1
            if want_tight:
                eq_bad.append((rho, ell, "rho = 2 block is tight"))
    ok = not cond_bad and not eq_bad
    report(9, ok,
           f"every proven-maximum class block satisfies a counting condition "
           f"({len(sweep) - len(cond_bad)}/{len(sweep)} classes); on all "
           f"{len(packed)} packed builds the witness t-values match the factors, "
           f"condition-2 equality holds at every witness block for "
           f"{tight_rows}/{len(packed)} ({forced_rows} forced by rho = 1 or "
           f"ell = 2*rho) and at no witness block of the {rho2_rows} rho = 2 "
           f"builds{'' if ok else ': failing ' + repr((cond_bad + eq_bad)[:4])}")


def test_criterion_10_sequenceability(sweep):
    failures = []
    checked = 0
    t0 = time.perf_counter()
    for kind, rho, ell, witness, solved in sweep:
        d = witness.design
        if rho > 3 or d.v > 15 or d.v == 3 * rho:
            # v == 3*rho designs carry a spanning class, so their full
            # point window is always a union of blocks: no sequencing exists
            continue
        out = pf.find_sequencing(d)
        checked += 1
        if not (out.found and pf.check_sequencing(d, out.sequencing.perm).valid):
            failures.append((kind, rho, ell))
    single = pf.validate(3, [(0, 1, 2)])
    proof = pf.find_sequencing(single)
    elapsed = time.perf_counter() - t0
    ok = (checked == 40 and not failures and not proof.found
          and proof.proven_nonsequenceable and elapsed < 300)
    report(10, ok, f"sequencings found and rechecked for all {checked} designs with "
                   f"rho <= 3, v <= 15, v > 3*rho ({elapsed:.1f}s); the single-block "
                   f"system on 3 points is proven nonsequenceable by its {proof.proof}")


def test_criterion_11_gap_and_growth():
    gap_cases = 0
    gap_bad = []
    for rho in (1, 2, 3):
        cap = pf.gap_bound(rho)
        for v in range(3 * rho + 12, 201):
            gap_cases += 1
            if pf.beta_upper(rho, v) - pf.beta_lower(rho, v) > cap:
                gap_bad.append((rho, v))
    spreads = {}
    for name, fn in (("lower", pf.beta_lower), ("upper", pf.beta_upper)):
        ratios = [fn(v // 4, v) / v**2 for v in (40, 80, 120)]
        spreads[name] = max(ratios) / min(ratios)
    ok = not gap_bad and all(s <= 1.1 for s in spreads.values())
    report(11, ok, f"bound gap within (10rho^2-8rho+1)/3 on {gap_cases} cases; "
                   f"for rho=floor(v/4) the v^2 rate constants vary by x"
                   f"{spreads['lower']:.3f} (lower) and x{spreads['upper']:.3f} "
                   f"(upper) across v=40,80,120")
