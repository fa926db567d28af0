#!/usr/bin/env python3
"""Construction verification sweep.

Builds every variant over a (rho, ell) grid, proves each design's maximum
PPC with the exact solver, checks the build's own certificate (its witness
class and apex points) with ``certify``, profiles the proven class with
``extension_profile`` as the acceptance sweep does, and prints one report
row per design.  A row marked BUDGET, EXPECTED, NOCERT (the certificate
fails or disagrees with the solver) or NOTMAX is a failure.  The
defaults match the acceptance gate (rho 1..5, even ell up to 24); pass
--rho-max/--ell-max to push further.
"""

import argparse
import sys
import time

import ppcforge as pf


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho-max", type=int, default=5)
    ap.add_argument("--ell-max", type=int, default=24)
    ap.add_argument("--budget", type=int, default=pf.NODE_LIMIT)
    args = ap.parse_args()

    print(f"{'variant':8} {'rho':>3} {'ell':>3} {'v':>3} {'b':>4} {'maxPPC':>6} "
          f"{'nodes':>8} {'time':>8}")
    failures = 0
    t_all = time.perf_counter()
    for kind, rho, ell in pf.sweep_grid(args.rho_max, args.ell_max):
        t0 = time.perf_counter()
        witness = pf.FACTOR_JOINS[kind](rho, ell)
        solved = pf.solve_max_ppc(witness.design, budget=args.budget)
        try:
            certified = pf.certify(witness.design, witness.witness_ppc, witness.s_points)
        except pf.ppc.BadCertificate:
            certified = None
        mark = ""
        if not solved.optimal:
            mark = "  BUDGET"
        elif solved.size != rho:
            mark = f"  EXPECTED {rho}"
        elif certified != solved.size:
            mark = "  NOCERT"
        else:
            try:
                pf.extension_profile(witness.design, solved)
            except pf.ppc.NotMaximum:
                mark = "  NOTMAX"
        dt = time.perf_counter() - t0
        failures += bool(mark)
        print(f"{kind:8} {rho:>3} {ell:>3} {witness.design.v:>3} "
              f"{witness.design.b:>4} {solved.size:>6} {solved.nodes:>8} "
              f"{dt:>7.3f}s{mark}")
    total = time.perf_counter() - t_all
    print(f"\n{failures} failures, {total * 1000:.1f} ms total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
