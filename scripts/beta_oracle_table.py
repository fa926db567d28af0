#!/usr/bin/env python3
"""Exhaustive beta values on tiny point sets, next to the closed-form bounds.

For every feasible (rho, v) with v up to --v-max, prints the
brute-force beta(rho, v) alongside beta_lower/beta_upper so divergences are
visible at a glance (the one known overreach is the lower bound at
rho=2, v=6).
"""

import argparse
import sys

import ppcforge as pf


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--v-max", type=int, default=8,
                    help="largest point count to enumerate (oracle cap: 9)")
    ap.add_argument("--budget", type=int, default=pf.NODE_LIMIT)
    args = ap.parse_args()

    print(f"{'rho':>3} {'v':>3} {'beta':>5} {'lower':>5} {'upper':>5} "
          f"{'nodes':>9}  notes")
    for v in range(3, args.v_max + 1):
        for rho in range(1, v // 3 + 1):
            res = pf.brute_beta(rho, v, budget=args.budget)
            lo, up = pf.beta_lower(rho, v), pf.beta_upper(rho, v)
            notes = []
            if not res.complete:
                notes.append("INCOMPLETE")
            if res.complete and not lo <= res.value <= up:
                notes.append(f"outside [{lo},{up}]")
            print(f"{rho:>3} {v:>3} {res.value:>5} {lo:>5} {up:>5} "
                  f"{res.nodes:>9}  {' '.join(notes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
