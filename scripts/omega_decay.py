"""Measure of integers with at most k distinct small prime factors, as the
prime cutoff grows: closed-form elementary-symmetric evaluation against
direct residue counting.

    python3 scripts/omega_decay.py --k 2 --pmax 13
"""

import argparse

from zhat.verify import omega_bound_measure


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--pmax", type=int, default=13)
    args = ap.parse_args()

    rep = omega_bound_measure(args.k, args.pmax)
    print(f"omega <= {args.k}, primes up to {args.pmax}")
    print("trace along growing prime cutoffs")
    for i, v in enumerate(rep.quantities["trace"], start=1):
        print(f"  first {i:>2d} primes: {v}  = {float(v):.10f}")
    cf = rep.quantities["closed_form"]
    print(f"closed form at the full cutoff: {cf[-1]} = {float(cf[-1]):.10f}")
    if "direct_count" in rep.quantities:
        print(f"direct residue count: {rep.quantities['direct_count']}")
    print(f"verdict: {rep.verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
