"""Convergence of complement-of-multiples densities along a prime-power
family: exact prefix measures, the Dirichlet-series interpolation, a
certified limit bracket, and empirical harmonic-weight estimates.

    python3 scripts/de_chain.py --power 2 --pmax 31 --points 50
"""

import argparse

from zhat.verify import davenport_erdos, prime_power_family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--power", type=int, default=2)
    ap.add_argument("--pmax", type=int, default=31)
    ap.add_argument("--rmax", type=float, default=1e7)
    ap.add_argument("--points", type=int, default=50,
                    help="certified rational grid points for the s-monotonicity check")
    args = ap.parse_args()

    moduli = prime_power_family(args.power, args.pmax)
    print(f"family p^{args.power}, p <= {args.pmax}: {moduli}")
    rep = davenport_erdos(
        moduli,
        r_max=int(args.rmax),
        tail_exponent=args.power,
        certified_grid_points=args.points,
    )
    print("prefix inclusion-exclusion measures")
    for n, v in enumerate(rep.quantities["measure_prefix"], start=1):
        print(f"  first {n:>2d} moduli: {float(v):.10f}")
    print("interpolation delta(s)")
    for s in sorted(rep.quantities["delta_values"], key=float):
        print(f"  s={s:<7s} {rep.quantities['delta_values'][s]:.10f}")
    lo, hi = rep.quantities["limit_bracket"]
    print(f"limit bracket: [{lo:.10f}, {hi:.10f}]")
    exps = rep.inputs["log_exponents"]
    band = rep.quantities["log_estimate"]
    radii = f"r = 10^{exps[0]}..10^{exps[-1]}"
    if band is None:
        print(f"harmonic-weight estimate at {radii}: not computed")
    else:
        print(f"harmonic-weight estimate band at {radii}: [{band[0]:.10f}, {band[1]:.10f}]")
    print(f"verdict: {rep.verdict}")
    for line in rep.narrative:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
