"""Squarefree density from three directions: counting, exact finite-level
measures, and a certified Euler-product bracket.

    python3 scripts/squarefree_triple.py --rmax 1e12 --cutoff 1e4

The counts are floor sums over the Moebius function, so r = 1e12 takes
about a second.
"""

import argparse
import math

from zhat.density import density_alpha
from zhat.measure import ModulusChain, closure_measure_trace, euler_product
from zhat.setdsl import compile_set


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rmax", type=float, default=1e7)
    ap.add_argument("--cutoff", type=float, default=1e4, help="Euler prime cutoff")
    args = ap.parse_args()

    target = 6.0 / math.pi**2
    cs = compile_set("kfree(2)")

    r_max = int(args.rmax)
    grid = sorted({max(10, r_max // 4**i) for i in range(5)})
    rep = density_alpha(cs, 0.0, grid)
    print("empirical counts")
    for r, v in zip(rep.grid, rep.values):
        print(f"  r={r:<12d} d_as={v:.8f}  (off by {v - target:+.2e})")

    trace = closure_measure_trace(cs, ModulusChain.primorial_power(2), 10**6)
    print("exact level measures along the squared-primorial chain")
    for rec in trace.records:
        print(f"  mod {rec.modulus:<8d} {rec.measure}  = {float(rec.measure):.8f}")

    br = euler_product("1-1/p^2", int(args.cutoff))
    print(f"euler bracket at cutoff {int(args.cutoff)}")
    print(f"  [{br.lo:.8f}, {br.hi:.8f}]  width {br.hi - br.lo:.2e}")
    print(f"  contains 6/pi^2 = {target:.8f}: {br.lo <= target <= br.hi}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
