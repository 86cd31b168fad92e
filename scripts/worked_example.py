#!/usr/bin/env python3
"""Walk through the whole pipeline for one radicand and one integer.

Prints the expansion, the identity audit with both verdict columns, the
derived constants, the digit representation of N, the exact split of
N*sqrt(d), both recovery identities, and representation-level
multiplication, each step echoing exact values.

Usage:
    python3 scripts/worked_example.py            # d = 3, N = 5
    python3 scripts/worked_example.py --d 13/4 --n 20
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ostro import cfrac, ostrowski, shiftcalc  # noqa: E402
from ostro.ostrowski import KIND_REAL  # noqa: E402
from ostro.qfield import parse_rat  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", default="3", help="radicand (rational, > 1, non-square)")
    ap.add_argument("--n", type=int, default=5, help="natural number to trace")
    ap.add_argument("--depth", type=int, default=cfrac.DEFAULT_DEPTH,
                    help="minimum expansion depth; long periods expand deeper")
    args = ap.parse_args()

    d = parse_rat(args.d)
    cf = cfrac.expand_for_audit(d, args.depth)
    root = cf.sqrt_d()

    print(f"sqrt({d}) = [{cf.a0}; {', '.join(map(str, cf.period))} ...]"
          f"  period m = {cf.m}, s_max = {cf.s_max}")
    print("convergents:", "  ".join(f"{cf.p(k)}/{cf.q(k)}" for k in range(8)))
    print("differences:", "  ".join(f"b{k}={cf.beta(k)}" for k in range(4)))
    print()

    print("identity audit (printed vs corrected):")
    for v in cfrac.audit_identities(cf, k_max=30):
        line = f"  {v.fact_id:24s} printed:{v.printed:5s} corrected:{v.corrected}"
        if v.witness:
            line += f"   [k={v.witness['k']}: {v.witness['lhs']} vs {v.witness['rhs']}]"
        print(line)
    print()

    sc = cfrac.derive_shift_constants(cf)
    print(f"constants: t = {sc.t}, v = {tuple(map(str, sc.v))}, "
          f"w = {tuple(map(str, sc.w))}")
    print(f"unit U = {sc.unit}, norm a^2 d - b^2 = {sc.pell_norm}")
    print()

    n = args.n
    x = ostrowski.encode_nat(n, cf)
    print(f"N = {n} encodes as {x}")
    print(f"  decode check: {ostrowski.decode_nat(x)}")

    p_part, frac = ostrowski.mult_nat_by_sqrt(x)
    fval = ostrowski.decode_real(frac)
    print(f"  N*sqrt(d) = {p_part} + ({fval})  [split is exact: "
          f"{p_part + fval == n * root}]")

    e1 = shiftcalc.check_recover_frac(x, sc)
    e2 = shiftcalc.check_recover_nat(x, sc)
    print(f"  fractional-part recovery: printed:{e1.printed} corrected:{e1.corrected}"
          f"  ({e1.lhs} = {e1.rhs})")
    print(f"  integer recovery:         printed:{e2.printed} corrected:{e2.corrected}"
          f"  (rhs = {e2.rhs})")

    y = ostrowski.make_digits(cf, x.digits, KIND_REAL)
    lam_f = shiftcalc.times_sqrt_frac(y, sc)
    lam_n = shiftcalc.times_sqrt_nat(n, cf, sc)
    print(f"  sqrt(d) * f = {lam_f}   [matches direct product: {lam_f == root * fval}]")
    print(f"  sqrt(d) * N = {lam_n}   [matches direct product: {lam_n == root * n}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
