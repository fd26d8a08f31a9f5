#!/usr/bin/env python3
"""Exhaustive scans of +-1 functions: is L(1, f) ever zero?

Convergence forces the q-1 signs to balance, so only odd q admit any
admissible function.  The scan evaluates and classifies every L(1, f);
at desk scale every single value is nonzero.  The known escape hatch is
algebraic-valued odd functions: the kernel family f_l has L(1, f_l) = 0
and all its cotangent/cosine sums vanish, which the prime-modulus
dichotomy demonstrates below.
"""

from cyclolog import PeriodicFunction, bbw_function, dichotomy, scan
from cyclolog.kernel import dec_str, working_prec
from fractions import Fraction

print("=" * 72)
print("Scans at 192-bit target precision")
print("=" * 72)
print(f"\n  {'q':>3}  {'admissible':>10}  {'all nonzero':>11}  {'min |L|':>24}  argmin signs")
for q in (3, 4, 5, 6, 7, 9, 11):
    rep = scan(q, 192)
    if rep.reason is not None:
        print(f"  {q:>3}  {rep.admissible_count:>10}  {'n/a (parity)':>11}")
        continue
    signs = "".join("+" if s > 0 else "-" for s in rep.argmin_signs)
    print(f"  {q:>3}  {rep.admissible_count:>10}  {str(rep.all_nonzero):>11}  {rep.min_abs_l.to_decimal(18):>24}  {signs}")

print("\n" + "=" * 72)
print("The nonzero-or-trivial dichotomy at prime period")
print("=" * 72)

f = PeriodicFunction(5, tuple(Fraction(v) for v in (1, -1, -1, 1, 0)))
verdict = dichotomy(f, 128)
print(f"\nf = (1,-1,-1,1,0) mod 5 -> branch {verdict.branch}")
print(f"  L       = {verdict.l_value.to_decimal(25)}  [{verdict.l_class.tag}]")
print(f"  cot sum = {verdict.cot_sum.to_decimal(8)}")
print(f"  cos sums = {[v.to_decimal(8) for v in verdict.cos_sums.values()]}")

k = bbw_function(5, 3, 128)
verdict = dichotomy(k, 128)
print(f"\nkernel f_3 mod 5 (values ~ (1, -phi^3, phi^3, -1, 0)) -> branch {verdict.branch}")
print(f"  L       = {verdict.l_value.to_decimal(8)}  [{verdict.l_class.tag}]")
print(f"  trig classes: {sorted(set(c.tag for c in verdict.trig_classes.values()))}")

print("\n" + "=" * 72)
print("Kernel functions f_l: numeric vanishing evidence")
print("=" * 72)
for q in (5, 7, 9):
    for l in range(3, q - 1, 2):
        f = bbw_function(q, l, 128)
        v = dichotomy(f, 128) if q in (5, 7) else None
        branch = v.branch if v else "composite period: dichotomy not defined"
        f1, f2 = (dec_str(f.value_mpf(n, working_prec(128)), 8) for n in (1, 2))
        print(f"  q={q}, l={l}: f(1) = {f1:>12}, f(2) = {f2:>14}   {branch}")
