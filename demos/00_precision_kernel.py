#!/usr/bin/env python3
"""The precision kernel: tagged values, folding, and honest zero tests.

Every value carries the precision it was computed to and is rounded to
that tag when it is made, so it never holds more bits than it claims.  Zero
questions return a three-way verdict with a dead band in the middle:
|x| < 2^-target is Zero, |x| > 2^(-target/2) is NonZero (confirmed by
recomputing the producing expression at doubled precision), anything
between is Indeterminate.
"""

import mpmath
from mpmath import mp

from cyclolog import classify_zero, const, log_2sin
from cyclolog.kernel import Real, log_2sin_raw, working_prec

print("=" * 72)
print("Constants, correctly rounded at the requested tag")
print("=" * 72)
for prec in (64, 128, 256):
    pi = const("pi", prec)
    print(f"  pi @ {prec:>3} bits: {pi.to_decimal()}")

print("\nA Real is rounded to its tag when it is made:")
pi256 = const("pi", 256)
print(f"  Real(pi@256, 96) == pi@96: {Real(pi256.mpf, 96).mpf == const('pi', 96).mpf}")

print("\n" + "=" * 72)
print("log(2 sin(k pi/q)): folding and the telescoping product")
print("=" * 72)
print(f"  log_2sin(1, 4)  = {log_2sin(1, 4, 128).to_decimal(25)}   (= log 2 / 2)")
print(f"  log_2sin(1, 6)  = {log_2sin(1, 6, 128).to_decimal(8)}   (2 sin(pi/6) = 1)")
print(f"  log_2sin(7, 9) == log_2sin(2, 9): {log_2sin(7, 9, 128).mpf == log_2sin(2, 9, 128).mpf}")

q = 12
wp = working_prec(128)
with mp.workprec(wp):
    total = mpmath.fsum(log_2sin_raw(k, q, wp) for k in range(1, q))
    print(f"  sum over k of log_2sin(k, {q}) = {mpmath.nstr(total, 20)}  vs log {q} = {mpmath.nstr(mpmath.log(q), 20)}")

print("\n" + "=" * 72)
print("Three-way zero classification at a 128-bit target")
print("=" * 72)
with mp.workprec(wp):
    residual = Real(2 * log_2sin_raw(1, 4, wp) - mpmath.log(2), wp)
    tiny_but_real = Real(mpmath.mpf(2) ** -96, wp)
    gray = Real(mpmath.mpf(2) ** -96, wp)
print(f"  2 log(2 sin pi/4) - log 2      -> {classify_zero(residual, 128).tag}")
print(f"  x = 2^-96, target 128          -> {classify_zero(gray, 128).tag}   (dead band: between 2^-128 and 2^-64)")
print(f"  x = 2^-96, target 64           -> {classify_zero(tiny_but_real, 64).tag}      (below 2^-64)")
value = log_2sin(1, 5, 192)
cls = classify_zero(value.round_to(192), 128, recompute=lambda w: log_2sin_raw(1, 5, w))
print(f"  log(2 sin 36deg) with witness  -> {cls.tag}  (recomputed at doubled precision)")

print("\n" + "=" * 72)
print("Stability: doubling precision never moves the leading bits")
print("=" * 72)
for prec in (64, 128):
    lo = log_2sin(5, 11, prec)
    hi = log_2sin(5, 11, 2 * prec)
    with mp.workprec(4 * prec):
        moved = abs(lo.mpf - hi.mpf)
    print(f"  target {prec:>3}: |value(P) - value(2P)| = {mpmath.nstr(moved, 5)} < 2^-{prec - 16}")
