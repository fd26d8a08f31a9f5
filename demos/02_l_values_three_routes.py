#!/usr/bin/env python3
"""L(1, f) = sum f(n)/n by three independent routes, plus its decomposition.

The digamma route assembles psi(a/q) in closed form, the Fourier route
pairs the transform of f with principal-branch logs of cyclotomic
numbers, and the direct route adds up the series to a full period (53 bits,
explicit tail bound).  All three must agree; the first two to ~34 digits at the
default precision.
"""

from fractions import Fraction

from cyclolog import PeriodicFunction, decompose_l1, l1
from cyclolog.lseries import l1_direct_result

EXAMPLES = [
    (3, (1, -1, 0), "the quadratic character mod 3: L = pi / (3 sqrt 3)"),
    (5, (1, -1, -1, 1, 0), "the quadratic character mod 5: L = 2 log(phi) / sqrt 5"),
    (4, (1, 0, -1, 0), "the alternating odd pattern mod 4: L = pi / 4"),
    (4, (1, -1, 1, -1), "alternating signs everywhere: L = log 2"),
    (7, (1, 1, -1, 1, -1, -1, 0), "an asymmetric +-1 pattern mod 7"),
]

for q, values, label in EXAMPLES:
    f = PeriodicFunction(q, tuple(Fraction(v) for v in values))
    print("=" * 72)
    print(f"q = {q}, f = {values}   ({label})")
    v_digamma = l1(f, "digamma", 128)
    v_fourier = l1(f, "fourier", 128)
    direct = l1_direct_result(f)
    print(f"  digamma route : {v_digamma.to_decimal(36)}")
    print(f"  fourier route : {v_fourier.to_decimal(36)}")
    print(f"  direct series : {direct.value.to_decimal(16)}  (tail bound {direct.tail_bound:.1e})")
    vec = decompose_l1(f, 128)
    print("  decomposition over {log(2 sin b pi/q)} + {pi} (+ {log 2}):")
    print(f"    pi coefficient   : {vec.pi_coeff.to_decimal(20)}")
    for b, c in sorted(vec.log2sin_coeffs.items()):
        print(f"    log(2 sin {b}pi/{q}) : {c.to_decimal(20)}")
    if q % 2 == 0:
        print(f"    log 2 coefficient: {vec.log2_coeff.to_decimal(20)}")
    print(f"    assembled value  : {vec.value.to_decimal(36)}")

print("=" * 72)
print("Note the sign of the pi coefficient: for q=3, (1,-1,0) it is")
print("+1/(3 sqrt 3), pinned by L > 0; the decomposition is derived from")
print("the digamma identity, and the route agreement above enforces it.")
