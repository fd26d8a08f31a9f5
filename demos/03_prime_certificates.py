#!/usr/bin/env python3
"""Independence certificates for prime moduli via Dedekind determinants.

For an odd prime p, the r x r matrix (r = (p-1)/2) with entries
log(2 sin(a c^-1 pi / p)) over G = (Z/pZ)*/{+-1} has determinant equal to
the product of the character factors S_chi.  Each S_chi is either
(1/2) log p (principal) or a nonzero multiple of L(1, conj chi): all
nonzero, so no rational relation among the r log-sine values can exist.
"""

from cyclolog import determinant_check, log_2sin
from cyclolog.dedekind import CERTIFICATE_NOTES

print("=" * 72)
print("Dedekind-type matrices and their determinants")
print("=" * 72)

print("\np = 5: the matrix is [[f(1), f(2)], [f(2), f(1)]] with")
print(f"  f(1) = log(2 sin 36deg) = {log_2sin(1, 5, 128).to_decimal(25)}")
print(f"  f(2) = log(2 sin 72deg) = {log_2sin(2, 5, 128).to_decimal(25)}")

for p in (3, 5, 7, 11, 13):
    check = determinant_check(p, 128)
    print(f"\np = {p}:")
    print(f"  det by LU factorization     : {check.det_direct.to_decimal(30)}")
    print(f"  det by prod of S_chi factors: {check.det_product.to_decimal(30)}")
    print(f"  routes agree to 2^-64       : {check.agree}")
    for chi, val, cls in check.s_chi_values:
        kind = "principal" if chi.is_principal else f"exponents {chi.exponents}"
        print(f"    S_chi ({kind:>14}) = {val.re.to_decimal(20):>24} + {val.im.to_decimal(6)}i   [{cls.tag}]")

print("\n" + "=" * 72)
print("Certificates")
print("=" * 72)
for p in (5, 13):
    check = determinant_check(p, 128)
    print(f"\np = {p}: factors nonzero: {check.all_factors_nonzero}, "
          f"det routes agree: {check.agree}, conclusive: {check.conclusive}")
    print(f"  rational dependence among the {len(check.s_chi_values)} log-sine values excluded: "
          f"{check.rational_dependence_excluded}")
    print("  caveats:")
    for note in CERTIFICATE_NOTES:
        print(f"    - {note}")
