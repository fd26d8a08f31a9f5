#!/usr/bin/env python3
"""Rational relations among log(2 sin k pi/q) for composite q.

Every composite modulus admits explicit integer relations among the
log-sine values, built from the divisor product identity; prime moduli
admit none.  This script constructs them, verifies each numerically at
128-bit target precision, and tabulates the exact rank per modulus.
"""

from cyclolog import construct_relation, enumerate_relations, verify_relation
from cyclolog.characters import is_prime


def show_relation(vec):
    terms = []
    for slot, coeff in zip(vec.basis.slots, vec.coeffs):
        if coeff == 0:
            continue
        if slot == "PI":
            terms.append(f"{coeff}*pi")
        elif slot == "LOG2":
            terms.append(f"{coeff}*log2")
        else:
            terms.append(f"{coeff}*f({slot})")
    return " + ".join(terms).replace("+ -", "- ")


print("=" * 72)
print("Divisor-induced relations, f(k) = log(2 sin(k pi / q))")
print("=" * 72)

for q, a, d in [(8, 1, 4), (6, 1, 3), (9, 1, 3), (12, 1, 4)]:
    vec = construct_relation(q, a, d).canonical()
    cls = verify_relation(vec, 128)
    print(f"\nq={q}, a={a}, d={d}:")
    print(f"  0 = {show_relation(vec)}")
    print(f"  residual classifies {cls.tag} (|residual| ~ {float(cls.residual):.2e})")

print("\n" + "=" * 72)
print("Relation rank by modulus (exact rational elimination)")
print("=" * 72)
print(f"\n  {'q':>3}  {'relations':>9}  {'rank':>4}   note")
for q in range(3, 25):
    rels, rank = enumerate_relations(q)
    note = "prime: none exist" if is_prime(q) else ""
    if q == 4:
        note = "the square-root identity 2 f(1) = log 2"
    print(f"  {q:>3}  {len(rels):>9}  {rank:>4}   {note}")

print("\nEvery enumerated relation verifies Zero at the 128-bit target;")
print("see tests/test_relations.py for the per-(a, d) sweep up to q = 60.")
