#!/usr/bin/env python3
"""Integer-relation searches over the log basis, via exact-integer LLL.

The searches rediscover the constructed relations from scratch (no small
relation escapes the lattice at these bounds) and, for prime moduli,
return quantified no-relation evidence: NoneBelowBound always records the
coefficient bound and precision it holds at.
"""

from cyclolog import const, find_integer_relation, log_2sin, relation_lattice_rank
from cyclolog.characters import is_prime
from cyclolog.kernel import working_prec
from cyclolog.relations import LogBasis

print("=" * 72)
print("Warm-up: log(2 sin pi/4) vs log 2")
print("=" * 72)
wp = working_prec(256)
values = [log_2sin(1, 4, wp), const("log2", wp)]
res = find_integer_relation(values, 100, 256)
print(f"  verdict {res.verdict}: coefficients {res.found}, residual ~ {float(res.residual):.1e}")
print("  i.e. 2 log(2 sin pi/4) = log 2, recovered by lattice reduction alone")

print("\n" + "=" * 72)
print("Relation lattice rank per modulus (bound 10^6, 256-bit)")
print("=" * 72)
print(f"\n  {'q':>3}  {'rank':>4}  generators (over slots 1..r, PI, LOG2)")
for q in range(3, 17):
    lat = relation_lattice_rank(q, 10**6, 256)
    gens = "; ".join(str(g) for g in lat.generators) if lat.generators else "-"
    marker = " (prime)" if is_prime(q) else ""
    print(f"  {q:>3}  {lat.rank:>4}  {gens}{marker}")

print("\nThe divisor construction does not always span the whole lattice:")
from cyclolog import enumerate_relations

for q in (20, 30):
    _, constructed = enumerate_relations(q)
    searched = relation_lattice_rank(q, 10**6, 256).rank
    print(f"  q={q}: constructed rank {constructed}, search finds rank {searched}")
print("(the constructed span is always contained in the searched span; the")
print(" converse fails, which is precisely what the search is for)")

print("\n" + "=" * 72)
print("Prime modulus, serious parameters: p = 7 at 512-bit, bound 10^6")
print("=" * 72)
basis = LogBasis.for_modulus(7)
wp = working_prec(512)
from cyclolog.kernel import Real

values = [Real(v, wp) for v in basis.values_raw(wp)]
res = find_integer_relation(values, 10**6, 512, value_provider=basis.values_raw, basis=basis)
print(f"  slots {basis.slots}")
print(f"  verdict {res.verdict} at coeff_bound {res.coeff_bound}, prec {res.prec} bits")
print("  (evidence, not proof: absence is quantified by the recorded bound and precision)")
print(f"  smallest candidate residual seen: {float(res.residual):.3e}")
print("\nNo search over a basis containing the PI slot has ever returned a")
print("relation touching pi; the search asserts that and would abort loudly.")
