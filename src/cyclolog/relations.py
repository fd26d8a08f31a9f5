"""Explicit Q-linear relations among {log(2 sin k pi/q) : 1 <= k < q/2}.

For composite q, each coprime residue a and divisor d of q with
2 < d < q induces the product identity

    2 sin(a pi/d) = prod_{j=1}^{q/d} 2 sin((a + d j) pi / q)

whose logarithm is an integer relation on the folded index set (the
distribution relation log|1 - z_d^a| = sum_{x = a mod d} log|1 - z_q^x|).
Prime moduli admit no valid divisor and the enumeration is empty there;
the only extra case is the square-root identity 2 sin(pi/4) = sqrt 2,
emitted for every modulus divisible by 4 as 2*log(2 sin((q/4) pi/q)) = log 2.

The relation of (a, d) depends only on d and on a mod d up to sign: the
+1 slot folds a q/d, which a mod d fixes; the -1 slots fold the residues
x = a mod d; and a -> -a folds to the same slots.  So each class
(d, +-a mod d) is built once, from its smallest a; any other pair of the
class would only repeat that relation.

Coefficients are integers throughout; rank computations never touch
floating point, and a residual is the exact sum of the integer
coefficients times the slot values, rounded once, with the tables' rule's
radius.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from numbers import Rational
from typing import Dict, List, Sequence, Tuple, Union

import mpmath
from mpmath import mp

from .characters import is_prime
from .kernel import Real, ZeroClass, classify_zero, fold, working_prec
from .tables import tables

PI_SLOT = "PI"
LOG2_SLOT = "LOG2"
Slot = Union[int, str]


@dataclass(frozen=True)
class LogBasis:
    """Value slots log(2 sin k pi/q) for 1 <= k < q/2, plus PI, plus LOG2 if q even."""

    modulus: int
    slots: Tuple[Slot, ...]

    @classmethod
    def for_modulus(cls, q: int) -> "LogBasis":
        if q < 2:
            raise ValueError(f"modulus must be >= 2, got {q}")
        slots: List[Slot] = list(range(1, (q - 1) // 2 + 1))
        slots.append(PI_SLOT)
        if q % 2 == 0:
            slots.append(LOG2_SLOT)
        return cls(q, tuple(slots))

    def index_of(self, slot: Slot) -> int:
        return self.slots.index(slot)

    def values_raw(self, wp: int) -> Tuple[mpmath.mpf, ...]:
        """The slot values at working precision, built once per (q, wp) by the tables layer."""
        # the search and the decomposition read through this method, so a test can substitute the values here
        return tables(self.modulus, wp).log_basis_values


def fold_index(k: int, q: int) -> Slot:
    """Map k to the slot of log(2 sin k pi/q), its ``fold``, with the
    midpoint q/2 (even q) landing on the LOG2 slot since 2 sin(pi/2) = 2."""
    m = fold(k, q)
    if q % 2 == 0 and m == q // 2:
        return LOG2_SLOT
    return m


Provenance = Union[str, Tuple[int, int]]


@dataclass(frozen=True)
class RelationVector:
    """Integer coefficients over a LogBasis, with provenance; an integral
    Fraction is stored as its int, any other non-integer raises ValueError."""

    basis: LogBasis
    coeffs: Tuple[int, ...]
    provenance: Provenance

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.slots):
            raise ValueError("coefficient count does not match the basis")
        ints = tuple(int(c) for c in self.coeffs)  # int() truncates, so a non-integer shows as a mismatch
        if ints != tuple(self.coeffs):
            raise ValueError(f"relation coefficients must be integers, got {self.coeffs}")
        object.__setattr__(self, "coeffs", ints)

    def coeff(self, slot: Slot) -> int:
        return self.coeffs[self.basis.index_of(slot)]

    @property
    def is_zero_vector(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def canonical(self) -> "RelationVector":
        """Divide by the gcd, with the first nonzero coefficient positive."""
        if self.is_zero_vector:
            return self
        g = gcd(*self.coeffs)
        if next(c for c in self.coeffs if c) < 0:
            g = -g
        return RelationVector(self.basis, tuple(c // g for c in self.coeffs), self.provenance)


def linear_form_raw(
    coeffs: Sequence[Union[int, mpmath.mpf]], values: Sequence[mpmath.mpf], wp: int
) -> mpmath.mpf:
    """fsum(c * v) over the nonzero coefficients c, ints or wp-bit mpfs, at
    wp bits, each product rounded once: a searched relation's residual among
    ``values``, or the value of a linear form such as L(1, f)'s decomposition."""
    with mp.workprec(wp):
        return mpmath.fsum(c * v for c, v in zip(coeffs, values) if c)


def construct_relation(q: int, a: int, d: int) -> RelationVector:
    """The relation induced by (a, d): +1 on the folded index a q/d, and -1
    accumulated on each folded a + d j for j = 1..q/d.

    Coincident +1/-1 contributions cancel by accumulation.  The -1 indices
    are pairwise distinct mod q and (for d > 2) never mutual negations;
    both facts are asserted during construction.
    """
    if q < 4 or is_prime(q):
        raise ValueError(f"modulus must be composite, got {q}")
    if not (d > 2 and d < q and q % d == 0):
        raise ValueError(f"divisor d must satisfy d | q and 2 < d < q, got d={d}")
    if not (1 <= a < q and gcd(a, q) == 1):
        raise ValueError(f"need 1 <= a < q with gcd(a, q) = 1, got a={a}")
    basis = LogBasis.for_modulus(q)
    # a + d j is never 0 mod q, as gcd(a, d) = 1
    minus = [fold_index(a + d * j, q) for j in range(1, q // d + 1)]
    assert len(set(minus)) == len(minus), "folded -1 indices collided; d > 2 forbids this"
    acc = Counter({fold_index(a * (q // d), q): 1})
    acc.subtract(minus)
    coeffs = tuple(acc[slot] for slot in basis.slots)
    vec = RelationVector(basis, coeffs, (a, d))
    assert not vec.is_zero_vector, "constructed relation collapsed to zero"
    assert vec.coeff(PI_SLOT) == 0
    return vec


def _special_sqrt2_relation(q: int) -> RelationVector:
    """2 log(2 sin((q/4) pi / q)) = log 2, available whenever 4 | q."""
    basis = LogBasis.for_modulus(q)
    coeffs = [0] * len(basis.slots)
    coeffs[basis.index_of(q // 4)] = 2
    coeffs[basis.index_of(LOG2_SLOT)] = -1
    return RelationVector(basis, tuple(coeffs), "manual")


def valid_divisor_pairs(q: int):
    for d in range(3, q):
        if q % d == 0:
            for a in range(1, q):
                if gcd(a, q) == 1:
                    yield a, d


def enumerate_relations(q: int) -> Tuple[Tuple[RelationVector, ...], int]:
    """All constructed relations for q, one per (d, +-a mod d) class,
    canonicalized and deduplicated, plus the sqrt-2 special relation when
    4 | q; returns (relations, rank).

    Rank is the dimension of the rational span, by exact elimination.
    Prime q has no valid divisor: the result is empty with rank 0.
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    found: Dict[Tuple[int, ...], RelationVector] = {}
    built = set()
    for a, d in valid_divisor_pairs(q):
        cls = (d, min(a % d, d - a % d))
        if cls in built:
            continue
        built.add(cls)
        vec = construct_relation(q, a, d).canonical()
        found.setdefault(vec.coeffs, vec)
    if q % 4 == 0:
        vec = _special_sqrt2_relation(q).canonical()
        found.setdefault(vec.coeffs, vec)
    rels = tuple(sorted(found.values(), key=lambda v: v.coeffs))
    return rels, rational_rank([v.coeffs for v in rels])


def _integer_row(v: Sequence[Rational]) -> List[int]:
    """v scaled to integers by the lcm of its denominators (an int's is 1)."""
    m = lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v]


def rational_rank(vectors: Sequence[Sequence[Rational]]) -> int:
    """Rank of a list of rational vectors, by exact forward elimination on
    integer rows: a row is eliminated as row * p - c * top, then divided by
    the gcd of its entries."""
    rows = [_integer_row(v) for v in vectors if any(v)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c != 0:
                row = [x * p - c * y for x, y in zip(rows[i], top)]
                g = gcd(*row) or 1
                rows[i] = [x // g for x in row]
        rank += 1
    return rank


def verify_relation(rel: RelationVector, prec: int = 128) -> ZeroClass:
    """Evaluate sum coeff * slot-value (PI = pi, LOG2 = log 2) and classify.

    The residual is a ball: the exact sum over ``log_basis_values`` rounded
    once at wp, with the tables' rule's radius.  A relation that holds is
    Zero and a broken one NonZero from its ball at wp; one whose radius
    cannot decide escalates to the same ball at more bits.
    """
    return classify_zero(_residual_ball(rel, working_prec(prec)), prec, lambda w: _residual_ball(rel, w))


def _residual_ball(rel: RelationVector, w: int) -> Real:
    tab = tables(rel.basis.modulus, w)
    residual = tab.weighted_sum("log_basis_values", (rel.coeffs, 1))._mpf_
    return Real.ball((residual, tab.radius(residual, tab.rule(log_basis_values=sum(map(abs, rel.coeffs))))), w)


def relation_record(rel: RelationVector, prec: int = 128) -> dict:
    """JSON-ready record: modulus, provenance, exact coefficients, residual
    size and class, from one classification of the relation."""
    cls = verify_relation(rel, prec)
    residual = cls.residual.mpf
    coeffs = {
        str(slot): str(c)
        for slot, c in zip(rel.basis.slots, rel.coeffs)
        if c != 0
    }
    if isinstance(rel.provenance, tuple):
        prov: Union[str, dict] = {"a": rel.provenance[0], "d": rel.provenance[1]}
    else:
        prov = rel.provenance
    return {
        "q": rel.basis.modulus,
        "provenance": prov,
        "coeffs": coeffs,
        "residual_bits": int(mp.mag(residual)) if residual != 0 else None,
        "class": cls.tag,
    }
