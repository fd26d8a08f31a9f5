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

Coefficients are exact rationals throughout; rank computations never
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple, Union

import mpmath
from mpmath import mp

from .characters import is_prime
from .kernel import (
    Real,
    ZeroClass,
    classify_zero,
    const_raw,
    to_mpf,
    working_prec,
)
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
        logs = tables(self.modulus, wp).log_sines
        out = []
        for s in self.slots:
            if s == PI_SLOT:
                out.append(const_raw("pi", wp))
            elif s == LOG2_SLOT:
                out.append(const_raw("log2", wp))
            else:
                out.append(logs[s - 1])
        return tuple(out)


def fold_index(k: int, q: int) -> Slot:
    """Map k to the slot of log(2 sin k pi/q): min(k mod q, q - k mod q),
    with the midpoint q/2 (even q) landing on the LOG2 slot since
    2 sin(pi/2) = 2."""
    k %= q
    if k == 0:
        raise ValueError("k = 0 mod q has no log slot (2 sin 0 = 0)")
    m = min(k, q - k)
    if q % 2 == 0 and m == q // 2:
        return LOG2_SLOT
    return m


Provenance = Union[str, Tuple[int, int]]


@dataclass(frozen=True)
class RelationVector:
    """Exact rational coefficients over a LogBasis, with provenance."""

    basis: LogBasis
    coeffs: Tuple[Fraction, ...]
    provenance: Provenance

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.slots):
            raise ValueError("coefficient count does not match the basis")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def coeff(self, slot: Slot) -> Fraction:
        return self.coeffs[self.basis.index_of(slot)]

    @property
    def is_zero_vector(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def canonical(self) -> "RelationVector":
        """Scale to coprime integers with the first nonzero coefficient positive."""
        if self.is_zero_vector:
            return self
        denlcm = 1
        for c in self.coeffs:
            denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
        ints = [int(c * denlcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        first = next(v for v in ints if v != 0)
        if first < 0:
            ints = [-v for v in ints]
        return RelationVector(self.basis, tuple(Fraction(v) for v in ints), self.provenance)

    def residual_raw(self, wp: int) -> mpmath.mpf:
        values = self.basis.values_raw(wp)
        with mp.workprec(wp):
            return mpmath.fsum(
                to_mpf(c, wp) * v for c, v in zip(self.coeffs, values) if c != 0
            )


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
    acc: Dict[Slot, Fraction] = {}

    def add(slot: Slot, delta: int) -> None:
        acc[slot] = acc.get(slot, Fraction(0)) + delta

    add(fold_index(a * (q // d), q), +1)
    seen_classes = set()
    for j in range(1, q // d + 1):
        idx = (a + d * j) % q
        assert idx != 0, "a + d j = 0 mod q is impossible when gcd(a, d) = 1"
        cls = min(idx, q - idx)
        assert cls not in seen_classes, "folded -1 indices collided; d > 2 forbids this"
        seen_classes.add(cls)
        add(fold_index(idx, q), -1)

    coeffs = tuple(acc.get(slot, Fraction(0)) for slot in basis.slots)
    vec = RelationVector(basis, coeffs, (a, d))
    assert not vec.is_zero_vector, "constructed relation collapsed to zero"
    assert vec.coeff(PI_SLOT) == 0
    return vec


def _special_sqrt2_relation(q: int) -> RelationVector:
    """2 log(2 sin((q/4) pi / q)) = log 2, available whenever 4 | q."""
    basis = LogBasis.for_modulus(q)
    coeffs = [Fraction(0)] * len(basis.slots)
    coeffs[basis.index_of(q // 4)] = Fraction(2)
    coeffs[basis.index_of(LOG2_SLOT)] = Fraction(-1)
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
    found: Dict[Tuple[Fraction, ...], RelationVector] = {}
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


def _integer_row(v: Sequence[Fraction]) -> List[int]:
    """v scaled to integers by the lcm of its denominators."""
    fr = [Fraction(x) for x in v]
    m = lcm(*(x.denominator for x in fr))
    return [x.numerator * (m // x.denominator) for x in fr]


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
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


def in_rational_span(vector: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    gens = [list(g) for g in generators]
    base = rational_rank(gens)
    return rational_rank(gens + [list(vector)]) == base


def verify_relation(rel: RelationVector, prec: int = 128) -> ZeroClass:
    """Evaluate sum coeff * slot-value (PI = pi, LOG2 = log 2) and classify."""
    wp = working_prec(prec)
    return classify_zero(Real(rel.residual_raw(wp), wp), prec, recompute=rel.residual_raw)


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
