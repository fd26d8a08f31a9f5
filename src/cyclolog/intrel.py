"""Integer-relation detection over log-sine bases via lattice reduction.

The standard relation lattice (an identity block augmented with one
column of the values scaled by 2^(prec-16)) is reduced with LLL at
delta = 0.99; reduced rows whose residual classifies Zero at the target
precision are relations.  LLL runs entirely over integers (de Weger's
exact Gram-Schmidt bookkeeping), so reduction never loses precision.

A NoneBelowBound verdict is quantified evidence, never a proof: it
always records the coefficient bound and precision it was obtained at.
Found relations over a basis containing the PI slot must have zero pi
coefficient; a violation raises instead of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .kernel import PrecisionError, Real, classify_zero, to_mpf, working_prec
from .relations import PI_SLOT, LogBasis

MAX_DIMENSION = 24
DEFAULT_DELTA = Fraction(99, 100)
SCALE_SHIFT = 16

FOUND = "Found"
NONE_BELOW_BOUND = "NoneBelowBound"


class PiCoefficientViolation(RuntimeError):
    """A verified relation carried a nonzero pi coefficient."""


def lll_reduce(basis: Sequence[Sequence[int]], delta: Fraction = DEFAULT_DELTA) -> List[List[int]]:
    """LLL-reduce integer row vectors; all-integer arithmetic throughout."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b
    if not Fraction(1, 4) < delta <= 1:
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    dn, dd = delta.numerator, delta.denominator

    def dot(u: List[int], v: List[int]) -> int:
        return sum(x * y for x, y in zip(u, v))

    D = [0] * (n + 1)  # D[i] = Gram determinant of b[0..i-1]; D[0] = 1
    D[0] = 1
    D[1] = dot(b[0], b[0])
    if D[1] == 0:
        raise ValueError("zero input row")
    lam = [[0] * n for _ in range(n)]
    kmax = 0

    def redi(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > D[l + 1]:
            r = (2 * lam[k][l] + D[l + 1]) // (2 * D[l + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= r * D[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    def swapi(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        Bnew = (D[k - 1] * D[k + 1] + mu * mu) // D[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (D[k + 1] * lam[i][k - 1] - mu * t) // D[k]
            lam[i][k - 1] = (Bnew * t + mu * lam[i][k]) // D[k + 1]
        D[k] = Bnew

    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
                if j < k:
                    lam[k][j] = u
                else:
                    if u == 0:
                        raise ValueError("input rows are linearly dependent")
                    D[k + 1] = u
        while True:
            redi(k, k - 1)
            if dd * D[k + 1] * D[k - 1] < dn * D[k] * D[k] - dd * lam[k][k - 1] ** 2:
                swapi(k)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    redi(k, l)
                k += 1
                break
    return b


ValueProvider = Callable[[int], Sequence[mpmath.mpf]]


@dataclass(frozen=True)
class RelationSearchResult:
    verdict: str
    found: Optional[Tuple[int, ...]]
    residual: Real
    coeff_bound: int
    prec: int
    basis: Optional[LogBasis] = None

    @property
    def is_found(self) -> bool:
        return self.verdict == FOUND


def _normalize_sign(vec: Sequence[int]) -> Tuple[int, ...]:
    first = next((v for v in vec if v != 0), 0)
    return tuple(-v for v in vec) if first < 0 else tuple(vec)


def find_integer_relation(
    values: Sequence[Real],
    coeff_bound: int,
    prec: int,
    value_provider: Optional[ValueProvider] = None,
    basis: Optional[LogBasis] = None,
) -> RelationSearchResult:
    """Search for a nonzero integer vector c with sum c_i values_i = 0.

    ``values`` must carry working precision.  Found requires the residual
    to classify Zero at the target precision and, when a value provider
    is available, to survive re-verification with all values recomputed
    once at doubled working precision.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    if n > MAX_DIMENSION:
        raise ValueError(f"at most {MAX_DIMENSION} values supported, got {n}")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be positive")
    if Fraction(coeff_bound**2, 2**prec) > Fraction(1, 2**32):
        raise PrecisionError(
            f"precision {prec} too low for coefficient bound {coeff_bound}: "
            "raise prec so that bound^2 * 2^-prec <= 2^-32"
        )
    wp = working_prec(prec)
    for v in values:
        if isinstance(v, Real) and v.prec < wp:
            raise PrecisionError(
                f"value carries {v.prec} bits but the search needs {wp}; "
                "pass higher-precision values"
            )
    xs = [to_mpf(v, wp) for v in values]

    scale_exp = prec - SCALE_SHIFT
    with mp.workprec(wp):
        scaled = [int(mpmath.nint(mpmath.ldexp(x, scale_exp))) for x in xs]
    rows = [
        [1 if j == i else 0 for j in range(n)] + [scaled[i]]
        for i in range(n)
    ]
    reduced = lll_reduce(rows)

    def residual_raw(cand: Sequence[int], vals: Sequence[mpmath.mpf], wbits: int) -> mpmath.mpf:
        with mp.workprec(wbits):
            return abs(mpmath.fsum(c * v for c, v in zip(cand, vals) if c))

    def row_norm(row: List[int]) -> int:
        return sum(v * v for v in row)

    best_residual: Optional[mpmath.mpf] = None
    witness: Optional[List[mpmath.mpf]] = None
    for row in sorted(reduced, key=row_norm):
        cand = row[:n]
        if all(v == 0 for v in cand):
            continue
        r0 = residual_raw(cand, xs, wp)
        if best_residual is None or r0 < best_residual:
            best_residual = r0
        if max(abs(v) for v in cand) > coeff_bound:
            continue
        cls = classify_zero(Real(r0, wp), prec)
        if not cls.is_zero:
            continue
        if value_provider is not None:
            if witness is None:
                witness = list(value_provider(2 * wp))
            if not residual_raw(cand, witness, 2 * wp) < mpmath.mpf(2) ** (-prec):
                continue  # did not survive doubled precision: not a relation
        found = _normalize_sign(cand)
        if basis is not None and PI_SLOT in basis.slots and found[basis.index_of(PI_SLOT)] != 0:
            raise PiCoefficientViolation(
                f"verified relation {found} over modulus {basis.modulus} carries a nonzero "
                "pi coefficient; report this rather than accepting it"
            )
        return RelationSearchResult(
            verdict=FOUND,
            found=found,
            residual=Real(r0, wp).round_to(prec),
            coeff_bound=coeff_bound,
            prec=prec,
            basis=basis,
        )
    return RelationSearchResult(
        verdict=NONE_BELOW_BOUND,
        found=None,
        residual=(Real(best_residual, wp).round_to(prec) if best_residual is not None
                  else Real(mpmath.mpf(2) ** prec, prec)),
        coeff_bound=coeff_bound,
        prec=prec,
        basis=basis,
    )


@dataclass(frozen=True)
class LatticeRankResult:
    modulus: int
    rank: int
    generators: Tuple[Tuple[int, ...], ...]
    coeff_bound: int
    prec: int
    basis: LogBasis


def _canonical_int_vector(vec: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g > 1:
        vec = [v // g for v in vec]
    return _normalize_sign(vec)


def relation_lattice_rank(
    q: int,
    coeff_bound: int = 10**6,
    prec: int = 256,
) -> LatticeRankResult:
    """Empirical rank of the relation lattice over the modulus-q log basis.

    Finds a relation, projects out the coordinate carrying its largest
    coefficient, and repeats until NoneBelowBound.  Generators span (over
    Q) every relation the searches uncovered; containment of the
    explicitly constructed relations is checked in the test suite.
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    basis = LogBasis.for_modulus(q)
    nslots = len(basis.slots)
    pi_index = basis.index_of(PI_SLOT)
    active = list(range(nslots))
    generators: List[Tuple[int, ...]] = []
    wp = working_prec(prec)

    while len(active) >= 2:
        idx = list(active)

        def provider(wbits: int, idx=idx) -> List[mpmath.mpf]:
            vals = basis.values_raw(wbits)
            return [vals[i] for i in idx]

        sub_values = [Real(v, wp) for v in provider(wp)]
        result = find_integer_relation(
            sub_values, coeff_bound, prec, value_provider=provider, basis=None
        )
        if not result.is_found:
            break
        cand = result.found
        full = [0] * nslots
        for pos, coeff in zip(idx, cand):
            full[pos] = coeff
        if full[pi_index] != 0:
            raise PiCoefficientViolation(
                f"relation {tuple(full)} over modulus {q} has a nonzero pi coefficient; "
                "this should be impossible and indicates a broken search"
            )
        generators.append(_canonical_int_vector(full))
        pivot_pos = max(range(len(cand)), key=lambda i: (abs(cand[i]), -i))
        del active[pivot_pos]

    generators.sort()
    return LatticeRankResult(
        modulus=q,
        rank=len(generators),
        generators=tuple(generators),
        coeff_bound=coeff_bound,
        prec=prec,
        basis=basis,
    )
