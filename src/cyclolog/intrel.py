"""Integer-relation detection over the log basis of a modulus via lattice reduction.

Both searches take a modulus q and run over the slot values of
``LogBasis.for_modulus(q)``.  The standard relation lattice (an identity
block augmented with one column of the values scaled by 2^(prec-16)) is
reduced once with LLL at delta = 0.99; a reduced row is a relation when
its residual classifies Zero at the target precision and stays below
2^-prec with the values rebuilt at doubled working precision.  A search
takes the shortest such row; the lattice rank keeps them all.  LLL runs
entirely over integers (de Weger's exact Gram-Schmidt bookkeeping), so
reduction never loses precision.

A NoneBelowBound verdict is quantified evidence, never a proof: it
always records the coefficient bound and precision it was obtained at.
Every basis holds the PI slot, and a lemma the paper cites makes the pi
coefficient of every relation zero; a relation that breaks it raises
instead of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import mpf_abs

from .kernel import PrecisionError, Real, classify_zero, working_prec
from .relations import PI_SLOT, LogBasis, linear_form_raw

DELTA = Fraction(99, 100)
SCALE_SHIFT = 16

FOUND = "Found"
NONE_BELOW_BOUND = "NoneBelowBound"


class PiCoefficientViolation(RuntimeError):
    """A verified relation carried a nonzero pi coefficient."""


def lll_reduce(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL-reduce integer row vectors at ``DELTA``; all-integer arithmetic throughout."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b
    dn, dd = DELTA.numerator, DELTA.denominator

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


@dataclass(frozen=True)
class RelationSearchResult:
    verdict: str
    found: Optional[Tuple[int, ...]]
    residual: Real
    coeff_bound: int
    prec: int
    basis: LogBasis


def _normalize_sign(vec: Sequence[int]) -> Tuple[int, ...]:
    first = next((v for v in vec if v != 0), 0)
    return tuple(-v for v in vec) if first < 0 else tuple(vec)


def _residual(cand: Sequence[int], vals: Sequence[mpmath.mpf], wbits: int) -> mpmath.mpf:
    # raw mpf_abs, since abs() would round to the ambient 53-bit context
    return mp.make_mpf(mpf_abs(linear_form_raw(cand, vals, wbits)._mpf_))


def _reduced_rows(
    basis: LogBasis, coeff_bound: int, prec: int
) -> Iterator[Tuple[Optional[Tuple[int, ...]], mpmath.mpf]]:
    """Reduce the relation lattice of the slot values of ``basis`` once and
    yield, for each reduced row in order of norm, the row as a
    sign-normalised relation (or None when it is not one) and its residual
    at working precision.

    A row is a relation when every coefficient is at most ``coeff_bound``
    in absolute value, its residual classifies Zero at ``prec`` and it
    stays below 2^-prec with the values rebuilt once at doubled working
    precision.  A relation with a nonzero pi coefficient raises
    PiCoefficientViolation.
    """
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be positive")
    if Fraction(coeff_bound**2, 2**prec) > Fraction(1, 2**32):
        raise PrecisionError(
            f"precision {prec} too low for coefficient bound {coeff_bound}: "
            "raise prec so that bound^2 * 2^-prec <= 2^-32"
        )
    wp = working_prec(prec)
    xs = basis.values_raw(wp)
    n = len(xs)
    with mp.workprec(wp):
        scaled = [int(mpmath.nint(mpmath.ldexp(x, prec - SCALE_SHIFT))) for x in xs]
    rows = [[1 if j == i else 0 for j in range(n)] + [scaled[i]] for i in range(n)]

    pi_index = basis.index_of(PI_SLOT)
    witness: Optional[Sequence[mpmath.mpf]] = None
    for row in sorted(lll_reduce(rows), key=lambda r: sum(v * v for v in r)):
        cand = row[:n]
        r0 = _residual(cand, xs, wp)
        ok = max(abs(v) for v in cand) <= coeff_bound and classify_zero(Real(r0, wp), prec).is_zero
        if ok:
            if witness is None:
                witness = basis.values_raw(2 * wp)
            ok = _residual(cand, witness, 2 * wp) < mpmath.mpf(2) ** (-prec)
        found = _normalize_sign(cand) if ok else None
        if found is not None and found[pi_index]:
            raise PiCoefficientViolation(
                f"verified relation {found} over modulus {basis.modulus} carries a nonzero "
                "pi coefficient; report this rather than accepting it"
            )
        yield found, r0


def find_integer_relation(q: int, coeff_bound: int, prec: int) -> RelationSearchResult:
    """Search for a nonzero integer vector c with sum c_i x_i = 0 over the
    slot values x of the modulus-q log basis.

    Found is the shortest reduced row that passes the relation test of
    ``_reduced_rows``; NoneBelowBound records the smallest residual over
    all reduced rows.
    """
    basis = LogBasis.for_modulus(q)
    residuals = []
    for found, residual in _reduced_rows(basis, coeff_bound, prec):
        if found is not None:
            break
        residuals.append(residual)
    else:
        found, residual = None, min(residuals)
    return RelationSearchResult(
        verdict=NONE_BELOW_BOUND if found is None else FOUND,
        found=found,
        residual=Real(residual, prec),
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


def relation_lattice_rank(
    q: int,
    coeff_bound: int = 10**6,
    prec: int = 256,
) -> LatticeRankResult:
    """Empirical rank of the relation lattice over the modulus-q log basis.

    Reduces the lattice of the slot values once and keeps every reduced
    row that passes the relation test of ``_reduced_rows``.  Rows
    of one basis are independent, so their count is the rank; the identity
    block makes each row's coefficients coprime, so the sorted rows are the
    generators as they stand.  The test suite checks that every constructed
    relation lies in their integer span.
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    basis = LogBasis.for_modulus(q)
    rows = _reduced_rows(basis, coeff_bound, prec)
    generators = tuple(sorted(found for found, _ in rows if found is not None))
    return LatticeRankResult(
        modulus=q,
        rank=len(generators),
        generators=generators,
        coeff_bound=coeff_bound,
        prec=prec,
        basis=basis,
    )
