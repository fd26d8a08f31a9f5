"""Dedekind-type matrices over G = (Z/pZ)*/{+-1} and their determinants.

The r x r matrix (r = (p-1)/2) with entries log(2 sin(a c^-1 pi / p)) is
of Dedekind type for the function f(a) = log(2 sin(a pi/p)) on G, so its
determinant factors as the product over the characters of G (equivalently
the even Dirichlet characters mod p) of

    S_chi = sum_{a=1}^r chi(a) log(2 sin(a pi / p)).

S_chi evaluates to (1/2) log p for the principal character and to
-(p / (2 tau(conj chi))) L(1, conj chi) otherwise.  Certifying every
S_chi nonzero certifies, at the tested precision, that the r logarithms
admit no rational linear relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import mpmath
from mpmath import mp

from .characters import DirichletCharacter, enumerate_characters, is_prime
from .kernel import (
    Complex,
    Real,
    ZeroClass,
    classify_zero,
    working_prec,
)
from .tables import tables

DEFAULT_MAX_PRIME = 101
_PIVOT_GROWTH_BITS = 32
Pair = Tuple[mpmath.mpf, mpmath.mpf]  # (re, im) at working precision


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"modulus must be an odd prime, got {p}")


def _matrix_raw(p: int, wp: int) -> List[List[mpmath.mpf]]:
    r = (p - 1) // 2
    tab = tables(p, wp)
    rows = []
    for a in range(1, r + 1):
        row = []
        for c in range(1, r + 1):
            cinv = pow(c, -1, p)
            row.append(tab.log_sine(a * cinv))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class DedekindMatrix:
    """The matrix, its prime, and the group size r = (p-1)/2."""

    prime: int
    size: int
    entries: Tuple[Tuple[Real, ...], ...]

    def entry(self, a: int, c: int) -> Real:
        return self.entries[a - 1][c - 1]


def build_matrix(p: int, prec: int = 128) -> DedekindMatrix:
    _require_odd_prime(p)
    raw = _matrix_raw(p, working_prec(prec))
    with mp.workprec(prec):
        rows = tuple(tuple(Real(+v, prec) for v in row) for row in raw)
    return DedekindMatrix(p, (p - 1) // 2, rows)


def s_chi_raw(chi: DirichletCharacter, wp: int) -> Pair:
    """S_chi = sum_{a=1}^r chi(a) f(a) as (re, im) at working precision."""
    p = chi.modulus
    table = tables(p, wp).log_sines
    # chi's values are (p-1)-th roots of unity
    roots = tables(p - 1, wp).roots
    with mp.workprec(wp):
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for a in range(1, (p - 1) // 2 + 1):
            t = chi.value_exponent(a)
            assert t is not None  # 1 <= a < p and p prime
            c, s = roots[int(t * (p - 1))]
            re += c * table[a - 1]
            im += s * table[a - 1]
        return re, im


def _rounded(raw: Pair, prec: int) -> Complex:
    with mp.workprec(prec):
        return Complex(*(Real(+x, prec) for x in raw))


def _magnitude(raw: Pair, wp: int) -> mpmath.mpf:
    with mp.workprec(wp):
        return mpmath.hypot(*raw)


def _classified(chi: DirichletCharacter, raw: Pair, prec: int) -> ZeroClass:
    """Classify |S_chi| from its (re, im) at working precision; the witness
    is one evaluation at doubled precision."""
    wp = working_prec(prec)
    return classify_zero(
        Real(_magnitude(raw, wp), wp), prec, recompute=lambda w: _magnitude(s_chi_raw(chi, w), w)
    )


def s_chi(chi: DirichletCharacter, prec: int = 128) -> Complex:
    """The character factor S_chi of the determinant; chi must be even."""
    _require_odd_prime(chi.modulus)
    if not chi.is_even:
        raise ValueError("odd characters are not characters of G = (Z/pZ)*/{+-1}")
    return _rounded(s_chi_raw(chi, working_prec(prec)), prec)


def classify_s_chi(chi: DirichletCharacter, prec: int = 128) -> ZeroClass:
    return _classified(chi, s_chi_raw(chi, working_prec(prec)), prec)


def _lu_det(rows: List[List[mpmath.mpf]], wp: int) -> mpmath.mpf:
    """Determinant by LU with partial pivoting at precision wp."""
    n = len(rows)
    a = [row[:] for row in rows]
    with mp.workprec(wp):
        det = mpmath.mpf(1)
        start = max(abs(x) for row in a for x in row)
        peak = start
        for col in range(n):
            pivot = max(range(col, n), key=lambda i: abs(a[i][col]))
            if a[pivot][col] == 0:
                return mpmath.mpf(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            for i in range(col + 1, n):
                factor = a[i][col] / a[col][col]
                for j in range(col, n):
                    a[i][j] -= factor * a[col][j]
                    peak = max(peak, abs(a[i][j]))
        if start > 0 and peak / start > mpmath.mpf(2) ** _PIVOT_GROWTH_BITS:
            raise _PivotGrowth()
        return det


class _PivotGrowth(ArithmeticError):
    pass


def det_direct_raw(p: int, wp: int) -> mpmath.mpf:
    """LU determinant, restarting at doubled precision on pivot growth."""
    while True:
        try:
            return _lu_det(_matrix_raw(p, wp), wp)
        # r reaches 50 at DEFAULT_MAX_PRIME = 101; growth stays under 3 bits for p <= 101
        except _PivotGrowth:  # pragma: no cover
            wp *= 2


@dataclass(frozen=True)
class DeterminantCheck:
    prime: int
    prec: int
    det_direct: Real
    det_product: Real
    agree: bool
    s_chi_values: Tuple[Tuple[DirichletCharacter, Complex, ZeroClass], ...]


def determinant_check(p: int, prec: int = 128) -> DeterminantCheck:
    """Both determinant routes plus every character factor, cross-checked.

    Each S_chi is evaluated once at working precision and feeds all three.
    ``agree`` demands relative difference below 2^(-prec/2).
    """
    _require_odd_prime(p)
    if p > DEFAULT_MAX_PRIME:
        raise ValueError(f"p = {p} exceeds the configured bound {DEFAULT_MAX_PRIME}")
    wp = working_prec(prec)
    direct = det_direct_raw(p, wp)
    pre, pim = mpmath.mpf(1), mpmath.mpf(0)
    entries = []
    for chi in enumerate_characters(p, even_only=True):
        sre, sim = raw = s_chi_raw(chi, wp)
        with mp.workprec(wp):
            pre, pim = pre * sre - pim * sim, pre * sim + pim * sre
        entries.append((chi, _rounded(raw, prec), _classified(chi, raw, prec)))
    with mp.workprec(wp):
        if abs(pim) > mpmath.mpf(2) ** (-(prec // 2)) * (1 + abs(pre)):
            raise ArithmeticError("character-factor product is not real")
        scale = max(abs(direct), abs(pre))
        agree = bool(scale > 0 and abs(direct - pre) / scale < mpmath.mpf(2) ** (-(prec // 2)))
    with mp.workprec(prec):
        return DeterminantCheck(
            prime=p,
            prec=prec,
            det_direct=Real(+direct, prec),
            det_product=Real(+pre, prec),
            agree=agree,
            s_chi_values=tuple(entries),
        )


@dataclass(frozen=True)
class IndependenceCertificate:
    """Numeric certificate that the r log-sine values admit no rational relation.

    ``conclusive`` is False when any factor classifies Indeterminate; that
    marks the certificate inconclusive rather than failed.  What the
    certificate establishes numerically is separated, in ``notes``, from
    what rests on cited classical results.
    """

    prime: int
    prec: int
    factors: Tuple[Tuple[DirichletCharacter, Complex, ZeroClass], ...]
    det_direct: Real
    det_product: Real
    det_agree: bool
    all_factors_nonzero: bool
    conclusive: bool
    rational_dependence_excluded: bool
    notes: Tuple[str, ...]


_CERT_NOTES = (
    "every character factor S_chi was verified nonzero numerically at the stated precision,"
    " with recomputation at doubled working precision",
    "nonvanishing of all S_chi makes the Dedekind-type matrix invertible, excluding any"
    " rational linear relation among the log-sine values at the tested coefficient scale",
    "independence over all algebraic numbers additionally rests on classical linear-forms-in-"
    "logarithms results, outside this toolkit's numerical scope",
    "the coefficient of pi is excluded by a cited classical lemma; this toolkit probes it"
    " empirically through the integer-relation searches only",
)


def independence_certificate(p: int, prec: int = 128) -> IndependenceCertificate:
    check = determinant_check(p, prec)
    all_nonzero = all(cls.is_nonzero for _, _, cls in check.s_chi_values)
    any_indeterminate = any(cls.is_indeterminate for _, _, cls in check.s_chi_values)
    return IndependenceCertificate(
        prime=p,
        prec=prec,
        factors=check.s_chi_values,
        det_direct=check.det_direct,
        det_product=check.det_product,
        det_agree=check.agree,
        all_factors_nonzero=all_nonzero,
        conclusive=not any_indeterminate,
        rational_dependence_excluded=all_nonzero and check.agree,
        notes=_CERT_NOTES,
    )
