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

``determinant_check`` computes the determinant both ways, and its record
reads the certificate's verdicts off the factors it holds.  The direct
route is an LU in fixed point over the tables' exact integer form of the
log-sines, ``log_sines_aligned``, with an a-posteriori estimate of its
relative error that decides whether to restart at doubled precision.

The factors come all at once.  Reindexed by the discrete logarithm, the r
sums S_chi over the even characters are one DFT of length r over the cyclic
group G (Rader's reindexing), so ``s_chi_raw`` forms them as two
``Tables.harmonic_sums`` over the r-th roots of unity, with the tables'
integer forms of the log-sines as exact weights: each component is an exact
sum rounded once at wp.  Each factor follows the tables' summation rule,
whose share is the same for every component of every factor of p and is
formed once; |S_chi| is the kernel's ``hypot_raw`` of its two components'
raw balls, made a Real once.  That radius, at wp or at the bits a factor
escalates to (where all factors are formed again, once per precision),
decides its NonZero, under the tables' 1-ulp assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import mpmath
from mpmath import mp
from mpmath.libmp import fzero, from_man_exp, round_nearest

from .characters import DirichletCharacter, require_odd_prime, unit_group_structure
from .kernel import GUARD_BITS, Complex, Real, ZeroClass, classify_zero, fold, hypot_raw, working_prec
from .tables import ONE_ULP_ASSUMPTION, tables

DEFAULT_MAX_PRIME = 101
# the LU doubles wp at most this often before giving up (8x the first wp)
MAX_LU_RESTARTS = 3
Pair = Tuple[mpmath.mpf, mpmath.mpf]  # (re, im) at working precision
T = TypeVar("T")


class DeterminantError(ArithmeticError):
    """``determinant_check`` could not reach a trustworthy determinant: the
    LU's error estimate stays too large after its restarts, or the product
    of the character factors is not real.  The message names p."""


def _matrix(p: int, entries: Sequence[T]) -> List[List[T]]:
    """The r x r matrix (entries[fold(a c^-1) - 1])_{a,c = 1..r}, r = (p-1)/2,
    from a table indexed by k - 1 for k = 1..r; one inverse per column."""
    r = (p - 1) // 2
    inverses = [pow(c, -1, p) for c in range(1, r + 1)]
    return [[entries[fold(a * cinv, p) - 1] for cinv in inverses] for a in range(1, r + 1)]


def _aligned_matrix(p: int, wp: int) -> Tuple[List[List[int]], int]:
    """The Dedekind-type matrix over the aligned log-sines at wp: integer
    rows and the scale s, each entry being exactly its integer times 2^-s."""
    logs, exp = tables(p, wp).log_sines_aligned
    return _matrix(p, logs), -exp


def s_chi_raw(p: int, wp: int) -> List[Pair]:
    """S_chi = sum_{a=1}^r chi(a) f(a) as (re, im) at working precision for
    every even chi mod p, listed by e // 2 for chi's exponent e, from one
    DFT over the cyclic group G.

    With g the primitive root of ``unit_group_structure(p)``, the map
    a -> j(a) = dlog_g(a) mod r takes a = 1..r one to one onto Z/r, as
    dlog_g(-a) = dlog_g(a) + r mod p - 1.  The even chi with exponent 2e has
    chi(a) = zeta_r^(e j(a)), so S_chi = sum_a f(a) zeta_r^(e j(a)): slot e
    of ``Tables.harmonic_sums`` over the cos and sin tables of r, with the
    aligned log-sine integer of a as the exact weight of column j(a).  Column
    r stands for j = 0, so slot r, rotated to the front, is the principal
    character.  The log-sines' exponent E < 0 rides in the weights'
    denominator 2^-E, so each component is the exact integer
    sum_a T_a C_(e j(a)) rounded to nearest once at wp.
    """
    r = (p - 1) // 2
    logs, log_exp = tables(p, wp).log_sines_aligned
    dlog = unit_group_structure(p).dlog
    # weights[a - 1], column a, is the log-sine integer of the a' with j(a') = a mod r
    weights = [0] * r
    for a, t in enumerate(logs, 1):
        weights[(dlog[a][0] - 1) % r] = t
    roots = tables(r, wp)
    re, im = (roots.harmonic_sums(family, (weights, 1 << -log_exp), r) for family in ("cos", "sin"))
    return list(zip(re[-1:] + re[:-1], im[-1:] + im[:-1]))


def _ball_rule(p: int, wp: int) -> Callable[[Pair], Real]:
    """The ball of |S_chi| at wp from its (re, im) at wp, for the factors of
    p: the ``hypot_raw`` of the components' balls.  A component sums c_a t_a
    over roots c_a and log-sines t_a, so the rule weighs the roots by
    sum_a |t_a| and the log-sines by r, as |c_a| <= 1.  Every component of
    every factor has that share, formed once here: ``eps_roots`` bounds cos
    and sin alike."""
    tab = tables(p, wp)
    logs, exp = tab.log_sines_aligned
    share = tab.rule(cos=sum(map(abs, logs)) * Fraction(2) ** exp, log_sines=len(logs))

    def ball(raw: Pair) -> Real:
        re, im = raw[0]._mpf_, raw[1]._mpf_
        return Real.ball(hypot_raw(re, tab.radius(re, share), im, tab.radius(im, share), wp), wp)

    return ball


class LU(NamedTuple):
    """A fixed-point LU determinant with its error estimate."""

    det: mpmath.mpf
    # -log2 of the estimated relative error of det (inf for an exact zero pivot)
    accurate_bits: float
    # log2 of the largest |entry| met during elimination over the largest at the start
    growth_bits: float


def _lu_det(rows: List[List[int]], s: int, wp: int) -> LU:
    """Determinant by LU with partial pivoting on integers scaled by 2^s,
    rounded to nearest once at wp bits.

    Eliminating row i by pivot row c sets factor = (a_ic << s) // u_cc,
    with |factor| <= 2^s, and a_ij -= (factor * a_cj) >> s.  Each entry
    starts as its value exactly, and each of its at most n updates loses
    less than (1 + peak) 2^-s: 2^-s from the shift and |a_cj| 2^-s from the
    truncated factor, where peak bounds every |entry| met.  So each pivot
    u_kk is off by less than n (2 + peak) 2^-s, and to first order the
    relative error of det = prod u_kk is about

        n (2 + peak) 2^-s sum_k 1/|u_kk|.

    This is an estimate, not a rigorous bound: it ignores how errors in a
    pivot row reach later rows through the factors.  The product of the
    pivots is exact and rounded once at wp.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    start = max(abs(x) for row in a for x in row)
    peak = start
    sign = 1
    pivots = []
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(a[i][col]))
        if a[pivot][col] == 0:
            return LU(mp.make_mpf(fzero), math.inf, 0.0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        u = top[col]
        pivots.append(u)
        for i in range(col + 1, n):
            row = a[i]
            factor = (row[col] << s) // u
            if factor:
                row[col + 1:] = tail = [
                    x - ((factor * y) >> s) for x, y in zip(row[col + 1:], top[col + 1:])
                ]
                peak = max(peak, max(map(abs, tail)))
    det = mp.make_mpf(from_man_exp(sign * math.prod(pivots), -s * n, wp, round_nearest))
    with mp.workprec(53):
        # sum_k 1/|u_kk| is 2^s times the sum over the scaled pivots
        inverses = mpmath.fsum(mpmath.mpf(1) / abs(u) for u in pivots)
        estimate = n * (2 + mpmath.ldexp(peak, -s)) * inverses
        accurate_bits = -float(mpmath.log(estimate, 2))
    return LU(det, accurate_bits, math.log2(peak) - math.log2(start))


def det_direct_raw(p: int, wp: int) -> mpmath.mpf:
    """LU determinant of the Dedekind-type matrix, at least wp - GUARD_BITS/2
    bits accurate by the LU's own estimate: while the estimate falls short,
    the LU restarts at doubled precision, at most ``MAX_LU_RESTARTS`` times.
    For p <= 101 at any wp the estimate leaves about 54 of the 64 guard bits
    (growth under 3 bits, every pivot at least 0.54), so it never restarts."""
    need = wp - GUARD_BITS // 2
    for restart in range(MAX_LU_RESTARTS + 1):
        lu = _lu_det(*_aligned_matrix(p, wp << restart), wp << restart)
        if lu.accurate_bits >= need:
            return lu.det
    raise DeterminantError(
        f"p = {p}: the LU determinant is estimated accurate to {lu.accurate_bits:.1f} bits"
        f" at wp = {wp << MAX_LU_RESTARTS}, short of the {need} needed after"
        f" {MAX_LU_RESTARTS} restarts at doubled precision"
        f" (pivot growth {lu.growth_bits:.1f} bits)"
    )


CERTIFICATE_NOTES = (
    "each character factor S_chi marked rigorous was decided nonzero at the stated precision"
    " by an error radius that excludes 0, assuming " + ONE_ULP_ASSUMPTION + ";"
    " any other factor was confirmed by recomputation at doubled working precision",
    "nonvanishing of all S_chi makes the Dedekind-type matrix invertible, excluding any"
    " rational linear relation among the log-sine values at the tested coefficient scale",
    "independence over all algebraic numbers additionally rests on classical linear-forms-in-"
    "logarithms results, outside this toolkit's numerical scope",
    "the coefficient of pi is excluded by a cited classical lemma; this toolkit probes it"
    " empirically through the integer-relation searches only",
)


@dataclass(frozen=True)
class DeterminantCheck:
    """Both determinant routes and every character factor for one prime.

    The certificate's verdicts are properties of the factors and ``agree``;
    ``conclusive`` is False when any factor classifies Indeterminate.  What
    is established numerically is separated, in ``CERTIFICATE_NOTES``, from
    what rests on cited classical results.
    """

    prime: int
    prec: int
    det_direct: Real
    det_product: Real
    agree: bool
    s_chi_values: Tuple[Tuple[DirichletCharacter, Complex, ZeroClass], ...]

    @property
    def all_factors_nonzero(self) -> bool:
        return all(cls.is_nonzero for _, _, cls in self.s_chi_values)

    @property
    def conclusive(self) -> bool:
        return not any(cls.is_indeterminate for _, _, cls in self.s_chi_values)

    @property
    def rational_dependence_excluded(self) -> bool:
        return self.all_factors_nonzero and self.agree

    @property
    def weakest_margin_bits(self) -> Optional[float]:
        """The smallest factor margin in bits, None if a factor has none."""
        margins = [cls.margin_bits for _, _, cls in self.s_chi_values]
        return None if None in margins else min(margins)


def determinant_check(p: int, prec: int = 128) -> DeterminantCheck:
    """Both determinant routes plus every character factor, cross-checked.

    Every S_chi comes from one ``s_chi_raw`` call at working precision and
    feeds all three; a factor whose radius cannot decide escalates, with all
    factors formed at most once per precision reached.  ``agree`` demands
    relative difference below 2^(-prec/2).
    """
    require_odd_prime(p)
    if p > DEFAULT_MAX_PRIME:
        raise ValueError(f"p = {p} exceeds the configured bound {DEFAULT_MAX_PRIME}")
    wp = working_prec(prec)
    direct = det_direct_raw(p, wp)
    factors = s_chi_raw(p, wp)
    # every factor and the ball rule at each w reached, formed once per w
    evaluated: Dict[int, Tuple[List[Pair], Callable[[Pair], Real]]] = {wp: (factors, _ball_rule(p, wp))}

    def ball(e: int, w: int) -> Real:
        # |S_chi| of the character with exponent 2e, at w
        if w not in evaluated:
            evaluated[w] = s_chi_raw(p, w), _ball_rule(p, w)
        raw, rule = evaluated[w]
        return rule(raw[e])

    pre, pim = mpmath.mpf(1), mpmath.mpf(0)
    entries = []
    # slot e holds the e-th even character, the one with exponent 2e
    for e, (sre, sim) in enumerate(factors):
        chi = DirichletCharacter(p, (2 * e,))
        with mp.workprec(wp):
            pre, pim = pre * sre - pim * sim, pre * sim + pim * sre
        value = Complex(Real(sre, prec), Real(sim, prec))
        entries.append((chi, value, classify_zero(ball(e, wp), prec, lambda w, e=e: ball(e, w))))
    with mp.workprec(wp):
        bar = mpmath.ldexp(1, -(prec // 2))
        if abs(pim) > bar * (1 + abs(pre)):
            raise DeterminantError(f"p = {p}: the character-factor product is not real")
        scale = max(abs(direct), abs(pre))
        agree = bool(scale > 0 and abs(direct - pre) / scale < bar)
    return DeterminantCheck(
        prime=p,
        prec=prec,
        det_direct=Real(direct, prec),
        det_product=Real(pre, prec),
        agree=agree,
        s_chi_values=tuple(entries),
    )
