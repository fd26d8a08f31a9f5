"""L(1, f) for periodic functions, by three independent routes.

* ``digamma``: L(1,f) = -(1/q) sum_a f(a) psi(a/q), with psi at rational
  arguments assembled from Gauss's closed-form digamma theorem.
* ``fourier``: L(1,f) = -sum_k fhat(k) log(1 - zeta_q^k) over k = 1..q-1,
  with the principal branch split exactly into log(2 sin k pi/q) and an
  argument that is a rational multiple of pi.
* ``direct``: the partial sum of sum f(n)/n cut at a full period, with an
  explicit tail bound, through mpmath's own digamma and rounded to 53 bits;
  a sanity route independent of the tables, not a precision route.

Also here: the decomposition of L(1,f) over the basis
{log(2 sin b pi/q)} + {pi} (+ {log 2} for even q).

The psi sum of the digamma route and the cot sum of the decomposition
are ``Tables.weighted_sum`` over the psi and cot tables; its cos sums are
rows of ``Tables.harmonic_sums`` over the cos table: each the exact sum
rounded once, whose radius is the tables' summation rule, ``Tables.radius``.
The digamma route is the one place L(1, f)'s ball is formed: the psi sum's
ball divided by -q (:func:`l1_ball_raw`), which the scans classify.

Sign convention: the decomposition is derived from the digamma route, so
the pi coefficient is +(1/2q) sum f(a) cot(a pi/q) and the log-sine
coefficients are -(2/q) sum f(a) cos(2 pi a b/q).  The q=3 function
(1,-1,0) with L = +pi/(3 sqrt 3) pins these signs; see the regression
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_sub, round_nearest

from .characters import PeriodicFunction, fourier_transform_raw
from .kernel import Real, const_raw, div_raw, to_mpf, working_prec
from .relations import LOG2_SLOT, PI_SLOT, LogBasis, linear_form_raw
from .tables import Tables, tables

ROUTES = ("digamma", "fourier")
DEFAULT_DIRECT_TERMS = 10**7


class NonConvergentSeriesError(ValueError):
    """sum f(n)/n diverges: one full period of f does not sum to zero."""


class ImaginaryPartError(ArithmeticError):
    """The Fourier route gave a real-valued f an imaginary part above its
    noise bar, an invariant violation.  The message names q."""


def require_convergent(f: PeriodicFunction) -> None:
    if not f.has_zero_mean():
        raise NonConvergentSeriesError(
            f"series diverges: sum f(a) over a period = {f.mean_sum()} != 0"
        )


# ---------------------------------------------------------------------------
# digamma at rationals: Gauss's closed form
# ---------------------------------------------------------------------------

def digamma_raw(a: int, q: int, wp: int) -> mpmath.mpf:
    """psi(a/q) for 1 <= a < q assembled from Gauss's digamma theorem: the
    entry of the shared psi table, whose docstring gives the assembly."""
    if not 1 <= a < q:
        raise ValueError(f"need 1 <= a < q, got a={a}, q={q}")
    return tables(q, wp).psi[a - 1]


# ---------------------------------------------------------------------------
# the three routes to L(1, f)
# ---------------------------------------------------------------------------

def l1_digamma_raw(f: PeriodicFunction, wp: int) -> Real:
    """-(1/q) sum_a f(a) psi(a/q) as a ball at working precision wp: the psi
    sum, ``Tables.weighted_sum`` rounded once at wp, by :func:`l1_ball_raw`
    with the rule's share of sum_a |f(a)|."""
    tab = tables(f.period, wp)
    total = tab.weighted_sum("psi", f.exact_values)._mpf_
    return Real.ball(l1_ball_raw(tab, tab.rule(psi=f.abs_sum), total), wp)


def l1_ball_raw(tab: Tables, share: tuple, total: tuple) -> Tuple[tuple, tuple]:
    """(L, its radius) as raw mpfs from the psi sum ``total`` over ``tab``:
    the psi sum's ball by the tables' summation rule, its ``share`` being
    ``tab.rule(psi=sum_a |f(a)|)``, divided by -q."""
    return div_raw(total, tab.radius(total, share), -tab.q, tab.wp)


def l1_fourier_raw(f: PeriodicFunction, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """-(sum_k fhat(k) log(1 - zeta_q^k)) as (re, im).

    log(1 - zeta_q^k) = log(2 sin(k pi/q)) + i pi (k/q - 1/2), which is
    the principal branch for 0 < k < q.  Each operation of the loop is
    rounded to nearest at wp: for each k, arg = pi (2k - q) / (2q), then
    re -= hr lg - hi arg and im -= hr arg + hi lg, one rounding per
    operation, as mpf arithmetic under ``mp.workprec(wp)`` forms it.
    """
    q = f.period
    fhat = fourier_transform_raw(f, wp)
    tab = tables(q, wp)
    pi = const_raw("pi", wp)._mpf_
    two_q = from_int(2 * q)
    rnd = round_nearest
    re = im = fzero
    for k in range(1, q):
        lg = tab.log_sine(k)._mpf_
        arg = mpf_div(mpf_mul_int(pi, 2 * k - q, wp, rnd), two_q, wp, rnd)
        hr, hi = (h._mpf_ for h in fhat[k])
        re = mpf_sub(re, mpf_sub(mpf_mul(hr, lg, wp, rnd), mpf_mul(hi, arg, wp, rnd), wp, rnd), wp, rnd)
        im = mpf_sub(im, mpf_add(mpf_mul(hr, arg, wp, rnd), mpf_mul(hi, lg, wp, rnd), wp, rnd), wp, rnd)
    return mp.make_mpf(re), mp.make_mpf(im)


@dataclass(frozen=True)
class DirectSumResult:
    value: Real
    n_terms: int
    tail_bound: float


def l1_direct_result(f: PeriodicFunction) -> DirectSumResult:
    """Partial sums of sum f(n)/n cut at a full period, with a tail bound.

    The cut N is the last multiple of q up to ``DEFAULT_DIRECT_TERMS``
    (at least 2q), so the partial-sum function of f
    vanishes there and the tail telescopes to sum_{m >= N/q} of one
    period's worth of 1/(a+mq) differences; |tail| <= max|f| / (N/q - 1).
    With P = N/q periods, sum_{m<P} 1/(a + mq) = (psi(P + a/q) - psi(a/q))/q,
    so the partial sum is (1/q) sum_a f(a) (psi(P + a/q) - psi(a/q)), here
    by ``mpmath.digamma`` at 80 bits, rounded to 53.
    """
    require_convergent(f)
    q = f.period
    periods = max(2, DEFAULT_DIRECT_TERMS // q)
    wp = 80
    with mp.workprec(wp):
        terms = []
        for a in range(1, q + 1):
            v = f.value_mpf(a, wp)
            if v:
                x = mpmath.mpf(a) / q
                terms.append(v * (mpmath.digamma(periods + x) - mpmath.digamma(x)))
        value = mpmath.fsum(terms) / q
    bound = f.abs_bound() / (periods - 1)
    return DirectSumResult(Real(value, 53), periods * q, bound)


def l1(f: PeriodicFunction, route: str = "digamma", prec: int = 128) -> Real:
    """L(1, f) = sum f(n)/n by the digamma or Fourier route, at target precision.

    The 53-bit partial sum is ``l1_direct_result``; it is a sanity check,
    not a route at precision.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    require_convergent(f)
    wp = working_prec(prec)
    if route == "digamma":
        v = l1_digamma_raw(f, wp).mpf
    else:
        re, im = l1_fourier_raw(f, wp)
        # the bar scales with the summands, not with L, which may vanish
        summands = to_mpf(f.abs_sum, wp)
        with mp.workprec(wp):
            scale = 1 + abs(re) + summands
            if abs(im) > mpmath.ldexp(1, -(prec + 16)) * scale:
                raise ImaginaryPartError(
                    f"q = {f.period}: the fourier route produced a non-negligible imaginary part"
                    f" ({mpmath.nstr(im, 8)}) for a real-valued function"
                )
        v = re
    return Real(v, prec)


# ---------------------------------------------------------------------------
# decomposition of L(1, f) over the log-sine basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionVector:
    """L(1,f) written as pi_coeff*pi + sum_b coeff_b*log(2 sin b pi/q) + log2_coeff*log 2."""

    modulus: int
    pi_coeff: Real
    log2sin_coeffs: Dict[int, Real]
    log2_coeff: Real
    value: Real


def trig_sums_raw(
    f: PeriodicFunction, wp: int
) -> Tuple[mpmath.mpf, Dict[int, mpmath.mpf]]:
    """(sum_a f(a) cot(a pi/q), {b: sum_a f(a) cos(2 pi a b/q)}) for b <= (q-1)/2,
    each over a = 1..q-1 at working precision wp.

    The cot sum is ``Tables.weighted_sum`` over the cot table and the cos
    sums are ``Tables.harmonic_sums`` over the cos table.
    """
    q = f.period
    tab = tables(q, wp)
    bs = range(1, (q - 1) // 2 + 1)
    nums, d = f.exact_values
    cos = tab.harmonic_sums("cos", (nums[: q - 1], d), len(bs))
    return tab.weighted_sum("cot", f.exact_values), dict(zip(bs, cos))


def decompose_l1(f: PeriodicFunction, prec: int) -> DecompositionVector:
    """Coefficients of L(1,f) over the slots of ``LogBasis.for_modulus(q)``,
    {log(2 sin b pi/q)} + {pi} (+ {log 2} for even q), and the value as the
    basis's linear form in them.

    For f(q) != 0 (still zero mean), the digamma derivation leaves an
    extra -(f(q)/q) log q, which is folded exactly into the basis via
    log q = sum_{k=1}^{q-1} log(2 sin k pi/q): -2 f(q)/q on each log-sine
    slot and, for even q, -f(q)/q on log 2 = log(2 sin (q/2) pi/q), which
    is the a = q term of the log-2 coefficient's alternating sum
    -(1/q) sum_{a=1}^q (-1)^a f(a).  Both are exact and rounded once.
    """
    require_convergent(f)
    q = f.period
    wp = working_prec(prec)
    basis = LogBasis.for_modulus(q)
    nums, d = f.exact_values
    cot_sum, cos_sums = trig_sums_raw(f, wp)
    log_q_share = to_mpf(Fraction(2 * nums[-1], d * q), wp)._mpf_
    # -2 cos_sum / q - log_q_share and cot_sum / (2q), rounded as under mp.workprec(wp)
    rnd, wq = round_nearest, from_int(q)
    coeffs = {
        b: mp.make_mpf(mpf_sub(mpf_div(mpf_mul_int(c._mpf_, -2, wp, rnd), wq, wp, rnd), log_q_share, wp, rnd))
        for b, c in cos_sums.items()
    }
    pi_coeff = mp.make_mpf(mpf_div(cot_sum._mpf_, from_int(2 * q), wp, rnd))
    # odd q has no log 2 slot
    alt = sum(n if a % 2 else -n for a, n in enumerate(nums, 1)) if q % 2 == 0 else 0
    log2_coeff = to_mpf(Fraction(alt, d * q), wp)
    slots = {**coeffs, PI_SLOT: pi_coeff, LOG2_SLOT: log2_coeff}
    value = linear_form_raw([slots[s] for s in basis.slots], basis.values_raw(wp), wp)
    return DecompositionVector(
        modulus=q,
        pi_coeff=Real(pi_coeff, prec),
        log2sin_coeffs={b: Real(c, prec) for b, c in coeffs.items()},
        log2_coeff=Real(log2_coeff, prec),
        value=Real(value, prec),
    )
