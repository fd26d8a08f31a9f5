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

The psi sum of the digamma route and the cot and cos sums of the
decomposition follow the tables' summation rule: each is the correctly
rounded value of the exact combination sum_a f(a) t_i of its table
entries, so its error is at most sum_a |f(a)| eps_family + 1/2 ulp, where
eps_family bounds the error of one entry.

Sign convention: the decomposition is derived from the digamma route, so
the pi coefficient is +(1/2q) sum f(a) cot(a pi/q) and the log-sine
coefficients are -(2/q) sum f(a) cos(2 pi a b/q).  The q=3 function
(1,-1,0) with L = +pi/(3 sqrt 3) pins these signs; see the regression
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub, round_nearest

from .characters import PeriodicFunction, fourier_transform_raw
from .kernel import Real, const_raw, working_prec
from .tables import tables

ROUTES = ("digamma", "fourier")
DEFAULT_DIRECT_TERMS = 10**7


class NonConvergentSeriesError(ValueError):
    """sum f(n)/n diverges: one full period of f does not sum to zero."""


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

def l1_digamma_raw(f: PeriodicFunction, wp: int) -> mpmath.mpf:
    """-(1/q) sum_a f(a) psi(a/q) at working precision wp.

    The sum is ``Tables.weighted_sums`` over the psi table: the exact
    sum_a f(a) psi(a/q) over the table entries, rounded once at wp, then
    divided by -q.
    """
    q = f.period
    (total,) = tables(q, wp).weighted_sums("psi", f, [range(q)])
    with mp.workprec(wp):
        return -total / q


def l1_fourier_raw(f: PeriodicFunction, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """-(sum_k fhat(k) log(1 - zeta_q^k)) as (re, im).

    log(1 - zeta_q^k) = log(2 sin(k pi/q)) + i pi (k/q - 1/2), which is
    the principal branch for 0 < k < q.  The loop runs libmp's operations
    on raw mpfs, each rounded to nearest at wp in the order the mpf
    expressions ``re -= hr lg - hi arg`` and ``im -= hr arg + hi lg`` do.
    """
    q = f.period
    fhat = fourier_transform_raw(f, wp)
    tab = tables(q, wp)
    rnd = round_nearest
    pi = const_raw("pi", wp)._mpf_
    den = from_int(2 * q)
    re = im = fzero
    for k in range(1, q):
        lg = tab.log_sine(k)._mpf_
        arg = mpf_div(mpf_mul(pi, from_int(2 * k - q), wp, rnd), den, wp, rnd)
        hr, hi = (h._mpf_ for h in fhat[k])
        term = mpf_sub(mpf_mul(hr, lg, wp, rnd), mpf_mul(hi, arg, wp, rnd), wp, rnd)
        re = mpf_sub(re, term, wp, rnd)
        term = mpf_add(mpf_mul(hr, arg, wp, rnd), mpf_mul(hi, lg, wp, rnd), wp, rnd)
        im = mpf_sub(im, term, wp, rnd)
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


def l1(
    f: PeriodicFunction,
    route: str = "digamma",
    prec: int = 128,
) -> Real:
    """L(1, f) = sum f(n)/n by the digamma or Fourier route, at target precision.

    The 53-bit partial sum is ``l1_direct_result``; it is a sanity check,
    not a route at precision.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    require_convergent(f)
    wp = working_prec(prec)
    if route == "digamma":
        v = l1_digamma_raw(f, wp)
    else:
        re, im = l1_fourier_raw(f, wp)
        with mp.workprec(wp):
            # the bar scales with the summands, not with L, which may vanish
            summands = mpmath.fsum(abs(f.value_mpf(a, wp)) for a in range(1, f.period + 1))
            scale = 1 + abs(re) + summands
            if abs(im) > mpmath.ldexp(1, -(prec + 16)) * scale:
                raise ArithmeticError(
                    "fourier route produced a non-negligible imaginary part "
                    f"({mpmath.nstr(im, 8)}) for a real-valued function"
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

    Each sum is ``Tables.weighted_sums`` over the cot or cos table: the
    exact sum of f(a) times the table entries, rounded once at wp.
    """
    q = f.period
    tab = tables(q, wp)
    (cot,) = tab.weighted_sums("cot", f, [range(q - 1)])
    bs = range(1, (q - 1) // 2 + 1)
    cos = tab.weighted_sums("cos", f, ([(a * b) % q for a in range(1, q)] for b in bs))
    return cot, dict(zip(bs, cos))


def decompose_l1(f: PeriodicFunction, prec: int) -> DecompositionVector:
    """Coefficients of L(1,f) over {log(2 sin b pi/q)} + {pi} (+ {log 2}).

    For f(q) != 0 (still zero mean), the digamma derivation leaves an
    extra -(f(q)/q) log q, which is folded exactly into the basis via
    log q = sum_{k=1}^{q-1} log(2 sin k pi/q).
    """
    require_convergent(f)
    q = f.period
    wp = working_prec(prec)
    cot_sum, cos_sums = trig_sums_raw(f, wp)
    logs = tables(q, wp).log_sines
    with mp.workprec(wp):
        pi_coeff = cot_sum / (2 * q)
        coeffs = {b: -2 * cos_sum / q for b, cos_sum in cos_sums.items()}
        if q % 2 == 0:
            alt = mpmath.fsum(
                f.value_mpf(a, wp) if a % 2 == 0 else -f.value_mpf(a, wp) for a in range(1, q)
            )
            log2_coeff = -alt / q
        else:
            log2_coeff = mpmath.mpf(0)
        fq = f.value_mpf(q, wp)
        if fq != 0:
            # fold -(f(q)/q) log q into the basis
            for b in coeffs:
                coeffs[b] -= 2 * fq / q
            if q % 2 == 0:
                log2_coeff -= fq / q
        value = pi_coeff * const_raw("pi", wp)
        for b, c in coeffs.items():
            value += c * logs[b - 1]
        if q % 2 == 0:
            value += log2_coeff * const_raw("log2", wp)
    return DecompositionVector(
        modulus=q,
        pi_coeff=Real(pi_coeff, prec),
        log2sin_coeffs={b: Real(c, prec) for b, c in coeffs.items()},
        log2_coeff=Real(log2_coeff, prec),
        value=Real(value, prec),
    )
