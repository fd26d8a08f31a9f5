"""L(1, f) for periodic functions, by three independent routes.

* ``digamma``: L(1,f) = -(1/q) sum_a f(a) psi(a/q), with psi at rational
  arguments assembled from Gauss's closed-form digamma theorem.
* ``fourier``: L(1,f) = -sum_k fhat(k) log(1 - zeta_q^k) over k = 1..q-1,
  with the principal branch split exactly into log(2 sin k pi/q) and an
  argument that is a rational multiple of pi.
* ``direct``: truncated partial sums of sum f(n)/n with an explicit tail
  bound, float64 only; a sanity route, not a precision route.

Also here: Hurwitz zeta via Euler-Maclaurin, an independent digamma
oracle (asymptotic series plus upward argument shifting) used to test the
closed-form assembly, and the decomposition of L(1,f) over the basis
{log(2 sin b pi/q)} + {pi} (+ {log 2} for even q).

Sign convention: the decomposition is derived from the digamma route, so
the pi coefficient is +(1/2q) sum f(a) cot(a pi/q) and the log-sine
coefficients are -(2/q) sum f(a) cos(2 pi a b/q).  The q=3 function
(1,-1,0) with L = +pi/(3 sqrt 3) pins these signs; see the regression
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import mpmath
import numpy as np
from mpmath import mp

from .characters import (
    DirichletCharacter,
    PeriodicFunction,
    fourier_transform_raw,
    gauss_sum_raw,
    is_prime,
)
from .kernel import Real, const_raw, to_mpf, working_prec
from .tables import tables

ROUTES = ("digamma", "fourier", "direct")
DEFAULT_DIRECT_TERMS = 10**7


class NonConvergentSeriesError(ValueError):
    """sum f(n)/n diverges: one full period of f does not sum to zero."""


def _require_convergent(f: PeriodicFunction) -> None:
    if not f.has_zero_mean():
        raise NonConvergentSeriesError(
            f"series diverges: sum f(a) over a period = {f.mean_sum()} != 0"
        )


# ---------------------------------------------------------------------------
# Hurwitz zeta, Euler-Maclaurin
# ---------------------------------------------------------------------------

def hurwitz_zeta_raw(s, x, wp: int, tol_exp: int) -> mpmath.mpf:
    """zeta(s, x) for real s > 1, 0 < x <= 1; truncation error < 2^tol_exp.

    Euler-Maclaurin with the cut N and the number of correction terms
    chosen per call: terms are added while they decrease, and the cut is
    doubled if they start growing before reaching tolerance.  For real
    s > 0 the remainder is bounded by the first omitted term.
    """
    with mp.workprec(wp):
        s = to_mpf(s, wp)
        x = to_mpf(x, wp)
        if not s > 1:
            raise ValueError("hurwitz_zeta needs s > 1 (simple pole at s = 1)")
        if not (0 < x <= 1):
            raise ValueError("hurwitz_zeta needs 0 < x <= 1")
        tol = mpmath.mpf(2) ** tol_exp
        N = max(8, (-tol_exp) // 4)
        for _ in range(64):
            head = mpmath.fsum((n + x) ** (-s) for n in range(N))
            y = N + x
            total = head + y ** (1 - s) / (s - 1) + y ** (-s) / 2
            rising = s                  # (s)_(2j-1) for j = 1
            power = y ** (-s - 1)       # y^(-s-2j+1) for j = 1
            y2inv = 1 / (y * y)
            corr = mpmath.mpf(0)
            prev = mpmath.inf
            j = 1
            converged = False
            while j < 4 * wp:
                term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * power
                size = abs(term)
                if size > prev:
                    break  # asymptotic tail started diverging; enlarge N
                corr += term
                if size < tol:
                    converged = True
                    break
                prev = size
                rising *= (s + 2 * j - 1) * (s + 2 * j)
                power *= y2inv
                j += 1
            if converged:
                return total + corr
            N *= 2
    raise RuntimeError("Euler-Maclaurin failed to converge")  # pragma: no cover


def hurwitz_zeta(s, x, prec: int) -> Real:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) at target precision, s > 1."""
    wp = working_prec(prec)
    v = hurwitz_zeta_raw(s, x, wp, -(prec + 32))
    with mp.workprec(prec):
        return Real(+v, prec)


# ---------------------------------------------------------------------------
# digamma at rationals: Gauss's closed form, and an independent oracle
# ---------------------------------------------------------------------------

def digamma_raw(a: int, q: int, wp: int) -> mpmath.mpf:
    """psi(a/q) for 1 <= a < q assembled from Gauss's digamma theorem."""
    if not 1 <= a < q:
        raise ValueError(f"need 1 <= a < q, got a={a}, q={q}")
    tab = tables(q, wp)
    with mp.workprec(wp):
        total = -const_raw("euler_gamma", wp) - mpmath.log(q)
        total -= const_raw("pi", wp) / 2 * tab.cot[a - 1]
        r = (q - 1) // 2
        for b in range(1, r + 1):
            # log(4 sin^2(pi b / q)) = 2 log(2 sin(pi b / q))
            total += tab.roots[(a * b) % q][0] * 2 * tab.log_sines[b - 1]
        if q % 2 == 0:
            parity = const_raw("log2", wp)
            total += parity if a % 2 == 0 else -parity
    return total


def digamma(a: int, q: int, prec: int) -> Real:
    """psi(a/q) at target precision, 1 <= a < q."""
    v = digamma_raw(a, q, working_prec(prec))
    with mp.workprec(prec):
        return Real(+v, prec)


def digamma_series_raw(x, wp: int) -> mpmath.mpf:
    """Oracle psi(x) for real x > 0: shift upward, then the Bernoulli
    asymptotic series.  Shares nothing with the closed-form assembly."""
    wq = wp + 16
    shift_to = int(0.14 * wq) + 16
    with mp.workprec(wq):
        tol = mpmath.mpf(2) ** (-(wp + 8))
        for _ in range(20):
            y = to_mpf(x, wq)
            if y <= 0:
                raise ValueError("digamma oracle needs x > 0")
            acc = mpmath.mpf(0)
            while y < shift_to:
                acc -= 1 / y
                y += 1
            res = mpmath.log(y) - 1 / (2 * y)
            y2inv = 1 / (y * y)
            power = y2inv
            prev = mpmath.inf
            j = 1
            converged = False
            while j < 4 * wq:
                term = mp.bernoulli(2 * j) / (2 * j) * power
                size = abs(term)
                if size > prev:
                    break
                res -= term
                if size < tol:
                    converged = True
                    break
                prev = size
                power *= y2inv
                j += 1
            if converged:
                return res + acc
            shift_to *= 2
    raise RuntimeError("digamma asymptotic series failed to converge")  # pragma: no cover


def digamma_series(x, prec: int) -> Real:
    v = digamma_series_raw(x, working_prec(prec))
    with mp.workprec(prec):
        return Real(+v, prec)


# ---------------------------------------------------------------------------
# the three routes to L(1, f)
# ---------------------------------------------------------------------------

def l1_digamma_raw(f: PeriodicFunction, wp: int) -> mpmath.mpf:
    q = f.period
    psi = tables(q, wp).psi
    with mp.workprec(wp):
        terms = [
            f.value_mpf(a, wp) * psi[a - 1]
            for a in range(1, q + 1)
            if f.value_at(a) != 0
        ]
        return -mpmath.fsum(terms) / q if terms else mpmath.mpf(0)


def l1_fourier_raw(f: PeriodicFunction, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """-(sum_k fhat(k) log(1 - zeta_q^k)) as (re, im).

    log(1 - zeta_q^k) = log(2 sin(k pi/q)) + i pi (k/q - 1/2), which is
    the principal branch for 0 < k < q.
    """
    q = f.period
    fhat = fourier_transform_raw(f, wp)
    tab = tables(q, wp)
    with mp.workprec(wp):
        pi = const_raw("pi", wp)
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for k in range(1, q):
            lg = tab.log_sine(k)
            arg = pi * mpmath.mpf(2 * k - q) / (2 * q)
            hr, hi = fhat[k]
            re -= hr * lg - hi * arg
            im -= hr * arg + hi * lg
        return re, im


@lru_cache(maxsize=16)
def _residue_harmonic_table(q: int, periods: int) -> np.ndarray:
    """H[a-1] = sum_{m=0}^{periods-1} 1/(a + m q), float64."""
    return np.array(
        [np.sum(1.0 / np.arange(a, a + periods * q, q, dtype=np.float64)) for a in range(1, q + 1)]
    )


@dataclass(frozen=True)
class DirectSumResult:
    value: Real
    n_terms: int
    tail_bound: float


def l1_direct_result(f: PeriodicFunction, n_terms: int = DEFAULT_DIRECT_TERMS) -> DirectSumResult:
    """Partial sums of sum f(n)/n cut at a full period, with a tail bound.

    The cut N is a multiple of q, so the partial-sum function of f
    vanishes there and the tail telescopes to sum_{m >= N/q} of one
    period's worth of 1/(a+mq) differences; |tail| <= max|f| / (N/q - 1).
    """
    _require_convergent(f)
    q = f.period
    periods = max(2, n_terms // q)
    table = _residue_harmonic_table(q, periods)
    fv = np.array([float(to_mpf(v, 64)) for v in f.values])
    value = float(fv @ table)
    bound = f.abs_bound() / (periods - 1)
    return DirectSumResult(Real(mpmath.mpf(value), 53), periods * q, bound)


def l1(
    f: PeriodicFunction,
    route: str = "digamma",
    prec: int = 128,
) -> Real:
    """L(1, f) = sum f(n)/n by the requested route, at target precision.

    The direct route is float64-only and returns a 53-bit value; use it
    as a sanity check, not for precision work.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    _require_convergent(f)
    wp = working_prec(prec)
    if route == "digamma":
        v = l1_digamma_raw(f, wp)
    elif route == "fourier":
        re, im = l1_fourier_raw(f, wp)
        with mp.workprec(wp):
            # the bar scales with the summands, not with L, which may vanish
            summands = mpmath.fsum(abs(f.value_mpf(a, wp)) for a in range(1, f.period + 1))
            scale = 1 + abs(re) + summands
            if abs(im) > mpmath.mpf(2) ** (-(prec + 16)) * scale:
                raise ArithmeticError(
                    "fourier route produced a non-negligible imaginary part "
                    f"({mpmath.nstr(im, 8)}) for a real-valued function"
                )
        v = re
    else:
        return l1_direct_result(f).value
    with mp.workprec(prec):
        return Real(+v, prec)


def l1_chi_raw(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """L(1, chi) = -(tau(chi)/p) sum_k conj(chi)(k) log|1 - zeta_p^k| as (re, im)."""
    p = chi.modulus
    tre, tim = gauss_sum_raw(chi, wp)
    chibar = chi.conjugate()
    tab = tables(p, wp)
    # chi's values are (p-1)-th roots of unity
    roots = tables(p - 1, wp).roots
    with mp.workprec(wp):
        sre = mpmath.mpf(0)
        sim = mpmath.mpf(0)
        for k in range(1, p):
            t = chibar.value_exponent(k)
            if t is None:
                continue
            c, s = roots[int(t * (p - 1))]
            lg = tab.log_sine(k)
            sre += c * lg
            sim += s * lg
        re = -(tre * sre - tim * sim) / p
        im = -(tre * sim + tim * sre) / p
        return re, im


def l1_chi_via_gauss(chi: DirichletCharacter, prec: int):
    """L(1, chi) through the Gauss-sum identity, for even nontrivial chi mod p.

    Real-valued characters give a real result (imaginary part at noise
    level); characters of order > 2 have genuinely complex L(1, chi), so
    the return type is Complex throughout.
    """
    from .kernel import Complex

    p = chi.modulus
    if not is_prime(p) or p == 2:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if chi.is_principal:
        raise ValueError("the principal character is excluded (L has a pole factor)")
    if not chi.is_even:
        raise ValueError("odd characters are excluded: chi(-1) must be 1")
    re, im = l1_chi_raw(chi, working_prec(prec))
    with mp.workprec(prec):
        return Complex(Real(+re, prec), Real(+im, prec))


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
    """(sum_a f(a) cot(a pi/q), {b: sum_a f(a) cos(2 pi a b/q)}) for b <= (q-1)/2."""
    q = f.period
    tab = tables(q, wp)
    with mp.workprec(wp):
        vals = [f.value_mpf(a, wp) for a in range(1, q)]
        cot = mpmath.fsum(vals[a - 1] * tab.cot[a - 1] for a in range(1, q))
        cos_sums = {
            b: mpmath.fsum(vals[a - 1] * tab.roots[(a * b) % q][0] for a in range(1, q))
            for b in range(1, (q - 1) // 2 + 1)
        }
    return cot, cos_sums


def decompose_l1(f: PeriodicFunction, prec: int) -> DecompositionVector:
    """Coefficients of L(1,f) over {log(2 sin b pi/q)} + {pi} (+ {log 2}).

    For f(q) != 0 (still zero mean), the digamma derivation leaves an
    extra -(f(q)/q) log q, which is folded exactly into the basis via
    log q = sum_{k=1}^{q-1} log(2 sin k pi/q).
    """
    _require_convergent(f)
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
    with mp.workprec(prec):
        return DecompositionVector(
            modulus=q,
            pi_coeff=Real(+pi_coeff, prec),
            log2sin_coeffs={b: Real(+c, prec) for b, c in coeffs.items()},
            log2_coeff=Real(+log2_coeff, prec),
            value=Real(+value, prec),
        )
