"""Reference implementations the tests compare the package against.

None of these is on a route the package runs: each is an independent
evaluation (Euler-Maclaurin Hurwitz zeta, the asymptotic-series digamma,
Gauss sums by their defining sum, L(1, chi) through the Gauss-sum
identity, the inverse Fourier transform) or an exact helper (rational
span membership, Euler's phi) that a test checks a route's output with.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

import mpmath
from mpmath import mp

from cyclolog.characters import DirichletCharacter, factorize, is_prime, unit_root
from cyclolog.kernel import Complex, Real, to_mpf, working_prec
from cyclolog.relations import rational_rank
from cyclolog.tables import tables


def euler_phi(n: int) -> int:
    """The order of (Z/nZ)*, from the prime factorization."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def gauss_sum_raw(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """tau(chi) = sum_a chi(a) zeta_q^a as (re, im) mpf at working precision."""
    q = chi.modulus
    with mp.workprec(wp):
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for a in range(1, q + 1):
            t = chi.value_exponent(a)
            if t is None:
                continue
            # chi(a) * zeta_q^a = e^(2 pi i (t + a/q))
            e = t + Fraction(a, q)
            c, s = unit_root(e.numerator, e.denominator, wp)
            re += c
            im += s
    return re, im


def gauss_sum(chi: DirichletCharacter, prec: int) -> Complex:
    """The Gauss sum tau(chi) at target precision."""
    re, im = gauss_sum_raw(chi, working_prec(prec))
    return Complex(Real(re, prec), Real(im, prec))


def inverse_fourier(fhat: Dict[int, Tuple[mpmath.mpf, mpmath.mpf]], q: int, prec: int) -> Dict[int, Complex]:
    """f(n) = sum_k fhat(k) zeta_q^(kn) from (re, im) pairs; the inversion identity."""
    wp = working_prec(prec)
    roots = tables(q, wp).roots
    out: Dict[int, Complex] = {}
    with mp.workprec(wp):
        for n in range(1, q + 1):
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for k in range(1, q + 1):
                c, s = roots[(k * n) % q]
                zr, zi = fhat[k]
                re += zr * c - zi * s
                im += zr * s + zi * c
            out[n] = Complex(Real(re, prec), Real(im, prec))
    return out


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
    return Real(hurwitz_zeta_raw(s, x, working_prec(prec), -(prec + 32)), prec)


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
    return Real(digamma_series_raw(x, working_prec(prec)), prec)


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
    p = chi.modulus
    if not is_prime(p) or p == 2:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if chi.is_principal:
        raise ValueError("the principal character is excluded (L has a pole factor)")
    if not chi.is_even:
        raise ValueError("odd characters are excluded: chi(-1) must be 1")
    re, im = l1_chi_raw(chi, working_prec(prec))
    return Complex(Real(re, prec), Real(im, prec))


def in_rational_span(vector: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Whether ``vector`` lies in the rational span of ``generators``."""
    gens = [list(g) for g in generators]
    base = rational_rank(gens)
    return rational_rank(gens + [list(vector)]) == base
