"""Reference implementations the tests compare the package against.

None of these is on a route the package runs: each is an independent
evaluation (Euler-Maclaurin Hurwitz zeta, the asymptotic-series digamma,
Gauss's digamma theorem as an mpf loop, Gauss sums by their defining sum,
S_chi over Fraction exponents and as one exact loop per character, L(1, chi) through the Gauss-sum identity,
the inverse Fourier transform, roots of unity and kernel-function values
by direct cospi/sinpi, the digamma-route sum and the trig sums as mpf
loops summed by fsum, a relation's residual as an mpf loop summed by
fsum, the determinant by LU in mpf arithmetic) or an
exact helper (rational span membership, Euler's phi, a character's
exponent t and its conjugate, a Complex as an mpc) that a test checks a
route's output with, or a seeded input (``raw_loop_function``).
``witness_verdict`` is the older zero test that error radii replaced: a
recompute at doubled precision that must agree on the leading bits, kept
as an independent reference for the radius verdicts.

``exact_sum_reference`` is the exact oracle of the tables' summation rule:
a sum of products of table entries and weights, formed over Fractions and
rounded to nearest once.  The psi entries, the table sums and S_chi must
equal it bit for bit.  The mpf loops round every product and partial sum,
so they agree with it only within a bound in ulps, which each test states.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

from cyclolog.characters import DirichletCharacter, PeriodicFunction, factorize, is_prime, unit_root
from cyclolog.kernel import INDETERMINATE, NONZERO, ZERO, Complex, Real, const_raw, to_mpf, working_prec
from cyclolog.relations import RelationVector, rational_rank
from cyclolog.tables import tables


def euler_phi(n: int) -> int:
    """The order of (Z/nZ)*, from the prime factorization."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def value_exponent(chi: DirichletCharacter, n: int) -> Optional[Fraction]:
    """t in [0, 1) with chi(n) = e^(2 pi i t), or None when gcd(n, q) > 1."""
    k = chi.value_index(n)
    return None if k is None else Fraction(k, chi.structure.exponent)


def conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    """The complex conjugate character of chi."""
    return DirichletCharacter(chi.modulus, tuple(-e for e in chi.exponents))


def to_mpc(z: Complex) -> mpmath.mpc:
    """A Complex as an mpc at its own precision."""
    with mp.workprec(z.prec):
        return mpmath.mpc(z.re.mpf, z.im.mpf)


def unit_root_reference(num: int, den: int, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """e^(2 pi i num/den) as (cos, sin) by cospi/sinpi at the exponent reduced mod 1."""
    t = Fraction(num % den, den)
    with mp.workprec(wp):
        a = mpmath.mpf(2 * t.numerator) / t.denominator
        return mpmath.cospi(a), mpmath.sinpi(a)


def bbw_values_reference(q: int, l: int, prec: int) -> Tuple[mpmath.mpf, ...]:
    """The values f_l(1..q) of the kernel function mod q, by sinpi/cospi of n pi/q."""
    wp = working_prec(prec)
    vals = [mpmath.mpf(0)] * q
    with mp.workprec(wp):
        s1 = mpmath.sinpi(mpmath.mpf(1) / q)
        c1 = mpmath.cospi(mpmath.mpf(1) / q)
        for n in range(1, (q + 1) // 2):
            v = (mpmath.sinpi(mpmath.mpf(n) / q) / s1) ** l
            if q % 2 == 0:
                v *= mpmath.cospi(mpmath.mpf(n) / q) / c1
            if n % 2 == 0:
                v = -v
            vals[n - 1] = v
            vals[q - n - 1] = -v
    return tuple(vals)


def as_fraction(x) -> Fraction:
    """An mpf, Real, Fraction or int as the Fraction it equals exactly."""
    if isinstance(x, Real):
        x = x.mpf
    if isinstance(x, mpmath.mpf):
        return _mpf_fraction(x._mpf_)
    return Fraction(x)


@lru_cache(maxsize=4096)
def _mpf_fraction(raw) -> Fraction:
    # the oracles read each table entry many times
    return Fraction(*to_rational(raw))


def exact_sum_reference(pairs: Iterable[Tuple[object, object]], wp: int) -> mpmath.mpf:
    """sum x * y over the (x, y) pairs, each an mpf, Real, Fraction or int,
    formed exactly over Fractions and rounded to nearest once at wp bits."""
    factors = [(as_fraction(x), as_fraction(y)) for x, y in pairs]
    # over one common denominator: the same exact sum, without a gcd per operation
    dens = [x.denominator * y.denominator for x, y in factors]
    den = math.lcm(*dens)
    num = sum(x.numerator * y.numerator * (den // d) for (x, y), d in zip(factors, dens))
    return mp.make_mpf(from_rational(num, den, wp, round_nearest))


def weighted_sum_reference(f: PeriodicFunction, table: Sequence[mpmath.mpf], index, wp: int) -> mpmath.mpf:
    """sum_a f(a) table[index[a - 1]] for a = 1..len(index), rounded once at wp."""
    return exact_sum_reference(zip(f.values, (table[i] for i in index)), wp)


def within_ulps(got, loop, pairs: Iterable[Tuple[object, object]], wp: int, ulps: int) -> bool:
    """|got - loop| <= ulps 2^-wp (sum |x y| + |got|) over the (x, y) pairs:
    the test of two evaluations of sum x y that differ only in roundings at
    wp bits, each within 2^-wp of the magnitude of what it rounds.  The
    difference is exact; the scale is a float, well within one ulp."""
    scale = math.fsum(abs(float(x) * float(y)) for x, y in pairs) + abs(float(got))
    return abs(as_fraction(got) - as_fraction(loop)) <= Fraction(scale) * Fraction(ulps, 2**wp)


def digamma_terms(a: int, q: int, wp: int) -> List[Tuple[object, object]]:
    """The (x, y) pairs of Gauss's digamma theorem for psi(a/q), 1 <= a < q,
    over the table entries and the constants at wp: -gamma - log q,
    -(pi/2) cot(a pi/q), 2 cos(2 pi a b/q) log(2 sin b pi/q) for
    b = 1..(q-1)/2, then +-log 2 for even q."""
    tab = tables(q, wp)
    with mp.workprec(wp):
        start = -const_raw("euler_gamma", wp) - mpmath.log(q)
        half_pi = const_raw("pi", wp) / 2
    terms = [(start, 1), (half_pi, -as_fraction(tab.cot[a - 1]))]
    terms += [
        (tab.cos[(a * b) % q], 2 * as_fraction(tab.log_sines[b - 1])) for b in range(1, (q - 1) // 2 + 1)
    ]
    if q % 2 == 0:
        terms.append((const_raw("log2", wp), 1 if a % 2 == 0 else -1))
    return terms


def digamma_reference(a: int, q: int, wp: int) -> mpmath.mpf:
    """psi(a/q) for 1 <= a < q by Gauss's digamma theorem as an mpf loop over
    the table entries, each product and partial sum rounded at wp."""
    tab = tables(q, wp)
    with mp.workprec(wp):
        total = -const_raw("euler_gamma", wp) - mpmath.log(q)
        total -= const_raw("pi", wp) / 2 * tab.cot[a - 1]
        for b in range(1, (q - 1) // 2 + 1):
            # log(4 sin^2(pi b / q)) = 2 log(2 sin(pi b / q))
            total += tab.cos[(a * b) % q] * 2 * tab.log_sines[b - 1]
        if q % 2 == 0:
            parity = const_raw("log2", wp)
            total += parity if a % 2 == 0 else -parity
    return total


def l1_digamma_reference(f: PeriodicFunction, wp: int) -> mpmath.mpf:
    """-(1/q) sum_a f(a) psi(a/q) as an mpf loop: each f(a) converted, each
    product rounded at wp, the products summed by fsum."""
    q = f.period
    psi = tables(q, wp).psi
    with mp.workprec(wp):
        terms = [v * psi[a - 1] for a in range(1, q + 1) if (v := f.value_mpf(a, wp))]
        return -mpmath.fsum(terms) / q if terms else mpmath.mpf(0)


def trig_sums_reference(f: PeriodicFunction, wp: int) -> Tuple[mpmath.mpf, Dict[int, mpmath.mpf]]:
    """(sum_a f(a) cot(a pi/q), {b: sum_a f(a) cos(2 pi a b/q)}) as mpf loops summed by fsum."""
    q = f.period
    tab = tables(q, wp)
    with mp.workprec(wp):
        vals = [f.value_mpf(a, wp) for a in range(1, q)]
        cot = mpmath.fsum(vals[a - 1] * tab.cot[a - 1] for a in range(1, q))
        cos_sums = {
            b: mpmath.fsum(vals[a - 1] * tab.cos[(a * b) % q] for a in range(1, q))
            for b in range(1, (q - 1) // 2 + 1)
        }
    return cot, cos_sums


# the moduli on which the raw libmp loops are checked against their mpf forms
RAW_LOOP_MODULI = (*range(2, 41), 60, 120, 300)


def raw_loop_function(q: int, kind: str) -> PeriodicFunction:
    """A seeded zero-mean function mod q, with f(q) != 0 in general: integer
    values in [-9, 9] (``kind`` "integers") or Fractions with denominators
    up to 12 (``kind`` "fractions")."""
    rng = random.Random(f"{kind}-{q}")
    if kind == "integers":
        values = [rng.randint(-9, 9) for _ in range(q - 1)]
    else:
        values = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(q - 1)]
    return PeriodicFunction(q, (*values, -sum(values)))


def gauss_sum_raw(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """tau(chi) = sum_a chi(a) zeta_q^a as (re, im) mpf at working precision."""
    q = chi.modulus
    with mp.workprec(wp):
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for a in range(1, q + 1):
            t = value_exponent(chi, a)
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
    tab = tables(q, wp)
    out: Dict[int, Complex] = {}
    with mp.workprec(wp):
        for n in range(1, q + 1):
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for k in range(1, q + 1):
                c, s = tab.cos[(k * n) % q], tab.sin[(k * n) % q]
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


def s_chi_reference_raw(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """S_chi = sum_{a=1}^r chi(a) log(2 sin(a pi / p)) with chi(a) read as the
    exact Fraction exponent t and its root as (cos, sin)[t (p - 1)] mod p - 1."""
    p = chi.modulus
    table = tables(p, wp).log_sines
    roots = tables(p - 1, wp)
    with mp.workprec(wp):
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for a in range(1, (p - 1) // 2 + 1):
            k = int(value_exponent(chi, a) * (p - 1))
            c, s = roots.cos[k], roots.sin[k]
            re += c * table[a - 1]
            im += s * table[a - 1]
        return re, im


def s_chi_loop(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """S_chi of an even chi as (re, im), one character at a time: each
    component summed exactly over the aligned log-sine, cos and sin integers
    and rounded to nearest once at wp.  chi's index k = e dlog(a) mod (p - 1)
    is even, and root k/2 of (p - 1)/2 has the angle of root k of p - 1."""
    p = chi.modulus
    logs, log_exp = tables(p, wp).log_sines_aligned
    roots = tables((p - 1) // 2, wp)
    cos, cos_exp = roots.cos_aligned
    sin, sin_exp = roots.sin_aligned
    re = im = 0
    for a, t in enumerate(logs, 1):
        k = chi.value_index(a) // 2
        re += cos[k] * t
        im += sin[k] * t
    return (
        mp.make_mpf(from_man_exp(re, cos_exp + log_exp, wp, round_nearest)),
        mp.make_mpf(from_man_exp(im, sin_exp + log_exp, wp, round_nearest)),
    )


def s_chi_terms(chi: DirichletCharacter, wp: int) -> Tuple[List[Tuple[object, object]], ...]:
    """The (x, y) pairs of the re and im parts of S_chi, with chi(a) read as
    the exact Fraction exponent t and its root as (cos, sin)[t (p - 1)] mod p - 1."""
    p = chi.modulus
    table = tables(p, wp).log_sines
    roots = tables(p - 1, wp)
    ks = [int(value_exponent(chi, a) * (p - 1)) for a in range(1, (p - 1) // 2 + 1)]
    return [(roots.cos[k], t) for k, t in zip(ks, table)], [(roots.sin[k], t) for k, t in zip(ks, table)]


def lu_det_reference(rows: Sequence[Sequence[mpmath.mpf]], wp: int) -> mpmath.mpf:
    """Determinant by LU with partial pivoting in mpf arithmetic at precision wp."""
    n = len(rows)
    a = [list(row) for row in rows]
    with mp.workprec(wp):
        det = mpmath.mpf(1)
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
        return det


def l1_chi_raw(chi: DirichletCharacter, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """L(1, chi) = -(tau(chi)/p) sum_k conj(chi)(k) log|1 - zeta_p^k| as (re, im)."""
    p = chi.modulus
    tre, tim = gauss_sum_raw(chi, wp)
    chibar = conjugate(chi)
    tab = tables(p, wp)
    # chi's values are (p-1)-th roots of unity
    roots = tables(p - 1, wp)
    with mp.workprec(wp):
        sre = mpmath.mpf(0)
        sim = mpmath.mpf(0)
        for k in range(1, p):
            t = value_exponent(chibar, k)
            if t is None:
                continue
            j = int(t * (p - 1))
            c, s = roots.cos[j], roots.sin[j]
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


def relation_residual_reference(rel: RelationVector, wp: int) -> mpmath.mpf:
    """sum_s c_s v_s over a relation's nonzero integer coefficients c_s and
    the log basis values v_s at wp, as an mpf loop: each product rounded at
    wp, the products summed by fsum."""
    values = tables(rel.basis.modulus, wp).log_basis_values
    with mp.workprec(wp):
        return mpmath.fsum(c * v for c, v in zip(rel.coeffs, values) if c)


def in_rational_span(vector: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Whether ``vector`` lies in the rational span of ``generators``."""
    gens = [list(g) for g in generators]
    base = rational_rank(gens)
    return rational_rank(gens + [list(vector)]) == base


def witness_verdict(value: mpmath.mpf, target: int, producer) -> str:
    """The zero class of ``value``, a number at ``working_prec(target)`` with
    no radius, by the doubled-precision witness: Zero iff |value| <
    2^-target; NonZero iff |value| > 2^(-target/2) and ``producer(w)``, the
    producing expression as a raw value at w = 2 working_prec(target), is
    nonzero and agrees with it to a relative 2^(-target/2); else
    Indeterminate."""
    wp = working_prec(target)
    bar = mpmath.ldexp(1, -(target // 2))
    with mp.workprec(wp):
        mag = abs(value)
        if mag < mpmath.ldexp(1, -target):
            return ZERO
        if mag > bar:
            again = producer(2 * wp)
            if again != 0 and abs(value - again) / abs(again) < bar:
                return NONZERO
    return INDETERMINATE
