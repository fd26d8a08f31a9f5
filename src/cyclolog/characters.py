"""Dirichlet characters, Gauss sums, and discrete Fourier transforms mod q.

Characters are stored exactly, as integer exponent vectors over a fixed
generator decomposition of (Z/qZ)*; evaluation to Complex happens only on
demand.  All root-of-unity work keeps exponents as exact rationals mod 1
and evaluates cos/sin of pi-rational angles directly, so no argument
error ever accumulates.  The discrete Fourier transform's sums are exact
integer arithmetic over the 2^wp-scaled roots of the tables layer; each
component is rounded only when it is converted to an mpf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import to_rational

from .kernel import Complex, Real, to_mpf, working_prec
from .tables import tables


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime-power factorization of n >= 1 as ((p, e), ...)."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_divisors(n: int) -> Tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def _multiplicative_order_is(g: int, m: int, order: int) -> bool:
    if pow(g, order, m) != 1:
        return False
    return all(pow(g, order // ell, m) != 1 for ell in _prime_divisors(order))


def _primitive_root(pk: int, order: int) -> int:
    for g in range(2, pk):
        if gcd(g, pk) == 1 and _multiplicative_order_is(g, pk, order):
            return g
    raise RuntimeError(f"no primitive root mod {pk}")  # unreachable for odd prime powers


@dataclass(frozen=True)
class UnitGroupStructure:
    """(Z/qZ)* as an internal direct product of cyclic generator subgroups."""

    modulus: int
    generators: Tuple[int, ...]
    orders: Tuple[int, ...]

    @property
    def group_order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1


@lru_cache(maxsize=64)
def unit_group_structure(q: int) -> UnitGroupStructure:
    """Generator/order decomposition of (Z/qZ)*.

    Odd prime powers contribute one primitive root; 2^k contributes the
    <-1> x <5> pair for k >= 3, the single generator 3 for k = 2, and
    nothing for k = 1.
    """
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factorize(q):
        pk = p**e
        cofactor = q // pk
        # CRT lift: component generator mod p^e, congruent to 1 elsewhere
        def lift(g: int) -> int:
            if cofactor == 1:
                return g % q
            inv = pow(pk, -1, cofactor)
            return (g + pk * ((1 - g) * inv % cofactor)) % q

        if p == 2:
            if e == 2:
                gens.append(lift(3))
                orders.append(2)
            elif e >= 3:
                gens.append(lift(pk - 1))
                orders.append(2)
                gens.append(lift(5))
                orders.append(2 ** (e - 2))
        else:
            order = pk // p * (p - 1)
            gens.append(lift(_primitive_root(pk, order)))
            orders.append(order)
    return UnitGroupStructure(q, tuple(gens), tuple(orders))


@lru_cache(maxsize=64)
def _discrete_log_table(q: int) -> Dict[int, Tuple[int, ...]]:
    """residue -> exponent tuple over the generators, for every unit mod q."""
    st = unit_group_structure(q)
    table: Dict[int, Tuple[int, ...]] = {}
    for exps in itertools.product(*(range(o) for o in st.orders)):
        r = 1
        for g, e in zip(st.generators, exps):
            r = r * pow(g, e, q) % q
        table[r] = exps
    assert len(table) == st.group_order, "generators do not span the unit group"
    return table


def unit_root(num: int, den: int, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """e^(2 pi i num/den) as a (cos, sin) pair; exponent reduced mod 1 exactly."""
    t = Fraction(num % den, den)
    with mp.workprec(wp):
        a = mpmath.mpf(2 * t.numerator) / t.denominator
        return mpmath.cospi(a), mpmath.sinpi(a)


@dataclass(frozen=True)
class DirichletCharacter:
    """Character of (Z/qZ)* given by one exponent per unit-group generator."""

    modulus: int
    exponents: Tuple[int, ...]

    def __post_init__(self):
        st = self.structure
        if len(self.exponents) != len(st.orders):
            raise ValueError("exponent vector length does not match the generator count")
        object.__setattr__(
            self, "exponents", tuple(e % o for e, o in zip(self.exponents, st.orders))
        )

    @property
    def structure(self) -> UnitGroupStructure:
        return unit_group_structure(self.modulus)

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def value_exponent(self, n: int) -> Optional[Fraction]:
        """t in [0,1) with chi(n) = e^(2 pi i t), or None when gcd(n, q) > 1."""
        n %= self.modulus
        if gcd(n, self.modulus) != 1:
            return None
        dlog = _discrete_log_table(self.modulus)[n]
        st = self.structure
        t = sum(
            (Fraction(e * k, o) for e, k, o in zip(self.exponents, dlog, st.orders)),
            Fraction(0),
        )
        return t % 1

    def sign_at_minus_one(self) -> int:
        """chi(-1), exactly, via integer exponent arithmetic."""
        t = self.value_exponent(self.modulus - 1 if self.modulus > 2 else 1)
        assert t is not None and t.denominator in (1, 2)
        return 1 if t == 0 else -1

    @property
    def is_even(self) -> bool:
        return self.sign_at_minus_one() == 1

    @property
    def order(self) -> int:
        st = self.structure
        return lcm(*(o // gcd(e, o) for e, o in zip(self.exponents, st.orders))) if st.orders else 1

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if not isinstance(other, DirichletCharacter) or other.modulus != self.modulus:
            return NotImplemented
        return DirichletCharacter(
            self.modulus, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def value(self, n: int, prec: int) -> Complex:
        t = self.value_exponent(n)
        if t is None:
            zero = Real(0, prec)
            return Complex(zero, zero)
        wp = working_prec(prec)
        c, s = unit_root(t.numerator, t.denominator, wp)
        with mp.workprec(prec):
            return Complex(Real(+c, prec), Real(+s, prec))

    def __call__(self, n: int, prec: int = 64) -> Complex:
        return self.value(n, prec)


def principal_character(q: int) -> DirichletCharacter:
    st = unit_group_structure(q)
    return DirichletCharacter(q, (0,) * len(st.orders))


def enumerate_characters(q: int, even_only: bool = False) -> Tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, or only the even ones when flagged."""
    st = unit_group_structure(q)
    chars = tuple(
        DirichletCharacter(q, exps)
        for exps in itertools.product(*(range(o) for o in st.orders))
    )
    if even_only:
        chars = tuple(ch for ch in chars if ch.is_even)
    return chars


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
    with mp.workprec(prec):
        return Complex(Real(+re, prec), Real(+im, prec))


# ---------------------------------------------------------------------------
# periodic functions and their transforms
# ---------------------------------------------------------------------------

PeriodicValue = Union[Fraction, Real]


@dataclass(frozen=True)
class PeriodicFunction:
    """Period-q map a -> f(a), indexed a = 1..q (slot q doubles as slot 0).

    Values are exact rationals in all combinatorial contexts; numeric
    (Real) values are admitted for the algebraic-valued kernel functions.
    """

    period: int
    values: Tuple[PeriodicValue, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.values) != self.period:
            raise ValueError("need exactly one value per residue 1..q")

    @classmethod
    def from_rationals(cls, q: int, values: Iterable[Union[int, Fraction, str]]) -> "PeriodicFunction":
        return cls(q, tuple(Fraction(v) for v in values))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def value_at(self, n: int) -> PeriodicValue:
        return self.values[(n - 1) % self.period]

    def value_mpf(self, n: int, wp: int) -> mpmath.mpf:
        return to_mpf(self.value_at(n), wp)

    def abs_bound(self) -> float:
        return max(abs(float(to_mpf(v, 64))) for v in self.values)

    def mean_sum(self):
        """Sum of one period: exact Fraction if possible, else an mpf."""
        if self.is_exact:
            return sum(self.values, Fraction(0))
        wp = max(v.prec if isinstance(v, Real) else 64 for v in self.values)
        with mp.workprec(wp):
            return mpmath.fsum(to_mpf(v, wp) for v in self.values)

    def has_zero_mean(self) -> bool:
        """The convergence criterion for L(1, f): one full period sums to zero."""
        s = self.mean_sum()
        if isinstance(s, Fraction):
            return s == 0
        prec = min(v.prec for v in self.values if isinstance(v, Real))
        bound = mpmath.mpf(2) ** (-(prec - 24)) * (1 + self.abs_bound())
        return abs(s) < bound


def _exact_ratio(v: PeriodicValue) -> Tuple[int, int]:
    """v as an exact (numerator, denominator) pair; a Real is man * 2^exp."""
    if isinstance(v, Real):
        return to_rational(v.mpf._mpf_)
    return v.numerator, v.denominator


def fourier_transform_raw(f: PeriodicFunction, wp: int) -> Dict[int, Tuple[mpmath.mpf, mpmath.mpf]]:
    """fhat(k) = (1/q) sum_a f(a) zeta_q^(-ak), k = 1..q, as (re, im) pairs.

    Every value is written exactly as n_a / d over one common denominator d,
    so each component is one exact integer sum sum_a n_a C[-ak mod q] over
    the 2^wp-scaled roots C = ``tables(q, wp).fixed_roots``, rounded once
    to an mpf and once more by the division by d q.  Each scaled root is
    within 2^-wp of its ``roots`` entry, so each component is within
    (sum_a |f(a)|) 2^-wp / q of the exact transform over those roots, plus
    the two roundings at wp bits.
    """
    q = f.period
    fixed = tables(q, wp).fixed_roots
    ratios = [_exact_ratio(v) for v in f.values]
    d = lcm(*(den for _, den in ratios))
    nums = [(a, num * (d // den)) for a, (num, den) in enumerate(ratios, 1) if num != 0]
    out: Dict[int, Tuple[mpmath.mpf, mpmath.mpf]] = {}
    with mp.workprec(wp):
        for k in range(1, q + 1):
            re = im = 0
            for a, n in nums:
                c, s = fixed[(-a * k) % q]
                re += n * c
                im += n * s
            out[k] = (mpmath.mpf((re, -wp)) / (d * q), mpmath.mpf((im, -wp)) / (d * q))
    return out


def fourier_transform(f: PeriodicFunction, prec: int) -> Dict[int, Complex]:
    """Discrete Fourier transform of f at target precision."""
    raw = fourier_transform_raw(f, working_prec(prec))
    out: Dict[int, Complex] = {}
    with mp.workprec(prec):
        for k, (re, im) in raw.items():
            out[k] = Complex(Real(+re, prec), Real(+im, prec))
    return out


def inverse_fourier(fhat: Dict[int, Complex], q: int, prec: int) -> Dict[int, Complex]:
    """f(n) = sum_k fhat(k) zeta_q^(kn); the inversion identity."""
    wp = working_prec(prec)
    roots = tables(q, wp).roots
    out: Dict[int, Complex] = {}
    with mp.workprec(wp):
        for n in range(1, q + 1):
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for k in range(1, q + 1):
                c, s = roots[(k * n) % q]
                zr = fhat[k].re.mpf
                zi = fhat[k].im.mpf
                re += zr * c - zi * s
                im += zr * s + zi * c
            with mp.workprec(prec):
                out[n] = Complex(Real(+re, prec), Real(+im, prec))
    return out
