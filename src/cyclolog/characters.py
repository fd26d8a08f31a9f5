"""Dirichlet characters, periodic functions and their discrete Fourier transform mod q.

Characters are stored exactly, as integer exponent vectors over a fixed
generator decomposition of (Z/qZ)*; a route reads chi(a) as the integer
index k with chi(a) = e^(2 pi i k/m), m the exponent of the group, or as
t = k/m in [0, 1).  Root-of-unity work keeps exponents exact and reads
cos/sin of pi-rational angles from the tables layer, so no argument error
ever accumulates.  The discrete Fourier transform's sums are the tables
layer's exact harmonic sums over its cos and sin tables, each rounded once
and then divided by q.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, from_rational, mpf_div, mpf_neg, round_nearest

from .kernel import to_mpf
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


def require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"modulus must be an odd prime, got {p}")


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
    """(Z/qZ)* as an internal direct product of cyclic generator subgroups;
    ``dlog`` maps each unit to its exponent tuple (derived, so == ignores it)."""

    modulus: int
    generators: Tuple[int, ...]
    orders: Tuple[int, ...]
    dlog: Dict[int, Tuple[int, ...]] = field(compare=False, repr=False)
    # the lcm of the orders: every character value is an exponent-th root of unity
    exponent: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "exponent", lcm(*self.orders))

    @property
    def group_order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n


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
    dlog: Dict[int, Tuple[int, ...]] = {}
    for exps in itertools.product(*(range(o) for o in orders)):
        r = 1
        for g, e in zip(gens, exps):
            r = r * pow(g, e, q) % q
        dlog[r] = exps
    st = UnitGroupStructure(q, tuple(gens), tuple(orders), dlog)
    assert len(dlog) == st.group_order, "generators do not span the unit group"
    return st


def unit_root(num: int, den: int, wp: int) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """e^(2 pi i num/den) as a (cos, sin) pair: the angle 2 (num mod den) of den's tables."""
    return tuple(map(mp.make_mpf, tables(den, wp).angle(2 * (num % den))))


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

    def value_index(self, n: int) -> Optional[int]:
        """k in [0, m) with chi(n) = e^(2 pi i k/m), m the lcm of the generator
        orders, or None when gcd(n, q) > 1; for prime q it is e dlog(n) mod (q - 1)."""
        n %= self.modulus
        if gcd(n, self.modulus) != 1:
            return None
        st = self.structure
        m = st.exponent
        return sum(e * k * (m // o) for e, k, o in zip(self.exponents, st.dlog[n], st.orders)) % m

    @property
    def is_even(self) -> bool:
        """chi(-1) = 1, read exactly from the root index of chi(-1) = +-1."""
        k = self.value_index(-1)
        assert 2 * k % self.structure.exponent == 0, "chi(-1) must be +-1"
        return k == 0

    @property
    def order(self) -> int:
        st = self.structure
        return lcm(*(o // gcd(e, o) for e, o in zip(self.exponents, st.orders))) if st.orders else 1


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


# ---------------------------------------------------------------------------
# periodic functions and their transforms
# ---------------------------------------------------------------------------

PeriodicValue = Union[int, Fraction]
# text that int() and Fraction() read as the same integer, on every Python
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class PeriodicFunction:
    """Period-q map a -> f(a), indexed a = 1..q (slot q doubles as slot 0).

    Values are exact rationals, ints or Fractions; the algebraic-valued
    kernel functions hold their working-precision values exactly, as the
    dyadic Fractions they equal.
    """

    period: int
    values: Tuple[PeriodicValue, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.values) != self.period:
            raise ValueError("need exactly one value per residue 1..q")
        for a, v in enumerate(self.values, 1):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"f({a}) = {v!r} is not an int or a Fraction")

    @classmethod
    def from_rationals(cls, q: int, values: Iterable[Union[int, Fraction, str]]) -> "PeriodicFunction":
        """f from its values: ints and Fractions as they are, and text read
        as a Fraction, or as an int where it is ASCII digits with an
        optional sign (the same value, parsed faster)."""
        return cls(q, tuple(int(v) if isinstance(v, str) and _INTEGER_TEXT.fullmatch(v) else Fraction(v)
                            for v in values))

    @cached_property
    def exact_values(self) -> Tuple[Tuple[int, ...], int]:
        """The values as integers n_a over one common denominator d, so that
        f(a) = n_a / d exactly."""
        ratios = [v.as_integer_ratio() for v in self.values]
        nums, dens = zip(*ratios)
        d = lcm(*dens)
        return (nums if d == 1 else tuple(n * (d // den) for n, den in ratios)), d

    def value_at(self, n: int) -> PeriodicValue:
        return self.values[(n - 1) % self.period]

    def value_mpf(self, n: int, wp: int) -> mpmath.mpf:
        """f(n) rounded once at wp bits; exact for an int, and for a kernel
        function's value at the working precision it was built at."""
        return to_mpf(self.value_at(n), wp)

    @cached_property
    def abs_sum(self) -> Fraction:
        """The exact sum_a |f(a)| over one period, the weight of f's sums
        in their error radii."""
        nums, d = self.exact_values
        return Fraction(sum(map(abs, nums)), d)

    def abs_bound(self) -> float:
        nums, d = self.exact_values
        return max(map(abs, nums)) / d

    def mean_sum(self) -> Fraction:
        """The exact sum of one period."""
        nums, d = self.exact_values
        return Fraction(sum(nums), d)

    def has_zero_mean(self) -> bool:
        """The convergence criterion for L(1, f): one full period sums to zero."""
        return sum(self.exact_values[0]) == 0


def fourier_transform_raw(f: PeriodicFunction, wp: int) -> Dict[int, Tuple[mpmath.mpf, mpmath.mpf]]:
    """fhat(k) = (1/q) sum_a f(a) zeta_q^(-ak), k = 1..q, as (re, im) pairs.

    For k = 1..q/2, q Re fhat(k) = sum_a f(a) cos(2 pi ak/q) and
    -q Im fhat(k) = sum_a f(a) sin(2 pi ak/q), a = 1..q, are
    ``Tables.harmonic_sums`` over the cos and sin tables: each the
    correctly rounded exact sum, then divided by q.  f is real, so
    fhat(q - k) is written as the conjugate of fhat(k) (k = q/2 once):
    fhat is conjugate-symmetric by construction, and the imaginary-part
    check of ``lseries.l1`` watches the Fourier route's own loop.
    fhat(q) is the mean of f: cos 0 = 1 exactly, so q fhat(q) is the exact
    sum_a n_a / d rounded once at wp.
    """
    q = f.period
    tab = tables(q, wp)
    half = range(1, q // 2 + 1)
    cos, sin = (tab.harmonic_sums(family, f.exact_values, len(half)) for family in ("cos", "sin"))
    nums, d = f.exact_values
    wq = from_int(q)
    mean = mpf_div(from_rational(sum(nums), d, wp, round_nearest), wq, wp, round_nearest)
    out: Dict[int, Tuple[mpmath.mpf, mpmath.mpf]] = {q: (mp.make_mpf(mean), mpmath.mpf(0))}
    for k, c, s in zip(half, cos, sin):
        real = mp.make_mpf(mpf_div(c._mpf_, wq, wp, round_nearest))
        imag = mpf_div(s._mpf_, wq, wp, round_nearest)
        out[q - k] = (real, mp.make_mpf(imag))
        out[k] = (real, mp.make_mpf(mpf_neg(imag)))
    return out
