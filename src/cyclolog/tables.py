"""Per-(q, wp) tables of the numbers every route is assembled from:
log(2 sin k pi/q) (alone and as the slot values of a relation basis), the
cos and sin of 2 pi j/q, cot(a pi/q) and psi(a/q) for one modulus q at one
working precision wp.  :meth:`Tables.angle` is the one source of every cos
and sin read at modulus q: each angle a pi/q, 0 <= a < 2q, is evaluated
once per entry, by ``mpf_cos_sin_pi`` (its cos and sin rounded as cospi
and sinpi round them), for every reader: cos and sin at a = 2j, cot at a,
the log-sines (``kernel.log_2sin_raw``) at a = k, ``characters.unit_root``
and ``scans.bbw_function``.  An entry with cos or sin, cot and the
log-sines evaluates q + q//2 angles, one with only cos and sin q, one with
only the log-sines q//2.

:func:`tables` serves them from one bounded cache keyed by (q, wp), so a
recompute at the precision a zero test escalates to gets its own entry.
Each family is built on first use.  Each family that a sum reads (cot,
cos, sin, psi, the log-sines, the log basis values) has one exact integer
form, ``<family>_aligned``: integers T_i and one exponent E with
T_i * 2^E = t_i.  It is the only integer form of a table: the psi entries,
:meth:`Tables.weighted_sum`, :meth:`Tables.harmonic_sums`,
``dedekind.s_chi_raw`` (the log-sine integers as exact weights), the LU
determinant and the scan's sums (``scans._scan_range``) all read it.

Two kernels form the sums of exact weights over a family, one per shape.
:meth:`Tables.weighted_sum` gives the one sum sum_a c_a t_a over the whole
family: the psi sum, the cot sum and a relation's residual ball.
:meth:`Tables.harmonic_sums` gives the rows sum_a c_a t[(a k) mod q] for
k = 1..count over the cos or sin table, all from one big-integer
accumulation: the Fourier transform's cos and sin rows, the
decomposition's cos sums and, reindexed by discrete logarithm, the
components of every character factor S_chi of a prime p (a DFT of length
(p - 1)/2, see ``dedekind.s_chi_raw``).  The psi entries take their cos
rows by the same (a b) mod q slices of a repeated table.

One summation rule holds for every number derived from the tables (the
psi entries, both kernels and so every S_chi, the scan's sums): the
combination sum_a c_a t_{i(a)} is formed exactly, over the aligned integers
and the exact weights c_a, and rounded to nearest once at wp, so where each
entry of a family is within eps_family of its true value, the number errs
by at most sum_a |c_a| eps_family + 1/2 ulp.  That rule is formed in one
place, in two steps: :meth:`Tables.rule` gives the share
sum_a |c_a| eps_family of the weights, once for all the sums that share
them (every factor of a prime, every function of a scan), and
:meth:`Tables.radius` adds a sum's own 1/2 ulp, both on raw mpf tuples.
What follows a sum is a ball operation of ``kernel`` on the raw (value,
radius) pair, which ``Real.ball`` makes a Real once.  Each eps_family is a
power of two cached in the (q, wp) entry: ``eps_log_sines``, ``eps_roots``
(for cos and sin), ``eps_cot`` and ``eps_psi``, each derived in its
docstring.
The derivations take u = 2^-wp, round to nearest with relative error at
most u, and rest on one assumption (``ONE_ULP_ASSUMPTION``): mpmath's log,
sinpi, cospi, pi and euler return at wp bits a value y within 1 ulp of the
exact value Y at their (exact) mpf argument, so |y - Y| <= 2u |Y|.  The
bounds are coarse on purpose, by up to 2^10; the callers' NonZero bar
2^-(target/2) lies far above any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_int, from_man_exp, from_rational, fzero, mpf_add, mpf_cos_sin_pi, mpf_div, mpf_mul, mpf_shift,
    round_ceiling, round_nearest,
)

from .kernel import RADIUS_PREC, const_raw, fold, half_ulp_raw, log_2sin_raw, man_exp

# the per-entry bound of each family a sum reads
_EPS = {"log_sines": "eps_log_sines", "log_basis_values": "eps_log_sines",
        "cos": "eps_roots", "sin": "eps_roots", "cot": "eps_cot", "psi": "eps_psi"}

ONE_ULP_ASSUMPTION = (
    "mpmath's log, sinpi, cospi, pi and euler are within 1 ulp of the exact value at working precision"
)


class Aligned(NamedTuple):
    """Table entries t_i as integers T_i with T_i * 2^exp == t_i exactly,
    aligned at the smallest exponent."""

    mantissas: Tuple[int, ...]
    exp: int


def _align(entries: Sequence[mpmath.mpf]) -> Aligned:
    raw = [t._mpf_ for t in entries]
    exp = min((e for _, man, e, _ in raw if man), default=0)
    mantissas = tuple((-man if sign else man) << (e - exp) if man else 0 for sign, man, e, _ in raw)
    return Aligned(mantissas, exp)


def _cos_sin_pi(num: int, den: int, wp: int) -> Tuple[tuple, tuple]:
    """(cospi(t), sinpi(t)) as raw mpfs at wp bits for t = mpf(num) / den at
    wp, num and the quotient each rounded to nearest: one evaluation, each
    component rounded to nearest once, the bits of mpmath's separate cospi
    and sinpi."""
    t = mpf_div(from_int(num, wp, round_nearest), from_int(den), wp, round_nearest)
    return mpf_cos_sin_pi(t, wp, round_nearest)


def _pow2(exp: int) -> mpmath.mpf:
    return mp.make_mpf(from_man_exp(1, exp))


def _aligned(family: str) -> cached_property:
    """The cached ``Aligned`` form of the ``family`` table."""
    return cached_property(lambda self: _align(getattr(self, family)))


@dataclass(frozen=True)
class Tables:
    """Lazily built tables for modulus ``q`` at working precision ``wp``."""

    q: int
    wp: int

    @cached_property
    def _angles(self) -> Dict[int, Tuple[tuple, tuple]]:
        """The memo of :meth:`angle`, filled as its readers ask."""
        return {}

    def angle(self, a: int) -> Tuple[tuple, tuple]:
        """(cospi, sinpi) of a/q as raw mpfs, ``_cos_sin_pi(a, q, wp)``, for
        0 <= a < 2q: the one source of every cos and sin read at modulus q,
        evaluated once per angle for all its readers (a = 2j for cos and sin,
        a for the cot, k for the log-sines)."""
        cs = self._angles.get(a)
        if cs is None:
            cs = self._angles[a] = _cos_sin_pi(a, self.q, self.wp)
        return cs

    @cached_property
    def log_sines(self) -> Tuple[mpmath.mpf, ...]:
        """log(2 sin(k pi / q)) for k = 1..q//2, from sinpi(k/q)."""
        q, wp = self.q, self.wp
        return tuple(log_2sin_raw(k, q, wp, self.angle(k)[1]) for k in range(1, q // 2 + 1))

    def log_sine(self, k: int) -> mpmath.mpf:
        """log(2 sin(k pi / q)) for any k not divisible by q, folded to [1, q/2]."""
        return self.log_sines[fold(k, self.q) - 1]

    @cached_property
    def eps_log_sines(self) -> mpmath.mpf:
        """2^(n + 4 - wp), n = q.bit_length(): a bound on the error of every
        log-sine entry.

        The entry is log(2 sinpi(t)) with t = k/q rounded, k <= q/2:
        |t - k/q| <= u k/q moves sin(pi k/q) >= 2k/q by at most pi u k/q, a
        relative (pi/2) u; sinpi adds 2u, so 2 sinpi(t) = 2 sin(pi k/q)(1 + d)
        with |d| < 4u and |log(1 + d)| <= 8u.  log adds 2u |log(2 sinpi(t))|,
        where |log(2 sin(pi k/q))| <= max(log 2, log(q/4)) < n.  In all
        8u + 2u (n + 1) <= 2^(n + 4) u.
        """
        return _pow2(self.q.bit_length() + 4 - self.wp)

    @cached_property
    def log_basis_values(self) -> Tuple[mpmath.mpf, ...]:
        """The slot values of ``relations.LogBasis``: log(2 sin(k pi / q)) for
        1 <= k < q/2, then pi, then log 2 when q is even.  Each is within
        ``eps_log_sines`` of its value: pi and log 2 are within 2u * 4."""
        consts = ("pi", "log2") if self.q % 2 == 0 else ("pi",)
        return self.log_sines[: (self.q - 1) // 2] + tuple(const_raw(c, self.wp) for c in consts)

    @cached_property
    def eps_roots(self) -> mpmath.mpf:
        """2^(4 - wp): a bound on the error of every cos and sin entry.

        The entry is cospi(t) or sinpi(t) with t = 2j/q rounded, j < q:
        |t - 2j/q| <= 2u moves cos and sin by at most 2 pi u, and cospi or
        sinpi adds at most 2u, as |cos|, |sin| <= 1; 2u + 2 pi u < 2^4 u.
        The bound is the same for every q.
        """
        return _pow2(4 - self.wp)

    @cached_property
    def cos(self) -> Tuple[mpmath.mpf, ...]:
        """cos(2 pi j / q) for j = 0..q-1, the cospi of angle 2j."""
        return tuple(mp.make_mpf(self.angle(2 * j)[0]) for j in range(self.q))

    @cached_property
    def sin(self) -> Tuple[mpmath.mpf, ...]:
        """sin(2 pi j / q) for j = 0..q-1, the sinpi of angle 2j."""
        return tuple(mp.make_mpf(self.angle(2 * j)[1]) for j in range(self.q))

    @cached_property
    def cot(self) -> Tuple[mpmath.mpf, ...]:
        """cot(a pi / q) for a = 1..q-1."""
        return tuple(mp.make_mpf(mpf_div(*self.angle(a), self.wp, round_nearest)) for a in range(1, self.q))

    @cached_property
    def eps_cot(self) -> mpmath.mpf:
        """2^(2n + 3 - wp), n = q.bit_length(): a bound on the error of every
        cot entry.

        The entry is cospi(t) / sinpi(t) with t = a/q rounded, 0 < a < q, so
        |t - a/q| < u.  With C = cos(pi a/q) and S = sin(pi a/q) >= 2/q:
        cospi(t) = C + dc with |dc| <= pi u + 2u < 6u, and sinpi(t) = S (1 + ds)
        with |ds| <= (pi/2) q u + 2u + pi q u^2 <= 3 q u.  The quotient is off
        from C/S by |dc - C ds| / |S (1 + ds)| <= (6u + 3qu) q <= 6 q^2 u, and
        its rounding adds at most u (q/2 + 1).  In all 7 q^2 u < 2^(2n + 3) u.
        """
        return _pow2(2 * self.q.bit_length() + 3 - self.wp)

    @cached_property
    def psi(self) -> Tuple[mpmath.mpf, ...]:
        """psi(a/q) for a = 1..q, with psi(1) = -gamma in the last slot.

        For a < q, Gauss's digamma theorem: -gamma - log q, minus
        (pi/2) cot(a pi/q), plus 2 cos(2 pi a b/q) log(2 sin b pi/q) for
        b = 1..(q-1)/2, then plus or minus log 2 for even q.  The terms are
        exact integers at one exponent, over the aligned cot, cos and
        log-sine tables and -gamma - log q, pi/2 and log 2 each rounded at
        wp; each entry is their sum rounded once.
        """
        q, wp = self.q, self.wp
        with mp.workprec(wp):
            minus_gamma = -const_raw("euler_gamma", wp)
            sm, se = man_exp(minus_gamma - mpmath.log(q))
            hm, he = man_exp(const_raw("pi", wp) / 2)
        # odd q has no log 2 term
        lm, le = man_exp(const_raw("log2", wp)) if q % 2 == 0 else (0, se)
        cot, cot_exp = self.cot_aligned
        cos, cos_exp = self.cos_aligned
        logs, log_exp = self.log_sines_aligned
        r = (q - 1) // 2
        logs = logs[:r]
        # cycle[a b] = cos[(a b) mod q] for every b <= r, as (q - 1) r < q (r + 1)
        cycle = cos * (r + 1)
        # 2 log(2 sin b pi/q) = log(4 sin^2(b pi/q)), the doubling exact
        cos_log_exp = cos_exp + log_exp + 1
        exp = min(se, he + cot_exp, cos_log_exp, le)
        start, half_pi, log2 = sm << (se - exp), hm << (he + cot_exp - exp), lm << (le - exp)
        vals = []
        for a in range(1, q):
            total = sum(map(mul, cycle[a : a * r + 1 : a], logs))
            total = start - half_pi * cot[a - 1] + (total << (cos_log_exp - exp))
            total += log2 if a % 2 == 0 else -log2
            vals.append(mp.make_mpf(from_man_exp(total, exp, wp, round_nearest)))
        vals.append(minus_gamma)
        return tuple(vals)

    @cached_property
    def eps_psi(self) -> mpmath.mpf:
        """2^(2n + 6 - wp), n = q.bit_length(): a bound on the error of every
        psi entry.

        The entry for a < q is the exact sum of its rounded terms, rounded
        once (see ``psi``); with q < 2^n, each part errs by at most:

        * -gamma - log q: euler 2u, log q 2u log q, their difference rounded
          u (1 + log q): together (3n + 3) u;
        * (pi/2) cot: pi/2 errs by pi u and |cot| <= q/2 + 1, cot by eps_cot,
          so pi u (q/2 + 1) + (pi/2) eps_cot <= pi u (q/2 + 1) + 13 * 2^(2n) u;
        * 2 cos log-sine, at most q/2 terms: 2 (eps_roots |t| + eps_log_sines)
          each with |t| <= n + 1 and |cos| <= 1, so q (16 (n + 1) u + 2^(n + 4) u)
          <= 2^(2n + 5) u;
        * log 2: 2u;
        * the final rounding: u (q + 2), as |psi(a/q)| <= q + 1 for 0 < a < q.

        In all less than (13 + 32 + 4) 2^(2n) u < 2^(2n + 6) u.  The entry
        psi(1) = -gamma errs by 2u.
        """
        return _pow2(2 * self.q.bit_length() + 6 - self.wp)

    cot_aligned = _aligned("cot")
    cos_aligned = _aligned("cos")
    sin_aligned = _aligned("sin")
    psi_aligned = _aligned("psi")
    log_sines_aligned = _aligned("log_sines")
    log_basis_values_aligned = _aligned("log_basis_values")

    def rule(self, **weights: Union[int, Fraction]) -> tuple:
        """The summation rule's share of ``weights`` as a raw mpf: for exact
        combinations of entries whose weights total ``weights[family]`` in
        absolute value on each family, the sum of weight * eps_family, each
        step rounded up.  Sums with the same weights share it, so they form
        it once; :meth:`radius` adds each sum's own 1/2 ulp."""
        share = fzero
        for family, weight in weights.items():
            factor = from_rational(weight.numerator, weight.denominator, RADIUS_PREC, round_ceiling)
            scaled = mpf_mul(getattr(self, _EPS[family])._mpf_, factor, RADIUS_PREC, round_ceiling)
            share = mpf_add(share, scaled, RADIUS_PREC, round_ceiling)
        return share

    def radius(self, value: tuple, share: tuple) -> tuple:
        """The summation rule's radius of the raw mpf ``value``, an exact
        combination of entries rounded once at wp, from its ``share`` (see
        :meth:`rule`): share + 1/2 ulp(value, wp), rounded up."""
        return mpf_add(share, half_ulp_raw(value, self.wp), RADIUS_PREC, round_ceiling)

    def weighted_sum(self, family: str, weights: Tuple[Sequence[int], int]) -> mpmath.mpf:
        """sum(c_a * t[a] for a = 0..len(t) - 1), t the ``family`` table and
        c_a = nums[a] / d for ``weights`` = (nums, d): the exact integer
        sum_a nums[a] T_a over the aligned family, rounded to nearest once at
        wp bits.  The psi and cot sums (f's exact values) and a relation's
        residual ball go through here; the rows through :meth:`harmonic_sums`."""
        entries, exp = getattr(self, family + "_aligned")
        nums, d = weights
        return _rounded(sum(map(mul, nums, entries)), exp, d, self.wp)

    def harmonic_sums(self, family: str, weights: Tuple[Sequence[int], int], count: int) -> List[mpmath.mpf]:
        """sum(c_a * t[(a k) mod q] for a = 1..len(nums)) for k = 1..count,
        where t is the "cos" or "sin" table and c_a = nums[a - 1] / d for
        ``weights`` = (nums, d): each the exact integer sum_a n_a T_(ak mod q)
        over the aligned family, rounded to nearest once at wp bits, as in
        :meth:`weighted_sum`.  Needs len(nums) <= q.

        All count sums come from one big-integer accumulation.  Slot k of
        column a holds T_(ak mod q) + 2^(W-1) in W bits, with W the whole
        bytes of bits(max |T|) + bits(sum_a |n_a|) + 1, so every entry and
        every |S_k| = |sum_a n_a T_(ak mod q)| <= max |T| sum_a |n_a| is below
        2^(W-1).  Column a is the slice of ``cycle`` (the byte entries
        repeated count + 1 times) at a, 2a, .., count a, packed by
        ``int.from_bytes``; sum_a n_a column_a holds S_k + 2^(W-1) sum_a n_a in
        slot k.  One correction leaves S_k + 2^(W-1) in [1, 2^W) in every slot,
        so the slots read off one ``to_bytes`` without carries.  Nothing is
        cached: the columns live one at a time.
        """
        if not count:
            return []
        entries, exp = getattr(self, family + "_aligned")
        nums, d = weights
        width = (max(map(abs, entries)).bit_length() + sum(map(abs, nums)).bit_length() + 8) // 8
        bias = 1 << (8 * width - 1)
        cycle = [(t + bias).to_bytes(width, "big") for t in entries] * (count + 1)
        total = 0
        for a, n in enumerate(nums, 1):
            if n:
                total += n * int.from_bytes(b"".join(cycle[a : a * count + 1 : a]), "big")
        # slot k holds S_k + bias * sum_a n_a: leave one bias in every slot
        total -= (sum(nums) - 1) * int.from_bytes(bias.to_bytes(width, "big") * count, "big")
        packed = total.to_bytes(count * width, "big")
        return [
            _rounded(int.from_bytes(packed[i : i + width], "big") - bias, exp, d, self.wp)
            for i in range(0, count * width, width)
        ]


def _rounded(total: int, exp: int, d: int, wp: int) -> mpmath.mpf:
    """total * 2^exp / d rounded to nearest once at wp bits."""
    if d == 1:
        return mp.make_mpf(from_man_exp(total, exp, wp, round_nearest))
    return mp.make_mpf(mpf_shift(from_rational(total, d, wp, round_nearest), exp))


@lru_cache(maxsize=32)
def tables(q: int, wp: int) -> Tables:
    """The shared tables for modulus q at working precision wp."""
    return Tables(q, wp)
