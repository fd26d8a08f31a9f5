"""Per-(q, wp) tables of the numbers every route is assembled from:
log(2 sin k pi/q) (alone, as the slot values of a relation basis and, in
``fixed_log_sines``, as integers scaled by 2^wp), the roots of unity
e^(2 pi i j/q) (as mpfs and, in ``fixed_roots``, as integers scaled by
2^wp), cot(a pi/q) and psi(a/q) for one modulus q at one working
precision wp.  Every cos or sin of a rational multiple of pi
in the package is read from here: e^(2 pi i num/den) from the roots of den,
and cos, sin of n pi/q from the roots of 2q.

:func:`tables` serves them from one bounded cache keyed by (q, wp), so a
recompute at doubled precision gets its own entry.  Each family is built
on first use, bit-identical to evaluating its entries one by one.  Each
family that a rounded chain or sum reads (cot, cos, sin, psi, the
log-sines) has one exact integer form, ``<family>_aligned``: integers T_i
and one exponent E with T_i * 2^E = t_i, and the bits they span.  psi,
``dedekind.s_chi_raw`` and :meth:`Tables.weighted_sums` read it through
``kernel.round_nearest_int``, which rounds by value as libmp does, so each
result is the one the same chain over mpfs gives.

:meth:`Tables.weighted_sums` sums f(a) t_i over the ``cot``, ``psi`` or
``cos`` family and returns the very mpf that ``mpmath.fsum`` of the
products f(a) * t_i, each rounded at wp, returns at wp bits.  fsum is
``mpf_sum``: an exact integer sum rounded once, which drops a term only
where exponents lie more than 2 wp bits apart.  The products are integers
at one exponent: +-T_i where every f(a) is in {-1, 0, 1}, otherwise one row
of products per distinct |f(a)|, each rounded at wp once however many sums
read it, and -|f(a)| reads that row negated, since rounding to nearest is
symmetric in sign.  Where they and the 0 that ``mpf_sum`` starts from span
fewer than 2 wp bits, each sum is one integer sum rounded once; elsewhere
the same products go to ``mpf_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, islice
from operator import getitem, or_
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_sum, round_nearest, to_fixed

from .kernel import (
    add_nearest_int,
    const_raw,
    fold,
    log_2sin_raw,
    man_exp,
    round_nearest_int,
    to_mpf,
)

if TYPE_CHECKING:
    from .characters import PeriodicFunction


class Aligned(NamedTuple):
    """Table entries t_i as integers T_i with T_i * 2^exp == t_i exactly,
    aligned at the smallest exponent, and the bits that their nonzero bits
    span together with the 0 that ``mpf_sum`` starts from."""

    mantissas: Tuple[int, ...]
    exp: int
    span: int


def _align(entries: Sequence[mpmath.mpf]) -> Aligned:
    raw = [t._mpf_ for t in entries]
    nonzero = [(e, bc) for _, man, e, bc in raw if man]
    exp = min((e for e, _ in nonzero), default=0)
    top = max((e + bc for e, bc in nonzero), default=0)
    mantissas = tuple((-man if sign else man) << (e - exp) if man else 0 for sign, man, e, _ in raw)
    return Aligned(mantissas, exp, max(top, 0) - min(exp, 0))


def _aligned(family: str) -> cached_property:
    """The cached ``Aligned`` form of the ``family`` table."""
    return cached_property(lambda self: _align(getattr(self, family)))


@dataclass(frozen=True)
class Tables:
    """Lazily built tables for modulus ``q`` at working precision ``wp``."""

    q: int
    wp: int

    @cached_property
    def log_sines(self) -> Tuple[mpmath.mpf, ...]:
        """log(2 sin(k pi / q)) for k = 1..q//2."""
        return tuple(log_2sin_raw(k, self.q, self.wp) for k in range(1, self.q // 2 + 1))

    @cached_property
    def fixed_log_sines(self) -> Tuple[int, ...]:
        """``log_sines`` as integers scaled by 2^wp, each within one unit of
        2^-wp of its entry."""
        return tuple(to_fixed(t._mpf_, self.wp) for t in self.log_sines)

    def log_sine(self, k: int) -> mpmath.mpf:
        """log(2 sin(k pi / q)) for any k not divisible by q, folded to [1, q/2]."""
        return self.log_sines[fold(k, self.q) - 1]

    @cached_property
    def log_basis_values(self) -> Tuple[mpmath.mpf, ...]:
        """The slot values of ``relations.LogBasis``: log(2 sin(k pi / q)) for
        1 <= k < q/2, then pi, then log 2 when q is even."""
        consts = ("pi", "log2") if self.q % 2 == 0 else ("pi",)
        return self.log_sines[: (self.q - 1) // 2] + tuple(const_raw(c, self.wp) for c in consts)

    @cached_property
    def roots(self) -> Tuple[Tuple[mpmath.mpf, mpmath.mpf], ...]:
        """(cos, sin) of 2 pi j / q for j = 0..q-1."""
        out = []
        with mp.workprec(self.wp):
            for j in range(self.q):
                t = mpmath.mpf(2 * j) / self.q
                out.append((mpmath.cospi(t), mpmath.sinpi(t)))
        return tuple(out)

    @cached_property
    def cos(self) -> Tuple[mpmath.mpf, ...]:
        """cos(2 pi j / q) for j = 0..q-1, the first components of ``roots``."""
        return tuple(c for c, _ in self.roots)

    @cached_property
    def sin(self) -> Tuple[mpmath.mpf, ...]:
        """sin(2 pi j / q) for j = 0..q-1, the second components of ``roots``."""
        return tuple(s for _, s in self.roots)

    @cached_property
    def fixed_roots(self) -> Tuple[Tuple[int, int], ...]:
        """(cos, sin) of 2 pi j / q as integers scaled by 2^wp, for j = 0..q-1;
        each is within one unit of 2^-wp of its ``roots`` entry."""
        wp = self.wp
        return tuple((to_fixed(c._mpf_, wp), to_fixed(s._mpf_, wp)) for c, s in self.roots)

    @cached_property
    def cot(self) -> Tuple[mpmath.mpf, ...]:
        """cot(a pi / q) for a = 1..q-1."""
        with mp.workprec(self.wp):
            return tuple(
                mpmath.cospi(mpmath.mpf(a) / self.q) / mpmath.sinpi(mpmath.mpf(a) / self.q)
                for a in range(1, self.q)
            )

    @cached_property
    def psi(self) -> Tuple[mpmath.mpf, ...]:
        """psi(a/q) for a = 1..q, with psi(1) = -gamma in the last slot.

        For a < q, Gauss's digamma theorem as a chain of steps each rounded
        to nearest at wp, in this order: -gamma - log q, minus (pi/2) cot(a pi/q),
        plus 2 cos(2 pi a b/q) log(2 sin b pi/q) for b = 1..(q-1)/2, then
        plus or minus log 2 for even q.  The chain runs on the aligned cot,
        cos and log-sine integers through ``round_nearest_int``; every
        product and partial sum is the one the same chain over mpfs rounds,
        bit for bit.
        """
        q, wp = self.q, self.wp
        with mp.workprec(wp):
            minus_gamma = -const_raw("euler_gamma", wp)
            start = man_exp(minus_gamma - mpmath.log(q))
            hm, he = man_exp(const_raw("pi", wp) / 2)
        log2 = man_exp(const_raw("log2", wp)) if q % 2 == 0 else None
        cot, cot_exp, _ = self.cot_aligned
        cos, cos_exp, _ = self.cos_aligned
        logs, log_exp, _ = self.log_sines_aligned
        logs = logs[: (q - 1) // 2]
        # 2 log(2 sin b pi/q) = log(4 sin^2(b pi/q)), the doubling exact
        cos_log_exp = cos_exp + log_exp + 1
        vals = []
        for a in range(1, q):
            total = add_nearest_int(start, round_nearest_int(-hm * cot[a - 1], he + cot_exp, wp), wp)
            j = 0
            for lm in logs:
                j += a
                if j >= q:
                    j -= q
                total = add_nearest_int(total, round_nearest_int(cos[j] * lm, cos_log_exp, wp), wp)
            if log2 is not None:
                total = add_nearest_int(total, log2 if a % 2 == 0 else (-log2[0], log2[1]), wp)
            vals.append(mp.make_mpf(from_man_exp(*total)))
        vals.append(minus_gamma)
        return tuple(vals)

    cot_aligned = _aligned("cot")
    cos_aligned = _aligned("cos")
    sin_aligned = _aligned("sin")
    psi_aligned = _aligned("psi")
    log_sines_aligned = _aligned("log_sines")

    def weighted_sums(
        self, family: str, f: "PeriodicFunction", indexes: Iterable[Sequence[int]]
    ) -> List[mpmath.mpf]:
        """For each index in ``indexes``, fsum(f(a) * t[index[a - 1]] for
        a = 1..len(index)) at wp bits, bit for bit, where t is the ``family``
        table: "cot", "psi" or "cos".

        The products are integers at one exponent: the aligned family itself
        with every f(a) in {-1, 0, 1}, otherwise rows of rounded products.
        Each sum is one integer sum of them rounded once, or, where they span
        2 wp bits or more, ``mpf_sum`` of them (see the module docstring).
        f is converted once.
        """
        wp = self.wp
        entries, exp, span = getattr(self, family + "_aligned")
        units = f.unit_values
        if units is not None:
            # each product is exactly +-t_i, an integer at exponent exp
            lo = exp
            sums: Iterable[Sequence[int]] = indexes
        else:
            # f(a) as (mantissa, exponent): exact for integers, else rounded at wp
            nums, d = f.exact_values
            values = [(n, 0) for n in nums] if d == 1 else [man_exp(to_mpf(v, wp)) for v in f.values]
            # one row of products per distinct |f(a)|, over the entries its
            # sums read: with several sums every entry, so a sum reads entry
            # index[a]; with one, the entries at the a where |f(a)| is that
            # value, in order of a, so the sum reads each a's own slot in its row
            indexes = iter(indexes)
            head = list(islice(indexes, 2))
            read: Dict[Tuple[int, int], Sequence[int]] = {}
            if len(head) == 1:
                slots = []
                for (m, e), i in zip(values, head[0]):
                    at = read.setdefault((abs(m), e), [])
                    slots.append(len(at))
                    at.append(i)
                head = [slots]
            else:
                every = range(len(entries))
                read = {(abs(m), e): every for m, e in values}
            read.pop((0, 0), None)
            # rounding m T_i 2^(e + exp) keeps it a multiple of 2^(e + exp),
            # so every product is an integer at exponent lo
            lo = min((e for _, e in read), default=0) + exp
            rows = {}
            for (m, e), at in read.items():
                rows[(m, e)] = row = []
                for i in at:
                    tm = entries[i]
                    if tm:
                        pm, pe = round_nearest_int(m * tm, e + exp, wp)
                        row.append(pm << (pe - lo))
                    else:
                        row.append(0)
            # the products' exponents run from lo plus the fewest trailing
            # zeros of any of them (those of their bitwise or) to top
            bits = reduce(or_, chain.from_iterable(rows.values()), 0)
            low = lo + (bits & -bits).bit_length() - 1 if bits else lo
            top = lo + max((max(map(abs, row)).bit_length() for row in rows.values()), default=0)
            span = max(top, 0) - min(low, 0)
            sums = chain(head, indexes)
        # the span within which mpf_sum keeps every term: each sum is one
        # integer sum rounded once
        narrow = span < 2 * wp
        if units is not None:
            if narrow:
                out = []
                for index in sums:
                    total = 0
                    for u, i in zip(units, index):
                        if u > 0:
                            total += entries[i]
                        elif u:
                            total -= entries[i]
                    out.append(mp.make_mpf(from_man_exp(total, lo, wp, round_nearest)))
                return out
            # the aligned family is the row of products of 1
            values, rows = [(u, 0) for u in units], {(1, 0): entries}
        # the widest a sum may read: an entry, or a slot among the a
        by_a = _rows_by_a(values, rows, max(len(entries), len(values)))
        if narrow:
            return [
                mp.make_mpf(from_man_exp(sum(map(getitem, by_a, index)), lo, wp, round_nearest))
                for index in sums
            ]
        # mpf_sum could drop a term here: it gets the same products, in order of a
        return [
            mp.make_mpf(
                mpf_sum([from_man_exp(x, lo) for x in map(getitem, by_a, index)], wp, round_nearest)
            )
            for index in sums
        ]


def _rows_by_a(
    values: Sequence[Tuple[int, int]], rows: Dict[Tuple[int, int], Sequence[int]], width: int
) -> List[Sequence[int]]:
    """For each f(a), given as (mantissa, exponent), the row of products it
    reads: the row of |f(a)|, negated where f(a) < 0 (rounding to nearest is
    symmetric in sign), or a row of zeros where f(a) = 0 or no sum reads it."""
    signed = dict(rows)
    for m, e in set(values):
        if m < 0 and (-m, e) in rows:
            signed[(m, e)] = [-x for x in rows[(-m, e)]]
    zeros = [0] * width
    return [signed.get(v, zeros) for v in values]


@lru_cache(maxsize=32)
def tables(q: int, wp: int) -> Tables:
    """The shared tables for modulus q at working precision wp."""
    return Tables(q, wp)
