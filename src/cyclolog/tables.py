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
on first use, bit-identical to evaluating its entries one by one.  psi
runs Gauss's digamma theorem on integer mantissas: each product and
partial sum goes through ``kernel.round_nearest_int``, which rounds as
libmp does, so each entry is the one the same chain over mpfs gives.

:meth:`Tables.weighted_sums` sums f(a) t_i over the ``cot``, ``psi`` or
``cos`` family and returns the very mpf that ``mpmath.fsum`` of the
products f(a) * t_i, each rounded at wp, returns at wp bits.  fsum is
``mpf_sum``: an exact integer sum rounded once, which drops a term only
where exponents lie more than 2 wp bits apart.  So wherever the products,
and the 0 that ``mpf_sum`` starts from, span fewer than 2 wp bits, the
products as integers at one exponent, summed and rounded once, give
fsum's result bit for bit:

* with every f(a) in {-1, 0, 1} each product is exactly +-t_i, and the
  sums run over the family aligned once per table: integers T_i and one
  exponent E with T_i * 2^E equal to t_i exactly.  An aligned family is
  built only when its exponents span fewer than 2 wp bits (about wp + 2
  log2 q bits in practice);
* otherwise each distinct |f(a)| gets one row of products, each rounded at
  wp once however many sums read it, and -|f(a)| reads the row negated,
  since rounding to nearest is symmetric in sign.  Where the rows span 2
  wp bits or more, the same rounded products go to ``mpf_sum`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, islice
from operator import getitem, neg, or_
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    TypeVar,
)

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_neg, mpf_sum, round_nearest, to_fixed

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

T = TypeVar("T")


class Aligned(NamedTuple):
    """Table entries t_i as integers T_i with T_i * 2^exp == t_i exactly."""

    mantissas: Tuple[int, ...]
    exp: int


def _align(entries: Sequence[mpmath.mpf], family: str, q: int, wp: int) -> Aligned:
    """``entries`` aligned at their smallest exponent; raises ArithmeticError
    unless their exponents, and the 0 that ``mpf_sum`` starts from, span
    fewer than 2 wp bits, the span within which ``mpf_sum`` keeps every term."""
    raw = [t._mpf_ for t in entries]
    nonzero = [(e, bc) for _, man, e, bc in raw if man]
    exp = min((e for e, _ in nonzero), default=0)
    top = max((e + bc for e, bc in nonzero), default=0)
    spread = max(top, 0) - min(exp, 0)
    if spread >= 2 * wp:
        raise ArithmeticError(
            f"{family} table for q = {q} at wp = {wp} spans {spread} bits, "
            f"not below 2 wp = {2 * wp}; mpf_sum could drop terms"
        )
    return Aligned(
        tuple((-man if sign else man) << (e - exp) if man else 0 for sign, man, e, _ in raw), exp
    )


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
        plus or minus log 2 for even q.  The chain runs on signed integer
        mantissas through ``round_nearest_int``; every product and partial
        sum is the one the same chain over mpfs rounds, bit for bit.
        """
        q, wp = self.q, self.wp
        with mp.workprec(wp):
            minus_gamma = -const_raw("euler_gamma", wp)
            start = man_exp(minus_gamma - mpmath.log(q))
            hm, he = man_exp(const_raw("pi", wp) / 2)
        log2 = man_exp(const_raw("log2", wp)) if q % 2 == 0 else None
        cot = [man_exp(c) for c in self.cot]
        cos = [man_exp(c) for c in self.cos]
        # 2 log(2 sin b pi/q) = log(4 sin^2(b pi/q)), the doubling exact
        logs = [(m, e + 1) for m, e in map(man_exp, self.log_sines[: (q - 1) // 2])]
        vals = []
        for a in range(1, q):
            cm, ce = cot[a - 1]
            total = add_nearest_int(start, round_nearest_int(-hm * cm, he + ce, wp), wp)
            j = 0
            for lm, le in logs:
                j += a
                if j >= q:
                    j -= q
                cm, ce = cos[j]
                total = add_nearest_int(total, round_nearest_int(cm * lm, ce + le, wp), wp)
            if log2 is not None:
                total = add_nearest_int(total, log2 if a % 2 == 0 else (-log2[0], log2[1]), wp)
            vals.append(mp.make_mpf(from_man_exp(*total)))
        vals.append(minus_gamma)
        return tuple(vals)

    @cached_property
    def cot_aligned(self) -> Aligned:
        return _align(self.cot, "cot", self.q, self.wp)

    @cached_property
    def psi_aligned(self) -> Aligned:
        return _align(self.psi, "psi", self.q, self.wp)

    @cached_property
    def cos_aligned(self) -> Aligned:
        return _align(self.cos, "cos", self.q, self.wp)

    def weighted_sums(
        self, family: str, f: "PeriodicFunction", indexes: Iterable[Sequence[int]]
    ) -> List[mpmath.mpf]:
        """For each index in ``indexes``, fsum(f(a) * t[index[a - 1]] for
        a = 1..len(index)) at wp bits, bit for bit, where t is the ``family``
        table: "cot", "psi" or "cos".

        With every f(a) in {-1, 0, 1} each is one integer sum over the aligned
        family, rounded once; otherwise one integer sum over rows of rounded
        products aligned at one exponent, rounded once, or, where the rows
        span 2 wp bits or more, ``mpf_sum`` of those products (see the module
        docstring).  f is converted once.
        """
        wp = self.wp
        units = f.unit_values
        if units is not None:
            mantissas, exp = getattr(self, family + "_aligned")
            out = []
            for index in indexes:
                total = 0
                for u, i in zip(units, index):
                    if u > 0:
                        total += mantissas[i]
                    elif u:
                        total -= mantissas[i]
                out.append(mp.make_mpf(from_man_exp(total, exp, wp, round_nearest)))
            return out
        # one row of products per distinct |f(a)|, over the entries its sums
        # read: with several sums every entry, so a sum reads entry index[a];
        # with one, the entries at the a where |f(a)| is that value, in order
        # of a, so the sum reads each a's own slot in its row
        entries = [man_exp(t) for t in getattr(self, family)]
        values = [man_exp(to_mpf(v, wp)) for v in f.values]
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
        # the widest a sum may read: an entry, or a slot among the a
        width = max(len(entries), len(values))
        # rounding m tm 2^(e + te) keeps it a multiple of 2^(e + te), so every
        # product is an integer at exponent lo
        lo = min((e for _, e in read), default=0) + min((te for tm, te in entries if tm), default=0)
        rows = {}
        for (m, e), at in read.items():
            rows[(m, e)] = row = []
            for i in at:
                tm, te = entries[i]
                if tm:
                    pm, pe = round_nearest_int(m * tm, e + te, wp)
                    row.append(pm << (pe - lo))
                else:
                    row.append(0)
        # the products' exponents run from lo plus the fewest trailing zeros
        # of any of them (those of their bitwise or) to top
        bits = reduce(or_, chain.from_iterable(rows.values()), 0)
        low = lo + (bits & -bits).bit_length() - 1 if bits else lo
        top = lo + max((max(map(abs, row)).bit_length() for row in rows.values()), default=0)
        sums = chain(head, indexes)
        if max(top, 0) - min(low, 0) < 2 * wp:
            # the span within which mpf_sum keeps every term: each sum is one
            # integer sum rounded once
            by_a = _rows_by_a(values, rows, neg, 0, width)
            return [
                mp.make_mpf(from_man_exp(sum(map(getitem, by_a, index)), lo, wp, round_nearest))
                for index in sums
            ]
        # mpf_sum could drop a term here: it gets the same products, in order of a
        rows = {key: [from_man_exp(x, lo) for x in row] for key, row in rows.items()}
        by_a = _rows_by_a(values, rows, mpf_neg, fzero, width)
        return [mp.make_mpf(mpf_sum(map(getitem, by_a, index), wp, round_nearest)) for index in sums]


def _rows_by_a(
    values: Sequence[Tuple[int, int]],
    rows: Dict[Tuple[int, int], List[T]],
    negate: Callable[[T], T],
    zero: T,
    width: int,
) -> List[List[T]]:
    """For each f(a), given as (mantissa, exponent), the row of products it
    reads: the row of |f(a)|, negated where f(a) < 0 (rounding to nearest is
    symmetric in sign), or a row of ``zero`` where f(a) = 0 or no sum reads it."""
    signed = dict(rows)
    for m, e in set(values):
        if m < 0 and (-m, e) in rows:
            signed[(m, e)] = list(map(negate, rows[(-m, e)]))
    zeros = [zero] * width
    return [signed.get(v, zeros) for v in values]


@lru_cache(maxsize=32)
def tables(q: int, wp: int) -> Tables:
    """The shared tables for modulus q at working precision wp."""
    return Tables(q, wp)
