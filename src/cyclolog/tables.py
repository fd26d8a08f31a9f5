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
on first use, bit-identical to evaluating its entries one by one.

The ``cot``, ``psi`` and ``cos`` families also come aligned: integers T_i
and one exponent E with T_i * 2^E equal to the entry t_i exactly.
:meth:`Tables.weighted_sums` sums f(a) t_i over them and returns the very
mpf that ``mpmath.fsum`` of the products f(a) * t_i returns at wp bits.
fsum is ``mpf_sum``: an exact integer sum rounded once, which drops a term
only where exponents lie more than 2 wp bits apart.  An aligned family is
built only when its exponents span fewer than 2 wp bits (about wp + 2
log2 q bits in practice), so with every f(a) in {-1, 0, 1} each product is
exactly +-t_i, nothing is dropped, and the sum of the +-T_i rounded once
at exponent E is fsum's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sum, round_nearest, to_fixed

from .kernel import const_raw, fold, log_2sin_raw, to_mpf

if TYPE_CHECKING:
    from .characters import PeriodicFunction


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
        """psi(a/q) for a = 1..q, with psi(1) = -gamma in the last slot."""
        from .lseries import digamma_raw  # lseries builds on these tables

        vals = [digamma_raw(a, self.q, self.wp) for a in range(1, self.q)]
        with mp.workprec(self.wp):
            vals.append(-const_raw("euler_gamma", self.wp))
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
        family, rounded once (see the module docstring); otherwise each runs
        the libmp operations that mpf multiplication and fsum run: every
        product rounded at wp, then ``mpf_sum`` at wp, with f converted once.
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
        entries = [t._mpf_ for t in getattr(self, family)]
        values = [to_mpf(v, wp)._mpf_ for v in f.values]
        return [
            mp.make_mpf(mpf_sum(
                [mpf_mul(v, entries[i], wp, round_nearest) for v, i in zip(values, index)],
                wp, round_nearest,
            ))
            for index in indexes
        ]


@lru_cache(maxsize=32)
def tables(q: int, wp: int) -> Tables:
    """The shared tables for modulus q at working precision wp."""
    return Tables(q, wp)
