"""Per-(q, wp) tables of the numbers every route is assembled from:
log(2 sin k pi/q) (alone and as the slot values of a relation basis), the
roots of unity e^(2 pi i j/q) (as mpfs and, in ``fixed_roots``, as
integers scaled by 2^wp), cot(a pi/q) and psi(a/q) for one modulus q at
one working precision wp.  Every cos or sin of a rational multiple of pi
in the package is read from here: e^(2 pi i num/den) from the roots of den,
and cos, sin of n pi/q from the roots of 2q.

:func:`tables` serves them from one bounded cache keyed by (q, wp), so a
recompute at doubled precision gets its own entry.  Each family is built
on first use, bit-identical to evaluating its entries one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from .kernel import const_raw, fold, log_2sin_raw


@dataclass(frozen=True)
class Tables:
    """Lazily built tables for modulus ``q`` at working precision ``wp``."""

    q: int
    wp: int

    @cached_property
    def log_sines(self) -> Tuple[mpmath.mpf, ...]:
        """log(2 sin(k pi / q)) for k = 1..q//2."""
        return tuple(log_2sin_raw(k, self.q, self.wp) for k in range(1, self.q // 2 + 1))

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


@lru_cache(maxsize=32)
def tables(q: int, wp: int) -> Tables:
    """The shared tables for modulus q at working precision wp."""
    return Tables(q, wp)
