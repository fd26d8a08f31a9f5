"""Precision-tagged arbitrary-precision arithmetic kernel.

Every analytic quantity the package hands out is a :class:`Real` or
:class:`Complex`: a record of an mpmath floating-point value and the
precision tag (bits) it was rounded to on construction.  The routes
compute on raw mpfs, and every sum over the per-(q, wp) tables is formed
exactly over their integer forms and rounded once (see ``tables``), so its
error is at most sum_a |f(a)| eps_family + 1/2 ulp; the uniform policy is

* an operation asked for a ``prec``-bit result computes internally at
  ``prec + 64`` guard bits and rounds once at the end, by wrapping the
  result in ``Real(value, prec)``,
* "is this zero?" questions go through :func:`classify_zero`, which
  returns Zero / NonZero / Indeterminate instead of a bare boolean.

Values are immutable after construction.  Precision is always set with a
scoped ``mp.workprec`` inside each call, never left as ambient state (an
int converts exactly and needs no scope), but mpmath's context is
process-global: do not share this module across OS threads; use worker
processes for parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, from_rational, round_nearest

MIN_PRECISION = 32
GUARD_BITS = 64

Scalar = Union["Real", Fraction, int, float, str]


class PrecisionError(ValueError):
    """Raised for precision tags below the 32-bit floor or other misuse."""


def working_prec(target_bits: int) -> int:
    """Internal evaluation precision for a requested target precision."""
    return target_bits + GUARD_BITS


def _check_prec(prec: int) -> int:
    if not isinstance(prec, int) or isinstance(prec, bool) or prec < MIN_PRECISION:
        raise PrecisionError(f"precision must be an int >= {MIN_PRECISION} bits, got {prec!r}")
    return prec


def man_exp(x: mpmath.mpf) -> Tuple[int, int]:
    """The mpf ``x`` as a signed (mantissa, exponent) pair."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def to_mpf(x: Scalar, wp: int) -> mpmath.mpf:
    """Convert ``x`` to an mpf: an int exactly, without a precision scope; a
    Fraction rounded once, to nearest, from its exact quotient; a string or
    float rounded at ``wp`` in a workprec scope, since mpmath's constructor
    rounds at the ambient context precision."""
    if isinstance(x, Real):
        return x.mpf
    if isinstance(x, int):
        return mp.make_mpf(from_int(x))
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return mp.make_mpf(from_int(x.numerator))
        return mp.make_mpf(from_rational(x.numerator, x.denominator, wp, round_nearest))
    with mp.workprec(wp):
        return mpmath.mpf(x)


class Real:
    """An immutable real number rounded to the precision it is tagged with.

    ``Real(value, prec)`` stores ``value`` rounded to nearest at ``prec``
    bits, so a Real never carries more bits than its tag.  It is a record,
    not a number type: arithmetic and comparisons go through ``.mpf``.
    """

    __slots__ = ("mpf", "prec")

    def __init__(self, value, prec: int):
        _check_prec(prec)
        if not isinstance(value, mpmath.mpf):
            value = to_mpf(value, prec)
        # the rounding of +value under mp.workprec(prec), without the scope
        object.__setattr__(self, "mpf", mpmath.mpf(value, prec=prec, rounding="n"))
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("Real is immutable")

    def __float__(self):
        return float(self.mpf)

    def __repr__(self):
        return f"Real({mpmath.nstr(self.mpf, 20)}, prec={self.prec})"

    def to_decimal(self, digits: Optional[int] = None) -> str:
        """Decimal string with (by default) all digits the tag supports."""
        if digits is None:
            digits = decimal_digits(self.prec)
        return dec_str(self.mpf, digits)

    def round_to(self, prec: int) -> "Real":
        return Real(self.mpf, prec)


class Complex:
    """A complex value as a pair of Reals of equal precision."""

    __slots__ = ("re", "im")

    def __init__(self, re: Real, im: Real):
        if not isinstance(re, Real) or not isinstance(im, Real):
            raise TypeError("Complex components must be Real")
        if re.prec != im.prec:
            raise PrecisionError("Complex component precisions must match")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    @property
    def prec(self) -> int:
        return self.re.prec

    def __repr__(self):
        return f"Complex({mpmath.nstr(self.re.mpf, 15)}, {mpmath.nstr(self.im.mpf, 15)}, prec={self.prec})"


# ---------------------------------------------------------------------------
# constants and log(2 sin k pi / q)
# ---------------------------------------------------------------------------

_CONSTANT_FNS = {
    "pi": lambda: +mp.pi,
    "euler_gamma": lambda: +mp.euler,
    "log2": lambda: mpmath.log(2),
}


def const(name: str, prec: int) -> Real:
    """A named constant (pi, euler_gamma, log2), correctly rounded to prec bits."""
    _check_prec(prec)
    try:
        fn = _CONSTANT_FNS[name]
    except KeyError:
        raise ValueError(f"unknown constant {name!r}; expected one of {sorted(_CONSTANT_FNS)}") from None
    with mp.workprec(working_prec(prec)):
        return Real(fn(), prec)


def const_raw(name: str, wp: int) -> mpmath.mpf:
    """Constant at full working precision, for internal assembly."""
    with mp.workprec(wp):
        return _CONSTANT_FNS[name]()


def fold(k: int, q: int) -> int:
    """k folded to [1, q/2] as min(k mod q, q - k mod q), the index that
    log(2 sin k pi/q) = log|1 - zeta_q^k| depends on."""
    k %= q
    if k == 0:
        raise ValueError("k must not be divisible by q: 2 sin(k pi/q) would vanish")
    return min(k, q - k)


def log_2sin_raw(k: int, q: int, wp: int) -> mpmath.mpf:
    """log(2 sin(k pi / q)) at working precision, index folded to [1, q/2]."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    k = fold(k, q)
    with mp.workprec(wp):
        return mpmath.log(2 * mpmath.sinpi(mpmath.mpf(k) / q))


def log_2sin(k: int, q: int, prec: int) -> Real:
    """log(2 sin(k pi / q)) = log|1 - zeta_q^k|, symmetric under k -> q - k."""
    _check_prec(prec)
    return Real(log_2sin_raw(k, q, working_prec(prec)), prec)


# ---------------------------------------------------------------------------
# zero / nonzero classification
# ---------------------------------------------------------------------------

ZERO = "Zero"
NONZERO = "NonZero"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ZeroClass:
    """Verdict of a zero test: tag plus the residual magnitude that decided it."""

    tag: str
    residual: Real

    @property
    def is_zero(self) -> bool:
        return self.tag == ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.tag == NONZERO

    @property
    def is_indeterminate(self) -> bool:
        return self.tag == INDETERMINATE


def classify_zero(
    x: Real,
    target: int,
    recompute: Optional[Callable[[int], Scalar]] = None,
) -> ZeroClass:
    """Classify ``x`` against a 2^-target zero threshold.

    Zero iff |x| < 2^-target.  NonZero requires |x| > 2^(-target/2) and,
    when a ``recompute(working_bits)`` callback for the producing
    expression is supplied, that re-evaluation at doubled working
    precision reproduces the leading target/2 bits.  Everything else is
    Indeterminate (the dead band guards against cancellation artifacts).
    """
    _check_prec(target)
    if not isinstance(x, Real):
        raise TypeError("classify_zero expects a Real")
    with mp.workprec(max(x.prec, working_prec(target))):
        mag = abs(x.mpf)
        residual = Real(mag, x.prec)
        zero_bar = mpmath.ldexp(1, -target)
        nonzero_bar = mpmath.ldexp(1, -(target // 2))
        if mag < zero_bar:
            return ZeroClass(ZERO, residual)
        if mag > nonzero_bar:
            if recompute is None:
                return ZeroClass(NONZERO, residual)
            wp2 = 2 * max(x.prec, working_prec(target))
            again = to_mpf(recompute(wp2), wp2)
            if again == 0:
                return ZeroClass(INDETERMINATE, residual)
            agreement = abs(x.mpf - again) / abs(again)
            if agreement < nonzero_bar:
                return ZeroClass(NONZERO, residual)
            return ZeroClass(INDETERMINATE, residual)
    return ZeroClass(INDETERMINATE, residual)


# ---------------------------------------------------------------------------
# decimal formatting
# ---------------------------------------------------------------------------

def decimal_digits(prec_bits: int) -> int:
    """Decimal digits faithfully carried by a prec_bits binary mantissa."""
    return max(1, int(prec_bits * 0.3010299956639812))


def dec_str(x, digits: int) -> str:
    """Deterministic decimal rendering of an mpf/Real."""
    if isinstance(x, Real):
        x = x.mpf
    return mpmath.nstr(x, digits)
