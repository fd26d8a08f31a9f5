"""Precision-tagged arbitrary-precision arithmetic kernel.

Every analytic quantity in this package is a :class:`Real` or
:class:`Complex`: an mpmath floating-point value carrying an explicit
precision tag (bits).  The uniform policy is

* arithmetic on mixed precisions rounds at the *minimum* of the operand
  precisions,
* an operation asked for a ``prec``-bit result computes internally at
  ``prec + 64`` guard bits and rounds once at the end,
* "is this zero?" questions go through :func:`classify_zero`, which
  returns Zero / NonZero / Indeterminate instead of a bare boolean.

Values are immutable after construction.  Precision is always set with a
scoped ``mp.workprec`` inside each call, never left as ambient state, but
mpmath's context is process-global: do not share this module across OS
threads; use worker processes for parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import mpmath
from mpmath import mp

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


def to_mpf(x: Scalar, wp: int) -> mpmath.mpf:
    """Convert ``x`` to an mpf, rounding rationals/strings at ``wp`` bits.

    Every mpmath construction/operation rounds at the ambient context
    precision, so conversions are always wrapped in a workprec scope.
    """
    if isinstance(x, Real):
        return x.mpf
    if isinstance(x, int):
        with mp.workprec(max(wp, x.bit_length() + 1, MIN_PRECISION)):
            return mpmath.mpf(x)
    if isinstance(x, Fraction):
        with mp.workprec(wp):
            if x.denominator == 1:
                return to_mpf(x.numerator, wp)
            return mpmath.mpf(x.numerator) / x.denominator
    with mp.workprec(wp):
        return mpmath.mpf(x)


class Real:
    """An immutable real number tagged with the precision it carries."""

    __slots__ = ("mpf", "prec")

    def __init__(self, value, prec: int):
        _check_prec(prec)
        if isinstance(value, Real):
            value = value.mpf
        if not isinstance(value, mpmath.mpf):
            value = to_mpf(value, prec)
        object.__setattr__(self, "mpf", value)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("Real is immutable")

    # -- arithmetic: result precision is the minimum of the operands' --

    def _prep(self, other):
        if isinstance(other, Real):
            prec = min(self.prec, other.prec)
            return other.mpf, prec
        if isinstance(other, (int, Fraction)):
            return to_mpf(other, self.prec), self.prec
        return NotImplemented, None

    def _binary(self, other, op):
        rhs, prec = self._prep(other)
        if rhs is NotImplemented:
            return NotImplemented
        with mp.workprec(prec):
            return Real(op(self.mpf, rhs), prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        with mp.workprec(self.prec):
            return Real(-self.mpf, self.prec)

    def __abs__(self):
        with mp.workprec(self.prec):
            return Real(abs(self.mpf), self.prec)

    # -- comparisons are exact on the stored values --

    def _cmp_value(self, other):
        if isinstance(other, Real):
            return other.mpf
        if isinstance(other, (int, float)):
            return other
        if isinstance(other, Fraction):
            return to_mpf(other, max(self.prec, 2 * GUARD_BITS) + GUARD_BITS)
        return NotImplemented

    def __eq__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.mpf == v

    def __lt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.mpf < v

    def __le__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.mpf <= v

    def __gt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.mpf > v

    def __ge__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.mpf >= v

    def __hash__(self):
        return hash(self.mpf)

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
        _check_prec(prec)
        with mp.workprec(prec):
            return Real(+self.mpf, prec)


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

    def to_mpc(self) -> mpmath.mpc:
        with mp.workprec(self.prec):
            return mpmath.mpc(self.re.mpf, self.im.mpf)

    def conjugate(self) -> "Complex":
        return Complex(self.re, -self.im)

    def __add__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (Real, int, Fraction)):
            return Complex(self.re * other, self.im * other)
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Complex(-self.re, -self.im)

    def __abs__(self) -> Real:
        prec = self.prec
        with mp.workprec(prec):
            return Real(mpmath.hypot(self.re.mpf, self.im.mpf), prec)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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
        v = fn()
    with mp.workprec(prec):
        return Real(+v, prec)


def const_raw(name: str, wp: int) -> mpmath.mpf:
    """Constant at full working precision, for internal assembly."""
    with mp.workprec(wp):
        return _CONSTANT_FNS[name]()


def log_2sin_raw(k: int, q: int, wp: int) -> mpmath.mpf:
    """log(2 sin(k pi / q)) at working precision, index folded to [1, q/2]."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    k %= q
    if k == 0:
        raise ValueError("k must not be divisible by q: 2 sin(k pi/q) would vanish")
    k = min(k, q - k)
    with mp.workprec(wp):
        return mpmath.log(2 * mpmath.sinpi(mpmath.mpf(k) / q))


def log_2sin(k: int, q: int, prec: int) -> Real:
    """log(2 sin(k pi / q)) = log|1 - zeta_q^k|, symmetric under k -> q - k."""
    _check_prec(prec)
    v = log_2sin_raw(k, q, working_prec(prec))
    with mp.workprec(prec):
        return Real(+v, prec)


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
        zero_bar = mpmath.mpf(2) ** (-target)
        nonzero_bar = mpmath.mpf(2) ** (-(target // 2))
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
