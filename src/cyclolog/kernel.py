"""Precision-tagged arbitrary-precision arithmetic kernel.

Every analytic quantity the package hands out is a :class:`Real` or
:class:`Complex`: a record of an mpmath floating-point value and the
precision tag (bits) it was rounded to on construction.  The routes
compute on raw mpfs, and every sum over the per-(q, wp) tables is formed
exactly over their integer forms and rounded once (see ``tables``); the
uniform policy is

* an operation asked for a ``prec``-bit result computes internally at
  ``prec + 64`` guard bits and rounds once at the end, by wrapping the
  result in ``Real(value, prec)``,
* a value whose error is bounded carries that bound as its radius
  (``Real.rad``, an upper bound rounded up to ``RADIUS_PREC`` bits), and a
  Real built by rounding adds its rounding to the radius; every radius is
  composed on raw (value, radius) mpf pairs, a sum over the tables by their
  summation rule (``Tables.radius``) and a ball operation here
  (:func:`div_raw`, :func:`hypot_raw`) adding its own rounding, and
  becomes a Real once, by :meth:`Real.ball`,
* "is this zero?" questions go through :func:`classify_zero`, which
  returns Zero / NonZero / Indeterminate instead of a bare boolean: NonZero
  only when a radius excludes 0 (rigorous, under the tables' assumption that
  mpmath's elementary functions are within 1 ulp), re-evaluating the value
  as a ball at a higher precision where the radius it has cannot decide;
  Zero stays a numeric verdict.

Values are immutable after construction.  Precision is always set with a
scoped ``mp.workprec`` inside each call, never left as ambient state (an
int converts exactly and needs no scope), but mpmath's context is
process-global: do not share this module across OS threads; use worker
processes for parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_hypot,
    mpf_log,
    mpf_lt,
    mpf_shift,
    mpf_sin_pi,
    round_ceiling,
    round_nearest,
    to_str,
)

MIN_PRECISION = 32
GUARD_BITS = 64
# bits of an error radius: every radius operation rounds up to this many
RADIUS_PREC = 32
# balls classify_zero asks for where a radius cannot decide, before Indeterminate
MAX_ESCALATIONS = 3


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


def to_mpf(x: Union["Real", Fraction, int, float, str], wp: int) -> mpmath.mpf:
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


def half_ulp_raw(x: tuple, prec: int) -> tuple:
    """2^(floor(log2|x|) - prec), half an ulp of the raw mpf x at prec bits.
    It bounds the error of every value that rounds to nearest to x at prec
    bits (one that rounds up into x's binade errs by at most half an ulp of
    the binade below); 0 for x = 0, which only 0 rounds to."""
    _, man, exp, bc = x
    return from_man_exp(1, exp + bc - 1 - prec) if man else fzero


# ---------------------------------------------------------------------------
# ball operations on raw mpfs, each adding its own rounding once
# ---------------------------------------------------------------------------

def div_raw(x: tuple, rad: tuple, n: int, wp: int) -> Tuple[tuple, tuple]:
    """(x / n rounded to nearest at wp, its radius) for the ball x +- rad and
    an int n != 0: the exact quotient is within rad / |n| of x / n, and the
    rounding adds 1/2 ulp of the quotient."""
    divisor = from_int(n)
    quotient = mpf_div(x, divisor, wp, round_nearest)
    share = mpf_div(rad, mpf_abs(divisor), RADIUS_PREC, round_ceiling)
    return quotient, mpf_add(share, half_ulp_raw(quotient, wp), RADIUS_PREC, round_ceiling)


def hypot_raw(re: tuple, rad_re: tuple, im: tuple, rad_im: tuple, wp: int) -> Tuple[tuple, tuple]:
    """(|re + i im| rounded at wp, its radius) for the balls re +- rad_re and
    im +- rad_im.  hypot is 1-Lipschitz in each argument; mpmath's rounds the
    root of a sum of squares formed at wp + 4 bits, whose error moves the
    root by below 1/32 ulp, so with the root's rounding it errs by less than
    1 ulp at wp, which is 1/2 ulp at wp - 1."""
    mag = mpf_hypot(re, im, wp, round_nearest)
    rad = mpf_add(rad_re, rad_im, RADIUS_PREC, round_ceiling)
    return mag, mpf_add(rad, half_ulp_raw(mag, wp - 1), RADIUS_PREC, round_ceiling)


class Real:
    """An immutable real number rounded to the precision it is tagged with.

    ``Real(value, prec)`` stores ``value`` rounded to nearest at ``prec``
    bits, so a Real never carries more bits than its tag.  It is a record,
    not a number type: arithmetic and comparisons go through ``.mpf``.

    ``rad`` is an error radius, a proven bound on the distance from the
    stored value to the exact quantity it stands for, or None where no bound
    is known.  ``Real(value, prec, rad)`` takes ``rad`` as the radius of
    ``value`` and adds the rounding to prec bits to it (half an ulp, unless
    an mpf or int value fits in prec bits); a Real built from a Real takes
    that Real's radius unless ``rad`` is given.
    """

    __slots__ = ("mpf", "prec", "rad")

    def __init__(self, value, prec: int, rad: Optional[mpmath.mpf] = None):
        _check_prec(prec)
        if isinstance(value, Real):
            value, rad = value.mpf, value.rad if rad is None else rad
        # an int converts exactly; a Fraction, str or float rounds once at prec
        converted = not isinstance(value, (mpmath.mpf, int))
        if not isinstance(value, mpmath.mpf):
            value = to_mpf(value, prec)
        # the rounding of +value under mp.workprec(prec), without the scope
        rounded = mpmath.mpf(value, prec=prec, rounding="n")
        if rad is not None and (converted or rounded != value):
            # the given radius rounded up to RADIUS_PREC bits, then the half ulp
            rad = mpf_add(fzero, rad._mpf_, RADIUS_PREC, round_ceiling)
            rad = mp.make_mpf(mpf_add(rad, half_ulp_raw(rounded._mpf_, prec), RADIUS_PREC, round_ceiling))
        object.__setattr__(self, "mpf", rounded)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "rad", rad)

    @classmethod
    def ball(cls, raw: Tuple[tuple, tuple], prec: int) -> "Real":
        """The Real of a raw (value, radius) pair, the value at prec bits."""
        return cls(mp.make_mpf(raw[0]), prec, mp.make_mpf(raw[1]))

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
        return Real(self, prec)


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


def log_2sin_raw(k: int, q: int, wp: int, sinpi: Optional[tuple] = None) -> mpmath.mpf:
    """log(2 sin(k pi / q)) at working precision, index folded to [1, q/2]:
    the log, rounded to nearest at wp, of twice sinpi(t) for t = k/q rounded
    to nearest at wp.  ``sinpi``, when given, is that raw sinpi(t) for the
    folded k, as the tables evaluate it once per angle."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    k = fold(k, q)
    if sinpi is None:
        t = mpf_div(from_int(k, wp, round_nearest), from_int(q), wp, round_nearest)
        sinpi = mpf_sin_pi(t, wp, round_nearest)
    return mp.make_mpf(mpf_log(mpf_shift(sinpi, 1), wp, round_nearest))


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
    """Verdict of a zero test: tag plus the residual magnitude that decided it.

    ``margin_bits`` is log2(|x| / radius) of the ball that decided a NonZero
    (every NonZero is ``rigorous``), how far log2|x| lies below 2^-target for
    Zero, and None for Indeterminate.
    """

    tag: str
    residual: Real
    margin_bits: Optional[float] = None

    @property
    def rigorous(self) -> bool:
        return self.tag == NONZERO

    @property
    def is_zero(self) -> bool:
        return self.tag == ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.tag == NONZERO

    @property
    def is_indeterminate(self) -> bool:
        return self.tag == INDETERMINATE


def _log2(x: mpmath.mpf) -> float:
    """log2|x| as a float, -inf for 0."""
    _, man, exp, _ = x._mpf_
    return math.log2(man) + exp if man else -math.inf


def radius_decides_nonzero(mag: tuple, rad: tuple, target: int) -> bool:
    """The rule by which an error radius decides NonZero, on raw mpf tuples:
    True when |x| = ``mag`` exceeds its radius ``rad``, so the enclosure
    [x - rad, x + rad] excludes 0, and clears the NonZero bar 2^-(target // 2).
    :func:`classify_zero` applies it to a Real with a radius; the scan applies
    it to raw values, and classifies only those it does not decide."""
    return mpf_gt(mag, rad) and mpf_gt(mag, from_man_exp(1, -(target // 2)))


def classify_zero(x: Real, target: int, recompute: Optional[Callable[[int], Real]] = None) -> ZeroClass:
    """Classify ``x`` against a 2^-target zero threshold.

    Zero iff |x| < 2^-target, a numeric verdict.  NonZero iff ``x`` has a
    radius that decides it (:func:`radius_decides_nonzero`).  Where neither
    holds and |x| > 2^(-target/2), precision escalates: ``recompute(w)``,
    when given, returns the producing expression as a Real with its own
    radius at w = x.prec + max(0, ceil(log2(rad/|x|))) + 32 bits (x.prec + 32
    without a radius), classified by the same rules, at most
    ``MAX_ESCALATIONS`` times.  Everything else is Indeterminate, the dead
    band between the bars (which never escalates) among it.
    """
    _check_prec(target)
    if not isinstance(x, Real):
        raise TypeError("classify_zero expects a Real")
    for escalation in range(MAX_ESCALATIONS + 1):
        mag = mpf_abs(x.mpf._mpf_)
        residual = Real(mp.make_mpf(mag), x.prec)
        if mpf_lt(mag, from_man_exp(1, -target)):
            return ZeroClass(ZERO, residual, margin_bits=-target - _log2(residual.mpf))
        if x.rad is not None and radius_decides_nonzero(mag, x.rad._mpf_, target):
            return ZeroClass(NONZERO, residual, margin_bits=_log2(residual.mpf) - _log2(x.rad))
        if recompute is None or escalation == MAX_ESCALATIONS or not mpf_gt(mag, from_man_exp(1, -(target // 2))):
            break
        extra = 0 if x.rad is None else max(0, math.ceil(_log2(x.rad) - _log2(residual.mpf)))
        x = recompute(x.prec + extra + 32)
    return ZeroClass(INDETERMINATE, residual)


# ---------------------------------------------------------------------------
# decimal formatting
# ---------------------------------------------------------------------------

def decimal_digits(prec_bits: int) -> int:
    """Decimal digits faithfully carried by a prec_bits binary mantissa."""
    return max(1, int(prec_bits * 0.3010299956639812))


# mpmath's own constant for bits per decimal digit, so every cut below
# falls where ``to_digits_exp`` puts it
_LOG2_10 = math.log(10, 2)


def dec_str(x, digits: int) -> str:
    """Deterministic decimal rendering of an mpf/Real: ``mpmath.nstr(x,
    digits)``, that is ``to_str(x._mpf_, digits)``, byte for byte.

    It runs mpmath's steps inline on the integers.  ``to_digits_exp(s,
    digits + 3)``: the magnitude as a binary fixed-point integer of
    ``fixprec`` fraction bits, times ``10**fixdps``, shifted back, is the
    floor of |x| to ``fixdps`` decimals, and its ``str`` holds the digits.
    Then ``to_str``: round half up on digit ``digits`` (a carry through
    trailing 9s that reaches the front makes "1" and raises the exponent),
    trailing zeros stripped, fixed point when ``min(-(digits//3), -5) <
    exponent < digits`` (zeros fill the places up to the point, and ".0"
    ends a whole number), else scientific.  Zero, inf and
    nan, ``digits < 1``, ``|exp + bc| > 3500`` (mpmath first divides by a
    power of ten there) and more digits than ``str`` of an int may give
    go to ``to_str`` itself.
    """
    if isinstance(x, Real):
        x = x.mpf
    s = x._mpf_
    sign, man, exp, bc = s
    if not man or digits < 1 or digits > 4000 or abs(exp + bc) > 3500:
        return to_str(s, digits)
    # to_digits_exp at digits + 3: the floor of |x| to fixdps decimals
    fixprec = max(int((digits + 3) * _LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    text = str(((man << shift) if shift >= 0 else (man >> -shift)) * 10**fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    # to_str: round half up on digit ``digits``, carrying through 9s; what
    # is kept is the significant digits without their trailing zeros
    if len(text) > digits and text[digits] in "56789":
        kept = text[:digits].rstrip("9")
        if kept:
            text = kept[:-1] + str(int(kept[-1]) + 1)
        else:
            text = "1"
            exponent += 1
    else:
        text = text[:digits].rstrip("0")
    if min(-(digits // 3), -5) < exponent < digits:
        point = exponent + 1  # digits before the decimal point
        if point <= 0:
            text = "0." + "0" * -point + text
        elif point < len(text):
            text = text[:point] + "." + text[point:]
        else:
            text += "0" * (point - len(text)) + ".0"
        exponent = 0
    else:
        text = text[0] + "." + (text[1:] or "0")
    if sign:
        text = "-" + text
    return text if exponent == 0 else f"{text}e{exponent:+d}"
