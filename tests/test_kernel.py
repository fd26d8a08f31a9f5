"""Kernel tests: constants against published digit tables, log(2 sin .),
zero classification, and the precision-tag rounding rule."""

import json
import math
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_neg, round_ceiling, to_str

from cyclolog.kernel import (
    MAX_ESCALATIONS,
    RADIUS_PREC,
    Complex,
    PrecisionError,
    Real,
    classify_zero,
    const,
    dec_str,
    decimal_digits,
    div_raw,
    fold,
    half_ulp_raw,
    hypot_raw,
    log_2sin,
    log_2sin_raw,
    to_mpf,
    working_prec,
)
from cyclolog.tables import tables

# Independently published digit tables (not computed by this package).
PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494"
EULER_GAMMA_DIGITS = "0.57721566490153286060651209008240243104215933593992359880577"
LOG2_DIGITS = "0.69314718055994530941723212145817656807550013436025525412068"


def as_mpf(decimal_string, wp=400):
    with mp.workprec(wp):
        return mpmath.mpf(decimal_string)


@pytest.mark.parametrize(
    "name,digits",
    [("pi", PI_DIGITS), ("euler_gamma", EULER_GAMMA_DIGITS), ("log2", LOG2_DIGITS)],
)
def test_const_correctly_rounded_at_64_bits(name, digits):
    v = const(name, 64)
    reference = as_mpf(digits)
    # half an ulp at 64 bits, relative to the value's magnitude
    ulp_exp = mpmath.mag(reference) - 64
    assert abs(v.mpf - reference) <= mpmath.mpf(2) ** ulp_exp


@pytest.mark.parametrize("prec", [32, 64, 128, 256, 1024])
def test_const_matches_digit_table_at_any_precision(prec):
    # the digit tables carry ~60 digits (~190 bits); compare no finer than that
    resolution = min(prec, 190)
    for name, digits in (
        ("pi", PI_DIGITS),
        ("euler_gamma", EULER_GAMMA_DIGITS),
        ("log2", LOG2_DIGITS),
    ):
        v = const(name, prec)
        err = abs(v.mpf - as_mpf(digits))
        assert err <= mpmath.mpf(2) ** (mpmath.mag(v.mpf) - resolution)


def test_const_unknown_name_rejected():
    with pytest.raises(ValueError):
        const("feigenbaum", 64)


def test_const_precision_floor():
    with pytest.raises(PrecisionError):
        const("pi", 16)


def test_log_2sin_q4_is_half_log2():
    v = log_2sin(1, 4, 128)
    with mp.workprec(192):
        half_log2 = const("log2", 192).mpf / 2
        assert abs(v.mpf - half_log2) < mpmath.mpf(2) ** -126


def test_log_2sin_q6_is_zero():
    assert log_2sin(1, 6, 128).mpf == 0  # 2 sin(pi/6) = 1 exactly


def test_log_2sin_matches_cyclotomic_modulus():
    # log(2 sin(2 pi/5)) = log|1 - zeta_5^2|, computed through Complex
    prec = 128
    wp = working_prec(prec)
    with mp.workprec(wp):
        zeta_pow = mpmath.mpc(mpmath.cospi(mpmath.mpf(4) / 5), mpmath.sinpi(mpmath.mpf(4) / 5))
        direct = mpmath.log(abs(1 - zeta_pow))
    v = log_2sin_raw(2, 5, wp)
    assert abs(v - direct) < mpmath.mpf(2) ** (-wp + 8)


def test_log_2sin_symmetry_exact():
    for q in range(2, 30):
        for k in range(1, q):
            assert log_2sin(k, q, 96).mpf == log_2sin(q - k, q, 96).mpf


def test_log_2sin_rejects_zero_index():
    with pytest.raises(ValueError):
        log_2sin(0, 7, 64)
    with pytest.raises(ValueError):
        log_2sin(14, 7, 64)


@pytest.mark.parametrize("q", list(range(2, 41)))
def test_product_identity_sum_of_logs_is_log_q(q):
    # prod_{k=1}^{q-1} |1 - zeta_q^k| = q, hence the log sum telescopes to log q
    prec = 128
    wp = working_prec(prec)
    with mp.workprec(wp):
        total = mpmath.fsum(log_2sin_raw(k, q, wp) for k in range(1, q))
        assert abs(total - mpmath.log(q)) < mpmath.mpf(2) ** (-prec + 16)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_stability_doubling_preserves_leading_bits(prec):
    # doubling precision never changes the first prec-16 bits
    samples = [
        const("pi", prec).mpf - const("pi", 2 * prec).mpf,
        const("euler_gamma", prec).mpf - const("euler_gamma", 2 * prec).mpf,
        log_2sin(3, 7, prec).mpf - log_2sin(3, 7, 2 * prec).mpf,
        log_2sin(5, 11, prec).mpf - log_2sin(5, 11, 2 * prec).mpf,
    ]
    for diff in samples:
        assert abs(diff) <= mpmath.mpf(2) ** (-(prec - 16))
    # a Real carries no more bits than its tag: on seeded values of 2p bits,
    # Real(v, p) is v rounded to nearest at p bits, and rounding a 2p-bit
    # Real to p bits gives the same value
    rng = random.Random(prec)
    for _ in range(50):
        man = rng.getrandbits(2 * prec) | 1 << (2 * prec - 1) | 1
        with mp.workprec(2 * prec):
            v = mpmath.mpf((rng.choice((-1, 1)) * man, rng.randint(-4 * prec, 0)))
        assert v._mpf_[3] == 2 * prec  # exactly 2p significant bits
        with mp.workprec(prec):
            assert Real(v, prec).mpf == +v
        assert Real(v, 2 * prec).mpf == v
        assert Real(v, 2 * prec).round_to(prec).mpf == Real(v, prec).mpf


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_q4_relation_residual_is_zero():
    wp = working_prec(128)
    with mp.workprec(wp):
        residual = Real(2 * log_2sin_raw(1, 4, wp) - mpmath.log(2), wp)
    assert classify_zero(residual, 128).is_zero


def test_classify_nonzero_l_value():
    # L(1, chi) for the quadratic character mod 5, ~0.4304 by direct summation
    n = 200_000
    acc = 0.0
    pattern = {1: 1, 2: -1, 3: -1, 4: 1, 0: 0}
    for k in range(1, n + 1):
        acc += pattern[k % 5] / k
    assert abs(acc - 0.4304089409) < 1e-4  # oracle sanity, coarse tail
    # the tail bound above, 1e-4 < 2^-13, as the radius
    x = Real(mpmath.mpf(acc), 64, mpmath.mpf(2) ** -13)
    assert classify_zero(x, 40).is_nonzero


def test_classify_dead_band_is_indeterminate():
    target = 128
    x = Real(mpmath.mpf(2) ** (-3 * target // 4), working_prec(target))
    assert classify_zero(x, target).is_indeterminate


@pytest.mark.parametrize("target", (32, 33, 64, 127, 128, 192, 301))
def test_classify_bars_are_exact_powers_of_two(target):
    # the bars as built by exponent shift are the mpfs 2 ** -n that pow built
    for n in (target, target // 2):
        assert mpmath.ldexp(1, -n)._mpf_ == (mpmath.mpf(2) ** (-n))._mpf_
    wp = working_prec(target)

    def at(n, nudge):
        # 2^-n (1 + nudge 2^-60), exact at wp bits, with a radius far below it
        return Real(mp.make_mpf(from_man_exp(2**60 + nudge, -n - 60)), wp, mpmath.mpf(2) ** (-2 * target - 64))

    assert classify_zero(at(target, -1), target).is_zero
    assert classify_zero(at(target, 0), target).is_indeterminate
    assert classify_zero(at(target // 2, 0), target).is_indeterminate
    assert classify_zero(at(target // 2, 1), target).is_nonzero


def test_classify_nonzero_with_recompute_witness():
    # a value without a radius escalates once, to x.prec + 32 bits, where the
    # callback's ball (the log-sine with its tables' bound) decides
    calls = []

    def producer(w):
        calls.append(w)
        return Real(log_2sin_raw(1, 5, w), w, tables(5, w).eps_log_sines)

    wp = working_prec(128)
    cls = classify_zero(Real(log_2sin_raw(1, 5, wp), wp), 128, recompute=producer)
    assert calls == [wp + 32]
    assert cls.is_nonzero and cls.rigorous
    assert cls.residual.prec == wp + 32  # the ball that decided
    # eps_log_sines is 2^(7 - w) for q = 5
    assert cls.margin_bits == pytest.approx(math.log2(float(cls.residual)) - (7 - (wp + 32)))


def test_classify_recompute_disagreement_is_indeterminate():
    # a callback that returns no radius never decides, however often it runs
    x = Real(mpmath.mpf("0.25"), working_prec(128))
    cls = classify_zero(x, 128, recompute=lambda w: Real(mpmath.mpf("0.75"), w))
    assert cls.is_indeterminate and cls.margin_bits is None


def exact(x) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def never_called(wp):
    raise AssertionError("the radius decides: the recompute must not run")


def test_classify_radius_decides_without_calling_recompute():
    wp = working_prec(128)
    x = Real(mpmath.mpf("0.25"), wp, mpmath.mpf(2) ** -100)
    cls = classify_zero(x, 128, recompute=never_called)
    assert cls.is_nonzero and cls.rigorous
    assert cls.margin_bits == pytest.approx(98.0)  # log2(2^-2 / 2^-100)


def test_classify_radius_that_cannot_decide_falls_back_to_recompute():
    wp = working_prec(128)
    calls = []

    def producer(w):
        calls.append(w)
        return Real(mpmath.mpf("0.25"), w, mpmath.mpf(2) ** -100)

    x = Real(mpmath.mpf("0.25"), wp, mpmath.mpf(1))  # the enclosure [-0.75, 1.25] holds 0
    cls = classify_zero(x, 128, recompute=producer)
    # log2(rad / |x|) = 2 bits more, and 32 beyond them
    assert calls == [wp + 2 + 32]
    assert cls.is_nonzero and cls.rigorous
    assert cls.margin_bits == pytest.approx(98.0)  # log2(2^-2 / 2^-100), of the escalated ball


def test_classify_undecided_radius_and_disagreeing_recompute_is_indeterminate():
    x = Real(mpmath.mpf("0.25"), working_prec(128), mpmath.mpf(1))
    cls = classify_zero(x, 128, recompute=lambda w: Real(mpmath.mpf("0.75"), w, mpmath.mpf(1)))
    assert cls.is_indeterminate and not cls.rigorous and cls.margin_bits is None


def test_classify_undecided_radius_without_recompute_is_indeterminate():
    # a radius that holds 0 contradicts NonZero, and no radius decides nothing:
    # clearing the bar alone is not enough
    assert classify_zero(Real(mpmath.mpf("0.25"), 192, mpmath.mpf(1)), 128).is_indeterminate
    assert classify_zero(Real(mpmath.mpf("0.25"), 192), 128).is_indeterminate


@pytest.mark.parametrize("rad", (None, mpmath.mpf(1)))
def test_classify_escalates_at_most_max_escalations_times(rad):
    # a callback whose radius never shrinks: each ball escalates the next,
    # at 32 bits more (the radius holds 0 by 2 bits), until none is left
    wp = working_prec(128)
    calls = []

    def producer(w):
        calls.append(w)
        return Real(mpmath.mpf("0.25"), w, rad)

    cls = classify_zero(Real(mpmath.mpf("0.25"), wp, rad), 128, recompute=producer)
    assert cls.is_indeterminate
    assert len(calls) == MAX_ESCALATIONS == 3
    step = 32 if rad is None else 34
    assert calls == [wp + step * k for k in range(1, MAX_ESCALATIONS + 1)]


def test_classify_the_ball_of_the_last_escalation_decides():
    # a radius that shrinks only on the last escalation left still decides
    wp = working_prec(128)
    calls = []

    def producer(w):
        calls.append(w)
        return Real(mpmath.mpf("0.25"), w, mpmath.mpf(1) if len(calls) < MAX_ESCALATIONS else mpmath.mpf(2) ** -90)

    cls = classify_zero(Real(mpmath.mpf("0.25"), wp, mpmath.mpf(1)), 128, recompute=producer)
    assert len(calls) == MAX_ESCALATIONS and cls.is_nonzero


def test_classify_never_escalates_from_the_dead_band():
    # 2^-96 lies between the bars 2^-128 and 2^-64, radius or not
    for rad in (None, mpmath.mpf(2) ** -100, mpmath.mpf(1)):
        gray = Real(mpmath.mpf(2) ** -96, 192, rad)
        assert classify_zero(gray, 128, recompute=never_called).is_indeterminate


def test_an_escalated_ball_is_classified_by_its_own_radius():
    # the escalated value clears the bar, but its radius holds 0
    wp = working_prec(128)
    calls = []

    def producer(w):
        calls.append(w)
        return Real(mpmath.mpf("0.25"), w, mpmath.mpf(1) if len(calls) == 1 else mpmath.mpf(2) ** -90)

    cls = classify_zero(Real(mpmath.mpf("0.25"), wp), 128, recompute=producer)
    assert calls == [wp + 32, wp + 32 + 2 + 32]
    assert cls.is_nonzero and cls.margin_bits == pytest.approx(88.0)


def test_classify_radius_equal_to_the_magnitude_does_not_decide():
    # the enclosure [0, 2|x|] touches 0, so it does not exclude it
    x = Real(mpmath.mpf("0.25"), 192, mpmath.mpf("0.25"))
    assert classify_zero(x, 128).is_indeterminate


def test_classify_keeps_the_dead_band_and_numeric_zero_with_a_radius():
    tiny = mpmath.mpf(2) ** -200
    # below 2^-(target/2) a radius far below |x| still cannot make it NonZero
    gray = Real(mpmath.mpf(2) ** -96, 192, tiny)
    assert classify_zero(gray, 128, recompute=never_called).is_indeterminate
    zero = classify_zero(Real(mpmath.mpf(2) ** -140, 192, tiny), 128, recompute=never_called)
    assert zero.is_zero and not zero.rigorous
    assert zero.margin_bits == pytest.approx(12.0)  # 2^-140 lies 12 bits below 2^-128


def test_a_real_built_by_rounding_adds_its_rounding_to_the_radius():
    third = mpmath.mpf(1) / 3  # 53 bits, inexact at 40
    r = mpmath.mpf(2) ** -60
    x = Real(third, 40, r)
    assert exact(x.rad) >= exact(r) + abs(exact(x.mpf) - exact(third))
    # r rounded up to RADIUS_PREC bits, then the half ulp added, rounding up
    r_up = mpf_add(fzero, r._mpf_, RADIUS_PREC, round_ceiling)
    assert x.rad._mpf_ == mpf_add(r_up, half_ulp_raw(x.mpf._mpf_, 40), RADIUS_PREC, round_ceiling)
    # a value that fits adds nothing; a Real built from a Real keeps its radius
    assert Real(mpmath.mpf("0.25"), 40, r).rad == r
    assert Real(x, 80).rad == x.rad and x.round_to(80).rad == x.rad
    assert Real(x, 32).rad > x.rad
    assert Real(third, 40).rad is None
    # a Fraction converts with one rounding at prec, which the radius counts
    y = Real(Fraction(1, 3), 64, mpmath.mpf(0))
    assert exact(y.rad) >= abs(exact(y.mpf) - Fraction(1, 3))


# the eps of each family Tables.rule charges, one per attribute
RULE_EPS = {"log_sines": "eps_log_sines", "cos": "eps_roots", "cot": "eps_cot", "psi": "eps_psi"}


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(sorted(RULE_EPS)), st.fractions(min_value=0, max_value=10**6), min_size=1),
    st.sampled_from((3, 12, 101)),
    st.sampled_from((32, 96, 400)),
)
def test_radius_arithmetic_rounds_up_to_its_precision(weights, q, wp):
    # each weight * eps and each partial sum rounded up to RADIUS_PREC bits:
    # at least the exact share, and above it by one rounding per step at most
    tab = tables(q, wp)
    terms = [c * exact(getattr(tab, RULE_EPS[family])) for family, c in weights.items()]
    share = exact(mp.make_mpf(tab.rule(**weights)))
    assert sum(terms) <= share <= sum(terms) * (1 + Fraction(len(terms) + 1, 2 ** (RADIUS_PREC - 1)))
    # one weight alone: its scaling, above c eps by less than 2^-(RADIUS_PREC - 2) of it
    (family, c), *_ = weights.items()
    scaled = exact(mp.make_mpf(tab.rule(**{family: c})))
    assert terms[0] <= scaled <= terms[0] * (1 + Fraction(1, 2 ** (RADIUS_PREC - 2)))


BALL_VALUES = st.builds(
    lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
    st.integers(min_value=-(2**120), max_value=2**120),
    st.integers(min_value=-300, max_value=100),
)
BALL_RADII = st.fractions(min_value=0, max_value=2**10).map(lambda r: to_mpf(r, RADIUS_PREC))


def ball_points(x: Fraction, r: Fraction):
    """The ends of [x - r, x + r] and its point nearest 0."""
    return x - r, x + r, min(max(Fraction(0), x - r), x + r)


def root_within(square: Fraction, centre: Fraction, rad: Fraction) -> bool:
    """sqrt(square) lies within rad of centre >= 0."""
    return square <= (centre + rad) ** 2 and (centre <= rad or square >= (centre - rad) ** 2)


@settings(max_examples=200, deadline=None)
@given(
    BALL_VALUES,
    BALL_RADII,
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    st.sampled_from((32, 64, 192)),
)
def test_the_division_ball_encloses_every_exact_quotient(x, rad, n, wp):
    x = Real(x, wp).mpf
    quotient, out = map(mp.make_mpf, div_raw(x._mpf_, rad._mpf_, n, wp))
    for point in ball_points(exact(x), exact(rad)):
        assert abs(point / n - exact(quotient)) <= exact(out)


@settings(max_examples=200, deadline=None)
@given(
    BALL_VALUES,
    BALL_RADII,
    st.one_of(st.just(mpmath.mpf(0)), BALL_VALUES),
    BALL_RADII,
    st.booleans(),
    st.sampled_from((32, 64, 192)),
)
def test_the_hypot_ball_encloses_every_exact_magnitude(re, rad_re, im, rad_im, swap, wp):
    # a zero component among the draws, on either side
    re, im = (Real(v, wp).mpf for v in ((im, re) if swap else (re, im)))
    mag, out = map(mp.make_mpf, hypot_raw(re._mpf_, rad_re._mpf_, im._mpf_, rad_im._mpf_, wp))
    for a in ball_points(exact(re), exact(rad_re)):
        for b in ball_points(exact(im), exact(rad_im)):
            assert root_within(a * a + b * b, exact(mag), exact(out))
    ball = Real.ball(hypot_raw(re._mpf_, rad_re._mpf_, im._mpf_, rad_im._mpf_, wp), wp)
    assert (ball.mpf._mpf_, ball.rad._mpf_) == (mag._mpf_, out._mpf_)  # the Real form, bit for bit


@pytest.mark.parametrize("prec", (32, 53, 192))
def test_half_ulp_bounds_every_rounding_to_nearest(prec):
    rng = random.Random(prec)
    for _ in range(200):
        v = mp.make_mpf(from_man_exp(rng.getrandbits(400) | 1, rng.randint(-500, 100)))
        rounded = Real(v, prec).mpf
        assert abs(exact(rounded) - exact(v)) <= exact(mp.make_mpf(half_ulp_raw(rounded._mpf_, prec)))
    assert half_ulp_raw(fzero, prec) == fzero
    assert mp.make_mpf(half_ulp_raw(mpmath.mpf(1)._mpf_, prec)) == mpmath.mpf(2) ** -prec


# ---------------------------------------------------------------------------
# Real / Complex tag semantics
# ---------------------------------------------------------------------------

def test_real_precision_floor_enforced():
    with pytest.raises(PrecisionError):
        Real(mpmath.mpf(1), 8)


def test_complex_component_precisions_must_match():
    with pytest.raises(PrecisionError):
        Complex(Real(mpmath.mpf(1), 64), Real(mpmath.mpf(1), 128))


def test_real_is_immutable():
    x = const("pi", 64)
    with pytest.raises(AttributeError):
        x.prec = 128


def test_fraction_with_wide_numerator_is_correctly_rounded():
    # a numerator wider than wp bits must not be rounded before the division;
    # n/d with odd d > 1 not dividing n is never a midpoint, so rounding the
    # 1000-bit quotient to 64 bits is the correct rounding of n/d
    rng = random.Random(150)
    for _ in range(200):
        n = rng.choice((1, -1)) * (rng.getrandbits(149) | 1 << 149)
        d = rng.choice((3, 7, 11, 13))
        if n % d == 0:
            continue  # an integer converts exactly, at its own width
        with mp.workprec(1000):
            quotient = mpmath.mpf(n) / d
        assert to_mpf(Fraction(n, d), 64) == mpmath.mpf(quotient, prec=64, rounding="n"), (n, d)


def test_int_converts_exactly_without_a_precision_scope(monkeypatch):
    rng = random.Random(400)
    ints = [0, 1, -1] + [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 400)) for _ in range(300)]
    exact = []
    for n in ints:
        with mp.workprec(max(n.bit_length(), 1) + 1):
            exact.append(mpmath.mpf(n))

    def no_scope(*args, **kwargs):
        raise AssertionError("an int conversion entered a precision scope")

    prec = mp.prec
    monkeypatch.setattr(mp, "workprec", no_scope)
    for n, want in zip(ints, exact):
        got = to_mpf(n, 64)
        assert got == want and int(got) == n, n
    assert mp.prec == prec


def test_integral_fraction_converts_in_one_call(monkeypatch):
    # every scan sign is a Fraction(+-1); it converts as its numerator does,
    # without entering to_mpf a second time through the int branch
    import cyclolog.kernel as kernel

    calls = []
    original = kernel.to_mpf

    def counting(x, wp):
        calls.append(x)
        return original(x, wp)

    monkeypatch.setattr(kernel, "to_mpf", counting)
    got = kernel.to_mpf(Fraction(-1), 64)
    assert calls == [Fraction(-1)]
    assert got == -1 and got._mpf_ == to_mpf(-1, 64)._mpf_


@settings(deadline=None, max_examples=60)
@given(q=st.integers(min_value=2, max_value=60), k=st.integers(min_value=1, max_value=1000))
def test_fold_symmetry_property(q, k):
    if k % q == 0:
        return
    assert fold(k, q) == fold(-k, q) == fold(k + q, q)
    assert log_2sin(k, q, 64).mpf == log_2sin(-k, q, 64).mpf


# ---------------------------------------------------------------------------
# the decimal renderer
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    negative=st.booleans(),
    man=st.integers(min_value=0, max_value=2**400),
    exp=st.one_of(st.integers(min_value=-800, max_value=800), st.integers(min_value=-5000, max_value=5000)),
)
def test_dec_str_is_nstr_at_every_digit_count(negative, man, exp):
    # zero, |exp + bc| beyond 3500 (to_str's own branch) and every digit
    # count up to what 1024 bits carry
    x = mp.make_mpf(from_man_exp(-man if negative else man, exp))
    for digits in range(1, decimal_digits(1024) + 1):
        assert dec_str(x, digits) == mpmath.nstr(x, digits), digits


@pytest.mark.parametrize(
    "text,digits,rendered",
    [
        # the carry through 9s reaches the front and raises the exponent
        ("9.9996", 4, "10.0"),
        ("-9.9996", 4, "-10.0"),
        ("0.99996", 4, "1.0"),
        ("999.96", 3, "1.0e+3"),
        ("9.96e-7", 2, "1.0e-6"),
        # a carry that stops before the front
        ("1.2996", 4, "1.3"),
        # a 5 on the rounding digit rounds up (exact binary values)
        ("2.5", 1, "3.0"),
        ("99.5", 2, "1.0e+2"),
        # the upper edge of the fixed-point window: exponent < digits
        ("12345.6", 5, "12346.0"),
        ("123456.0", 5, "1.2346e+5"),
        # the lower edge: min(-(digits // 3), -5) < exponent
        ("0.00012345", 5, "0.00012345"),
        ("0.000012345", 5, "1.2345e-5"),
        ("1.5e-18", 57, "0.0000000000000000015"),
        ("1.5e-19", 57, "1.5e-19"),
        ("2.5e-24", 77, "0.0000000000000000000000025"),
        ("2.5e-25", 77, "2.5e-25"),
    ],
)
def test_dec_str_carry_and_fixed_point_window(text, digits, rendered):
    with mp.workprec(400):
        x = mpmath.mpf(text)
    assert dec_str(x, digits) == rendered == to_str(x._mpf_, digits)


@pytest.mark.parametrize("prec", [53, 64, 128, 192, 256, 1024])
def test_dec_str_at_the_digit_counts_of_scan_lseries_and_certificate(prec):
    # all-ones mantissas (every rounding carries) and near powers of ten
    digits = decimal_digits(prec)
    wp = working_prec(prec)
    values = [
        from_man_exp(2**bits - 1, e)
        for bits in (1, 53, wp, wp + 3)
        for e in (-bits - 70, -bits - 3, -bits, 0, 40)
    ]
    with mp.workprec(wp):
        for k in range(-30, 31, 3):
            p = mpmath.mpf(10) ** k
            values += [p._mpf_, (p * (1 - mpmath.eps))._mpf_, (p * (1 + mpmath.eps))._mpf_]
    for v in values:
        for x in (mp.make_mpf(v), -mp.make_mpf(v)):
            assert dec_str(x, digits) == to_str(x._mpf_, digits)
            assert dec_str(Real(x, prec), digits) == to_str(Real(x, prec).mpf._mpf_, digits)


def test_dec_str_beyond_the_int_to_str_digit_limit_is_to_str():
    # more digits than str() of an int may give by default (4300)
    with mp.workprec(16000):
        x = mpmath.mpf(1) / 3
    assert dec_str(x, 4500) == to_str(x._mpf_, 4500)


def test_every_value_a_q15_scan_renders_is_to_str(monkeypatch):
    import cyclolog.scans as scans

    agree = []
    values = {}  # each rendered text -> the raw value it renders

    def checked(x, digits):
        text = dec_str(x, digits)
        agree.append(text == to_str(x._mpf_, digits))
        values[text] = x._mpf_
        return text

    monkeypatch.setattr(scans, "dec_str", checked)
    half = comb(14, 7) // 2
    pairs = scans._scan_range(15, 192, 0, half)
    assert len(pairs) == half
    # L and cot of every record of the first half, and each of the 1,934
    # distinct exact integers its 12,012 cos sums take, rendered once
    assert len(agree) == 2 * half + 1934 and all(agree)
    # every text of a complement is to_str of the negated value
    digits = decimal_digits(192)
    for row, twin in pairs:
        texts, twin_texts = ([r["L"], r["cot_sum"], *r["cos_sums"]] for r in map(json.loads, (row[4], twin[4])))
        for text, twin_text in zip(texts, twin_texts):
            assert twin_text == to_str(mpf_neg(values[text]), digits)


def test_log_2sin_raw_rejects_a_modulus_below_2():
    with pytest.raises(ValueError, match=r"^modulus must be >= 2, got 1$"):
        log_2sin_raw(1, 1, 96)


def test_classify_zero_rejects_a_bare_mpf():
    with pytest.raises(TypeError, match=r"^classify_zero expects a Real$"):
        classify_zero(mpmath.mpf(1), 64)


def test_complex_takes_real_parts_and_is_immutable():
    one = Real(mpmath.mpf(1), 64)
    with pytest.raises(TypeError, match=r"^Complex components must be Real$"):
        Complex(one, mpmath.mpf(0))
    with pytest.raises(TypeError, match=r"^Complex components must be Real$"):
        Complex(1, one)
    z = Complex(one, one)
    with pytest.raises(AttributeError, match=r"^Complex is immutable$"):
        z.re = Real(mpmath.mpf(2), 64)
