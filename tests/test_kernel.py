"""Kernel tests: constants against published digit tables, log(2 sin .),
zero classification, and the precision-tag rounding rule."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cyclolog.kernel import (
    Complex,
    PrecisionError,
    Real,
    classify_zero,
    const,
    log_2sin,
    log_2sin_raw,
    to_mpf,
    working_prec,
)

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
    x = Real(mpmath.mpf(acc), 64)
    assert classify_zero(x, 40).is_nonzero


def test_classify_dead_band_is_indeterminate():
    target = 128
    x = Real(mpmath.mpf(2) ** (-3 * target // 4), working_prec(target))
    assert classify_zero(x, target).is_indeterminate


def test_classify_nonzero_with_recompute_witness():
    def producer(wp):
        return log_2sin_raw(1, 5, wp)

    x = Real(producer(working_prec(128)), working_prec(128))
    cls = classify_zero(x, 128, recompute=producer)
    assert cls.is_nonzero


def test_classify_recompute_disagreement_is_indeterminate():
    x = Real(mpmath.mpf("0.25"), working_prec(128))
    cls = classify_zero(x, 128, recompute=lambda wp: mpmath.mpf("0.75"))
    assert cls.is_indeterminate


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
    assert log_2sin(k, q, 64).mpf == log_2sin(-k, q, 64).mpf
