"""L-series tests: Hurwitz zeta, both digamma implementations against each
other, the three L(1,f) routes, the Gauss-sum route, and the decomposition.

Oracles: bracketed direct summation for Hurwitz zeta, the asymptotic-series
digamma for the closed-form assembly, a class-number closed form for
L(1, chi) mod 5, and float partial sums with explicit tail bounds.
"""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from cyclolog import lseries
from cyclolog.characters import PeriodicFunction, enumerate_characters, fourier_transform_raw
from cyclolog.kernel import classify_zero, const, working_prec
from cyclolog.lseries import (
    DEFAULT_DIRECT_TERMS,
    NonConvergentSeriesError,
    decompose_l1,
    digamma,
    digamma_raw,
    digamma_series,
    digamma_series_raw,
    hurwitz_zeta,
    l1,
    l1_chi_raw,
    l1_chi_via_gauss,
    l1_direct_result,
)
from cyclolog.scans import bbw_function

TOL112 = mpmath.mpf(2) ** -112


def quadratic_character(p):
    return next(ch for ch in enumerate_characters(p) if ch.order == 2)


def character_as_function(chi):
    vals = []
    for a in range(1, chi.modulus + 1):
        t = chi.value_exponent(a)
        vals.append(Fraction(0) if t is None else (Fraction(1) if t == 0 else Fraction(-1)))
    return PeriodicFunction(chi.modulus, tuple(vals))


def bracket_hurwitz(s: float, x: float, n: int = 2_000_000):
    """Direct-summation bracket: head + integral tail encloses zeta(s, x)."""
    ks = np.arange(n, dtype=np.float64)
    head = float(np.sum((ks + x) ** (-s)))
    tail_low = (n + x) ** (1 - s) / (s - 1)
    return head + tail_low, head + tail_low + (n + x) ** (-s)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def test_hurwitz_at_s2_x1_is_pi2_over_6():
    v = hurwitz_zeta(2, 1, 128)
    with mp.workprec(256):
        assert abs(v.mpf - mpmath.pi**2 / 6) < TOL112


def test_hurwitz_at_s2_half_is_pi2_over_2():
    v = hurwitz_zeta(2, Fraction(1, 2), 128)
    with mp.workprec(256):
        assert abs(v.mpf - mpmath.pi**2 / 2) < TOL112
    lo, hi = bracket_hurwitz(2.0, 0.5)
    assert lo - 1e-9 <= float(v) <= hi + 1e-9


@pytest.mark.parametrize("s,x", [(2.0, 1.0), (3.0, 0.25), (1.5, 0.75)])
def test_hurwitz_within_direct_summation_bracket(s, x):
    v = float(hurwitz_zeta(Fraction(s).limit_denominator(8), Fraction(x).limit_denominator(8), 96))
    lo, hi = bracket_hurwitz(s, x)
    assert lo - 1e-8 <= v <= hi + 1e-8


def test_hurwitz_doubling_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s, 1)
    for s in (2, 3, 4):
        lhs = hurwitz_zeta(s, Fraction(1, 2), 128)
        rhs = hurwitz_zeta(s, 1, 128)
        with mp.workprec(192):
            assert abs(lhs.mpf - (2**s - 1) * rhs.mpf) < mpmath.mpf(2) ** -110


def test_hurwitz_matches_library_reference():
    # extra cross-check on top of the summation bracket: mpmath's own zeta
    grid = [
        (Fraction(3, 2), Fraction(1, 7)),
        (Fraction(2), Fraction(5, 8)),
        (Fraction(7, 3), Fraction(1)),
        (Fraction(5), Fraction(2, 9)),
        (Fraction(101, 100), Fraction(3, 4)),
    ]
    for s, x in grid:
        v = hurwitz_zeta(s, x, 160)
        with mp.workprec(260):
            ref = mpmath.zeta(
                mpmath.mpf(s.numerator) / s.denominator,
                mpmath.mpf(x.numerator) / x.denominator,
            )
            assert abs(v.mpf - ref) < mpmath.mpf(2) ** -150, (s, x)


def test_digamma_matches_library_reference():
    for q in (3, 7, 10, 12):
        for a in range(1, q):
            v = digamma(a, q, 160)
            with mp.workprec(260):
                ref = mpmath.digamma(mpmath.mpf(a) / q)
                assert abs(v.mpf - ref) < mpmath.mpf(2) ** -150, (a, q)


def test_hurwitz_rejects_pole_and_bad_x():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, Fraction(1, 2), 64)
    with pytest.raises(ValueError):
        hurwitz_zeta(Fraction(1, 2), Fraction(1, 2), 64)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0, 64)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 2, 64)


@pytest.mark.parametrize("a,q", [(1, 3), (1, 4), (2, 5), (3, 7)])
def test_hurwitz_expansion_constant_term_is_minus_digamma(a, q):
    # zeta(1+eps, x) - 1/eps -> -psi(x); fit the slope from the two largest eps
    prec = 160
    wp = working_prec(prec)
    x = Fraction(a, q)
    psi = digamma_raw(a, q, wp)
    devs = {}
    with mp.workprec(wp):
        for e_exp in (10, 15, 20):
            eps = mpmath.mpf(2) ** -e_exp
            z = hurwitz_zeta(1 + eps, x, prec)
            devs[e_exp] = abs(z.mpf - 1 / eps + psi)
        c_fit = 1.5 * max(devs[10] * 2**10, devs[15] * 2**15)
        assert devs[20] <= c_fit * mpmath.mpf(2) ** -20 + mpmath.mpf(2) ** -100


# ---------------------------------------------------------------------------
# digamma: closed form vs independent oracle
# ---------------------------------------------------------------------------

def test_digamma_half():
    v = digamma(1, 2, 128)
    closed = -const("euler_gamma", 192) - 2 * const("log2", 192)
    assert abs((v - closed).mpf) < TOL112
    assert abs(v.mpf - digamma_series_raw(Fraction(1, 2), 192)) < TOL112


def test_digamma_quarter():
    v = digamma(1, 4, 128)
    with mp.workprec(192):
        closed = -mpmath.euler - 3 * mpmath.log(2) - mpmath.pi / 2
        assert abs(v.mpf - closed) < TOL112
    assert abs(v.mpf - digamma_series_raw(Fraction(1, 4), 192)) < TOL112


def test_digamma_closed_form_vs_oracle_sweep():
    prec = 128
    wp = working_prec(prec)
    for q in range(2, 13):
        for a in range(1, q):
            closed = digamma_raw(a, q, wp)
            oracle = digamma_series_raw(Fraction(a, q), wp)
            with mp.workprec(wp):
                assert abs(closed - oracle) < mpmath.mpf(2) ** (-prec + 16), (a, q)


def test_digamma_rejects_bad_range():
    with pytest.raises(ValueError):
        digamma(0, 5, 64)
    with pytest.raises(ValueError):
        digamma(5, 5, 64)


def test_digamma_series_public_wrapper():
    v = digamma_series(Fraction(3, 7), 128)
    assert abs(v.mpf - digamma_raw(3, 7, 192)) < TOL112


# ---------------------------------------------------------------------------
# L(1, f): values and route agreement
# ---------------------------------------------------------------------------

def test_l1_q3_classical_value():
    f = PeriodicFunction.from_rationals(3, [1, -1, 0])
    v = l1(f, "digamma", 128)
    with mp.workprec(256):
        assert abs(v.mpf - mpmath.pi / (3 * mpmath.sqrt(3))) < TOL112
    # direct-summation oracle with explicit tail bound
    res = l1_direct_result(f)
    assert abs(float(res.value) - float(v)) <= res.tail_bound + 1e-12


def test_l1_quadratic_mod5_value():
    chi = quadratic_character(5)
    f = character_as_function(chi)
    vd = l1(f, "digamma", 128)
    vf = l1(f, "fourier", 128)
    with mp.workprec(256):
        closed = 2 * mpmath.log((1 + mpmath.sqrt(5)) / 2) / mpmath.sqrt(5)
        assert abs(vd.mpf - closed) < TOL112
    assert abs((vd - vf).mpf) < TOL112
    assert str(vd.to_decimal(12)).startswith("0.43040894096")


def test_l1_zero_function_is_zero():
    f = PeriodicFunction.from_rationals(4, [0, 0, 0, 0])
    assert l1(f, "digamma", 128).mpf == 0


def test_l1_rejects_divergent_series():
    f = PeriodicFunction.from_rationals(3, [1, 1, 0])
    with pytest.raises(NonConvergentSeriesError):
        l1(f, "digamma", 64)


def test_l1_rejects_unknown_route():
    f = PeriodicFunction.from_rationals(3, [1, -1, 0])
    with pytest.raises(ValueError):
        l1(f, "abel", 64)


def test_fourier_route_accepts_a_vanishing_l_with_large_summands():
    # L(1, f) is about 0 while sum |f(a)| is about 2.3e21: the imaginary
    # part's noise scales with the summands, not with the result
    f = bbw_function(25, 23, 128)
    total = mpmath.fsum(abs(v.mpf) for v in f.values)
    vf = l1(f, "fourier", 128)
    vd = l1(f, "digamma", 128)
    assert abs((vf - vd).mpf) <= mpmath.mpf(2) ** -(128 - 8) * total


def test_fourier_route_rejects_an_imaginary_part(monkeypatch):
    f = PeriodicFunction.from_rationals(7, [1, 1, -1, 1, -1, -1, 0])
    assert l1(f, "fourier", 128).mpf > 0  # the check passes on the true transform

    def skewed(g, wp):
        fhat = fourier_transform_raw(g, wp)
        re, im = fhat[1]
        with mp.workprec(wp):
            fhat[1] = (re, im + mpmath.mpf(2) ** -40)
        return fhat

    monkeypatch.setattr(lseries, "fourier_transform_raw", skewed)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        l1(f, "fourier", 128)


def random_zero_mean_function(rng, q):
    """Pairs of opposite rational values: zero mean with |f| <= 2."""
    values = [Fraction(0)] * q
    idx = list(range(q - 1))
    rng.shuffle(idx)
    for i in range(0, len(idx) - 1, 2):
        mag = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        values[idx[i]] = mag / 2
        values[idx[i + 1]] = -mag / 2
    return PeriodicFunction(q, tuple(values))


def test_route_agreement_random_sample():
    rng = random.Random(20260808)
    for _ in range(25):
        q = rng.randint(3, 30)
        f = random_zero_mean_function(rng, q)
        vd = l1(f, "digamma", 128)
        vf = l1(f, "fourier", 128)
        assert abs((vd - vf).mpf) < TOL112
        res = l1_direct_result(f, 2 * 10**6)
        assert abs(float(res.value) - float(vd)) < res.tail_bound + 1e-10


def test_direct_route_tail_bound_is_explicit():
    f = PeriodicFunction.from_rationals(7, [1, -1, 1, -1, 1, -1, 0])
    res = l1_direct_result(f, DEFAULT_DIRECT_TERMS)
    assert res.n_terms % 7 == 0
    assert 0 < res.tail_bound < 1e-5
    assert res.value.prec == 53


# ---------------------------------------------------------------------------
# the Gauss-sum route for even characters
# ---------------------------------------------------------------------------

def test_l1_chi_via_gauss_mod5_closed_form():
    chi = quadratic_character(5)
    v = l1_chi_via_gauss(chi, 128)
    with mp.workprec(256):
        closed = 2 * mpmath.log((1 + mpmath.sqrt(5)) / 2) / mpmath.sqrt(5)
        assert abs(v.re.mpf - closed) < TOL112
    assert abs(v.im.mpf) < TOL112  # real character: imaginary part is noise
    f = character_as_function(chi)
    assert abs((v.re - l1(f, "fourier", 128)).mpf) < TOL112


def test_l1_chi_via_gauss_mod13_class_number_form():
    # real quadratic field of discriminant 13: h = 1, fundamental unit (3+sqrt13)/2
    chi = quadratic_character(13)
    v = l1_chi_via_gauss(chi, 128)
    with mp.workprec(256):
        closed = 2 * mpmath.log((3 + mpmath.sqrt(13)) / 2) / mpmath.sqrt(13)
        assert abs(v.re.mpf - closed) < TOL112
    assert abs(v.im.mpf) < TOL112


def test_l1_chi_via_gauss_mod7_nonzero():
    for chi in enumerate_characters(7, even_only=True):
        if chi.is_principal:
            continue
        v = l1_chi_via_gauss(chi, 128)
        magnitude = abs(v)
        assert float(magnitude) > 0.1
        assert classify_zero(magnitude, 100).is_nonzero


def test_l1_chi_gauss_consistency_identity():
    # result * (-p / tau(chi)) equals the character-weighted log sum
    from cyclolog.characters import gauss_sum_raw, unit_root
    from cyclolog.kernel import log_2sin_raw

    p = 7
    prec = 128
    wp = working_prec(prec)
    for chi in enumerate_characters(p, even_only=True):
        if chi.is_principal:
            continue
        re, im = l1_chi_raw(chi, wp)
        tre, tim = gauss_sum_raw(chi, wp)
        chibar = chi.conjugate()
        with mp.workprec(wp):
            sre = mpmath.mpf(0)
            sim = mpmath.mpf(0)
            for k in range(1, p):
                t = chibar.value_exponent(k)
                c, s = unit_root(t.numerator, t.denominator, wp)
                lg = log_2sin_raw(k, p, wp)
                sre += c * lg
                sim += s * lg
            # L * (-p / tau) = S  <=>  L * (-p) = S * tau
            lhs = mpmath.mpc(re, im) * (-p)
            rhs = mpmath.mpc(sre, sim) * mpmath.mpc(tre, tim)
            assert abs(lhs - rhs) < mpmath.mpf(2) ** (-prec + 16)


def test_l1_chi_via_gauss_rejects_bad_characters():
    with pytest.raises(ValueError):
        l1_chi_via_gauss(quadratic_character(5).conjugate().__class__(8, (0, 0)), 64)
    odd_chi = next(ch for ch in enumerate_characters(5) if not ch.is_even)
    with pytest.raises(ValueError):
        l1_chi_via_gauss(odd_chi, 64)
    from cyclolog.characters import principal_character

    with pytest.raises(ValueError):
        l1_chi_via_gauss(principal_character(5), 64)


# ---------------------------------------------------------------------------
# decomposition over the log basis
# ---------------------------------------------------------------------------

def test_decompose_q3_hand_values():
    f = PeriodicFunction.from_rationals(3, [1, -1, 0])
    vec = decompose_l1(f, 128)
    with mp.workprec(256):
        assert abs(vec.pi_coeff.mpf - 1 / (3 * mpmath.sqrt(3))) < TOL112
    assert abs(vec.log2sin_coeffs[1].mpf) < TOL112
    assert abs((vec.value - l1(f, "digamma", 128)).mpf) < TOL112


def test_sign_regression_pi_coefficient_positive():
    # guards the documented sign correction: pi coefficient is +1/(3 sqrt 3)
    f = PeriodicFunction.from_rationals(3, [1, -1, 0])
    vec = decompose_l1(f, 128)
    assert vec.pi_coeff.mpf > 0
    assert float(vec.pi_coeff) == pytest.approx(0.19245008972987525, rel=1e-12)
    assert float(vec.value) == pytest.approx(0.6045997880780726, rel=1e-12)


def test_decompose_odd_function_has_no_log_terms():
    # odd f: cosine sums vanish termwise
    q = 9
    vals = [1, -2, 3, 0, 0, -3, 2, -1, 0]
    f = PeriodicFunction.from_rationals(q, vals)
    assert all(f.value_at(q - a) == -f.value_at(a) for a in range(1, q))
    vec = decompose_l1(f, 128)
    for b, c in vec.log2sin_coeffs.items():
        assert abs(c.mpf) < TOL112, b


def test_decompose_even_function_has_no_pi_term():
    q = 7
    vals = [1, -1, 0, 0, -1, 1, 0]
    f = PeriodicFunction.from_rationals(q, vals)
    assert all(f.value_at(q - a) == f.value_at(a) for a in range(1, q))
    vec = decompose_l1(f, 128)
    assert abs(vec.pi_coeff.mpf) < TOL112


def test_decompose_even_modulus_log2_term():
    # alternating character mod 4: L = log 2 via the log2 slot
    f = PeriodicFunction.from_rationals(4, [1, -1, 1, -1])
    vec = decompose_l1(f, 128)
    with mp.workprec(192):
        assert abs(vec.value.mpf - mpmath.log(2)) < TOL112
    assert abs((vec.value - l1(f, "digamma", 128)).mpf) < TOL112


def test_decompose_handles_nonzero_value_at_q():
    rng = random.Random(17)
    for q in (5, 6, 9, 12):
        vals = [Fraction(rng.randint(-2, 2)) for _ in range(q - 1)]
        vals.append(-sum(vals, Fraction(0)))
        f = PeriodicFunction(q, tuple(vals))
        if f.value_at(q) == 0:
            vals[0] += 1
            vals[-1] -= 1
            f = PeriodicFunction(q, tuple(vals))
        vec = decompose_l1(f, 128)
        assert abs((vec.value - l1(f, "digamma", 128)).mpf) < TOL112, q


def test_decompose_odd_modulus_has_exact_zero_log2_coeff():
    f = PeriodicFunction.from_rationals(5, [1, -1, -1, 1, 0])
    vec = decompose_l1(f, 128)
    assert vec.log2_coeff.mpf == 0


def test_decompose_value_matches_l1_random():
    rng = random.Random(4096)
    for _ in range(15):
        q = rng.randint(3, 24)
        f = random_zero_mean_function(rng, q)
        vec = decompose_l1(f, 128)
        assert abs((vec.value - l1(f, "digamma", 128)).mpf) < TOL112


def test_decompose_rejects_divergent():
    f = PeriodicFunction.from_rationals(5, [1, 1, -1, 1, 0])
    with pytest.raises(NonConvergentSeriesError):
        decompose_l1(f, 64)


@pytest.mark.parametrize("prec", [96, 128])
def test_stability_doubling_analytic_operations(prec):
    # the first prec-16 bits never move when precision doubles
    f = PeriodicFunction.from_rationals(7, [1, 1, -1, 1, -1, -1, 0])
    pairs = [
        (hurwitz_zeta(2, Fraction(1, 3), prec).mpf, hurwitz_zeta(2, Fraction(1, 3), 2 * prec).mpf),
        (digamma(2, 7, prec).mpf, digamma(2, 7, 2 * prec).mpf),
        (l1(f, "digamma", prec).mpf, l1(f, "digamma", 2 * prec).mpf),
        (l1(f, "fourier", prec).mpf, l1(f, "fourier", 2 * prec).mpf),
    ]
    with mp.workprec(4 * prec):
        for lo, hi in pairs:
            scale = max(1, abs(hi))
            assert abs(lo - hi) <= scale * mpmath.mpf(2) ** (-(prec - 16))
