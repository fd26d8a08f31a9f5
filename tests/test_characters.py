"""Character machinery: unit groups, enumeration, Gauss sums, transforms.

Brute-force oracles live in this file: multiplicative orders by repeated
multiplication, Gauss sums by literal term-by-term complex evaluation.
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cyclolog.characters import (
    PeriodicFunction,
    enumerate_characters,
    euler_phi,
    fourier_transform,
    fourier_transform_raw,
    gauss_sum,
    inverse_fourier,
    is_prime,
    principal_character,
    unit_group_structure,
)
from cyclolog.kernel import working_prec
from cyclolog.scans import bbw_function
from cyclolog.tables import tables


def brute_order(g, q):
    x = g % q
    n = 1
    while x != 1:
        x = x * g % q
        n += 1
    return n


def brute_subgroup(gens, q):
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g % q
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

def test_unit_group_q5_single_generator_of_order_4():
    st5 = unit_group_structure(5)
    assert st5.orders == (4,)
    assert brute_order(st5.generators[0], 5) == 4


def test_unit_group_q8_two_generators_of_order_2():
    st8 = unit_group_structure(8)
    assert sorted(st8.orders) == [2, 2]
    assert brute_subgroup(st8.generators, 8) == {1, 3, 5, 7}


def test_unit_group_q2_trivial():
    st2 = unit_group_structure(2)
    assert st2.generators == ()
    assert st2.group_order == 1


@pytest.mark.parametrize("q", list(range(2, 61)))
def test_unit_group_structure_valid(q):
    s = unit_group_structure(q)
    assert s.group_order == euler_phi(q)
    for g, o in zip(s.generators, s.orders):
        assert gcd(g, q) == 1
        assert brute_order(g, q) == o
    units = {a for a in range(1, q + 1) if gcd(a, q) == 1}
    assert brute_subgroup(s.generators, q) == units


# ---------------------------------------------------------------------------
# character enumeration
# ---------------------------------------------------------------------------

def test_enumerate_q5_counts():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    assert len(set(chars)) == 4
    assert sum(ch.is_even for ch in chars) == 2


def test_enumerate_q3_nontrivial_is_quadratic():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    nontriv = next(ch for ch in chars if not ch.is_principal)
    assert nontriv.order == 2
    assert nontriv.value_exponent(1) == 0
    assert nontriv.value_exponent(2) == Fraction(1, 2)  # chi(2) = -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_even_character_count_for_odd_prime(p):
    assert len(enumerate_characters(p, even_only=True)) == (p - 1) // 2


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 15, 16, 24])
def test_enumerate_counts_and_uniqueness(q):
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q)
    assert len(set(chars)) == len(chars)


def test_character_multiplicativity_exact():
    for q in (5, 8, 12, 15):
        for chi in enumerate_characters(q):
            for a in range(1, q + 1):
                for b in range(1, q + 1):
                    ta, tb, tab = (
                        chi.value_exponent(a),
                        chi.value_exponent(b),
                        chi.value_exponent(a * b),
                    )
                    if ta is None or tb is None:
                        assert tab is None
                    else:
                        assert (ta + tb) % 1 == tab


def test_chi_minus_one_is_exact_sign():
    for q in (3, 4, 5, 7, 8, 9, 16):
        for chi in enumerate_characters(q):
            assert chi.sign_at_minus_one() in (-1, 1)


def test_vanishing_off_units():
    chi = principal_character(6)
    assert chi.value_exponent(2) is None
    assert chi.value_exponent(3) is None
    z = chi.value(4, 64)
    assert z.re.mpf == 0 and z.im.mpf == 0


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

def brute_gauss_sum(chi, prec=128):
    """Literal term-by-term evaluation with mpmath complex exponentials."""
    q = chi.modulus
    with mp.workprec(prec):
        total = mpmath.mpc(0)
        for a in range(1, q + 1):
            t = chi.value_exponent(a)
            if t is None:
                continue
            ang = 2 * mpmath.pi * (mpmath.mpf(t.numerator) / t.denominator + mpmath.mpf(a) / q)
            total += mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
        return total


def quadratic_character(p):
    return next(ch for ch in enumerate_characters(p) if ch.order == 2)


def test_gauss_sum_quadratic_mod5_is_sqrt5():
    tau = gauss_sum(quadratic_character(5), 128)
    with mp.workprec(192):
        assert abs(tau.re.mpf - mpmath.sqrt(5)) < mpmath.mpf(2) ** -120
    assert abs(tau.im.mpf) < mpmath.mpf(2) ** -120
    with mp.workprec(200):
        brute = brute_gauss_sum(quadratic_character(5), 200)
        assert abs(tau.to_mpc() - brute) < mpmath.mpf(2) ** -100


def test_gauss_sum_magnitude_mod7():
    for chi in enumerate_characters(7):
        if chi.is_principal:
            continue
        tau = gauss_sum(chi, 128)
        with mp.workprec(192):
            norm2 = tau.re.mpf**2 + tau.im.mpf**2
            assert abs(norm2 - 7) < mpmath.mpf(2) ** -110


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_gauss_sum_principal_is_minus_one(p):
    tau = gauss_sum(principal_character(p), 128)
    assert abs(tau.re.mpf + 1) < mpmath.mpf(2) ** -120
    assert abs(tau.im.mpf) < mpmath.mpf(2) ** -120


def test_gauss_sum_matches_brute_force_samples():
    for q in (5, 7, 8, 12):
        for chi in enumerate_characters(q)[:4]:
            tau = gauss_sum(chi, 96)
            with mp.workprec(200):
                assert abs(tau.to_mpc() - brute_gauss_sum(chi, 200)) < mpmath.mpf(2) ** -80


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7, 8, 12, 15])
def test_orthogonality(q):
    prec = 96
    wp = working_prec(prec)
    chars = enumerate_characters(q)
    with mp.workprec(wp):
        for chi in chars:
            for psi in chars:
                prod = chi * psi.conjugate()
                total = mpmath.mpc(0)
                for a in range(1, q + 1):
                    t = prod.value_exponent(a)
                    if t is None:
                        continue
                    ang = 2 * mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                    total += mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
                if chi == psi:
                    assert abs(total - euler_phi(q)) < mpmath.mpf(2) ** (-prec + 16)
                else:
                    assert abs(total) < mpmath.mpf(2) ** (-prec + 16)


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

def test_fourier_zero_mean_kills_top_coefficient():
    f = PeriodicFunction.from_rationals(7, [1, -1, 2, -2, 3, -3, 0])
    prec = 128
    fhat = fourier_transform(f, prec)
    assert float(abs(fhat[7])) < 2.0 ** (-prec + 16)


def test_fourier_of_character_is_gauss_sum_twist():
    # fhat(k) = conj(chi)(-k)/p * tau(chi) for gcd(k, p) = 1
    p = 7
    prec = 128
    for chi in enumerate_characters(p):
        if chi.is_principal or chi.order > 2:
            continue
        f = PeriodicFunction.from_rationals(
            p,
            [
                1 if chi.value_exponent(a) == 0 else -1 if chi.value_exponent(a) is not None else 0
                for a in range(1, p + 1)
            ],
        )
        fhat = fourier_transform(f, prec)
        tau = gauss_sum(chi, prec)
        chibar = chi.conjugate()
        with mp.workprec(working_prec(prec)):
            for k in range(1, p):
                t = chibar.value_exponent(-k)
                ang = 2 * mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                expected = mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang)) * tau.to_mpc() / p
                assert abs(fhat[k].to_mpc() - expected) < mpmath.mpf(2) ** (-prec + 16)


def test_fourier_of_residue_indicator():
    q = 9
    prec = 96
    f = PeriodicFunction.from_rationals(q, [1] + [0] * (q - 1))
    fhat = fourier_transform(f, prec)
    with mp.workprec(working_prec(prec)):
        for k in range(1, q + 1):
            expected = mpmath.mpc(
                mpmath.cospi(mpmath.mpf(-2 * k) / q), mpmath.sinpi(mpmath.mpf(-2 * k) / q)
            ) / q
            assert abs(fhat[k].to_mpc() - expected) < mpmath.mpf(2) ** (-prec + 16)


@settings(deadline=None, max_examples=25)
@given(
    q=st.integers(min_value=2, max_value=18),
    data=st.data(),
)
def test_fourier_round_trip(q, data):
    prec = 96
    values = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=q,
            max_size=q,
        )
    )
    f = PeriodicFunction(q, tuple(values))
    fhat = fourier_transform(f, prec)
    back = inverse_fourier(fhat, q, prec)
    with mp.workprec(working_prec(prec)):
        for n in range(1, q + 1):
            orig = mpmath.mpf(values[n - 1].numerator) / values[n - 1].denominator
            assert abs(back[n].re.mpf - orig) < mpmath.mpf(2) ** (-prec + 16)
            assert abs(back[n].im.mpf) < mpmath.mpf(2) ** (-prec + 16)


def reference_fourier_raw(f, wp):
    """fhat(k) = (1/q) sum_a f(a) zeta_q^(-ak), summed in mpf arithmetic at wp bits."""
    q = f.period
    roots = tables(q, wp).roots
    out = {}
    with mp.workprec(wp):
        vals = [f.value_mpf(a, wp) for a in range(1, q + 1)]
        for k in range(1, q + 1):
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for a in range(1, q + 1):
                c, s = roots[(-a * k) % q]
                v = vals[a - 1]
                re += v * c
                im += v * s
            out[k] = (re / q, im / q)
    return out


@st.composite
def transform_inputs(draw):
    """(f, wp): rational values with denominators up to 12, or a bbw kernel's Reals."""
    q = draw(st.integers(min_value=2, max_value=40))
    prec = draw(st.sampled_from((64, 96, 128, 192)))
    if q >= 4 and draw(st.booleans()):
        top = q - 2 if q % 2 else q - 1
        return bbw_function(q, draw(st.sampled_from(range(3, top + 1, 2))), prec), working_prec(prec)
    values = draw(
        st.lists(
            st.fractions(min_value=-12, max_value=12, max_denominator=12),
            min_size=q,
            max_size=q,
        )
    )
    return PeriodicFunction(q, tuple(values)), working_prec(prec)


@settings(deadline=None, max_examples=60)
@given(transform_inputs())
def test_integer_transform_matches_the_mpf_loop(inputs):
    f, wp = inputs
    q = f.period
    fhat = fourier_transform_raw(f, wp)
    ref = reference_fourier_raw(f, wp)
    assert sorted(fhat) == list(range(1, q + 1))
    with mp.workprec(2 * wp):
        total = mpmath.fsum(abs(f.value_mpf(a, 2 * wp)) for a in range(1, q + 1))
        # the transform's bound, plus slack for the reference loop's own
        # roundings, which grow with the summands
        tol = total * mpmath.mpf(2) ** -wp / q + mpmath.mpf(2) ** -(wp - 4) * (1 + total)
        for k in range(1, q + 1):
            assert abs(fhat[k][0] - ref[k][0]) <= tol, k
            assert abs(fhat[k][1] - ref[k][1]) <= tol, k


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(61):
        assert is_prime(n) == (n in primes)
