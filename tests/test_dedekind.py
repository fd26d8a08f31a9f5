"""Dedekind-type matrices: structure, character factors, determinant routes.

The two determinant routes (LU at working precision, product of character
factors) are fully independent; the p = 5 case is additionally pinned to
closed forms: S_chi0 = (1/2) log 5, S_quadratic = -log phi, and the direct
2x2 determinant f(1)^2 - f(2)^2.
"""

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import enumerate_characters, gauss_sum, principal_character
from cyclolog.dedekind import (
    build_matrix,
    classify_s_chi,
    determinant_check,
    independence_certificate,
    s_chi,
)
from cyclolog.kernel import working_prec
from cyclolog.lseries import l1_chi_via_gauss

TOL112 = mpmath.mpf(2) ** -112


def quadratic_character(p):
    return next(ch for ch in enumerate_characters(p) if ch.order == 2)


# ---------------------------------------------------------------------------
# matrix structure
# ---------------------------------------------------------------------------

def test_matrix_p3_single_entry_half_log3():
    m = build_matrix(3, 128)
    assert m.size == 1
    with mp.workprec(200):
        assert abs(m.entry(1, 1).mpf - mpmath.log(3) / 2) < TOL112


def test_matrix_p5_structure():
    # 2^-1 = 3 = -2 folds to 2 in G, so the matrix is [[f1, f2], [f2, f1]]
    m = build_matrix(5, 128)
    assert m.size == 2
    assert m.entry(1, 1).mpf == m.entry(2, 2).mpf
    assert m.entry(1, 2).mpf == m.entry(2, 1).mpf
    with mp.workprec(200):
        f1 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(1) / 5))
        f2 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(2) / 5))
        assert abs(m.entry(1, 1).mpf - f1) < TOL112
        assert abs(m.entry(1, 2).mpf - f2) < TOL112


def test_matrix_p7_rows_are_permutations():
    m = build_matrix(7, 96)
    first = sorted(e.mpf for e in m.entries[0])
    for row in m.entries[1:]:
        assert sorted(e.mpf for e in row) == first


def test_matrix_rejects_non_prime():
    with pytest.raises(ValueError):
        build_matrix(9, 64)
    with pytest.raises(ValueError):
        build_matrix(2, 64)


# ---------------------------------------------------------------------------
# character factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s_chi_principal_is_half_log_p(p):
    val = s_chi(principal_character(p), 128)
    with mp.workprec(200):
        assert abs(val.re.mpf - mpmath.log(p) / 2) < TOL112
    assert abs(val.im.mpf) < TOL112


def test_s_chi_quadratic_mod5_is_minus_log_phi():
    val = s_chi(quadratic_character(5), 128)
    with mp.workprec(256):
        phi = (1 + mpmath.sqrt(5)) / 2
        assert abs(val.re.mpf + mpmath.log(phi)) < TOL112
    assert abs(val.im.mpf) < TOL112


def test_s_chi_cross_check_against_l_value():
    # S_chi = -(p / (2 tau(conj chi))) L(1, conj chi), both sides independent
    for p in (5, 7, 11):
        for chi in enumerate_characters(p, even_only=True):
            if chi.is_principal:
                continue
            val = s_chi(chi, 128)
            chibar = chi.conjugate()
            lval = l1_chi_via_gauss(chibar, 128)
            tau = gauss_sum(chibar, 128)
            with mp.workprec(working_prec(128)):
                lhs = val.to_mpc()
                rhs = -p * lval.to_mpc() / (2 * tau.to_mpc())
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -110, (p, chi.exponents)


def test_s_chi_rejects_odd_characters():
    odd_chi = next(ch for ch in enumerate_characters(5) if not ch.is_even)
    with pytest.raises(ValueError):
        s_chi(odd_chi, 64)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s_chi_all_nonzero(p):
    for chi in enumerate_characters(p, even_only=True):
        assert classify_s_chi(chi, 128).is_nonzero, (p, chi.exponents)


def test_character_inversion_recovers_log_sines():
    # sum over even chi of conj(chi)(a) S_chi = r * f(a)
    p = 11
    r = (p - 1) // 2
    prec = 128
    wp = working_prec(prec)
    from cyclolog.characters import unit_root
    from cyclolog.dedekind import s_chi_raw
    from cyclolog.kernel import log_2sin_raw

    chars = enumerate_characters(p, even_only=True)
    with mp.workprec(wp):
        for a in range(1, r + 1):
            total = mpmath.mpc(0)
            for chi in chars:
                t = chi.conjugate().value_exponent(a)
                c, s = unit_root(t.numerator, t.denominator, wp)
                sre, sim = s_chi_raw(chi, wp)
                total += mpmath.mpc(c, s) * mpmath.mpc(sre, sim)
            expected = r * log_2sin_raw(a, p, wp)
            assert abs(total - expected) < mpmath.mpf(2) ** (-prec + 16), a


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_determinant_p3():
    check = determinant_check(3, 128)
    with mp.workprec(200):
        half_log3 = mpmath.log(3) / 2
        assert abs(check.det_direct.mpf - half_log3) < TOL112
        assert abs(check.det_product.mpf - half_log3) < TOL112
    assert check.agree
    assert str(check.det_direct.to_decimal(11)).startswith("0.5493061443")


def test_determinant_p5_closed_forms():
    check = determinant_check(5, 256)
    with mp.workprec(working_prec(256)):
        phi = (1 + mpmath.sqrt(5)) / 2
        closed = -(mpmath.log(5) / 2) * mpmath.log(phi)
        f1 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(1) / 5))
        f2 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(2) / 5))
        hand_det = f1 * f1 - f2 * f2
        assert abs(check.det_direct.mpf - closed) < mpmath.mpf(10) ** -40
        assert abs(check.det_direct.mpf - hand_det) < mpmath.mpf(10) ** -40
        assert abs(check.det_product.mpf - closed) < mpmath.mpf(10) ** -40
    assert check.agree


@pytest.mark.parametrize("p", [7, 11, 13])
def test_determinant_routes_agree(p):
    check = determinant_check(p, 128)
    assert check.agree
    with mp.workprec(200):
        assert abs(check.det_direct.mpf) > mpmath.mpf(2) ** -64


def test_determinant_respects_prime_bound():
    with pytest.raises(ValueError):
        determinant_check(103, 64)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_p5():
    cert = independence_certificate(5, 128)
    assert len(cert.factors) == 2
    assert cert.all_factors_nonzero and cert.conclusive and cert.det_agree
    assert cert.rational_dependence_excluded
    tags = {cls.tag for _, _, cls in cert.factors}
    assert tags == {"NonZero"}


def test_certificate_p3_single_factor():
    cert = independence_certificate(3, 128)
    assert len(cert.factors) == 1
    assert cert.rational_dependence_excluded


def test_certificate_p13_six_factors():
    cert = independence_certificate(13, 128)
    assert len(cert.factors) == 6
    assert cert.all_factors_nonzero and cert.conclusive
    assert any("pi" in note for note in cert.notes)  # the deferred-pi caveat is recorded


@pytest.mark.parametrize("p", [5, 13, 53])
def test_determinant_check_evaluates_each_s_chi_once_per_precision(p, monkeypatch):
    import cyclolog.dedekind as dedekind

    calls = []
    original = dedekind.s_chi_raw

    def counting(chi, wp):
        calls.append((chi.exponents, wp))
        return original(chi, wp)

    monkeypatch.setattr(dedekind, "s_chi_raw", counting)
    check = determinant_check(p, 128)
    wp = working_prec(128)
    chars = enumerate_characters(p, even_only=True)
    assert all(cls.is_nonzero for _, _, cls in check.s_chi_values)
    assert len(calls) == 2 * len(chars)
    assert sorted(calls) == sorted(
        [(ch.exponents, wp) for ch in chars] + [(ch.exponents, 2 * wp) for ch in chars]
    )
