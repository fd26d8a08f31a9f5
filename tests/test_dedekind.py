"""Dedekind-type matrices: structure, character factors, determinant routes.

The two determinant routes (LU at working precision, product of character
factors) are fully independent; the p = 5 case is additionally pinned to
closed forms: S_chi0 = (1/2) log 5, S_quadratic = -log phi, and the direct
2x2 determinant f(1)^2 - f(2)^2.
"""

import json

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import enumerate_characters, is_prime
from cyclolog.dedekind import CERTIFICATE_NOTES, _matrix_raw, determinant_check, s_chi_raw
from cyclolog.kernel import working_prec
from oracles import gauss_sum, l1_chi_via_gauss, s_chi_reference_raw

TOL112 = mpmath.mpf(2) ** -112


def quadratic_character(p):
    return next(ch for ch in enumerate_characters(p) if ch.order == 2)


def s_chi_factors(p, prec=128):
    """chi -> (S_chi, its class) for every factor of the determinant check."""
    return {chi: (val, cls) for chi, val, cls in determinant_check(p, prec).s_chi_values}


# ---------------------------------------------------------------------------
# matrix structure
# ---------------------------------------------------------------------------

def test_matrix_p3_single_entry_half_log3():
    m = _matrix_raw(3, working_prec(128))
    assert len(m) == 1
    with mp.workprec(200):
        assert abs(m[0][0] - mpmath.log(3) / 2) < TOL112


def test_matrix_p5_structure():
    # 2^-1 = 3 = -2 folds to 2 in G, so the matrix is [[f1, f2], [f2, f1]]
    m = _matrix_raw(5, working_prec(128))
    assert len(m) == 2
    assert m[0][0] == m[1][1]
    assert m[0][1] == m[1][0]
    with mp.workprec(200):
        f1 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(1) / 5))
        f2 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(2) / 5))
        assert abs(m[0][0] - f1) < TOL112
        assert abs(m[0][1] - f2) < TOL112


def test_matrix_p7_rows_are_permutations():
    m = _matrix_raw(7, working_prec(96))
    first = sorted(m[0])
    for row in m[1:]:
        assert sorted(row) == first


def test_matrix_rejects_non_prime():
    with pytest.raises(ValueError):
        determinant_check(9, 64)
    with pytest.raises(ValueError):
        determinant_check(2, 64)


# ---------------------------------------------------------------------------
# character factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s_chi_principal_is_half_log_p(p):
    val, _ = s_chi_factors(p)[enumerate_characters(p)[0]]
    with mp.workprec(200):
        assert abs(val.re.mpf - mpmath.log(p) / 2) < TOL112
    assert abs(val.im.mpf) < TOL112


def test_s_chi_quadratic_mod5_is_minus_log_phi():
    val, _ = s_chi_factors(5)[quadratic_character(5)]
    with mp.workprec(256):
        phi = (1 + mpmath.sqrt(5)) / 2
        assert abs(val.re.mpf + mpmath.log(phi)) < TOL112
    assert abs(val.im.mpf) < TOL112


def test_s_chi_cross_check_against_l_value():
    # S_chi = -(p / (2 tau(conj chi))) L(1, conj chi), both sides independent
    for p in (5, 7, 11):
        for chi, (val, _) in s_chi_factors(p).items():
            if chi.is_principal:
                continue
            chibar = chi.conjugate()
            lval = l1_chi_via_gauss(chibar, 128)
            tau = gauss_sum(chibar, 128)
            with mp.workprec(working_prec(128)):
                lhs = val.to_mpc()
                rhs = -p * lval.to_mpc() / (2 * tau.to_mpc())
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -110, (p, chi.exponents)


def test_s_chi_rejects_odd_characters():
    # odd characters are not characters of G = (Z/pZ)*/{+-1}: never a factor
    odd_chi = next(ch for ch in enumerate_characters(5) if not ch.is_even)
    factors = s_chi_factors(5, 64)
    assert odd_chi not in factors
    assert set(factors) == set(enumerate_characters(5, even_only=True))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s_chi_all_nonzero(p):
    for chi, (_, cls) in s_chi_factors(p).items():
        assert cls.is_nonzero, (p, chi.exponents)


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
    check = determinant_check(5, 128)
    assert len(check.s_chi_values) == 2
    assert check.all_factors_nonzero and check.conclusive and check.agree
    assert check.rational_dependence_excluded
    tags = {cls.tag for _, _, cls in check.s_chi_values}
    assert tags == {"NonZero"}


def test_certificate_p3_single_factor():
    check = determinant_check(3, 128)
    assert len(check.s_chi_values) == 1
    assert check.rational_dependence_excluded


def test_certificate_p13_six_factors():
    check = determinant_check(13, 128)
    assert len(check.s_chi_values) == 6
    assert check.all_factors_nonzero and check.conclusive
    assert any("pi" in note for note in CERTIFICATE_NOTES)  # the deferred-pi caveat is recorded


def test_an_indeterminate_factor_makes_the_check_inconclusive(capsys, monkeypatch):
    # the verdicts are read off the factors, so one Indeterminate factor
    # withdraws them, and both commands exit 3 (inconclusive)
    import cyclolog.dedekind as dedekind
    from cyclolog.cli import main
    from cyclolog.kernel import INDETERMINATE, ZeroClass

    original = dedekind._classified
    quadratic = quadratic_character(5)

    def forced(chi, raw, prec):
        cls = original(chi, raw, prec)
        return ZeroClass(INDETERMINATE, cls.residual) if chi == quadratic else cls

    monkeypatch.setattr(dedekind, "_classified", forced)
    check = determinant_check(5, 128)
    assert check.agree
    assert not check.all_factors_nonzero
    assert not check.conclusive
    assert not check.rational_dependence_excluded
    assert main(["dedekind", "--p", "5"]) == 3
    assert main(["certificate", "--p", "5"]) == 3
    dedekind_out, certificate_out = map(json.loads, capsys.readouterr().out.splitlines())
    assert [f["class"] for f in dedekind_out["s_chi"]].count(INDETERMINATE) == 1
    assert certificate_out["all_factors_nonzero"] is False
    assert certificate_out["conclusive"] is False
    assert certificate_out["rational_dependence_excluded"] is False


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


@pytest.mark.parametrize("wp", [192, 384])
def test_s_chi_matches_the_fraction_exponent_reference(wp):
    # the integer character index picks the same root as the Fraction exponent
    for p in range(3, 102):
        if is_prime(p):
            for chi in enumerate_characters(p, even_only=True):
                assert s_chi_raw(chi, wp) == s_chi_reference_raw(chi, wp), (p, chi.exponents)
