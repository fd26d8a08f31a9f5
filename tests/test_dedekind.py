"""Dedekind-type matrices: structure, character factors, determinant routes.

The two determinant routes (fixed-point LU, product of character factors)
are fully independent; the p = 5 case is additionally pinned to closed
forms: S_chi0 = (1/2) log 5, S_quadratic = -log phi, and the direct 2x2
determinant f(1)^2 - f(2)^2.  The fixed-point LU is checked against an mpf
LU within its own error estimate, and its precision restarts on matrices
with large growth or a pivot at the last bit.
"""

import json

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import DirichletCharacter, enumerate_characters, is_prime
from cyclolog.dedekind import (
    CERTIFICATE_NOTES,
    MAX_LU_RESTARTS,
    DeterminantError,
    _aligned_matrix,
    _lu_det,
    _matrix,
    det_direct_raw,
    determinant_check,
    s_chi_raw,
)
from cyclolog.kernel import GUARD_BITS, Real, dec_str, decimal_digits, working_prec
from cyclolog.tables import Tables, tables
from oracles import (
    conjugate,
    exact_sum_reference,
    gauss_sum,
    l1_chi_via_gauss,
    lu_det_reference,
    s_chi_loop,
    s_chi_reference_raw,
    s_chi_terms,
    to_mpc,
    value_exponent,
    within_ulps,
)

PRIMES = [p for p in range(3, 102) if is_prime(p)]

TOL112 = mpmath.mpf(2) ** -112


def quadratic_character(p):
    return next(ch for ch in enumerate_characters(p) if ch.order == 2)


def log_sine_matrix(p, wp):
    """The Dedekind-type matrix with mpf entries at working precision."""
    return _matrix(p, tables(p, wp).log_sines)


def s_chi_factors(p, prec=128):
    """chi -> (S_chi, its class) for every factor of the determinant check."""
    return {chi: (val, cls) for chi, val, cls in determinant_check(p, prec).s_chi_values}


# ---------------------------------------------------------------------------
# matrix structure
# ---------------------------------------------------------------------------

def test_matrix_p3_single_entry_half_log3():
    m = log_sine_matrix(3, working_prec(128))
    assert len(m) == 1
    with mp.workprec(200):
        assert abs(m[0][0] - mpmath.log(3) / 2) < TOL112


def test_matrix_p5_structure():
    # 2^-1 = 3 = -2 folds to 2 in G, so the matrix is [[f1, f2], [f2, f1]]
    m = log_sine_matrix(5, working_prec(128))
    assert len(m) == 2
    assert m[0][0] == m[1][1]
    assert m[0][1] == m[1][0]
    with mp.workprec(200):
        f1 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(1) / 5))
        f2 = mpmath.log(2 * mpmath.sinpi(mpmath.mpf(2) / 5))
        assert abs(m[0][0] - f1) < TOL112
        assert abs(m[0][1] - f2) < TOL112


def test_matrix_p7_rows_are_permutations():
    m = log_sine_matrix(7, working_prec(96))
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
            chibar = conjugate(chi)
            lval = l1_chi_via_gauss(chibar, 128)
            tau = gauss_sum(chibar, 128)
            with mp.workprec(working_prec(128)):
                lhs = to_mpc(val)
                rhs = -p * to_mpc(lval) / (2 * to_mpc(tau))
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -110, (p, chi.exponents)


def test_s_chi_rejects_odd_characters():
    # odd characters are not characters of G = (Z/pZ)*/{+-1}: never a factor
    odd_chi = next(ch for ch in enumerate_characters(5) if not ch.is_even)
    factors = s_chi_factors(5, 64)
    assert odd_chi not in factors
    assert set(factors) == set(enumerate_characters(5, even_only=True))


@pytest.mark.parametrize("p", PRIMES)
def test_s_chi_raw_lists_every_even_factor_in_exponent_order(p):
    # r entries, entry i the factor of the character with exponent 2 i (the
    # principal one first), bit for bit the per-character loop
    for wp in (96, 320):
        factors = s_chi_raw(p, wp)
        assert len(factors) == (p - 1) // 2
        for i, got in enumerate(factors):
            chi = DirichletCharacter(p, (2 * i,))
            assert [x._mpf_ for x in got] == [x._mpf_ for x in s_chi_loop(chi, wp)], (wp, i)


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
    from cyclolog.kernel import log_2sin_raw

    chars = enumerate_characters(p, even_only=True)
    factors = s_chi_raw(p, wp)
    with mp.workprec(wp):
        for a in range(1, r + 1):
            total = mpmath.mpc(0)
            for chi in chars:
                t = value_exponent(conjugate(chi), a)
                c, s = unit_root(t.numerator, t.denominator, wp)
                sre, sim = factors[chi.exponents[0] // 2]
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


@pytest.mark.parametrize("wp", [96, 192, 384])
def test_fixed_point_lu_agrees_with_the_mpf_lu_within_its_estimate(wp):
    for p in PRIMES:
        lu = _lu_det(*_aligned_matrix(p, wp), wp)
        # growth under 3 bits, so the estimate leaves most of the guard bits
        assert lu.growth_bits < 3 and lu.accurate_bits > wp - GUARD_BITS // 4, p
        reference = lu_det_reference(log_sine_matrix(p, wp), wp)
        with mp.workprec(wp):
            error = abs(lu.det - reference)
            assert error <= abs(reference) * mpmath.ldexp(1, -lu.accurate_bits), p


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_fixed_point_lu_renders_as_the_mpf_lu(prec):
    wp = working_prec(prec)
    digits = decimal_digits(prec)
    for p in PRIMES:
        reference = lu_det_reference(log_sine_matrix(p, wp), wp)
        rendered = dec_str(Real(det_direct_raw(p, wp), prec), digits)
        assert rendered == dec_str(Real(reference, prec), digits), p


def wilkinson(n, wp):
    """1 on the diagonal, -1 below it, 1 in the last column, as rows scaled
    by 2^wp and the scale wp: partial pivoting keeps every pivot 1 and the
    last column doubles each step, so det = 2^(n-1) with growth 2^(n-1)."""
    one = 1 << wp
    rows = [[one if j == i or j == n - 1 else -one if j < i else 0 for j in range(n)] for i in range(n)]
    return rows, wp


def singular_but_for_the_last_bit(wp):
    """[[1, 1], [1, 1 + 2^-wp]] as rows scaled by 2^wp and the scale wp: the
    second pivot is one unit at every wp, so no precision brings its error
    estimate down."""
    one = 1 << wp
    return [[one, one], [one, one + 1]], wp


def patch_matrix(monkeypatch, build):
    """Make det_direct_raw factor build(wp) and return the wps it asked for."""
    import cyclolog.dedekind as dedekind

    asked = []

    def matrix(p, wp):
        asked.append(wp)
        return build(wp)

    monkeypatch.setattr(dedekind, "_aligned_matrix", matrix)
    return asked


def test_growth_the_estimate_rejects_is_cured_by_one_restart(monkeypatch):
    # growth 2^39 costs about 50 bits of the estimate, more than half of the
    # 64 guard bits at wp = 192 but not at 384
    asked = patch_matrix(monkeypatch, lambda wp: wilkinson(40, wp))
    assert _lu_det(*wilkinson(40, 192), 192).growth_bits == 39
    assert det_direct_raw(5, 192) == 2 ** 39
    assert asked == [192, 384]


def test_growth_past_the_restart_cap_raises(monkeypatch):
    import cyclolog.dedekind as dedekind

    monkeypatch.setattr(dedekind, "MAX_LU_RESTARTS", 0)
    asked = patch_matrix(monkeypatch, lambda wp: wilkinson(40, wp))
    with pytest.raises(DeterminantError, match=r"p = 5: .* at wp = 192, .*growth 39\.0 bits"):
        det_direct_raw(5, 192)
    assert asked == [192]


def test_a_pivot_at_the_last_bit_ends_in_the_capped_error(monkeypatch):
    # no precision cures it, so the LU stops after MAX_LU_RESTARTS doublings
    asked = patch_matrix(monkeypatch, singular_but_for_the_last_bit)
    last = 96 << MAX_LU_RESTARTS
    with pytest.raises(DeterminantError, match=f"p = 7: .* at wp = {last}, ") as err:
        det_direct_raw(7, 96)
    assert isinstance(err.value, ArithmeticError)
    assert asked == [96 << k for k in range(MAX_LU_RESTARTS + 1)]


@pytest.mark.parametrize("command", ["dedekind", "certificate"])
def test_determinant_errors_exit_inconclusive_naming_p(command, capsys, monkeypatch):
    import cyclolog.dedekind as dedekind
    from cyclolog.cli import main

    patch_matrix(monkeypatch, singular_but_for_the_last_bit)
    assert main([command, "--p", "5"]) == 3
    assert json.loads(capsys.readouterr().out)["error"].startswith("p = 5: the LU determinant")
    # (1 + i)^2 = 2i: a product of factors that is not real
    monkeypatch.setattr(dedekind, "s_chi_raw", lambda p, wp: [(mpmath.mpf(1), mpmath.mpf(1))] * ((p - 1) // 2))
    monkeypatch.setattr(dedekind, "_aligned_matrix", _aligned_matrix)
    assert main([command, "--p", "5"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "p = 5: the character-factor product is not real"
    }


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
    from cyclolog.kernel import INDETERMINATE, ZeroClass, classify_zero

    classified = []

    def forced(x, target, recompute=None):
        # mod 5 the factors are classified in exponent order, principal
        # first: every second one is the quadratic character's
        cls = classify_zero(x, target, recompute)
        classified.append(cls)
        return ZeroClass(INDETERMINATE, cls.residual) if len(classified) % 2 == 0 else cls

    monkeypatch.setattr(dedekind, "classify_zero", forced)
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
    assert certificate_out["weakest_margin_bits"] is None  # the Indeterminate factor has no margin


@pytest.mark.parametrize("p", [5, 13, 53])
def test_determinant_check_evaluates_each_s_chi_once_per_precision(p, monkeypatch):
    # every factor of p comes from one s_chi_raw call per precision
    import cyclolog.dedekind as dedekind

    calls = []
    original = dedekind.s_chi_raw

    def counting(q, wp):
        calls.append((q, wp))
        return original(q, wp)

    monkeypatch.setattr(dedekind, "s_chi_raw", counting)
    wp = working_prec(128)
    # each radius decides its factor: one evaluation at wp
    check = determinant_check(p, 128)
    assert all(cls.is_nonzero and cls.rigorous for _, _, cls in check.s_chi_values)
    assert calls == [(p, wp)]
    # a log-sine radius too large to decide at wp, 2^(20 + wp - w) at w bits:
    # every factor escalates, and each precision reached is evaluated once
    calls.clear()
    monkeypatch.setattr(Tables, "eps_log_sines", property(lambda self: mpmath.mpf(2) ** (20 + wp - self.wp)))
    check = determinant_check(p, 128)
    assert all(cls.is_nonzero and cls.residual.prec > wp for _, _, cls in check.s_chi_values)
    reached = {cls.residual.prec for _, _, cls in check.s_chi_values}
    assert sorted(calls) == sorted([(p, wp)] + [(p, w) for w in reached])


@pytest.mark.parametrize("wp", [192, 384])
def test_s_chi_matches_the_fraction_exponent_reference(wp):
    # the integer character index picks the same root as the Fraction
    # exponent: both components are the exact sums rounded once, at wp and
    # 2 wp, and the mpf loop that rounds each of its r products and partial
    # sums stays within p + 2 ulps of them at wp
    for p in range(3, 102):
        if is_prime(p):
            factors = {w: s_chi_raw(p, w) for w in (wp, 2 * wp)}
            for chi in enumerate_characters(p, even_only=True):
                for w in (wp, 2 * wp):
                    terms = s_chi_terms(chi, w)
                    got = factors[w][chi.exponents[0] // 2]
                    expected = [exact_sum_reference(t, w)._mpf_ for t in terms]
                    assert [x._mpf_ for x in got] == expected, (p, chi.exponents, w)
                    if w == wp:
                        loop = s_chi_reference_raw(chi, w)
                        assert all(within_ulps(x, y, t, w, p + 2) for x, y, t in zip(got, loop, terms))
