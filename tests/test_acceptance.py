"""Acceptance suite: the eleven go/no-go criteria, each printed PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances and runtime budgets are pinned here, not
configurable: 2^-112 residuals at 128-bit targets, relative 2^-64
determinant agreement, 25- and 30-digit closed-form matches, byte-equal
parallel scan output.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import PeriodicFunction, is_prime
from cyclolog.cli import main as cli_main
from cyclolog.dedekind import determinant_check
from cyclolog.intrel import NONE_BELOW_BOUND, find_integer_relation, relation_lattice_rank
from cyclolog.kernel import Real, classify_zero, const_raw, log_2sin_raw, working_prec
from cyclolog.lseries import decompose_l1, l1, l1_digamma_raw, l1_direct_result
from cyclolog.relations import LogBasis, construct_relation, valid_divisor_pairs
from cyclolog.scans import bbw_function, scan, trig_sums_raw
from oracles import in_rational_span

TOL112 = mpmath.mpf(2) ** -112


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:02d} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_q4_dependence():
    t0 = time.monotonic()
    wp = working_prec(128)
    with mp.workprec(wp):
        residual = Real(2 * log_2sin_raw(1, 4, wp) - const_raw("log2", wp), wp)
    cls = classify_zero(residual, 128)
    elapsed = time.monotonic() - t0
    report(
        1,
        cls.is_zero and elapsed < 1.0,
        f"2 log(2 sin pi/4) - log 2 classifies {cls.tag} at 128-bit in {elapsed:.3f}s",
    )


def test_criterion_02_composite_sweep():
    t0 = time.monotonic()
    checked = 0
    worst = mpmath.mpf(0)
    for q in range(6, 61):
        if is_prime(q):
            continue
        for a, d in valid_divisor_pairs(q):
            vec = construct_relation(q, a, d)
            assert not vec.is_zero_vector, (q, a, d)
            with mp.workprec(working_prec(128)):
                res = abs(vec.residual_raw(working_prec(128)))
                worst = max(worst, res)
                assert res < TOL112, (q, a, d)
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        checked > 0 and worst < TOL112 and elapsed < 60.0,
        f"{checked} relations over composite q in [6,60], max residual 2^{mpmath.mag(worst) if worst else '-inf'}, {elapsed:.1f}s",
    )


def test_criterion_03_determinant_checks():
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        check = determinant_check(p, 128)
        with mp.workprec(working_prec(128)):
            rel_diff = abs(check.det_direct.mpf - check.det_product.mpf) / abs(check.det_direct.mpf)
            ok &= bool(rel_diff < mpmath.mpf(2) ** -64)
            principal = next(v for chi, v, _ in check.s_chi_values if chi.is_principal)
            ok &= bool(abs(principal.re.mpf - mpmath.log(p) / 2) < TOL112)
        ok &= all(cls.is_nonzero for _, _, cls in check.s_chi_values)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(3, ok, f"p in {{3,5,7,11,13}}: routes agree to 2^-64, S_chi all NonZero, {elapsed:.2f}s")


def test_criterion_04_p5_closed_forms():
    check = determinant_check(5, 256)
    digits30 = mpmath.mpf(10) ** -30
    with mp.workprec(working_prec(256) + 64):
        phi = (1 + mpmath.sqrt(5)) / 2
        quad_val = next(v for chi, v, _ in check.s_chi_values if not chi.is_principal)
        s_ok = abs(quad_val.re.mpf + mpmath.log(phi)) < digits30
        closed = -(mpmath.log(5) / 2) * mpmath.log(phi)
        f1 = log_2sin_raw(1, 5, working_prec(256))
        f2 = log_2sin_raw(2, 5, working_prec(256))
        direct_2x2 = f1 * f1 - f2 * f2
        det_ok = (
            abs(check.det_direct.mpf - closed) < digits30
            and abs(check.det_product.mpf - closed) < digits30
            and abs(check.det_direct.mpf - direct_2x2) < digits30
        )
        value_str = mpmath.nstr(check.det_direct.mpf, 10)
    report(4, s_ok and det_ok, f"p=5: S_quad = -log phi, det = (log 5 / 2)(-log phi) = {value_str}, 30 digits")


def _random_zero_mean(rng, q):
    values = [Fraction(0)] * q
    idx = list(range(q - 1))
    rng.shuffle(idx)
    for i in range(0, len(idx) - 1, 2):
        mag = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        values[idx[i]] = mag / 2
        values[idx[i + 1]] = -mag / 2
    return PeriodicFunction(q, tuple(values))


def test_criterion_05_three_route_agreement():
    t0 = time.monotonic()
    rng = random.Random(271828)
    worst_pair = mpmath.mpf(0)
    worst_direct = 0.0
    for i in range(200):
        q = rng.randint(3, 30)
        f = _random_zero_mean(rng, q)
        vd = l1(f, "digamma", 128)
        vf = l1(f, "fourier", 128)
        with mp.workprec(256):
            diff = abs(vd.mpf - vf.mpf)
            worst_pair = max(worst_pair, diff)
            assert diff < TOL112, (i, q)
        direct = l1_direct_result(f)
        d_err = abs(float(direct.value) - float(vd))
        worst_direct = max(worst_direct, d_err)
        assert d_err < 1e-5, (i, q)
    elapsed = time.monotonic() - t0
    pair_desc = (
        f"2^{mpmath.mag(worst_pair)}" if worst_pair > 0 else "exact at 128 bits"
    )
    report(
        5,
        elapsed < 120.0,
        f"200 random f, q <= 30: max |digamma-fourier| = {pair_desc}, "
        f"max direct error {worst_direct:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_q3_classical_value():
    with mp.workprec(400):
        reference = mpmath.pi / (3 * mpmath.sqrt(3))
    ok = True
    for signs in ((1, -1), (-1, 1)):
        f = PeriodicFunction(3, (Fraction(signs[0]), Fraction(signs[1]), Fraction(0)))
        val = l1(f, "digamma", 128)
        with mp.workprec(400):
            ok &= bool(abs(abs(val.mpf) - reference) < mpmath.mpf(10) ** -25)
        oracle = l1_direct_result(f)
        ok &= abs(abs(float(oracle.value)) - float(reference)) <= oracle.tail_bound + 1e-12
    with mp.workprec(120):
        shown = mpmath.nstr(reference, 26)
    report(6, ok, f"both q=3 sign functions give |L| = {shown} (25 digits, oracle-bracketed)")


def test_criterion_07_scan_all_nonzero_desk_scale():
    t0 = time.monotonic()
    expected = {3: 2, 5: 6, 7: 20, 9: 70, 11: 252, 13: 924}
    ok = True
    for q, count in expected.items():
        rep = scan(q, 192)
        ok &= rep.admissible_count == count
        ok &= bool(rep.all_nonzero)
        ok &= comb(q - 1, (q - 1) // 2) == count
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    report(7, ok, f"scans q in {{3,..,13}}: counts (2,6,20,70,252,924), all NonZero at 192-bit, {elapsed:.1f}s")


def test_criterion_08_kernel_functions_vanish():
    ok = True
    wp = working_prec(128)
    for q in (5, 7, 9):
        for l in range(3, q - 1, 2):
            f = bbw_function(q, l, 128)
            lv = l1_digamma_raw(f, wp)
            ok &= classify_zero(Real(lv, wp), 128, recompute=lambda w, f=f: l1_digamma_raw(f, w)).is_zero
            cot, cos_sums = trig_sums_raw(f, wp)
            ok &= classify_zero(Real(cot, wp), 128).is_zero
            ok &= all(classify_zero(Real(v, wp), 128).is_zero for v in cos_sums.values())
    report(8, ok, "kernel f_l for q in {5,7,9}, odd l: L and all trig sums classify Zero at 128-bit")


def test_criterion_09_sign_erratum_regression():
    f = PeriodicFunction(3, (Fraction(1), Fraction(-1), Fraction(0)))
    vec = decompose_l1(f, 128)
    with mp.workprec(256):
        expected_pi_coeff = 1 / (3 * mpmath.sqrt(3))
        coeff_ok = bool(vec.pi_coeff.mpf > 0) and bool(
            abs(vec.pi_coeff.mpf - expected_pi_coeff) < TOL112
        )
        value_ok = bool(abs(vec.value.mpf - l1(f, "digamma", 128).mpf) < TOL112)
    report(9, coeff_ok and value_ok, "decompose(q=3,(1,-1,0)): pi coefficient = +1/(3 sqrt 3), value = L")


def test_criterion_10_integer_relation_recovery():
    t0 = time.monotonic()
    lat = relation_lattice_rank(8, 10**6, 256)
    target = [Fraction(-1), Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]
    rank_ok = lat.rank == 2 and in_rational_span(
        target, [[Fraction(x) for x in g] for g in lat.generators]
    )
    basis7 = LogBasis.for_modulus(7)
    wp = working_prec(512)
    values = [Real(v, wp) for v in basis7.values_raw(wp)]
    res = find_integer_relation(values, 10**6, 512, value_provider=basis7.values_raw)
    none_ok = res.verdict == NONE_BELOW_BOUND
    elapsed = time.monotonic() - t0
    report(
        10,
        rank_ok and none_ok and elapsed < 60.0,
        f"q=8 lattice rank 2 containing (-1,1,-1,0,0); p=7 NoneBelowBound at 512-bit, {elapsed:.1f}s",
    )


def test_criterion_11_scan_determinism_across_threads(tmp_path, capsys):
    store1 = tmp_path / "scan-1.jsonl"
    store8 = tmp_path / "scan-8.jsonl"
    code1 = cli_main(["scan", "--q", "9", "--threads", "1", "--store", str(store1)])
    out1 = capsys.readouterr().out
    code8 = cli_main(["scan", "--q", "9", "--threads", "8", "--store", str(store8)])
    out8 = capsys.readouterr().out
    same_bytes = store1.read_bytes() == store8.read_bytes()
    report(
        11,
        code1 == 0 and code8 == 0 and same_bytes and out1 == out8,
        f"scan --q 9: 1-thread and 8-thread JSONL stores byte-identical ({len(store1.read_bytes())} bytes)",
    )
