"""Sign-function scans, the L-nonzero/trivial-relation dichotomy, kernel
functions, and the append-only scan store."""

import json
from fractions import Fraction
from itertools import combinations
from math import comb

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import PeriodicFunction
from cyclolog.kernel import Real, classify_zero, working_prec
from cyclolog.lseries import decompose_l1, l1, l1_digamma_raw
from cyclolog.scans import (
    BRANCH_L_NONZERO,
    BRANCH_TRIG_VANISH,
    ScanStore,
    bbw_function,
    dichotomy,
    scan,
    sign_function,
    trig_sums_raw,
)

TOL112 = mpmath.mpf(2) ** -112


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def scanned_signs(q, prec=64):
    """The sign vectors of a scan's records, in enumeration order."""
    return [json.loads(line)["signs"] for line in scan(q, prec).records]


def test_enumerate_q3():
    signs = scanned_signs(3)
    assert signs == [[1, -1], [-1, 1]]
    assert all(sign_function(3, s).value_at(3) == 0 for s in signs)


def test_enumerate_q5_count():
    assert len(scanned_signs(5)) == 6


def test_enumerate_even_q_is_empty():
    report = scan(6, 64)
    assert report.records is None
    assert report.admissible_count == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_admissible_count_formula(q):
    report = scan(q, 64)
    assert report.admissible_count == len(report.records) == comb(q - 1, (q - 1) // 2)


def test_sign_function_validation():
    with pytest.raises(ValueError):
        sign_function(5, [1, 1, 1, 2])
    with pytest.raises(ValueError):
        sign_function(5, [1, -1, 1])


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_q3_minimum_is_classical_value():
    report = scan(3, 192)
    assert report.admissible_count == 2
    assert report.all_nonzero
    with mp.workprec(300):
        assert abs(report.min_abs_l.mpf - mpmath.pi / (3 * mpmath.sqrt(3))) < mpmath.mpf(2) ** -176


def test_scan_q5_all_nonzero():
    report = scan(5, 192)
    assert report.admissible_count == 6
    assert report.all_nonzero
    for line in report.records:
        assert json.loads(line)["class"] == "NonZero"


def test_scan_q7_all_nonzero():
    report = scan(7, 192)
    assert report.admissible_count == 20
    assert report.all_nonzero


def test_scan_even_q_reports_parity():
    report = scan(6, 192)
    assert report.admissible_count == 0
    assert report.reason == "parity"
    assert report.to_payload() == {"q": 6, "admissible_count": 0, "reason": "parity"}


def test_scan_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        scan(27, 128)
    with pytest.raises(ValueError):
        scan(2, 128)


def test_scan_worker_count_is_invisible_in_output():
    seq = scan(5, 160, workers=1)
    par = scan(5, 160, workers=2)
    assert seq.records == par.records
    assert seq.to_payload() == par.to_payload()


@pytest.mark.parametrize("cpus,pool_sizes", [(2, [2]), (None, [])])
def test_scan_workers_are_capped_at_the_cpu_count(cpus, pool_sizes, monkeypatch):
    # a fake pool that maps serially: no process is started
    import cyclolog.scans as scans_mod

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(scans_mod, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(scans_mod.os, "cpu_count", lambda: cpus)
    capped = scan(5, 64, workers=10**6)
    assert made == pool_sizes
    assert capped.to_payload(True) == scan(5, 64, workers=1).to_payload(True)


@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "fresh-store"])
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_folds_records_without_parsing_them(workers, with_store, monkeypatch, tmp_path):
    import cyclolog.scans as scans_mod

    def no_parse(*args, **kwargs):
        raise AssertionError("a freshly produced record was parsed again")

    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path)) if with_store else None
    monkeypatch.setattr(scans_mod.json, "loads", no_parse)
    report = scan(7, 64, workers=workers, store=store)
    monkeypatch.undo()
    assert report.admissible_count == comb(6, 3) == len(report.records)
    assert sum(report.class_counts.values()) == comb(6, 3)
    reference = scan(7, 64)
    assert report.to_payload(include_records=True) == reference.to_payload(include_records=True)
    if with_store:
        assert path.read_text() == "".join(line + "\n" for line in report.records)


def test_scan_matches_decomposition_per_function():
    # scan L-values (digamma table route) vs decomposition assembly
    for q in (3, 5):
        report = scan(q, 160)
        for line in report.records:
            rec = json.loads(line)
            f = sign_function(q, rec["signs"])
            vec = decompose_l1(f, 160)
            with mp.workprec(working_prec(160)):
                scanned = mpmath.mpf(rec["L"])
                assert abs(vec.value.mpf - scanned) < mpmath.mpf(10) ** -44


def test_scan_record_schema():
    report = scan(3, 160)
    rec = json.loads(report.records[0])
    assert list(rec.keys()) == ["q", "signs", "L", "prec", "class", "cot_sum", "cos_sums"]
    assert rec["q"] == 3 and rec["prec"] == 160
    assert len(rec["cos_sums"]) == 1


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_even_function_mod5():
    f = PeriodicFunction.from_rationals(5, [1, -1, -1, 1, 0])
    verdict = dichotomy(f, 128)
    assert verdict.branch == BRANCH_L_NONZERO
    assert abs(verdict.cot_sum.mpf) < TOL112
    with mp.workprec(200):
        assert abs(verdict.cos_sums[1].mpf - mpmath.sqrt(5)) < TOL112


def test_dichotomy_odd_function_has_zero_cos_sums():
    f = PeriodicFunction.from_rationals(7, [1, -1, 1, -1, 1, -1, 0])
    assert all(f.value_at(7 - a) == -f.value_at(a) for a in range(1, 7))
    verdict = dichotomy(f, 128)
    for b, v in verdict.cos_sums.items():
        assert abs(v.mpf) < TOL112, b
    assert verdict.branch == BRANCH_L_NONZERO  # cot sum carries the value


def test_dichotomy_of_kernel_function_is_trivial_branch():
    f = bbw_function(5, 3, 128)
    verdict = dichotomy(f, 128)
    assert verdict.branch == BRANCH_TRIG_VANISH
    assert verdict.l_class.is_zero


def test_dichotomy_recomputes_the_trig_sums_once(monkeypatch):
    import cyclolog.scans as scans

    precisions = []
    original = scans.trig_sums_raw

    def counting(f, wp):
        precisions.append(wp)
        return original(f, wp)

    monkeypatch.setattr(scans, "trig_sums_raw", counting)
    signs = (1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, -1)
    verdict = dichotomy(sign_function(13, signs), 128)
    assert verdict.branch == BRANCH_L_NONZERO
    assert any(c.is_nonzero for c in verdict.trig_classes.values())  # so a witness ran
    wp = working_prec(128)
    assert precisions == [wp, 2 * wp]


@pytest.mark.parametrize("workers", [0, -1])
def test_scan_rejects_worker_counts_below_one_before_any_evaluation(monkeypatch, workers):
    import cyclolog.scans as scans

    def no_evaluation(*args):
        raise AssertionError("a function was evaluated before the worker count was checked")

    monkeypatch.setattr(scans, "_record", no_evaluation)
    with pytest.raises(ValueError, match="worker count"):
        scan(5, workers=workers)


def test_dichotomy_rejects_composite_period():
    f = PeriodicFunction.from_rationals(9, [1, -1, 1, -1, 1, -1, 1, -1, 0])
    with pytest.raises(ValueError):
        dichotomy(f, 128)


def test_dichotomy_rejects_divergent():
    f = PeriodicFunction.from_rationals(5, [1, 1, 1, 1, 0])
    from cyclolog.lseries import NonConvergentSeriesError

    with pytest.raises(NonConvergentSeriesError, match=r"^series diverges: sum f\(a\) over a period = 4 != 0$"):
        dichotomy(f, 128)


def test_dichotomy_contradiction_aborts(monkeypatch):
    # force the impossible "L = 0 but a trig sum is nonzero" combination to
    # check that it aborts instead of picking a branch
    import cyclolog.scans as scan_mod
    from cyclolog.kernel import Real, ZeroClass, working_prec

    wp = working_prec(128)

    def forced_zero(f, prec):
        return mpmath.mpf(0), ZeroClass("Zero", Real(mpmath.mpf(0), wp)), *trig_sums_raw(f, wp)

    monkeypatch.setattr(scan_mod, "evaluate", forced_zero)
    f = PeriodicFunction.from_rationals(5, [1, -1, -1, 1, 0])  # cos sum = sqrt 5 != 0
    with pytest.raises(scan_mod.DichotomyContradictionError):
        dichotomy(f, 128)


def test_dichotomy_indeterminate_l_is_inconclusive(monkeypatch):
    import cyclolog.scans as scan_mod
    from cyclolog.kernel import Real, ZeroClass, working_prec

    wp = working_prec(128)

    def forced_gray(f, prec):
        gray = mpmath.mpf(2) ** -96
        return gray, ZeroClass("Indeterminate", Real(gray, wp)), *trig_sums_raw(f, wp)

    monkeypatch.setattr(scan_mod, "evaluate", forced_gray)
    f = PeriodicFunction.from_rationals(5, [1, -1, -1, 1, 0])
    with pytest.raises(scan_mod.InconclusiveClassificationError):
        dichotomy(f, 128)


# ---------------------------------------------------------------------------
# kernel functions
# ---------------------------------------------------------------------------

def test_bbw_5_3_l_value_vanishes():
    f = bbw_function(5, 3, 128)
    wp = working_prec(128)
    value = l1_digamma_raw(f, wp)
    assert classify_zero(Real(value, wp), 128).is_zero


def test_bbw_7_pair_vanishes_and_is_independent():
    f3 = bbw_function(7, 3, 128)
    f5 = bbw_function(7, 5, 128)
    wp = working_prec(128)
    for f in (f3, f5):
        assert classify_zero(Real(l1_digamma_raw(f, wp), wp), 128).is_zero
    # 2x2 minor on the values at n = 1, 2 is nonzero
    with mp.workprec(wp):
        det = f3.value_mpf(1, wp) * f5.value_mpf(2, wp) - f3.value_mpf(2, wp) * f5.value_mpf(1, wp)
        assert abs(det) > 1


def test_bbw_antisymmetry_exact():
    for q, l in ((5, 3), (7, 5), (9, 7), (8, 3), (10, 5)):
        f = bbw_function(q, l, 96)
        with mp.workprec(400):
            for n in range(1, q):
                assert f.value_mpf(q - n, 160) + f.value_mpf(n, 160) == 0, (q, l, n)
        assert f.value_at(q) == 0


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_bbw_values_are_exact_and_odd(prec):
    # every kernel function with 4 <= q <= 40 holds exact rationals whose
    # period sums to exactly zero, with f(q - n) = -f(n) exactly
    for q in range(4, 41):
        for l in range(3, (q - 2 if q % 2 else q - 1) + 1, 2):
            f = bbw_function(q, l, prec)
            assert all(type(v) in (int, Fraction) for v in f.values), (q, l)
            assert f.has_zero_mean(), (q, l)
            assert all(f.value_at(q - n) == -f.value_at(n) for n in range(1, q)), (q, l)


def test_sign_function_equals_the_rational_function():
    for q in (3, 5, 7, 9):
        for positions in combinations(range(q - 1), (q - 1) // 2):
            signs = tuple(1 if i in positions else -1 for i in range(q - 1))
            f = sign_function(q, signs)
            g = PeriodicFunction.from_rationals(q, [*signs, 0])
            assert all(type(v) is int for v in f.values)
            assert f == g
            assert (f.exact_values, f.unit_values) == (g.exact_values, g.unit_values)


def test_bbw_even_modulus_midpoint_is_zero():
    f = bbw_function(8, 3, 96)
    assert f.value_mpf(4, 96) == 0


@pytest.mark.parametrize("q", [5, 7, 9])
def test_bbw_full_trivial_scenario(q):
    # every valid l: cot sum, all cos sums, and the L-value classify Zero
    prec = 128
    wp = working_prec(prec)
    for l in range(3, q - 1, 2):
        f = bbw_function(q, l, prec)
        value = l1_digamma_raw(f, wp)
        assert classify_zero(Real(value, wp), prec).is_zero, (q, l)
        cot, cos_sums = trig_sums_raw(f, wp)
        assert classify_zero(Real(cot, wp), prec).is_zero, (q, l)
        for b, v in cos_sums.items():
            assert classify_zero(Real(v, wp), prec).is_zero, (q, l, b)


def test_bbw_even_modulus_vanishing_split():
    # even q: members with l <= q-3 sit in the kernel of f -> L(1,f); the
    # boundary member l = q-1 is constructible but its L-value is not zero
    prec = 128
    wp = working_prec(prec)
    for q in (6, 8, 10):
        for l in range(3, q - 2, 2):
            f = bbw_function(q, l, prec)
            v = l1_digamma_raw(f, wp)
            assert classify_zero(Real(v, wp), prec).is_zero, (q, l)
        boundary = bbw_function(q, q - 1, prec)
        v = l1_digamma_raw(boundary, wp)
        assert classify_zero(Real(v, wp), prec).is_nonzero, q


def test_bbw_parameter_validation():
    with pytest.raises(ValueError):
        bbw_function(5, 4, 64)  # even l
    with pytest.raises(ValueError):
        bbw_function(5, 5, 64)  # beyond q-2 for odd q
    with pytest.raises(ValueError):
        bbw_function(8, 9, 64)  # beyond q-1 for even q
    bbw_function(8, 7, 64)  # boundary case is valid


# ---------------------------------------------------------------------------
# scan store
# ---------------------------------------------------------------------------

def test_store_verifies_instead_of_duplicating(tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(3, 160, store=store)
    first = path.read_text()
    scan(3, 160, store=store)  # rerun: verify, no growth
    assert path.read_text() == first
    scan(5, 160, store=store)  # different modulus appends
    assert len(path.read_text().splitlines()) == 2 + 6


def test_store_detects_disagreement(tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    report = scan(3, 160, store=store)
    rec = json.loads(report.records[0])
    rec["L"] = "0.125"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RuntimeError):
        scan(3, 160, store=store)
