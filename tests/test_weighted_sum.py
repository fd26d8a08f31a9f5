"""Sums over the tables: l1_digamma_raw and trig_sums_raw return exactly
the mpfs of the fsum loops they replaced, for unit, integer, rational,
kernel-function and wide-span values alike, over narrow and wide tables;
every aligned entry is its table entry exactly, and the aligned families
live in the bounded cache."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sum, round_nearest

import cyclolog.tables as tables_module
from cyclolog.characters import PeriodicFunction
from cyclolog.kernel import to_mpf, working_prec
from cyclolog.lseries import l1_digamma_raw, trig_sums_raw
from cyclolog.scans import bbw_function, sign_function
from cyclolog.tables import Tables, tables
from oracles import l1_digamma_reference, trig_sums_reference

FAMILIES = ("cot", "psi", "cos")
ALIGNED_FAMILIES = FAMILIES + ("sin", "log_sines")


def assert_sums_match(f, wp):
    """Both sums at wp and 2 wp, compared with the fsum loops by exact _mpf_ equality."""
    for w in (wp, 2 * wp):
        assert l1_digamma_raw(f, w)._mpf_ == l1_digamma_reference(f, w)._mpf_
        (cot, cos_sums), (ref_cot, ref_cos) = trig_sums_raw(f, w), trig_sums_reference(f, w)
        assert cot._mpf_ == ref_cot._mpf_
        assert {b: v._mpf_ for b, v in cos_sums.items()} == {b: v._mpf_ for b, v in ref_cos.items()}


def sign_functions(q):
    for plus in combinations(range(q - 1), (q - 1) // 2):
        yield sign_function(q, tuple(1 if i in plus else -1 for i in range(q - 1)))


@pytest.mark.parametrize("prec", (64, 128, 192))
@pytest.mark.parametrize("q", (3, 5, 7, 9, 11))
def test_every_sign_function_sums_like_fsum(q, prec):
    for f in sign_functions(q):
        assert f.unit_values is not None  # the aligned-integer path
        assert_sums_match(f, working_prec(prec))


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("q", (12, 120, 300))
def test_seeded_integer_functions_sum_like_fsum(q, seed):
    rng = random.Random(q * 100 + seed)
    values = [rng.randint(-18, 18) for _ in range(q)]
    values[-1] = rng.choice((-18, -1, 7, 18))  # f(q) != 0
    f = PeriodicFunction.from_rationals(q, values)
    assert f.unit_values is None
    assert_sums_match(f, working_prec(128))


def test_fraction_valued_function_sums_like_fsum():
    # the lseries function mod 60 whose stdout is pinned in test_tables
    f = PeriodicFunction.from_rationals(
        60, [("1/3", "-5/12", "0", "1/4", "-1/6", "0")[a % 6] for a in range(1, 61)]
    )
    assert f.unit_values is None
    for prec in (64, 192):
        assert_sums_match(f, working_prec(prec))


@pytest.mark.parametrize("q", (12, 30, 60))
def test_rational_valued_functions_sum_like_fsum(q):
    rng = random.Random(q)
    for _ in range(3):
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(q - 1)]
        values.append(-sum(values))
        f = PeriodicFunction.from_rationals(q, values)
        assert f.unit_values is None
        for prec in (32, 128, 256):
            assert_sums_match(f, working_prec(prec))


@pytest.mark.parametrize("prec", (32, 128, 256, 1024))
def test_wide_span_function_sums_like_fsum(prec):
    # the products of +-10^100 and +-10^-100 span about 664 + wp bits: 2 wp
    # or more up to wp = 664, where the rounded products go to mpf_sum, which
    # may drop the small ones against the large; one integer sum above that
    values = [("1e100", "-1e-100", "0", "-1e100", "2e-100", "-1e-100")[a % 6] for a in range(1, 13)]
    f = PeriodicFunction.from_rationals(12, [Fraction(v) for v in values])
    assert f.unit_values is None
    assert_sums_match(f, working_prec(prec))


def test_only_a_span_of_2wp_bits_or_more_reaches_mpf_sum(monkeypatch):
    calls = []
    monkeypatch.setattr(tables_module, "mpf_sum", lambda *args: calls.append(args) or mpf_sum(*args))
    wp = working_prec(128)
    rng = random.Random(60)
    rational = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(59)]
    narrow = (
        PeriodicFunction.from_rationals(60, rational + [-sum(rational)]),
        PeriodicFunction.from_rationals(12, [3, -18, 7, 0, 1, 5, -2, 9, -4, 4, -9, 8]),
        bbw_function(15, 7, 128),
    )
    for f in narrow:
        assert f.unit_values is None
        l1_digamma_raw(f, wp)
        trig_sums_raw(f, wp)
    assert calls == []
    wide = [("1e100", "-1e-100", "0", "-1e100", "2e-100", "-1e-100")[a % 6] for a in range(1, 13)]
    trig_sums_raw(PeriodicFunction.from_rationals(12, [Fraction(v) for v in wide]), wp)
    assert calls


@pytest.mark.parametrize("wp", (64, 200))
@pytest.mark.parametrize("q", (5, 12, 30))
def test_any_index_lists_sum_like_the_mpf_loop(q, wp):
    # one and two sums over index lists that repeat entries, against libmp's
    # rounded products summed by mpf_sum
    rng = random.Random(q * wp)
    tab = Tables(q, wp)
    for _ in range(5):
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q - 1)]
        f = PeriodicFunction.from_rationals(q, values + [-sum(values)])
        for index in ([rng.randrange(q - 1) for _ in range(q)], [0] * q):
            for family in FAMILIES:
                entries = [t._mpf_ for t in getattr(tab, family)]

                def reference(ix):
                    return mpf_sum(
                        [mpf_mul(to_mpf(v, wp)._mpf_, entries[i], wp, round_nearest)
                         for v, i in zip(f.values, ix)],
                        wp, round_nearest,
                    )

                (one,) = tab.weighted_sums(family, f, [index])
                assert one._mpf_ == reference(index)
                two = tab.weighted_sums(family, f, iter([index, index[::-1]]))
                assert [t._mpf_ for t in two] == [reference(index), reference(index[::-1])]


@pytest.mark.parametrize("q,l", ((7, 3), (11, 5), (12, 3), (15, 7), (20, 9)))
def test_kernel_function_values_sum_like_fsum(q, l):
    f = bbw_function(q, l, 128)
    assert f.unit_values is None
    assert_sums_match(f, working_prec(128))


@pytest.mark.parametrize("q", (12, 20))
def test_even_moduli_sum_like_fsum_over_exact_zeros(q):
    tab = tables(q, working_prec(128))
    assert tab.cot[q // 2 - 1] == 0  # cot(pi/2)
    if q % 4 == 0:
        assert tab.cos[q // 4] == 0 == tab.cos[3 * q // 4]
    rng = random.Random(q)
    for prec in (64, 128, 192):
        for _ in range(20):
            f = PeriodicFunction.from_rationals(q, [rng.choice((-1, 0, 1)) for _ in range(q)])
            assert f.unit_values is not None
            assert_sums_match(f, working_prec(prec))
        f = PeriodicFunction.from_rationals(q, [rng.randint(-18, 18) for _ in range(q)])
        assert_sums_match(f, working_prec(prec))


def test_unit_values_are_exact_units_only():
    assert sign_function(5, (1, -1, -1, 1)).unit_values == (1, -1, -1, 1, 0)
    assert PeriodicFunction.from_rationals(3, [1, 0, -1]).unit_values == (1, 0, -1)
    for values in ([1, -2, 1], ["1/2", "-1/2", 0]):
        assert PeriodicFunction.from_rationals(3, values).unit_values is None
    assert bbw_function(5, 3, 64).unit_values is None  # Real values, though f(1) = 1


@pytest.mark.parametrize("wp", (96, 192, 320))
@pytest.mark.parametrize("q", (2, 3, 4, 7, 12, 15, 20, 30, 120))
def test_aligned_entries_equal_the_table_entries(q, wp):
    tab = Tables(q, wp)
    for family in ALIGNED_FAMILIES:
        mantissas, exp, span = getattr(tab, family + "_aligned")
        entries = getattr(tab, family)
        assert len(mantissas) == len(entries)
        for man, t in zip(mantissas, entries):
            assert from_man_exp(man, exp) == t._mpf_  # T_i * 2^E, unrounded
        if any(mantissas):
            # aligned at the smallest exponent: some mantissa keeps its lowest
            # bit; the span runs from there, or from 0, to the widest one's top
            assert any(man % 2 for man in mantissas)
            top = exp + max(abs(man).bit_length() for man in mantissas)
            assert span == max(top, 0) - min(exp, 0)
        else:  # q = 2: cot(pi/2) and the sines of 0 and pi
            assert (exp, span) == (0, 0)


@pytest.mark.parametrize("family,wp", (("cot", 12), ("psi", 6), ("cos", 4)))
def test_unit_sums_over_a_family_spanning_2wp_bits_reach_mpf_sum(family, wp, monkeypatch):
    # at these low precisions the entries mod 300 span at least 2 wp bits of
    # exponent, so the sums of a +-1 function go to mpf_sum, with fsum's result
    assert getattr(Tables(300, wp), family + "_aligned").span >= 2 * wp
    calls = []
    monkeypatch.setattr(tables_module, "mpf_sum", lambda *args: calls.append(args) or mpf_sum(*args))
    f = PeriodicFunction.from_rationals(300, [(-1) ** a for a in range(1, 301)])
    assert f.unit_values is not None
    tables(300, wp).weighted_sums(family, f, [range(299)])
    assert len(calls) == 1
    # at wp only: at 8 bits 299/300 rounds to 1, and the cot table would divide by sinpi(1) = 0
    assert l1_digamma_raw(f, wp)._mpf_ == l1_digamma_reference(f, wp)._mpf_
    (cot, cos_sums), (ref_cot, ref_cos) = trig_sums_raw(f, wp), trig_sums_reference(f, wp)
    assert cot._mpf_ == ref_cot._mpf_
    assert {b: v._mpf_ for b, v in cos_sums.items()} == {b: v._mpf_ for b, v in ref_cos.items()}


def test_aligned_families_stay_in_the_bounded_cache():
    tables.cache_clear()
    assert tables.cache_info().maxsize == 32
    for q in range(3, 40, 2):
        f = next(sign_functions(q))
        for prec in (64, 128):
            wp = working_prec(prec)
            l1_digamma_raw(f, wp)
            trig_sums_raw(f, wp)
            assert {"psi_aligned", "cot_aligned", "cos_aligned"} <= set(vars(tables(q, wp)))
            assert tables.cache_info().currsize <= 32
    assert tables.cache_info().currsize == 32
