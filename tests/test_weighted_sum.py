"""Sums over the tables: every sum that l1_digamma_raw and trig_sums_raw
read from ``Tables.weighted_sums`` is the correctly rounded value of the
exact sum over the table entries, bit for bit, at wp and at 2 wp, for unit,
integer, rational, kernel-function and wide-span values alike.  The fsum
loops it replaced round f(a) and every product at wp bits, and each side
rounds its sum once, so they agree with it within 4 ulps (``within_ulps``),
and exactly for unit values, whose products are exact.  Every aligned entry
is its table entry exactly, and the aligned families live in the bounded
cache."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from cyclolog.characters import PeriodicFunction
from cyclolog.kernel import to_mpf, working_prec
from cyclolog.lseries import l1_digamma_raw, trig_sums_raw
from cyclolog.scans import bbw_function, sign_function
from cyclolog.tables import Tables, tables
from oracles import (
    as_fraction,
    l1_digamma_reference,
    trig_sums_reference,
    weighted_sum_reference,
    within_ulps,
)

FAMILIES = ("cot", "psi", "cos")
ALIGNED_FAMILIES = FAMILIES + ("sin", "log_sines")


def assert_sums_match(f, wp):
    """At wp and at 2 wp, the psi, cot and cos sums equal the exact oracle by
    _mpf_, and l1_digamma_raw its sum divided by -q; the fsum loops agree
    within 4 ulps, and exactly for unit values."""
    q = f.period
    for w in (wp, 2 * wp):
        tab = tables(q, w)
        psi = weighted_sum_reference(f, tab.psi, range(q), w)
        assert tab.weighted_sums("psi", f, [range(q)])[0]._mpf_ == psi._mpf_
        with mp.workprec(w):
            l1 = -psi / q
        assert l1_digamma_raw(f, w)._mpf_ == l1._mpf_
        cot, cos_sums = trig_sums_raw(f, w)
        indexes = {b: [(a * b) % q for a in range(1, q)] for b in cos_sums}
        assert cot._mpf_ == weighted_sum_reference(f, tab.cot, range(q - 1), w)._mpf_
        for b, v in cos_sums.items():
            assert v._mpf_ == weighted_sum_reference(f, tab.cos, indexes[b], w)._mpf_
        ref_l1, (ref_cot, ref_cos) = l1_digamma_reference(f, w), trig_sums_reference(f, w)
        if f.unit_values is not None:
            assert (l1._mpf_, cot._mpf_) == (ref_l1._mpf_, ref_cot._mpf_)
            assert {b: v._mpf_ for b, v in cos_sums.items()} == {b: v._mpf_ for b, v in ref_cos.items()}
            continue
        values = f.values
        psi_terms = [(as_fraction(v) / q, t) for v, t in zip(values, tab.psi)]
        assert within_ulps(l1, ref_l1, psi_terms, w, 4)
        assert within_ulps(cot, ref_cot, list(zip(values, tab.cot)), w, 4)
        for b, v in cos_sums.items():
            assert within_ulps(v, ref_cos[b], [(x, tab.cos[i]) for x, i in zip(values, indexes[b])], w, 4)


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
    # the products of +-10^100 and +-10^-100 span about 664 + wp bits, where
    # rounding each product and summing by mpf_sum could drop the small terms
    # against the large; the exact sum keeps every one
    values = [("1e100", "-1e-100", "0", "-1e100", "2e-100", "-1e-100")[a % 6] for a in range(1, 13)]
    f = PeriodicFunction.from_rationals(12, [Fraction(v) for v in values])
    assert f.unit_values is None
    assert_sums_match(f, working_prec(prec))


@pytest.mark.parametrize("wp", (64, 200))
@pytest.mark.parametrize("q", (5, 12, 30))
def test_any_index_lists_sum_like_the_mpf_loop(q, wp):
    # one and two sums over index lists that repeat entries, at wp and 2 wp:
    # the exact oracle bit for bit, and libmp's rounded products summed by
    # fsum within 4 ulps
    rng = random.Random(q * wp)
    for w in (wp, 2 * wp):
        tab = Tables(q, w)
        for _ in range(5):
            values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q - 1)]
            f = PeriodicFunction.from_rationals(q, values + [-sum(values)])
            for index in ([rng.randrange(q - 1) for _ in range(q)], [0] * q):
                for family in FAMILIES:
                    entries = getattr(tab, family)

                    def reference(ix):
                        return weighted_sum_reference(f, entries, ix, w)._mpf_

                    (one,) = tab.weighted_sums(family, f, [index])
                    assert one._mpf_ == reference(index)
                    two = tab.weighted_sums(family, f, iter([index, index[::-1]]))
                    assert [t._mpf_ for t in two] == [reference(index), reference(index[::-1])]
                    terms = [(v, entries[i]) for v, i in zip(f.values, index)]
                    with mp.workprec(w):
                        loop = mp.fsum(to_mpf(v, w) * t for v, t in terms)
                    assert within_ulps(one, loop, terms, w, 4)


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
    assert bbw_function(5, 3, 64).unit_values is None  # f(1) = 1, but f(2) = -phi^3 rounded


@pytest.mark.parametrize("wp", (96, 192, 320))
@pytest.mark.parametrize("q", (2, 3, 4, 7, 12, 15, 20, 30, 120))
def test_aligned_entries_equal_the_table_entries(q, wp):
    tab = Tables(q, wp)
    for family in ALIGNED_FAMILIES:
        mantissas, exp = getattr(tab, family + "_aligned")
        entries = getattr(tab, family)
        assert len(mantissas) == len(entries)
        for man, t in zip(mantissas, entries):
            assert from_man_exp(man, exp) == t._mpf_  # T_i * 2^E, unrounded
        if any(mantissas):
            # aligned at the smallest exponent: some mantissa keeps its lowest bit
            assert any(man % 2 for man in mantissas)
        else:  # q = 2: cot(pi/2) and the sines of 0 and pi
            assert exp == 0


@pytest.mark.parametrize("family,wp", (("cot", 12), ("psi", 6), ("cos", 4)))
def test_unit_sums_over_a_wide_family_at_low_precision_are_exact(family, wp):
    # at these precisions the entries mod 300 span at least 2 wp bits of
    # exponent, where mpf_sum may drop a term; the one integer sum keeps all
    tab = Tables(300, wp)
    mantissas, exp = getattr(tab, family + "_aligned")
    top = exp + max(abs(m).bit_length() for m in mantissas)
    assert max(top, 0) - min(exp, 0) >= 2 * wp
    f = PeriodicFunction.from_rationals(300, [(-1) ** a for a in range(1, 301)])
    assert f.unit_values is not None
    (got,) = tab.weighted_sums(family, f, [range(299)])
    assert got._mpf_ == weighted_sum_reference(f, getattr(tab, family), range(299), wp)._mpf_


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
