"""Harmonic sums over the cos and sin tables: every slot of
``Tables.harmonic_sums`` is the correctly rounded value of the exact sum
sum_a f(a) t[(a k) mod q] over the table entries, bit for bit, at wp and at
2 wp, for unit, integer, rational, wide-span and kernel-function values,
with and without the a = q column.  The kernel keeps no cache: the Fourier
transform and the trig sums add no key to the (q, wp) tables and stay
within a small, fixed memory peak."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from cyclolog.characters import PeriodicFunction, fourier_transform_raw
from cyclolog.lseries import trig_sums_raw
from cyclolog.scans import bbw_function
from cyclolog.tables import Tables, tables
from oracles import weighted_sum_reference

SMALL_MODULI = tuple(range(2, 40))
LARGE_MODULI = (60, 97, 120, 210, 300)
PRECISIONS = (20, 64, 200, 320)
# (family, columns a = 1..upto with upto = q - drop, number of sums), as the
# Fourier transform (a = 1..q, k <= q/2) and the trig sums (a < q, k < q/2) read them
ROWS = (("cos", 0, 0), ("sin", 0, 0), ("cos", 1, 1), ("sin", 1, 1))
KINDS = ("units", "integers", "fractions", "wide", "bbw")


def function(kind, q):
    rng = random.Random(f"{kind}-{q}")
    if kind == "units":
        values = [rng.choice((-1, 0, 1)) for _ in range(q)]
    elif kind == "integers":
        values = [rng.randint(-18, 18) for _ in range(q)]
    elif kind == "fractions":
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(q)]
    elif kind == "wide":
        values = [10**40 * rng.randint(-9, 9) + rng.randint(-9, 9) for _ in range(q)]
    else:
        return bbw_function(q, 3, 64)
    return PeriodicFunction.from_rationals(q, values)


def kinds(q):
    # the kernel functions start at q = 4, where l = 3 is the first member
    return KINDS if q >= 4 else KINDS[:-1]


def assert_slots_match(tab, family, f, count, upto):
    q, wp = tab.q, tab.wp
    table = getattr(tab, family)
    nums, d = f.exact_values
    got = tab.harmonic_sums(family, (nums[:upto], d), count)
    want = [
        weighted_sum_reference(f, table, [(a * k) % q for a in range(1, upto + 1)], wp)
        for k in range(1, count + 1)
    ]
    assert [s._mpf_ for s in got] == [s._mpf_ for s in want], (family, q, wp, upto)


def assert_rows_match(q, wp, fs):
    for w in (wp, 2 * wp):
        tab = tables(q, w)
        for f in fs:
            for family, drop, less in ROWS:
                assert_slots_match(tab, family, f, (q - less) // 2, q - drop)


@pytest.mark.parametrize("wp", PRECISIONS)
@pytest.mark.parametrize("q", SMALL_MODULI)
def test_every_slot_equals_the_oracle_on_small_moduli(q, wp):
    assert_rows_match(q, wp, [function(kind, q) for kind in kinds(q)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("q", LARGE_MODULI)
def test_every_slot_equals_the_oracle_on_large_moduli(q, kind):
    # one precision per (q, kind), so that each modulus meets every precision
    # and every kind meets every precision
    wp = PRECISIONS[(LARGE_MODULI.index(q) + KINDS.index(kind)) % len(PRECISIONS)]
    assert_rows_match(q, wp, [function(kind, q)])


def test_no_sums_for_a_count_of_zero():
    # q = 2 has no k with 0 < k < q/2: the trig sums' cos rows are empty
    f = function("integers", 2)
    for wp in PRECISIONS:
        tab = tables(2, wp)
        assert tab.harmonic_sums("cos", f.exact_values, 0) == []
        assert trig_sums_raw(f, wp)[1] == {}
        assert_slots_match(tab, "cos", f, 1, 2)
        assert_slots_match(tab, "sin", f, 1, 2)


@pytest.mark.parametrize("family", ("cos", "sin"))
def test_unit_sums_over_a_wide_table_at_low_precision_are_exact(family):
    # mod 300 at wp 4 the cos and sin entries span at least 2 wp bits of
    # exponent; every slot is still the exact sum rounded once
    tab = Tables(300, 4)
    mantissas, exp = getattr(tab, family + "_aligned")
    top = exp + max(abs(m).bit_length() for m in mantissas)
    assert max(top, 0) - min(exp, 0) >= 2 * tab.wp
    f = PeriodicFunction.from_rationals(300, [(-1) ** a for a in range(1, 301)])
    nums, d = f.exact_values
    assert d == 1 and set(nums) <= {-1, 0, 1}
    for drop in (0, 1):
        assert_slots_match(tab, family, f, (300 - drop) // 2, 300 - drop)


@pytest.mark.parametrize("wp", (20, 200))
def test_a_wide_function_keeps_its_guard_bits(wp):
    # sum |n_a| needs over 130 bits: a slot without them overflows into the next
    q = 60
    f = function("wide", q)
    nums, d = f.exact_values
    assert d == 1 and sum(map(abs, nums)).bit_length() > 130
    assert_rows_match(q, wp, [f])


def test_the_transform_and_trig_sums_keep_no_cache_and_little_memory():
    q, wp = 300, 320
    f = function("integers", q)
    tab = tables(q, wp)
    before = set(vars(tab))
    fourier_transform_raw(f, wp)
    trig_sums_raw(f, wp)
    # only the tables the sums read: no packed columns or index lists kept
    read = {"_angles", "cos", "sin", "cot", "cos_aligned", "sin_aligned", "cot_aligned"}
    assert set(vars(tab)) - before <= read
    keys = set(vars(tab))
    tracemalloc.start()
    try:
        fourier_transform_raw(f, wp)
        trig_sums_raw(f, wp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert set(vars(tab)) == keys
