"""Relation construction for composite moduli: folding, the divisor-induced
vectors, their numeric verification, and exact rank bookkeeping.

The coefficient trichotomy (explicit +1/-1/0 case analysis per slot) is
reimplemented here independently and compared against the package's signed
accumulation on every valid (q, a, d) up to q = 30; any disagreement fails
loudly rather than silently preferring one description.
"""

from fractions import Fraction
from math import gcd

import mpmath
import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import cyclolog.relations as relations_mod
from cyclolog.characters import is_prime
from cyclolog.relations import (
    LOG2_SLOT,
    PI_SLOT,
    LogBasis,
    RelationVector,
    construct_relation,
    enumerate_relations,
    fold_index,
    in_rational_span,
    rational_rank,
    relation_record,
    valid_divisor_pairs,
    verify_relation,
)


def coeff_map(vec):
    return {s: c for s, c in zip(vec.basis.slots, vec.coeffs) if c != 0}


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_fold_examples():
    assert fold_index(7, 9) == 2
    assert fold_index(13, 9) == 4
    assert fold_index(4, 8) == LOG2_SLOT


def test_fold_rejects_zero_class():
    with pytest.raises(ValueError):
        fold_index(0, 9)
    with pytest.raises(ValueError):
        fold_index(18, 9)


def test_fold_range():
    for q in range(3, 40):
        for k in range(1, q):
            slot = fold_index(k, q)
            if slot == LOG2_SLOT:
                assert q % 2 == 0 and k == q // 2
            else:
                assert 1 <= slot < q / 2


# ---------------------------------------------------------------------------
# construction: hand-checked examples
# ---------------------------------------------------------------------------

def test_construct_8_1_4():
    vec = construct_relation(8, 1, 4)
    assert coeff_map(vec) == {1: -1, 2: 1, 3: -1}
    # 2 sin(2 pi/8) = sqrt 2 = 2 sin(pi/8) * 2 sin(3 pi/8)
    with mp.workprec(200):
        lhs = 2 * mpmath.sinpi(mpmath.mpf(2) / 8)
        rhs = 4 * mpmath.sinpi(mpmath.mpf(1) / 8) * mpmath.sinpi(mpmath.mpf(3) / 8)
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -190
        assert abs(lhs - mpmath.sqrt(2)) < mpmath.mpf(2) ** -190
    assert verify_relation(vec, 128).is_zero


def test_construct_6_1_3_coincident_cancellation():
    vec = construct_relation(6, 1, 3)
    # slot 2 receives +1 and -1 and cancels; 2 sin(pi/6) = 1 carries the slack
    assert coeff_map(vec) == {1: -1}
    assert verify_relation(vec, 128).is_zero


def test_construct_9_1_3():
    vec = construct_relation(9, 1, 3)
    assert coeff_map(vec) == {1: -1, 2: -1, 3: 1, 4: -1}
    # product identity: 2sin(pi/9) 2sin(2pi/9) 2sin(4pi/9) = 2sin(3pi/9) = sqrt 3
    with mp.workprec(200):
        prod = (
            8
            * mpmath.sinpi(mpmath.mpf(1) / 9)
            * mpmath.sinpi(mpmath.mpf(2) / 9)
            * mpmath.sinpi(mpmath.mpf(4) / 9)
        )
        assert abs(prod - mpmath.sqrt(3)) < mpmath.mpf(2) ** -190
    assert verify_relation(vec, 128).is_zero


def test_construct_rejects_bad_inputs():
    with pytest.raises(ValueError):
        construct_relation(7, 1, 3)  # prime modulus
    with pytest.raises(ValueError):
        construct_relation(8, 1, 2)  # d = 2 excluded
    with pytest.raises(ValueError):
        construct_relation(8, 1, 8)  # d = q excluded
    with pytest.raises(ValueError):
        construct_relation(8, 1, 3)  # d does not divide q
    with pytest.raises(ValueError):
        construct_relation(8, 2, 4)  # gcd(a, q) > 1
    with pytest.raises(ValueError):
        construct_relation(8, 9, 4)  # a out of range


@pytest.mark.parametrize("q", [q for q in range(6, 31) if not is_prime(q)])
def test_constructed_relations_are_nonzero_and_vanish(q):
    for a, d in valid_divisor_pairs(q):
        vec = construct_relation(q, a, d)
        assert not vec.is_zero_vector
        assert vec.coeff(PI_SLOT) == 0
        assert verify_relation(vec, 128).is_zero, (q, a, d)


# ---------------------------------------------------------------------------
# differential test: explicit trichotomy vs signed accumulation
# ---------------------------------------------------------------------------

def trichotomy_coefficients(q, a, d):
    """Independent implementation: the per-slot +1/-1/0 case analysis.

    alpha_k = +1 when k is the folded class of a q/d and not among the
    folded classes of the a + d j; -1 when it is among those classes and
    not the head; 0 otherwise (including coincidence).
    """
    head = (a * (q // d)) % q
    head_class = min(head, q - head)
    minus_classes = set()
    for j in range(1, q // d + 1):
        idx = (a + d * j) % q
        minus_classes.add(min(idx, q - idx))
    coeffs = {}
    for k in range(1, q // 2 + 1):
        is_head = k == head_class
        is_minus = k in minus_classes
        if is_head and not is_minus:
            coeffs[k] = 1
        elif is_minus and not is_head:
            coeffs[k] = -1
        else:
            coeffs[k] = 0
    return coeffs


@pytest.mark.parametrize("q", [q for q in range(6, 31) if not is_prime(q)])
def test_trichotomy_matches_accumulation(q):
    for a, d in valid_divisor_pairs(q):
        vec = construct_relation(q, a, d)
        expected = trichotomy_coefficients(q, a, d)
        for k in range(1, (q - 1) // 2 + 1):
            assert vec.coeff(k) == expected[k], (q, a, d, k)
        if q % 2 == 0:
            assert vec.coeff(LOG2_SLOT) == expected.get(q // 2, 0), (q, a, d)


# ---------------------------------------------------------------------------
# enumeration and rank
# ---------------------------------------------------------------------------

def test_enumerate_q4_special_relation():
    rels, rank = enumerate_relations(4)
    assert rank == 1 and len(rels) == 1
    assert coeff_map(rels[0]) == {1: 2, LOG2_SLOT: -1}
    assert verify_relation(rels[0], 128).is_zero


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_enumerate_prime_is_empty(p):
    rels, rank = enumerate_relations(p)
    assert rels == () and rank == 0


def test_enumerate_q8_rank_two():
    rels, rank = enumerate_relations(8)
    assert rank == 2
    maps = [coeff_map(r) for r in rels]
    assert {2: 2, LOG2_SLOT: -1} in maps  # 2 log(2 sin(2 pi/8)) = log 2


@pytest.mark.parametrize("q", [q for q in range(6, 61) if not is_prime(q)])
def test_enumerate_all_verify_zero(q):
    rels, rank = enumerate_relations(q)
    assert rank >= 1
    for rel in rels:
        assert verify_relation(rel, 128).is_zero


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("q,expected", [(30, 10), (60, 21), (96, 31)])
def test_enumerate_builds_each_class_once(q, expected, monkeypatch):
    calls = []
    original = relations_mod.construct_relation

    def counting(q, a, d):
        calls.append((a, d))
        return original(q, a, d)

    monkeypatch.setattr(relations_mod, "construct_relation", counting)
    enumerate_relations(q)
    assert len(calls) == sum(_phi(d) // 2 for d in range(3, q) if q % d == 0) == expected
    assert len({(d, min(a % d, d - a % d)) for a, d in calls}) == len(calls)


def test_canonical_scales_to_coprime_integers():
    basis = LogBasis.for_modulus(8)
    vec = RelationVector(
        basis, (Fraction(-2, 3), Fraction(4, 3), Fraction(-2, 3), Fraction(0), Fraction(0)), "manual"
    )
    canon = vec.canonical()
    assert canon.coeffs == (Fraction(1), Fraction(-2), Fraction(1), Fraction(0), Fraction(0))


@settings(deadline=None, max_examples=50)
@given(
    data=st.data(),
    q=st.sampled_from([6, 8, 9, 12]),
)
def test_canonicalization_idempotent(data, q):
    basis = LogBasis.for_modulus(q)
    coeffs = tuple(
        data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        for _ in basis.slots
    )
    vec = RelationVector(basis, coeffs, "manual")
    once = vec.canonical()
    assert once.canonical().coeffs == once.coeffs


def test_verify_single_log_sine_is_nonzero():
    basis = LogBasis.for_modulus(5)
    coeffs = [Fraction(0)] * len(basis.slots)
    coeffs[basis.index_of(1)] = Fraction(1)
    vec = RelationVector(basis, tuple(coeffs), "manual")
    cls = verify_relation(vec, 128)
    assert cls.is_nonzero
    assert float(cls.residual) == pytest.approx(0.16175356557872337, rel=1e-12)  # log(2 sin 36 deg)


def test_verify_zero_vector():
    basis = LogBasis.for_modulus(5)
    vec = RelationVector(basis, tuple(Fraction(0) for _ in basis.slots), "manual")
    cls = verify_relation(vec, 128)
    assert cls.is_zero
    assert cls.residual.mpf == 0


def test_rational_rank_and_span():
    v1 = [Fraction(1), Fraction(0), Fraction(1)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    v3 = [Fraction(1), Fraction(1), Fraction(2)]
    assert rational_rank([v1, v2, v3]) == 2
    assert in_rational_span(v3, [v1, v2])
    assert not in_rational_span([Fraction(1), Fraction(0), Fraction(0)], [v1, v2])


def _integer_rows(rows):
    """Each row scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        lcm = 1
        for c in row:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        out.append([int(c * lcm) for c in row])
    return out


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n_rows=st.integers(1, 6), n_cols=st.integers(1, 6),
       use_fractions=st.booleans())
def test_rational_rank_matches_numpy(data, n_rows, n_cols, use_fractions):
    entry = (st.fractions(min_value=-4, max_value=4, max_denominator=5) if use_fractions
             else st.integers(-3, 3).map(Fraction))
    rows = [[data.draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    expected = int(numpy.linalg.matrix_rank(numpy.array(_integer_rows(rows), dtype=float)))
    assert rational_rank(rows) == expected


def test_relation_record_shape():
    vec = construct_relation(8, 1, 4).canonical()
    rec = relation_record(vec, 128)
    assert rec["q"] == 8
    assert rec["provenance"] == {"a": 1, "d": 4}
    assert set(rec["coeffs"]) == {"1", "2", "3"}
    assert all(isinstance(v, str) for v in rec["coeffs"].values())
    assert rec["residual_bits"] is None or rec["residual_bits"] < -180


def test_basis_slot_counts():
    for q in range(3, 30):
        basis = LogBasis.for_modulus(q)
        expected = (q - 1) // 2 + 1 + (1 if q % 2 == 0 else 0)
        assert len(basis.slots) == expected
        assert basis.slots[-1] == (LOG2_SLOT if q % 2 == 0 else PI_SLOT)
