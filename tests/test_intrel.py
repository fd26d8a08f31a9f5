"""Lattice reduction and integer-relation searches over log-sine bases.

LLL correctness is checked structurally (same lattice, reduced norms) with
an exact rational solver; relation searches are checked against the
explicitly constructed relations and against primes, where no relation
may exist.
"""

import re
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import is_prime
from cyclolog.intrel import (
    NONE_BELOW_BOUND,
    find_integer_relation,
    lll_reduce,
    relation_lattice_rank,
)
from cyclolog.kernel import PrecisionError, Real, const, log_2sin, working_prec
from cyclolog.relations import (
    PI_SLOT,
    LogBasis,
    enumerate_relations,
)
from oracles import in_rational_span


def solve_rational(rows, target):
    """Solve sum x_i rows[i] = target over Q, or return None."""
    m = [[Fraction(v) for v in row] + [Fraction(t)] for row, t in zip(map(list, zip(*rows)), target)]
    # m is (dim) x (nrows+1): columns are the row vectors
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(nrows):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][nrows] != 0:
            return None
    sol = [Fraction(0)] * nrows
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][nrows]
    return sol


def same_lattice(a, b):
    """Every row of a is an integer combination of rows of b, and vice versa."""
    for src, dst in ((a, b), (b, a)):
        for row in src:
            sol = solve_rational(dst, row)
            if sol is None or any(x.denominator != 1 for x in sol):
                return False
    return True


# ---------------------------------------------------------------------------
# LLL
# ---------------------------------------------------------------------------

def test_lll_preserves_lattice_and_shortens():
    basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
    reduced = lll_reduce(basis)
    assert same_lattice(basis, reduced)
    norm = lambda v: sum(x * x for x in v)
    assert min(map(norm, reduced)) <= min(map(norm, basis))


def test_lll_known_small_reduction():
    # classic textbook instance: the reduced basis contains (0, 1, 0)
    basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
    reduced = lll_reduce(basis)
    assert [0, 1, 0] in reduced or [0, -1, 0] in reduced


def test_lll_big_entries_exact():
    basis = [[1, 0, 2**200 + 1], [0, 1, 2**200 - 1]]
    reduced = lll_reduce(basis)
    assert same_lattice(basis, reduced)


def rational_gram_schmidt(rows):
    basis = [[Fraction(v) for v in row] for row in rows]
    ortho = []
    mus = []
    for i, vec in enumerate(basis):
        mu_row = []
        work = vec[:]
        for j in range(i):
            denom = sum(x * x for x in ortho[j])
            mu = sum(x * y for x, y in zip(vec, ortho[j])) / denom
            mu_row.append(mu)
            work = [w - mu * o for w, o in zip(work, ortho[j])]
        ortho.append(work)
        mus.append(mu_row)
    return ortho, mus


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 1], [-1, 0, 2], [3, 5, 6]],
        [[4, 1, 0, 7], [2, 9, 3, 1], [0, 5, 8, 2], [6, 1, 1, 9]],
        [[1, 0, 2**60 + 3], [0, 1, 2**60 - 5], [0, 0, 2**61 + 1]],
    ],
)
def test_lll_output_is_reduced(rows):
    delta = Fraction(99, 100)
    reduced = lll_reduce(rows, delta)
    ortho, mus = rational_gram_schmidt(reduced)
    for i, mu_row in enumerate(mus):
        for mu in mu_row:
            assert abs(mu) <= Fraction(1, 2), (i, mu)
    for k in range(1, len(reduced)):
        lhs = sum(x * x for x in ortho[k])
        mu = mus[k][k - 1]
        rhs = (delta - mu * mu) * sum(x * x for x in ortho[k - 1])
        assert lhs >= rhs, k


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])


def test_lll_rejects_bad_delta():
    with pytest.raises(ValueError):
        lll_reduce([[1, 0], [0, 1]], delta=Fraction(1, 8))


# ---------------------------------------------------------------------------
# relation search
# ---------------------------------------------------------------------------

def test_find_sqrt2_relation():
    wp = working_prec(256)
    values = [log_2sin(1, 4, wp), const("log2", wp)]
    result = find_integer_relation(values, 100, 256)
    assert result.is_found
    assert result.found == (2, -1)
    assert float(result.residual) < 2.0**-250


def test_find_rejects_low_precision_for_bound():
    wp = working_prec(64)
    values = [log_2sin(1, 4, wp), const("log2", wp)]
    with pytest.raises(PrecisionError):
        find_integer_relation(values, 10**6, 64)


def test_find_requires_adequate_value_precision():
    values = [log_2sin(1, 4, 64), const("log2", 64)]
    with pytest.raises(PrecisionError):
        find_integer_relation(values, 100, 256)


def test_find_none_for_independent_values():
    wp = working_prec(256)
    values = [const("pi", wp), const("log2", wp)]
    result = find_integer_relation(values, 10**4, 256)
    assert result.verdict == NONE_BELOW_BOUND
    assert result.found is None
    assert result.coeff_bound == 10**4 and result.prec == 256


def test_found_relations_survive_doubled_precision():
    basis = LogBasis.for_modulus(8)
    wp = working_prec(256)
    values = [Real(v, wp) for v in basis.values_raw(wp)]
    result = find_integer_relation(values, 10**6, 256, value_provider=basis.values_raw)
    assert result.is_found
    # re-verify by hand at doubled precision
    with mp.workprec(2 * wp):
        vals2 = basis.values_raw(2 * wp)
        residual = abs(mpmath.fsum(c * v for c, v in zip(result.found, vals2)))
        assert residual < mpmath.mpf(2) ** -256


# ---------------------------------------------------------------------------
# lattice rank per modulus
# ---------------------------------------------------------------------------

def test_rank_q4():
    lat = relation_lattice_rank(4, 10**6, 256)
    assert lat.rank == 1


def test_rank_q8_contains_expected_vector():
    lat = relation_lattice_rank(8, 10**6, 256)
    assert lat.rank == 2
    target = [Fraction(-1), Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]
    gens = [[Fraction(x) for x in g] for g in lat.generators]
    assert in_rational_span(target, gens)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rank_prime_is_zero(p):
    lat = relation_lattice_rank(p, 10**4, 256)
    assert lat.rank == 0
    assert lat.generators == ()


def test_pi_coefficient_always_zero_in_generators():
    for q in (4, 6, 8, 9, 12, 16):
        lat = relation_lattice_rank(q, 10**6, 256)
        pi_idx = lat.basis.index_of(PI_SLOT)
        for gen in lat.generators:
            assert gen[pi_idx] == 0, (q, gen)


@pytest.mark.parametrize("q", [q for q in range(4, 41) if not is_prime(q)])
def test_span_containment_constructed_within_searched(q):
    rels, _ = enumerate_relations(q)
    lat = relation_lattice_rank(q, 10**6, 256)
    gens = [[Fraction(x) for x in g] for g in lat.generators]
    for rel in rels:
        assert in_rational_span(list(rel.coeffs), gens), (q, rel.provenance)


def test_rank_result_records_search_parameters():
    lat = relation_lattice_rank(9, 500, 192)
    assert lat.coeff_bound == 500
    assert lat.prec == 192
    assert lat.modulus == 9


@pytest.mark.parametrize("q", [6, 8, 9, 12, 15, 16, 18, 20, 24])
def test_search_rank_at_least_constructed_rank(q):
    # the constructed set need not span everything, but never exceeds it
    _, constructed_rank = enumerate_relations(q)
    lat = relation_lattice_rank(q, 10**6, 256)
    assert lat.rank >= constructed_rank, (lat.rank, constructed_rank)


def test_rank_search_reads_values_once_per_precision(monkeypatch):
    import cyclolog.intrel as intrel

    wp = working_prec(256)
    events = []
    original_find = intrel.find_integer_relation
    original_values = LogBasis.values_raw

    def counting_find(*args, **kwargs):
        events.append("f")
        return original_find(*args, **kwargs)

    def counting_values(self, wbits):
        events.append({wp: "w", 2 * wp: "d"}[wbits])
        return original_values(self, wbits)

    monkeypatch.setattr(intrel, "find_integer_relation", counting_find)
    monkeypatch.setattr(LogBasis, "values_raw", counting_values)
    lat = relation_lattice_rank(20, 10**6, 256)
    assert lat.rank == 5
    # per search: the values at wp, the search, at most one doubled-precision witness
    trace = "".join(events)
    assert re.fullmatch(r"(wfd?)+", trace), trace
    assert trace.count("f") == lat.rank + 1  # the last search finds nothing
