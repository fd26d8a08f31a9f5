"""Lattice reduction and integer-relation searches over log-sine bases.

LLL correctness is checked structurally (same lattice, reduced norms) with
an exact rational solver; relation searches are checked against the
explicitly constructed relations and against primes, where no relation
may exist.
"""

import json
import re
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mp

from cyclolog.characters import factorize, is_prime
from cyclolog.cli import main
from cyclolog.intrel import (
    DELTA,
    FOUND,
    NONE_BELOW_BOUND,
    PiCoefficientViolation,
    find_integer_relation,
    lll_reduce,
    relation_lattice_rank,
)
from cyclolog.kernel import PrecisionError, const_raw, log_2sin_raw, working_prec
from cyclolog.relations import (
    PI_SLOT,
    LogBasis,
    enumerate_relations,
)
from oracles import euler_phi, in_rational_span


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
    reduced = lll_reduce(rows)
    ortho, mus = rational_gram_schmidt(reduced)
    for i, mu_row in enumerate(mus):
        for mu in mu_row:
            assert abs(mu) <= Fraction(1, 2), (i, mu)
    for k in range(1, len(reduced)):
        lhs = sum(x * x for x in ortho[k])
        mu = mus[k][k - 1]
        rhs = (DELTA - mu * mu) * sum(x * x for x in ortho[k - 1])
        assert lhs >= rhs, k


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# relation search
# ---------------------------------------------------------------------------

def test_find_sqrt2_relation():
    # q = 4 has slots (1, PI, LOG2): 2 log(2 sin pi/4) = log 2
    result = find_integer_relation(4, 100, 256)
    assert result.verdict == FOUND
    assert result.found == (2, 0, -1)
    assert float(result.residual) < 2.0**-250


def test_find_rejects_low_precision_for_bound():
    with pytest.raises(PrecisionError):
        find_integer_relation(4, 10**6, 64)


def test_find_none_for_independent_values():
    # q = 3 has slots (1, PI): log(2 sin pi/3) = log(3)/2 and pi
    result = find_integer_relation(3, 10**4, 256)
    assert result.verdict == NONE_BELOW_BOUND
    assert result.found is None
    assert result.coeff_bound == 10**4 and result.prec == 256


def test_found_relations_survive_doubled_precision():
    basis = LogBasis.for_modulus(8)
    wp = working_prec(256)
    result = find_integer_relation(8, 10**6, 256)
    assert result.verdict == FOUND
    # re-verify by hand at doubled precision
    with mp.workprec(2 * wp):
        vals2 = basis.values_raw(2 * wp)
        residual = abs(mpmath.fsum(c * v for c, v in zip(result.found, vals2)))
        assert residual < mpmath.mpf(2) ** -256


@pytest.fixture
def pi_equals_log2(monkeypatch):
    """Make the q = 4 basis read (log(2 sin pi/4), log 2, log 2): the shortest
    relation is then PI - LOG2, which has a nonzero pi coefficient."""

    def values_raw(self, wp):
        return (log_2sin_raw(1, 4, wp), const_raw("log2", wp), const_raw("log2", wp))

    monkeypatch.setattr(LogBasis, "values_raw", values_raw)


def test_search_guards_the_pi_coefficient(pi_equals_log2):
    with pytest.raises(PiCoefficientViolation):
        find_integer_relation(4, 100, 256)
    with pytest.raises(PiCoefficientViolation):
        relation_lattice_rank(4, 100, 256)


@pytest.mark.parametrize("argv", [["intrel", "--q", "4"], ["rank", "--q", "4", "--prec", "256"]])
def test_cli_reports_a_pi_coefficient_violation(pi_equals_log2, argv, capsys, monkeypatch):
    monkeypatch.delenv("CYCLOLOG_PREC", raising=False)
    assert main(argv) == 4
    assert "nonzero pi coefficient" in json.loads(capsys.readouterr().out)["error"]


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
        coords = solve_rational(lat.generators, rel.coeffs)  # unique: generators are independent
        assert coords is not None and all(x.denominator == 1 for x in coords), (q, rel.provenance)


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
    original_lll = intrel.lll_reduce
    original_values = LogBasis.values_raw

    def counting_lll(*args, **kwargs):
        events.append("l")
        return original_lll(*args, **kwargs)

    def counting_values(self, wbits):
        events.append({wp: "w", 2 * wp: "d"}[wbits])
        return original_values(self, wbits)

    monkeypatch.setattr(intrel, "lll_reduce", counting_lll)
    monkeypatch.setattr(LogBasis, "values_raw", counting_values)
    lat = relation_lattice_rank(20, 10**6, 256)
    assert lat.rank == 5
    # the values at wp, one reduction, at most one doubled-precision witness
    trace = "".join(events)
    assert re.fullmatch(r"wld?", trace), trace


@pytest.mark.parametrize("q", [q for q in range(4, 61) if not is_prime(q)] + [72, 96])
def test_rank_matches_closed_form(q):
    # #log slots - (phi(q)/2 - 1 + omega(q)): circular units have finite index
    # in the units of Q(zeta_q)^+, and each prime p | q adds one log p
    lat = relation_lattice_rank(q, 10**6, 256)
    log_slots = sum(1 for s in lat.basis.slots if s != PI_SLOT)
    assert lat.rank == log_slots - (euler_phi(q) // 2 - 1 + len(factorize(q)))
    assert all(gcd(*gen) == 1 for gen in lat.generators)


def test_lattice_rank_rejects_a_modulus_below_3():
    with pytest.raises(ValueError, match=r"^modulus must be >= 3, got 2$"):
        relation_lattice_rank(2)


def test_lll_rejects_a_zero_first_row_and_keeps_a_single_row():
    with pytest.raises(ValueError, match=r"^zero input row$"):
        lll_reduce([[0, 0], [1, 2]])
    assert lll_reduce([[3, -4, 5]]) == [[3, -4, 5]]
