"""Sign-function scans, the L-nonzero/trivial-relation dichotomy, kernel
functions, and the append-only scan store."""

import json
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_abs, mpf_neg, round_nearest, to_str

from cyclolog.characters import PeriodicFunction
from cyclolog.kernel import (
    INDETERMINATE,
    NONZERO,
    ZERO,
    Real,
    ZeroClass,
    classify_zero,
    dec_str,
    decimal_digits,
    radius_decides_nonzero,
    working_prec,
)
from cyclolog.lseries import decompose_l1, l1, l1_ball_raw, l1_digamma_raw
from cyclolog.scans import (
    BRANCH_L_NONZERO,
    BRANCH_TRIG_VANISH,
    ScanStore,
    ScanStoreDisagreement,
    _l1_balls,
    _minimum,
    _negated,
    _plus_sets,
    _scan_range,
    bbw_function,
    dichotomy,
    evaluate,
    scan,
    sign_function,
    trig_sums_raw,
)
from cyclolog.serialize import canonical_json
from cyclolog.tables import Tables, tables

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


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 15])
def test_complementing_the_plus_set_reverses_the_rank(q):
    # the order is decided by the least element of the symmetric difference,
    # and complementing moves that element to the other side
    ranked = list(combinations(range(q - 1), (q - 1) // 2))
    count = len(ranked)
    assert count % 2 == 0
    for i, plus in enumerate(ranked):
        assert ranked[count - 1 - i] == tuple(sorted(set(range(q - 1)) - set(plus)))


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


def test_scan_worker_count_is_invisible_in_output(fork_small_scans):
    seq = scan(5, 160, workers=1)
    par = scan(5, 160, workers=2)
    assert seq.records == par.records
    assert seq.to_payload() == par.to_payload()


@pytest.fixture
def serial_pools(monkeypatch):
    """The worker counts of the pools the scans make (``sizes``) and the
    (start, stop) rank ranges they map (``ranges``), each pool a fake that
    maps serially, so no process is started."""
    import cyclolog.scans as scans_mod

    made = SimpleNamespace(sizes=[], ranges=[])

    class SerialPool:
        def __init__(self, max_workers):
            made.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, q, prec, starts, stops, chunksize=1):
            made.ranges += zip(starts, stops)
            return map(fn, q, prec, starts, stops)

    monkeypatch.setattr(scans_mod, "_process_pool", SerialPool)
    return made


def usable_cpus(monkeypatch, affinity=None, cpus=None):
    """The CPUs a scan sees: an affinity set, or without one (a platform
    that has no ``sched_getaffinity``) the machine's count."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus,pool_sizes", [(2, [2]), (None, [])])
def test_scan_workers_are_capped_at_the_cpu_count(cpus, pool_sizes, fork_small_scans, serial_pools, monkeypatch):
    # no affinity set: the machine's count, or one CPU where it is unknown
    usable_cpus(monkeypatch, cpus=cpus)
    capped = scan(5, 64, workers=10**6)
    assert serial_pools.sizes == pool_sizes
    assert capped.to_payload(True) == scan(5, 64, workers=1).to_payload(True)


@pytest.mark.parametrize("affinity,pool_sizes", [({0, 5}, [2]), ({3}, [])], ids=["two", "one"])
def test_scan_workers_are_capped_at_the_affinity_set(affinity, pool_sizes, fork_small_scans, serial_pools, monkeypatch):
    # a cpuset-limited process: the host's count is not the CPUs it may use
    usable_cpus(monkeypatch, affinity=affinity, cpus=8)
    capped = scan(5, 64, workers=10**6)
    assert serial_pools.sizes == pool_sizes
    assert capped.to_payload(True) == scan(5, 64, workers=1).to_payload(True)


@pytest.mark.parametrize("q,workers,pool_sizes", [(15, 2, []), (17, 8, []), (19, 2, [2]), (19, 8, [8])])
def test_only_q19_is_large_enough_to_fork(q, workers, pool_sizes, serial_pools, monkeypatch):
    import cyclolog.scans as scans

    class Evaluated(Exception):
        pass

    def no_evaluation(*args):
        raise Evaluated

    # the worker count is chosen before any range is evaluated; at most
    # 6,435 pairs (q <= 17) do not repay a worker's fork, whatever the
    # request, and q = 19 forks every worker asked for that has a CPU
    monkeypatch.setattr(scans, "_scan_range", no_evaluation)
    usable_cpus(monkeypatch, affinity=range(8))
    with pytest.raises(Evaluated):
        scan(q, 192, workers=workers)
    assert serial_pools.sizes == pool_sizes


@pytest.mark.parametrize("threshold,workers,pool_sizes", [(17, 2, [2]), (17, 3, [3]), (18, 2, [])])
def test_workers_fork_only_when_a_split_in_two_reaches_the_threshold(
    threshold, workers, pool_sizes, serial_pools, monkeypatch
):
    import cyclolog.scans as scans

    # q = 9 has 35 complementary pairs: two shares of 17, not of 18; past
    # the threshold the request alone counts, though three shares are of 11;
    # the pairs are cut once, into one contiguous range a worker
    ranges = {2: [(0, 17), (17, 35)], 3: [(0, 11), (11, 23), (23, 35)]}
    monkeypatch.setattr(scans, "MIN_PAIRS_PER_WORKER", threshold)
    usable_cpus(monkeypatch, affinity=range(8))
    report = scan(9, 64, workers=workers)
    assert serial_pools.sizes == pool_sizes
    assert serial_pools.ranges == (ranges[workers] if pool_sizes else [])
    assert report.to_payload(True) == scan(9, 64, workers=1).to_payload(True)


@pytest.mark.parametrize(
    "store_pass", [None, "write", "verify"], ids=["no-store", "fresh-store", "verify-store"]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_folds_records_without_parsing_them(workers, store_pass, fork_small_scans, monkeypatch, tmp_path):
    import cyclolog.scans as scans_mod

    def no_parse(*args, **kwargs):
        raise AssertionError("a freshly produced or byte-equal stored record was parsed")

    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path)) if store_pass else None
    if store_pass == "verify":
        scan(7, 64, store=store)
    monkeypatch.setattr(scans_mod.json, "loads", no_parse)
    report = scan(7, 64, workers=workers, store=store)
    monkeypatch.undo()
    assert report.admissible_count == comb(6, 3) == len(report.records)
    assert sum(report.class_counts.values()) == comb(6, 3)
    reference = scan(7, 64)
    assert report.to_payload(include_records=True) == reference.to_payload(include_records=True)
    if store_pass:
        assert path.read_text() == "".join(line + "\n" for line in report.records)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_the_record_template_is_canonical_json(prec):
    for q in (3, 5, 7, 9, 11, 13):
        for line in scan(q, prec).records:
            assert line == canonical_json(json.loads(line))
            assert list(json.loads(line)) == ["q", "signs", "L", "prec", "class", "cot_sum", "cos_sums"]


def shrinking_eps(wp0: int) -> property:
    """A table bound of 2^20 at the scan's working precision wp0 that shrinks
    as 2^(20 + wp0 - wp) at higher precision: no radius decides at wp0, and
    the first escalation decides."""
    return property(lambda self: mpmath.mpf(2) ** (20 + wp0 - self.wp))


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_the_record_template_renders_the_fallback_tags(prec, monkeypatch):
    import cyclolog.scans as scans_mod

    escalated = scans_mod.classify_zero
    tags = []

    def every_tag(x, target, recompute=None):
        # the escalated verdict, then the two tags no scan reaches
        tag = (escalated(x, target, recompute).tag, ZERO, INDETERMINATE)[len(tags) % 3]
        tags.append(tag)
        return ZeroClass(tag, Real(abs(x.mpf), target))

    monkeypatch.setattr(scans_mod, "classify_zero", every_tag)
    # no L radius decides, so every record takes its tag from the fallback's classify_zero
    monkeypatch.setattr(Tables, "eps_psi", shrinking_eps(working_prec(prec)))
    for q in (5, 7, 9):
        for line in scan(q, prec).records:
            assert line == canonical_json(json.loads(line))
    assert set(tags) == {NONZERO, ZERO, INDETERMINATE}


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


def evaluated_record(q, signs, prec):
    """The scan record of one sign function, by evaluate and dec_str."""
    digits = decimal_digits(prec)
    value, cls, cot, cos_sums = evaluate(sign_function(q, signs), prec)
    return {
        "q": q,
        "signs": list(signs),
        "L": dec_str(value, digits),
        "prec": prec,
        "class": cls.tag,
        "cot_sum": dec_str(cot, digits),
        "cos_sums": [dec_str(cos_sums[b], digits) for b in sorted(cos_sums)],
    }


@lru_cache(maxsize=None)
def per_function_scan(q, prec):
    """(records, min_abs_L text, argmin signs) by evaluate and dec_str for each
    function in enumeration order, and a strict-< minimum over the L texts
    parsed back at working precision."""
    wp = working_prec(prec)
    lines, low, argmin = [], None, None
    for positions in combinations(range(q - 1), (q - 1) // 2):
        signs = tuple(1 if i in positions else -1 for i in range(q - 1))
        record = evaluated_record(q, signs, prec)
        lines.append(canonical_json(record))
        with mp.workprec(wp):
            parsed = abs(mpmath.mpf(record["L"]))
        if low is None or parsed < low:
            low, argmin = parsed, signs
    return tuple(lines), Real(low, prec).to_decimal(), argmin


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "q,prec", [(q, prec) for q in (3, 5, 7, 9, 11, 13) for prec in (64, 128, 192)] + [(15, 192)]
)
def test_batched_scan_equals_the_per_function_evaluation(q, prec, workers, fork_small_scans):
    lines, low, argmin = per_function_scan(q, prec)
    report = scan(q, prec, workers=workers)
    assert report.records == lines
    assert report.min_abs_l.to_decimal() == low
    assert report.argmin_signs == argmin


@pytest.mark.parametrize("escalate", [False, True], ids=["radius", "escalated"])
@pytest.mark.parametrize("prec", [64, 192])
def test_every_row_a_scan_emits_is_the_evaluation_of_its_own_signs(prec, escalate, monkeypatch):
    import cyclolog.scans as scans

    calls = []
    original = scans.classify_zero

    def counting(x, target, recompute=None):
        calls.append(target)
        return original(x, target, recompute)

    monkeypatch.setattr(scans, "classify_zero", counting)
    if escalate:
        # no L radius decides at wp, in the scan and in evaluate alike
        monkeypatch.setattr(Tables, "eps_psi", shrinking_eps(working_prec(prec)))
    for q in (3, 5, 7, 9, 11, 13):
        count = comb(q - 1, (q - 1) // 2)
        calls.clear()
        report = scan(q, prec)
        # one classification per complementary pair, where the radius cannot decide
        assert len(calls) == (count // 2 if escalate else 0)
        assert len(report.records) == count
        for i, (line, positions) in enumerate(zip(report.records, combinations(range(q - 1), (q - 1) // 2))):
            record = json.loads(line)
            assert record["signs"] == [1 if j in positions else -1 for j in range(q - 1)], (q, i)
            assert line == canonical_json(evaluated_record(q, tuple(record["signs"]), prec)), (q, i)


@settings(max_examples=300, deadline=None)
@example(0, 20)
@example(-12345, 10)  # -12345.0
@example((3, -2), 5)  # 0.75
@example((-3, -40), 10)  # -2.728484105e-12
@example((1, 200), 40)  # 1.606938044258990275541962092341162602522e+60
@given(
    st.one_of(
        st.just(0),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.tuples(st.integers(min_value=-(2**200), max_value=2**200), st.integers(min_value=-700, max_value=200)),
    ),
    st.integers(min_value=1, max_value=100),
)
def test_a_negated_text_is_the_text_of_the_negated_value(x, digits):
    # 0, whole numbers (the ".0" form) and both fixed and scientific notation
    man, exp = (x, 0) if isinstance(x, int) else x
    v = from_man_exp(man, exp)
    assert _negated(dec_str(mp.make_mpf(v), digits)) == dec_str(mp.make_mpf(mpf_neg(v)), digits)
    assert _negated(to_str(v, digits)) == to_str(mpf_neg(v), digits)


def test_scan_renders_each_distinct_cos_sum_once_per_range(monkeypatch):
    import cyclolog.scans as scans

    q, prec = 15, 192
    half = comb(q - 1, (q - 1) // 2) // 2
    rendered = []
    dec_str_ = scans.dec_str

    def counting(x, digits):
        rendered.append(x)
        return dec_str_(x, digits)

    monkeypatch.setattr(scans, "dec_str", counting)
    pairs = scans._scan_range(q, prec, 0, half)
    # L and the cot sum of each of the 1,716 functions of the first half, and
    # each of the 1,934 distinct exact integers their 12,012 cos sums take at
    # wp 256; the complements' texts are negated, not rendered
    assert len(pairs) == half
    assert len(rendered) == 2 * half + 1934
    monkeypatch.undo()
    for bounds in (
        [0, half // 2, half],
        [half * k // 16 for k in range(17)],
        [0, 1, 2, 1000, half - 1, half],
    ):
        ranges = [scans._scan_range(q, prec, a, b) for a, b in zip(bounds, bounds[1:])]
        assert [pair for part in ranges for pair in part] == pairs


def reference_scan_range(q, prec, start, stop):
    """``_scan_range`` as one loop over ``islice(combinations(...))``: each
    function's sums summed afresh from its plus positions, L's ball from
    ``l1_ball_raw``, every text of the complement negated from the
    function's, and each line ``canonical_json`` of its record dict."""
    wp = working_prec(prec)
    tab = tables(q, wp)
    psi, psi_exp = tab.psi_aligned
    cot, cot_exp = tab.cot_aligned
    cos, cos_exp = tab.cos_aligned
    bs = range(1, (q - 1) // 2 + 1)
    columns = [(psi[i], cot[i], *(cos[(i + 1) * b % q] for b in bs)) for i in range(q - 1)]
    totals = [sum(col) for col in zip(*columns)]
    share = tab.rule(psi=q - 1)
    digits = decimal_digits(prec)

    def rendered(n, exp):
        return dec_str(mp.make_mpf(from_man_exp(n, exp, wp, round_nearest)), digits)

    def line(signs, tag, texts):
        l_text, cot_text, *cos_texts = texts
        record = {"q": q, "signs": list(signs), "L": l_text, "prec": prec, "class": tag,
                  "cot_sum": cot_text, "cos_sums": cos_texts}
        return l_text, canonical_json(record)

    pairs = []
    for positions in islice(combinations(range(q - 1), (q - 1) // 2), start, stop):
        psi_n, cot_n, *cos_ns = [
            2 * plus - total for plus, total in zip(map(sum, zip(*(columns[i] for i in positions))), totals)
        ]
        raw, rad = l1_ball_raw(tab, share, from_man_exp(psi_n, psi_exp, wp, round_nearest))
        magnitude = mpf_abs(raw)
        signs = tuple(1 if i in positions else -1 for i in range(q - 1))
        if radius_decides_nonzero(magnitude, rad, prec):
            tag = NONZERO
        else:
            ball = Real.ball((raw, rad), wp)
            tag = classify_zero(ball, prec, lambda w: l1_digamma_raw(sign_function(q, signs), w)).tag
        texts = [dec_str(mp.make_mpf(raw), digits), rendered(cot_n, cot_exp), *(rendered(n, cos_exp) for n in cos_ns)]
        twin = tuple(-s for s in signs)
        pairs.append((
            (signs, tag, magnitude, *line(signs, tag, texts)),
            (twin, tag, magnitude, *line(twin, tag, [_negated(t) for t in texts])),
        ))
    return pairs


def random_cuts(count, seed, cuts=4):
    """The rank range [0, count) cut at ``cuts`` seeded random points, ends
    and repeated points (empty ranges) among them."""
    rng = random.Random(seed)
    return sorted([0, count, *(rng.randint(0, count) for _ in range(cuts))])


@pytest.mark.parametrize("prec", [64, 128, 192])
@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_the_rank_walk_equals_the_reference_loop(q, prec):
    half = comb(q - 1, (q - 1) // 2) // 2
    whole = _scan_range(q, prec, 0, half)
    assert whole == reference_scan_range(q, prec, 0, half)
    # any cut: each range unranks its own start and steps from there
    bounds = random_cuts(half, seed=1000 * q + prec)
    assert [pair for a, b in zip(bounds, bounds[1:]) for pair in _scan_range(q, prec, a, b)] == whole
    for a, b in zip(bounds, bounds[1:]):
        assert _scan_range(q, prec, a, b) == reference_scan_range(q, prec, a, b)
    assert _scan_range(q, prec, half, half) == []


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_the_unranked_walk_is_the_combinations_order_from_every_start(q):
    n, k = q - 1, (q - 1) // 2
    subsets = list(combinations(range(n), k))

    def indicator(subset):
        return [1 if i in subset else -1 for i in range(n)]

    before = None
    for depth, positions, signs in _plus_sets(n, k, 0, len(subsets)):
        now = tuple(positions)
        assert signs == indicator(now)
        # the first index that differs from the subset before, 0 for the first
        assert depth == (0 if before is None else next(d for d in range(k) if now[d] != before[d]))
        before = now
    for start in range(len(subsets) + 1):
        walk = _plus_sets(n, k, start, len(subsets))
        first = next(walk, None)
        if first is not None:
            assert first[0] == 0 and first[2] == indicator(first[1])
            assert [tuple(first[1])] + [tuple(p) for _, p, _ in walk] == subsets[start:]
        else:
            assert start == len(subsets)
    # a stop short of the end, and an empty range
    assert [tuple(p) for _, p, _ in _plus_sets(n, k, 1, len(subsets) - 1)] == subsets[1:-1]
    assert list(_plus_sets(n, k, 2, 2)) == []


@pytest.mark.parametrize("eps", ["tables", "shrinking"])
@pytest.mark.parametrize("prec", [64, 192])
def test_one_radius_per_binade_is_the_radius_of_l1_ball_raw(prec, eps, monkeypatch):
    wp = working_prec(prec)
    if eps == "shrinking":
        monkeypatch.setattr(Tables, "eps_psi", shrinking_eps(wp))
    for q in (3, 5, 7, 9, 11):
        tab = tables(q, wp)
        share = tab.rule(psi=q - 1)
        balls = _l1_balls(tab, share)
        # every function, not only the first half: -f rounds into the binades of f
        for positions in combinations(range(q - 1), (q - 1) // 2):
            signs = tuple(1 if i in positions else -1 for i in range(q - 1))
            total = tab.weighted_sum("psi", sign_function(q, signs).exact_values)._mpf_
            assert balls(total) == l1_ball_raw(tab, share, total), (q, signs)


@pytest.mark.parametrize("zero_first", [True, False])
def test_the_radius_memo_keeps_a_zero_sum_apart_from_the_binade_at_exponent_0(zero_first):
    tab = tables(5, working_prec(64))
    share = tab.rule(psi=4)
    half = from_man_exp(1, -1)  # 1/2: exp + bc = 0, as fzero's also reads
    assert half[2] + half[3] == 0 == fzero[2] + fzero[3]
    balls = _l1_balls(tab, share)
    for total in ((fzero, half) if zero_first else (half, fzero)):
        assert balls(total) == l1_ball_raw(tab, share, total)
    assert balls(fzero)[1] != balls(half)[1]


def test_minimum_keeps_the_first_of_values_that_render_alike():
    # a > b, but both render as 0.5 at 3 digits: today's minimum over the
    # parsed texts is a strict <, so the first of the two stays the argmin
    a, b, c = (mpmath.mpf(x) for x in ("0.50002", "0.50001", "0.6"))
    rows = [
        ((1, -1), NONZERO, c._mpf_, dec_str(c, 3), ""),
        ((1, 1), NONZERO, a._mpf_, dec_str(-a, 3), ""),
        ((-1, -1), NONZERO, b._mpf_, dec_str(b, 3), ""),
    ]
    assert dec_str(a, 3) == dec_str(b, 3) == "0.5"
    assert _minimum(rows) == ("0.5", (1, 1))
    # a smaller value with a text of its own takes over
    d = mpmath.mpf("0.49")
    assert _minimum(rows + [((-1, 1), NONZERO, d._mpf_, dec_str(d, 3), "")]) == ("0.49", (-1, 1))


def test_a_radius_that_cannot_decide_sends_every_record_to_escalation(fork_small_scans, monkeypatch):
    import cyclolog.scans as scans

    q, prec = 9, 128
    reference = scan(q, prec)
    verdicts = []
    original = scans.classify_zero

    def recording(x, target, recompute=None):
        out = original(x, target, recompute)
        verdicts.append(out)
        return out

    monkeypatch.setattr(scans, "classify_zero", recording)
    # no L radius decides at wp: each verdict must come from an escalated ball
    monkeypatch.setattr(Tables, "eps_psi", shrinking_eps(working_prec(prec)))
    escalated = scan(q, prec)
    # one verdict per complementary pair, which -f shares with f
    assert len(verdicts) == comb(q - 1, (q - 1) // 2) // 2
    assert all(v.is_nonzero and v.rigorous and v.residual.prec > working_prec(prec) for v in verdicts)
    assert escalated.to_payload(include_records=True) == reference.to_payload(include_records=True)
    assert scan(q, prec, workers=2).records == reference.records


def test_an_undecided_record_is_classified_from_the_sums_the_scan_holds(monkeypatch):
    import cyclolog.scans as scans

    q, prec = 9, 128
    wp = working_prec(prec)
    calls = {"trig_sums_raw": [], "l1_digamma_raw": []}
    for name, precisions in calls.items():
        original = getattr(scans, name)

        def counting(f, w, original=original, precisions=precisions):
            precisions.append(w)
            return original(f, w)

        monkeypatch.setattr(scans, name, counting)
    # no L radius decides at wp: every record is classified by one escalation
    # of L alone, at 32 bits and more above wp
    monkeypatch.setattr(Tables, "eps_psi", shrinking_eps(wp))
    report = scan(q, prec)
    assert report.class_counts == {NONZERO: comb(q - 1, (q - 1) // 2)}
    assert calls["trig_sums_raw"] == []
    # one escalation per complementary pair: -f takes the class of f
    assert len(calls["l1_digamma_raw"]) == comb(q - 1, (q - 1) // 2) // 2
    assert all(w >= wp + 32 for w in calls["l1_digamma_raw"])


def test_the_batch_applies_the_rule_to_the_radius_evaluate_gives(monkeypatch):
    import cyclolog.scans as scans

    q, prec = 9, 128
    applied, balls = [], []
    rule = scans.radius_decides_nonzero

    def recording_rule(mag, rad, target):
        applied.append((mag, rad, target))
        return rule(mag, rad, target)

    def capture(x, target, recompute=None):
        balls.append((x, target))
        return classify_zero(x, target, recompute)

    monkeypatch.setattr(scans, "radius_decides_nonzero", recording_rule)
    monkeypatch.setattr(scans, "classify_zero", capture)
    scan(q, prec)
    assert not balls  # every record decided by the rule
    # the rule runs once per complementary pair: f of the first half and -f
    # both have the radius evaluate gives, and the |L| the rule saw
    half = comb(q - 1, (q - 1) // 2) // 2
    assert len(applied) == half
    for positions, (mag, rad, target) in zip(combinations(range(q - 1), (q - 1) // 2), applied):
        signs = tuple(1 if i in positions else -1 for i in range(q - 1))
        for s in (signs, tuple(-v for v in signs)):
            evaluate(sign_function(q, s), prec)
            (x, want_target), = balls
            balls.clear()
            assert (mag, rad, target) == (mpf_abs(x.mpf._mpf_), x.rad._mpf_, want_target)


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
    f = sign_function(13, signs)
    wp = working_prec(128)
    # the radii decide every NonZero sum: no escalation runs
    verdict = dichotomy(f, 128)
    assert verdict.branch == BRANCH_L_NONZERO
    nonzero = [c for c in verdict.trig_classes.values() if c.is_nonzero]
    assert nonzero and all(c.rigorous for c in nonzero)
    assert precisions == [wp]
    # radii too large to decide at wp: each NonZero sum escalates, and the
    # trig sums are recomputed once at each precision a sum escalates to
    precisions.clear()
    for family in ("eps_cot", "eps_roots"):
        monkeypatch.setattr(Tables, family, shrinking_eps(wp))
    escalated = dichotomy(f, 128)
    assert {k: c.tag for k, c in escalated.trig_classes.items()} == {
        k: c.tag for k, c in verdict.trig_classes.items()
    }
    nonzero = [c for c in escalated.trig_classes.values() if c.is_nonzero]
    assert all(c.rigorous and c.residual.prec > wp for c in nonzero)
    assert precisions[0] == wp
    assert sorted(precisions[1:]) == sorted({c.residual.prec for c in nonzero})


def test_dichotomy_forms_the_trig_sums_once_per_precision(monkeypatch):
    # f = 10^40 g + h mod 7 at prec 64: the cot sum decides at wp, and the
    # cos sums escalate, two of them to the same w; that w forms one set of
    # trig sums, so no precision repeats
    import cyclolog.scans as scans

    precisions = []
    original = scans.trig_sums_raw

    def counting(f, wp):
        precisions.append(wp)
        return original(f, wp)

    monkeypatch.setattr(scans, "trig_sums_raw", counting)
    g, h = (1, 2, 3, -3, -2, -1, 0), (1, -1, 1, 1, -1, -1, 0)
    f = PeriodicFunction.from_rationals(7, [10**40 * a + b for a, b in zip(g, h)])
    verdict = dichotomy(f, 64)
    reached = [c.residual.prec for c in verdict.trig_classes.values()]
    assert len(set(reached)) < len(reached)  # a shared w, formed once below
    assert len(precisions) == len(set(precisions))
    assert set(precisions) == {working_prec(64), *reached}


@pytest.mark.parametrize("workers", [0, -1])
def test_scan_rejects_worker_counts_below_one_before_any_evaluation(monkeypatch, workers):
    import cyclolog.scans as scans

    def no_evaluation(*args):
        raise AssertionError("a function was evaluated before the worker count was checked")

    # every scanned function is evaluated inside a rank range
    monkeypatch.setattr(scans, "_scan_range", no_evaluation)
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


def test_dichotomy_zero_l_with_an_indeterminate_trig_sum_is_inconclusive(monkeypatch):
    import cyclolog.scans as scan_mod

    verdicts = []

    def gray_after_l(x, target, recompute=None):
        # the first call classifies L; every later one a trig sum, made Indeterminate
        gray = ZeroClass(INDETERMINATE, Real(abs(x.mpf), target))
        verdicts.append(classify_zero(x, target, recompute) if not verdicts else gray)
        return verdicts[-1]

    monkeypatch.setattr(scan_mod, "classify_zero", gray_after_l)
    with pytest.raises(
        scan_mod.InconclusiveClassificationError,
        match=r"^L\(1,f\) is Zero but some trig sums are Indeterminate; raise precision$",
    ):
        dichotomy(bbw_function(7, 3, 128), 128)  # a kernel function: L is Zero
    assert verdicts[0].is_zero


# ---------------------------------------------------------------------------
# kernel functions
# ---------------------------------------------------------------------------

def test_bbw_5_3_l_value_vanishes():
    f = bbw_function(5, 3, 128)
    wp = working_prec(128)
    assert classify_zero(l1_digamma_raw(f, wp), 128).is_zero


def test_bbw_7_pair_vanishes_and_is_independent():
    f3 = bbw_function(7, 3, 128)
    f5 = bbw_function(7, 5, 128)
    wp = working_prec(128)
    for f in (f3, f5):
        assert classify_zero(l1_digamma_raw(f, wp), 128).is_zero
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
            assert f.exact_values == g.exact_values
            nums, d = f.exact_values
            assert d == 1 and set(nums) <= {-1, 0, 1}


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
        assert classify_zero(l1_digamma_raw(f, wp), prec).is_zero, (q, l)
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
            assert classify_zero(l1_digamma_raw(f, wp), prec).is_zero, (q, l)
        # evaluate gives L its error radius, which decides NonZero
        assert evaluate(bbw_function(q, q - 1, prec), prec)[1].is_nonzero, q


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


def test_store_parses_no_byte_equal_line_and_still_checks_other_moduli(tmp_path, monkeypatch):
    import cyclolog.scans as scans_mod

    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    scan(7, 64, store=store)
    stored = path.read_text()
    records = [((7, tuple(json.loads(line)["signs"]), 64), line) for line in scan(7, 64).records]
    parsed = []
    loads = scans_mod.json.loads

    def counting(line):
        parsed.append(loads(line))
        return parsed[-1]

    monkeypatch.setattr(scans_mod.json, "loads", counting)
    assert store.merge(records) == 0
    assert path.read_text() == stored
    # only the six q = 5 lines are parsed, each to check that it is a record
    assert [rec["q"] for rec in parsed] == [5] * 6
    # a q = 5 line that is not a record fails the q = 7 rerun, naming its line
    lines = stored.splitlines()
    lines[3] = lines[3][:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4 is not a scan record"):
        store.merge(records)


def test_store_starts_a_record_on_a_fresh_line_after_a_torn_last_line(tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    scan(7, 64, store=store)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(b"".join(whole.splitlines(keepends=True)[:6])) - 1])
    assert scan(7, 64, store=store).admissible_count == 20  # appends, ending line 6 first
    assert path.read_bytes() == whole
    scan(7, 64, store=store)  # verifies every line
    assert path.read_bytes() == whole


@pytest.mark.parametrize("kept", ["one-byte", "all-but-40-bytes", "all-but-the-brace"])
def test_store_repairs_a_last_line_cut_inside_its_record(kept, tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    scan(7, 64, store=store)
    whole = path.read_bytes()
    last = len(whole.splitlines()[-1]) + 1  # the last line and its newline
    path.write_bytes(whole[: {"one-byte": 1 - last, "all-but-40-bytes": -40, "all-but-the-brace": -2}[kept]])
    # the torn line is cut back and its record appended like any unseen one
    records = [((7, tuple(json.loads(line)["signs"]), 64), line) for line in scan(7, 64).records]
    assert store.merge(records) == 1
    assert path.read_bytes() == whole
    assert store.merge(records) == 0  # verifies every line
    assert path.read_bytes() == whole


@pytest.mark.parametrize(
    "then", ["\n", "\n" + '{"q":3,"signs":[1,-1],"L":"0.6","prec":64}'], ids=["last", "followed-by-a-line"]
)
def test_store_still_rejects_a_cut_line_that_ends_in_a_newline(then, tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    broken = path.read_text()[:-40] + then
    path.write_text(broken)
    with pytest.raises(ValueError, match="line 6 is not a scan record"):
        scan(5, 64, store=store)
    assert path.read_text() == broken


@pytest.mark.parametrize(
    "bad, then",
    [
        (b'{"q":5,\xff\xfe\n', b""),
        (b'{"q":5,\xff\xfe\n', b'{"q":3,"signs":[1,-1],"L":"0.6","prec":64}\n'),
        # JSON would take the byte as a lone surrogate inside a string
        (b'{"q":3,"signs":[1,-1],"L":"0.6\xff","prec":64}\n', b""),
    ],
    ids=["last", "middle", "inside-a-string"],
)
def test_store_names_a_line_that_is_not_utf8(bad, then, tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    broken = path.read_bytes() + bad + then
    path.write_bytes(broken)
    with pytest.raises(ValueError, match="scans.jsonl, line 7 is not a scan record: 'utf-8' codec can't decode"):
        scan(5, 64, store=store)
    assert path.read_bytes() == broken


def test_store_names_a_bad_record_before_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"not json\n"
    lines[4] = b"\xff" + lines[4]
    broken = b"".join(lines)
    path.write_bytes(broken)
    with pytest.raises(ValueError, match="line 2 is not a scan record: Expecting value"):
        scan(5, 64, store=store)
    assert path.read_bytes() == broken


@pytest.mark.parametrize("tail", [b"\xff", b'{"q":7,"signs":[1,\xe2\x88'])
def test_store_cuts_back_a_torn_last_line_that_is_not_utf8(tail, tmp_path):
    # a write cut inside a multi-byte character, or garbage after it, is a torn write
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    scan(7, 64, store=store)
    whole = path.read_bytes()
    last = len(whole.splitlines()[-1]) + 1
    path.write_bytes(whole[:-last] + tail)
    records = [((7, tuple(json.loads(line)["signs"]), 64), line) for line in scan(7, 64).records]
    assert store.merge(records) == 1
    assert path.read_bytes() == whole
    assert store.merge(records) == 0
    assert path.read_bytes() == whole


@pytest.mark.parametrize("where", ["before", "after"])
def test_store_rejects_a_tampered_copy_of_a_key_wherever_it_stands(where, tmp_path):
    # the key is stored twice: its recomputed line and a copy with other bytes
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    lines = path.read_text().splitlines()
    number = 3 if where == "before" else 4
    rec = json.loads(lines[2])
    rec["L"] = "0.125"
    lines.insert(number - 1, canonical_json(rec))
    tampered = "\n".join(lines) + "\n"
    path.write_text(tampered)
    with pytest.raises(ScanStoreDisagreement, match=f"line {number} disagrees"):
        scan(5, 64, store=store)
    assert path.read_text() == tampered


@pytest.mark.parametrize("bad", ["not json", "[1, 2]", '{"q": 5}', '{"q":5,"signs":[[1]],"prec":64}'])
def test_store_names_the_line_that_is_not_a_record(bad, tmp_path):
    path = tmp_path / "scans.jsonl"
    store = ScanStore(str(path))
    scan(5, 64, store=store)
    lines = path.read_text().splitlines()
    lines.insert(4, bad)
    broken = "\n".join(lines) + "\n"
    path.write_text(broken)
    with pytest.raises(ValueError, match="line 5 is not a scan record"):
        scan(5, 64, store=store)
    assert path.read_text() == broken
