"""Exhaustive scans of +-1 periodic functions and their L(1, f) values.

A sign function mod q takes values in {-1, +1} off the multiples of q and
0 on them; convergence of sum f(n)/n forces the q-1 signs to balance, so
admissible functions exist only for odd q and number C(q-1, (q-1)/2).
The scan evaluates L(1, f) for every one of them, classifies each value,
and reports the minimum |L|.

Each value is classified by L's ball, ``lseries.l1_digamma_raw`` (see
:func:`evaluate`), or where its radius cannot decide, by the same ball at
more bits.  The scan applies the radius rule,
``kernel.radius_decides_nonzero``, to that ball on raw values and builds no
verdict object for a function it decides; every other function is
classified in place from the ball it already holds.

Each scanned function also carries its cotangent and cosine sums: for
prime period, exactly one of "L is nonzero" / "all those trig sums
vanish" can hold, and :func:`dichotomy` decides which.  The functions
with vanishing L among odd algebraic-valued ones are spanned by the
classical kernel family built by :func:`bbw_function`: every member for
odd q, and for even q the members with l <= q - 3, each holding its
working-precision values exactly, as dyadic Fractions.  Their L-values and
trig sums classify Zero (numeric-only evidence, by construction); the
even-q member l = q - 1 is admitted too, but its L is not zero.

Scans are embarrassingly parallel over sign vectors, and they come in
complementary pairs: in lexicographic order of the plus sets, the complement
of the plus set of rank i has rank C - 1 - i, and it is the plus set of -f,
whose every sum is the negation of f's.  The ranks below C/2 are cut once,
into one contiguous range per worker process (not thread: the arithmetic
context is process-global), which builds its columns, its rule share and its
cos-text memo once.  The worker count asked for is an upper bound, cut to
the CPUs this process may run on; a scan whose C/2 pairs split in two gives
shares of fewer than ``MIN_PAIRS_PER_WORKER`` pairs, too few to repay a
worker's start, runs in process as the one range [0, C/2); only a scan
that forks imports the process pool.  Each range gives, in order, one row
per function and one for its complement: its signs, class tag, exact |L|, L
text and canonical JSON line.  The complement's row is the function's, its
signs and texts negated and filled into the same template, so a scan
evaluates half the functions.  A range unranks its first plus set and steps
through the rest in rank order, keeping one running sum vector per depth of
the plus set, so a step re-sums only the depths whose position changed; a
function's sums are exact integers over the aligned tables, each rounded
once.  L's radius depends on the psi sum and on L only through their
binades, so it is formed once per pair of binades in a range.  The cos sums
depend only on how many plus positions fold onto each index, so they repeat
across a range: each is rounded and rendered once per distinct exact integer
in its range, its negation beside it.  The scan joins the rows of the first
half in rank order, then the complement rows in reverse, so output bytes do
not depend on the worker count or the cut; it counts classes, keys the store
from the same rows and takes the minimum over the exact |L|.  It parses
nothing but the minimum's text; of the lines already stored, only those that
differ from every recomputed line are parsed again.  A store whose last line
was cut inside its record by a torn write is cut back to the line before it,
and that record is appended again.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb
from operator import add, neg
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_abs, mpf_div, mpf_lt, round_nearest, to_rational

from .characters import PeriodicFunction, require_odd_prime
from .kernel import (
    NONZERO, Real, ZeroClass, classify_zero, dec_str, decimal_digits, radius_decides_nonzero, working_prec,
)
from .lseries import l1_ball_raw, l1_digamma_raw, require_convergent, trig_sums_raw
from .tables import Tables, tables


class DichotomyContradictionError(RuntimeError):
    """L(1,f) classified Zero while some trig sum classified NonZero.

    That combination is impossible for prime period; reaching it means a
    broken invariant, so the caller must abort, not continue.
    """


class InconclusiveClassificationError(RuntimeError):
    """A classification came back Indeterminate where a verdict was needed."""


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def sign_function(q: int, signs: Sequence[int]) -> PeriodicFunction:
    """The sign vector (f(1), ..., f(q-1)) as a periodic function with f(q) = 0."""
    if len(signs) != q - 1 or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be q-1 values in {-1, +1}")
    return PeriodicFunction(q, (*signs, 0))


# ---------------------------------------------------------------------------
# trig sums and the nonzero-or-trivial dichotomy
# ---------------------------------------------------------------------------

def evaluate(f: PeriodicFunction, prec: int) -> Tuple[mpmath.mpf, ZeroClass, mpmath.mpf, Dict[int, mpmath.mpf]]:
    """L(1, f), its zero class against ``prec`` bits, its cot sum and its cos
    sums, all at working precision.  The class is that of L's ball at wp,
    ``l1_digamma_raw``, escalated to L's ball at more bits where its radius
    cannot decide."""
    wp = working_prec(prec)
    ball = l1_digamma_raw(f, wp)
    return (ball.mpf, classify_zero(ball, prec, lambda w: l1_digamma_raw(f, w)), *trig_sums_raw(f, wp))


BRANCH_L_NONZERO = "L_nonzero"
BRANCH_TRIG_VANISH = "trig_sums_vanish"


@dataclass(frozen=True)
class DichotomyVerdict:
    cot_sum: Real
    cos_sums: Dict[int, Real]
    l_value: Real
    branch: str
    l_class: ZeroClass
    trig_classes: Dict[str, ZeroClass]


def dichotomy(f: PeriodicFunction, prec: int = 128) -> DichotomyVerdict:
    """For prime period: decide "L(1,f) nonzero" vs "all trig sums vanish".

    Each trig sum is classified by its ball (the tables' rule's radius) at
    wp and at every precision it escalates to, each formed once per w.
    Exactly one branch holds at the tested precision.  Observing both
    sides violated raises DichotomyContradictionError; an Indeterminate
    L-value raises InconclusiveClassificationError.
    """
    p = f.period
    require_odd_prime(p)
    require_convergent(f)
    l_raw, l_class, cot, cos_sums = evaluate(f, prec)
    sums = {working_prec(prec): (cot, cos_sums)}

    def ball(b: int, w: int) -> Real:
        # sum b at w: the cot sum for b = 0, else the cos sum of b
        if w not in sums:
            sums[w] = trig_sums_raw(f, w)
        cot_w, cos_w = sums[w]
        v = (cos_w[b] if b else cot_w)._mpf_
        tab = tables(p, w)
        return Real.ball((v, tab.radius(v, tab.rule(**{"cos" if b else "cot": f.abs_sum}))), w)

    trig_classes: Dict[str, ZeroClass] = {
        f"cos_{b}" if b else "cot": classify_zero(ball(b, working_prec(prec)), prec, lambda w, b=b: ball(b, w))
        for b in range(len(cos_sums) + 1)
    }

    if l_class.is_nonzero:
        branch = BRANCH_L_NONZERO
    elif l_class.is_zero:
        offenders = [k for k, c in trig_classes.items() if c.is_nonzero]
        if offenders:
            raise DichotomyContradictionError(
                f"L(1,f) classified Zero but trig sums {offenders} classified NonZero "
                f"for period {p}; this contradicts the certified independence"
            )
        if any(c.is_indeterminate for c in trig_classes.values()):
            raise InconclusiveClassificationError(
                "L(1,f) is Zero but some trig sums are Indeterminate; raise precision"
            )
        branch = BRANCH_TRIG_VANISH
    else:
        raise InconclusiveClassificationError(
            "L(1,f) classified Indeterminate; raise precision"
        )
    return DichotomyVerdict(
        cot_sum=Real(cot, prec),
        cos_sums={b: Real(v, prec) for b, v in cos_sums.items()},
        l_value=Real(l_raw, prec),
        branch=branch,
        l_class=l_class,
        trig_classes=trig_classes,
    )


# ---------------------------------------------------------------------------
# kernel functions of f -> L(1, f) among odd algebraic-valued functions
# ---------------------------------------------------------------------------

def bbw_function(q: int, l: int, prec: int = 128) -> PeriodicFunction:
    """The classical odd kernel function f_l mod q, evaluated numerically.

    Odd q:  f_l(n) = (-1)^(n-1) (sin(n pi/q) / sin(pi/q))^l,   l = 3, 5, .., q-2.
    Even q: the same times cos(n pi/q)/cos(pi/q),              l = 3, 5, .., q-1.

    Each value is the working-precision number, held exactly as the dyadic
    Fraction it equals; its cos and sin of n pi/q are the angles n of the
    tables entry of q, the one ``evaluate`` reads.  The upper half is the
    exact negation of the lower half, so a period sums to exactly zero; the
    values only approximate f_l, so the L-vanishing evidence they provide
    is numeric.  L(1, f_l) vanishes for odd q and, for even q, when
    l <= q - 3; the even-q member l = q - 1 is not in the kernel (L = pi/4
    for q = 4).
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"l must be odd and >= 3, got {l}")
    hi = q - 2 if q % 2 == 1 else q - 1
    if l > hi:
        raise ValueError(f"l must be <= {hi} for q = {q}, got {l}")
    wp = working_prec(prec)
    tab = tables(q, wp)
    c1, s1 = map(mp.make_mpf, tab.angle(1))
    vals: List[Fraction] = [Fraction(0)] * q
    with mp.workprec(wp):
        for n in range(1, (q + 1) // 2):
            c, s = map(mp.make_mpf, tab.angle(n))
            v = (s / s1) ** l
            if q % 2 == 0:
                v *= c / c1
            if n % 2 == 0:
                v = -v
            vals[n - 1] = Fraction(*to_rational(v._mpf_))
            vals[q - n - 1] = -vals[n - 1]
        # f(q/2) for even q has a cos(pi/2) factor; f(q) sits on a zero of sin
    return PeriodicFunction(q, tuple(vals))


# ---------------------------------------------------------------------------
# the scan itself
# ---------------------------------------------------------------------------

def _render(
    q: int, signs: Tuple[int, ...], prec: int, tag: str, l_text: str, cot_text: str, cos_texts: Sequence[str]
) -> Tuple[str, str]:
    """(L text, canonical JSON line) of the scan record of ``signs`` with
    class ``tag`` and the texts of its L, its cot sum and its cos sums in
    order of b, each rendered to ``decimal_digits(prec)`` digits.

    The line is filled into one fixed template, the bytes ``canonical_json``
    gives the record dict with keys q, signs, L, prec, class, cot_sum,
    cos_sums: every value is an int, a class tag or a decimal text, none of
    which JSON escapes, so no dict is built and nothing is serialized.  A
    record and its complement's are both filled into it.
    """
    cos_line = '","'.join(cos_texts)
    line = (
        f'{{"q":{q},"signs":[{",".join(map(str, signs))}],"L":"{l_text}","prec":{prec},'
        f'"class":"{tag}","cot_sum":"{cot_text}","cos_sums":["{cos_line}"]}}'
    )
    return l_text, line


def _negated(text: str) -> str:
    """``dec_str(-x, digits)`` from ``text = dec_str(x, digits)``: the sign
    stands in front of the digits of |x|, and zero renders "0.0" either way."""
    if text == "0.0":
        return text
    return text[1:] if text[0] == "-" else "-" + text


def _plus_sets(n: int, k: int, start: int, stop: int) -> Iterator[Tuple[int, List[int], List[int]]]:
    """Walk the k-subsets of range(n) of ranks start..stop - 1 in the
    lexicographic order of ``combinations(range(n), k)``.

    Yields, per subset, (depth, positions, signs): ``positions`` its
    elements in ascending order, ``signs`` its indicator over range(n) as
    +1 in and -1 out, and ``depth`` the first index of ``positions`` that
    differs from the subset before (0 for the first).  Both lists are the
    same two objects each time, stepped in place.  The first subset is
    unranked: of the subsets that agree up to an index, those whose next
    element is x number comb(n - x - 1, elements left - 1).
    """
    if start >= stop:
        return
    positions, signs, x, rank = [], [-1] * n, 0, start
    for left in range(k, 0, -1):
        while rank >= (count := comb(n - x - 1, left - 1)):
            rank -= count
            x += 1
        positions.append(x)
        signs[x] = 1
        x += 1
    yield 0, positions, signs
    top = n - k  # positions[d] is at its last value at n - k + d
    for _ in range(start + 1, stop):
        depth = k - 1
        while positions[depth] == top + depth:
            depth -= 1
        # the tail from depth moves up: its old value and the maxima after it
        # leave, and the run of values after the old one comes in
        x = positions[depth]
        for old in positions[depth:]:
            signs[old] = -1
        positions[depth:] = range(x + 1, x + 1 + k - depth)
        for new in positions[depth:]:
            signs[new] = 1
        yield depth, positions, signs


def _l1_balls(tab: Tables, share: tuple) -> Callable[[tuple], Tuple[tuple, tuple]]:
    """``total -> l1_ball_raw(tab, share, total)`` for the psi sums of one
    range, with one radius per binade.

    L, the psi sum divided by -q and rounded to nearest at wp, is formed for
    each sum.  Its radius, (share + 1/2 ulp of the sum) / q + 1/2 ulp of L,
    each step rounded up, reads the sum and L only through those two half
    ulps, so it is formed once per pair of their binades (exp + bc) and
    kept for the sums that follow.  A zero sum has no binade (its half ulp
    is 0, though its exp + bc reads 0), so it has a key of its own.
    """
    wp = tab.wp
    divisor = from_int(-tab.q)
    radii: Dict[Optional[Tuple[int, int]], tuple] = {}

    def ball(total: tuple) -> Tuple[tuple, tuple]:
        raw = mpf_div(total, divisor, wp, round_nearest)
        key = (total[2] + total[3], raw[2] + raw[3]) if total[1] else None
        if key not in radii:
            radii[key] = l1_ball_raw(tab, share, total)[1]
        return raw, radii[key]

    return ball


# (signs, class tag, |L| as a raw mpf, L text, canonical JSON line)
Row = Tuple[Tuple[int, ...], str, tuple, str, str]


def _scan_range(q: int, prec: int, start: int, stop: int) -> List[Tuple[Row, Row]]:
    """(row, its complement's row) for each sign function mod q whose
    enumeration rank lies in [start, stop), in order; pure in (q, prec,
    start, stop).  The complement of the function of rank i is -f, of rank
    C - 1 - i among the C admissible functions.

    Each of a function's (q + 3)/2 sums, psi, cot and cos for
    b = 1..(q-1)/2, is sum_a f(a) T_a = 2 sum_{a in P} T_a - sum_a T_a over
    its plus set P: an exact integer over the aligned tables, rounded once
    at wp, the bits ``Tables.weighted_sum`` (psi, cot) and
    ``Tables.harmonic_sums`` (cos) give.  The plus sets are walked in rank
    order by :func:`_plus_sets`, with one running vector of sums per depth:
    depth 0 holds -sum_a T_a, depth d + 1 adds 2 T_a for the element at
    index d, so the last depth holds the function's sums exactly, and a step
    re-sums only the depths from the first index that changed.  L's ball is
    ``l1_ball_raw`` of the psi sum, as in :func:`evaluate`, with the rule's
    share for sum_a |f(a)| = q - 1 formed once for the range and the radius
    once per binade (:func:`_l1_balls`); a record whose radius does not
    decide NonZero is classified from that ball, escalated to
    ``l1_digamma_raw`` of its sign function at more bits.

    The row of -f is the row of f with its signs negated and its L, cot and
    cos texts negated by :func:`_negated`, its tag and |L| kept, and that is
    exact: every sum of -f is the negated exact integer, and each rounding,
    ``from_man_exp`` and ``mpf_div`` by -q, is to nearest on the magnitude;
    the radius depends on |x| alone, so the rule decides -f as it decides f;
    ``l1_digamma_raw(-f, w) = -l1_digamma_raw(f, w)`` exactly, so an
    escalated class carries over; and ``dec_str`` prints the sign in front
    of the digits of |x|.  Both lines are filled into :func:`_render`'s
    template from the same pieces.

    A cos sum is rounded and rendered once per distinct exact integer in
    the range, with its negated text beside it, then both are reused: the
    cos sums share one exponent, so the integer alone names the text.
    """
    wp = working_prec(prec)
    tab = tables(q, wp)
    psi, psi_exp = tab.psi_aligned
    cot, cot_exp = tab.cot_aligned
    cos, cos_exp = tab.cos_aligned
    bs = range(1, (q - 1) // 2 + 1)
    # per position i, so a = i + 1: the aligned entries f(a) weighs
    columns = [(psi[i], cot[i], *(cos[(i + 1) * b % q] for b in bs)) for i in range(q - 1)]
    doubled = [[2 * t for t in col] for col in columns]
    k = (q - 1) // 2
    # per depth d, -sum_a T_a + 2 sum of T_a over the first d plus positions
    sums = [[-sum(col) for col in zip(*columns)]] + [[]] * k
    share = tab.rule(psi=q - 1)
    l_ball = _l1_balls(tab, share)
    digits = decimal_digits(prec)
    texts: Dict[int, Tuple[str, str]] = {}  # exact cos sum -> its text and its negation, for this range only

    def cos_text(n: int) -> Tuple[str, str]:
        if n not in texts:
            text = dec_str(mp.make_mpf(from_man_exp(n, cos_exp, wp, round_nearest)), digits)
            texts[n] = text, _negated(text)
        return texts[n]

    pairs = []
    for depth, positions, plus in _plus_sets(q - 1, k, start, stop):
        for d in range(depth, k):
            sums[d + 1] = list(map(add, sums[d], doubled[positions[d]]))
        psi_n, cot_n, *cos_ns = sums[k]
        raw, rad = l_ball(from_man_exp(psi_n, psi_exp, wp, round_nearest))
        magnitude = mpf_abs(raw)
        signs = tuple(plus)
        if radius_decides_nonzero(magnitude, rad, prec):
            tag = NONZERO
        else:
            ball = Real.ball((raw, rad), wp)
            tag = classify_zero(ball, prec, lambda w: l1_digamma_raw(sign_function(q, signs), w)).tag
        l_text = dec_str(mp.make_mpf(raw), digits)
        cot_text = dec_str(mp.make_mpf(from_man_exp(cot_n, cot_exp, wp, round_nearest)), digits)
        cos_texts, twin_cos = zip(*map(cos_text, cos_ns))
        twin = tuple(map(neg, signs))
        pairs.append((
            (signs, tag, magnitude, *_render(q, signs, prec, tag, l_text, cot_text, cos_texts)),
            (twin, tag, magnitude, *_render(q, twin, prec, tag, _negated(l_text), _negated(cot_text), twin_cos)),
        ))
    return pairs


def _minimum(rows: Sequence[Row]) -> Tuple[str, Tuple[int, ...]]:
    """(|L| text, signs) of the scan's minimum |L|: the first row, in
    enumeration order, whose |L| text equals the text of the exact minimum.

    That is the strict-< minimum over the L texts parsed back at wp: distinct
    texts parse to distinct values, and rendering and parsing are monotone.
    """
    low = rows[0]
    for row in rows:
        if mpf_lt(row[2], low[2]):
            low = row
    text = low[3].lstrip("-")
    return text, next(row[0] for row in rows if row[3].lstrip("-") == text)


@dataclass(frozen=True)
class ScanReport:
    q: int
    prec: int
    admissible_count: int
    min_abs_l: Optional[Real]
    argmin_signs: Optional[Tuple[int, ...]]
    class_counts: Dict[str, int]
    reason: Optional[str] = None
    records: Optional[Tuple[str, ...]] = None

    @property
    def all_nonzero(self) -> Optional[bool]:
        return None if self.reason is not None else set(self.class_counts) <= {NONZERO}

    def to_payload(self, include_records: bool = False) -> dict:
        if self.reason is not None:
            return {"q": self.q, "admissible_count": self.admissible_count, "reason": self.reason}
        payload = {
            "q": self.q,
            "prec": self.prec,
            "admissible_count": self.admissible_count,
            "min_abs_L": self.min_abs_l.to_decimal() if self.min_abs_l is not None else None,
            "argmin_signs": list(self.argmin_signs) if self.argmin_signs else None,
            "all_nonzero": self.all_nonzero,
        }
        if include_records and self.records is not None:
            payload["records"] = [json.loads(r) for r in self.records]
        return payload


SCAN_BOUND = 19  # desk scale: the count is a central binomial

# The fewest complementary pairs in a worker's share that repay its start.
# On a 2-vCPU VM (Python 3.11, mpmath's pure-Python backend, prec 192) a
# worker costs a fixed F of 25-35 ms over the same range in process (its
# fork, its own tables and per-range memos, pickling its rows back), and a
# pair costs c of 40-45 us at q = 15 and up to 55 us at q = 19.  A share of
# 10 F / c pairs, 4,500-8,800, keeps F within a tenth of the work it moves
# off the parent; the medians (F 27-31 ms, c 42 us) give about 7,000.
# A scan forks only where a split in two gives each worker such a share,
# and then as many workers as asked for and the CPUs allow, each on one
# range with one cos-text memo, so F is paid once a worker.  Any value from
# 3,218 to 12,155 sorts the odd q <= 19 alike: q <= 17 (at most 6,435 pairs)
# runs in process, and q = 19 (24,310 pairs) forks.
MIN_PAIRS_PER_WORKER = 7000


def _process_pool(workers: int):
    """A process pool of ``workers`` workers.  Its module is imported here,
    where a scan forks, so an interpreter that never forks does not load it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a cpuset-limited container counts fewer than the host has),
    else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan(
    q: int,
    prec: int = 192,
    workers: int = 1,
    store: Optional["ScanStore"] = None,
) -> ScanReport:
    """Evaluate and classify L(1, f) for every admissible sign function mod q.

    Deterministic for any worker count: the ranks below C/2 are cut into
    one contiguous range per process, each evaluated by
    :func:`_scan_range` (pure in its range, which also gives the rows of
    their complements), the ranges are joined in order and the complement
    rows follow in reverse, which is rank order.  ``workers`` is an upper
    bound: where C/2 is at least 2 * ``MIN_PAIRS_PER_WORKER`` pairs the scan
    forks ``min(workers, usable CPUs)`` processes, if that is at least 2,
    and otherwise it evaluates the one range [0, C/2) in process.  The minimum
    |L| is taken over the exact values (:func:`_minimum`); nothing is
    parsed but its text.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    if q > SCAN_BOUND:
        raise ValueError(
            f"q = {q} exceeds the scan bound {SCAN_BOUND} "
            "(count grows as a central binomial)"
        )
    if q % 2 == 0:
        return ScanReport(
            q=q, prec=prec, admissible_count=0, min_abs_l=None,
            argmin_signs=None, class_counts={}, reason="parity",
        )
    # C(q - 1, (q - 1)/2) is even: ranks [0, half) and their complements
    half = comb(q - 1, (q - 1) // 2) // 2
    # the fork start method forks every max_workers process on the first
    # submit, with no upper bound, so the count is capped at the usable CPUs;
    # a half whose split in two gives shares below MIN_PAIRS_PER_WORKER runs
    # in process; output does not depend on the count
    workers = min(workers, _usable_cpus()) if half >= 2 * MIN_PAIRS_PER_WORKER else 1
    # one contiguous range a process, so each builds its columns and memo once
    bounds = [half * k // workers for k in range(workers + 1)]
    with (_process_pool(workers) if workers > 1 else nullcontext()) as pool:
        mapper = pool.map if pool else map
        pairs = list(chain.from_iterable(mapper(_scan_range, repeat(q), repeat(prec), bounds[:-1], bounds[1:])))
    # rank C - 1 - i is the complement of rank i: the second half in reverse
    rows = [row for row, _ in pairs] + [twin for _, twin in reversed(pairs)]
    counts = dict(Counter(row[1] for row in rows))
    keyed = [((q, signs, prec), line) for signs, _, _, _, line in rows]
    if store is not None:
        store.merge(keyed)
    text, argmin = _minimum(rows)
    with mp.workprec(working_prec(prec)):
        min_abs = mpmath.mpf(text)
    return ScanReport(
        q=q,
        prec=prec,
        admissible_count=len(rows),
        min_abs_l=Real(min_abs, prec),
        argmin_signs=argmin,
        class_counts=counts,
        records=tuple(line for _, line in keyed),
    )


class ScanStoreDisagreement(RuntimeError):
    """A stored scan record differs from its recomputation."""


class ScanStore:
    """Append-only JSONL store of scan records; reruns verify, never duplicate."""

    def __init__(self, path: str):
        self.path = path

    def merge(self, records: Iterable[Tuple[Tuple, str]]) -> int:
        """Append the unseen ones of ``((q, signs, prec), line)`` records and
        return their count.  A stored line that is not a record, bytes that
        are not UTF-8 among them, or that disagrees raises, naming its
        1-based number and writing nothing.

        A stored line byte-equal to a recomputed line is that record, in
        agreement, and is not parsed.  Every other non-blank line is parsed;
        if its key is among the recomputed keys it disagrees, wherever it
        stands in the file, so a key stored twice with different bytes
        raises whichever copy comes first.  Lines of other (q, prec) are
        parsed only to check that they are records.  A last line without its
        newline is ended before the first appended record, so the record
        starts a line of its own; if it is not a record either, it is a write
        cut inside its record, and the file is cut back to the end of the
        line before it, so that record is appended whole like any unseen one.
        """
        recomputed = {line: key for key, line in records}
        keys = set(recomputed.values())
        seen = set()
        torn, cut = False, 0  # cut: bytes of a torn last line, dropped before appending
        if os.path.exists(self.path):
            # a byte that is not UTF-8 reads as a lone surrogate; parsed lines decode strictly
            with open(self.path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                for number, line in enumerate(fh, 1):
                    torn = not line.endswith("\n")
                    line = line.rstrip("\n")
                    if line in recomputed:
                        seen.add(recomputed[line])
                    elif line.strip():
                        raw = line.encode("utf-8", "surrogateescape")
                        try:
                            rec = json.loads(raw.decode("utf-8"))
                            key = (rec["q"], tuple(rec["signs"]), rec["prec"])
                            disagrees = key in keys
                        except (ValueError, KeyError, TypeError) as exc:
                            if torn:  # only the last line lacks its newline
                                cut = len(raw)
                                continue
                            raise ValueError(
                                f"scan store {self.path}, line {number} is not a scan record: {exc}"
                            ) from None
                        if disagrees:
                            raise ScanStoreDisagreement(
                                f"scan store {self.path}, line {number} disagrees with a "
                                f"recomputed record for (q, signs, prec) = {key}"
                            )
        unseen = [line for line, key in recomputed.items() if key not in seen]
        if cut:
            os.truncate(self.path, os.path.getsize(self.path) - cut)
        elif torn and unseen:
            unseen[0] = "\n" + unseen[0]
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in unseen)
        return len(unseen)
