"""Exhaustive scans of +-1 periodic functions and their L(1, f) values.

A sign function mod q takes values in {-1, +1} off the multiples of q and
0 on them; convergence of sum f(n)/n forces the q-1 signs to balance, so
admissible functions exist only for odd q and number C(q-1, (q-1)/2).
The scan evaluates L(1, f) for every one of them, classifies each value,
and reports the minimum |L|.

Each scanned function also carries its cotangent and cosine sums: for
prime period, exactly one of "L is nonzero" / "all those trig sums
vanish" can hold, and :func:`dichotomy` decides which.  The functions
with vanishing L among odd algebraic-valued ones are spanned by the
classical kernel family built by :func:`bbw_function`: every member for
odd q, and for even q the members with l <= q - 3, each holding its
working-precision values exactly, as dyadic Fractions.  Their L-values and
trig sums classify Zero (numeric-only evidence, by construction); the
even-q member l = q - 1 is admitted too, but its L is not zero.

Scans are embarrassingly parallel over sign vectors.  Worker processes
(not threads: the arithmetic context is process-global) produce one
record per function: its signs, class tag, L text and canonical JSON
line.  The scan folds the records in enumeration order as they arrive,
counting classes and keeping the first minimum |L|, so output bytes do
not depend on the worker count; the store is keyed from the same
records, and only lines already stored are parsed again.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, repeat
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import to_rational

from .characters import PeriodicFunction, require_odd_prime
from .kernel import (
    NONZERO,
    Real,
    ZeroClass,
    classify_zero,
    dec_str,
    decimal_digits,
    working_prec,
)
from .lseries import l1_digamma_raw, require_convergent, trig_sums_raw
from .serialize import canonical_json
from .tables import tables


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


def _signs_from_positions(q: int, positions: Tuple[int, ...]) -> Tuple[int, ...]:
    plus = set(positions)
    return tuple(1 if i in plus else -1 for i in range(q - 1))


# ---------------------------------------------------------------------------
# trig sums and the nonzero-or-trivial dichotomy
# ---------------------------------------------------------------------------

def evaluate(
    f: PeriodicFunction, prec: int
) -> Tuple[mpmath.mpf, ZeroClass, mpmath.mpf, Dict[int, mpmath.mpf]]:
    """L(1, f), its zero class against ``prec`` bits (with a doubled-precision
    witness), its cot sum and its cos sums, all at working precision."""
    wp = working_prec(prec)
    value = l1_digamma_raw(f, wp)
    cls = classify_zero(Real(value, wp), prec, recompute=lambda w: l1_digamma_raw(f, w))
    return (value, cls, *trig_sums_raw(f, wp))


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

    Exactly one branch holds at the tested precision.  Observing both
    sides violated raises DichotomyContradictionError; an Indeterminate
    L-value raises InconclusiveClassificationError.
    """
    p = f.period
    require_odd_prime(p)
    require_convergent(f)
    wp = working_prec(prec)
    l_raw, l_class, cot, cos_sums = evaluate(f, prec)

    def named(sums) -> Dict[str, mpmath.mpf]:
        return {"cot": sums[0], **{f"cos_{b}": v for b, v in sums[1].items()}}

    # one doubled-precision evaluation of every sum, made on first need
    doubled: Dict[int, Dict[str, mpmath.mpf]] = {}

    def witness(name: str, w: int) -> mpmath.mpf:
        if w not in doubled:
            doubled[w] = named(trig_sums_raw(f, w))
        return doubled[w][name]

    trig_classes: Dict[str, ZeroClass] = {
        name: classify_zero(Real(v, wp), prec, recompute=lambda w, name=name: witness(name, w))
        for name, v in named((cot, cos_sums)).items()
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
    Fraction it equals.  The upper half is the exact negation of the lower
    half, so a period sums to exactly zero; the values only approximate
    f_l, so the L-vanishing evidence they provide is numeric.  L(1, f_l)
    vanishes for odd q and, for even q, when l <= q - 3; the even-q member
    l = q - 1 is not in the kernel (L = pi/4 for q = 4).
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"l must be odd and >= 3, got {l}")
    hi = q - 2 if q % 2 == 1 else q - 1
    if l > hi:
        raise ValueError(f"l must be <= {hi} for q = {q}, got {l}")
    wp = working_prec(prec)
    roots = tables(2 * q, wp).roots  # (cos, sin) of n pi/q at index n
    c1, s1 = roots[1]
    vals: List[Fraction] = [Fraction(0)] * q
    with mp.workprec(wp):
        for n in range(1, (q + 1) // 2):
            c, s = roots[n]
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

def _record(q: int, positions: Tuple[int, ...], prec: int) -> Tuple[Tuple[int, ...], str, str, str]:
    """(signs, class tag, L text, canonical JSON line) for a sign vector;
    pure in (q, positions, prec)."""
    signs = _signs_from_positions(q, positions)
    value, cls, cot, cos_sums = evaluate(sign_function(q, signs), prec)
    digits = decimal_digits(prec)
    record = {
        "q": q,
        "signs": list(signs),
        "L": dec_str(value, digits),
        "prec": prec,
        "class": cls.tag,
        "cot_sum": dec_str(cot, digits),
        "cos_sums": [dec_str(cos_sums[b], digits) for b in sorted(cos_sums)],
    }
    return signs, cls.tag, record["L"], canonical_json(record)


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


SCAN_BOUND = 17  # desk scale: the count is a central binomial


def scan(
    q: int,
    prec: int = 192,
    workers: int = 1,
    store: Optional["ScanStore"] = None,
) -> ScanReport:
    """Evaluate and classify L(1, f) for every admissible sign function mod q.

    Deterministic for any worker count: records are produced per function
    by a pure function and folded in enumeration order as they arrive.
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
    half = (q - 1) // 2
    # the fork start method forks every max_workers process on the first
    # submit, with no upper bound; output does not depend on the count
    workers = min(workers, os.cpu_count() or 1)
    chunk = max(1, comb(q - 1, half) // (workers * 8))
    wp = working_prec(prec)
    min_abs: Optional[mpmath.mpf] = None
    argmin: Optional[Tuple[int, ...]] = None
    counts: Dict[str, int] = {}
    keyed: List[Tuple[Tuple, str]] = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        mapper = partial(pool.map, chunksize=chunk) if pool else map
        for signs, tag, l_text, line in mapper(
            _record, repeat(q), combinations(range(q - 1), half), repeat(prec)
        ):
            counts[tag] = counts.get(tag, 0) + 1
            with mp.workprec(wp):
                val = abs(mpmath.mpf(l_text))
            if min_abs is None or val < min_abs:
                min_abs, argmin = val, signs
            keyed.append(((q, signs, prec), line))
    if store is not None:
        store.merge(keyed)
    return ScanReport(
        q=q,
        prec=prec,
        admissible_count=len(keyed),
        min_abs_l=Real(min_abs, prec) if min_abs is not None else None,
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
        return their count.  A stored line that is not a record (named by its
        1-based number) or that disagrees raises, writing nothing."""
        existing: Dict[Tuple, str] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    if line.strip():
                        try:
                            rec = json.loads(line)
                            existing[rec["q"], tuple(rec["signs"]), rec["prec"]] = line.rstrip("\n")
                        except (ValueError, KeyError, TypeError) as exc:
                            raise ValueError(
                                f"scan store {self.path}, line {number} is not a scan record: {exc}"
                            ) from None
        unseen = []
        for key, line in records:
            if key not in existing:
                unseen.append(line)
            elif existing[key] != line:
                raise ScanStoreDisagreement(
                    f"scan store {self.path} disagrees with a recomputed record for "
                    "(q, signs, prec) = {}".format(key)
                )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in unseen)
        return len(unseen)
